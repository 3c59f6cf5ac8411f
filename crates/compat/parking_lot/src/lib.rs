//! Vendored stand-in for `parking_lot`: `Mutex` and `RwLock` with the
//! upstream's poison-free API, backed by `std::sync`. A poisoned std lock
//! (a holder panicked) is treated as still-usable, matching `parking_lot`
//! semantics where poisoning does not exist.

use std::sync::{MutexGuard as StdMutexGuard, RwLockReadGuard, RwLockWriteGuard};

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self
                .inner
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        }
    }

    /// Upstream's non-blocking acquire: `Some(guard)` when the lock was
    /// free, `None` when another holder has it right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard { inner }),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(MutexGuard {
                inner: poison.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    inner: StdMutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
