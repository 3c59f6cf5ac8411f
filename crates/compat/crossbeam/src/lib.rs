//! Vendored stand-in for `crossbeam`: the `channel` subset (`unbounded` /
//! `bounded` MPMC channels) backed by a mutex-and-condvar ring. Like
//! upstream, receivers drain every message already sent before reporting
//! disconnection. (Scoped threads come from `std::thread::scope`.)

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Receivers wait here for messages (or for the last sender to go).
        recv_ready: Condvar,
        /// Senders of a bounded channel wait here for capacity.
        send_ready: Condvar,
        capacity: Option<usize>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent message is handed back, mirroring upstream.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now, but senders remain.
        Empty,
        /// Nothing queued and no sender is left.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// No message and no sender is left.
        Disconnected,
    }

    /// The sending half; cloning adds another producer.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; cloning adds another (competing) consumer.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates a channel with no capacity bound: `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` queued messages (`cap` is
    /// rounded up to 1); `send` blocks while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            recv_ready: Condvar::new(),
            send_ready: Condvar::new(),
            capacity,
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    fn lock<T>(chan: &Chan<T>) -> std::sync::MutexGuard<'_, State<T>> {
        chan.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    impl<T> Sender<T> {
        /// Queues `value`, blocking while a bounded channel is full. Fails
        /// (returning the value) once every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = lock(&self.chan);
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self
                            .chan
                            .send_ready
                            .wait(state)
                            .unwrap_or_else(|p| p.into_inner());
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.chan.recv_ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.chan).senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = lock(&self.chan);
            state.senders -= 1;
            let last = state.senders == 0;
            drop(state);
            if last {
                // Wake receivers blocked in recv so they observe disconnect.
                self.chan.recv_ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Takes the next message, blocking until one arrives. Returns
        /// `Err(RecvError)` only after the queue is empty *and* every sender
        /// is gone — queued messages are always drained first.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = lock(&self.chan);
            loop {
                if let Some(v) = state.queue.pop_front() {
                    drop(state);
                    self.chan.send_ready.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .chan
                    .recv_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Non-blocking [`Receiver::recv`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = lock(&self.chan);
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.chan.send_ready.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// [`Receiver::recv`] with a deadline relative to now.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = lock(&self.chan);
            loop {
                if let Some(v) = state.queue.pop_front() {
                    drop(state);
                    self.chan.send_ready.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .chan
                    .recv_ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                state = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            lock(&self.chan).receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = lock(&self.chan);
            state.receivers -= 1;
            let last = state.receivers == 0;
            drop(state);
            if last {
                // Wake senders blocked on capacity so send can fail fast.
                self.chan.send_ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn channel_roundtrip_fifo() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn receivers_drain_before_disconnect() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(channel::RecvError));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(channel::SendError(7)));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
    }

    #[test]
    fn bounded_blocks_until_capacity_frees() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).map_err(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1)); // frees capacity, unblocks the sender
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap().unwrap();
    }

    #[test]
    fn mpmc_every_message_arrives_once() {
        let (tx, rx) = channel::unbounded::<usize>();
        let mut handles = Vec::new();
        for t in 0..3 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
    }
}
