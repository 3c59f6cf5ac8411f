//! Vendored stand-in for the `bytes` crate: the cursor subset the workspace
//! uses — byte reads for `friends_index::varint`, little-endian writes for
//! the `friends_data` snapshot and WAL codecs. `Buf` is implemented for
//! `&[u8]` (reading advances the slice) and `BufMut` for `Vec<u8>` (writing
//! appends).

/// Sequential reader.
pub trait Buf {
    fn remaining(&self) -> usize;

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }
}

/// Sequential little-endian writer.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f32_le(&mut self, v: f32);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xDEADBEEF);
        buf.put_u64_le(1 << 40);
        buf.put_f32_le(1.5);
        let mut want = vec![7];
        want.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
        want.extend_from_slice(&(1u64 << 40).to_le_bytes());
        want.extend_from_slice(&1.5f32.to_le_bytes());
        assert_eq!(buf, want);
        let mut r = buf.as_slice();
        assert_eq!(r.remaining(), 17);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.remaining(), 16);
        assert!(r.has_remaining() && !(&[] as &[u8]).has_remaining());
    }

    #[test]
    #[should_panic]
    fn short_read_panics() {
        let mut r: &[u8] = &[];
        r.get_u8();
    }
}
