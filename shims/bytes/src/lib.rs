//! Offline stand-in for the `bytes` crate: cheaply-cloneable immutable
//! byte buffers ([`Bytes`]), growable builders ([`BytesMut`]), and the
//! little-endian cursor traits ([`Buf`] / [`BufMut`]) the workspace's
//! codecs use.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Immutable, reference-counted byte buffer. Clones and slices share
/// the same backing allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// Buffer backed by a static slice (copied here — the shim has no
    /// zero-copy static storage).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes)
    }

    /// Length in bytes of the visible window.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if no bytes remain visible.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Copy the visible window into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::from(s.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

/// Growable byte buffer that freezes into an immutable [`Bytes`].
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        Self { buf: s.to_vec() }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", self.buf)
    }
}

macro_rules! get_le {
    ($(#[$doc:meta] $name:ident -> $t:ty),+ $(,)?) => {
        $(
            #[$doc]
            fn $name(&mut self) -> $t {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                self.copy_to_slice(&mut raw);
                <$t>::from_le_bytes(raw)
            }
        )+
    };
}

/// Read cursor over a byte buffer. Reads advance the cursor; running
/// past the end panics, mirroring the real crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// `true` if any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];

    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Read exactly `dst.len()` bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    get_le! {
        /// Read a little-endian `u16`.
        get_u16_le -> u16,
        /// Read a little-endian `u32`.
        get_u32_le -> u32,
        /// Read a little-endian `u64`.
        get_u64_le -> u64,
        /// Read a little-endian `i64`.
        get_i64_le -> i64,
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }
}

macro_rules! put_le {
    ($(#[$doc:meta] $name:ident($t:ty)),+ $(,)?) => {
        $(
            #[$doc]
            fn $name(&mut self, v: $t) {
                self.put_slice(&v.to_le_bytes());
            }
        )+
    };
}

/// Append-only write cursor.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le! {
        /// Append a little-endian `u16`.
        put_u16_le(u16),
        /// Append a little-endian `u32`.
        put_u32_le(u32),
        /// Append a little-endian `u64`.
        put_u64_le(u64),
        /// Append a little-endian `i64`.
        put_i64_le(i64),
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u16_le(513);
        b.put_u32_le(70_000);
        b.put_i64_le(-5);
        b.put_f64_le(1.5);
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 8);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_and_mutate() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&b.slice(1..3)[..], &[2, 3]);
        assert_eq!(&b.slice(..2)[..], &[1, 2]);
        let mut m = BytesMut::from(&b[..]);
        m[0] ^= 0xFF;
        assert_eq!(m[0], 0xFE);
    }
}
