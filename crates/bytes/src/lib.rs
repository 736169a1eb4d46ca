//! Offline API-compatible subset of the `bytes` crate.
//!
//! The NetCo reproduction builds in environments without crates.io access,
//! so the workspace vendors the small slice of `bytes` it actually uses:
//! [`Bytes`] (cheaply clonable, sliceable immutable buffers), [`BytesMut`]
//! (a growable build buffer) and the big-endian write half of [`BufMut`].
//!
//! For this subset the semantics follow the real crate where it matters
//! for correctness: `Bytes::clone` and `Bytes::slice` are O(1)
//! reference-count operations, equality/hashing are by content, and
//! `BytesMut::freeze` converts without copying: the buffer that was
//! written is the buffer every clone and slice reads, spare capacity
//! included, so size a `BytesMut` to its message.
//!
//! The costs differ in two places, so no hot path may assume they are
//! free:
//!
//! - [`Bytes::from_static`] **copies** the slice into a new heap buffer
//!   and allocates a reference count (the real crate borrows the static);
//! - [`Bytes::new`] **allocates** (an empty `Vec` behind a new reference
//!   count; the real crate's empty `Bytes` is a static).
//!
//! A path that needs a constant payload per packet builds one `Bytes`
//! once and clones or slices it.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    // The `Vec` stays behind the `Arc` as it was handed over:
    // `Arc::<[u8]>::from(vec)` would allocate a second buffer and copy.
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`. Allocates a reference count (unlike the
    /// real crate): clone one shared empty `Bytes` on a hot path instead.
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice. **Copies** it into a new
    /// buffer (unlike the real crate, which borrows it).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from_vec(bytes.to_vec())
    }

    /// Creates `Bytes` by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_vec(data.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a slice of self for the provided range. O(1): shares the
    /// underlying storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
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

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from_vec(b.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Bytes {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable buffer for building wire messages.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { inner: Vec::new() }
    }

    /// Creates an empty buffer with `capacity` reserved.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            inner: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.inner.extend_from_slice(extend);
    }

    /// Resizes the buffer, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.inner.resize(new_len, value);
    }

    /// Shortens the buffer to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.inner.truncate(len);
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.inner)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?} bytes)", self.inner.len())
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut { inner: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { inner: v }
    }
}

/// Big-endian write operations (the subset of `bytes::BufMut` the
/// reproduction uses).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a big-endian u16.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian u32.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian u64.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_storage_on_clone_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert_eq!(&c[..], &[1, 2, 3, 4, 5]);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::from(vec![2u8, 3]));
    }

    #[test]
    fn bytes_eq_hash_by_content() {
        use std::collections::HashMap;
        let a = Bytes::from(vec![9u8; 4]);
        let b = Bytes::from_static(&[9, 9, 9, 9]);
        assert_eq!(a, b);
        let mut m = HashMap::new();
        m.insert(a, 1);
        assert_eq!(m.get(&b), Some(&1));
    }

    #[test]
    fn bytes_mut_big_endian_puts() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0x01);
        b.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        b.put_u64(0x0809_0a0b_0c0d_0e0f);
        b.put_slice(&[0xff]);
        let frozen = b.freeze();
        assert_eq!(
            &frozen[..],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xff]
        );
    }

    #[test]
    fn freeze_and_from_vec_keep_the_buffer() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(b"written once");
        let written = b.as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), written);
        assert_eq!(frozen.clone().as_ptr(), written);
        assert_eq!(frozen.slice(8..).as_ptr(), written.wrapping_add(8));

        let v = vec![7u8; 100];
        let built = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), built);
    }

    #[test]
    fn slice_bounds_checked() {
        let b = Bytes::from(vec![0u8; 3]);
        assert_eq!(b.slice(..).len(), 3);
        assert_eq!(b.slice(3..3).len(), 0);
        let r = std::panic::catch_unwind(|| b.slice(2..5));
        assert!(r.is_err());
    }
}
