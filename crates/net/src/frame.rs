//! The simulator's unit of data-plane traffic: wire bytes plus a
//! share-on-clone memo of derived values.
//!
//! NetCo's robust combining sends the *same bytes* through the hub, `k`
//! replicas and the compare element, and every hop used to re-derive the
//! same two expensive values from them: the 128-bit content fingerprint
//! ([`fp128`], used as the compare key and the packet-lifecycle key) and
//! the parsed OpenFlow 12-tuple ([`PacketFields`], used for flow-table
//! classification). A [`Frame`] computes each value lazily, at most once
//! per unique content, and shares the result across every clone — so the
//! cost no longer scales with `k` or with path length.
//!
//! # Immutability invariant
//!
//! The memo is sound because a `Frame`'s bytes are immutable: [`Bytes`] is
//! an immutable shared buffer, and no `Frame` API mutates content in
//! place. Every path that produces *different* bytes (header rewrites,
//! fault-injected corruption, truncation to a shorter slice) constructs a
//! **new** `Frame` with a fresh, empty memo. Cloning shares the memo;
//! changing content never does.
//!
//! Encapsulation is the one place two contents are related:
//! [`Frame::encapsulating`] wraps a frame in a longer one that ends with
//! its bytes (checked) and records where they start, so the tail
//! [`slice`](Frame::slice) of the wrapper — after any number of clones and
//! hops — is the inner content with the inner memo. A wrapper that was
//! corrupted, truncated or re-injected on the way is a new `Frame` and
//! carries nothing. There is still no way to *set* a memo.
//!
//! # Facades
//!
//! Entry points that used to accept [`Bytes`] (`World::inject_frame`,
//! `Ctx::send_frame`, …) now take `impl Into<Frame>`, and `From<Bytes>` /
//! `From<Vec<u8>>` / `From<&'static [u8]>` conversions are provided, so
//! existing byte-producing callers compile unchanged — they simply start
//! a frame with an empty memo.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytes::Bytes;
use netco_sim::mix64;

use crate::packet::{FrameView, L4View, PacketFields};

/// Running totals of memo effectiveness.
///
/// Counters are kept per thread (so the hot path never contends) and every
/// thread's cell is registered in a process-wide list, so
/// [`memo_stats_merged`] can aggregate across the region workers of a
/// space-parallel run — the per-thread view alone undercounts whenever
/// frames are derived on worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// `fp128()` calls answered from the memo.
    pub fp_hits: u64,
    /// `fp128()` calls that had to hash the bytes.
    pub fp_misses: u64,
    /// `fields()` calls answered from the memo.
    pub parse_hits: u64,
    /// `fields()` calls that had to parse the bytes.
    pub parse_misses: u64,
}

impl MemoStats {
    /// Counter increments since an earlier [`memo_stats`] snapshot.
    pub fn since(&self, earlier: MemoStats) -> MemoStats {
        MemoStats {
            fp_hits: self.fp_hits - earlier.fp_hits,
            fp_misses: self.fp_misses - earlier.fp_misses,
            parse_hits: self.parse_hits - earlier.parse_hits,
            parse_misses: self.parse_misses - earlier.parse_misses,
        }
    }

    /// Total derivations that actually touched the bytes.
    pub fn misses(&self) -> u64 {
        self.fp_misses + self.parse_misses
    }

    /// Total derivations answered without touching the bytes.
    pub fn hits(&self) -> u64 {
        self.fp_hits + self.parse_hits
    }
}

/// One thread's memo counters. Plain relaxed atomics: the owning thread is
/// the only writer, so increments never contend; other threads only read
/// them for the merged snapshot.
#[derive(Default)]
struct MemoStatsCell {
    fp_hits: AtomicU64,
    fp_misses: AtomicU64,
    parse_hits: AtomicU64,
    parse_misses: AtomicU64,
}

impl MemoStatsCell {
    fn snapshot(&self) -> MemoStats {
        MemoStats {
            fp_hits: self.fp_hits.load(Ordering::Relaxed),
            fp_misses: self.fp_misses.load(Ordering::Relaxed),
            parse_hits: self.parse_hits.load(Ordering::Relaxed),
            parse_misses: self.parse_misses.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.fp_hits.store(0, Ordering::Relaxed);
        self.fp_misses.store(0, Ordering::Relaxed);
        self.parse_hits.store(0, Ordering::Relaxed);
        self.parse_misses.store(0, Ordering::Relaxed);
    }
}

/// Every thread's counter cell, registered on first use. Cells outlive
/// their threads (the registry keeps a strong reference), so work done by
/// short-lived pool workers stays visible to [`memo_stats_merged`] after
/// the workers join.
fn stats_registry() -> &'static Mutex<Vec<Arc<MemoStatsCell>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<MemoStatsCell>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MEMO_STATS: Arc<MemoStatsCell> = {
        let cell = Arc::new(MemoStatsCell::default());
        stats_registry()
            .lock()
            .expect("memo stats registry lock")
            .push(Arc::clone(&cell));
        cell
    };
}

/// Snapshot of this thread's [`MemoStats`] counters.
pub fn memo_stats() -> MemoStats {
    MEMO_STATS.with(|s| s.snapshot())
}

/// Snapshot summed across every thread that ever derived a memoized value
/// in this process — the correct view when frames are fingerprinted or
/// parsed on region worker threads, where [`memo_stats`] (this thread
/// only) silently undercounts.
pub fn memo_stats_merged() -> MemoStats {
    let registry = stats_registry().lock().expect("memo stats registry lock");
    registry.iter().fold(MemoStats::default(), |acc, cell| {
        let s = cell.snapshot();
        MemoStats {
            fp_hits: acc.fp_hits + s.fp_hits,
            fp_misses: acc.fp_misses + s.fp_misses,
            parse_hits: acc.parse_hits + s.parse_hits,
            parse_misses: acc.parse_misses + s.parse_misses,
        }
    })
}

/// Zeroes this thread's [`MemoStats`] counters.
///
/// Long-lived processes that run several measured sections back to back
/// (test harnesses) call this between sections so each section's hit
/// ratios stand on their own instead of being diluted by everything that
/// ran before. Never call it *inside* a measured section —
/// `since` deltas spanning a reset go backwards and would underflow.
pub fn reset_memo_stats() {
    MEMO_STATS.with(|s| s.reset());
}

fn bump(f: impl Fn(&MemoStatsCell)) {
    MEMO_STATS.with(|s| f(s));
}

/// Derived values attached to one frame content.
///
/// Both slots are `OnceLock`s so a memo can cross region-worker threads
/// inside an `Arc`. A racy double-compute is harmless: both inputs are the
/// same immutable bytes, so both candidates are identical and whichever
/// loses the publication race is discarded.
#[derive(Default)]
struct Memo {
    fp: OnceLock<u128>,
    fields: OnceLock<PacketFields>,
    views: OnceLock<Option<(FrameView, Option<L4View>)>>,
    /// For a frame built by [`Frame::encapsulating`]: where the inner
    /// frame's bytes start, and the inner frame's memo.
    inner: Option<(usize, Arc<Memo>)>,
}

/// A data-plane frame: immutable wire bytes plus lazily-memoized derived
/// data shared across clones.
///
/// Cloning is O(1) (a `Bytes` refcount bump and an `Arc` refcount bump) and
/// every clone shares the same memo — a fingerprint computed at the hub is
/// reused at each replica egress, at the compare, and at release, no
/// matter how many copies were made in between.
#[derive(Clone)]
pub struct Frame {
    bytes: Bytes,
    memo: Arc<Memo>,
}

impl Frame {
    /// Wraps wire bytes in a frame with an empty memo.
    pub fn new(bytes: Bytes) -> Frame {
        Frame {
            bytes,
            memo: Arc::new(Memo::default()),
        }
    }

    /// A frame over `outer`, which carries `inner`'s bytes as its tail — an
    /// encapsulation such as an OpenFlow packet-in around a data frame.
    /// The new frame starts with an empty memo of its own and remembers
    /// `inner`'s: [`slice`](Frame::slice)`(outer.len() - inner.len()..)` on
    /// it, or on any clone, is `inner`'s content *with* `inner`'s memo, so
    /// what was derived before the wrap is not derived again after the
    /// unwrap.
    ///
    /// # Panics
    ///
    /// Panics unless `outer` ends with `inner`'s bytes: a memo is only ever
    /// attached to the content it was derived from.
    pub fn encapsulating(outer: Bytes, inner: &Frame) -> Frame {
        assert!(outer.ends_with(inner), "outer must end with inner's bytes");
        let offset = outer.len() - inner.len();
        Frame {
            bytes: outer,
            memo: Arc::new(Memo {
                inner: Some((offset, Arc::clone(&inner.memo))),
                ..Memo::default()
            }),
        }
    }

    /// The wire bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Extracts the wire bytes, dropping this clone's memo handle.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the frame empty?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The 128-bit content fingerprint, computed on first call and shared
    /// by all clones of this frame.
    pub fn fp128(&self) -> u128 {
        if let Some(&fp) = self.memo.fp.get() {
            bump(|s| {
                s.fp_hits.fetch_add(1, Ordering::Relaxed);
            });
            return fp;
        }
        bump(|s| {
            s.fp_misses.fetch_add(1, Ordering::Relaxed);
        });
        *self.memo.fp.get_or_init(|| fp128(&self.bytes))
    }

    /// The parsed OpenFlow 12-tuple with `in_port = 0`, computed on first
    /// call and shared by all clones of this frame.
    ///
    /// The ingress port is per-hop context, not frame content, so the memo
    /// stores the port-independent view; use [`Frame::fields_on`] for a
    /// view stamped with a concrete ingress port.
    pub fn fields(&self) -> &PacketFields {
        if let Some(f) = self.memo.fields.get() {
            bump(|s| {
                s.parse_hits.fetch_add(1, Ordering::Relaxed);
            });
            return f;
        }
        bump(|s| {
            s.parse_misses.fetch_add(1, Ordering::Relaxed);
        });
        self.memo
            .fields
            .get_or_init(|| PacketFields::sniff(&self.bytes, 0))
    }

    /// The full structural parse (Ethernet + L3 + L4), computed on first
    /// call and shared by all clones of this frame.
    ///
    /// `None` means the bytes are not a well-formed frame; an inner `None`
    /// L4 means the L3 payload is absent, opaque, or failed to decode —
    /// exactly the outcomes a cold [`FrameView::parse`] + [`FrameView::l4`]
    /// pair distinguishes, collapsed to what a receiver acts on. Hosts read
    /// frames through this (see [`HostNic::receive`](crate::HostNic::receive)),
    /// so a frame parsed (and checksum-verified) once is free for every clone.
    pub fn views(&self) -> Option<&(FrameView, Option<L4View>)> {
        if let Some(v) = self.memo.views.get() {
            bump(|s| {
                s.parse_hits.fetch_add(1, Ordering::Relaxed);
            });
            return v.as_ref();
        }
        bump(|s| {
            s.parse_misses.fetch_add(1, Ordering::Relaxed);
        });
        self.memo
            .views
            .get_or_init(|| {
                let view = FrameView::parse(&self.bytes).ok()?;
                let l4 = view.l4().ok().flatten();
                Some((view, l4))
            })
            .as_ref()
    }

    /// The parsed 12-tuple with `in_port` set to this hop's ingress port.
    ///
    /// Clones the (small, fixed-size) memoized view; the byte parse still
    /// happens at most once per content.
    pub fn fields_on(&self, in_port: u16) -> PacketFields {
        let mut f = self.fields().clone();
        f.in_port = in_port;
        f
    }

    /// Returns a frame over a sub-range of the bytes. O(1): shares the
    /// underlying buffer.
    ///
    /// A full-range slice keeps the memo (content is unchanged), and the
    /// tail of an [`encapsulating`](Frame::encapsulating) frame that is the
    /// inner frame's content gets the inner frame's memo; any other proper
    /// sub-slice is different content and starts a fresh memo.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Frame {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.bytes.len(),
        };
        match &self.memo.inner {
            Some((offset, memo)) if begin == *offset && end == self.bytes.len() => Frame {
                bytes: self.bytes.slice(begin..end),
                memo: Arc::clone(memo),
            },
            _ if begin == 0 && end == self.bytes.len() => self.clone(),
            _ => Frame::new(self.bytes.slice(begin..end)),
        }
    }
}

impl Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Bytes> for Frame {
    fn from(bytes: Bytes) -> Frame {
        Frame::new(bytes)
    }
}

impl From<Vec<u8>> for Frame {
    fn from(v: Vec<u8>) -> Frame {
        Frame::new(Bytes::from(v))
    }
}

impl From<&'static [u8]> for Frame {
    fn from(s: &'static [u8]) -> Frame {
        Frame::new(Bytes::from_static(s))
    }
}

impl From<Frame> for Bytes {
    fn from(f: Frame) -> Bytes {
        f.into_bytes()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Frame {}

impl PartialEq<Bytes> for Frame {
    fn eq(&self, other: &Bytes) -> bool {
        self.bytes == *other
    }
}

impl PartialEq<Frame> for Bytes {
    fn eq(&self, other: &Frame) -> bool {
        *self == other.bytes
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.bytes.len())
            .field("fp_memoized", &self.memo.fp.get().is_some())
            .field("fields_memoized", &self.memo.fields.get().is_some())
            .finish()
    }
}

/// 64-bit FNV-1a digest of `data` (used by the `Digest` compare strategy
/// and the guard's deterministic sampling).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 128-bit content fingerprint: four independent multiply-rotate lanes
/// (Fx-style) striped over 32-byte blocks, cross-folded, length-mixed and
/// finalized with a splitmix64 avalanche per output lane. One pass over the
/// frame, no external dependencies. The four lanes exist to break the
/// serial rotate→xor→multiply dependency chain: an MTU-sized frame is
/// fingerprinted at every compare observation, so latency per block
/// matters.
///
/// This is the *uncached* primitive; prefer [`Frame::fp128`], which
/// computes it at most once per unique frame content.
pub fn fp128(data: &[u8]) -> u128 {
    const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95; // Fx multiplier
    const K2: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / golden ratio
    let mut h1 = 0x243f_6a88_85a3_08d3u64; // pi fraction digits
    let mut h2 = 0x1319_8a2e_0370_7344u64;
    let mut h3 = 0xa409_3822_299f_31d0u64;
    let mut h4 = 0x082e_fa98_ec4e_6c89u64;
    let mut blocks = data.chunks_exact(32);
    for b in blocks.by_ref() {
        let w1 = u64::from_le_bytes(b[0..8].try_into().expect("8-byte lane"));
        let w2 = u64::from_le_bytes(b[8..16].try_into().expect("8-byte lane"));
        let w3 = u64::from_le_bytes(b[16..24].try_into().expect("8-byte lane"));
        let w4 = u64::from_le_bytes(b[24..32].try_into().expect("8-byte lane"));
        h1 = (h1.rotate_left(5) ^ w1).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ w2).wrapping_mul(K2);
        h3 = (h3.rotate_left(5) ^ w3).wrapping_mul(K1);
        h4 = (h4.rotate_left(7) ^ w4).wrapping_mul(K2);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h1 = (h1.rotate_left(5) ^ w).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ w).wrapping_mul(K2);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        let w = u64::from_le_bytes(buf);
        h1 = (h1.rotate_left(5) ^ w).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ w).wrapping_mul(K2);
    }
    // Fold the wide lanes in (avalanched, so every input bit reaches both
    // output lanes), then make length part of the digest.
    h1 = (h1.rotate_left(5) ^ mix64(h3)).wrapping_mul(K1);
    h2 = (h2.rotate_left(7) ^ mix64(h4)).wrapping_mul(K2);
    h1 = (h1.rotate_left(5) ^ data.len() as u64).wrapping_mul(K1);
    h2 = (h2.rotate_left(7) ^ data.len() as u64).wrapping_mul(K2);
    ((mix64(h1) as u128) << 64) | mix64(h2) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp128_is_stable_and_bit_sensitive() {
        let base = vec![0xabu8; 60];
        assert_eq!(fp128(&base), fp128(&base.clone()));
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fp128(&base), fp128(&flipped), "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn fp128_distinguishes_length_extension() {
        // A frame and the same frame zero-padded must not collide, even
        // though the padded tail contributes all-zero words.
        let a = vec![7u8; 16];
        let mut b = a.clone();
        b.extend_from_slice(&[0, 0, 0, 0]);
        let mut c = a.clone();
        c.extend_from_slice(&[0; 8]);
        assert_ne!(fp128(&a), fp128(&b));
        assert_ne!(fp128(&a), fp128(&c));
        assert_ne!(fp128(&b), fp128(&c));
        assert_ne!(fp128(b""), fp128(&[0]));
    }

    #[test]
    fn reset_zeroes_memo_counters() {
        let frame = Frame::new(Bytes::from_static(b"some frame content here"));
        let _ = frame.fp128();
        let _ = frame.fp128(); // second call is a memo hit
        let before = memo_stats();
        assert!(before.fp_misses > 0);
        assert!(before.fp_hits > 0);
        reset_memo_stats();
        assert_eq!(memo_stats(), MemoStats::default());
        // Counters keep working after a reset.
        let _ = frame.fp128();
        assert_eq!(memo_stats().fp_hits, 1);
        assert_eq!(memo_stats().fp_misses, 0);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn memoized_fp_matches_fresh_and_counts_once() {
        let f = Frame::from(vec![0x5au8; 64]);
        let before = memo_stats();
        let first = f.fp128();
        let second = f.fp128();
        let clone = f.clone();
        let third = clone.fp128();
        let d = memo_stats().since(before);
        assert_eq!(first, fp128(f.bytes()));
        assert_eq!(first, second);
        assert_eq!(first, third);
        assert_eq!(d.fp_misses, 1, "one hash per content");
        assert_eq!(d.fp_hits, 2, "repeat + clone answered from memo");
    }

    #[test]
    fn memoized_fields_match_fresh_and_count_once() {
        let f = Frame::from(vec![0x11u8; 60]);
        let before = memo_stats();
        let a = f.fields().clone();
        let b = f.clone().fields().clone();
        let d = memo_stats().since(before);
        assert_eq!(a, PacketFields::sniff(f.bytes(), 0));
        assert_eq!(a, b);
        assert_eq!(d.parse_misses, 1);
        assert_eq!(d.parse_hits, 1);
    }

    #[test]
    fn fields_on_stamps_ingress_port() {
        let f = Frame::from(vec![0x22u8; 60]);
        let on7 = f.fields_on(7);
        assert_eq!(on7.in_port, 7);
        let mut expect = f.fields().clone();
        expect.in_port = 7;
        assert_eq!(on7, expect);
        assert_eq!(f.fields().in_port, 0, "memoized view stays port-free");
    }

    #[test]
    fn full_slice_shares_memo_sub_slice_does_not() {
        let f = Frame::from(vec![0x33u8; 32]);
        let fp = f.fp128();
        let full = f.slice(..);
        let before = memo_stats();
        assert_eq!(full.fp128(), fp);
        assert_eq!(memo_stats().since(before).fp_misses, 0);

        let head = f.slice(..16);
        let before = memo_stats();
        assert_eq!(head.fp128(), fp128(&f.bytes()[..16]));
        assert_eq!(
            memo_stats().since(before).fp_misses,
            1,
            "sub-slice is new content: fresh memo"
        );
        assert_ne!(head.fp128(), fp);
    }

    #[test]
    fn encapsulated_tail_slice_returns_the_inner_memo() {
        let inner = Frame::from(vec![0x55u8; 48]);
        let fp = inner.fp128();
        let wire = [&[0xEEu8; 10][..], &inner[..]].concat();
        let outer = Frame::encapsulating(Bytes::from(wire), &inner).clone();
        let before = memo_stats();
        assert_eq!(outer.slice(10..).fp128(), fp);
        assert_eq!(memo_stats().since(before).fp_misses, 0);
        assert_eq!(outer.slice(11..).fp128(), fp128(&inner[1..]));
        assert_ne!(outer.fp128(), fp, "the wrapper is other content");
        assert_eq!(memo_stats().since(before).fp_misses, 2);
    }

    #[test]
    #[should_panic(expected = "outer must end with inner's bytes")]
    fn encapsulating_other_bytes_is_refused() {
        let inner = Frame::from(vec![1u8, 2, 3]);
        Frame::encapsulating(Bytes::from(vec![9u8, 1, 2, 4]), &inner);
    }

    #[test]
    fn slice_is_zero_copy() {
        let f = Frame::from(vec![0x44u8; 100]);
        let head = f.slice(..40);
        assert_eq!(head.bytes().as_ptr(), f.bytes().as_ptr());
        assert_eq!(head.len(), 40);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Frame::from(vec![1u8, 2, 3]);
        let b = Frame::from(vec![1u8, 2, 3]);
        let c = Frame::from(vec![9u8]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Bytes::from(vec![1u8, 2, 3]));
    }
}
