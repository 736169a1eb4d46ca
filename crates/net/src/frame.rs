//! The simulator's unit of traffic, on links and on control channels
//! alike: wire bytes plus a share-on-clone memo of derived values.
//!
//! NetCo's robust combining sends the *same bytes* through the hub, `k`
//! replicas and the compare element, and every hop used to re-derive the
//! same expensive values from them: the 128-bit content fingerprint
//! ([`fp128`], used as the compare key and the packet-lifecycle key), the
//! parsed OpenFlow 12-tuple ([`PacketFields`], used for flow-table
//! classification), the structural parse a host reads, and the [`fnv1a`]
//! digest a tap folds for every observation. A [`Frame`] computes each
//! value lazily, at most once per unique content, and shares the result
//! across every clone — so the cost no longer scales with `k` or with
//! path length, and a tapped run hashes a frame once however many hops
//! observe it.
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
//! # Encapsulation
//!
//! Encapsulation is the one place two contents are related. A compare
//! link and a control channel carry every replica copy inside an OpenFlow
//! packet-in and every release inside a packet-out, so
//! [`Frame::encapsulating`] builds a wrapper that is a short header (at
//! most [`MAX_ENCAP_HEAD`] bytes, inline in the wrapper's one allocation)
//! plus the inner frame it carries, shared with its memo rather than
//! copied.
//! [`Frame::encapsulated`] hands the two parts back, and the tail
//! [`slice`](Frame::slice) of the wrapper — after any number of clones
//! and hops — is the inner frame itself. The wrapper's contiguous bytes
//! (`head ++ inner`) are built once, on the first call that needs them
//! ([`Frame::bytes`], `Deref`, a parse of the wrapper); its fingerprint,
//! its FNV-1a and `==` read the head and the inner frame part by part
//! instead. On a compare link only a recording tap or link corruption
//! asks, on a control channel only corruption or a reader that decodes
//! the whole message. A wrapper that was corrupted, truncated or
//! re-injected on the way is a new `Frame` and carries nothing. There is
//! still no way to *set* a memo.
//!
//! # Facades
//!
//! Entry points that used to accept [`Bytes`] (`World::inject_frame`,
//! `Ctx::send_frame`, `Ctx::send_control`, …) now take `impl Into<Frame>`,
//! and `From<Bytes>` / `From<Vec<u8>>` / `From<&'static [u8]>` conversions
//! are provided, so existing byte-producing callers compile unchanged —
//! they simply start a frame with an empty memo.

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
/// Every slot is a `OnceLock` so a memo can cross region-worker threads
/// inside an `Arc`. A racy double-compute is harmless: both inputs are the
/// same immutable bytes, so both candidates are identical and whichever
/// loses the publication race is discarded.
#[derive(Default)]
struct Memo {
    fp: OnceLock<u128>,
    /// FNV-1a of the bytes: what a tap digest folds per observation.
    fnv: OnceLock<u64>,
    fields: OnceLock<PacketFields>,
    views: OnceLock<Option<(FrameView, Option<L4View>)>>,
}

/// The longest header [`Frame::encapsulating`] keeps inline: an Ethernet
/// header plus an OpenFlow packet-out with two output actions (behind
/// the compare link's Ethernet header a packet-in's head is 32 bytes, a
/// one-output packet-out's 38; on a control channel, 18 and 24).
pub const MAX_ENCAP_HEAD: usize = 48;

/// A data-plane frame or control-channel message: immutable wire bytes
/// plus lazily-memoized derived data shared across clones.
///
/// Cloning is O(1) (one refcount bump) and every clone shares the same
/// memo — a fingerprint computed at the hub is reused at each replica
/// egress, at the compare, and at release, no matter how many copies were
/// made in between.
#[derive(Clone)]
pub struct Frame {
    repr: Repr,
}

// A `Frame` rides inside every frame and control event: growing it grows
// the scheduler's slots and every queue that holds frames.
const _: () = assert!(std::mem::size_of::<Frame>() == 16);

/// One `Arc` per representation, so a clone or a drop is one reference
/// count update.
#[derive(Clone)]
enum Repr {
    /// Contiguous wire bytes and their memo.
    Contiguous(Arc<Contiguous>),
    /// A header in front of a shared inner frame.
    Encapsulated(Arc<Encapsulation>),
}

/// The one allocation behind a contiguous frame.
struct Contiguous {
    bytes: Bytes,
    memo: Memo,
}

/// The one allocation behind an encapsulating frame.
struct Encapsulation {
    head: [u8; MAX_ENCAP_HEAD],
    head_len: u8,
    inner: Frame,
    /// Derivations of the wrapper's own content (`head ++ inner`).
    memo: Memo,
    /// `head ++ inner`, built on first request.
    wire: OnceLock<Bytes>,
}

impl Encapsulation {
    fn head(&self) -> &[u8] {
        &self.head[..self.head_len as usize]
    }

    fn wire(&self) -> &Bytes {
        self.wire.get_or_init(|| {
            let mut wire = Vec::with_capacity(self.head_len as usize + self.inner.len());
            wire.extend_from_slice(self.head());
            wire.extend_from_slice(self.inner.bytes());
            Bytes::from(wire)
        })
    }
}

impl Frame {
    /// Wraps wire bytes in a frame with an empty memo.
    pub fn new(bytes: Bytes) -> Frame {
        Frame {
            repr: Repr::Contiguous(Arc::new(Contiguous {
                bytes,
                memo: Memo::default(),
            })),
        }
    }

    /// The frame `head ++ inner` — an encapsulation such as an OpenFlow
    /// packet-in around a data frame — without copying `inner`.
    ///
    /// `head` is copied into the wrapper; `inner` is shared, memo
    /// included, and [`encapsulated`](Frame::encapsulated) or
    /// [`slice`](Frame::slice)`(head.len()..)` on the wrapper, or on any
    /// clone, returns it, so what was derived before the wrap is not
    /// derived again after the unwrap. The wrapper's own memo starts
    /// empty, and its contiguous bytes are built only when asked for.
    ///
    /// # Panics
    ///
    /// Panics when `head` is longer than [`MAX_ENCAP_HEAD`].
    pub fn encapsulating(head: &[u8], inner: &Frame) -> Frame {
        assert!(
            head.len() <= MAX_ENCAP_HEAD,
            "an encapsulation head holds at most {MAX_ENCAP_HEAD} bytes"
        );
        let mut inline = [0u8; MAX_ENCAP_HEAD];
        inline[..head.len()].copy_from_slice(head);
        Frame {
            repr: Repr::Encapsulated(Arc::new(Encapsulation {
                head: inline,
                head_len: head.len() as u8,
                inner: inner.clone(),
                memo: Memo::default(),
                wire: OnceLock::new(),
            })),
        }
    }

    /// The header and the inner frame of a frame built by
    /// [`encapsulating`](Frame::encapsulating); `None` for any other frame.
    pub fn encapsulated(&self) -> Option<(&[u8], &Frame)> {
        match &self.repr {
            Repr::Encapsulated(e) => Some((e.head(), &e.inner)),
            Repr::Contiguous(_) => None,
        }
    }

    /// The wire bytes. On an encapsulating frame the first call builds
    /// them (`head ++ inner`, one copy, kept for every clone).
    pub fn bytes(&self) -> &Bytes {
        match &self.repr {
            Repr::Contiguous(c) => &c.bytes,
            Repr::Encapsulated(e) => e.wire(),
        }
    }

    /// Extracts the wire bytes, dropping this clone's memo handle.
    pub fn into_bytes(self) -> Bytes {
        self.bytes().clone()
    }

    /// Frame length in bytes. Never builds an encapsulating frame's
    /// bytes (the `[u8]` length through `Deref` would).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Contiguous(c) => c.bytes.len(),
            Repr::Encapsulated(e) => e.head_len as usize + e.inner.len(),
        }
    }

    /// `true` for a zero-length frame (never builds an encapsulating
    /// frame's bytes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn memo(&self) -> &Memo {
        match &self.repr {
            Repr::Contiguous(c) => &c.memo,
            Repr::Encapsulated(e) => &e.memo,
        }
    }

    /// The 128-bit content fingerprint, computed on first call and shared
    /// by all clones of this frame.
    pub fn fp128(&self) -> u128 {
        let memo = self.memo();
        if let Some(&fp) = memo.fp.get() {
            bump(|s| {
                s.fp_hits.fetch_add(1, Ordering::Relaxed);
            });
            return fp;
        }
        bump(|s| {
            s.fp_misses.fetch_add(1, Ordering::Relaxed);
        });
        *memo.fp.get_or_init(|| {
            let mut fp = Fp128::new();
            self.parts().for_each(|part| fp.feed(part));
            fp.finish()
        })
    }

    /// [`fnv1a`] of the wire bytes, computed on first call and shared by
    /// all clones of this frame — what a tap digest folds at every hop
    /// the frame crosses. Not counted in [`MemoStats`].
    pub fn fnv1a(&self) -> u64 {
        *self
            .memo()
            .fnv
            .get_or_init(|| self.parts().fold(FNV_BASIS, fnv1a_fold))
    }

    /// The wire bytes in the parts this frame holds them in: each
    /// encapsulation's head, outermost first, then the innermost frame's
    /// contiguous bytes. What hashes and compares an encapsulating frame
    /// without building `head ++ inner`.
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        let mut next = Some(self);
        std::iter::from_fn(move || match &next?.repr {
            Repr::Contiguous(c) => {
                next = None;
                Some(&c.bytes[..])
            }
            Repr::Encapsulated(e) => {
                next = Some(&e.inner);
                Some(e.head())
            }
        })
    }

    /// The parsed OpenFlow 12-tuple with `in_port = 0`, computed on first
    /// call and shared by all clones of this frame.
    ///
    /// The ingress port is per-hop context, not frame content, so the memo
    /// stores the port-independent view; use [`Frame::fields_on`] for a
    /// view stamped with a concrete ingress port.
    pub fn fields(&self) -> &PacketFields {
        let memo = self.memo();
        if let Some(f) = memo.fields.get() {
            bump(|s| {
                s.parse_hits.fetch_add(1, Ordering::Relaxed);
            });
            return f;
        }
        bump(|s| {
            s.parse_misses.fetch_add(1, Ordering::Relaxed);
        });
        memo.fields
            .get_or_init(|| PacketFields::sniff(self.bytes(), 0))
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
        let memo = self.memo();
        if let Some(v) = memo.views.get() {
            bump(|s| {
                s.parse_hits.fetch_add(1, Ordering::Relaxed);
            });
            return v.as_ref();
        }
        bump(|s| {
            s.parse_misses.fetch_add(1, Ordering::Relaxed);
        });
        memo.views
            .get_or_init(|| {
                let view = FrameView::parse(self.bytes()).ok()?;
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

    /// Returns a frame over a sub-range of the bytes. O(1) on contiguous
    /// bytes: shares the underlying buffer.
    ///
    /// A full-range slice keeps the memo (content is unchanged), and the
    /// tail of an [`encapsulating`](Frame::encapsulating) frame after its
    /// header is the inner frame, memo included; any other proper
    /// sub-slice is different content and starts a fresh memo (on an
    /// encapsulating frame it builds the wrapper's bytes first).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Frame {
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
        match &self.repr {
            Repr::Encapsulated(e) if begin == e.head_len as usize && end == len => e.inner.clone(),
            _ if begin == 0 && end == len => self.clone(),
            _ => Frame::new(self.bytes().slice(begin..end)),
        }
    }
}

impl Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
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
    /// Equal content, compared part by part: never builds an
    /// encapsulating frame's bytes, and parts over one shared buffer are
    /// equal without a byte comparison.
    fn eq(&self, other: &Frame) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (self.parts(), other.parts());
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            // Equal lengths: when either side runs out, both have.
            if x.is_empty() {
                let Some(part) = a.next() else { return true };
                x = part;
            } else if y.is_empty() {
                let Some(part) = b.next() else { return true };
                y = part;
            } else {
                let n = x.len().min(y.len());
                if x.as_ptr() != y.as_ptr() && x[..n] != y[..n] {
                    return false;
                }
                (x, y) = (&x[n..], &y[n..]);
            }
        }
    }
}

impl Eq for Frame {}

impl PartialEq<Bytes> for Frame {
    fn eq(&self, other: &Bytes) -> bool {
        self.bytes() == other
    }
}

impl PartialEq<Frame> for Bytes {
    fn eq(&self, other: &Frame) -> bool {
        self == other.bytes()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let memo = self.memo();
        f.debug_struct("Frame")
            .field("len", &self.len())
            .field("encapsulated", &self.encapsulated().is_some())
            .field("fp_memoized", &memo.fp.get().is_some())
            .field("fields_memoized", &memo.fields.get().is_some())
            .finish()
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a digest of `data` (used by the `Digest` compare strategy
/// and the guard's deterministic sampling). [`Frame::fnv1a`] is the same
/// digest, computed once per frame content.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_fold(FNV_BASIS, data)
}

fn fnv1a_fold(mut hash: u64, data: &[u8]) -> u64 {
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
    let mut fp = Fp128::new();
    fp.feed(data);
    fp.finish()
}

const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95; // Fx multiplier
const K2: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / golden ratio
const FP_BLOCK: usize = 32;

/// [`fp128`] folded over bytes that arrive in parts — a frame's heads
/// and its inner bytes — equal to `fp128` of the parts concatenated. At
/// most 31 bytes, short of a 32-byte block, wait between parts.
struct Fp128 {
    lanes: [u64; 4],
    pending: [u8; FP_BLOCK],
    pending_len: usize,
    len: usize,
}

impl Fp128 {
    fn new() -> Fp128 {
        Fp128 {
            // pi fraction digits
            lanes: [
                0x243f_6a88_85a3_08d3,
                0x1319_8a2e_0370_7344,
                0xa409_3822_299f_31d0,
                0x082e_fa98_ec4e_6c89,
            ],
            pending: [0; FP_BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    /// Mixes one 32-byte block into the four lanes.
    #[inline]
    fn block(&mut self, b: &[u8]) {
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte lane"));
        let [h1, h2, h3, h4] = &mut self.lanes;
        *h1 = (h1.rotate_left(5) ^ word(0)).wrapping_mul(K1);
        *h2 = (h2.rotate_left(7) ^ word(8)).wrapping_mul(K2);
        *h3 = (h3.rotate_left(5) ^ word(16)).wrapping_mul(K1);
        *h4 = (h4.rotate_left(7) ^ word(24)).wrapping_mul(K2);
    }

    /// Folds in the next part of the bytes.
    fn feed(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if self.pending_len > 0 {
            let take = (FP_BLOCK - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < FP_BLOCK {
                return;
            }
            let block = self.pending;
            self.block(&block);
            self.pending_len = 0;
        }
        let mut blocks = data.chunks_exact(FP_BLOCK);
        for b in blocks.by_ref() {
            self.block(b);
        }
        let rest = blocks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The fingerprint of everything fed so far.
    fn finish(self) -> u128 {
        let [mut h1, mut h2, h3, h4] = self.lanes;
        let mut chunks = self.pending[..self.pending_len].chunks_exact(8);
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
        // Fold the wide lanes in (avalanched, so every input bit reaches
        // both output lanes), then make length part of the digest.
        h1 = (h1.rotate_left(5) ^ mix64(h3)).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ mix64(h4)).wrapping_mul(K2);
        h1 = (h1.rotate_left(5) ^ self.len as u64).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ self.len as u64).wrapping_mul(K2);
        ((mix64(h1) as u128) << 64) | mix64(h2) as u128
    }
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
        let outer = Frame::encapsulating(&[0xEE; 10], &inner).clone();
        let before = memo_stats();
        assert_eq!(outer.slice(10..).fp128(), fp);
        assert_eq!(memo_stats().since(before).fp_misses, 0);
        assert_eq!(outer.slice(11..).fp128(), fp128(&inner[1..]));
        assert_ne!(outer.fp128(), fp, "the wrapper is other content");
        assert_eq!(memo_stats().since(before).fp_misses, 2);
    }

    #[test]
    fn encapsulation_shares_the_inner_frame_and_builds_bytes_once() {
        let inner = Frame::from(vec![0x66u8; 100]);
        let outer = Frame::encapsulating(&[1, 2, 3], &inner);
        let (head, carried) = outer.encapsulated().expect("an encapsulation");
        assert_eq!(head, &[1, 2, 3]);
        assert_eq!(carried.bytes().as_ptr(), inner.bytes().as_ptr());
        assert_eq!(outer.len(), 103);
        let wire = [&[1u8, 2, 3][..], &inner[..]].concat();
        assert_eq!(outer, Bytes::from(wire.clone()));
        assert_eq!(outer, Frame::from(wire.clone()));
        assert_ne!(outer, Frame::encapsulating(&[1, 2, 4], &inner));
        assert_ne!(outer, Frame::encapsulating(&[1, 2], &inner));
        // The bytes are built once, on demand, and every clone reads the
        // same buffer.
        let clone = outer.clone();
        assert_eq!(&clone[..], &wire[..]);
        assert_eq!(clone.bytes().as_ptr(), outer.bytes().as_ptr());
        assert_eq!(
            outer.slice(..).encapsulated().map(|(h, _)| h),
            Some(&[1u8, 2, 3][..])
        );
        assert!(inner.encapsulated().is_none());
        assert!(outer.slice(1..).encapsulated().is_none());
    }

    #[test]
    #[should_panic(expected = "an encapsulation head holds at most 48 bytes")]
    fn an_overlong_head_is_refused() {
        let inner = Frame::from(vec![1u8, 2, 3]);
        Frame::encapsulating(&[0; MAX_ENCAP_HEAD + 1], &inner);
    }

    #[test]
    fn slice_is_zero_copy() {
        let f = Frame::from(vec![0x44u8; 100]);
        let head = f.slice(..40);
        assert_eq!(head.bytes().as_ptr(), f.bytes().as_ptr());
        assert_eq!(head.len(), 40);
    }

    /// `true` when some encapsulation in `frame` has built its bytes.
    fn built(frame: &Frame) -> bool {
        match &frame.repr {
            Repr::Contiguous(_) => false,
            Repr::Encapsulated(e) => e.wire.get().is_some() || built(&e.inner),
        }
    }

    /// The fold over a wrap's parts is `fp128` (and `fnv1a`) of its
    /// flattened bytes for every head length 0..=48 around every inner
    /// length 0..=200, and computing it builds nothing.
    #[test]
    fn the_fold_over_a_wrap_is_the_hash_of_its_flattened_bytes() {
        let bytes: Vec<u8> = (0..MAX_ENCAP_HEAD + 200)
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        for head_len in 0..=MAX_ENCAP_HEAD {
            for inner_len in 0..=200 {
                let flat = &bytes[..head_len + inner_len];
                let inner = Frame::from(flat[head_len..].to_vec());
                let wrap = Frame::encapsulating(&flat[..head_len], &inner);
                assert_eq!(
                    wrap.fp128(),
                    fp128(flat),
                    "head {head_len}, inner {inner_len}"
                );
                assert_eq!(
                    wrap.fnv1a(),
                    fnv1a(flat),
                    "head {head_len}, inner {inner_len}"
                );
                assert!(!built(&wrap));
            }
        }
    }

    proptest::proptest! {
        /// Nested wraps hash and compare as their flattened bytes do,
        /// against a contiguous copy and against the same bytes split
        /// elsewhere, without building any wrap's bytes.
        #[test]
        fn nested_wraps_hash_and_compare_like_their_flattened_bytes(
            heads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..MAX_ENCAP_HEAD + 1),
                0..4,
            ),
            inner in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..201),
            at in proptest::prelude::any::<usize>(),
        ) {
            let mut frame = Frame::from(inner.clone());
            let mut flat = inner;
            for head in &heads {
                frame = Frame::encapsulating(head, &frame);
                flat.splice(0..0, head.iter().copied());
            }
            proptest::prop_assert_eq!(frame.fp128(), fp128(&flat));
            proptest::prop_assert_eq!(frame.fnv1a(), fnv1a(&flat));
            let split = (at % (flat.len() + 1)).min(MAX_ENCAP_HEAD);
            let resplit = Frame::encapsulating(&flat[..split], &Frame::from(flat[split..].to_vec()));
            proptest::prop_assert!(frame == resplit);
            proptest::prop_assert!(frame == Frame::from(flat.clone()));
            if !flat.is_empty() {
                let mut flipped = flat.clone();
                flipped[at % flat.len()] ^= 1;
                proptest::prop_assert!(frame != Frame::from(flipped));
                proptest::prop_assert!(frame != Frame::from(flat[1..].to_vec()));
            }
            proptest::prop_assert!(!built(&frame) && !built(&resplit));
        }
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
