//! How the compare decides that two copies are "the same packet".

use std::hash::{Hash, Hasher};

use bytes::Bytes;
use netco_net::Frame;

/// The comparison granularity (paper §III: "packets may be compared
/// bit-by-bit, or just based on the header, or hashing can be used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareStrategy {
    /// Bit-by-bit comparison of the full wire bytes — the prototype's
    /// `memcmp()`. Strongest: catches any modification.
    FullPacket,
    /// Compare only the first `prefix` bytes (headers). Cheaper state, but
    /// blind to payload modification.
    HeaderOnly {
        /// Number of leading bytes compared.
        prefix: usize,
    },
    /// Compare a 64-bit FNV-1a digest of the full bytes. Constant-size
    /// state; collisions are theoretically possible but not adversarially
    /// relevant for availability experiments.
    Digest,
}

impl CompareStrategy {
    /// A header-only strategy covering Ethernet + IPv4 + L4 ports
    /// (54 bytes).
    pub fn headers() -> CompareStrategy {
        CompareStrategy::HeaderOnly { prefix: 54 }
    }

    /// Derives the cache key for a frame under this strategy.
    ///
    /// `FullPacket` reads the frame's memoized fingerprint, so the bytes
    /// are hashed at most once per content no matter how many replicas
    /// deliver copies.
    pub(crate) fn key(&self, frame: &Frame) -> CompareKey {
        match self {
            CompareStrategy::FullPacket => CompareKey::Exact {
                fp: frame.fp128(),
                frame: frame.clone(),
            },
            CompareStrategy::HeaderOnly { prefix } => {
                CompareKey::Bytes(frame.bytes().slice(..(*prefix).min(frame.len())))
            }
            CompareStrategy::Digest => CompareKey::U64(frame.fnv1a()),
        }
    }
}

/// A comparison key: a verified fingerprint, the (possibly truncated) bytes
/// themselves, or a digest.
#[derive(Debug, Clone, Eq)]
pub(crate) enum CompareKey {
    /// Bit-by-bit semantics: hashed by a precomputed 128-bit fingerprint,
    /// equal only when the fingerprints *and* the frame bytes are, so two
    /// different frames that collide on the fingerprint stay two keys —
    /// unlike [`CompareKey::U64`], whose collisions are accepted by design.
    /// Frames compare part by part (`Frame`'s `==`): an encapsulating
    /// frame's bytes are never built, and keys over one shared buffer are
    /// equal without a byte comparison.
    Exact {
        /// 128-bit content fingerprint ([`fp128`]).
        fp: u128,
        /// The frame the fingerprint was taken of.
        frame: Frame,
    },
    /// Raw bytes (used for header-prefix semantics; `Bytes` is cheaply
    /// clonable).
    Bytes(Bytes),
    /// A 64-bit digest.
    U64(u64),
}

impl PartialEq for CompareKey {
    fn eq(&self, other: &CompareKey) -> bool {
        match (self, other) {
            (CompareKey::Exact { fp: a, frame: x }, CompareKey::Exact { fp: b, frame: y }) => {
                a == b && x == y
            }
            (CompareKey::Bytes(a), CompareKey::Bytes(b)) => a == b,
            (CompareKey::U64(a), CompareKey::U64(b)) => a == b,
            _ => false,
        }
    }
}

impl Hash for CompareKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            CompareKey::Exact { fp, .. } => fp.hash(state),
            CompareKey::Bytes(b) => b.hash(state),
            CompareKey::U64(v) => v.hash(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(data: &'static [u8]) -> Frame {
        Frame::from(data)
    }

    #[test]
    fn full_packet_distinguishes_any_bit() {
        let a = frame(b"packet-one");
        let b = frame(b"packet-onE");
        let s = CompareStrategy::FullPacket;
        assert_eq!(s.key(&a), s.key(&a.clone()));
        assert_ne!(s.key(&a), s.key(&b));
    }

    #[test]
    fn header_only_ignores_payload() {
        let mut x = vec![0u8; 60];
        let mut y = vec![0u8; 60];
        x[58] = 1; // differ beyond the 54-byte prefix
        y[58] = 2;
        let s = CompareStrategy::headers();
        assert_eq!(s.key(&Frame::from(x.clone())), s.key(&Frame::from(y)));
        let mut z = x.clone();
        z[10] = 9; // differ inside the prefix
        assert_ne!(s.key(&Frame::from(x)), s.key(&Frame::from(z)));
    }

    #[test]
    fn header_only_handles_short_frames() {
        let s = CompareStrategy::headers();
        let short = frame(b"tiny");
        assert_eq!(s.key(&short), s.key(&short.clone()));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let s = CompareStrategy::Digest;
        let a = frame(b"some frame");
        assert_eq!(s.key(&a), s.key(&a.clone()));
        let b = frame(b"some framf");
        assert_ne!(s.key(&a), s.key(&b));
    }

    #[test]
    fn full_packet_key_is_the_fingerprint_and_the_frame() {
        let a = frame(b"wire frame bytes");
        match CompareStrategy::FullPacket.key(&a) {
            CompareKey::Exact { fp, frame } => {
                assert_eq!(fp, netco_net::fp128(&a));
                assert_eq!(frame, a);
            }
            other => panic!("unexpected key {other:?}"),
        }
    }

    #[test]
    fn full_packet_key_reuses_the_memoized_fingerprint() {
        let a = frame(b"keyed once");
        let before = netco_net::memo_stats();
        let _ = CompareStrategy::FullPacket.key(&a);
        let _ = CompareStrategy::FullPacket.key(&a.clone());
        let d = netco_net::memo_stats().since(before);
        assert_eq!(d.fp_misses, 1, "one hash per content");
        assert_eq!(d.fp_hits, 1);
    }
}
