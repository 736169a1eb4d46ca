//! The compare's packet cache: per-packet voting state.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use netco_net::Frame;
use netco_sim::{SimDuration, SimTime};

use super::strategy::CompareKey;
use netco_sim::fxhash::FxBuildHasher;

/// Upper bound on replica indices a single entry can track (`k` is 3 or 5
/// in every paper configuration; the mask is a `u32`).
const MAX_REPLICAS: usize = 32;

/// Voting state of one cached packet.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The first received copy (the one released on majority). Its memo
    /// carries the fingerprint computed when the compare key was derived,
    /// so expiry/drop accounting never re-hashes the bytes.
    pub frame: Frame,
    /// When the first copy arrived (expiry is measured from here).
    pub first_seen: SimTime,
    /// Distinct replica ports that delivered a copy, in arrival order.
    pub ports: Vec<u16>,
    /// Whether this packet was already released.
    pub released: bool,
    /// Whether a DoS advice was already issued for this entry.
    pub dos_advised: bool,
    /// Per-replica observation counts, indexed by replica index.
    counts: Vec<u32>,
    /// Bitmask of replica indices that delivered a copy: membership and
    /// count updates are O(1) instead of a per-copy port scan.
    seen: u32,
}

impl CacheEntry {
    /// Number of distinct replica ports that delivered this packet.
    pub fn distinct_ports(&self) -> usize {
        self.ports.len()
    }

    /// Observation count for a given replica index (0 if never seen).
    pub fn count_for(&self, replica_idx: usize) -> u32 {
        self.counts.get(replica_idx).copied().unwrap_or(0)
    }
}

/// What [`PacketCache::observe`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// First copy of a new packet.
    New,
    /// A copy from a port that had not delivered this packet yet.
    AdditionalPort {
        /// Distinct ports after this observation.
        distinct: usize,
        /// Whether the packet was already released.
        released: bool,
    },
    /// Another copy from a port that had already delivered it.
    Repeat {
        /// Copies from this port so far (including this one).
        count: u32,
        /// Whether the packet was already released.
        released: bool,
    },
}

/// An insertion-ordered, bounded packet cache.
///
/// Entries expire `hold_time` after their first copy (insertion order *is*
/// expiry order, because `first_seen` never changes). The caller drives
/// expiry via [`PacketCache::expire`] and capacity cleanup via
/// [`PacketCache::cleanup`].
///
/// # Fingerprint keys
///
/// A [`CompareKey::Exact`] key carries its frame, and two such keys are
/// equal only when their bytes are, so the map itself keeps two different
/// frames that collide on the fingerprint apart — the bit-by-bit semantics
/// of a byte-keyed cache, at one byte comparison per observed copy.
/// [`PacketCache::observe`] returns the key the cache holds; follow-up
/// calls ([`PacketCache::mark_released`] etc.) with it share the stored
/// buffer and compare no bytes.
#[derive(Debug, Default)]
pub struct PacketCache {
    map: HashMap<CompareKey, CacheEntry, FxBuildHasher>,
    order: VecDeque<CompareKey>,
}

impl PacketCache {
    /// Creates an empty cache.
    pub fn new() -> PacketCache {
        PacketCache::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Records a copy of `key` arriving on `port` (the lane's
    /// `replica_idx`-th replica). The frame is stored only for the first
    /// copy. Returns the key the cache holds for this packet plus what was
    /// observed.
    pub fn observe(
        &mut self,
        key: CompareKey,
        port: u16,
        replica_idx: usize,
        frame: &Frame,
        now: SimTime,
    ) -> (CompareKey, Observed) {
        debug_assert!(replica_idx < MAX_REPLICAS);
        let bit = 1u32 << (replica_idx % MAX_REPLICAS);
        match self.map.entry(key) {
            Entry::Occupied(mut held) => {
                let entry = held.get_mut();
                let observed = if entry.seen & bit != 0 {
                    entry.counts[replica_idx] += 1;
                    Observed::Repeat {
                        count: entry.counts[replica_idx],
                        released: entry.released,
                    }
                } else {
                    entry.seen |= bit;
                    if entry.counts.len() <= replica_idx {
                        entry.counts.resize(replica_idx + 1, 0);
                    }
                    entry.counts[replica_idx] = 1;
                    entry.ports.push(port);
                    Observed::AdditionalPort {
                        distinct: entry.ports.len(),
                        released: entry.released,
                    }
                };
                (held.key().clone(), observed)
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                let mut counts = vec![0; replica_idx + 1];
                counts[replica_idx] = 1;
                slot.insert(CacheEntry {
                    frame: frame.clone(),
                    first_seen: now,
                    ports: vec![port],
                    released: false,
                    dos_advised: false,
                    counts,
                    seen: bit,
                });
                self.order.push_back(key.clone());
                (key, Observed::New)
            }
        }
    }

    /// Marks `key` released, returning the cached frame to emit.
    /// Returns `None` if the entry vanished or was already released.
    pub fn mark_released(&mut self, key: &CompareKey) -> Option<Frame> {
        let entry = self.map.get_mut(key)?;
        if entry.released {
            return None;
        }
        entry.released = true;
        Some(entry.frame.clone())
    }

    /// Marks that a DoS advice was issued for `key`; returns `false` when
    /// one was issued before.
    pub fn mark_dos_advised(&mut self, key: &CompareKey) -> bool {
        match self.map.get_mut(key) {
            Some(e) if !e.dos_advised => {
                e.dos_advised = true;
                true
            }
            _ => false,
        }
    }

    /// Read access to an entry.
    pub fn entry(&self, key: &CompareKey) -> Option<&CacheEntry> {
        self.map.get(key)
    }

    /// Removes and returns every entry older than `hold_time`.
    pub fn expire(
        &mut self,
        now: SimTime,
        hold_time: SimDuration,
    ) -> Vec<(CompareKey, CacheEntry)> {
        let mut out = Vec::new();
        while let Some(front) = self.order.front() {
            let expired = self
                .map
                .get(front)
                .is_none_or(|e| now.saturating_since(e.first_seen) >= hold_time);
            if !expired {
                break;
            }
            let key = self.order.pop_front().expect("front exists");
            if let Some(entry) = self.map.remove(&key) {
                out.push((key, entry));
            }
        }
        out
    }

    /// Evicts the oldest entries until at most `target` remain; returns the
    /// evicted entries (the "clean up procedure" of paper §V).
    pub fn cleanup(&mut self, target: usize) -> Vec<(CompareKey, CacheEntry)> {
        let mut out = Vec::new();
        while self.map.len() > target {
            let Some(key) = self.order.pop_front() else {
                break;
            };
            if let Some(entry) = self.map.remove(&key) {
                out.push((key, entry));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn key(s: &'static [u8]) -> CompareKey {
        CompareKey::Bytes(Bytes::from_static(s))
    }

    fn frame() -> Frame {
        Frame::from(b"frame" as &'static [u8])
    }

    #[test]
    fn first_observation_is_new() {
        let mut c = PacketCache::new();
        assert_eq!(
            c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO).1,
            Observed::New
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.entry(&key(b"a")).unwrap().distinct_ports(), 1);
    }

    #[test]
    fn additional_ports_accumulate() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        assert_eq!(
            c.observe(key(b"a"), 2, 1, &frame(), SimTime::ZERO).1,
            Observed::AdditionalPort {
                distinct: 2,
                released: false
            }
        );
        assert_eq!(
            c.observe(key(b"a"), 3, 2, &frame(), SimTime::ZERO).1,
            Observed::AdditionalPort {
                distinct: 3,
                released: false
            }
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn repeats_count_per_port() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        for i in 2..=5u32 {
            assert_eq!(
                c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO).1,
                Observed::Repeat {
                    count: i,
                    released: false
                }
            );
        }
        assert_eq!(c.entry(&key(b"a")).unwrap().count_for(0), 5);
        assert_eq!(c.entry(&key(b"a")).unwrap().count_for(1), 0);
    }

    #[test]
    fn release_is_at_most_once() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        assert_eq!(c.mark_released(&key(b"a")), Some(frame()));
        assert_eq!(c.mark_released(&key(b"a")), None);
        assert_eq!(c.mark_released(&key(b"missing")), None);
    }

    #[test]
    fn dos_advice_is_at_most_once() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        assert!(c.mark_dos_advised(&key(b"a")));
        assert!(!c.mark_dos_advised(&key(b"a")));
        assert!(!c.mark_dos_advised(&key(b"missing")));
    }

    #[test]
    fn expiry_pops_in_insertion_order() {
        let mut c = PacketCache::new();
        let hold = SimDuration::from_millis(10);
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        c.observe(
            key(b"b"),
            1,
            0,
            &frame(),
            SimTime::ZERO + SimDuration::from_millis(5),
        );
        let expired = c.expire(SimTime::ZERO + SimDuration::from_millis(10), hold);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, key(b"a"));
        assert_eq!(c.len(), 1);
        let expired = c.expire(SimTime::ZERO + SimDuration::from_millis(15), hold);
        assert_eq!(expired.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn cleanup_evicts_oldest_first() {
        let mut c = PacketCache::new();
        for (i, k) in [b"a" as &'static [u8], b"b", b"c", b"d"].iter().enumerate() {
            c.observe(
                CompareKey::Bytes(Bytes::from_static(k)),
                1,
                0,
                &frame(),
                SimTime::from_nanos(i as u64),
            );
        }
        let evicted = c.cleanup(2);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].0, key(b"a"));
        assert_eq!(evicted[1].0, key(b"b"));
        assert_eq!(c.len(), 2);
        assert!(c.entry(&key(b"d")).is_some());
    }

    #[test]
    fn late_copy_after_release_reports_released_flag() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 1, 0, &frame(), SimTime::ZERO);
        c.observe(key(b"a"), 2, 1, &frame(), SimTime::ZERO);
        c.mark_released(&key(b"a"));
        assert_eq!(
            c.observe(key(b"a"), 3, 2, &frame(), SimTime::ZERO).1,
            Observed::AdditionalPort {
                distinct: 3,
                released: true
            }
        );
    }

    #[test]
    fn forged_fingerprint_collision_votes_and_releases_separately() {
        // Two different frames under one fingerprint (forged here; a real
        // fp128 collision is a 2^-128 event) must be two packets.
        let mut c = PacketCache::new();
        let a = Frame::from(b"frame-a" as &'static [u8]);
        let b = Frame::from(b"frame-b" as &'static [u8]);
        let exact = |f: &Frame| CompareKey::Exact {
            fp: 7,
            frame: f.clone(),
        };
        assert_eq!(
            c.observe(exact(&a), 1, 0, &a, SimTime::ZERO).1,
            Observed::New
        );
        assert_eq!(
            c.observe(exact(&b), 1, 0, &b, SimTime::ZERO).1,
            Observed::New
        );
        assert_eq!(c.len(), 2);
        // Further copies (other buffers, same bytes) find their own entry.
        let a2 = Frame::from(b"frame-a".to_vec());
        let (ka, oa) = c.observe(exact(&a2), 2, 1, &a2, SimTime::ZERO);
        assert!(matches!(oa, Observed::AdditionalPort { distinct: 2, .. }));
        let b2 = Frame::from(b"frame-b".to_vec());
        let (kb, ob) = c.observe(exact(&b2), 2, 1, &b2, SimTime::ZERO);
        assert!(matches!(ob, Observed::AdditionalPort { distinct: 2, .. }));
        // The returned key is the held one: its first copy's buffer.
        assert!(matches!(&ka, CompareKey::Exact { frame, .. } if frame.as_ptr() == a.as_ptr()));
        // Releasing one entry does not release the other.
        assert_eq!(c.mark_released(&ka), Some(a));
        assert!(!c.entry(&kb).unwrap().released);
        assert_eq!(c.mark_released(&kb), Some(b));
    }
}
