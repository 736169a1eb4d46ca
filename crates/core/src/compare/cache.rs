//! The compare's packet cache: per-packet voting state.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use netco_net::Frame;
use netco_sim::{SimDuration, SimTime};

use super::strategy::CompareKey;
use crate::config::DOS_REPEAT_THRESHOLD;
use netco_sim::fxhash::FxBuildHasher;

/// Upper bound on replica indices a single entry can track (`k` is 3 or 5
/// in every paper configuration; the mask is a `u32`).
const MAX_REPLICAS: usize = 32;

/// Copies per replica are counted up to here and no further: the only
/// reader compares them with the DoS threshold, and four bits hold
/// `count - 1`.
const COUNT_CAP: u32 = 16;
const _: () = assert!(DOS_REPEAT_THRESHOLD <= COUNT_CAP);

/// Voting state of one cached packet.
///
/// Everything is inline: an entry costs no heap allocation beyond the map
/// slot it lives in, and it is 80 bytes, so the per-copy bookkeeping packs
/// arrival order and repeat counts into fixed arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The first received copy (the one released on majority). Its memo
    /// carries the fingerprint computed when the compare key was derived,
    /// so expiry/drop accounting never re-hashes the bytes.
    pub frame: Frame,
    /// When the first copy arrived (expiry is measured from here).
    pub first_seen: SimTime,
    /// Whether this packet was already released.
    pub released: bool,
    /// Whether a DoS advice was already issued for this entry.
    pub dos_advised: bool,
    /// Replica indices that delivered a copy, in arrival order; the first
    /// `seen.count_ones()` are set.
    arrivals: [u8; MAX_REPLICAS],
    /// Per-replica copies minus one, four bits per replica index, capped
    /// at [`COUNT_CAP`] copies.
    extra_copies: [u8; MAX_REPLICAS / 2],
    /// Bitmask of replica indices that delivered a copy: membership and
    /// count updates are O(1) instead of a per-copy scan.
    seen: u32,
}

impl CacheEntry {
    fn first(frame: &Frame, now: SimTime, replica_idx: usize) -> CacheEntry {
        let mut entry = CacheEntry {
            frame: frame.clone(),
            first_seen: now,
            released: false,
            dos_advised: false,
            arrivals: [0; MAX_REPLICAS],
            extra_copies: [0; MAX_REPLICAS / 2],
            seen: 0,
        };
        entry.note_first_copy(replica_idx);
        entry
    }

    fn note_first_copy(&mut self, replica_idx: usize) {
        self.arrivals[self.distinct_ports()] = replica_idx as u8;
        self.seen |= 1 << replica_idx;
    }

    /// Copies replica `replica_idx` delivered (0 if none; capped at
    /// [`COUNT_CAP`]).
    fn copies(&self, replica_idx: usize) -> u32 {
        if !self.delivered(replica_idx) {
            return 0;
        }
        let nibble = self.extra_copies[replica_idx / 2] >> (4 * (replica_idx % 2));
        u32::from(nibble & 0xf) + 1
    }

    fn note_repeat(&mut self, replica_idx: usize) -> u32 {
        let copies = (self.copies(replica_idx) + 1).min(COUNT_CAP);
        let shift = 4 * (replica_idx % 2);
        let byte = &mut self.extra_copies[replica_idx / 2];
        *byte = (*byte & !(0xf << shift)) | (((copies - 1) as u8) << shift);
        copies
    }

    /// Whether replica `replica_idx` delivered a copy.
    pub(crate) fn delivered(&self, replica_idx: usize) -> bool {
        self.seen & (1 << replica_idx) != 0
    }

    /// Number of distinct replica ports that delivered this packet.
    pub(crate) fn distinct_ports(&self) -> usize {
        self.seen.count_ones() as usize
    }

    /// The replica ports (`replica_ports[idx]`) that delivered a copy, in
    /// arrival order.
    pub(crate) fn ports(&self, replica_ports: &[u16]) -> Vec<u16> {
        self.arrivals[..self.distinct_ports()]
            .iter()
            .map(|&idx| replica_ports[idx as usize])
            .collect()
    }

    /// Observation count for a given replica index (0 if never seen).
    #[cfg(test)]
    pub(crate) fn count_for(&self, replica_idx: usize) -> u32 {
        self.copies(replica_idx)
    }
}

/// What `PacketCache::observe` saw.
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
        /// Copies from this port so far (including this one), counted up
        /// to the DoS threshold (16) and no further.
        count: u32,
        /// Whether the packet was already released.
        released: bool,
    },
}

/// An insertion-ordered, bounded packet cache.
///
/// Entries expire `hold_time` after their first copy (insertion order *is*
/// expiry order, because `first_seen` never changes). The caller drives
/// expiry via `PacketCache::pop_expired` and capacity cleanup via
/// `PacketCache::cleanup`. The order queue carries each entry's
/// `first_seen` beside its key, so a sweep that finds nothing due reads
/// the front of the queue and nothing else.
///
/// # Fingerprint keys
///
/// A [`CompareKey::Exact`] key carries its frame, and two such keys are
/// equal only when their bytes are, so the map itself keeps two different
/// frames that collide on the fingerprint apart — the bit-by-bit semantics
/// of a byte-keyed cache, at one byte comparison per observed copy.
/// `PacketCache::observe` returns the key the cache holds; follow-up
/// calls (`PacketCache::mark_released` etc.) with it share the stored
/// buffer and compare no bytes.
#[derive(Debug, Default)]
pub struct PacketCache {
    map: HashMap<CompareKey, CacheEntry, FxBuildHasher>,
    /// Every key in `map`, oldest first, with its entry's `first_seen`.
    order: VecDeque<(SimTime, CompareKey)>,
}

impl PacketCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> PacketCache {
        PacketCache::default()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Records a copy of `key` arriving from the lane's `replica_idx`-th
    /// replica. The frame is stored only for the first copy. Returns the
    /// key the cache holds for this packet plus what was observed.
    pub(crate) fn observe(
        &mut self,
        key: CompareKey,
        replica_idx: usize,
        frame: &Frame,
        now: SimTime,
    ) -> (CompareKey, Observed) {
        debug_assert!(replica_idx < MAX_REPLICAS);
        let replica_idx = replica_idx % MAX_REPLICAS;
        match self.map.entry(key) {
            Entry::Occupied(mut held) => {
                let entry = held.get_mut();
                let observed = if entry.delivered(replica_idx) {
                    Observed::Repeat {
                        count: entry.note_repeat(replica_idx),
                        released: entry.released,
                    }
                } else {
                    entry.note_first_copy(replica_idx);
                    Observed::AdditionalPort {
                        distinct: entry.distinct_ports(),
                        released: entry.released,
                    }
                };
                (held.key().clone(), observed)
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                slot.insert(CacheEntry::first(frame, now, replica_idx));
                self.order.push_back((now, key.clone()));
                (key, Observed::New)
            }
        }
    }

    /// Marks `key` released, returning the cached frame to emit and when
    /// its first copy arrived. Returns `None` if the entry vanished or was
    /// already released.
    pub(crate) fn mark_released(&mut self, key: &CompareKey) -> Option<(Frame, SimTime)> {
        let entry = self.map.get_mut(key)?;
        if entry.released {
            return None;
        }
        entry.released = true;
        Some((entry.frame.clone(), entry.first_seen))
    }

    /// Marks that a DoS advice was issued for `key`; returns `false` when
    /// one was issued before.
    pub(crate) fn mark_dos_advised(&mut self, key: &CompareKey) -> bool {
        match self.map.get_mut(key) {
            Some(e) if !e.dos_advised => {
                e.dos_advised = true;
                true
            }
            _ => false,
        }
    }

    /// Read access to an entry.
    pub(crate) fn entry(&self, key: &CompareKey) -> Option<&CacheEntry> {
        self.map.get(key)
    }

    /// Removes and returns the oldest entry if it is at least
    /// `hold_time` old; `None` once nothing is due. Call until `None` to
    /// expire everything overdue, oldest first.
    pub(crate) fn pop_expired(
        &mut self,
        now: SimTime,
        hold_time: SimDuration,
    ) -> Option<(CompareKey, CacheEntry)> {
        let &(first_seen, _) = self.order.front()?;
        if now.saturating_since(first_seen) < hold_time {
            return None;
        }
        let (_, key) = self.order.pop_front().expect("front exists");
        let entry = self.map.remove(&key).expect("every queued key is cached");
        Some((key, entry))
    }

    /// Evicts the oldest entries until at most `target` remain; returns the
    /// evicted entries (the "clean up procedure" of paper §V).
    pub(crate) fn cleanup(&mut self, target: usize) -> Vec<(CompareKey, CacheEntry)> {
        let mut out = Vec::new();
        while self.map.len() > target {
            let Some((_, key)) = self.order.pop_front() else {
                break;
            };
            let entry = self.map.remove(&key).expect("every queued key is cached");
            out.push((key, entry));
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

    fn expire(
        c: &mut PacketCache,
        now: SimTime,
        hold: SimDuration,
    ) -> Vec<(CompareKey, CacheEntry)> {
        std::iter::from_fn(|| c.pop_expired(now, hold)).collect()
    }

    #[test]
    fn first_observation_is_new() {
        let mut c = PacketCache::new();
        assert_eq!(
            c.observe(key(b"a"), 0, &frame(), SimTime::ZERO).1,
            Observed::New
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.entry(&key(b"a")).unwrap().distinct_ports(), 1);
    }

    #[test]
    fn additional_ports_accumulate() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 0, &frame(), SimTime::ZERO);
        assert_eq!(
            c.observe(key(b"a"), 1, &frame(), SimTime::ZERO).1,
            Observed::AdditionalPort {
                distinct: 2,
                released: false
            }
        );
        assert_eq!(
            c.observe(key(b"a"), 2, &frame(), SimTime::ZERO).1,
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
        c.observe(key(b"a"), 0, &frame(), SimTime::ZERO);
        for i in 2..=5u32 {
            assert_eq!(
                c.observe(key(b"a"), 0, &frame(), SimTime::ZERO).1,
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
    fn repeat_counts_stop_at_the_dos_threshold() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 31, &frame(), SimTime::ZERO);
        let counts: Vec<u32> = (0..20)
            .map(
                |_| match c.observe(key(b"a"), 31, &frame(), SimTime::ZERO).1 {
                    Observed::Repeat { count, .. } => count,
                    other => panic!("unexpected {other:?}"),
                },
            )
            .collect();
        let expected: Vec<u32> = (2..=21).map(|n| n.min(COUNT_CAP)).collect();
        assert_eq!(counts, expected);
        assert_eq!(c.entry(&key(b"a")).unwrap().count_for(30), 0);
    }

    #[test]
    fn ports_come_back_in_arrival_order() {
        let replica_ports: Vec<u16> = (100..132).collect();
        let mut c = PacketCache::new();
        let arrivals = [31usize, 0, 17, 4, 30];
        for &idx in &arrivals {
            c.observe(key(b"a"), idx, &frame(), SimTime::ZERO);
            c.observe(key(b"a"), idx, &frame(), SimTime::ZERO);
        }
        let entry = c.entry(&key(b"a")).unwrap();
        assert_eq!(entry.distinct_ports(), arrivals.len());
        assert_eq!(
            entry.ports(&replica_ports),
            arrivals
                .iter()
                .map(|&i| replica_ports[i])
                .collect::<Vec<_>>()
        );
        assert!(entry.delivered(17) && !entry.delivered(16));
        assert_eq!((entry.count_for(31), entry.count_for(17)), (2, 2));
    }

    /// Voting state lives inline; a larger entry is a larger cache for
    /// every compare.
    #[test]
    fn an_entry_is_80_bytes() {
        assert_eq!(std::mem::size_of::<CacheEntry>(), 80);
    }

    #[test]
    fn release_is_at_most_once() {
        let mut c = PacketCache::new();
        let at = SimTime::from_nanos(3);
        c.observe(key(b"a"), 0, &frame(), at);
        assert_eq!(c.mark_released(&key(b"a")), Some((frame(), at)));
        assert_eq!(c.mark_released(&key(b"a")), None);
        assert_eq!(c.mark_released(&key(b"missing")), None);
    }

    #[test]
    fn dos_advice_is_at_most_once() {
        let mut c = PacketCache::new();
        c.observe(key(b"a"), 0, &frame(), SimTime::ZERO);
        assert!(c.mark_dos_advised(&key(b"a")));
        assert!(!c.mark_dos_advised(&key(b"a")));
        assert!(!c.mark_dos_advised(&key(b"missing")));
    }

    #[test]
    fn expiry_pops_in_insertion_order() {
        let mut c = PacketCache::new();
        let hold = SimDuration::from_millis(10);
        c.observe(key(b"a"), 0, &frame(), SimTime::ZERO);
        c.observe(
            key(b"b"),
            0,
            &frame(),
            SimTime::ZERO + SimDuration::from_millis(5),
        );
        let expired = expire(&mut c, SimTime::ZERO + SimDuration::from_millis(10), hold);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, key(b"a"));
        assert_eq!(c.len(), 1);
        let expired = expire(&mut c, SimTime::ZERO + SimDuration::from_millis(15), hold);
        assert_eq!(expired.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn cleanup_evicts_oldest_first() {
        let mut c = PacketCache::new();
        for (i, k) in [b"a" as &'static [u8], b"b", b"c", b"d"].iter().enumerate() {
            c.observe(
                CompareKey::Bytes(Bytes::from_static(k)),
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
        c.observe(key(b"a"), 0, &frame(), SimTime::ZERO);
        c.observe(key(b"a"), 1, &frame(), SimTime::ZERO);
        c.mark_released(&key(b"a"));
        assert_eq!(
            c.observe(key(b"a"), 2, &frame(), SimTime::ZERO).1,
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
        assert_eq!(c.observe(exact(&a), 0, &a, SimTime::ZERO).1, Observed::New);
        assert_eq!(c.observe(exact(&b), 0, &b, SimTime::ZERO).1, Observed::New);
        assert_eq!(c.len(), 2);
        // Further copies (other buffers, same bytes) find their own entry.
        let a2 = Frame::from(b"frame-a".to_vec());
        let (ka, oa) = c.observe(exact(&a2), 1, &a2, SimTime::ZERO);
        assert!(matches!(oa, Observed::AdditionalPort { distinct: 2, .. }));
        let b2 = Frame::from(b"frame-b".to_vec());
        let (kb, ob) = c.observe(exact(&b2), 1, &b2, SimTime::ZERO);
        assert!(matches!(ob, Observed::AdditionalPort { distinct: 2, .. }));
        // The returned key is the held one: its first copy's buffer.
        assert!(matches!(&ka, CompareKey::Exact { frame, .. } if frame.as_ptr() == a.as_ptr()));
        // Releasing one entry does not release the other.
        assert_eq!(c.mark_released(&ka), Some((a, SimTime::ZERO)));
        assert!(!c.entry(&kb).unwrap().released);
        assert_eq!(c.mark_released(&kb), Some((b, SimTime::ZERO)));
    }

    /// The expiry rule before the order queue carried `first_seen`: look
    /// the front key up in the map and pop while its entry is due or
    /// gone. Keys only; `first_seen` per live key.
    #[derive(Default)]
    struct ModelCache {
        first_seen: HashMap<CompareKey, SimTime>,
        order: VecDeque<CompareKey>,
    }

    impl ModelCache {
        fn observe(&mut self, key: CompareKey, now: SimTime) {
            if let Entry::Vacant(slot) = self.first_seen.entry(key.clone()) {
                slot.insert(now);
                self.order.push_back(key);
            }
        }

        fn expire(&mut self, now: SimTime, hold: SimDuration) -> Vec<(CompareKey, SimTime)> {
            let mut out = Vec::new();
            while let Some(front) = self.order.front() {
                let due = self
                    .first_seen
                    .get(front)
                    .is_none_or(|&t| now.saturating_since(t) >= hold);
                if !due {
                    break;
                }
                let key = self.order.pop_front().expect("front exists");
                if let Some(t) = self.first_seen.remove(&key) {
                    out.push((key, t));
                }
            }
            out
        }

        fn cleanup(&mut self, target: usize) -> Vec<(CompareKey, SimTime)> {
            let mut out = Vec::new();
            while self.first_seen.len() > target {
                let Some(key) = self.order.pop_front() else {
                    break;
                };
                if let Some(t) = self.first_seen.remove(&key) {
                    out.push((key, t));
                }
            }
            out
        }
    }

    proptest::proptest! {
        /// Random observe / cleanup / expire sequences remove the same
        /// entries, in the same order, as the map-lookup rule.
        #[test]
        fn expiry_and_cleanup_match_the_map_lookup_rule(
            ops in proptest::collection::vec((0u8..8, 0u8..12, 0u8..4), 0..300)
        ) {
            let hold = SimDuration::from_micros(10);
            let mut cache = PacketCache::new();
            let mut model = ModelCache::default();
            let mut now = SimTime::ZERO;
            let removed = |v: Vec<(CompareKey, CacheEntry)>| -> Vec<(CompareKey, SimTime)> {
                v.into_iter().map(|(k, e)| (k, e.first_seen)).collect()
            };
            for (op, arg, step) in ops {
                now += SimDuration::from_micros(step as u64 * 3);
                match op {
                    0..=5 => {
                        let k = CompareKey::Bytes(Bytes::from(vec![arg]));
                        cache.observe(k.clone(), op as usize, &frame(), now);
                        model.observe(k, now);
                    }
                    6 => proptest::prop_assert_eq!(
                        removed(expire(&mut cache, now, hold)),
                        model.expire(now, hold)
                    ),
                    _ => {
                        let target = arg as usize % 6;
                        proptest::prop_assert_eq!(
                            removed(cache.cleanup(target)),
                            model.cleanup(target)
                        );
                    }
                }
                proptest::prop_assert_eq!(cache.len(), model.first_seen.len());
            }
        }
    }
}
