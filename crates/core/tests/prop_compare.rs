//! Property tests on the compare's voting invariants.

use bytes::Bytes;
use netco_core::{CompareAction, CompareConfig, CompareCore, LaneInfo, Mode};
use netco_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// An arbitrary interleaving of copy deliveries: (packet id, replica idx).
fn arb_deliveries(k: usize) -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((any::<u8>(), 0..k), 0..200)
}

fn core(k: usize, mode: Mode) -> CompareCore {
    let cfg = match mode {
        Mode::Prevent => CompareConfig::prevent(k),
        Mode::Detect => CompareConfig::detect(k),
    }
    .with_hold_time(SimDuration::from_millis(10));
    let mut c = CompareCore::new(cfg);
    c.attach_lane(
        0,
        LaneInfo {
            replica_ports: (1..=k as u16).collect(),
            host_port: 99,
        },
    );
    c
}

fn payload(id: u8) -> Bytes {
    Bytes::from(vec![id; 64])
}

proptest! {
    /// Prevention: a packet is released exactly once, and only after more
    /// than ⌊k/2⌋ *distinct* replicas delivered it — no interleaving of
    /// deliveries (including repeats) may violate this.
    #[test]
    fn majority_release_invariant(deliveries in arb_deliveries(3)) {
        let k = 3;
        let mut c = core(k, Mode::Prevent);
        let mut distinct: std::collections::HashMap<u8, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        let mut released: std::collections::HashSet<u8> = std::collections::HashSet::new();
        let t = SimTime::ZERO;
        for (id, replica) in deliveries {
            let actions = c.observe(0, replica as u16 + 1, payload(id), t);
            distinct.entry(id).or_default().insert(replica);
            for a in actions {
                if let CompareAction::Release { frame, host_port, .. } = a {
                    prop_assert_eq!(host_port, 99);
                    prop_assert_eq!(&frame, &payload(id));
                    // Released exactly once.
                    prop_assert!(released.insert(id), "double release of {}", id);
                    // Only with a strict majority of distinct replicas.
                    prop_assert!(distinct[&id].len() > k / 2);
                }
            }
        }
        // Conversely: everything that reached a majority was released.
        for (id, replicas) in &distinct {
            if replicas.len() > k / 2 {
                prop_assert!(released.contains(id), "majority packet {} unreleased", id);
            } else {
                prop_assert!(!released.contains(id));
            }
        }
    }

    /// Detection: everything is released exactly once (availability), on
    /// the first copy.
    #[test]
    fn detect_releases_everything_once(deliveries in arb_deliveries(2)) {
        let mut c = core(2, Mode::Detect);
        let mut seen = std::collections::HashSet::new();
        let mut released = std::collections::HashSet::new();
        for (id, replica) in deliveries {
            let first_copy = seen.insert(id);
            let actions: Vec<_> = c
                .observe(0, replica as u16 + 1, payload(id), SimTime::ZERO)
                .collect();
            let got_release = actions
                .iter()
                .any(|a| matches!(a, CompareAction::Release { .. }));
            if first_copy {
                prop_assert!(got_release, "first copy of {} must release", id);
                released.insert(id);
            } else {
                prop_assert!(!got_release, "repeat of {} must not re-release", id);
            }
        }
        prop_assert_eq!(seen, released);
    }

    /// Conservation: releases + suppressed duplicates + live cache +
    /// expired entries account for every received copy's packet.
    #[test]
    fn stats_are_consistent(deliveries in arb_deliveries(3)) {
        let mut c = core(3, Mode::Prevent);
        let mut t = SimTime::ZERO;
        for (id, replica) in &deliveries {
            c.observe(0, *replica as u16 + 1, payload(*id), t);
            t += SimDuration::from_micros(10);
        }
        let received_before_sweep = c.stats().received;
        prop_assert_eq!(received_before_sweep, deliveries.len() as u64);
        // Sweep far in the future: every entry leaves the cache.
        c.sweep(t + SimDuration::from_secs(10));
        let stats = c.stats();
        prop_assert_eq!(c.cache_len(0), 0);
        // Each released packet corresponds to at most one Release.
        prop_assert!(stats.released <= deliveries.len() as u64);
        // Anything not released must have expired unreleased.
        let distinct_packets: std::collections::HashSet<u8> =
            deliveries.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(
            stats.released + stats.expired_unreleased,
            distinct_packets.len() as u64
        );
    }

    /// Order independence: the set of released packets does not depend on
    /// the interleaving order across packets (within a hold window).
    #[test]
    fn release_set_is_order_independent(mut deliveries in arb_deliveries(3), seed in any::<u64>()) {
        fn released_set(deliveries: &[(u8, usize)]) -> std::collections::BTreeSet<u8> {
            let mut c = core(3, Mode::Prevent);
            let mut out = std::collections::BTreeSet::new();
            for (id, replica) in deliveries {
                for a in c.observe(0, *replica as u16 + 1, payload(*id), SimTime::ZERO) {
                    if matches!(a, CompareAction::Release { .. }) {
                        out.insert(*id);
                    }
                }
            }
            out
        }
        let base = released_set(&deliveries);
        // Deterministic shuffle.
        let mut rng = netco_sim::SimRng::new(seed);
        rng.shuffle(&mut deliveries);
        prop_assert_eq!(released_set(&deliveries), base);
    }
}
