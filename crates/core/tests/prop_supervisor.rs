//! Property tests on the self-healing supervisor: under arbitrary
//! delivery interleavings and random supervisor tunings, the compare
//! never releases a packet with fewer identical healthy copies than the
//! *active* quorum requires, and the quarantine lifecycle is well-formed
//! (no double-quarantine, no re-admission without probation, degrade and
//! restore strictly alternating).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use netco_core::{
    CompareAction, CompareConfig, CompareCore, LaneInfo, SecurityEvent, SupervisorConfig,
};
use netco_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const K: usize = 3;

/// One driver step: (packet id, replica index, time advance in µs,
/// whether to run an expiry sweep afterwards).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, u16, bool)>> {
    proptest::collection::vec((0u8..24, 0..K, 0u16..50, any::<bool>()), 1..250)
}

fn arb_supervisor() -> impl Strategy<Value = SupervisorConfig> {
    (1u32..4, 10u64..500, 1u32..5, 1u32..4).prop_map(|(strikes, delay_us, streak, cap)| {
        SupervisorConfig::default()
            .with_quarantine_strikes(strikes)
            .with_probation_delay(SimDuration::from_micros(delay_us))
            .with_readmit_streak(streak)
            .with_escalation_cap(cap)
    })
}

fn payload(id: u8) -> Bytes {
    Bytes::from(vec![id, 0xA5, id, 0x5A])
}

/// External mirror of the supervisor lifecycle, fed only by the emitted
/// [`SecurityEvent`] stream.
#[derive(Default)]
struct Lifecycle {
    quarantined: HashSet<u16>,
    on_probation: HashSet<u16>,
    degraded: bool,
}

impl Lifecycle {
    /// Applies one event; returns a violation description if the
    /// transition is ill-formed.
    fn apply(&mut self, e: &SecurityEvent) -> Result<(), String> {
        match e {
            SecurityEvent::ReplicaQuarantined { port, .. } => {
                if !self.quarantined.insert(*port) {
                    return Err(format!("port {port} double-quarantined"));
                }
                self.on_probation.remove(port);
            }
            SecurityEvent::ReplicaProbation { port, .. } => {
                if !self.quarantined.contains(port) {
                    return Err(format!("port {port} on probation while not quarantined"));
                }
                if !self.on_probation.insert(*port) {
                    return Err(format!("port {port} entered probation twice"));
                }
            }
            SecurityEvent::ReplicaReadmitted { port, .. } => {
                if !self.on_probation.remove(port) {
                    return Err(format!("port {port} re-admitted without probation"));
                }
                if !self.quarantined.remove(port) {
                    return Err(format!("port {port} re-admitted while healthy"));
                }
            }
            SecurityEvent::ModeDegraded { .. } => {
                if self.degraded {
                    return Err("degraded twice without restore".into());
                }
                self.degraded = true;
            }
            SecurityEvent::ModeRestored { .. } => {
                if !self.degraded {
                    return Err("restored while not degraded".into());
                }
                self.degraded = false;
            }
            _ => {}
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn releases_respect_active_quorum_and_lifecycle_is_well_formed(
        ops in arb_ops(),
        sup in arb_supervisor(),
    ) {
        let cfg = CompareConfig::prevent(K)
            .with_hold_time(SimDuration::from_micros(200))
            .with_cache_capacity(1 << 14)
            .with_supervisor(sup);
        let hold = cfg.hold_time;
        let mut c = CompareCore::new(cfg);
        c.attach_lane(0, LaneInfo {
            replica_ports: (1..=K as u16).collect(),
            host_port: 9,
        });

        // External model of the live cache: id → (first_seen, delivering
        // ports). Mirrors the compare's expiry rule (now − first_seen ≥
        // hold) so re-deliveries after expiry start a fresh entry.
        let mut cache: HashMap<u8, (SimTime, HashSet<u16>)> = HashMap::new();
        let mut lifecycle = Lifecycle::default();
        let mut t = SimTime::ZERO;

        // The events the core's last call raised.
        let drive = |lifecycle: &mut Lifecycle, c: &CompareCore| -> Result<(), String> {
            for e in c.events() {
                lifecycle.apply(e)?;
            }
            Ok(())
        };

        for (id, replica, advance_us, do_sweep) in ops {
            let port = replica as u16 + 1;
            // Quorum state *before* this observe: a Release decided in
            // this call uses exactly this state (strikes only happen on
            // repeats, which never release).
            let quarantined_before = c.quarantined_ports(0);
            let threshold_before = c.active_release_threshold(0);

            let entry = cache.entry(id).or_insert_with(|| (t, HashSet::new()));
            entry.1.insert(port);
            let delivered = entry.1.clone();

            let actions: Vec<_> = c.observe(0, port, payload(id), t).collect();
            for a in &actions {
                if let CompareAction::Release { frame, .. } = a {
                    prop_assert_eq!(frame[0], id);
                    let healthy_delivered = delivered
                        .iter()
                        .filter(|p| !quarantined_before.contains(p))
                        .count();
                    prop_assert!(
                        healthy_delivered >= threshold_before,
                        "released {} with {} healthy copies < active threshold {} \
                         (quarantined: {:?})",
                        id, healthy_delivered, threshold_before, quarantined_before
                    );
                }
            }
            if let Err(v) = drive(&mut lifecycle, &c) {
                prop_assert!(false, "{}", v);
            }

            t += SimDuration::from_micros(advance_us as u64);
            if do_sweep {
                c.sweep(t);
                if let Err(v) = drive(&mut lifecycle, &c) {
                    prop_assert!(false, "{}", v);
                }
                cache.retain(|_, (first_seen, _)| t.saturating_since(*first_seen) < hold);
            }
        }

        // Drain everything and reconcile the models.
        t += SimDuration::from_secs(1);
        c.sweep(t);
        if let Err(v) = drive(&mut lifecycle, &c) {
            prop_assert!(false, "{}", v);
        }

        let mut expected: Vec<u16> = lifecycle.quarantined.iter().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(
            c.quarantined_ports(0),
            expected,
            "event stream and introspection disagree on the quarantine set"
        );
        // The quarantine floor: at least one replica always stays in the
        // quorum, so the active threshold is always satisfiable.
        prop_assert!(lifecycle.quarantined.len() < K);
        prop_assert!(c.active_release_threshold(0) >= 1);
    }
}
