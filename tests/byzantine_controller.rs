//! The PR-8 control-plane chaos acceptance scenario: POX3 with a 3-way
//! replicated controller behind per-guard `ControlVoter`s, where
//! controller `pox1` equivocates (corrupts every flow-mod / packet-out it
//! emits) for half a second mid-run. The 2-of-3 honest majority must keep
//! all 100 pings alive, both voters must march the liar through the full
//! quarantine → degrade → probation → re-admit → restore lifecycle once
//! its window closes, the run must be bit-identical across reruns and
//! across the sequential / region-parallel executors, and voting must
//! stay strictly opt-in (a default Pox3 build has no voters).

use std::fmt::Write as _;

use netco_bench::control_chaos::{self, LIAR};
use netco_core::{ControlVoter, ControlVoterStats, SecurityEvent};
use netco_harness::Pool;
use netco_sim::{SimDuration, SimTime};
use netco_topo::{
    BuiltScenario, ControlReplication, FaultKind, Profile, Scenario, ScenarioKind, H2_IP,
};
use netco_traffic::{IcmpEchoResponder, PingConfig, PingReport, Pinger};

/// One voter's observable outcome.
#[derive(Debug, Clone, PartialEq)]
struct VoterView {
    stats: ControlVoterStats,
    log: Vec<(SimTime, SecurityEvent)>,
    quarantined: Vec<usize>,
}

/// One run's full observable outcome.
#[derive(Debug, Clone, PartialEq)]
struct ChaosOutcome {
    report: PingReport,
    voters: Vec<VoterView>,
}

fn outcome(built: &BuiltScenario) -> ChaosOutcome {
    let world = &built.world;
    let report = world.device::<Pinger>(built.h1).unwrap().report();
    let voters = built
        .voters
        .iter()
        .map(|&v| {
            let voter = world.device::<ControlVoter>(v).unwrap();
            VoterView {
                stats: voter.stats(),
                log: voter
                    .events()
                    .iter()
                    .map(|e| (e.at, e.record.clone()))
                    .collect(),
                quarantined: voter.quarantined_controllers(),
            }
        })
        .collect();
    ChaosOutcome { report, voters }
}

fn run_chaos() -> ChaosOutcome {
    outcome(&control_chaos::run(false))
}

/// First-occurrence index of a supervisor lifecycle stage for one
/// controller (vote-lane replica port = controller index + 1).
fn first(log: &[(SimTime, SecurityEvent)], ctl_port: u16, stage: &str) -> Option<usize> {
    log.iter().position(|(_, e)| match (stage, e) {
        ("quarantine", SecurityEvent::ReplicaQuarantined { port, .. }) => *port == ctl_port,
        ("degrade", SecurityEvent::ModeDegraded { .. }) => true,
        ("probation", SecurityEvent::ReplicaProbation { port, .. }) => *port == ctl_port,
        ("readmit", SecurityEvent::ReplicaReadmitted { port, .. }) => *port == ctl_port,
        ("restore", SecurityEvent::ModeRestored { .. }) => true,
        _ => false,
    })
}

#[test]
fn equivocating_controller_never_costs_a_ping() {
    let out = run_chaos();

    // Availability: one lying controller out of three costs nothing.
    assert_eq!(out.report.transmitted, 100);
    assert_eq!(
        out.report.received, 100,
        "a 1-of-3 Byzantine controller must not cost availability"
    );

    let liar_port = LIAR as u16 + 1;
    assert_eq!(out.voters.len(), 2, "one voter per guard");
    for (i, voter) in out.voters.iter().enumerate() {
        // The voter did real work: releases, rejections, relays.
        assert!(voter.stats.voted > 0, "voter {i} released nothing");
        assert!(
            voter.stats.rejected > 0,
            "voter {i} never saw the liar lose a vote: {:?}",
            voter.stats
        );
        assert!(voter.stats.relayed > 0, "voter {i} relayed no packet-ins");
        assert_eq!(voter.stats.invalid, 0, "equivocation is well-formed OF");

        // Disagreements pin the liar — and only the liar.
        assert!(
            voter.stats.disagreements[LIAR] > 0,
            "voter {i} must count the liar's disagreements: {:?}",
            voter.stats
        );
        for (c, &d) in voter.stats.disagreements.iter().enumerate() {
            if c != LIAR {
                assert_eq!(d, 0, "voter {i}: honest controller {c} blamed");
            }
        }

        // Full self-healing lifecycle, in causal order.
        let order: Vec<usize> = ["quarantine", "degrade", "probation", "readmit", "restore"]
            .into_iter()
            .map(|s| {
                first(&voter.log, liar_port, s)
                    .unwrap_or_else(|| panic!("voter {i}: missing {s} event"))
            })
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "voter {i}: lifecycle out of order: {order:?}"
        );

        // Only the liar was ever quarantined, and it healed by the end.
        assert!(voter.log.iter().all(|(_, e)| match e {
            SecurityEvent::ReplicaQuarantined { port, .. } => *port == liar_port,
            _ => true,
        }));
        assert!(
            voter.quarantined.is_empty(),
            "voter {i}: liar must be re-admitted by the end: {:?}",
            voter.quarantined
        );
    }

    // Persist the vote/quarantine event log for the CI job's artifact.
    let mut rendered = String::new();
    for (i, voter) in out.voters.iter().enumerate() {
        for (at, event) in &voter.log {
            let _ = writeln!(rendered, "voter{i} {:>12} ns  {event}", at.as_nanos());
        }
    }
    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).expect("create target/chaos");
    std::fs::write(dir.join("vote_events.log"), rendered).expect("write vote event log");
}

/// The fingerprint vote (16-byte fingerprints through the compare core,
/// one retained full copy first-seen per key) against the retired
/// full-copy vote on the chaos world. The constants are what the
/// full-copy leg produced on commit 009b717 — recorded there, never
/// re-recorded from this code: every artifact each voter releases to its
/// guard byte-identical at the identical time (the order-sensitive
/// `release_digest` over `(time, bytes)`), the same ping train, the same
/// security-event log and the same semantic counters.
#[test]
fn fingerprint_vote_releases_byte_identical_artifacts_as_full_copy_baseline() {
    const RELEASE_DIGEST: [u64; 2] = [17722857542941121569, 4067117812449386813];
    const LOG_DIGEST: u64 = 0xef26_f3ef_fdd5_58bc;

    let out = run_chaos();
    let rtt = Some(SimDuration::from_nanos(4_046_272));
    assert_eq!((out.report.transmitted, out.report.received), (100, 100));
    assert_eq!(
        (out.report.min, out.report.avg, out.report.max),
        (rtt, rtt, rtt)
    );
    assert_eq!(out.voters.len(), RELEASE_DIGEST.len());
    for (i, (voter, digest)) in out.voters.iter().zip(RELEASE_DIGEST).enumerate() {
        let stats = &voter.stats;
        assert_eq!(
            stats.release_digest, digest,
            "voter {i}: released artifacts diverged from the full-copy baseline"
        );
        assert_eq!(
            (stats.sent, stats.voted, stats.rejected, stats.relayed),
            (300, 100, 50, 900),
            "voter {i}: semantic counters diverged"
        );
        assert_eq!(stats.disagreements, vec![0, 50, 0]);
        let mut rendered = String::new();
        for (at, event) in &voter.log {
            let _ = writeln!(rendered, "{:>12} ns  {event}", at.as_nanos());
        }
        assert_eq!(voter.log.len(), 55);
        assert_eq!(
            netco_net::fnv1a(rendered.as_bytes()),
            LOG_DIGEST,
            "voter {i}: security events diverged"
        );
        assert!(voter.quarantined.is_empty());
    }
}

#[test]
fn byzantine_chaos_is_bit_identical_across_reruns() {
    let a = run_chaos();
    let b = run_chaos();
    assert_eq!(a, b, "same seed must reproduce the identical run");
    assert!(!a.voters[0].log.is_empty());
}

/// Sequential vs region-parallel executor on the byzantine world: the
/// observable outcome must be bit-identical at every worker count
/// (`NETCO_THREADS` as a comma list, the CI axis, default 1/2).
#[test]
fn byzantine_chaos_is_identical_under_region_parallel_execution() {
    let deadline = SimTime::ZERO + SimDuration::from_secs(2);
    let build = || {
        control_chaos::equivocating_scenario().build_world(
            0,
            |nic| {
                Pinger::new(
                    nic,
                    PingConfig::new(H2_IP)
                        .with_count(100)
                        .with_interval(SimDuration::from_millis(10)),
                )
            },
            IcmpEchoResponder::new,
        )
    };
    let mut sequential = build();
    sequential.world.run_until(deadline);
    let oracle = outcome(&sequential);
    assert_eq!(oracle.report.received, 100);

    let threads: Vec<usize> = std::env::var(netco_harness::THREADS_ENV)
        .ok()
        .map(|list| {
            list.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2]);
    for t in threads {
        for regions in [2, 4] {
            let mut parallel = build();
            parallel
                .world
                .run_until_parallel(deadline, &Pool::new(t), regions);
            assert_eq!(
                outcome(&parallel),
                oracle,
                "{t} workers / {regions} regions diverged from the sequential oracle"
            );
        }
    }
}

/// Control voting is opt-in: a default Pox3 build carries exactly the
/// pre-replication topology (one controller, no voters) and still serves
/// every ping — the guarantee that the feature off-state is the old code
/// path.
#[test]
fn voting_disabled_by_default_keeps_the_single_controller_topology() {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 41);
    let mut built = scenario.build_world(
        0,
        |nic| {
            Pinger::new(
                nic,
                PingConfig::new(H2_IP)
                    .with_count(20)
                    .with_interval(SimDuration::from_millis(10)),
            )
        },
        IcmpEchoResponder::new,
    );
    assert!(built.voters.is_empty(), "no voters unless opted in");
    assert_eq!(built.controllers.len(), 1, "single controller by default");
    built.world.run_for(SimDuration::from_secs(1));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    assert_eq!(report.received, 20);
}

/// A rolling restart of all three controllers (staggered so at most one
/// is partitioned from the voters at a time) must not cost a ping: the
/// remaining 2-of-3 majority keeps voting.
#[test]
fn rolling_controller_restart_keeps_service_up() {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 43)
        .with_control_replication(ControlReplication::new(3).rolling_restart(
            SimTime::ZERO + SimDuration::from_millis(100),
            SimDuration::from_millis(150),
            SimDuration::from_millis(300),
        ));
    let report = scenario.run_ping(
        PingConfig::default()
            .with_count(100)
            .with_interval(SimDuration::from_millis(10)),
    );
    assert_eq!(report.transmitted, 100);
    assert_eq!(
        report.received, 100,
        "staggered controller restarts must be invisible to the data plane"
    );
}

/// A congested control channel to one controller (2 ms of added one-way
/// latency, comfortably past the 20 ms vote hold time when round-trips
/// stack) must neither stall the vote nor cost a ping — the two prompt
/// controllers form the majority.
#[test]
fn delayed_control_channel_does_not_stall_the_vote() {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 44)
        .with_control_replication(ControlReplication::new(3).with_controller_fault(
            2,
            FaultKind::Delay {
                extra: SimDuration::from_millis(2),
                window: netco_sim::ActivationWindow::always(),
            },
        ));
    let report = scenario.run_ping(
        PingConfig::default()
            .with_count(50)
            .with_interval(SimDuration::from_millis(10)),
    );
    assert_eq!(report.received, 50);
}

/// The telemetry path: a sink installed on the chaos run must not perturb
/// the simulation — the run with telemetry on must equal the run with
/// telemetry off outcome for outcome — the metrics snapshot must
/// carry the voter's `ctlvote.*` cells with real data, and the snapshot
/// must be byte-identical across reruns. The artifact is persisted under
/// `target/chaos/` for CI.
#[test]
fn controller_metrics_are_deterministic_and_surface_the_vote() {
    let plain = run_chaos();
    let built_a = control_chaos::run(true);
    let built_b = control_chaos::run(true);
    let metrics_a = built_a.world.telemetry().metrics_json();
    let metrics_b = built_b.world.telemetry().metrics_json();

    assert_eq!(
        outcome(&built_a),
        plain,
        "telemetry (and with it the modeled CPU) must not perturb the simulation"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "controller metrics must be byte-identical across reruns"
    );

    for metric in ["sent", "voted", "rejected", "relayed"] {
        let needle = format!(".{metric}\"");
        let line = metrics_a
            .lines()
            .find(|l| l.contains("ctlvote.") && l.contains(&needle))
            .unwrap_or_else(|| panic!("metrics snapshot is missing ctlvote *.{metric}"));
        assert!(
            !line.contains(": 0,") && !line.contains(": 0}"),
            "ctlvote {metric} must be non-zero: {line}"
        );
    }
    assert!(
        metrics_a.contains("vote_latency_ns"),
        "vote latency histogram must be registered"
    );
    assert!(
        metrics_a.contains(&format!("disagreements.c{LIAR}")),
        "per-controller disagreement counters must be registered"
    );

    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).expect("create target/chaos");
    std::fs::write(dir.join("controller_metrics.json"), &metrics_a)
        .expect("write controller metrics artifact");
}
