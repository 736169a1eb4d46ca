//! The PR-3 chaos acceptance scenario: replica `r2` flaps three times
//! during a 100-ping Central3 run while the self-healing supervisor is
//! attached. Service must stay at 100/100, the supervisor event log must
//! show the full quarantine → degrade → probation → re-admit → restore
//! cycle, and the whole run must be bit-identical across reruns of the
//! same seed.

use std::fmt::Write as _;

use netco_bench::chaos;
use netco_core::{Compare, EventCounts, SecurityEvent};
use netco_net::{NodeId, World};
use netco_sim::SimTime;
use netco_traffic::{PingReport, Pinger};

/// One run's observable outcome: ping report, the compare's full security
/// event log (timestamped), and the per-kind counters.
#[derive(Debug, Clone, PartialEq)]
struct ChaosOutcome {
    report: PingReport,
    log: Vec<(SimTime, SecurityEvent)>,
    counts: EventCounts,
}

/// Runs the canonical chaos scenario (`netco_bench::chaos`), optionally
/// with a telemetry sink installed, and extracts the observable outcome
/// plus the rendered telemetry artifacts when the sink was on.
fn run_chaos_with(telemetry: bool) -> (ChaosOutcome, Option<(String, String)>) {
    let built = chaos::run(telemetry);
    let outcome = outcome_of(&built.world, built.h1, built.compare.unwrap());
    let artifacts = telemetry.then(|| {
        let sink = built.world.telemetry();
        (sink.metrics_json(), sink.trace_json())
    });
    (outcome, artifacts)
}

/// Extracts the observable outcome from a finished chaos world.
fn outcome_of(world: &World, h1: NodeId, cmp: NodeId) -> ChaosOutcome {
    let report = world.device::<Pinger>(h1).unwrap().report();
    let compare = world.device::<Compare>(cmp).unwrap();
    ChaosOutcome {
        report,
        log: compare
            .events()
            .iter()
            .map(|e| (e.at, e.record.clone()))
            .collect(),
        counts: compare.stats().events,
    }
}

fn run_chaos() -> ChaosOutcome {
    run_chaos_with(false).0
}

/// First-occurrence index of a supervisor lifecycle stage on one lane.
fn first(log: &[(SimTime, SecurityEvent)], lane_id: u16, stage: &str) -> Option<usize> {
    log.iter().position(|(_, e)| match (stage, e) {
        ("quarantine", SecurityEvent::ReplicaQuarantined { lane, .. }) => *lane == lane_id,
        ("degrade", SecurityEvent::ModeDegraded { lane, .. }) => *lane == lane_id,
        ("probation", SecurityEvent::ReplicaProbation { lane, .. }) => *lane == lane_id,
        ("readmit", SecurityEvent::ReplicaReadmitted { lane, .. }) => *lane == lane_id,
        ("restore", SecurityEvent::ModeRestored { lane, .. }) => *lane == lane_id,
        _ => false,
    })
}

#[test]
fn flapping_replica_heals_without_losing_a_single_ping() {
    let out = run_chaos();

    // Availability: the flapping replica never costs a ping.
    assert_eq!(out.report.transmitted, 100);
    assert_eq!(out.report.received, 100, "chaos must not cost availability");

    // The supervisor healed every episode on both lanes (one per guard).
    assert_eq!(
        out.counts.quarantines, 6,
        "three flaps must quarantine on both lanes: {:?}",
        out.counts
    );
    assert_eq!(
        out.counts.quarantines, out.counts.readmissions,
        "every quarantine must heal: {:?}",
        out.counts
    );
    assert_eq!(out.counts.degradations, out.counts.restorations);
    assert!(out.counts.probations >= 1);

    // Full lifecycle, in causal order, on each lane that quarantined.
    for lane in [0u16, 1] {
        let order: Vec<usize> = ["quarantine", "degrade", "probation", "readmit", "restore"]
            .into_iter()
            .map(|s| {
                first(&out.log, lane, s).unwrap_or_else(|| panic!("lane {lane}: missing {s} event"))
            })
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "lane {lane}: lifecycle out of order: {order:?}"
        );
    }

    // The quarantined replica is always r2 (guard replica port 2).
    assert!(out.log.iter().all(|(_, e)| match e {
        SecurityEvent::ReplicaQuarantined { port, .. } => *port == 2,
        _ => true,
    }));

    // Persist the supervisor event log for the CI chaos job's artifact.
    let mut rendered = String::new();
    for (at, event) in &out.log {
        let _ = writeln!(rendered, "{:>12} ns  {event}", at.as_nanos());
    }
    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).expect("create target/chaos");
    std::fs::write(dir.join("supervisor_events.log"), rendered)
        .expect("write supervisor event log");
}

#[test]
fn chaos_run_is_bit_identical_across_reruns() {
    let a = run_chaos();
    let b = run_chaos();
    assert_eq!(a, b, "same seed must reproduce the identical run");
    assert!(!a.log.is_empty());
}

/// The telemetry acceptance criteria in one run: installing the sink must
/// not perturb the simulation — the run with telemetry on, which records
/// every CPU admission, link sample and compare verdict, must equal the
/// run with telemetry off outcome for outcome — both rendered artifacts
/// must be byte-identical across reruns, the chrome trace must show every
/// quarantine episode as a begin/end span pair with probation markers in
/// between, and the per-stage packet-lifecycle histograms must have data.
/// The artifacts are persisted under `target/chaos/` for the CI job.
#[test]
fn telemetry_artifacts_deterministic_and_structurally_valid() {
    let plain = run_chaos();
    let (out_a, art_a) = run_chaos_with(true);
    let (out_b, art_b) = run_chaos_with(true);
    let (metrics_a, trace_a) = art_a.unwrap();
    let (metrics_b, trace_b) = art_b.unwrap();

    assert_eq!(
        out_a, plain,
        "telemetry (and with it the modeled CPU) must not perturb the simulation"
    );
    assert_eq!(out_a, out_b);
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshot must be byte-identical"
    );
    assert_eq!(trace_a, trace_b, "chrome trace must be byte-identical");

    // Every quarantine episode (3 flaps × 2 lanes) is a span pair on the
    // compare's lane tracks, with the probation gate marked in between.
    let spans = |ph: &str, name: &str| {
        trace_a
            .lines()
            .filter(|l| l.contains(&format!("\"ph\": \"{ph}\"")) && l.contains(name))
            .count()
    };
    assert_eq!(spans("B", "quarantine port 2"), 6, "quarantine span opens");
    assert_eq!(spans("E", "quarantine port 2"), 6, "quarantine span closes");
    assert!(spans("i", "probation port 2") >= 1, "probation markers");
    assert_eq!(spans("B", "degraded"), spans("E", "degraded"));
    assert!(trace_a.contains("\"name\": \"process_name\""));
    assert!(trace_a.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));

    // Per-stage latency histograms saw real traffic (hub → replica →
    // compare → verdict), and drops carry their reason.
    for name in [
        "lifecycle.hub_to_replica_ns",
        "lifecycle.replica_to_compare_ns",
        "lifecycle.compare_to_verdict_ns",
        "lifecycle.end_to_end_ns",
    ] {
        let line = metrics_a
            .lines()
            .find(|l| l.contains(name))
            .unwrap_or_else(|| panic!("metrics snapshot is missing {name}"));
        assert!(
            !line.contains("\"count\": 0"),
            "{name} must have samples: {line}"
        );
    }
    assert!(metrics_a.contains("\"lifecycle.released\""));
    assert!(
        metrics_a.contains("\"compare.cmp.received\"") || {
            // The compare node's name is topology-defined; fall back to any
            // scoped compare counter so a rename fails loudly here.
            metrics_a.contains("compare.") && metrics_a.contains(".received")
        }
    );
    assert!(metrics_a.contains("\"sim.events_processed\""));

    let dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(dir).expect("create target/chaos");
    std::fs::write(dir.join("chaos_metrics.json"), &metrics_a).expect("write metrics artifact");
    std::fs::write(dir.join("chaos_trace.json"), &trace_a).expect("write trace artifact");
}
