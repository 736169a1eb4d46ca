//! Telemetry determinism: the same seed and scenario must render
//! byte-identical metrics snapshots and chrome-trace documents across
//! reruns and across `netco_harness::Pool` worker counts — the
//! `harness_determinism` pattern applied to the telemetry artifacts.
//!
//! Sinks are `Rc`-based and single-world, so each pool job builds its own
//! world and sink inside the worker and ships only the rendered strings
//! back; the fold order of the pool is canonical, so nothing about the
//! worker count may leak into the bytes.

use netco_adversary::{ActivationWindow, Behavior};
use netco_bench::chaos;
use netco_harness::Pool;
use netco_openflow::FlowMatch;
use netco_sim::SimDuration;
use netco_telemetry::TelemetrySink;
use netco_topo::{AdversarySpec, ControlReplication, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

fn rendered_artifacts(_job: &u64) -> (String, String) {
    let a = chaos::artifacts();
    (a.metrics_json, a.trace_json)
}

#[test]
fn telemetry_artifacts_identical_across_reruns_and_thread_counts() {
    let jobs: Vec<u64> = (0..3).collect();
    let reference = Pool::serial().map(&jobs, rendered_artifacts);
    assert!(reference
        .iter()
        .all(|(m, t)| !m.is_empty() && t.contains("traceEvents")));
    // Rerun determinism: every job is the identical scenario.
    assert!(
        reference.windows(2).all(|w| w[0] == w[1]),
        "identical runs must render identical artifacts"
    );
    // Thread-count determinism: pooled workers change nothing.
    for threads in [2, 3] {
        let pooled = Pool::new(threads).map(&jobs, rendered_artifacts);
        assert_eq!(
            pooled, reference,
            "{threads} workers must render byte-identical artifacts"
        );
    }
}

/// 50 pings through `scenario` with an enabled sink; returns the sink.
fn pinged_with_telemetry(scenario: Scenario) -> TelemetrySink {
    let ping = PingConfig::new(H2_IP)
        .with_count(50)
        .with_interval(SimDuration::from_millis(10));
    let mut built = scenario.build_world(0, |nic| Pinger::new(nic, ping), IcmpEchoResponder::new);
    built.world.set_telemetry(TelemetrySink::enabled());
    built.world.run_for(SimDuration::from_secs(3));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    assert_eq!(report.received, 50);
    built.world.telemetry().clone()
}

/// Whichever way the compare is placed, the verdict record is complete:
/// every tagged flight is closed, none is tagged where nothing judges it,
/// the compare's rows are in the registry under its node's name, and its
/// alarms mark the trace timeline.
#[test]
fn every_placement_closes_its_flights_and_reports_its_compare() {
    use ScenarioKind::*;
    let build = |kind| Scenario::build(kind, Profile::functional(), 12);
    // (scenario, the node hosting a compare, flights tagged: 50 requests
    // and 50 replies where every packet is judged)
    let cases = [
        (build(Linespeed), None, 0..=0),
        (build(Dup3), None, 0..=0),
        (build(Central3), Some("h3-compare"), 100..=100),
        (build(Central5), Some("h3-compare"), 100..=100),
        (build(Detect2), Some("h3-compare"), 100..=100),
        (build(Inband3), Some("s2"), 100..=100),
        (build(Pox3), Some("pox"), 100..=100),
        (
            build(Pox3).with_control_replication(ControlReplication::new(3)),
            Some("pox0"),
            100..=100,
        ),
        (
            build(Central3).with_sampling(0.5),
            Some("h3-compare"),
            1..=99,
        ),
    ];
    for (scenario, compare, flights) in cases {
        let what = format!("{:?} / {compare:?}", scenario.kind());
        let sink = pinged_with_telemetry(scenario);
        assert_eq!(sink.lifecycle_inflight(), 0, "{what}: open flights");
        let tagged = sink.counter("lifecycle.tagged").get();
        assert!(flights.contains(&tagged), "{what}: {tagged} tagged");
        let released = sink.counter("lifecycle.released").get();
        assert_eq!(released, tagged, "{what}: released");
        if let Some(scope) = compare {
            let received = sink.counter(&format!("compare.{scope}.received")).get();
            assert!(received > 0, "{what}: no compare.{scope}.received row");
        }
    }

    // A replica corrupting its copies (`tests/pox_compare.rs`'s adversary;
    // its dropping one loses no vote, so raises no single-path alarm).
    let attacked = build(Pox3).with_adversary(AdversarySpec {
        replica_index: 1,
        behaviors: vec![(
            Behavior::CorruptPayload {
                select: FlowMatch::any(),
                every_nth: 1,
            },
            ActivationWindow::always(),
        )],
    });
    let trace = pinged_with_telemetry(attacked).trace_json();
    assert!(trace.contains("single-path packet"), "POX alarms untraced");
}
