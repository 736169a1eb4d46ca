//! The canonical chaos scenario: replica `r2` flaps three times during a
//! 100-ping Central3 run with the self-healing supervisor attached.
//!
//! Shared between the chaos acceptance test (`tests/chaos_supervisor.rs`,
//! which writes the telemetry artifacts to `target/chaos/`) and the
//! determinism tests, so all exercise the identical world: the supervisor
//! must heal every episode without costing a single ping, and with a
//! telemetry sink installed the run yields a metrics snapshot plus a
//! chrome://tracing document showing the quarantine → probation →
//! re-admit episodes as spans.

use netco_core::SupervisorConfig;
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use netco_topo::{BuiltScenario, FaultKind, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

/// The chaos scenario: Central3, functional profile, seed 33, supervisor
/// attached, replica `r2` (index 1) down during [150, 250), [400, 500)
/// and [650, 750) ms — well inside the 100-ping × 10 ms traffic window.
pub fn flapping_scenario() -> Scenario {
    Scenario::build(ScenarioKind::Central3, Profile::functional(), 33)
        .with_miss_alarm_threshold(3)
        .with_supervisor(
            SupervisorConfig::default()
                .with_quarantine_strikes(1)
                .with_probation_delay(SimDuration::from_millis(50))
                .with_readmit_streak(4)
                .with_escalation_cap(2),
        )
        .with_replica_fault(
            1,
            FaultKind::Flaps {
                first_down: SimTime::ZERO + SimDuration::from_millis(150),
                down_for: SimDuration::from_millis(100),
                up_for: SimDuration::from_millis(150),
                cycles: 3,
            },
        )
}

/// Builds and runs the chaos scenario (100 pings h1 → h2, 2 s of sim
/// time), optionally with an enabled [`TelemetrySink`] installed on the
/// world before the first event fires. The returned world is finished;
/// inspect its devices and, when telemetry was on, pull
/// `world.telemetry().metrics_json()` / `.trace_json()`.
pub fn run(telemetry: bool) -> BuiltScenario {
    run_with_sink(telemetry.then(TelemetrySink::enabled))
}

/// Like [`run`], but with a caller-provided sink, so several worlds can
/// feed one registry (e.g. the observability example's quarantine
/// timeline and its `--json` snapshot).
pub fn run_with_sink(sink: Option<TelemetrySink>) -> BuiltScenario {
    let scenario = flapping_scenario();
    let mut built = scenario.build_world(
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
    );
    if let Some(sink) = sink {
        built.world.set_telemetry(sink);
    }
    built.world.run_for(SimDuration::from_secs(2));
    built
}

/// The two telemetry artifacts of one chaos run.
pub struct ChaosArtifacts {
    /// Canonical metrics-registry snapshot (`metrics_json`).
    pub metrics_json: String,
    /// chrome://tracing trace-event document (`trace_json`).
    pub trace_json: String,
}

/// Runs the chaos scenario with telemetry and renders both artifacts.
pub fn artifacts() -> ChaosArtifacts {
    let built = run(true);
    let sink = built.world.telemetry();
    ChaosArtifacts {
        metrics_json: sink.metrics_json(),
        trace_json: sink.trace_json(),
    }
}
