//! The canonical control-plane chaos scenario: POX3 with a 3-way
//! replicated controller behind per-guard vote proxies, where controller
//! `pox1` equivocates (corrupts every votable output) for half a second in
//! the middle of a 100-ping run while the voter's self-healing supervisor
//! is attached.
//!
//! Shared between the Byzantine-controller acceptance test
//! (`tests/byzantine_controller.rs`) and ad-hoc inspection, so both always
//! exercise the identical world: the 2-of-3 controller majority must keep
//! every ping alive, the voters must run the liar through the full
//! quarantine → degrade → probation → re-admit → restore lifecycle once it
//! turns honest again, and the run must be bit-identical across reruns.

use netco_controller::apps::ByzantineBehavior;
use netco_core::{ControlVoterConfig, SupervisorConfig};
use netco_sim::{ActivationWindow, SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use netco_topo::{BuiltScenario, ControlReplication, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

/// When the equivocation window opens (well after the ping train starts,
/// so honest majorities are observable on both sides of it).
pub(crate) fn byzantine_window() -> ActivationWindow {
    ActivationWindow::between(
        SimTime::ZERO + SimDuration::from_millis(150),
        SimTime::ZERO + SimDuration::from_millis(650),
    )
}

/// The 0-based index of the equivocating controller replica.
pub const LIAR: usize = 1;

/// The control-chaos scenario: POX3, functional profile, seed 41, three
/// controller replicas behind voters with the supervisor attached, and
/// controller 1 corrupting every votable output inside
/// `byzantine_window`.
pub fn equivocating_scenario() -> Scenario {
    let voter = ControlVoterConfig::default()
        .with_miss_alarm_threshold(8)
        .with_supervisor(
            SupervisorConfig::default()
                .with_quarantine_strikes(1)
                .with_probation_delay(SimDuration::from_millis(50))
                .with_readmit_streak(4)
                .with_escalation_cap(2),
        );
    Scenario::build(ScenarioKind::Pox3, Profile::functional(), 41).with_control_replication(
        ControlReplication::new(3).with_voter(voter).with_byzantine(
            LIAR,
            ByzantineBehavior::Equivocate { every_nth: 1 },
            byzantine_window(),
        ),
    )
}

/// Builds and runs the control-chaos scenario (100 pings h1 → h2 at 10 ms,
/// 2 s of sim time), optionally with an enabled [`TelemetrySink`]
/// installed before the first event fires. The returned world is finished;
/// inspect the voters' stats and event logs, and when telemetry was on
/// pull `world.telemetry().metrics_json()` for the `ctlvote.*` cells.
pub fn run(telemetry: bool) -> BuiltScenario {
    run_with_sink(telemetry.then(TelemetrySink::enabled))
}

/// Like [`run`], but with a caller-provided sink, so several worlds can
/// feed one registry (e.g. the observability example's `--json` snapshot
/// combining data-plane and control-plane chaos).
pub fn run_with_sink(sink: Option<TelemetrySink>) -> BuiltScenario {
    let scenario = equivocating_scenario();
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
