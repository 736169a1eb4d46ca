//! Availability under replica failure (paper §IV case 3): a replica's
//! links go down mid-run; the combiner keeps delivering, the compare
//! raises a replica-down alarm, and recovery is detected when the links
//! come back.
//!
//! Faults are scripted with a declarative [`FaultKind`] attached to the
//! scenario and applied to both of the replica's links.

use netco_core::{Compare, SecurityEvent};
use netco_sim::{ActivationWindow, SimDuration, SimTime};
use netco_topo::{FaultKind, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger, UdpConfig, UdpSink, UdpSource};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn replica_crash_does_not_interrupt_service() {
    // Crash replica r2 (both links down) after 30 ping cycles, forever.
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::functional(), 3)
        .with_replica_fault(
            1,
            FaultKind::Outage(ActivationWindow::starting_at(at_ms(300))),
        );
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
    built
        .world
        .run_for(SimDuration::from_millis(300) + SimDuration::from_secs(2));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    assert_eq!(report.transmitted, 100);
    assert_eq!(report.received, 100, "2-of-3 majority must mask the crash");
}

#[test]
fn compare_raises_down_alarm_and_recovery() {
    // Sustained traffic so the consecutive-miss counter can trip. Replica
    // r3 crashes at 500 ms and recovers at 2 s — one bounded outage window.
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::functional(), 4)
        .with_replica_fault(
            2,
            FaultKind::Outage(ActivationWindow::between(at_ms(500), at_ms(2000))),
        );
    let mut built = scenario.build_world(
        0,
        |nic| {
            UdpSource::new(
                nic,
                UdpConfig::new(H2_IP)
                    .with_rate(20_000_000)
                    .with_payload_len(512)
                    .with_duration(SimDuration::from_secs(4)),
            )
        },
        |nic| UdpSink::new(nic, 5001),
    );
    built.world.run_for(SimDuration::from_millis(2000));
    {
        let compare = built
            .world
            .device::<Compare>(built.compare.unwrap())
            .unwrap();
        assert!(
            compare
                .events()
                .iter()
                .any(|e| matches!(e.record, SecurityEvent::ReplicaSuspectedDown { .. })),
            "a silent replica must raise an operator alarm"
        );
        // No traffic was lost end to end.
        let sink_loss = built
            .world
            .device::<UdpSink>(built.h2)
            .unwrap()
            .report()
            .loss_fraction;
        assert!(sink_loss < 0.001, "loss {sink_loss}");
    }
    // The outage window ends at 2 s; the compare must notice the recovery.
    built.world.run_for(SimDuration::from_secs(2));
    let compare = built
        .world
        .device::<Compare>(built.compare.unwrap())
        .unwrap();
    assert!(
        compare
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::ReplicaRecovered { .. })),
        "recovery must be reported"
    );
}

#[test]
fn detection_mode_survives_replica_crash_too() {
    // k = 2 detection: the first copy is forwarded immediately, so losing
    // one replica costs nothing but alarms.
    let scenario = Scenario::build(ScenarioKind::Detect2, Profile::functional(), 5)
        .with_replica_fault(
            0,
            FaultKind::Outage(ActivationWindow::starting_at(at_ms(100))),
        );
    let mut built = scenario.build_world(
        0,
        |nic| {
            Pinger::new(
                nic,
                PingConfig::new(H2_IP)
                    .with_count(50)
                    .with_interval(SimDuration::from_millis(10)),
            )
        },
        IcmpEchoResponder::new,
    );
    built
        .world
        .run_for(SimDuration::from_millis(100) + SimDuration::from_secs(2));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    assert_eq!(report.received, 50);
    let compare = built
        .world
        .device::<Compare>(built.compare.unwrap())
        .unwrap();
    assert!(compare
        .events()
        .iter()
        .any(|e| matches!(e.record, SecurityEvent::DetectionMismatch { .. })));
}
