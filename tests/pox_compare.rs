//! The POX deployment (compare as a controller app) under attack: the
//! control-plane path must provide the same protection semantics as the
//! central compare, just slower.

use netco_adversary::{ActivationWindow, Behavior};
use netco_controller::Controller;
use netco_core::{PoxCompareApp, SecurityEvent};
use netco_openflow::FlowMatch;
use netco_sim::SimDuration;
use netco_topo::{AdversarySpec, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

fn run_attacked(behaviors: Vec<(Behavior, ActivationWindow)>) -> (u32, u32, u64, usize) {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 12).with_adversary(
        AdversarySpec {
            replica_index: 1,
            behaviors,
        },
    );
    let mut built = scenario.build_world(
        0,
        |nic| {
            Pinger::new(
                nic,
                PingConfig::new(H2_IP)
                    .with_count(10)
                    .with_interval(SimDuration::from_millis(20)),
            )
        },
        IcmpEchoResponder::new,
    );
    built.world.run_for(SimDuration::from_secs(3));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    let controller = built
        .world
        .device::<Controller>(built.controllers[0])
        .unwrap();
    let app = controller.app::<PoxCompareApp>().expect("pox app");
    let alarms = app
        .events()
        .iter()
        .filter(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. }))
        .count();
    (
        report.transmitted,
        report.received,
        app.stats().expired_unreleased,
        alarms,
    )
}

#[test]
fn pox_compare_masks_a_dropping_replica() {
    let (tx, rx, _, _) = run_attacked(vec![(
        Behavior::Drop {
            select: FlowMatch::any(),
        },
        ActivationWindow::always(),
    )]);
    assert_eq!(tx, 10);
    assert_eq!(rx, 10);
}

#[test]
fn pox_compare_suppresses_corruption_with_alarms() {
    let (tx, rx, suppressed, alarms) = run_attacked(vec![(
        Behavior::CorruptPayload {
            select: FlowMatch::any(),
            every_nth: 1,
        },
        ActivationWindow::always(),
    )]);
    assert_eq!(tx, 10);
    assert_eq!(rx, 10);
    assert!(
        suppressed >= 20,
        "corrupted copies die at the controller: {suppressed}"
    );
    assert!(alarms >= 20);
}

#[test]
fn pox_every_copy_crosses_the_controller() {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 12);
    let mut built = scenario.build_world(
        0,
        |nic| {
            Pinger::new(
                nic,
                PingConfig::new(H2_IP)
                    .with_count(10)
                    .with_interval(SimDuration::from_millis(20)),
            )
        },
        IcmpEchoResponder::new,
    );
    built.world.run_for(SimDuration::from_secs(3));
    let controller = built
        .world
        .device::<Controller>(built.controllers[0])
        .unwrap();
    // 10 requests + 10 replies, 3 copies each = 60 packet-ins.
    assert_eq!(
        controller.packet_in_count(),
        60,
        "the POX deployment pipes every copy through the controller"
    );
}
