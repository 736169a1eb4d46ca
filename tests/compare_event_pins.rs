//! What every placement of the compare recorded, pinned: its
//! [`CompareStats`] (the per-kind [`EventCounts`](netco_core::EventCounts)
//! included), the FNV-1a of its rendered security event log where the
//! placement exposes one, and a [`TapDigest`] of the whole run.
//!
//! The runs cover every event kind and every action the compare emits:
//! Central3 TCP over the calibrated profile, whose 384-entry cache cleans
//! (so `Stall` fires) while one replica injects crafted frames (DoS
//! advice, port blocks) and corrupts payloads (single-path alarms); the
//! flapping-replica chaos scenario (quarantine, probation, readmission,
//! degrade, restore); Detect2 under corruption (mismatch alarms); Inband3
//! and POX3 with a corrupting replica; and §VII's attacked virtualized
//! combiner. How the compare hands its events and actions to a placement
//! may change; none of these numbers may.

use bytes::Bytes;
use netco_adversary::{ActivationWindow, Behavior};
use netco_controller::Controller;
use netco_core::{Compare, CompareStats, GuardSwitch, PoxCompareApp, SecurityEvent};
use netco_net::{MacAddr, PortId, TapDigest};
use netco_openflow::FlowMatch;
use netco_sim::{EventLog, SimDuration};
use netco_topo::{AdversarySpec, BuiltScenario, Profile, Scenario, ScenarioKind, H2_IP, H2_MAC};
use netco_topogen::virtual_netco::{self, VirtualNetcoConfig};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger, TcpConfig, TcpReceiver, TcpSender};

/// FNV-1a of the log rendered one `Debug` entry (time and event) a line.
fn log_digest(log: &EventLog<SecurityEvent>) -> u64 {
    let mut rendered = String::new();
    for entry in log {
        rendered.push_str(&format!("{entry:?}\n"));
    }
    netco_net::fnv1a(rendered.as_bytes())
}

fn corrupt_every(every_nth: u64) -> (Behavior, ActivationWindow) {
    let corrupt = Behavior::CorruptPayload {
        select: FlowMatch::any(),
        every_nth,
    };
    (corrupt, ActivationWindow::always())
}

fn with_corrupting_replica(scenario: Scenario, every_nth: u64) -> Scenario {
    scenario.with_adversary(AdversarySpec {
        replica_index: 1,
        behaviors: vec![corrupt_every(every_nth)],
    })
}

/// `scenario` with 50 pings h1 → h2 every 10 ms, tapped, run for 2 s.
fn ping_run(scenario: &Scenario) -> (BuiltScenario, TapDigest) {
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
    let digest = TapDigest::attach(&mut built.world);
    built.world.run_for(SimDuration::from_secs(2));
    (built, digest)
}

fn central_compare(built: &BuiltScenario) -> &Compare {
    let id = built.compare.expect("a central compare");
    built.world.device::<Compare>(id).unwrap()
}

#[track_caller]
fn assert_stats(stats: CompareStats, pinned: &str) {
    assert_eq!(format!("{stats:?}"), pinned);
}

#[track_caller]
fn assert_taps(digest: &TapDigest, pinned: (u64, u64)) {
    assert_eq!(
        (digest.value(), digest.taps()),
        pinned,
        "tap digest {:#018x} over {} taps",
        digest.value(),
        digest.taps()
    );
}

#[test]
fn central3_tcp_with_injecting_and_corrupting_replica() {
    let crafted = netco_net::packet::builder::udp_frame(
        MacAddr::local(0xdead),
        H2_MAC,
        std::net::Ipv4Addr::new(66, 6, 6, 6),
        H2_IP,
        6666,
        6666,
        Bytes::from_static(b"crafted attack traffic"),
        None,
    );
    let inject = Behavior::InjectCbr {
        frame: crafted,
        out_port: PortId(2),
        interval: SimDuration::from_millis(1),
    };
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7).with_adversary(
        AdversarySpec {
            replica_index: 1,
            behaviors: vec![(inject, ActivationWindow::always()), corrupt_every(50)],
        },
    );
    let duration = SimDuration::from_secs(1);
    let cfg = TcpConfig::new(H2_IP).with_duration(duration);
    let receiver_cfg = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, receiver_cfg),
    );
    let digest = TapDigest::attach(&mut built.world);
    built.world.run_for(duration);

    let compare = central_compare(&built);
    assert_stats(compare.stats(), "CompareStats { received: 54539, released: 23210, suppressed_duplicates: 7944, expired_unreleased: 155, dos_advices: 1, cleanups: 78, evicted: 14976, unknown_port: 0, peak_cache_entries: 384, events: EventCounts { single_path: 155, detection_mismatch: 0, dos_suspected: 1, port_blocked: 1, replica_suspected_down: 1, replica_recovered: 0, cache_cleanup: 78, quarantines: 0, probations: 0, readmissions: 0, degradations: 0, restorations: 0 } }");
    assert_eq!(log_digest(compare.events()), 0x7737a2445b94492);
    assert_taps(&digest, (0x5a76_3937_5e79_4498, 529_392));
}

#[test]
fn chaos_supervisor_lifecycle() {
    let reference = netco_bench::chaos::run(false);
    let compare = central_compare(&reference);
    let (stats, log) = (compare.stats(), log_digest(compare.events()));
    assert_stats(stats, "CompareStats { received: 540, released: 200, suppressed_duplicates: 214, expired_unreleased: 0, dos_advices: 0, cleanups: 0, evicted: 0, unknown_port: 0, peak_cache_entries: 3, events: EventCounts { single_path: 0, detection_mismatch: 0, dos_suspected: 0, port_blocked: 0, replica_suspected_down: 6, replica_recovered: 6, cache_cleanup: 0, quarantines: 6, probations: 6, readmissions: 6, degradations: 6, restorations: 6 } }");
    assert_eq!(log, 0x6dccbb38f8ebb578);

    // The same world again, tapped: `run` gives its world back finished.
    let mut built = netco_bench::chaos::flapping_scenario().build_world(
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
    let digest = TapDigest::attach(&mut built.world);
    built.world.run_for(SimDuration::from_secs(2));
    let tapped = central_compare(&built);
    assert_eq!(tapped.stats(), stats, "the tapped chaos world is run's");
    assert_eq!(log_digest(tapped.events()), log);
    assert_taps(&digest, (0x7e14_4782_7657_5b54, 4_500));
}

#[test]
fn detect2_under_corruption() {
    let scenario = Scenario::build(ScenarioKind::Detect2, Profile::functional(), 5);
    let (built, digest) = ping_run(&with_corrupting_replica(scenario, 3));
    let compare = central_compare(&built);
    assert_stats(compare.stats(), "CompareStats { received: 200, released: 133, suppressed_duplicates: 67, expired_unreleased: 0, dos_advices: 0, cleanups: 0, evicted: 0, unknown_port: 0, peak_cache_entries: 4, events: EventCounts { single_path: 0, detection_mismatch: 66, dos_suspected: 0, port_blocked: 0, replica_suspected_down: 0, replica_recovered: 0, cache_cleanup: 0, quarantines: 0, probations: 0, readmissions: 0, degradations: 0, restorations: 0 } }");
    assert_eq!(log_digest(compare.events()), 0xa7ad583b3cc1170e);
    assert_taps(&digest, (0xfc80_1574_34d1_feb5, 1_932));
}

#[test]
fn inband3_with_a_corrupting_replica() {
    let scenario = Scenario::build(ScenarioKind::Inband3, Profile::functional(), 8);
    let (built, digest) = ping_run(&with_corrupting_replica(scenario, 2));
    let pinned = ["CompareStats { received: 150, released: 50, suppressed_duplicates: 0, expired_unreleased: 50, dos_advices: 0, cleanups: 0, evicted: 0, unknown_port: 0, peak_cache_entries: 6, events: EventCounts { single_path: 50, detection_mismatch: 0, dos_suspected: 0, port_blocked: 0, replica_suspected_down: 0, replica_recovered: 0, cache_cleanup: 0, quarantines: 0, probations: 0, readmissions: 0, degradations: 0, restorations: 0 } }", "CompareStats { received: 150, released: 50, suppressed_duplicates: 50, expired_unreleased: 0, dos_advices: 0, cleanups: 0, evicted: 0, unknown_port: 0, peak_cache_entries: 3, events: EventCounts { single_path: 0, detection_mismatch: 0, dos_suspected: 0, port_blocked: 0, replica_suspected_down: 0, replica_recovered: 0, cache_cleanup: 0, quarantines: 0, probations: 0, readmissions: 0, degradations: 0, restorations: 0 } }"];
    for (&guard, pinned) in built.guards.iter().zip(pinned) {
        let guard = built.world.device::<GuardSwitch>(guard).unwrap();
        assert_stats(guard.embedded_compare_stats().expect("inband"), pinned);
    }
    assert_taps(&digest, (0xaf92_ef52_b623_1c79, 1_600));
}

#[test]
fn pox3_with_a_corrupting_replica() {
    let scenario = Scenario::build(ScenarioKind::Pox3, Profile::functional(), 12);
    let (built, digest) = ping_run(&with_corrupting_replica(scenario, 2));
    let controller = built
        .world
        .device::<Controller>(built.controllers[0])
        .unwrap();
    let app = controller.app::<PoxCompareApp>().expect("pox app");
    assert_stats(app.stats(), "CompareStats { received: 300, released: 100, suppressed_duplicates: 50, expired_unreleased: 50, dos_advices: 0, cleanups: 0, evicted: 0, unknown_port: 0, peak_cache_entries: 6, events: EventCounts { single_path: 50, detection_mismatch: 0, dos_suspected: 0, port_blocked: 0, replica_suspected_down: 0, replica_recovered: 0, cache_cleanup: 0, quarantines: 0, probations: 0, readmissions: 0, degradations: 0, restorations: 0 } }");
    assert_eq!(log_digest(app.events()), 0x40e9162bbd89078e);
    assert_taps(&digest, (0xfbd1_9af0_0808_1daf, 1_600));
}

/// `run_ping` keeps its world; the destination guard's verdicts are what
/// its outcome reports (its tap digest is `virtual_world_shape_is_pinned`'s,
/// in netco-topogen).
#[test]
fn virtualized_netco_under_a_corrupting_tunnel_switch() {
    let cfg = VirtualNetcoConfig {
        corrupt_tunnel: Some((2, vec![corrupt_every(1)])),
        ..VirtualNetcoConfig::default()
    };
    let out = virtual_netco::run_ping(&cfg, &Profile::default(), 5);
    let p = &out.ping;
    assert_eq!(
        (
            p.transmitted,
            p.received,
            out.released_at_dst,
            out.suppressed_at_dst
        ),
        (10, 10, 10, 10)
    );
    assert_eq!(format!("{:?}", (p.min, p.avg, p.max, p.mdev)), "(Some(SimDuration(330983)), Some(SimDuration(334340)), Some(SimDuration(337786)), Some(SimDuration(1450)))");
}
