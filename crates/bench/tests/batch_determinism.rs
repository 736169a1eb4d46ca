//! Pinned regression for the batched dispatch loop (`World::run_until`,
//! which drains whole timing-wheel ticks per scheduler call). The
//! constants below were recorded on commit 51e66b7 from the per-event loop
//! this crate used to keep as the batch drain's oracle (one wheel scan per
//! event) and are never re-recorded from a change: any divergence in
//! `(time, key, seq)` delivery order shows up as a frame appearing at a
//! different tap timestamp or in a different order.

use std::net::Ipv4Addr;

use netco_bench::ExperimentScale;
use netco_net::{CpuModel, HostNic, LinkSpec, MacAddr, NeighborTable, PortId, TapDigest, World};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{
    FlowSet, FlowSetConfig, FlowSetStats, FlowSink, SizeDist, TcpConfig, TcpReceiver, TcpSender,
};

/// `(digest, taps, events, final clock, goodput bits)` of the Central3 TCP
/// scenario below, from the per-event loop on commit 51e66b7 (goodput
/// 210,535,908.92 bit/s).
const CENTRAL3_PER_EVENT: (u64, u64, u64, u64, u64) = (
    17_057_757_076_419_855_108,
    198_240,
    206_339,
    800_000_000,
    4_731_340_421_951_164_436,
);

/// One (digest, taps, events, final clock, goodput bits) observation of
/// the Central3 TCP scenario, with or without an enabled telemetry sink.
fn central3_observation(telemetry: bool) -> (u64, u64, u64, u64, u64) {
    let scale = ExperimentScale::smoke();
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7);
    let cfg = TcpConfig::new(H2_IP).with_duration(scale.duration);
    let cfg2 = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, cfg2),
    );
    if telemetry {
        built.world.set_telemetry(TelemetrySink::enabled());
    }
    let acc = TapDigest::attach(&mut built.world);
    let deadline = built.world.now() + scale.duration + SimDuration::from_millis(500);
    built.world.run_until(deadline);
    let report = built
        .world
        .device::<TcpReceiver>(built.h2)
        .expect("receiver")
        .report();
    let (digest, taps) = (acc.value(), acc.taps());
    (
        digest,
        taps,
        built.world.events_processed(),
        built.world.now().as_nanos(),
        report.goodput_bps.to_bits(),
    )
}

#[test]
fn central3_tcp_batched_matches_per_event_bit_for_bit() {
    assert_eq!(central3_observation(false), CENTRAL3_PER_EVENT);
}

fn flowset_world() -> (World, netco_net::NodeId, netco_net::NodeId) {
    let src_ip = Ipv4Addr::new(10, 9, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 9, 0, 2);
    let table: NeighborTable = [(src_ip, MacAddr::local(1)), (dst_ip, MacAddr::local(2))]
        .into_iter()
        .collect();
    let mut na = HostNic::new(MacAddr::local(1), src_ip);
    na.neighbors = table.clone();
    let mut nb = HostNic::new(MacAddr::local(2), dst_ip);
    nb.neighbors = table;
    let cfg = FlowSetConfig::new(dst_ip)
        .with_initial_flows(5_000)
        .with_arrival_rate(2_000.0)
        .with_arrival_window(SimDuration::from_millis(500))
        .with_size_dist(SizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 2_000,
        })
        .with_payload_len(1_000)
        .with_flow_rate(20_000_000)
        .with_start_spread(SimDuration::from_millis(200));
    let mut w = World::new(11);
    let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
    let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
    w.connect(
        src,
        PortId(0),
        dst,
        PortId(0),
        LinkSpec::new(10_000_000_000, SimDuration::from_micros(5)),
    );
    (w, src, dst)
}

/// `(tap digest, taps, events, flow stats, sink packets, sink digest)` of
/// the flow-set world run for 2 s.
type FlowsetObservation = (u64, u64, u64, FlowSetStats, u64, u64);

/// The flow-set world's observation from the per-event loop on commit
/// 51e66b7.
const FLOWSET_PER_EVENT: FlowsetObservation = (
    181_898_412_666_450_298,
    96_678,
    146_940,
    FlowSetStats {
        spawned: 5_965,
        completed: 5_965,
        active: 0,
        packets_sent: 48_339,
        bytes_sent: 45_064_392,
        digest: 225_777_680_829_623_282,
    },
    48_339,
    3_717_508_764_808_475_342,
);

fn flowset_observation(telemetry: bool) -> FlowsetObservation {
    let deadline = SimTime::ZERO + SimDuration::from_secs(2);
    let (mut w, src, dst) = flowset_world();
    if telemetry {
        w.set_telemetry(TelemetrySink::enabled());
    }
    let acc = TapDigest::attach(&mut w);
    w.run_until(deadline);
    let stats = w.device::<FlowSet>(src).expect("flowset").stats();
    let sink = w.device::<FlowSink>(dst).expect("sink");
    let (digest, taps) = (acc.value(), acc.taps());
    (
        digest,
        taps,
        w.events_processed(),
        stats,
        sink.packets(),
        sink.digest(),
    )
}

#[test]
fn flowset_batched_matches_per_event_bit_for_bit() {
    assert_eq!(flowset_observation(false), FLOWSET_PER_EVENT);
}

/// An enabled telemetry sink records every CPU admission and link sample
/// but must not perturb the world it observes.
#[test]
fn flowset_telemetry_on_matches_telemetry_off() {
    let on = flowset_observation(true);
    assert_eq!(
        on,
        flowset_observation(false),
        "telemetry changed the world"
    );
    assert!(on.4 > 0, "sink saw nothing");
}

/// The same comparison on Central3 (OpenFlow switches, control channels,
/// TCP endpoints).
#[test]
fn central3_telemetry_on_matches_telemetry_off() {
    let on = central3_observation(true);
    assert_eq!(on, central3_observation(false));
    assert!(on.1 > 0, "tap saw no frames");
}
