//! Differential regression: the batched dispatch loop (`World::run_until`,
//! which drains whole timing-wheel ticks per scheduler call) must be
//! observationally bit-identical to the retired per-event loop
//! (`World::run_until_per_event`, one wheel scan per event). Any
//! divergence in `(time, seq)` delivery order shows up here as a frame
//! appearing at a different tap timestamp or in a different order.

use std::net::Ipv4Addr;

use netco_bench::ExperimentScale;
use netco_net::{CpuModel, HostNic, LinkSpec, MacAddr, NeighborTable, PortId, TapDigest, World};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{
    FlowSet, FlowSetConfig, FlowSink, SizeDist, TcpConfig, TcpReceiver, TcpSender,
};

/// One (digest, taps, events, final clock, goodput bits) observation of
/// the Central3 TCP scenario, run batched or per-event, with the CPU
/// bypass left on (the default) or every CPU modeled (an enabled
/// telemetry sink clears every bypass bit).
fn central3_observation(per_event: bool, modeled: bool) -> (u64, u64, u64, u64, u64) {
    let scale = ExperimentScale::smoke();
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7);
    let cfg = TcpConfig::new(H2_IP).with_duration(scale.duration);
    let cfg2 = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, cfg2),
    );
    if modeled {
        built.world.set_telemetry(TelemetrySink::enabled());
    }
    let acc = TapDigest::attach(&mut built.world);
    let deadline = built.world.now() + scale.duration + SimDuration::from_millis(500);
    if per_event {
        built.world.run_until_per_event(deadline);
    } else {
        built.world.run_until(deadline);
    }
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
    let batched = central3_observation(false, false);
    let per_event = central3_observation(true, false);
    assert_eq!(batched, per_event);
    assert!(batched.1 > 0, "tap saw no frames");
    assert!(batched.2 > 0, "no events processed");
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

#[test]
fn flowset_batched_matches_per_event_bit_for_bit() {
    let deadline = SimTime::ZERO + SimDuration::from_secs(2);
    let observe = |per_event: bool| {
        let (mut w, src, dst) = flowset_world();
        let acc = TapDigest::attach(&mut w);
        if per_event {
            w.run_until_per_event(deadline);
        } else {
            w.run_until(deadline);
        }
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
    };
    let batched = observe(false);
    let per_event = observe(true);
    assert_eq!(batched, per_event);
    assert!(batched.3.spawned > 5_000, "arrivals never fired");
    assert!(batched.4 > 0, "sink saw nothing");
}

/// The CPU bypass (on by default) must be bit-identical to the same world
/// with every admission forced through the modeled `cpu_admit`, which an
/// enabled telemetry sink does.
#[test]
fn flowset_cpu_bypass_matches_modeled_cpu_with_telemetry_on() {
    let deadline = SimTime::ZERO + SimDuration::from_secs(2);
    let observe = |modeled: bool| {
        let (mut w, src, dst) = flowset_world();
        if modeled {
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
    };
    let oracle = observe(true);
    let bypassed = observe(false);
    assert_eq!(oracle, bypassed, "CPU bypass changed the world");
    assert!(oracle.4 > 0, "sink saw nothing");
}

/// The same comparison on Central3 (OpenFlow switches, control channels,
/// TCP endpoints): the default run must match the run with telemetry on.
#[test]
fn central3_cpu_bypass_matches_modeled_cpu_with_telemetry_on() {
    let oracle = central3_observation(false, true);
    assert_eq!(oracle, central3_observation(false, false));
    assert!(oracle.1 > 0, "tap saw no frames");
}
