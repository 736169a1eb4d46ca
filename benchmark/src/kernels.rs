//! Kernels: each layer's public functions timed in isolation, from
//! outside. One warm-up pass, then the best of three passes (the best
//! rejects scheduling interference on a shared host); ns per operation.
//!
//! A kernel prices one operation at cache-hot cost. Multiplied by a
//! workload's count of that operation it estimates the layer's share of
//! the run (`attr.*`); what the estimates leave over is what an
//! in-program profile has to explain.

use std::net::Ipv4Addr;
use std::time::Instant;

use bytes::Bytes;
use netco_bench::grid::build_grid;
use netco_core::{CompareConfig, CompareCore, LaneInfo};
use netco_harness::Pool;
use netco_net::packet::builder;
use netco_net::testutil::EchoDevice;
use netco_net::{safe_horizons, CpuModel, Frame, LinkSpec, MacAddr, PortId, World};
use netco_openflow::{
    wire, Action, FlowEntry, FlowMatch, FlowTable, OfMessage, OfPort, PacketFields, PacketInReason,
};
use netco_sim::{Scheduler, SimDuration, SimTime, Tick};
use netco_telemetry::TelemetrySink;
use netco_topo::Profile;

use crate::spans::Spans;
use crate::workloads::{Counts, WORKERS};

/// Operations per measured pass.
const OPS: u64 = 1_000_000;
/// Measured passes; the best is reported.
const PASSES: usize = 3;
/// Events kept in flight in the scheduler kernels (all wheel levels).
const SCHED_FLIGHT: u64 = 4_096;
/// Distinct frames in the compare kernels' pool.
const COMPARE_POOL: usize = 1_024;
/// Frames bouncing in the two-node echo world.
const ECHO_FLIGHT: usize = 32;

/// Best-of-[`PASSES`] ns per operation; `pass(ops)` performs `ops`
/// operations. A quarter-length pass warms caches, allocator and clocks.
fn best_ns_per_op(mut pass: impl FnMut(u64)) -> f64 {
    pass(OPS / 4);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        pass(OPS);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / OPS as f64
}

fn per_op(mut op: impl FnMut()) -> f64 {
    best_ns_per_op(|ops| {
        for _ in 0..ops {
            op();
        }
    })
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// `perf_report`'s delay mix: mostly sub-millisecond, a tail to ~4 ms, a
/// sliver past the wheel horizon — every wheel level and the far heap.
fn churn_delay(state: &mut u64) -> SimDuration {
    let x = lcg(state);
    let nanos = match x & 0xF {
        0..=9 => x >> 4 & 0xF_FFFF,
        10..=14 => x >> 4 & 0x3F_FFFF,
        _ => (x >> 4 & 0xFFF) + 5_000_000_000,
    };
    SimDuration::from_nanos(nanos)
}

fn sched_churn_ns() -> f64 {
    let mut s = Scheduler::new();
    let mut state = 0x9E37_79B9u64;
    for i in 0..SCHED_FLIGHT {
        s.schedule_after(churn_delay(&mut state), i);
    }
    best_ns_per_op(|ops| {
        for i in 0..ops {
            let (_, ev) = s.pop().expect("flight never drains");
            std::hint::black_box(ev);
            s.schedule_after(churn_delay(&mut state), i);
        }
    })
}

/// The scheduler exactly as the echo world of `net.world.hop_ideal_ns`
/// uses it, and nothing else: whole ticks drained, [`ECHO_FLIGHT`] events
/// in flight, each arrival followed by a same-instant completion (the CPU
/// bypass) and each completion by the next arrival one link delay later.
/// Their difference is therefore the substrate's own cost per event.
fn sched_tick_drain_ns() -> f64 {
    const LINK_DELAY: SimDuration = SimDuration::from_nanos(5_115);
    let mut s = Scheduler::new();
    let mut tick = Tick::new();
    for i in 0..ECHO_FLIGHT as u64 {
        s.schedule_after_keyed(SimDuration::from_nanos(i * 115), i, 2 * i);
    }
    best_ns_per_op(|ops| {
        let mut done = 0;
        while done < ops {
            let n = s.pop_tick_until(SimTime::from_nanos(u64::MAX), &mut tick);
            assert!(n > 0, "flight never drains");
            for (key, ev) in tick.drain_keyed() {
                let arrival = std::hint::black_box(ev) & 1 == 0;
                let delay = if arrival {
                    SimDuration::ZERO
                } else {
                    LINK_DELAY
                };
                s.schedule_after_keyed(delay, key, ev ^ 1);
            }
            done += n as u64;
        }
    })
}

/// A UDP frame h1 → h2 around `payload`, from source port `src_port`.
fn udp_wire(src_port: u16, payload: Bytes) -> Bytes {
    builder::udp_frame(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        src_port,
        5001,
        payload,
        None,
    )
}

/// The full-size frame of the kernels: 1,400 bytes of payload, 1,442 on
/// the wire.
fn full_size_wire() -> Bytes {
    udp_wire(10_000, Bytes::from(vec![0xA5u8; 1400]))
}

fn frame_kernels(out: &mut Counts) {
    let payload = Bytes::from(vec![0xA5u8; 1400]);
    out.push((
        "net.frame.build_ns",
        per_op(|| {
            std::hint::black_box(udp_wire(10_000, payload.clone()));
        }),
    ));
    // A 22-byte payload makes the minimum 64-byte frame.
    let wire = full_size_wire();
    let small = udp_wire(10_000, Bytes::from(vec![0xA5u8; 22]));
    assert_eq!((wire.len(), small.len()), (1442, 64));
    let hot = Frame::new(wire.clone());
    hot.fp128();
    hot.fields();
    out.push((
        "net.frame.clone_ns",
        per_op(|| {
            std::hint::black_box(hot.clone());
        }),
    ));
    // Cold: a fresh `Frame` per touch, so the memo never helps — one miss
    // per fresh host frame. Memoized: the steady state of a frame crossing
    // hub, replicas, guard and compare.
    out.push((
        "net.frame.fp128_cold_ns",
        per_op(|| {
            std::hint::black_box(Frame::new(wire.clone()).fp128());
        }),
    ));
    out.push((
        "net.frame.fp128_cold_64_ns",
        per_op(|| {
            std::hint::black_box(Frame::new(small.clone()).fp128());
        }),
    ));
    out.push((
        "net.frame.fp128_memo_ns",
        per_op(|| {
            std::hint::black_box(hot.fp128());
        }),
    ));
    out.push((
        "net.frame.parse_cold_ns",
        per_op(|| {
            std::hint::black_box(Frame::new(wire.clone()).fields().dl_type);
        }),
    ));
    out.push((
        "net.frame.parse_memo_ns",
        per_op(|| {
            std::hint::black_box(hot.fields().dl_type);
        }),
    ));
}

/// ns per event of a two-node world whose nodes echo [`ECHO_FLIGHT`]
/// full-size frames back and forth forever.
fn echo_world_ns(cpu: CpuModel, tapped: bool) -> f64 {
    let mut world = World::new(7);
    let a = world.add_node("a", EchoDevice::default(), cpu.clone());
    let b = world.add_node("b", EchoDevice::default(), cpu);
    // Fat link: the frames never queue, so the kernel prices the event
    // path, not congestion.
    world.connect(
        a,
        PortId(0),
        b,
        PortId(0),
        LinkSpec::new(100_000_000_000, SimDuration::from_micros(5)),
    );
    if tapped {
        world.add_tap(|ev| {
            std::hint::black_box(ev.at);
        });
    }
    let wire = full_size_wire();
    for _ in 0..ECHO_FLIGHT {
        world.inject_frame(a, PortId(0), wire.clone());
    }
    run_events_ns(&mut world)
}

/// Best ns per event over passes of at least [`OPS`] events each.
fn run_events_ns(world: &mut World) -> f64 {
    let mut pass = |events: u64| -> f64 {
        let before = world.events_processed();
        let start = Instant::now();
        while world.events_processed() - before < events {
            world.run_for(SimDuration::from_millis(5));
        }
        start.elapsed().as_secs_f64() * 1e9 / (world.events_processed() - before) as f64
    };
    pass(OPS / 4);
    (0..PASSES).map(|_| pass(OPS)).fold(f64::INFINITY, f64::min)
}

fn world_kernels(seed: u64, out: &mut Counts) {
    let ideal = echo_world_ns(CpuModel::default(), false);
    let modeled = echo_world_ns(Profile::default().switch_cpu, false);
    let tapped = echo_world_ns(CpuModel::default(), true);
    out.push(("net.world.hop_ideal_ns", ideal));
    out.push(("net.world.hop_cpu_ns", modeled));
    out.push(("net.tap.per_event_ns", (tapped - ideal).max(0.0)));
    // One inband k = 3 cell between two hosts: the lattice's unit, fully
    // cache-hot.
    let mut cell = build_grid(1, 1, seed);
    out.push(("core.cell.hop_ns", run_events_ns(&mut cell.world)));
}

fn region_kernel() -> f64 {
    // Four regions in a ring with staggered cut latencies, the shape
    // `RegionMap::partition` gives the lattice.
    const MAX: u64 = u64::MAX;
    let lookahead = vec![
        vec![MAX, 5_000, MAX, 7_000],
        vec![5_000, MAX, 6_000, MAX],
        vec![MAX, 6_000, MAX, 8_000],
        vec![7_000, MAX, 8_000, MAX],
    ];
    let mut earliest = [1_000u64, 40_000, 3_000, 90_000];
    per_op(|| {
        earliest[0] += 1;
        std::hint::black_box(safe_horizons(&earliest, &lookahead));
    })
}

/// A distinct, wildcard-free key for slot `i` of a lookup table.
fn table_fields(i: usize) -> PacketFields {
    PacketFields {
        in_port: (i % 48) as u16,
        dl_src: MacAddr::local((i % 251) as u32 + 1),
        dl_dst: MacAddr::local((i % 127) as u32 + 1),
        dl_type: 0x0800,
        nw_proto: 17,
        nw_src: Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
        nw_dst: Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
        tp_src: 10_000 + (i % 40_000) as u16,
        tp_dst: 5001,
        ..PacketFields::default()
    }
}

fn table_lookup_ns(entries: usize) -> f64 {
    let now = SimTime::ZERO;
    let mut table = FlowTable::new();
    for i in 0..entries {
        table.add(
            FlowEntry::new(
                100,
                FlowMatch::exact(&table_fields(i)),
                vec![Action::Output(OfPort::Physical((i % 4) as u16 + 1))],
            ),
            now,
        );
    }
    let keys: Vec<PacketFields> = (0..entries).map(table_fields).collect();
    let mut state = 0xD1B5_4A32u64;
    per_op(|| {
        let key = &keys[lcg(&mut state) as usize % entries];
        std::hint::black_box(table.lookup(key, now).is_some());
    })
}

fn wire_kernels(out: &mut Counts) {
    let msg = OfMessage::PacketIn {
        buffer_id: None,
        in_port: 1,
        reason: PacketInReason::NoMatch,
        data: full_size_wire(),
    };
    out.push((
        "openflow.wire.packet_in_encode_ns",
        per_op(|| {
            std::hint::black_box(wire::encode(&msg, 7));
        }),
    ));
    let encoded = wire::encode(&msg, 7);
    out.push((
        "openflow.wire.packet_in_decode_ns",
        per_op(|| {
            std::hint::black_box(wire::decode_shared(&encoded).expect("round trip"));
        }),
    ));
}

/// ns per copy observed by a k = 3 prevent compare. Frames arrive with
/// their fingerprint already memoized (the hub's copies share one memo),
/// so the frame layer's cost is not counted twice. 20 µs of simulated time
/// per packet puts one pool pass past the hold time: periodic sweeps
/// retire every entry before its frame comes round again.
fn compare_observe_ns(ports: &[u16]) -> f64 {
    let mut core = CompareCore::new(CompareConfig::prevent(3));
    core.attach_lane(
        0,
        LaneInfo {
            replica_ports: vec![1, 2, 3],
            host_port: 4,
        },
    );
    let frames: Vec<Frame> = (0..COMPARE_POOL)
        .map(|i| {
            // Source port and payload byte make every frame distinct.
            let payload = Bytes::from(vec![(i % 251) as u8; 1400]);
            let frame = Frame::new(udp_wire(10_000 + i as u16, payload));
            frame.fp128();
            frame
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut packet = 0usize;
    best_ns_per_op(|ops| {
        let mut observed = 0;
        while observed < ops {
            let frame = &frames[packet % COMPARE_POOL];
            for &port in ports {
                std::hint::black_box(core.observe(0, port, frame.clone(), now));
            }
            observed += ports.len() as u64;
            now += SimDuration::from_micros(20);
            packet += 1;
            if packet.is_multiple_of(256) {
                std::hint::black_box(core.sweep(now));
            }
        }
    })
}

fn pool_map_job_ns() -> f64 {
    let jobs: Vec<u64> = (0..10_000).collect();
    let pool = Pool::new(WORKERS);
    best_ns_per_op(|ops| {
        for _ in 0..ops.div_ceil(jobs.len() as u64) {
            std::hint::black_box(pool.map(&jobs, |&j| j.wrapping_mul(31)));
        }
    })
}

fn telemetry_kernels(out: &mut Counts) {
    let sink = TelemetrySink::enabled();
    let counter = sink.counter("bench.counter");
    out.push(("telemetry.counter_inc_ns", per_op(|| counter.inc())));
    let histogram = sink.histogram("bench.histogram");
    let mut v = 0u64;
    out.push((
        "telemetry.histogram_record_ns",
        per_op(|| {
            v = v.wrapping_add(977);
            histogram.record(v & 0xF_FFFF);
        }),
    ));
    // One packet's whole flight: hub ingress → replica egress → observe →
    // release, all under one key.
    let mut key = 0u128;
    out.push((
        "telemetry.lifecycle_packet_ns",
        per_op(|| {
            key += 1;
            let t = key as u64 * 100;
            sink.lifecycle_hub_ingress(key, t);
            sink.lifecycle_replica_egress(key, t + 10);
            sink.lifecycle_observe(key, t + 20);
            sink.lifecycle_release(key, t + 30);
        }),
    ));
}

/// Runs every kernel, one span per layer, and returns the K metrics.
pub fn run_all(seed: u64, spans: &mut Spans) -> Counts {
    let mut out = Counts::new();
    spans.span("kernel.sim.sched", |_| {
        out.push(("sim.sched.churn_ns", sched_churn_ns()));
        out.push(("sim.sched.tick_drain_ns", sched_tick_drain_ns()));
    });
    spans.span("kernel.net.frame", |_| frame_kernels(&mut out));
    spans.span("kernel.net.world", |_| world_kernels(seed, &mut out));
    spans.span("kernel.net.region", |_| {
        out.push(("net.region.safe_horizons_ns", region_kernel()));
    });
    spans.span("kernel.openflow", |_| {
        out.push(("openflow.table.lookup_16_ns", table_lookup_ns(16)));
        out.push(("openflow.table.lookup_4096_ns", table_lookup_ns(4096)));
        wire_kernels(&mut out);
    });
    spans.span("kernel.core.compare", |_| {
        out.push(("core.compare.observe_ns", compare_observe_ns(&[1, 2, 3])));
        out.push(("core.compare.observe_miss_ns", compare_observe_ns(&[1])));
    });
    spans.span("kernel.harness.pool", |_| {
        out.push(("harness.pool.map_job_ns", pool_map_job_ns()));
    });
    spans.span("kernel.telemetry", |_| telemetry_kernels(&mut out));
    out
}
