//! Criterion micro-benchmarks of the hot paths: the event scheduler, the
//! `FlowSet` pacing queue, the compare's voting core, flow-table lookup,
//! packet codecs and the OpenFlow wire codec.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netco_core::{CompareConfig, CompareCore, CompareStrategy, LaneInfo};
use netco_net::packet::{builder, EthernetFrame, FrameView};
use netco_net::MacAddr;
use netco_openflow::{
    wire, Action, FlowEntry, FlowMatch, FlowTable, OfMessage, OfPort, PacketFields,
};
use netco_sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn test_frame(tag: u8) -> Bytes {
    builder::udp_frame(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        5000,
        5001,
        Bytes::from(vec![tag; 1400]),
        None,
    )
}

/// One step of the deterministic LCG the queue benches draw delays from.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// Delay pattern spanning every timing-wheel level plus the far-future
/// heap, driven by a deterministic LCG.
fn churn_delay(state: &mut u64) -> SimDuration {
    let x = lcg(state);
    let nanos = match x & 0xF {
        0..=9 => x >> 4 & 0xF_FFFF,
        10..=14 => x >> 4 & 0x3F_FFFF,
        _ => (x >> 4 & 0xFFF) + 5_000_000_000,
    };
    SimDuration::from_nanos(nanos)
}

fn bench_scheduler(c: &mut Criterion) {
    // Steady-state churn: pop one event, schedule one, with 4096 in
    // flight — the wheel vs. the retired binary-heap implementation.
    const FLIGHT: u64 = 4_096;
    c.bench_function("scheduler_churn_wheel_4096", |b| {
        let mut s = netco_sim::Scheduler::new();
        let mut state = 0x9E37_79B9u64;
        for i in 0..FLIGHT {
            s.schedule_after(churn_delay(&mut state), i);
        }
        b.iter(|| {
            let (_, ev) = s.pop().expect("flight never drains");
            s.schedule_after(churn_delay(&mut state), ev);
            std::hint::black_box(ev)
        })
    });
    c.bench_function("scheduler_churn_heap_4096", |b| {
        let mut s = netco_sim::baseline::HeapScheduler::new();
        let mut state = 0x9E37_79B9u64;
        for i in 0..FLIGHT {
            s.schedule_after(churn_delay(&mut state), i);
        }
        b.iter(|| {
            let (_, ev) = s.pop().expect("flight never drains");
            s.schedule_after(churn_delay(&mut state), ev);
            std::hint::black_box(ev)
        })
    });
}

fn bench_flowset_pacing(c: &mut Criterion) {
    // `FlowSet`'s pacing queue under the deadline mix of the reference
    // benchmark's `flowset_1m`: first packets uniform over 800 ms, the
    // second one 960 µs after the first, two packets per flow. Held at
    // steady state — a flow that sent its second packet is replaced by a
    // fresh one — so one iteration is one packet's queue work: peek, pop,
    // re-queue. The wheel is what `FlowSet` embeds; the heap is what it
    // embedded up to PR 11, kept here to size the difference per packet.
    const SPREAD_NS: u64 = 800_000_000;
    const GAP_NS: u64 = 960_000;
    /// Payload bit telling a flow's second packet from its first.
    const SECOND: u32 = 1 << 31;
    fn next_due(now: SimTime, tag: u32, state: &mut u64) -> SimTime {
        let delay = if tag & SECOND == 0 {
            GAP_NS
        } else {
            lcg(state) % SPREAD_NS
        };
        now + SimDuration::from_nanos(delay)
    }
    for (name, flows) in [("1k", 1_000u32), ("100k", 100_000), ("1m", 1_000_000)] {
        c.bench_function(&format!("flowset_pacing_{name}"), |b| {
            let mut wheel: netco_sim::Scheduler<u32> = netco_sim::Scheduler::new();
            let mut state = 0x9E37_79B9u64;
            for slot in 0..flows {
                wheel.schedule_at(SimTime::from_nanos(lcg(&mut state) % SPREAD_NS), slot);
            }
            b.iter(|| {
                let now = wheel.peek_time().expect("flight never drains");
                let (_, tag) = wheel.pop().expect("peeked");
                wheel.schedule_at(next_due(now, tag, &mut state), tag ^ SECOND);
                tag
            })
        });
        c.bench_function(&format!("flowset_pacing_heap_{name}"), |b| {
            use std::cmp::Reverse;
            let mut heap = std::collections::BinaryHeap::new();
            let mut order = 0u64;
            let mut state = 0x9E37_79B9u64;
            for slot in 0..flows {
                let due = SimTime::from_nanos(lcg(&mut state) % SPREAD_NS);
                heap.push(Reverse((due, order, slot)));
                order += 1;
            }
            b.iter(|| {
                let &Reverse((now, _, _)) = heap.peek().expect("flight never drains");
                let Reverse((_, _, tag)) = heap.pop().expect("peeked");
                let due = next_due(now, tag, &mut state);
                heap.push(Reverse((due, order, tag ^ SECOND)));
                order += 1;
                tag
            })
        });
    }
}

fn compare_observe_core(strategy: CompareStrategy) -> CompareCore {
    let mut core = CompareCore::new(CompareConfig::prevent(3).with_strategy(strategy));
    core.attach_lane(
        0,
        LaneInfo {
            replica_ports: vec![1, 2, 3],
            host_port: 4,
        },
    );
    core
}

fn bench_compare_observe(c: &mut Criterion) {
    // Full-frame keying, fingerprint vs. byte-exact: `FullPacket` now keys
    // by a 128-bit fingerprint; `HeaderOnly { prefix: MAX }` still clones
    // the whole frame into the key, which is what `FullPacket` did before.
    let cases = [
        ("compare_observe_fingerprint", CompareStrategy::FullPacket),
        (
            "compare_observe_byte_exact",
            CompareStrategy::HeaderOnly { prefix: usize::MAX },
        ),
    ];
    for (name, strategy) in cases {
        c.bench_function(name, |b| {
            b.iter_batched(
                || compare_observe_core(strategy),
                |mut core| {
                    for i in 0..64u8 {
                        let f = test_frame(i);
                        core.observe(0, 1, f.clone(), SimTime::ZERO);
                        core.observe(0, 2, f.clone(), SimTime::ZERO);
                        core.observe(0, 3, f, SimTime::ZERO);
                    }
                    core.stats()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_compare(c: &mut Criterion) {
    c.bench_function("compare_majority_3way_64pkts", |b| {
        b.iter_batched(
            || {
                let mut core = CompareCore::new(CompareConfig::prevent(3));
                core.attach_lane(
                    0,
                    LaneInfo {
                        replica_ports: vec![1, 2, 3],
                        host_port: 4,
                    },
                );
                core
            },
            |mut core| {
                for i in 0..64u8 {
                    let f = test_frame(i);
                    core.observe(0, 1, f.clone(), SimTime::ZERO);
                    core.observe(0, 2, f.clone(), SimTime::ZERO);
                    core.observe(0, 3, f, SimTime::ZERO);
                }
                core.stats()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_flow_table(c: &mut Criterion) {
    let mut table = FlowTable::new();
    for i in 0..256u32 {
        table.add(
            FlowEntry::new(
                100,
                FlowMatch::any().with_dl_dst(MacAddr::local(i)),
                vec![Action::Output(OfPort::Physical(1))],
            ),
            SimTime::ZERO,
        );
    }
    let frame = test_frame(0);
    let miss_fields = PacketFields::sniff(&frame, 1);
    let hit_fields = PacketFields {
        dl_dst: MacAddr::local(128),
        ..PacketFields::sniff(&frame, 1)
    };
    c.bench_function("flow_table_lookup_miss_256", |b| {
        b.iter_batched(
            || table.clone(),
            |mut t| t.lookup(&miss_fields, SimTime::ZERO).is_some(),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("flow_table_lookup_hit_256", |b| {
        b.iter_batched(
            || table.clone(),
            |mut t| t.lookup(&hit_fields, SimTime::ZERO).is_some(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_codecs(c: &mut Criterion) {
    let frame = test_frame(7);
    c.bench_function("ethernet_ipv4_udp_parse", |b| {
        b.iter(|| {
            let view = FrameView::parse(std::hint::black_box(&frame)).unwrap();
            std::hint::black_box(view.l4().unwrap())
        })
    });
    let eth = EthernetFrame::decode(&frame).unwrap();
    c.bench_function("ethernet_encode", |b| {
        b.iter(|| std::hint::black_box(eth.encode()))
    });
}

fn bench_openflow_wire(c: &mut Criterion) {
    let msg = OfMessage::FlowMod {
        command: netco_openflow::FlowModCommand::Add,
        matcher: FlowMatch::any()
            .with_dl_dst(MacAddr::local(3))
            .with_dl_type(0x0800)
            .with_nw_dst(Ipv4Addr::new(10, 0, 0, 9)),
        priority: 100,
        idle_timeout_s: 30,
        hard_timeout_s: 0,
        cookie: 7,
        notify_when_removed: true,
        actions: vec![Action::SetVlanVid(9), Action::Output(OfPort::Physical(2))],
        buffer_id: None,
    };
    c.bench_function("openflow_flowmod_encode", |b| {
        b.iter(|| std::hint::black_box(wire::encode(&msg, 1)))
    });
    let bytes = wire::encode(&msg, 1);
    c.bench_function("openflow_flowmod_decode", |b| {
        b.iter(|| std::hint::black_box(wire::decode(&bytes).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_flowset_pacing,
    bench_compare_observe,
    bench_compare,
    bench_flow_table,
    bench_codecs,
    bench_openflow_wire
);
criterion_main!(benches);
