//! The link transmit queue, pinned: one congested world whose every
//! tail-drop decision and queue-depth sample is compared with a recording.
//!
//! A link direction has no event for "serialisation finished"; it works
//! out what has left the queue when the next frame is offered (DESIGN.md
//! §20). `prop_link_queue.rs` compares that with an event-driven model on
//! random schedules. This file compares it with the past: the numbers below
//! were recorded on commit 37c9f6d, the last one that had the event, and
//! are never re-recorded from a change to the link model.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use netco_harness::Pool;
use netco_net::testutil::{CollectorDevice, EchoDevice};
use netco_net::{
    fnv1a, CpuModel, Ctx, Device, DropReason, Frame, LinkId, LinkSpec, NodeId, PortId,
    TapDirection, World,
};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;

const NODES: usize = 6;
const PHASES: usize = 24;

/// How the 24 phases of 40 µs each are executed.
#[derive(Clone, Copy)]
enum Exec {
    Sequential,
    /// Odd phases on two workers and three regions, even ones
    /// sequentially: every hand-over moves the directions' in-flight
    /// frames into the shards or back.
    Alternating,
}

/// Everything the queue decides or reports, plus the order-sensitive tap
/// digest that any changed decision would disturb downstream.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    link_drops: Vec<[u64; 2]>,
    queue_full: u64,
    tx_dropped: u64,
    rx_frames: u64,
    /// `net.link_queue_bytes`: count, sum, min, max, p50, p90, p99.
    depth: [u64; 7],
    tap_digest: u64,
    tap_events: u64,
}

/// An echo ring on 1 Gbit/s links with 4,000-byte queues. Every phase
/// injects a same-instant burst that by itself overflows a queue, and
/// whatever survives keeps bouncing between two neighbours, so later
/// bursts meet directions that are already busy.
fn congested(exec: Exec) -> Observed {
    let mut w = World::new(13);
    w.set_telemetry(TelemetrySink::enabled());
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| w.add_node(format!("n{i}"), EchoDevice::default(), CpuModel::default()))
        .collect();
    let links: Vec<LinkId> = (0..NODES)
        .map(|i| {
            let spec = LinkSpec::new(1_000_000_000, SimDuration::from_micros(2 + i as u64 % 3))
                .with_queue_bytes(4000);
            w.connect(ids[i], 1.into(), ids[(i + 1) % NODES], 0.into(), spec)
        })
        .collect();
    let digest = Rc::new(RefCell::new((0u64, 0u64)));
    let sink = digest.clone();
    w.add_tap(move |e| {
        let mut d = sink.borrow_mut();
        let mut x =
            d.0.wrapping_add(e.at.as_nanos())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((e.node.index() as u64) << 32 | e.port.0 as u64)
                ^ (matches!(e.direction, TapDirection::Tx) as u64) << 63
                ^ fnv1a(e.frame);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        d.0 = x ^ (x >> 31);
        d.1 += 1;
    });
    let pool = Pool::new(2);
    for phase in 0..PHASES {
        let node = ids[phase * 5 % NODES];
        let port = (phase % 2) as u16;
        for copy in 0..6 {
            let len = 200 + 50 * phase + 10 * copy;
            let fill = (phase * 8 + copy) as u8;
            w.inject_frame(node, port.into(), Bytes::from(vec![fill; len]));
        }
        let until = w.now() + SimDuration::from_micros(40);
        match exec {
            Exec::Sequential => w.run_until(until),
            Exec::Alternating if phase % 2 == 1 => w.run_until_parallel(until, &pool, 3),
            Exec::Alternating => w.run_until(until),
        }
    }
    let totals: Vec<_> = ids.iter().map(|&n| w.counters(n).total()).collect();
    let h = w.telemetry().histogram("net.link_queue_bytes").snapshot();
    let (tap_digest, tap_events) = *digest.borrow();
    Observed {
        link_drops: links.iter().map(|&l| w.link_drops(l)).collect(),
        queue_full: w.substrate_drops(DropReason::LinkQueueFull),
        tx_dropped: totals.iter().map(|t| t.tx_dropped).sum(),
        rx_frames: totals.iter().map(|t| t.rx_frames).sum(),
        depth: [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99],
        tap_digest,
        tap_events,
    }
}

fn recorded() -> Observed {
    Observed {
        link_drops: vec![[0, 0], [19, 16], [0, 0], [19, 17], [0, 0], [16, 12]],
        queue_full: 99,
        tx_dropped: 99,
        rx_frames: 1759,
        depth: [1660, 4_635_170, 200, 3980, 3328, 3712, 3840],
        tap_digest: 16_761_819_064_114_714_451,
        tap_events: 3518,
    }
}

#[test]
fn pinned_congested_ring() {
    let seen = congested(Exec::Sequential);
    assert!(seen.queue_full > 0, "the world must tail-drop");
    assert_eq!(seen, recorded());
}

#[test]
fn pinned_congested_ring_across_region_handovers() {
    assert_eq!(congested(Exec::Alternating), recorded());
}

/// Sends one 64-byte frame out of port 0 after `hops` zero-delay timers
/// (that many extra stages of the start instant), and one more for every
/// frame it receives.
struct StagedSender {
    hops: u64,
}

impl Device for StagedSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_timer(SimDuration::ZERO, self.hops);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            0 => ctx.send_frame(0.into(), Bytes::from(vec![1u8; 64])),
            _ => ctx.schedule_timer(SimDuration::ZERO, token - 1),
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {
        ctx.send_frame(0.into(), Bytes::from(vec![2u8; 64]));
    }
}

/// A direction remembers the scheduler stage each in-flight frame was
/// enqueued in, and the region executor gives every shard a scheduler of
/// its own. A frame sent at instant 0 over a link without serialisation
/// delay is still "in flight" when the first run ends at 0; a second frame
/// sent at the same instant in the next run must find it gone, whichever
/// executor ran either half and however many stages the first half took —
/// the two schedulers' stage numbers must never be mistaken for each other.
#[test]
fn in_flight_frames_survive_executor_handovers_at_one_instant() {
    let pool = Pool::new(2);
    for hops in 0..8 {
        for (first_parallel, second_parallel) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let mut w = World::new(1);
            let a = w.add_node("a", StagedSender { hops }, CpuModel::default());
            let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
            let c = w.add_node("c", CollectorDevice::default(), CpuModel::default());
            let spec = LinkSpec {
                bandwidth_bps: None,
                latency: SimDuration::from_micros(1),
                queue_bytes: 100,
            };
            let ab = w.connect(a, 0.into(), b, 0.into(), spec.clone());
            w.connect(b, 1.into(), c, 0.into(), spec);
            let run = |w: &mut World, parallel: bool, until_ns: u64| {
                let until = SimTime::from_nanos(until_ns);
                if parallel {
                    w.run_until_parallel(until, &pool, 3);
                } else {
                    w.run_until(until);
                }
            };
            run(&mut w, first_parallel, 0);
            w.inject_frame(a, 1.into(), Bytes::from_static(b"go"));
            run(&mut w, second_parallel, 10_000);
            let case = format!("hops={hops} parallel=({first_parallel},{second_parallel})");
            assert_eq!(w.link_drops(ab), [0, 0], "{case}");
            let got = &w.device::<CollectorDevice>(b).expect("collector").frames;
            assert_eq!(got.len(), 2, "{case}");
        }
    }
}
