//! Pacing order of [`FlowSet`], pinned across commits, and the retired
//! pacing heap kept as the reference model of the queue that replaced it.
//!
//! The unit tests in `flowset.rs` compare two runs of one build; the table
//! here compares every build with the recorded past, so a change to the
//! pacing queue that reorders even one same-instant pair fails by name.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use netco_net::{CpuModel, HostNic, LinkSpec, MacAddr, NeighborTable, PortId, World};
use netco_sim::{Scheduler, SimDuration, SimTime};
use netco_traffic::{FlowSet, FlowSetConfig, FlowSink, SizeDist};
use proptest::prelude::*;

const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// `(FlowSetStats::digest, completed, FlowSink::digest, events_processed)`.
type Pinned = (u64, u64, u64, u64);

/// Runs the two-node world and checks it against its row. `events_before`
/// is column 4 as it stood before PR 13 (see the note above the rows).
fn check(seed: u64, cfg: FlowSetConfig, run: SimDuration, want: Pinned, events_before: u64) {
    let (got, accepted) = run_pair(seed, cfg, run);
    assert_eq!(got, want);
    assert_eq!(
        events_before - got.3,
        accepted,
        "one event fewer per frame the link accepted, and nothing else"
    );
}

/// Runs the two-node world for `run`; returns the row's four columns and
/// the number of frames the sender's link accepted.
fn run_pair(seed: u64, cfg: FlowSetConfig, run: SimDuration) -> (Pinned, u64) {
    let table: NeighborTable = [(SRC_IP, MacAddr::local(1)), (DST_IP, MacAddr::local(2))]
        .into_iter()
        .collect();
    let mut na = HostNic::new(MacAddr::local(1), SRC_IP);
    na.neighbors = table.clone();
    let mut nb = HostNic::new(MacAddr::local(2), DST_IP);
    nb.neighbors = table;
    let mut w = World::new(seed);
    let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
    let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
    w.connect(
        src,
        PortId(0),
        dst,
        PortId(0),
        LinkSpec::new(400_000_000_000, SimDuration::from_micros(5)),
    );
    w.run_for(run);
    let stats = w.device::<FlowSet>(src).expect("flow source").stats();
    let sink = w.device::<FlowSink>(dst).expect("flow sink");
    let got = (
        stats.digest,
        stats.completed,
        sink.digest(),
        w.events_processed(),
    );
    // `ties`, `zero_spread` and `zero_gap` overrun the link's 512 KiB
    // queue, and a tail-dropped frame never had the event.
    let tx = w.counters(src).port(PortId(0));
    (got, tx.tx_frames - tx.tx_dropped)
}

fn prespawned(flows: usize, size: u64, payload: usize, spread: SimDuration) -> FlowSetConfig {
    FlowSetConfig::new(DST_IP)
        .with_initial_flows(flows)
        .with_arrival_rate(0.0)
        .with_size_dist(SizeDist::Fixed(size))
        .with_payload_len(payload)
        .with_start_spread(spread)
}

// Columns 1–3 of every row were recorded on commit 226854e, whose pacing
// queue was a `BinaryHeap<Reverse<(due, order, slot)>>`. A row that fails
// there means emission order changed; they are never re-recorded from a
// change.
//
// Column 4 counts scheduler events, and PR 13 changed what an event is:
// the end of a frame's serialisation stopped being one (the link direction
// accounts for its queue when the next frame is offered), so a hop costs
// two events, not three. The value recorded on 226854e is kept as the last
// argument of `check`, which holds the difference to the number of frames
// the sender's link accepted: column 4 was re-recorded for that reason and
// moved by exactly that much.

/// 50,000 first packets inside 10 µs: five per nanosecond on average, so
/// nearly every pop is decided by the spawn-order tiebreak.
#[test]
fn pinned_ties() {
    let cfg = prespawned(50_000, 3000, 1000, SimDuration::from_micros(10));
    check(
        7,
        cfg,
        SimDuration::from_millis(100),
        (0x3913324f53d360dd, 0xc350, 0x975d834acc45c208, 0x8bcb),
        0x9789,
    );
}

/// Poisson arrivals spawning into recycled slots while heavy-tailed
/// pre-spawned flows are still being paced.
#[test]
fn pinned_poisson_pareto() {
    let cfg = FlowSetConfig::new(DST_IP)
        .with_initial_flows(20_000)
        .with_arrival_rate(5000.0)
        .with_arrival_window(SimDuration::from_secs(1))
        .with_size_dist(SizeDist::Pareto {
            alpha: 1.2,
            min_bytes: 2000,
        })
        .with_payload_len(700)
        .with_flow_rate(20_000_000)
        .with_start_spread(SimDuration::from_millis(30));
    check(
        9,
        cfg,
        SimDuration::from_millis(1500),
        (0x505c9a922e9a289a, 0x6182, 0xd9cc0b1e8768f952, 0x10f531),
        0x169008,
    );
}

/// No stagger at all: every flow is due at the start instant, twice.
#[test]
fn pinned_zero_spread() {
    let cfg = prespawned(5_000, 2400, 1200, SimDuration::ZERO);
    check(
        3,
        cfg,
        SimDuration::from_millis(100),
        (0x27ae9bca9c61ce3e, 0x1388, 0xced7534c722c2444, 0x69d),
        0x9e9,
    );
}

/// A pacing gap of zero: every packet re-queues at the instant it was
/// sent, behind whatever else is due then, and the service loop yields.
#[test]
fn pinned_zero_gap() {
    let cfg = prespawned(3_000, 5000, 1000, SimDuration::from_micros(3))
        .with_arrival_rate(2000.0)
        .with_arrival_window(SimDuration::from_millis(50))
        .with_flow_rate(u64::MAX);
    check(
        5,
        cfg,
        SimDuration::from_millis(100),
        (0x86b1f25e4d096ac9, 0xc2b, 0xbd037630fc7b3f6a, 0x429b),
        0x4766,
    );
}

/// One packet a second over nine seconds: deadlines lie beyond the timing
/// wheel's 2³² ns (4.29 s) horizon when queued and come back through its
/// overflow.
#[test]
fn pinned_far_horizon() {
    let cfg = prespawned(30_000, 2000, 1000, SimDuration::from_secs(6)).with_flow_rate(8_000);
    check(
        6,
        cfg,
        SimDuration::from_millis(9000),
        (0x30f200dc0424293f, 0x7530, 0xf93063de1bb19448, 0x2bf23),
        0x3a983,
    );
}

/// The reference benchmark's `flowset_1m` world at a fifth of its size.
#[test]
fn pinned_bench_200k() {
    let cfg =
        prespawned(200_000, 2400, 1200, SimDuration::from_millis(800)).with_flow_rate(10_000_000);
    check(
        3,
        cfg,
        SimDuration::from_secs(2),
        (0xfaa69415ea00534d, 0x30d40, 0x90dbdd67c439d7c6, 0x124f0e),
        0x18698e,
    );
}

/// Pre-spawned first packets, re-queued packets and Poisson arrivals due
/// on the same nanoseconds: 2,000 starts inside 2 µs, a 1 µs pacing gap
/// that lands every second packet inside the start window, and arrivals
/// every 10 ns on average over the first 4 µs. Recorded on b59f74b, where
/// every pre-spawned flow sat in the pacing wheel from the start instant;
/// there is no pre-PR-13 column, so only the row itself is checked.
#[test]
fn pinned_start_collisions() {
    let cfg = prespawned(2_000, 3000, 1000, SimDuration::from_micros(2))
        .with_flow_rate(8_000_000_000)
        .with_arrival_rate(100_000_000.0)
        .with_arrival_window(SimDuration::from_micros(4));
    let (got, _) = run_pair(13, cfg, SimDuration::from_millis(1));
    assert_eq!(got, (0x593f598f84ab44e6, 0x954, 0x91d0501ebb7bcd08, 0x15e0));
}

/// The pacing queue `FlowSet` used up to commit 226854e, verbatim: a
/// min-heap on `(due, order, slot)` with `order` bumped once per push.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    order: u64,
}

impl HeapModel {
    fn push(&mut self, due: SimTime, slot: u32) {
        self.heap.push(Reverse((due, self.order, slot)));
        self.order += 1;
    }

    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
        let &Reverse((due, _, slot)) = self.heap.peek()?;
        (due <= now).then(|| {
            self.heap.pop();
            (due, slot)
        })
    }
}

/// `FlowSet`'s use of the wheel: pop only what is due by `now`.
fn wheel_pop_due(wheel: &mut Scheduler<u32>, now: SimTime) -> Option<(SimTime, u32)> {
    if wheel.peek_time()? > now {
        return None;
    }
    wheel.pop()
}

/// Replays one op sequence through `FlowSet`'s call pattern on both
/// queues. `kind` picks the op, `bits` its magnitude:
///
/// * push at `now + delta`, with deltas from "same nanosecond" to past the
///   wheel's 2³² ns horizon, masked coarsely so that many dues collide;
/// * advance `now` and drain everything due, re-pushing every other popped
///   slot — at `now` itself (the zero-gap path, which also ends the drain
///   as the service loop's `break` does) or at a later instant.
fn assert_wheel_matches_heap(ops: &[(u8, u64)]) {
    let mut wheel: Scheduler<u32> = Scheduler::new();
    let mut heap = HeapModel::default();
    let mut now = SimTime::ZERO;
    let mut next_slot = 0u32;
    for &(kind, bits) in ops {
        match kind {
            0..=4 => {
                let delta = match kind {
                    0 => 0,
                    1 => bits & 0x7,
                    2 => bits & 0xF00,
                    3 => bits & 0x3_FF00_0000,
                    _ => (1 << 32) + (bits & 0x7_0000_00FF),
                };
                let due = now + SimDuration::from_nanos(delta);
                wheel.schedule_at(due, next_slot);
                heap.push(due, next_slot);
                next_slot += 1;
            }
            _ => {
                let step = match kind {
                    5 => 0,
                    6 => bits & 0xF,
                    7 => bits & 0xFFF,
                    _ => bits & 0x1_FFFF_FFFF,
                };
                now += SimDuration::from_nanos(step);
                let mut requeue = false;
                loop {
                    let got = wheel_pop_due(&mut wheel, now);
                    assert_eq!(got, heap.pop_due(now));
                    let Some((_, slot)) = got else { break };
                    requeue = !requeue;
                    if !requeue {
                        continue;
                    }
                    let gap = if (bits >> 40) & 3 == 0 {
                        0
                    } else {
                        (bits >> 42) & 0xFFF
                    };
                    let due = now + SimDuration::from_nanos(gap);
                    wheel.schedule_at(due, slot);
                    heap.push(due, slot);
                    if gap == 0 {
                        break;
                    }
                }
            }
        }
        assert_eq!(wheel.peek_time(), heap.heap.peek().map(|e| e.0 .0));
        assert_eq!(wheel.pending(), heap.heap.len());
    }
    loop {
        let got = wheel_pop_due(&mut wheel, SimTime::MAX);
        assert_eq!(got, heap.pop_due(SimTime::MAX));
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn wheel_pacing_equals_the_retired_heap(
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..400)
    ) {
        assert_wheel_matches_heap(&ops);
    }
}
