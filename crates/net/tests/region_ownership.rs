//! The ownership rule of a region-parallel run, checked by continuing
//! from it: after a region-parallel phase the world must carry on exactly
//! as if that phase had run sequentially. Each piece of state a region
//! merges back (`Substrate::absorb`) — a node's RNG stream, CPU queue and
//! counters, a link direction's queue, drop counts, outage windows and
//! fault stream, a control channel's fault stream, the events left over
//! past the deadline — is read again by the sequential phase that
//! follows, so taking any of it from the wrong region shows up in what
//! that phase does.

use bytes::Bytes;
use netco_harness::Pool;
use netco_net::{
    ControlChannelSpec, CpuModel, Ctx, Device, DropReason, FaultKind, FaultPlan, Frame, LinkId,
    LinkSpec, NodeId, PortCounters, PortId, TapDigest, World,
};
use netco_sim::{ActivationWindow, SimDuration, SimTime};
use netco_telemetry::TelemetrySink;

/// A ring: whichever contiguous blocks the partition forms at 2, 3 or 4
/// regions, the link from the last node to the first is cut, and so is
/// every control channel (each joins a node to the one opposite it).
const NODES: usize = 8;
const PERIOD: SimDuration = SimDuration::from_micros(4);
/// End of the region-parallel phase; the sequential one runs to `END`.
const SPLIT: SimTime = SimTime::from_nanos(100_000);
const END: SimTime = SimTime::from_nanos(200_000);

/// Every `PERIOD`: a frame of random length (the node's stream) out of
/// both ring ports and a control message to `peer`. A frame it receives
/// travels on round the ring, 48 bytes shorter a hop, until it is spent;
/// a control message it receives goes out of port 1 as a frame, so what a
/// control fault did to it reaches the taps.
struct Chatter {
    peer: NodeId,
    sent: u8,
}

impl Device for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let stagger = 500 * ctx.node().index() as u64;
        ctx.schedule_timer(SimDuration::from_nanos(stagger), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.sent = self.sent.wrapping_add(1);
        let me = ctx.node().index() as u8;
        for port in [0u16, 1] {
            let len = 64 + ctx.rng().next_below(400) as usize;
            ctx.send_frame(port.into(), vec![me ^ self.sent; len]);
        }
        ctx.send_control(self.peer, Bytes::from(vec![me, self.sent, 0x5a, 0xa5]));
        ctx.schedule_timer(PERIOD, 0);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        if frame.len() > 112 {
            ctx.send_frame(PortId(1 - port.0), frame.slice(48..));
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Frame) {
        let mut bytes = msg.to_vec();
        bytes.resize(64, 0xc3);
        ctx.send_frame(1.into(), bytes);
    }
}

/// Everything a wrong owner could disturb, at one instant.
#[derive(Debug, PartialEq)]
struct Observed {
    clock: u64,
    events: u64,
    ports: Vec<PortCounters>,
    link_drops: Vec<[u64; 2]>,
    link_fault_drops: Vec<[u64; 2]>,
    link_enabled: Vec<bool>,
    drops: Vec<u64>,
    tap_digest: u64,
    taps: u64,
    /// The registry without `sim.sched.*`: splitting and merging
    /// re-schedule every pending event, which the scheduler counts.
    metrics: Vec<String>,
}

const REASONS: [DropReason; 6] = [
    DropReason::LinkQueueFull,
    DropReason::CpuQueueFull,
    DropReason::NoLink,
    DropReason::LinkDown,
    DropReason::NoControlChannel,
    DropReason::FaultInjected,
];

fn build() -> (World, Vec<LinkId>, TapDigest) {
    let mut w = World::new(29);
    w.set_telemetry(TelemetrySink::enabled());
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| {
            let peer = NodeId::from_index((i + NODES / 2) % NODES);
            // One node's CPU is slower than what reaches it and its queue
            // short: it tail-drops.
            let cpu = if i == 5 {
                CpuModel::per_packet(SimDuration::from_nanos(900)).with_queue_limit(3)
            } else {
                CpuModel::per_packet(SimDuration::from_nanos(200))
            };
            w.add_node(
                format!("n{i}"),
                Chatter { peer, sent: 0 },
                cpu.with_jitter(0.3),
            )
        })
        .collect();
    let links: Vec<LinkId> = (0..NODES)
        .map(|i| {
            let latency = SimDuration::from_micros(2 + i as u64 % 3);
            let spec = LinkSpec::new(1_000_000_000, latency).with_queue_bytes(1_000);
            w.connect(ids[i], 1.into(), ids[(i + 1) % NODES], 0.into(), spec)
        })
        .collect();
    let control = ControlChannelSpec {
        latency: SimDuration::from_micros(3),
    };
    for i in 0..NODES / 2 {
        w.connect_control(ids[i], ids[i + NODES / 2], control.clone());
    }
    let always = ActivationWindow::always();
    let mut plan = FaultPlan::new(41);
    for &link in &links {
        plan = plan
            .loss(link, 0.05, always)
            .corrupt(link, 0.05, always)
            .reorder(link, 0.1, SimDuration::from_nanos(1_500), always);
    }
    // Down from 10 µs before the split to 15 µs after it, and once more
    // later; an outage from 5 µs before the split to 30 µs after it
    // overlaps the first flap and keeps the link down past its end.
    let cut = links[NODES - 1];
    let first_down = SPLIT - SimDuration::from_micros(10);
    let (down_for, up_for) = (SimDuration::from_micros(25), SimDuration::from_micros(30));
    plan = plan.flaps(cut, first_down, down_for, up_for, 2).outage(
        cut,
        ActivationWindow::between(
            SPLIT - SimDuration::from_micros(5),
            SPLIT + SimDuration::from_micros(30),
        ),
    );
    for i in 0..NODES {
        let (from, to) = (ids[i], ids[(i + NODES / 2) % NODES]);
        plan = plan
            .control_fault(
                from,
                to,
                FaultKind::Loss {
                    probability: 0.2,
                    window: always,
                },
            )
            .control_fault(
                from,
                to,
                FaultKind::Corrupt {
                    probability: 0.3,
                    window: always,
                },
            )
            .control_fault(
                from,
                to,
                FaultKind::Reorder {
                    probability: 0.3,
                    hold: SimDuration::from_micros(2),
                    window: always,
                },
            );
    }
    w.apply_fault_plan(&plan);
    let digest = TapDigest::attach(&mut w);
    (w, links, digest)
}

fn observe(w: &World, links: &[LinkId], digest: &TapDigest) -> Observed {
    Observed {
        clock: w.now().as_nanos(),
        events: w.events_processed(),
        ports: (0..NODES)
            .flat_map(|n| [0, 1].map(|p| w.counters(NodeId::from_index(n)).port(PortId(p))))
            .collect(),
        link_drops: links.iter().map(|&l| w.link_drops(l)).collect(),
        link_fault_drops: links.iter().map(|&l| w.link_fault_drops(l)).collect(),
        link_enabled: links.iter().map(|&l| w.link_enabled(l)).collect(),
        drops: REASONS.iter().map(|&r| w.substrate_drops(r)).collect(),
        tap_digest: digest.value(),
        taps: digest.taps(),
        metrics: w
            .telemetry()
            .metrics_json()
            .lines()
            .filter(|line| !line.contains("\"sim.sched."))
            .map(str::to_string)
            .collect(),
    }
}

/// Runs to `SPLIT` (region-parallel when `parallel` names workers and
/// regions), then sequentially to `END`, observing at both.
fn run(parallel: Option<(usize, usize)>) -> [Observed; 2] {
    let (mut w, links, digest) = build();
    match parallel {
        Some((workers, regions)) => w.run_until_parallel(SPLIT, &Pool::new(workers), regions),
        None => w.run_until(SPLIT),
    }
    let split = observe(&w, &links, &digest);
    w.run_until(END);
    [split, observe(&w, &links, &digest)]
}

#[test]
fn a_region_parallel_phase_hands_every_piece_of_state_back_to_its_owner() {
    let oracle = run(None);
    let [split, end] = &oracle;
    // The world exercises what it is meant to.
    assert!(!split.link_enabled[NODES - 1], "the flap spans the split");
    for reason in [
        DropReason::LinkQueueFull,
        DropReason::CpuQueueFull,
        DropReason::LinkDown,
        DropReason::FaultInjected,
    ] {
        let i = REASONS.iter().position(|&r| r == reason).expect("listed");
        assert!(
            end.drops[i] > split.drops[i] && split.drops[i] > 0,
            "{reason:?} drops in both phases: {:?} then {:?}",
            split.drops,
            end.drops
        );
    }
    let cut = NODES - 1;
    for d in 0..2 {
        let (before, after) = (split.link_fault_drops[cut][d], end.link_fault_drops[cut][d]);
        assert!(
            after > before && before > 0,
            "loss on the cut link, direction {d}"
        );
    }
    for regions in [2, 3, 4] {
        for workers in [1, 2] {
            let seen = run(Some((workers, regions)));
            assert_eq!(
                seen[0], oracle[0],
                "at the split, regions={regions} workers={workers}"
            );
            assert_eq!(
                seen[1], oracle[1],
                "after the sequential phase, regions={regions} workers={workers}"
            );
        }
    }
}
