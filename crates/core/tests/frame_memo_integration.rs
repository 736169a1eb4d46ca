//! End-to-end proof of the zero-reparse packet path: in a k=3 combining
//! world the expensive frame derivations (the 128-bit compare fingerprint
//! and the header sniff) run **at most once per unique frame content**,
//! no matter how many hops, clones and replicas the frame crosses.
//!
//! Three rigs, the same claim. The first is the paper's Central-shaped
//! combiner with the compare placed inband (`CompareAttachment::Embedded`,
//! §IX), so the replica copies reach the voting core as in-world
//! [`netco_net::Frame`]s and the memo survives every hop. The second is
//! the wire-encapsulated Central-3 deployment itself: each copy crosses
//! the compare link inside an OpenFlow `PacketIn`, the release comes back
//! inside a `PacketOut`, and the memo crosses with them
//! (`Frame::encapsulating`) — unless the link corrupts the wrapper, which
//! is new content and starts cold. The third is POX3 (§V): the same
//! packet-ins and packet-outs cross a control channel to a controller
//! app, with the same memo and the same cold start after corruption.
//!
//! Memo counters are thread-local and each test runs on its own thread,
//! so the deltas observed here belong to this world alone.

use bytes::Bytes;
use netco_controller::Controller;
use netco_core::{
    Compare, CompareAttachment, CompareConfig, CompareStats, GuardConfig, GuardSwitch, LaneInfo,
    PoxCompareApp,
};
use netco_net::packet::builder;
use netco_net::testutil::CollectorDevice;
use netco_net::{
    fp128, memo_stats, ControlChannelSpec, CpuModel, Ctx, Device, FaultKind, FaultPlan, Frame,
    LinkId, LinkSpec, MacAddr, NodeId, PortId, TapDirection, TapEvent, World,
};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort, OfSwitch};
use netco_sim::{mix64, ActivationWindow, SimDuration, SimTime};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const K: u16 = 3;

fn unique_frame(tag: u16) -> Bytes {
    builder::udp_frame(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        10_000 + tag,
        5001,
        Bytes::from(vec![(tag % 251) as u8; 64]),
        None,
    )
}

/// The host side of each rig: copies every frame to every other port,
/// clones sharing the frame's memo.
#[derive(Debug)]
struct Hub;

impl Device for Hub {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        for p in ctx.ports() {
            if p != port {
                ctx.send_frame(p, frame.clone());
            }
        }
    }
}

/// An OpenFlow switch with the honest routing the controller installed:
/// everything out p1.
fn forward_all(datapath_id: u64) -> OfSwitch {
    let mut switch = OfSwitch::new(datapath_id);
    switch.preinstall(FlowEntry::new(
        1,
        FlowMatch::any(),
        vec![Action::Output(OfPort::Physical(1))],
    ));
    switch
}

/// host → hub → k OpenFlow replicas → guard (embedded compare) → sink.
///
/// hub p1..pk ↔ replica_i p0; replica_i p1 ↔ guard p1..pk; guard p0 ↔ sink.
fn build_world() -> (World, netco_net::NodeId, netco_net::NodeId) {
    let mut w = World::new(11);
    let hub = w.add_node("hub", Hub, CpuModel::default());
    let sink = w.add_node("sink", CollectorDevice::default(), CpuModel::default());
    let guard = w.add_node(
        "guard",
        GuardSwitch::new(GuardConfig {
            host_port: PortId(0),
            replica_ports: (1..=K).map(PortId).collect(),
            compare: CompareAttachment::Embedded(CompareConfig::prevent(K as usize)),
            sampling: None,
        }),
        CpuModel::default(),
    );
    w.connect(guard, PortId(0), sink, PortId(0), LinkSpec::ideal());
    for i in 1..=K {
        let r = w.add_node(format!("r{i}"), forward_all(i as u64), CpuModel::default());
        w.connect(hub, PortId(i), r, PortId(0), LinkSpec::ideal());
        w.connect(r, PortId(1), guard, PortId(i), LinkSpec::ideal());
    }
    (w, hub, sink)
}

/// The acceptance property: after injecting N unique frames into the k=3
/// combining world, each memoized derivation missed exactly once per
/// unique content — the k replica parses share one sniff, and the k
/// compare observes share one fingerprint.
#[test]
fn memo_misses_equal_unique_frame_count() {
    let (mut w, hub, sink) = build_world();
    let before = memo_stats();
    const N: u64 = 25;
    for tag in 0..N {
        w.inject_frame(hub, PortId(0), unique_frame(tag as u16));
    }
    w.run_for(SimDuration::from_millis(10));
    let d = memo_stats().since(before);

    // Every frame reached the protected host exactly once (majority vote).
    assert_eq!(
        w.device::<CollectorDevice>(sink).unwrap().frames.len(),
        N as usize
    );
    // One header sniff per unique content: the first replica parses, the
    // other k-1 replicas hit the memo shared through the hub's clones.
    assert_eq!(d.parse_misses, N, "one parse per unique frame");
    assert_eq!(d.parse_hits, (K as u64 - 1) * N, "k-1 shared-memo parses");
    // One fingerprint per unique content: the compare keys the first
    // copy's arrival, the other k-1 observes (and the release) reuse it.
    assert_eq!(d.fp_misses, N, "one fingerprint per unique frame");
    assert!(
        d.fp_hits >= (K as u64 - 1) * N,
        "at least k-1 shared-memo fingerprints, got {}",
        d.fp_hits
    );
}

/// Re-injecting the *same* bytes is new content as far as the memo is
/// concerned (a fresh `Frame` is built at the injection boundary), so the
/// counters scale with injected frames, not with payload diversity —
/// there is no global content table, only per-frame share-on-clone state.
#[test]
fn reinjected_bytes_start_a_fresh_memo() {
    let (mut w, hub, _sink) = build_world();
    let before = memo_stats();
    let frame = unique_frame(7);
    for _ in 0..3 {
        w.inject_frame(hub, PortId(0), frame.clone());
    }
    w.run_for(SimDuration::from_millis(10));
    let d = memo_stats().since(before);
    assert_eq!(d.parse_misses, 3, "each injection re-parses once");
    assert_eq!(d.fp_misses, 3, "each injection re-fingerprints once");
}

/// The Central-3 deployment on the wire: host → hub → k OpenFlow replicas →
/// guard ⇄ compare server over a data link → edge switch → sink. Replica `i`'s link to
/// the guard is `i × 10 µs` long and the compare link 2 µs, so the copies
/// enter the compare link 10, 20 and 30 µs after injection and nothing
/// comes back within 2 µs of one. Returns the compare link and the guard
/// as well.
fn build_central_world() -> (World, [NodeId; 3], LinkId, NodeId) {
    let mut w = World::new(11);
    let hub = w.add_node("hub", Hub, CpuModel::default());
    let sink = w.add_node("sink", CollectorDevice::default(), CpuModel::default());
    let replica_ports: Vec<PortId> = (1..=K).map(PortId).collect();
    let compare_port = PortId(K + 1);
    let guard = w.add_node(
        "guard",
        GuardSwitch::new(GuardConfig::central(
            PortId(0),
            replica_ports.clone(),
            compare_port,
        )),
        CpuModel::default(),
    );
    let mut compare = Compare::new(
        CompareConfig::prevent(K as usize).with_hold_time(SimDuration::from_millis(5)),
    );
    compare.attach_guard(
        PortId(0),
        LaneInfo {
            replica_ports: replica_ports.iter().map(|p| p.number()).collect(),
            host_port: 0,
        },
    );
    let cmp = w.add_node("compare", compare, CpuModel::default());
    let edge = w.add_node("edge", forward_all(0), CpuModel::default());
    w.connect(guard, PortId(0), edge, PortId(0), LinkSpec::ideal());
    w.connect(edge, PortId(1), sink, PortId(0), LinkSpec::ideal());
    let two_us = LinkSpec {
        latency: SimDuration::from_micros(2),
        ..LinkSpec::ideal()
    };
    let compare_link = w.connect(guard, compare_port, cmp, PortId(0), two_us);
    for i in 1..=K {
        let r = w.add_node(format!("r{i}"), forward_all(i as u64), CpuModel::default());
        w.connect(hub, PortId(i), r, PortId(0), LinkSpec::ideal());
        let skewed = LinkSpec {
            latency: SimDuration::from_micros(10 * i as u64),
            ..LinkSpec::ideal()
        };
        w.connect(r, PortId(1), guard, PortId(i), skewed);
    }
    (w, [hub, sink, cmp], compare_link, guard)
}

/// Across the compare link and back the count is still one derivation per
/// unique frame — `N`, where re-framing every unwrapped copy made it `3 N`
/// fingerprints — and the released frame reaches the sink with the memo it
/// left the hub with.
#[test]
fn wire_encapsulated_central3_misses_once_per_unique_frame() {
    let (mut w, [hub, sink, cmp], _, _) = build_central_world();
    let before = memo_stats();
    const N: u64 = 25;
    for tag in 0..N {
        w.inject_frame(hub, PortId(0), unique_frame(tag as u16));
    }
    w.run_for(SimDuration::from_millis(10));
    let d = memo_stats().since(before);

    let delivered = &w.device::<CollectorDevice>(sink).unwrap().frames;
    assert_eq!(delivered.len(), N as usize);
    let stats = w.device::<Compare>(cmp).unwrap().stats();
    assert_eq!((stats.received, stats.released), (K as u64 * N, N));
    // The edge switch classifies each release from the parse the first
    // replica made: the memo came back inside the packet-out.
    assert_eq!(d.parse_misses, N, "one parse per unique frame");
    assert_eq!(d.parse_hits, K as u64 * N, "k-1 replicas and the edge");
    assert_eq!(d.fp_misses, N, "one fingerprint per unique frame, not k");
    assert!(d.fp_hits >= (K as u64 - 1) * N, "got {}", d.fp_hits);
    for (tag, (_, frame)) in delivered.iter().enumerate() {
        assert_eq!(frame, &unique_frame(tag as u16));
    }
}

/// A compare link that flips a bit in the second replica's copy: the
/// wrapper the compare receives is a new frame, so that copy is
/// fingerprinted afresh (it *is* other content), loses the vote to the two
/// clean copies that still share one fingerprint, and expires unreleased.
#[test]
fn corrupted_compare_link_copy_is_refingerprinted_and_outvoted() {
    let (mut w, [hub, sink, cmp], compare_link, _) = build_central_world();
    let second_copy =
        ActivationWindow::between(SimTime::from_nanos(19_000), SimTime::from_nanos(21_000));
    w.apply_fault_plan(&FaultPlan::new(CORRUPTING_SEED).corrupt(compare_link, 1.0, second_copy));
    let before = memo_stats();
    let sent = unique_frame(3);
    w.inject_frame(hub, PortId(0), sent.clone());
    w.run_for(SimDuration::from_millis(20));
    let d = memo_stats().since(before);

    let delivered = &w.device::<CollectorDevice>(sink).unwrap().frames;
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].1, sent, "the clean majority's bytes");
    let stats = w.device::<Compare>(cmp).unwrap().stats();
    assert_eq!(stats.received, 3, "the flipped bit is in the payload");
    assert_eq!(stats.released, 1);
    assert_eq!(stats.expired_unreleased, 1, "the corrupted singleton");
    assert_eq!(d.fp_misses, 2, "clean copies share one; the corrupted pays");
    assert_eq!(d.parse_misses, 1, "the release is a clean copy's content");
}

/// The POX3 deployment (§V): host → hub → k OpenFlow replicas → guard ⇄
/// control channel ⇄ controller running the compare app → edge switch →
/// sink, with the same skewed replica links as the Central-3 rig, so the
/// copies enter the 2 µs control channel 10, 20 and 30 µs after
/// injection. Returns the hub, the sink, the guard and the controller.
fn build_pox_world() -> (World, [NodeId; 4]) {
    let mut w = World::new(11);
    let hub = w.add_node("hub", Hub, CpuModel::default());
    let sink = w.add_node("sink", CollectorDevice::default(), CpuModel::default());
    let replica_ports: Vec<PortId> = (1..=K).map(PortId).collect();
    let cfg = CompareConfig::prevent(K as usize).with_hold_time(SimDuration::from_millis(5));
    let tick = cfg.sweep_interval();
    let mut app = PoxCompareApp::new(cfg);
    let ctl = NodeId::from_index(3);
    let guard_cfg = GuardConfig::controller(PortId(0), replica_ports.clone(), ctl);
    let guard = w.add_node("guard", GuardSwitch::new(guard_cfg), CpuModel::default());
    app.attach_guard(
        guard,
        LaneInfo {
            replica_ports: replica_ports.iter().map(|p| p.number()).collect(),
            host_port: 0,
        },
    );
    let mut controller = Controller::new(app).with_tick(tick);
    controller.manage(guard);
    assert_eq!(w.add_node("pox", controller, CpuModel::default()), ctl);
    let channel = ControlChannelSpec {
        latency: SimDuration::from_micros(2),
    };
    w.connect_control(guard, ctl, channel);
    let edge = w.add_node("edge", forward_all(0), CpuModel::default());
    w.connect(guard, PortId(0), edge, PortId(0), LinkSpec::ideal());
    w.connect(edge, PortId(1), sink, PortId(0), LinkSpec::ideal());
    for i in 1..=K {
        let r = w.add_node(format!("r{i}"), forward_all(i as u64), CpuModel::default());
        w.connect(hub, PortId(i), r, PortId(0), LinkSpec::ideal());
        let skewed = LinkSpec {
            latency: SimDuration::from_micros(10 * i as u64),
            ..LinkSpec::ideal()
        };
        w.connect(r, PortId(1), guard, PortId(i), skewed);
    }
    (w, [hub, sink, guard, ctl])
}

fn pox_stats(w: &World, ctl: NodeId) -> CompareStats {
    let controller = w.device::<Controller>(ctl).unwrap();
    controller.app::<PoxCompareApp>().unwrap().stats()
}

/// Across the control channel and back, POX3 derives once per unique
/// frame too: the controller app votes on the frame each packet-in
/// carries, and the packet-out carries the vote's winner back, memo
/// included — where decoding every packet-in into fresh bytes made it
/// `k N` fingerprints and a second parse at the edge.
#[test]
fn pox3_over_the_control_channel_misses_once_per_unique_frame() {
    let (mut w, [hub, sink, _, ctl]) = build_pox_world();
    let before = memo_stats();
    const N: u64 = 25;
    for tag in 0..N {
        w.inject_frame(hub, PortId(0), unique_frame(tag as u16));
    }
    w.run_for(SimDuration::from_millis(10));
    let d = memo_stats().since(before);

    let delivered = &w.device::<CollectorDevice>(sink).unwrap().frames;
    assert_eq!(delivered.len(), N as usize);
    let stats = pox_stats(&w, ctl);
    assert_eq!((stats.received, stats.released), (K as u64 * N, N));
    assert_eq!(d.fp_misses, N, "one fingerprint per unique frame, not k");
    assert_eq!(d.parse_misses, N, "one parse per unique frame");
    assert_eq!(d.parse_hits, K as u64 * N, "k-1 replicas and the edge");
    for (tag, (_, frame)) in delivered.iter().enumerate() {
        assert_eq!(frame, &unique_frame(tag as u16));
    }
}

/// A control channel that flips a bit in the second replica's packet-in:
/// the message the controller receives is contiguous new content, so it
/// is read from its bytes, its copy fingerprinted afresh, and it loses
/// the vote to the two clean copies, which still share one fingerprint.
#[test]
fn corrupted_control_channel_copy_is_refingerprinted_and_outvoted() {
    let (mut w, [hub, sink, guard, ctl]) = build_pox_world();
    let second_copy =
        ActivationWindow::between(SimTime::from_nanos(19_000), SimTime::from_nanos(21_000));
    let corrupt = FaultKind::Corrupt {
        probability: 1.0,
        window: second_copy,
    };
    w.apply_fault_plan(&FaultPlan::new(CORRUPTING_SEED).control_fault(guard, ctl, corrupt));
    let before = memo_stats();
    let sent = unique_frame(3);
    w.inject_frame(hub, PortId(0), sent.clone());
    w.run_for(SimDuration::from_millis(20));
    let d = memo_stats().since(before);

    let delivered = &w.device::<CollectorDevice>(sink).unwrap().frames;
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].1, sent, "the clean majority's bytes");
    let stats = pox_stats(&w, ctl);
    assert_eq!(stats.received, 3, "the flipped bit is in the payload");
    assert_eq!(stats.released, 1);
    assert_eq!(stats.expired_unreleased, 1, "the corrupted singleton");
    assert_eq!(d.fp_misses, 2, "clean copies share one; the corrupted pays");
    assert_eq!(d.parse_misses, 1, "the release is a clean copy's content");
}

/// Folds every frame tapped on either end of the guard ⇄ compare link —
/// time, node, direction and the full wire bytes — into one digest, with
/// the number of frames folded.
fn tap_compare_link(w: &mut World, guard: NodeId, cmp: NodeId) -> Rc<Cell<(u64, u64)>> {
    let acc = Rc::new(Cell::new((0u64, 0u64)));
    let tap_acc = Rc::clone(&acc);
    let compare_port = PortId(K + 1);
    w.add_tap(move |ev: &TapEvent<'_>| {
        let on_link = (ev.node == guard && ev.port == compare_port)
            || (ev.node == cmp && ev.port == PortId(0));
        if !on_link {
            return;
        }
        let (mut d, n) = tap_acc.get();
        d = mix64(d ^ ev.at.as_nanos());
        d = mix64(d ^ ev.node.index() as u64);
        d = mix64(d ^ matches!(ev.direction, TapDirection::Tx) as u64);
        d = mix64(d ^ ev.frame.len() as u64);
        let fp = fp128(ev.frame);
        d = mix64(d ^ (fp as u64) ^ mix64((fp >> 64) as u64));
        tap_acc.set((d, n + 1));
    });
    acc
}

/// The bytes that cross the compare link, pinned: every packet-in and
/// packet-out the guard and the compare exchange for 25 frames, as the
/// link's taps record them on both ends in both directions. The values
/// were recorded when each wrap copied the carried frame into one
/// contiguous buffer, so they hold any lazier encapsulation to the same
/// wire bytes.
#[test]
fn compare_link_wire_bytes_are_pinned() {
    let (mut w, [hub, sink, cmp], _, guard) = build_central_world();
    let acc = tap_compare_link(&mut w, guard, cmp);
    for tag in 0..25u16 {
        w.inject_frame(hub, PortId(0), unique_frame(tag));
    }
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(w.device::<CollectorDevice>(sink).unwrap().frames.len(), 25);
    // 75 packet-ins and 25 packet-outs, each tapped at Tx and at Rx.
    assert_eq!(acc.get(), (PINNED_LINK_DIGEST, 200));
}

/// The corrupting compare link's run, pinned the same way: the taps see
/// the flipped copy on the compare's side of the link, and the sink gets
/// the clean majority's bytes at a pinned instant.
#[test]
fn corrupted_compare_link_run_is_pinned() {
    let (mut w, [hub, sink, cmp], compare_link, guard) = build_central_world();
    let second_copy =
        ActivationWindow::between(SimTime::from_nanos(19_000), SimTime::from_nanos(21_000));
    w.apply_fault_plan(&FaultPlan::new(CORRUPTING_SEED).corrupt(compare_link, 1.0, second_copy));
    let acc = tap_compare_link(&mut w, guard, cmp);
    w.inject_frame(hub, PortId(0), unique_frame(3));
    w.run_for(SimDuration::from_millis(20));
    let delivered = &w.device::<CollectorDevice>(sink).unwrap().frames;
    let outcome: Vec<(u64, u128)> = delivered
        .iter()
        .map(|(at, f)| (at.as_nanos(), fp128(f)))
        .collect();
    let stats = w.device::<Compare>(cmp).unwrap().stats();
    assert_eq!(
        (
            outcome,
            stats.received,
            stats.released,
            stats.expired_unreleased
        ),
        (
            vec![(PINNED_CORRUPTED_RELEASE_NS, fp128(&unique_frame(3)))],
            3,
            1,
            1
        )
    );
    assert_eq!(acc.get(), (PINNED_CORRUPTED_DIGEST, 8));
}

const PINNED_LINK_DIGEST: u64 = 1_060_690_043_514_383_934;
const PINNED_CORRUPTED_RELEASE_NS: u64 = 34_000;
const PINNED_CORRUPTED_DIGEST: u64 = 17_782_331_839_086_798_908;

/// A fault-plan seed whose one flip lands in the carried frame rather than
/// in the OpenFlow header around it (asserted by `received == 3` and by
/// the corrupted copy expiring unreleased).
const CORRUPTING_SEED: u64 = 2;
