//! End-to-end proof of the zero-reparse packet path: in a k=3 combining
//! world the expensive frame derivations (the 128-bit compare fingerprint
//! and the header sniff) run **at most once per unique frame content**,
//! no matter how many hops, clones and replicas the frame crosses.
//!
//! The rig is the paper's Central-shaped combiner with the compare placed
//! inband (`CompareAttachment::Embedded`, §IX) so the replica copies reach
//! the voting core as in-world [`netco_net::Frame`]s — the memo survives
//! every hop. (The wire-encapsulated Central-3 deployment re-frames each
//! copy inside an OpenFlow `PacketIn`, which is genuinely new byte content
//! and therefore, by design, a fresh memo.)
//!
//! Memo counters are thread-local and each test runs on its own thread,
//! so the deltas observed here belong to this world alone.

use bytes::Bytes;
use netco_core::{CompareAttachment, CompareConfig, GuardConfig, GuardSwitch, Hub};
use netco_net::packet::builder;
use netco_net::testutil::CollectorDevice;
use netco_net::{memo_stats, CpuModel, LinkSpec, MacAddr, PortId, World};
use netco_openflow::{Action, FlowEntry, FlowMatch, OfPort, OfSwitch, SwitchConfig};
use netco_sim::SimDuration;
use std::net::Ipv4Addr;

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

/// host → hub → k OpenFlow replicas → guard (embedded compare) → sink.
///
/// hub p1..pk ↔ replica_i p0; replica_i p1 ↔ guard p1..pk; guard p0 ↔ sink.
fn build_world() -> (World, netco_net::NodeId, netco_net::NodeId) {
    let mut w = World::new(11);
    let hub = w.add_node("hub", Hub::new(), CpuModel::default());
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
        let mut replica = OfSwitch::new(SwitchConfig::with_datapath_id(i as u64));
        // The honest routing the controller installed: everything out p1.
        replica.preinstall(FlowEntry::new(
            1,
            FlowMatch::any(),
            vec![Action::Output(OfPort::Physical(1))],
        ));
        let r = w.add_node(format!("r{i}"), replica, CpuModel::default());
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
