//! Behavioural tests of the trusted guard (`s1`/`s2`), including the §IX
//! sampling extension.

use bytes::Bytes;
use netco_core::{of_wrap, CompareAttachment, GuardConfig, GuardSwitch, COMPARE_LINK};
use netco_net::packet::builder;
use netco_net::testutil::CollectorDevice;
use netco_net::{CpuModel, Frame, LinkSpec, MacAddr, NodeId, PortId, World};
use netco_openflow::wire::{self, FrameMessage, SplitHead};
use netco_openflow::{Action, FlowMatch, FlowModCommand, OfMessage, OfPort, PacketInReason};
use netco_sim::SimDuration;
use std::net::Ipv4Addr;

fn data_frame(tag: u8) -> Bytes {
    builder::udp_frame(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1,
        2,
        Bytes::from(vec![tag; 32]),
        None,
    )
}

/// Reads a compare-link packet-in: the replica ingress port, the reason
/// and the copy it carries.
fn read_packet_in(frame: &Bytes) -> Option<(u16, PacketInReason, Bytes)> {
    let frame = Frame::new(frame.clone());
    match wire::read_frame(&COMPARE_LINK, &frame)? {
        (
            FrameMessage::Payload(
                SplitHead::PacketIn {
                    in_port, reason, ..
                },
                data,
            ),
            _,
        ) => Some((in_port, reason, data.into_bytes())),
        _ => None,
    }
}

/// host(collector) p0 ↔ guard p0; replicas r1..rk (collectors) on p1..pk;
/// compare stub (collector) on p(k+1).
struct Rig {
    world: World,
    guard: NodeId,
    host: NodeId,
    replicas: Vec<NodeId>,
    compare: NodeId,
    compare_port: PortId,
}

fn rig(k: u16, sample_probability: f64) -> Rig {
    let mut world = World::new(5);
    let host = world.add_node("host", CollectorDevice::default(), CpuModel::default());
    let compare = world.add_node("cmp", CollectorDevice::default(), CpuModel::default());
    let compare_port = PortId(k + 1);
    let guard = world.add_node(
        "guard",
        GuardSwitch::new(GuardConfig {
            host_port: PortId(0),
            replica_ports: (1..=k).map(PortId).collect(),
            compare: CompareAttachment::DataPort(compare_port),
            sampling: (sample_probability < 1.0).then_some(sample_probability),
        }),
        CpuModel::default(),
    );
    world.connect(host, PortId(0), guard, PortId(0), LinkSpec::ideal());
    world.connect(compare, PortId(0), guard, compare_port, LinkSpec::ideal());
    let mut replicas = Vec::new();
    for i in 1..=k {
        let r = world.add_node(
            format!("r{i}"),
            CollectorDevice::default(),
            CpuModel::default(),
        );
        world.connect(r, PortId(0), guard, PortId(i), LinkSpec::ideal());
        replicas.push(r);
    }
    Rig {
        world,
        guard,
        host,
        replicas,
        compare,
        compare_port,
    }
}

#[test]
fn hub_duplicates_host_traffic_to_every_replica() {
    let mut r = rig(3, 1.0);
    r.world.inject_frame(r.guard, PortId(0), data_frame(1));
    r.world.run_for(SimDuration::from_millis(1));
    for &rep in &r.replicas {
        assert_eq!(
            r.world.device::<CollectorDevice>(rep).unwrap().frames.len(),
            1
        );
    }
    assert_eq!(
        r.world
            .device::<GuardSwitch>(r.guard)
            .unwrap()
            .stats()
            .hubbed,
        3
    );
}

#[test]
fn replica_traffic_is_wrapped_as_packet_in() {
    let mut r = rig(3, 1.0);
    let frame = data_frame(2);
    r.world.inject_frame(r.guard, PortId(2), frame.clone());
    r.world.run_for(SimDuration::from_millis(1));
    let got = &r.world.device::<CollectorDevice>(r.compare).unwrap().frames;
    assert_eq!(got.len(), 1);
    let (in_port, reason, data) = read_packet_in(&got[0].1).expect("NetCo-framed packet-in");
    assert_eq!(in_port, 2, "replica ingress port travels with the copy");
    assert_eq!(reason, PacketInReason::NoMatch);
    assert_eq!(data, frame, "full frame, no truncation");
}

#[test]
fn packet_out_from_compare_is_executed() {
    let mut r = rig(3, 1.0);
    let frame = data_frame(3);
    let po = OfMessage::PacketOut {
        buffer_id: None,
        in_port: OfPort::None.to_u16(),
        actions: vec![Action::Output(OfPort::Physical(0))],
        data: frame.clone(),
    };
    r.world
        .inject_frame(r.guard, r.compare_port, of_wrap(&po, 1));
    r.world.run_for(SimDuration::from_millis(1));
    let got = &r.world.device::<CollectorDevice>(r.host).unwrap().frames;
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, frame);
    assert_eq!(
        r.world
            .device::<GuardSwitch>(r.guard)
            .unwrap()
            .stats()
            .released,
        1
    );
}

#[test]
fn empty_action_flow_mod_blocks_the_port() {
    let mut r = rig(3, 1.0);
    let block = OfMessage::FlowMod {
        command: FlowModCommand::Add,
        matcher: FlowMatch::any().with_in_port(2),
        priority: u16::MAX,
        idle_timeout_s: 0,
        hard_timeout_s: 1,
        cookie: 0,
        notify_when_removed: false,
        actions: vec![],
        buffer_id: None,
    };
    r.world
        .inject_frame(r.guard, r.compare_port, of_wrap(&block, 1));
    r.world.run_for(SimDuration::from_millis(1));
    // Traffic on port 2 is now dropped; port 1 still flows.
    r.world.inject_frame(r.guard, PortId(2), data_frame(4));
    r.world.inject_frame(r.guard, PortId(1), data_frame(4));
    r.world.run_for(SimDuration::from_millis(1));
    let to_compare = r
        .world
        .device::<CollectorDevice>(r.compare)
        .unwrap()
        .frames
        .len();
    assert_eq!(
        to_compare, 1,
        "only the unblocked port's copy reaches the compare"
    );
    let stats = r.world.device::<GuardSwitch>(r.guard).unwrap().stats();
    assert_eq!(stats.blocked_drops, 1);
    // The block expires with its hard timeout (1 s).
    r.world.run_for(SimDuration::from_secs(2));
    r.world.inject_frame(r.guard, PortId(2), data_frame(5));
    r.world.run_for(SimDuration::from_millis(1));
    assert_eq!(
        r.world
            .device::<CollectorDevice>(r.compare)
            .unwrap()
            .frames
            .len(),
        2,
        "port 2 must flow again after the block expires"
    );
}

#[test]
fn garbage_on_the_compare_link_is_ignored() {
    let mut r = rig(3, 1.0);
    r.world
        .inject_frame(r.guard, r.compare_port, Bytes::from_static(b"not openflow"));
    r.world.inject_frame(r.guard, r.compare_port, data_frame(1));
    r.world.run_for(SimDuration::from_millis(1));
    assert!(r
        .world
        .device::<CollectorDevice>(r.host)
        .unwrap()
        .frames
        .is_empty());
    assert_eq!(
        r.world
            .device::<GuardSwitch>(r.guard)
            .unwrap()
            .stats()
            .invalid_msgs,
        2
    );
}

// ---- §IX sampling extension ----

#[test]
fn sampling_passes_primary_copies_directly() {
    let mut r = rig(3, 0.25);
    for i in 0..40u8 {
        r.world.inject_frame(r.guard, PortId(1), data_frame(i)); // primary
    }
    r.world.run_for(SimDuration::from_millis(1));
    // Every primary copy reaches the host regardless of sampling.
    assert_eq!(
        r.world
            .device::<CollectorDevice>(r.host)
            .unwrap()
            .frames
            .len(),
        40
    );
    // Roughly a quarter is additionally sampled to the compare.
    let sampled = r
        .world
        .device::<CollectorDevice>(r.compare)
        .unwrap()
        .frames
        .len();
    assert!((3..=20).contains(&sampled), "sampled {sampled} of 40");
}

#[test]
fn sampling_is_consistent_across_replicas() {
    // The same packet must be sampled (or not) on every replica, or the
    // compare could never vote.
    let mut r = rig(3, 0.5);
    for i in 0..30u8 {
        for port in 1..=3u16 {
            r.world.inject_frame(r.guard, PortId(port), data_frame(i));
        }
    }
    r.world.run_for(SimDuration::from_millis(1));
    let got = &r.world.device::<CollectorDevice>(r.compare).unwrap().frames;
    // Group the sampled copies by packet payload tag.
    let mut counts = std::collections::HashMap::new();
    for (_, f) in got {
        let (_, _, data) = read_packet_in(f).unwrap();
        *counts.entry(data).or_insert(0u32) += 1;
    }
    assert!(!counts.is_empty(), "something must be sampled at p = 0.5");
    for (pkt, n) in counts {
        assert_eq!(
            n,
            3,
            "packet {:?} sampled on {} of 3 replicas",
            &pkt[..4],
            n
        );
    }
    // Non-primary copies that were not sampled are counted as skipped.
    let stats = r.world.device::<GuardSwitch>(r.guard).unwrap().stats();
    assert!(stats.sample_skipped > 0);
}

#[test]
fn link_header_constant_matches_wrapping() {
    let msg = OfMessage::Hello;
    let wire = of_wrap(&msg, 0);
    assert_eq!(wire[..COMPARE_LINK.len()], COMPARE_LINK);
    let eth = netco_net::packet::EthernetFrame::decode(&wire).unwrap();
    assert_eq!(eth.ethertype, netco_net::packet::EtherType::Other(0x88b5));
}
