//! Framing OpenFlow messages onto point-to-point compare links.
//!
//! The paper's prototype attaches the compare host to the data plane and
//! speaks packet-in/packet-out with the guards ("the compare is connected
//! to the data plane akin of an OpenFlow controller", §IV). We reproduce
//! that literally: guards put OpenFlow 1.0 messages behind an Ethernet
//! header with a dedicated EtherType, [`COMPARE_LINK`], and send them down
//! the compare link.
//!
//! That header is the link prefix `netco_openflow::wire`'s frame wraps
//! and reader take; on a control channel (§V's POX placement) the prefix
//! is empty, and everything else is the same. Every replica copy crosses
//! in a packet-in and every release in a packet-out, written by
//! `wire::packet_in_frame` / `wire::packet_out_frame` in front of the
//! carried frame, which is shared, memo included, not copied;
//! `wire::read_frame` hands it back. Only the compare's port-block advice
//! carries no frame: [`of_wrap`] writes it as one contiguous buffer.

use bytes::Bytes;
use netco_net::packet::ETHERNET_HEADER_LEN;
use netco_openflow::{wire, FlowMatch, FlowModCommand, OfMessage};
use netco_sim::SimDuration;

/// The experimental EtherType used for OpenFlow-over-Ethernet framing
/// (`0x88B5`, IEEE 802 local experimental 1).
const NETCO_ETHERTYPE: u16 = 0x88b5;

/// The compare link's Ethernet header — zero addresses, NetCo's
/// EtherType — in front of every OpenFlow message on the link.
pub const COMPARE_LINK: [u8; ETHERNET_HEADER_LEN] = {
    let mut header = [0; ETHERNET_HEADER_LEN];
    let ethertype = NETCO_ETHERTYPE.to_be_bytes();
    header[ETHERNET_HEADER_LEN - 2] = ethertype[0];
    header[ETHERNET_HEADER_LEN - 1] = ethertype[1];
    header
};

/// Wraps an OpenFlow message into one contiguous compare-link frame: the
/// compare's block advice, and any message a test builds.
pub fn of_wrap(msg: &OfMessage, xid: u32) -> Bytes {
    Bytes::from([&COMPARE_LINK[..], &wire::encode(msg, xid)].concat())
}

/// The port-block advice a compare sends its guard (paper §IV case 2): a
/// top-priority rule on `port` with an empty action list — "drop" — that
/// times out after `duration`, in whole seconds and at least one.
pub(crate) fn block_advice(port: u16, duration: SimDuration) -> OfMessage {
    OfMessage::FlowMod {
        command: FlowModCommand::Add,
        matcher: FlowMatch::any().with_in_port(port),
        priority: u16::MAX,
        idle_timeout_s: 0,
        hard_timeout_s: (duration.as_millis() / 1000).max(1) as u16,
        cookie: 0,
        notify_when_removed: false,
        actions: vec![],
        buffer_id: None,
    }
}

/// What a guard or a compare reads from the compare-link frame `bytes`,
/// as one whole message.
#[cfg(test)]
pub(crate) fn of_unwrap(bytes: &Bytes) -> Option<(OfMessage, u32)> {
    use netco_openflow::wire::FrameMessage;
    let frame = netco_net::Frame::new(bytes.clone());
    let (msg, xid) = wire::read_frame(&COMPARE_LINK, &frame)?;
    let msg = match msg {
        FrameMessage::Payload(head, data) => head.with_data(data.into_bytes()),
        FrameMessage::Other(msg) => msg,
    };
    Some((msg, xid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::packet::{EtherType, EthernetFrame};
    use netco_net::{Frame, MacAddr};
    use netco_openflow::wire::FrameMessage;
    use netco_openflow::{Action, OfPort, PacketInReason};

    #[test]
    fn round_trip() {
        let msg = OfMessage::PacketIn {
            buffer_id: None,
            in_port: 2,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"inner frame"),
        };
        let (back, xid) = of_unwrap(&of_wrap(&msg, 9)).unwrap();
        assert_eq!(back, msg);
        assert_eq!(xid, 9);
    }

    #[test]
    fn the_link_header_carries_the_netco_ethertype() {
        let eth = EthernetFrame::decode(&of_wrap(&OfMessage::Hello, 0)).unwrap();
        assert_eq!(eth.ethertype, EtherType::Other(0x88b5));
        assert_eq!((eth.src, eth.dst), (MacAddr::ZERO, MacAddr::ZERO));
    }

    #[test]
    fn rejects_foreign_frames() {
        // A normal IPv4 frame is not NetCo-framed OpenFlow.
        let ip_frame = netco_net::packet::builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Bytes::from_static(b"x"),
            None,
        );
        assert!(of_unwrap(&ip_frame).is_none());
        assert!(of_unwrap(&Bytes::from_static(b"garbage")).is_none());
    }

    proptest::proptest! {
        #[test]
        fn reading_never_panics_on_garbage(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let _ = of_unwrap(&Bytes::from(bytes));
        }
    }

    /// Every compare-link frame the guard and compare send, cut at every
    /// length and with its OpenFlow header length rewritten to every value
    /// in `0..=len + 8`: `Some` or `None`, never a panic.
    #[test]
    fn reading_survives_cuts_and_length_lies() {
        let data = Bytes::from_static(b"a replicated data frame");
        for msg in [
            OfMessage::PacketIn {
                buffer_id: None,
                in_port: 2,
                reason: PacketInReason::NoMatch,
                data: data.clone(),
            },
            OfMessage::packet_out(data, OfPort::Physical(4)),
            block_advice(3, SimDuration::from_secs(1)),
        ] {
            let wrapped = of_wrap(&msg, 9);
            for cut in 0..=wrapped.len() {
                let _ = of_unwrap(&wrapped.slice(..cut));
            }
            let at = ETHERNET_HEADER_LEN + 2;
            for claimed in 0..=wrapped.len() + 8 {
                let mut lie = wrapped.to_vec();
                lie[at..at + 2].copy_from_slice(&(claimed as u16).to_be_bytes());
                let _ = of_unwrap(&Bytes::from(lie));
            }
            assert_eq!(of_unwrap(&wrapped), Some((msg, 9)));
        }
    }

    /// The frame-level wraps behind the compare link's header are the
    /// contiguous bytes, read back to the same message, and hand back the
    /// carried frame itself; the same bytes, contiguous, carry a slice of
    /// themselves instead.
    #[test]
    fn frame_wraps_match_the_contiguous_wire_format() {
        let data = Frame::from(b"a replicated data frame" as &'static [u8]);
        let fp = data.fp128();
        let link = &COMPARE_LINK[..];
        let output = [Action::Output(OfPort::Physical(4))];
        let cases = [
            (
                wire::packet_in_frame(link, 9, None, 2, PacketInReason::NoMatch, &data),
                OfMessage::PacketIn {
                    buffer_id: None,
                    in_port: 2,
                    reason: PacketInReason::NoMatch,
                    data: data.bytes().clone(),
                },
            ),
            (
                wire::packet_out_frame(link, 9, None, OfPort::None.to_u16(), &output, &data),
                OfMessage::packet_out(data.bytes().clone(), OfPort::Physical(4)),
            ),
        ];
        for (frame, msg) in cases {
            let Some((FrameMessage::Payload(_, carried), 9)) = wire::read_frame(link, &frame)
            else {
                panic!("a canonical split");
            };
            assert_eq!(carried.bytes().as_ptr(), data.bytes().as_ptr());
            assert_eq!(carried.fp128(), fp);
            assert_eq!(frame.bytes(), &of_wrap(&msg, 9));
            assert_eq!(of_unwrap(frame.bytes()), Some((msg, 9)));
            let contiguous = Frame::new(frame.bytes().clone());
            let Some((FrameMessage::Payload(_, sliced), 9)) = wire::read_frame(link, &contiguous)
            else {
                panic!("the contiguous bytes read as the same message");
            };
            assert_eq!(sliced, data);
            assert!(sliced.encapsulated().is_none());
            // Behind another prefix the wrap is not a message.
            assert!(wire::read_frame(&[], &frame).is_none());
        }
    }

    #[test]
    fn packet_out_round_trip() {
        let msg = OfMessage::packet_out(Bytes::from_static(b"released"), OfPort::Physical(4));
        let (back, _) = of_unwrap(&of_wrap(&msg, 0)).unwrap();
        assert_eq!(back, msg);
    }

    /// The FNV-1a of the wire bytes of every OpenFlow message some world
    /// sends: the handshake, the three features replies (a switch's, a
    /// guard's, a control voter's), the compare's block advice, a voted
    /// flow-mod and packet-out in canonical form, flow statistics, and the
    /// packet-in / packet-out wraps on both links.
    #[test]
    fn wire_bytes_of_every_message_a_world_sends_are_pinned() {
        use netco_openflow::canonical::{canonicalize, Canonical};
        use netco_openflow::{FlowStats, PortDesc};
        let data = Frame::from(netco_net::packet::builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Bytes::from_static(b"a replicated data frame"),
            None,
        ));
        let features = |n_buffers, n_tables, ports: Vec<PortDesc>| OfMessage::FeaturesReply {
            datapath_id: 5,
            n_buffers,
            n_tables,
            ports,
        };
        let switch_ports = (1..=3)
            .map(|p: u16| PortDesc {
                port_no: p,
                hw_addr: MacAddr::local(0xff00_0000 | (5 << 8) | p as u32),
                name: format!("eth{p}"),
            })
            .collect();
        let guard_ports = (0..4)
            .map(|p: u16| PortDesc {
                port_no: p,
                hw_addr: MacAddr::ZERO,
                name: format!("g{p}"),
            })
            .collect();
        let voted = |frame: &Frame| match canonicalize(frame) {
            Canonical::Votable(canon) => canon.bytes().clone(),
            other => panic!("votable expected, got {other:?}"),
        };
        let controller_flow_mod = OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: FlowMatch::any().with_dl_dst(MacAddr::local(2)),
            priority: 100,
            idle_timeout_s: 10,
            hard_timeout_s: 0,
            cookie: 0,
            notify_when_removed: false,
            actions: vec![Action::Output(OfPort::Physical(2))],
            buffer_id: Some(7),
        };
        let output = [Action::Output(OfPort::Physical(2))];
        let stats = |priority, packets| FlowStats {
            matcher: FlowMatch::any().with_dl_dst(MacAddr::local(priority as u32)),
            priority,
            cookie: 0,
            packet_count: packets,
            byte_count: packets * 98,
            actions: output.to_vec(),
        };
        let in_reason = PacketInReason::NoMatch;
        let none = OfPort::None.to_u16();
        let rewrite = [
            Action::SetVlanVid(7),
            Action::StripVlan,
            Action::Output(OfPort::Physical(3)),
        ];
        let messages: [(&str, Bytes); 17] = [
            ("hello", wire::encode(&OfMessage::Hello, 1)),
            (
                "features-request",
                wire::encode(&OfMessage::FeaturesRequest, 2),
            ),
            (
                "switch features",
                wire::encode(&features(256, 1, switch_ports), 2),
            ),
            (
                "guard features",
                wire::encode(&features(0, 0, guard_ports), 2),
            ),
            ("voter features", wire::encode(&features(0, 1, vec![]), 2)),
            (
                "block advice",
                of_wrap(&block_advice(3, SimDuration::from_secs(1)), 4),
            ),
            (
                "voted flow-mod",
                voted(&Frame::new(wire::encode(&controller_flow_mod, 9))),
            ),
            (
                "voted packet-out",
                voted(&wire::packet_out_frame(&[], 9, Some(3), 1, &output, &data)),
            ),
            (
                "flow-stats request",
                wire::encode(
                    &OfMessage::FlowStatsRequest {
                        matcher: FlowMatch::any(),
                    },
                    6,
                ),
            ),
            (
                "flow-stats reply",
                wire::encode(
                    &OfMessage::FlowStatsReply {
                        flows: vec![stats(10, 3), stats(20, 0)],
                    },
                    6,
                ),
            ),
            (
                "packet-in, compare link",
                wire::packet_in_frame(&COMPARE_LINK, 3, None, 2, in_reason, &data).into_bytes(),
            ),
            (
                "packet-in, control channel",
                wire::packet_in_frame(&[], 3, Some(1), 2, in_reason, &data).into_bytes(),
            ),
            (
                "packet-out, compare link",
                wire::packet_out_frame(&COMPARE_LINK, 8, None, none, &output, &data).into_bytes(),
            ),
            (
                "packet-out, control channel",
                wire::packet_out_frame(&[], 8, None, 1, &output, &data).into_bytes(),
            ),
            (
                "buffered packet-out",
                wire::packet_out_frame(&[], 8, Some(4), 1, &output, &Frame::from(Bytes::new()))
                    .into_bytes(),
            ),
            (
                "rewriting packet-out",
                wire::packet_out_frame(&[], 8, None, 1, &rewrite, &data).into_bytes(),
            ),
            (
                "flow-mod, control channel",
                wire::encode(&controller_flow_mod, 9),
            ),
        ];
        let digests: Vec<(&str, u64)> = messages
            .iter()
            .map(|(name, bytes)| (*name, netco_net::fnv1a(bytes)))
            .collect();
        let pinned = [
            ("hello", 0x2456_18d5_32af_9e3f),
            ("features-request", 0x9f4c_d9de_122a_cd91),
            ("switch features", 0x187d_ba4a_712b_ec32),
            ("guard features", 0xfb59_ace5_dff5_da47),
            ("voter features", 0x831b_7ff6_a64f_30b6),
            ("block advice", 0x2b4d_e816_47e0_463f),
            ("voted flow-mod", 0x03e1_a4a4_8f64_9d15),
            ("voted packet-out", 0xb805_e1cc_b477_8a47),
            ("flow-stats request", 0xf273_6c80_cd9a_4a8b),
            ("flow-stats reply", 0x80ab_2106_db29_3e60),
            ("packet-in, compare link", 0xcba8_218d_c23b_2ab6),
            ("packet-in, control channel", 0x2229_7dba_f9ef_4d2a),
            ("packet-out, compare link", 0x4e82_fe16_a9c6_29d9),
            ("packet-out, control channel", 0xe65f_421a_7c20_23df),
            ("buffered packet-out", 0x3f76_cf36_2480_26f8),
            ("rewriting packet-out", 0x823e_e85b_c4dd_82e3),
            ("flow-mod, control channel", 0x1e47_a44f_8802_a483),
        ];
        assert_eq!(digests, pinned.to_vec());
    }
}
