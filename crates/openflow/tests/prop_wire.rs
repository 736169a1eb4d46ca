//! Property tests: the OpenFlow 1.0 wire codec round-trips arbitrary
//! messages, flow-match semantics are consistent, and decoding never
//! panics — on random bytes and on every cut and length lie of every
//! message variant's encoding.

use bytes::Bytes;
use netco_net::MacAddr;
use netco_openflow::canonical::{canonicalize, Canonical};
use netco_openflow::{
    wire, Action, FlowMatch, FlowModCommand, FlowRemovedReason, FlowStats, OfMessage, OfPort,
    PacketFields, PacketInReason, PortDesc,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_port() -> impl Strategy<Value = OfPort> {
    prop_oneof![
        (0u16..=0xff00).prop_map(OfPort::Physical),
        Just(OfPort::InPort),
        Just(OfPort::Flood),
        Just(OfPort::All),
        Just(OfPort::Controller),
        Just(OfPort::None),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_port().prop_map(Action::Output),
        arb_mac().prop_map(Action::SetDlSrc),
        arb_mac().prop_map(Action::SetDlDst),
        (0u16..4096).prop_map(Action::SetVlanVid),
        Just(Action::StripVlan),
        arb_ip().prop_map(Action::SetNwSrc),
        arb_ip().prop_map(Action::SetNwDst),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
    ]
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_mac()),
        proptest::option::of(arb_mac()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u8>()),
        proptest::option::of(any::<u16>()),
        (
            proptest::option::of(any::<u8>()),
            proptest::option::of(any::<u8>()),
            proptest::option::of(arb_ip()),
            proptest::option::of(arb_ip()),
            proptest::option::of(any::<u16>()),
            proptest::option::of(any::<u16>()),
        ),
    )
        .prop_map(
            |(in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type, rest)| {
                let (nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst) = rest;
                FlowMatch {
                    in_port,
                    dl_src,
                    dl_dst,
                    dl_vlan,
                    dl_vlan_pcp,
                    dl_type,
                    nw_tos,
                    nw_proto,
                    nw_src,
                    nw_dst,
                    tp_src,
                    tp_dst,
                }
            },
        )
}

fn arb_fields() -> impl Strategy<Value = PacketFields> {
    (
        any::<u16>(),
        arb_mac(),
        arb_mac(),
        any::<u16>(),
        any::<u8>(),
        any::<u16>(),
        (
            arb_ip(),
            arb_ip(),
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
        ),
    )
        .prop_map(|(in_port, dl_src, dl_dst, dl_vlan, pcp, dl_type, rest)| {
            let (nw_src, nw_dst, nw_tos, nw_proto, tp_src, tp_dst) = rest;
            PacketFields {
                in_port,
                dl_src,
                dl_dst,
                dl_vlan,
                dl_vlan_pcp: pcp,
                dl_type,
                nw_tos,
                nw_proto,
                nw_src,
                nw_dst,
                tp_src,
                tp_dst,
            }
        })
}

proptest! {
    #[test]
    fn flow_mod_round_trip(
        matcher in arb_match(),
        priority in any::<u16>(),
        idle in any::<u16>(),
        hard in any::<u16>(),
        cookie in any::<u64>(),
        notify in any::<bool>(),
        actions in proptest::collection::vec(arb_action(), 0..6),
        buffer in proptest::option::of(0u32..u32::MAX - 1),
        xid in any::<u32>(),
    ) {
        let msg = OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher,
            priority,
            idle_timeout_s: idle,
            hard_timeout_s: hard,
            cookie,
            notify_when_removed: notify,
            actions,
            buffer_id: buffer,
        };
        let bytes = wire::encode(&msg, xid);
        let (back, back_xid) = wire::decode_shared(&bytes).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(back_xid, xid);
    }

    #[test]
    fn packet_in_out_round_trip(
        in_port in any::<u16>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
        buffered in any::<bool>(),
        actions in proptest::collection::vec(arb_action(), 0..4),
    ) {
        let data = Bytes::from(data);
        let pi = OfMessage::PacketIn {
            buffer_id: buffered.then_some(42),
            in_port,
            reason: PacketInReason::NoMatch,
            data: data.clone(),
        };
        let (b1, _) = wire::decode_shared(&wire::encode(&pi, 1)).unwrap();
        prop_assert_eq!(b1, pi);
        let po = OfMessage::PacketOut {
            buffer_id: None,
            in_port,
            actions,
            data,
        };
        let (b2, _) = wire::decode_shared(&wire::encode(&po, 2)).unwrap();
        prop_assert_eq!(b2, po);
    }

    #[test]
    fn wildcard_matches_whatever_concrete_matches(
        m in arb_match(),
        fields in arb_fields(),
    ) {
        // Any match that accepts `fields` must still accept it after
        // wildcarding one more field (monotonicity of refinement).
        if m.matches(&fields) {
            let mut general = m.clone();
            general.dl_dst = None;
            prop_assert!(general.matches(&fields));
            let mut general = m.clone();
            general.in_port = None;
            prop_assert!(general.matches(&fields));
            let mut general = m.clone();
            general.nw_src = None;
            prop_assert!(general.matches(&fields));
        }
    }

    #[test]
    fn subsumption_implies_match_implication(
        general in arb_match(),
        fields in arb_fields(),
    ) {
        // Build a specific match from the fields themselves: it matches
        // them by construction; if `general` subsumes it, `general` must
        // match too.
        let specific = FlowMatch {
            in_port: Some(fields.in_port),
            dl_src: Some(fields.dl_src),
            dl_dst: Some(fields.dl_dst),
            dl_vlan: Some(fields.dl_vlan),
            dl_vlan_pcp: Some(fields.dl_vlan_pcp),
            dl_type: Some(fields.dl_type),
            nw_tos: Some(fields.nw_tos),
            nw_proto: Some(fields.nw_proto),
            nw_src: Some(fields.nw_src),
            nw_dst: Some(fields.nw_dst),
            tp_src: Some(fields.tp_src),
            tp_dst: Some(fields.tp_dst),
        };
        prop_assert!(specific.matches(&fields));
        if general.subsumes(&specific) {
            prop_assert!(general.matches(&fields));
        }
    }

    // The control-plane vote key (the canonical wire form, see
    // `netco_openflow::canonical`) must be invariant under every field
    // honest replicas legitimately disagree on — xid, buffer id, action
    // order — and a fixpoint, so voting on already-canonical bytes is
    // consistent with voting on raw controller output.
    #[test]
    fn canonical_flow_mod_key_survives_cosmetic_variation(
        matcher in arb_match(),
        priority in any::<u16>(),
        cookie in any::<u64>(),
        notify in any::<bool>(),
        actions in proptest::collection::vec(arb_action(), 0..6),
        rot in any::<usize>(),
        xid1 in any::<u32>(),
        xid2 in any::<u32>(),
        buf1 in proptest::option::of(0u32..u32::MAX - 1),
        buf2 in proptest::option::of(0u32..u32::MAX - 1),
    ) {
        let mk = |actions: Vec<Action>, buffer_id: Option<u32>| OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: matcher.clone(),
            priority,
            idle_timeout_s: 0,
            hard_timeout_s: 0,
            cookie,
            notify_when_removed: notify,
            actions,
            buffer_id,
        };
        let mut permuted = actions.clone();
        if !permuted.is_empty() {
            let n = permuted.len();
            permuted.rotate_left(rot % n);
        }
        let a = canonicalize(&wire::encode(&mk(actions, buf1), xid1));
        let b = canonicalize(&wire::encode(&mk(permuted, buf2), xid2));
        prop_assert_eq!(&a, &b, "vote key must ignore xid/buffer/action order");
        let Canonical::Votable(canon) = a else {
            return Err(TestCaseError::fail("flow-mod must be votable"));
        };
        prop_assert_eq!(
            canonicalize(&canon),
            Canonical::Votable(canon.clone()),
            "canonicalization must be idempotent"
        );
        let (_, xid) = wire::decode_shared(&canon).expect("canonical bytes must decode");
        prop_assert_eq!(xid, 0);
    }

    #[test]
    fn canonical_packet_out_key_survives_cosmetic_variation(
        in_port in any::<u16>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        actions in proptest::collection::vec(arb_action(), 0..4),
        rot in any::<usize>(),
        xid1 in any::<u32>(),
        xid2 in any::<u32>(),
        buf in proptest::option::of(0u32..u32::MAX - 1),
    ) {
        let data = Bytes::from(data);
        let mk = |actions: Vec<Action>, buffer_id: Option<u32>| OfMessage::PacketOut {
            buffer_id,
            in_port,
            actions,
            data: data.clone(),
        };
        let mut permuted = actions.clone();
        if !permuted.is_empty() {
            let n = permuted.len();
            permuted.rotate_left(rot % n);
        }
        let a = canonicalize(&wire::encode(&mk(actions, buf), xid1));
        let b = canonicalize(&wire::encode(&mk(permuted, None), xid2));
        prop_assert_eq!(&a, &b);
        prop_assert!(matches!(a, Canonical::Votable(_)));
    }

    // ...but never under anything that carries a *decision*: two
    // packet-outs with different payloads must key differently, else a
    // corrupted release could ride an honest vote.
    #[test]
    fn canonical_keys_separate_different_payloads(
        in_port in any::<u16>(),
        data1 in proptest::collection::vec(any::<u8>(), 1..128),
        data2 in proptest::collection::vec(any::<u8>(), 1..128),
        xid in any::<u32>(),
    ) {
        prop_assume!(data1 != data2);
        let mk = |data: Vec<u8>| OfMessage::PacketOut {
            buffer_id: None,
            in_port,
            actions: vec![Action::Output(OfPort::Physical(1))],
            data: Bytes::from(data),
        };
        let a = canonicalize(&wire::encode(&mk(data1), xid));
        let b = canonicalize(&wire::encode(&mk(data2), xid));
        prop_assert_ne!(a, b);
    }

    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode_shared(&Bytes::from(bytes));
    }

    #[test]
    fn sniff_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128), port in any::<u16>()) {
        let _ = PacketFields::sniff(&bytes, port);
    }
}

/// One encoding of every [`OfMessage`] variant, with payloads and lists
/// non-empty where the variant has them.
fn every_variant() -> Vec<OfMessage> {
    let matcher = FlowMatch::any()
        .with_in_port(1)
        .with_dl_dst(MacAddr::local(7))
        .with_nw_dst(Ipv4Addr::new(10, 0, 0, 2));
    let actions = vec![
        Action::SetDlSrc(MacAddr::local(1)),
        Action::SetNwDst(Ipv4Addr::new(4, 3, 2, 1)),
        Action::Output(OfPort::Physical(2)),
    ];
    vec![
        OfMessage::Hello,
        OfMessage::EchoRequest(Bytes::from_static(b"ping")),
        OfMessage::EchoReply(Bytes::from_static(b"pong")),
        OfMessage::FeaturesRequest,
        OfMessage::FeaturesReply {
            datapath_id: 9,
            n_buffers: 256,
            n_tables: 1,
            ports: vec![PortDesc {
                port_no: 1,
                hw_addr: MacAddr::local(1),
                name: "eth1".to_string(),
            }],
        },
        OfMessage::PacketIn {
            buffer_id: Some(3),
            in_port: 2,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"a data frame"),
        },
        OfMessage::PacketOut {
            buffer_id: None,
            in_port: 1,
            actions: actions.clone(),
            data: Bytes::from_static(b"released frame"),
        },
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: matcher.clone(),
            priority: 100,
            idle_timeout_s: 5,
            hard_timeout_s: 0,
            cookie: 1,
            notify_when_removed: true,
            actions: actions.clone(),
            buffer_id: None,
        },
        OfMessage::FlowRemoved {
            matcher: matcher.clone(),
            cookie: 1,
            priority: 100,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 10,
            byte_count: 1000,
        },
        OfMessage::FlowStatsRequest {
            matcher: matcher.clone(),
        },
        OfMessage::FlowStatsReply {
            flows: vec![FlowStats {
                matcher,
                priority: 100,
                cookie: 1,
                packet_count: 10,
                byte_count: 1000,
                actions,
            }],
        },
        OfMessage::BarrierRequest,
        OfMessage::BarrierReply,
        OfMessage::Error {
            err_type: 1,
            code: 2,
            data: Bytes::from_static(b"offending message"),
        },
    ]
}

/// Fixed-budget hostile bytes: every variant's encoding cut at every length,
/// and its header length field rewritten to every value in `0..=len + 8`.
/// The decoder that ships must answer each with `Ok` or `Err`, never a
/// panic; an uncut, unaltered encoding must still round-trip.
#[test]
fn wire_decode_survives_cuts_and_length_lies() {
    for msg in every_variant() {
        let encoded = wire::encode(&msg, 7);
        for cut in 0..=encoded.len() {
            let _ = wire::decode_shared(&encoded.slice(..cut));
        }
        for claimed in 0..=encoded.len() + 8 {
            let mut lie = encoded.to_vec();
            lie[2..4].copy_from_slice(&(claimed as u16).to_be_bytes());
            let _ = wire::decode_shared(&Bytes::from(lie));
        }
        assert_eq!(wire::decode_shared(&encoded), Ok((msg, 7)));
    }
}
