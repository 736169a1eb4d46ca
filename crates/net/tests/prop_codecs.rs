//! Property tests: every codec round-trips arbitrary well-formed values,
//! and decoding never panics — on arbitrary bytes, and on every cut and
//! length lie of every builder frame.

use bytes::Bytes;
use netco_net::packet::{
    builder, internet_checksum, ArpPacket, EtherType, EthernetFrame, FrameView, IcmpMessage,
    IcmpType, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram, VlanTag,
    ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
};
use netco_net::{Frame, HostNic, MacAddr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

proptest! {
    #[test]
    fn ethernet_round_trip(
        dst in arb_mac(),
        src in arb_mac(),
        vid in proptest::option::of(0u16..4096),
        ethertype in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let frame = EthernetFrame {
            dst,
            src,
            vlan: vid.map(VlanTag::new),
            ethertype: EtherType::from_u16(ethertype),
            payload,
        };
        // A frame whose ethertype collides with the 802.1Q TPID but has no
        // tag would be re-parsed as tagged; the codec never produces such
        // frames from real traffic, so skip the ambiguous case.
        prop_assume!(frame.ethertype.to_u16() != 0x8100);
        let wire = frame.encode();
        prop_assert_eq!(EthernetFrame::decode(&wire).unwrap(), frame);
    }

    #[test]
    fn ipv4_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        id in any::<u16>(),
        payload in arb_payload(512),
    ) {
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), payload);
        pkt.ttl = ttl;
        pkt.identification = id;
        let wire = pkt.encode();
        prop_assert_eq!(Ipv4Packet::decode(&wire).unwrap(), pkt);
    }

    #[test]
    fn udp_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in arb_payload(512),
    ) {
        let d = UdpDatagram { src_port: sport, dst_port: dport, payload };
        let wire = d.encode(src, dst);
        prop_assert_eq!(UdpDatagram::decode(&wire, src, dst).unwrap(), d);
    }

    #[test]
    fn tcp_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in any::<u8>(),
        window in any::<u16>(),
        payload in arb_payload(512),
    ) {
        let s = TcpSegment {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags::from_bits(flags),
            window,
            payload,
        };
        let wire = s.encode(src, dst);
        prop_assert_eq!(TcpSegment::decode(&wire, src, dst).unwrap(), s);
    }

    #[test]
    fn icmp_round_trip(
        t in any::<u8>(),
        code in any::<u8>(),
        id in any::<u16>(),
        seq in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let m = IcmpMessage {
            icmp_type: IcmpType::from_u8(t),
            code,
            identifier: id,
            sequence: seq,
            payload,
        };
        let wire = m.encode();
        prop_assert_eq!(IcmpMessage::decode(&wire).unwrap(), m);
    }

    #[test]
    fn single_bit_flip_is_detected_by_some_checksum(
        src in arb_ip(),
        dst in arb_ip(),
        payload in arb_payload(64),
        flip_bit in any::<u8>(),
    ) {
        // Flipping any single bit of an IPv4/UDP packet must fail IPv4
        // header validation or UDP checksum validation (or change the
        // claimed addresses so the pseudo-header no longer matches).
        let d = UdpDatagram { src_port: 7, dst_port: 9, payload };
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, d.encode(src, dst));
        let mut wire = ip.encode().to_vec();
        let bit = flip_bit as usize % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        let wire = Bytes::from(wire);
        let still_ok = (|| {
            let p = Ipv4Packet::decode(&wire).ok()?;
            UdpDatagram::decode(&p.payload, p.src, p.dst).ok()
        })();
        prop_assert!(still_ok.is_none(), "bit flip at {bit} went undetected");
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_everything(&Bytes::from(bytes));
    }
}

/// Runs every decoder that ships over `wire`, and over each layer's payload
/// as far as the bytes parse. Its only check is that it returns.
fn decode_everything(wire: &Bytes) {
    let any = Ipv4Addr::UNSPECIFIED;
    let _ = ArpPacket::decode(wire);
    let _ = IcmpMessage::decode(wire);
    let _ = UdpDatagram::decode(wire, any, any);
    let _ = TcpSegment::decode(wire, any, any);
    let _ = Ipv4Packet::decode(wire);
    let _ = FrameView::parse(wire).map(|view| view.l4());
    let _ = Frame::new(wire.clone()).views();
    if let Ok(eth) = EthernetFrame::decode(wire) {
        let _ = ArpPacket::decode(&eth.payload);
        if let Ok(ip) = Ipv4Packet::decode(&eth.payload) {
            let _ = UdpDatagram::decode(&ip.payload, ip.src, ip.dst);
            let _ = TcpSegment::decode(&ip.payload, ip.src, ip.dst);
            let _ = IcmpMessage::decode(&ip.payload);
        }
    }
}

/// One frame from every builder (tagged and untagged) plus an ARP request,
/// with the offset of its IPv4 header where it has one.
fn builder_frames() -> Vec<(Bytes, Option<usize>)> {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let (ma, mb) = (MacAddr::local(1), MacAddr::local(2));
    let payload = Bytes::from_static(b"thirteen byte");
    let seg = TcpSegment {
        src_port: 4000,
        dst_port: 5001,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 1000,
        payload: payload.clone(),
    };
    let mut out = Vec::new();
    for vlan in [None, Some(VlanTag::new(7))] {
        let ip_at = ETHERNET_HEADER_LEN + if vlan.is_some() { 4 } else { 0 };
        let echo = IcmpMessage::echo_request(1, 2, payload.clone());
        out.push((
            builder::udp_frame(ma, mb, a, b, 1, 2, payload.clone(), vlan),
            Some(ip_at),
        ));
        out.push((builder::tcp_frame(ma, mb, a, b, &seg, vlan), Some(ip_at)));
        out.push((builder::icmp_frame(ma, mb, a, b, echo, vlan), Some(ip_at)));
    }
    out.push((HostNic::new(ma, a).make_arp_request(b), None));
    out
}

/// Fixed-budget hostile bytes: every builder frame cut at every length, and
/// its IPv4 total length (header checksum fixed up, so the length check is
/// what is reached) and UDP length rewritten to every value in
/// `0..=len + 8`. Every decoder must return `Ok` or `Err`, never panic.
#[test]
fn decoders_survive_cuts_and_length_lies() {
    for (wire, ip_at) in builder_frames() {
        for cut in 0..=wire.len() {
            decode_everything(&wire.slice(..cut));
        }
        let Some(ip_at) = ip_at else { continue };
        for claimed in 0..=wire.len() + 8 {
            let claimed = (claimed as u16).to_be_bytes();
            let mut lie = wire.to_vec();
            lie[ip_at + 2..ip_at + 4].copy_from_slice(&claimed);
            lie[ip_at + 10..ip_at + 12].fill(0);
            let ck = internet_checksum(&lie[ip_at..ip_at + IPV4_HEADER_LEN]);
            lie[ip_at + 10..ip_at + 12].copy_from_slice(&ck.to_be_bytes());
            decode_everything(&Bytes::from(lie));
            let mut lie = wire.to_vec();
            let udp_len = ip_at + IPV4_HEADER_LEN + 4;
            lie[udp_len..udp_len + 2].copy_from_slice(&claimed);
            decode_everything(&Bytes::from(lie));
        }
    }
}
