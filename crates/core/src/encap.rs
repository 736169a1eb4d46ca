//! Framing OpenFlow messages onto point-to-point data links.
//!
//! The paper's prototype attaches the compare host to the data plane and
//! speaks packet-in/packet-out with the guards ("the compare is connected
//! to the data plane akin of an OpenFlow controller", §IV). We reproduce
//! that literally: guards wrap OpenFlow 1.0 wire bytes in an Ethernet frame
//! with a dedicated EtherType and send it down the compare link.

use bytes::{BufMut, Bytes, BytesMut};
use netco_net::packet::ETHERNET_HEADER_LEN;
use netco_net::MacAddr;
use netco_openflow::{wire, FlowMatch, FlowModCommand, OfMessage};
use netco_sim::SimDuration;

/// The experimental EtherType used for OpenFlow-over-Ethernet framing
/// (`0x88B5`, IEEE 802 local experimental 1).
pub const NETCO_ETHERTYPE: u16 = 0x88b5;

const TPID_8021Q: u16 = 0x8100;

/// Wraps an OpenFlow message into an Ethernet frame for a point-to-point
/// compare link.
///
/// Everything is written into one buffer: compare links carry every
/// replicated copy of every data frame, so the nested
/// `EthernetFrame`/`wire::encode` allocations were a measurable share of the
/// guard's per-frame cost.
pub fn of_wrap(msg: &OfMessage, xid: u32) -> Bytes {
    // The frozen frame keeps whatever capacity is reserved here for as long
    // as any copy of it lives, so reserve for this message: the payload it
    // carries plus `OF_FIXED_HINT` for the OpenFlow header and the fixed
    // part of a packet-in or packet-out with a few actions. Anything
    // larger (a flow-mod, a features reply) is rare and grows the buffer.
    const OF_FIXED_HINT: usize = 48;
    let payload = match msg {
        OfMessage::PacketIn { data, .. } | OfMessage::PacketOut { data, .. } => data.len(),
        _ => 0,
    };
    let mut buf = BytesMut::with_capacity(ETHERNET_HEADER_LEN + OF_FIXED_HINT + payload);
    buf.put_slice(&MacAddr::ZERO.octets());
    buf.put_slice(&MacAddr::ZERO.octets());
    buf.put_u16(NETCO_ETHERTYPE);
    wire::encode_into(msg, xid, &mut buf);
    buf.freeze()
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

/// Offset of the OpenFlow payload in a NetCo-framed Ethernet frame, or
/// `None` when the frame is not NetCo-framed OpenFlow.
///
/// Hand-rolled Ethernet header walk: `EthernetFrame::decode` would copy the
/// whole OpenFlow payload just to hand it to the wire codec.
fn of_payload_offset(frame: &[u8]) -> Option<usize> {
    if frame.len() < ETHERNET_HEADER_LEN {
        return None;
    }
    let tpid = u16::from_be_bytes([frame[12], frame[13]]);
    if tpid == TPID_8021Q {
        if frame.len() >= ETHERNET_HEADER_LEN + 4
            && u16::from_be_bytes([frame[16], frame[17]]) == NETCO_ETHERTYPE
        {
            Some(ETHERNET_HEADER_LEN + 4)
        } else {
            None
        }
    } else if tpid == NETCO_ETHERTYPE {
        Some(ETHERNET_HEADER_LEN)
    } else {
        None
    }
}

/// Unwraps a compare-link frame back into an OpenFlow message.
///
/// Returns `None` for frames that are not NetCo-framed OpenFlow (wrong
/// EtherType or undecodable payload) — a trusted component simply ignores
/// anything it does not understand.
pub fn of_unwrap(frame: &[u8]) -> Option<(OfMessage, u32)> {
    wire::decode(&frame[of_payload_offset(frame)?..]).ok()
}

/// Like [`of_unwrap`], but payload fields of the decoded message are
/// zero-copy slices of `frame` (see [`wire::decode_shared`]).
pub fn of_unwrap_shared(frame: &Bytes) -> Option<(OfMessage, u32)> {
    let off = of_payload_offset(frame)?;
    wire::decode_shared(&frame.slice(off..)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_openflow::{OfPort, PacketInReason};

    #[test]
    fn round_trip() {
        let msg = OfMessage::PacketIn {
            buffer_id: None,
            in_port: 2,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"inner frame"),
        };
        let wrapped = of_wrap(&msg, 9);
        let (back, xid) = of_unwrap(&wrapped).unwrap();
        assert_eq!(back, msg);
        assert_eq!(xid, 9);
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
        assert!(of_unwrap(b"garbage").is_none());
    }

    #[test]
    fn packet_out_round_trip() {
        let msg = OfMessage::packet_out(Bytes::from_static(b"released"), OfPort::Physical(4));
        let (back, _) = of_unwrap(&of_wrap(&msg, 0)).unwrap();
        assert_eq!(back, msg);
    }
}
