//! Framing OpenFlow messages onto point-to-point data links.
//!
//! The paper's prototype attaches the compare host to the data plane and
//! speaks packet-in/packet-out with the guards ("the compare is connected
//! to the data plane akin of an OpenFlow controller", §IV). We reproduce
//! that literally: guards wrap OpenFlow 1.0 wire bytes in an Ethernet frame
//! with a dedicated EtherType and send it down the compare link.
//!
//! Every replica copy crosses the link in a packet-in and every release in
//! a packet-out, so those two are wrapped at the frame level:
//! [`wrap_packet_in`] and [`wrap_packet_out`] write the Ethernet header
//! and the OpenFlow head on the stack and put them in front of the carried
//! frame with [`Frame::encapsulating`]: the frame is shared, not copied,
//! and its memo rides along. [`unwrap_split`] reads such a frame back from
//! its head and hands out the carried frame itself. Any other compare-link
//! frame (a block advice, a frame a link corrupted, hostile bytes) is
//! contiguous and goes through [`of_wrap`] / [`of_unwrap`], which write
//! and read the same wire format as bytes.

use bytes::{BufMut, Bytes, BytesMut};
use netco_net::packet::{EthernetFrame, ETHERNET_HEADER_LEN};
use netco_net::{Frame, MacAddr, MAX_ENCAP_HEAD};
use netco_openflow::wire::{self, SplitHead};
use netco_openflow::{Action, FlowMatch, FlowModCommand, OfMessage, OfPort, PacketInReason};
use netco_sim::SimDuration;

/// The experimental EtherType used for OpenFlow-over-Ethernet framing
/// (`0x88B5`, IEEE 802 local experimental 1).
pub const NETCO_ETHERTYPE: u16 = 0x88b5;

/// Wraps an OpenFlow message into an Ethernet frame for a point-to-point
/// compare link, as one contiguous buffer: the compare's block advice, and
/// any message a test builds. A packet-in or packet-out that carries a
/// frame goes through [`wrap_packet_in`] / [`wrap_packet_out`] instead.
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
    put_ethernet(&mut buf);
    wire::encode_into(msg, xid, &mut buf);
    buf.freeze()
}

/// The compare link's Ethernet header: zero addresses, NetCo's EtherType.
fn put_ethernet(b: &mut impl BufMut) {
    b.put_slice(&MacAddr::ZERO.octets());
    b.put_slice(&MacAddr::ZERO.octets());
    b.put_u16(NETCO_ETHERTYPE);
}

/// A compare-link frame's head — Ethernet header plus OpenFlow head —
/// written on the stack.
struct Head {
    buf: [u8; MAX_ENCAP_HEAD],
    len: usize,
}

impl Head {
    /// A head holding the link's Ethernet header.
    fn ethernet() -> Head {
        let mut head = Head {
            buf: [0; MAX_ENCAP_HEAD],
            len: 0,
        };
        put_ethernet(&mut head);
        head
    }

    fn encapsulating(&self, inner: &Frame) -> Frame {
        Frame::encapsulating(&self.buf[..self.len], inner)
    }
}

impl BufMut for Head {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.len..self.len + src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

/// The compare-link frame a guard sends for a replica's `copy` that
/// arrived on `in_port`: an OpenFlow packet-in (unbuffered, no match)
/// carrying the copy, which is shared, not copied.
pub(crate) fn wrap_packet_in(xid: u32, in_port: u16, copy: &Frame) -> Frame {
    let mut head = Head::ethernet();
    let reason = PacketInReason::NoMatch;
    wire::put_packet_in_head(&mut head, xid, None, in_port, reason, copy.len());
    head.encapsulating(copy)
}

/// The compare-link frame a compare sends to release `data` out of the
/// guard's `port`: what [`OfMessage::packet_out`] encodes to, carrying
/// the frame itself.
pub(crate) fn wrap_packet_out(xid: u32, port: OfPort, data: &Frame) -> Frame {
    let mut head = Head::ethernet();
    let actions = [Action::Output(port)];
    let in_port = OfPort::None.to_u16();
    wire::put_packet_out_head(&mut head, xid, None, in_port, &actions, data.len());
    head.encapsulating(data)
}

/// Reads a frame built by [`wrap_packet_in`] or [`wrap_packet_out`]: its
/// decoded head, transaction id and the carried frame (memo included).
/// `None` for every other frame — including one whose head is not the
/// canonical split of a packet-in or packet-out — which the caller
/// decodes from its bytes with [`of_unwrap`].
pub(crate) fn unwrap_split(frame: &Frame) -> Option<(SplitHead<'_>, u32, &Frame)> {
    let (head, inner) = frame.encapsulated()?;
    let ethertype = ETHERNET_HEADER_LEN - 2..ETHERNET_HEADER_LEN;
    if head.len() < ETHERNET_HEADER_LEN || head[ethertype] != NETCO_ETHERTYPE.to_be_bytes() {
        return None;
    }
    let (split, xid) = wire::decode_split(&head[ETHERNET_HEADER_LEN..], inner.len())?;
    Some((split, xid, inner))
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

/// Unwraps a compare-link frame back into an OpenFlow message; payload
/// fields of the message are zero-copy slices of `frame`.
///
/// Returns `None` for frames that are not NetCo-framed OpenFlow (wrong
/// EtherType or undecodable payload) — a trusted component simply ignores
/// anything it does not understand.
pub fn of_unwrap(frame: &Bytes) -> Option<(OfMessage, u32)> {
    let eth = EthernetFrame::decode(frame).ok()?;
    if eth.ethertype.to_u16() != NETCO_ETHERTYPE {
        return None;
    }
    wire::decode_shared(&eth.payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(of_unwrap(&Bytes::from_static(b"garbage")).is_none());
    }

    proptest::proptest! {
        #[test]
        fn of_unwrap_never_panics_on_garbage(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            let _ = of_unwrap(&Bytes::from(bytes));
        }
    }

    /// Every compare-link frame the guard and compare send, cut at every
    /// length and with its OpenFlow header length rewritten to every value
    /// in `0..=len + 8`: `Some` or `None`, never a panic.
    #[test]
    fn of_unwrap_survives_cuts_and_length_lies() {
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

    /// The frame-level wraps are the contiguous ones' bytes, unwrap to
    /// the message `of_unwrap` reads, and hand back the carried frame.
    #[test]
    fn frame_wraps_match_the_contiguous_wire_format() {
        let data = Frame::from(b"a replicated data frame" as &'static [u8]);
        let fp = data.fp128();
        let cases = [
            (
                wrap_packet_in(9, 2, &data),
                OfMessage::PacketIn {
                    buffer_id: None,
                    in_port: 2,
                    reason: PacketInReason::NoMatch,
                    data: data.bytes().clone(),
                },
            ),
            (
                wrap_packet_out(9, OfPort::Physical(4), &data),
                OfMessage::packet_out(data.bytes().clone(), OfPort::Physical(4)),
            ),
        ];
        for (frame, msg) in cases {
            let (split, xid, carried) = unwrap_split(&frame).expect("a canonical split");
            assert_eq!(
                (split.with_data(carried.bytes().clone()), xid),
                (msg.clone(), 9)
            );
            assert_eq!(carried.bytes().as_ptr(), data.bytes().as_ptr());
            assert_eq!(carried.fp128(), fp);
            assert_eq!(frame.bytes(), &of_wrap(&msg, 9));
            assert_eq!(of_unwrap(frame.bytes()), Some((msg, 9)));
            // The same bytes, contiguous, carry no split.
            assert!(unwrap_split(&Frame::new(frame.bytes().clone())).is_none());
        }
    }

    #[test]
    fn packet_out_round_trip() {
        let msg = OfMessage::packet_out(Bytes::from_static(b"released"), OfPort::Physical(4));
        let (back, _) = of_unwrap(&of_wrap(&msg, 0)).unwrap();
        assert_eq!(back, msg);
    }
}
