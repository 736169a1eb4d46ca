//! Structured parsing of whole frames.

use bytes::Bytes;

use super::{
    CodecError, EtherType, EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet, TcpSegment,
    UdpDatagram,
};

/// A fully parsed frame: Ethernet, then (when recognized) IPv4 and L4.
///
/// Unknown EtherTypes or IP protocols are not an error — the frame is still
/// forwardable; the corresponding layer is [`L3View::Opaque`] /
/// [`L4View::Opaque`]. Malformed *recognized* layers do produce an error,
/// which is how hosts notice adversarial in-flight modification.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::MacAddr;
/// use netco_net::packet::{builder, FrameView, L4View};
///
/// let wire = builder::udp_frame(
///     MacAddr::local(1), MacAddr::local(2),
///     Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2),
///     1000, 2000, bytes::Bytes::from_static(b"hi"), None,
/// );
/// let view = FrameView::parse(&wire)?;
/// match view.l4()? {
///     Some(L4View::Udp(u)) => assert_eq!(u.dst_port, 2000),
///     _ => panic!("expected UDP"),
/// }
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView {
    /// The Ethernet layer.
    pub eth: EthernetFrame,
    /// The parsed L3 layer.
    pub l3: L3View,
}

/// The L3 layer of a [`FrameView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L3View {
    /// A well-formed IPv4 packet.
    Ipv4(Ipv4Packet),
    /// A payload this simulator does not interpret.
    Opaque,
}

/// The L4 layer of a [`FrameView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4View {
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// A TCP segment.
    Tcp(TcpSegment),
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// An IP protocol this simulator does not interpret.
    Opaque,
}

impl FrameView {
    /// Parses Ethernet and, for IPv4 EtherTypes, the IPv4 header. Every
    /// layer's payload is a zero-copy slice of `wire`: parsing a 1500-byte
    /// frame costs header reads and refcount bumps, never a payload copy.
    /// [`Frame::views`](crate::Frame::views) is the memoised form.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from the Ethernet layer, and from the IPv4
    /// layer when the EtherType claims IPv4.
    pub fn parse(wire: &Bytes) -> Result<FrameView, CodecError> {
        let eth = EthernetFrame::decode(wire)?;
        let l3 = match eth.ethertype {
            EtherType::Ipv4 => L3View::Ipv4(Ipv4Packet::decode(&eth.payload)?),
            _ => L3View::Opaque,
        };
        Ok(FrameView { eth, l3 })
    }

    /// The IPv4 layer, if present.
    pub fn ipv4(&self) -> Option<&Ipv4Packet> {
        match &self.l3 {
            L3View::Ipv4(p) => Some(p),
            L3View::Opaque => None,
        }
    }

    /// Parses the L4 layer on demand (checksums verified).
    ///
    /// Returns `Ok(None)` when there is no IPv4 layer.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from the recognized L4 protocol.
    pub fn l4(&self) -> Result<Option<L4View>, CodecError> {
        let ip = match self.ipv4() {
            Some(ip) => ip,
            None => return Ok(None),
        };
        let v = match ip.protocol {
            IpProtocol::Udp => L4View::Udp(UdpDatagram::decode(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Tcp => L4View::Tcp(TcpSegment::decode(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Icmp => L4View::Icmp(IcmpMessage::decode(&ip.payload)?),
            IpProtocol::Other(_) => L4View::Opaque,
        };
        Ok(Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder;
    use super::*;
    use crate::MacAddr;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn parses_udp_frame() {
        let wire = builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            A,
            B,
            10,
            20,
            Bytes::from_static(b"data"),
            None,
        );
        let v = FrameView::parse(&wire).unwrap();
        assert!(v.ipv4().is_some());
        match v.l4().unwrap().unwrap() {
            L4View::Udp(u) => assert_eq!((u.src_port, u.dst_port), (10, 20)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_icmp_frame() {
        let wire = builder::icmp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            A,
            B,
            IcmpMessage::echo_request(1, 2, Bytes::from_static(b"pingdata")),
            None,
        );
        let v = FrameView::parse(&wire).unwrap();
        match v.l4().unwrap().unwrap() {
            L4View::Icmp(m) => assert_eq!(m.sequence, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_ip_is_opaque() {
        let eth = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            vlan: None,
            ethertype: EtherType::Other(0x88cc),
            payload: Bytes::from_static(b"lldp-ish"),
        };
        let v = FrameView::parse(&eth.encode()).unwrap();
        assert_eq!(v.l3, L3View::Opaque);
        assert_eq!(v.l4().unwrap(), None);
    }

    #[test]
    fn unknown_ip_protocol_is_opaque_l4() {
        let ip = Ipv4Packet::new(A, B, IpProtocol::Other(89), Bytes::from_static(b"ospf"));
        let eth = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            vlan: None,
            ethertype: EtherType::Ipv4,
            payload: ip.encode(),
        };
        let v = FrameView::parse(&eth.encode()).unwrap();
        assert_eq!(v.l4().unwrap(), Some(L4View::Opaque));
    }

    #[test]
    fn corrupted_l4_surfaces_error() {
        let mut wire = builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            A,
            B,
            10,
            20,
            Bytes::from_static(b"data"),
            None,
        )
        .to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        let v = FrameView::parse(&wire.into()).unwrap(); // IPv4 header still fine
        assert!(v.l4().is_err());
    }
}
