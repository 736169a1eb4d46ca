//! IPv4 packets (RFC 791, no options).

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};

use super::checksum::internet_checksum;
use super::CodecError;

/// Length of an option-free IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// The L4 protocol carried by an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// Wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Interprets a wire value.
    pub fn from_u8(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// A decoded IPv4 packet (header fields + payload).
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::packet::{IpProtocol, Ipv4Packet};
///
/// let pkt = Ipv4Packet::new(
///     Ipv4Addr::new(10, 0, 0, 1),
///     Ipv4Addr::new(10, 0, 0, 2),
///     IpProtocol::Udp,
///     bytes::Bytes::from_static(b"payload"),
/// );
/// let wire = pkt.encode();
/// assert_eq!(Ipv4Packet::decode(&wire)?, pkt);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Identification field (used for diagnostics here; no fragmentation).
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// L4 protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// L4 payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Creates a packet with default TTL 64 and zero identification.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Ipv4Packet {
        Ipv4Packet {
            dscp_ecn: 0,
            identification: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            payload,
        }
    }

    /// Serializes the packet, computing the header checksum.
    ///
    /// # Panics
    ///
    /// Panics if the total length exceeds 65535 bytes.
    pub fn encode(&self) -> Bytes {
        let total_len = IPV4_HEADER_LEN + self.payload.len();
        assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp_ecn);
        buf.put_u16(total_len as u16);
        buf.put_u16(self.identification);
        buf.put_u16(0x4000); // flags: DF set, no fragmentation in this simulator
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.to_u8());
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let ck = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a packet from wire bytes, verifying the header checksum. The
    /// payload is a zero-copy slice of `data`.
    ///
    /// # Errors
    ///
    /// * [`CodecError::Truncated`] — buffer shorter than the header or the
    ///   total-length field.
    /// * [`CodecError::BadVersion`] / [`CodecError::BadHeaderLength`] — not
    ///   an option-free IPv4 header.
    /// * [`CodecError::BadChecksum`] — header checksum mismatch (e.g. an
    ///   adversarial in-flight modification without checksum fix-up).
    /// * [`CodecError::LengthMismatch`] — total-length field disagrees with
    ///   the buffer.
    pub fn decode(data: &Bytes) -> Result<Ipv4Packet, CodecError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(CodecError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(CodecError::BadVersion(version));
        }
        let ihl = data[0] & 0x0f;
        if ihl != 5 {
            return Err(CodecError::BadHeaderLength(ihl));
        }
        if internet_checksum(&data[..IPV4_HEADER_LEN]) != 0 {
            return Err(CodecError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > data.len() {
            return Err(CodecError::LengthMismatch {
                layer: "ipv4",
                claimed: total_len,
                available: data.len(),
            });
        }
        Ok(Ipv4Packet {
            dscp_ecn: data[1],
            identification: u16::from_be_bytes([data[4], data[5]]),
            ttl: data[8],
            protocol: IpProtocol::from_u8(data[9]),
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            payload: data.slice(IPV4_HEADER_LEN..total_len),
        })
    }

    /// The 12-byte pseudo-header used by UDP/TCP checksums.
    pub(crate) fn pseudo_header(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        l4_len: usize,
    ) -> [u8; 12] {
        let mut ph = [0u8; 12];
        ph[0..4].copy_from_slice(&src.octets());
        ph[4..8].copy_from_slice(&dst.octets());
        ph[9] = protocol.to_u8();
        ph[10..12].copy_from_slice(&(l4_len as u16).to_be_bytes());
        ph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            Bytes::from_static(b"hello world"),
        )
    }

    #[test]
    fn round_trip() {
        let p = sample();
        let wire = p.encode();
        assert_eq!(Ipv4Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn checksum_verifies_and_detects_corruption() {
        let wire = sample().encode();
        assert_eq!(internet_checksum(&wire[..IPV4_HEADER_LEN]), 0);
        let mut bad = wire.to_vec();
        bad[16] ^= 0x01; // flip a bit of the destination address
        assert_eq!(
            Ipv4Packet::decode(&bad.into()),
            Err(CodecError::BadChecksum { layer: "ipv4" })
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut wire = sample().encode().to_vec();
        wire[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::decode(&wire.into()),
            Err(CodecError::BadVersion(6))
        );
    }

    #[test]
    fn rejects_options() {
        let mut wire = sample().encode().to_vec();
        wire[0] = 0x46; // IHL 6 => options present
        assert_eq!(
            Ipv4Packet::decode(&wire.into()),
            Err(CodecError::BadHeaderLength(6))
        );
    }

    #[test]
    fn rejects_truncation() {
        let wire = sample().encode();
        assert!(matches!(
            Ipv4Packet::decode(&wire.slice(..10)),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_length_overrun() {
        let p = sample();
        let mut wire = p.encode().to_vec();
        // Claim more bytes than present, patch checksum so only the length
        // check can fire.
        let bogus = (wire.len() as u16 + 8).to_be_bytes();
        wire[2..4].copy_from_slice(&bogus);
        wire[10..12].copy_from_slice(&[0, 0]);
        let ck = internet_checksum(&wire[..IPV4_HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::decode(&wire.into()),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn trailing_padding_is_ignored() {
        // Ethernet minimum-size padding: decode honors total_len.
        let p = sample();
        let mut wire = p.encode().to_vec();
        wire.extend_from_slice(&[0u8; 7]);
        assert_eq!(Ipv4Packet::decode(&wire.into()).unwrap(), p);
    }

    #[test]
    fn protocol_mapping() {
        for v in [1u8, 6, 17, 89] {
            assert_eq!(IpProtocol::from_u8(v).to_u8(), v);
        }
    }
}
