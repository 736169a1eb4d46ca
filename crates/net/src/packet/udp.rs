//! UDP datagrams (RFC 768) with pseudo-header checksums.

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};

use super::checksum::{add_fold, finish, sum_words};
use super::{CodecError, IpProtocol, Ipv4Packet};

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP datagram.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::packet::UdpDatagram;
///
/// let src = Ipv4Addr::new(10, 0, 0, 1);
/// let dst = Ipv4Addr::new(10, 0, 0, 2);
/// let dgram = UdpDatagram { src_port: 5001, dst_port: 5201, payload: bytes::Bytes::from_static(b"x") };
/// let wire = dgram.encode(src, dst);
/// assert_eq!(UdpDatagram::decode(&wire, src, dst)?, dgram);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Serializes the datagram, computing the pseudo-header checksum.
    /// The IPv4 endpoint addresses are required because they are part of the
    /// checksum input.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = UDP_HEADER_LEN + self.payload.len();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len as u16);
        buf.put_u16(0);
        buf.put_slice(&self.payload);
        let ph = Ipv4Packet::pseudo_header(src, dst, IpProtocol::Udp, len);
        let mut sum = sum_words(&ph);
        sum = add_fold(sum, sum_words(&buf));
        let mut ck = finish(sum);
        if ck == 0 {
            ck = 0xffff; // RFC 768: zero checksum means "not computed"
        }
        buf[6..8].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }

    /// Parses a datagram from L4 bytes, verifying length and checksum. The
    /// payload is a zero-copy slice of `data`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::LengthMismatch`] or
    /// [`CodecError::BadChecksum`].
    pub fn decode(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, CodecError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(CodecError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                got: data.len(),
            });
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < UDP_HEADER_LEN || len > data.len() {
            return Err(CodecError::LengthMismatch {
                layer: "udp",
                claimed: len,
                available: data.len(),
            });
        }
        let claimed_ck = u16::from_be_bytes([data[6], data[7]]);
        if claimed_ck != 0 {
            let ph = Ipv4Packet::pseudo_header(src, dst, IpProtocol::Udp, len);
            let mut sum = sum_words(&ph);
            sum = add_fold(sum, sum_words(&data[..len]));
            if finish(sum) != 0 {
                return Err(CodecError::BadChecksum { layer: "udp" });
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: data.slice(UDP_HEADER_LEN..len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 2);

    fn sample() -> UdpDatagram {
        UdpDatagram {
            src_port: 1234,
            dst_port: 5201,
            payload: Bytes::from_static(b"iperf-like payload"),
        }
    }

    #[test]
    fn round_trip() {
        let d = sample();
        let wire = d.encode(SRC, DST);
        assert_eq!(UdpDatagram::decode(&wire, SRC, DST).unwrap(), d);
    }

    #[test]
    fn checksum_covers_addresses() {
        let wire = sample().encode(SRC, DST);
        // Same bytes but claimed to be from a different source must fail:
        // this is how rerouting + NAT-style rewrites get caught.
        let other = Ipv4Addr::new(192, 168, 0, 77);
        assert_eq!(
            UdpDatagram::decode(&wire, other, DST),
            Err(CodecError::BadChecksum { layer: "udp" })
        );
    }

    #[test]
    fn payload_corruption_detected() {
        let mut wire = sample().encode(SRC, DST).to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        assert_eq!(
            UdpDatagram::decode(&wire.into(), SRC, DST),
            Err(CodecError::BadChecksum { layer: "udp" })
        );
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut wire = sample().encode(SRC, DST).to_vec();
        wire[6..8].copy_from_slice(&[0, 0]);
        assert!(UdpDatagram::decode(&wire.into(), SRC, DST).is_ok());
    }

    #[test]
    fn truncated_and_bad_length() {
        let wire = sample().encode(SRC, DST);
        assert!(matches!(
            UdpDatagram::decode(&wire.slice(..4), SRC, DST),
            Err(CodecError::Truncated { .. })
        ));
        let mut bad = wire.to_vec();
        let bogus_len = bad.len() as u16 + 1;
        bad[4..6].copy_from_slice(&bogus_len.to_be_bytes());
        assert!(matches!(
            UdpDatagram::decode(&bad.into(), SRC, DST),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::new(),
        };
        let wire = d.encode(SRC, DST);
        assert_eq!(wire.len(), UDP_HEADER_LEN);
        assert_eq!(UdpDatagram::decode(&wire, SRC, DST).unwrap(), d);
    }
}
