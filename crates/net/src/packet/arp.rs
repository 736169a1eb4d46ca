//! ARP for IPv4 over Ethernet (RFC 826).

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};

use super::CodecError;
use crate::MacAddr;

/// Length of an IPv4-over-Ethernet ARP packet.
pub const ARP_LEN: usize = 28;

/// The ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArpOperation {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
}

/// An IPv4-over-Ethernet ARP packet.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::MacAddr;
/// use netco_net::packet::{ArpOperation, ArpPacket};
///
/// let req = ArpPacket::request(
///     MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2),
/// );
/// let wire = req.encode();
/// assert_eq!(ArpPacket::decode(&wire)?, req);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub operation: ArpOperation,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a who-has request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            operation: ArpOperation::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the is-at reply answering `request`.
    pub(crate) fn reply_to(request: &ArpPacket, my_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Serializes the packet.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(ARP_LEN);
        b.put_u16(1); // htype: Ethernet
        b.put_u16(0x0800); // ptype: IPv4
        b.put_u8(6);
        b.put_u8(4);
        b.put_u16(match self.operation {
            ArpOperation::Request => 1,
            ArpOperation::Reply => 2,
        });
        b.put_slice(&self.sender_mac.octets());
        b.put_slice(&self.sender_ip.octets());
        b.put_slice(&self.target_mac.octets());
        b.put_slice(&self.target_ip.octets());
        b.freeze()
    }

    /// Parses a packet.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] for short buffers,
    /// [`CodecError::Unsupported`] for non-IPv4-over-Ethernet ARP or
    /// unknown operations.
    pub fn decode(data: &[u8]) -> Result<ArpPacket, CodecError> {
        if data.len() < ARP_LEN {
            return Err(CodecError::Truncated {
                layer: "arp",
                needed: ARP_LEN,
                got: data.len(),
            });
        }
        let htype = u16::from_be_bytes([data[0], data[1]]);
        let ptype = u16::from_be_bytes([data[2], data[3]]);
        if htype != 1 || ptype != 0x0800 || data[4] != 6 || data[5] != 4 {
            return Err(CodecError::Unsupported {
                layer: "arp",
                value: htype,
            });
        }
        let operation = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOperation::Request,
            2 => ArpOperation::Reply,
            other => {
                return Err(CodecError::Unsupported {
                    layer: "arp",
                    value: other,
                })
            }
        };
        Ok(ArpPacket {
            operation,
            sender_mac: MacAddr([data[8], data[9], data[10], data[11], data[12], data[13]]),
            sender_ip: Ipv4Addr::new(data[14], data[15], data[16], data[17]),
            target_mac: MacAddr([data[18], data[19], data[20], data[21], data[22], data[23]]),
            target_ip: Ipv4Addr::new(data[24], data[25], data[26], data[27]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_request_and_reply() {
        let req = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        assert_eq!(ArpPacket::decode(&req.encode()).unwrap(), req);
        let rep = ArpPacket::reply_to(&req, MacAddr::local(2));
        assert_eq!(ArpPacket::decode(&rep.encode()).unwrap(), rep);
        assert_eq!(rep.operation, ArpOperation::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.target_mac, MacAddr::local(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            ArpPacket::decode(&[0; 10]),
            Err(CodecError::Truncated { .. })
        ));
        let mut wire = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
        )
        .encode()
        .to_vec();
        wire[1] = 9; // bogus htype
        assert!(matches!(
            ArpPacket::decode(&wire),
            Err(CodecError::Unsupported { .. })
        ));
        wire[1] = 1;
        wire[7] = 9; // bogus operation
        assert!(matches!(
            ArpPacket::decode(&wire),
            Err(CodecError::Unsupported { .. })
        ));
    }
}
