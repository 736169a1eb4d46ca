//! ICMP echo messages (RFC 792) — the `ping` used throughout the paper's
//! evaluation (Fig. 7 and the Section VI case study).

use bytes::{BufMut, Bytes, BytesMut};

use super::checksum::internet_checksum;
use super::CodecError;

/// Length of an ICMP echo header.
pub const ICMP_HEADER_LEN: usize = 8;

/// The ICMP message type (echo subset plus a catch-all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
    /// Any other ICMP type.
    Other(u8),
}

impl IcmpType {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::EchoRequest => 8,
            IcmpType::Other(v) => v,
        }
    }

    /// Interprets a wire value.
    pub fn from_u8(v: u8) -> IcmpType {
        match v {
            0 => IcmpType::EchoReply,
            8 => IcmpType::EchoRequest,
            other => IcmpType::Other(other),
        }
    }
}

/// A decoded ICMP echo message.
///
/// # Example
///
/// ```
/// use netco_net::packet::{IcmpMessage, IcmpType};
///
/// let req = IcmpMessage::echo_request(1, 7, bytes::Bytes::from_static(b"abcdefgh"));
/// let wire = req.encode();
/// let back = IcmpMessage::decode(&wire)?;
/// assert_eq!(back.icmp_type, IcmpType::EchoRequest);
/// assert_eq!(back.sequence, 7);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Message code (0 for echo).
    pub code: u8,
    /// Echo identifier (distinguishes ping sessions).
    pub identifier: u16,
    /// Echo sequence number.
    pub sequence: u16,
    /// Echo payload (typically a timestamp plus filler).
    pub payload: Bytes,
}

impl IcmpMessage {
    /// Builds an echo request.
    pub fn echo_request(identifier: u16, sequence: u16, payload: Bytes) -> IcmpMessage {
        IcmpMessage {
            icmp_type: IcmpType::EchoRequest,
            code: 0,
            identifier,
            sequence,
            payload,
        }
    }

    /// Builds the echo reply matching a request (same id, seq and payload).
    pub fn reply_to(request: &IcmpMessage) -> IcmpMessage {
        IcmpMessage {
            icmp_type: IcmpType::EchoReply,
            code: 0,
            identifier: request.identifier,
            sequence: request.sequence,
            payload: request.payload.clone(),
        }
    }

    /// Serializes the message, computing the ICMP checksum.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ICMP_HEADER_LEN + self.payload.len());
        buf.put_u8(self.icmp_type.to_u8());
        buf.put_u8(self.code);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(self.identifier);
        buf.put_u16(self.sequence);
        buf.put_slice(&self.payload);
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }

    /// Parses a message from L4 bytes, verifying the checksum. The payload
    /// is a zero-copy slice of `data`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadChecksum`].
    pub fn decode(data: &Bytes) -> Result<IcmpMessage, CodecError> {
        if data.len() < ICMP_HEADER_LEN {
            return Err(CodecError::Truncated {
                layer: "icmp",
                needed: ICMP_HEADER_LEN,
                got: data.len(),
            });
        }
        if internet_checksum(data) != 0 {
            return Err(CodecError::BadChecksum { layer: "icmp" });
        }
        Ok(IcmpMessage {
            icmp_type: IcmpType::from_u8(data[0]),
            code: data[1],
            identifier: u16::from_be_bytes([data[4], data[5]]),
            sequence: u16::from_be_bytes([data[6], data[7]]),
            payload: data.slice(ICMP_HEADER_LEN..),
        })
    }

    /// Total encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        ICMP_HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = IcmpMessage::echo_request(0x55, 3, Bytes::from_static(&[9; 56]));
        let wire = m.encode();
        assert_eq!(wire.len(), m.wire_len());
        assert_eq!(IcmpMessage::decode(&wire).unwrap(), m);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = IcmpMessage::echo_request(7, 42, Bytes::from_static(b"payload"));
        let rep = IcmpMessage::reply_to(&req);
        assert_eq!(rep.icmp_type, IcmpType::EchoReply);
        assert_eq!(rep.identifier, 7);
        assert_eq!(rep.sequence, 42);
        assert_eq!(rep.payload, req.payload);
    }

    #[test]
    fn corruption_detected() {
        let mut wire = IcmpMessage::echo_request(1, 1, Bytes::from_static(b"x"))
            .encode()
            .to_vec();
        wire[6] ^= 1;
        assert_eq!(
            IcmpMessage::decode(&wire.into()),
            Err(CodecError::BadChecksum { layer: "icmp" })
        );
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpMessage::decode(&Bytes::from_static(&[8, 0, 0])),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn type_mapping() {
        assert_eq!(IcmpType::from_u8(0), IcmpType::EchoReply);
        assert_eq!(IcmpType::from_u8(8), IcmpType::EchoRequest);
        assert_eq!(IcmpType::from_u8(3), IcmpType::Other(3));
        assert_eq!(IcmpType::Other(3).to_u8(), 3);
    }
}
