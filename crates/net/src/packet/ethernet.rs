//! Ethernet II framing with optional 802.1Q VLAN tags.

use bytes::{BufMut, Bytes, BytesMut};

use super::CodecError;
use crate::MacAddr;

/// Length of an untagged Ethernet II header (dst + src + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

const TPID_8021Q: u16 = 0x8100;

/// The EtherType discriminator of an Ethernet frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`) — carried but not interpreted by this simulator.
    Arp,
    /// Any other value.
    Other(u16),
}

impl EtherType {
    /// Wire value of this EtherType.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Interprets a wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// An 802.1Q VLAN tag (PCP + DEI + VID packed into the TCI).
///
/// VLAN rewriting is one of the concrete attacks in the paper's threat model
/// ("changing the VLAN field to break isolation domains"), so tags are
/// first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VlanTag {
    /// Priority code point (0–7).
    pub pcp: u8,
    /// Drop-eligible indicator.
    pub dei: bool,
    /// VLAN identifier (0–4095).
    pub vid: u16,
}

impl VlanTag {
    /// Creates a tag with the given VLAN id and default priority.
    ///
    /// # Panics
    ///
    /// Panics if `vid` exceeds 4095.
    pub fn new(vid: u16) -> VlanTag {
        assert!(vid < 4096, "VLAN id out of range");
        VlanTag {
            pcp: 0,
            dei: false,
            vid,
        }
    }

    pub(crate) fn to_tci(self) -> u16 {
        ((self.pcp as u16) << 13) | ((self.dei as u16) << 12) | (self.vid & 0x0fff)
    }

    fn from_tci(tci: u16) -> VlanTag {
        VlanTag {
            pcp: (tci >> 13) as u8,
            dei: tci & 0x1000 != 0,
            vid: tci & 0x0fff,
        }
    }
}

/// A decoded Ethernet II frame.
///
/// # Example
///
/// ```
/// use netco_net::MacAddr;
/// use netco_net::packet::{EtherType, EthernetFrame};
///
/// let frame = EthernetFrame {
///     dst: MacAddr::local(2),
///     src: MacAddr::local(1),
///     vlan: None,
///     ethertype: EtherType::Ipv4,
///     payload: bytes::Bytes::from_static(b"data"),
/// };
/// let wire = frame.encode();
/// let back = EthernetFrame::decode(&wire)?;
/// assert_eq!(back, frame);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Optional 802.1Q tag.
    pub vlan: Option<VlanTag>,
    /// Payload discriminator.
    pub ethertype: EtherType,
    /// The L3 payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Serializes the frame to wire bytes (no FCS; the simulator models
    /// corruption at the payload level instead of CRC level).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            ETHERNET_HEADER_LEN + if self.vlan.is_some() { 4 } else { 0 } + self.payload.len(),
        );
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.src.octets());
        if let Some(tag) = self.vlan {
            buf.put_u16(TPID_8021Q);
            buf.put_u16(tag.to_tci());
        }
        buf.put_u16(self.ethertype.to_u16());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a frame from wire bytes. The payload is a zero-copy slice of
    /// `data` (a refcount bump, never an allocation and copy).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] when the buffer is shorter than the
    /// (possibly tagged) header.
    pub fn decode(data: &Bytes) -> Result<EthernetFrame, CodecError> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(CodecError::Truncated {
                layer: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                got: data.len(),
            });
        }
        let dst = MacAddr([data[0], data[1], data[2], data[3], data[4], data[5]]);
        let src = MacAddr([data[6], data[7], data[8], data[9], data[10], data[11]]);
        let tpid = u16::from_be_bytes([data[12], data[13]]);
        let (vlan, et_off) = if tpid == TPID_8021Q {
            if data.len() < ETHERNET_HEADER_LEN + 4 {
                return Err(CodecError::Truncated {
                    layer: "ethernet/802.1q",
                    needed: ETHERNET_HEADER_LEN + 4,
                    got: data.len(),
                });
            }
            let tci = u16::from_be_bytes([data[14], data[15]]);
            (Some(VlanTag::from_tci(tci)), 16)
        } else {
            (None, 12)
        };
        let ethertype = EtherType::from_u16(u16::from_be_bytes([data[et_off], data[et_off + 1]]));
        Ok(EthernetFrame {
            dst,
            src,
            vlan,
            ethertype,
            payload: data.slice(et_off + 2..),
        })
    }

    /// Total encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + if self.vlan.is_some() { 4 } else { 0 } + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(vlan: Option<VlanTag>) -> EthernetFrame {
        EthernetFrame {
            dst: MacAddr::local(10),
            src: MacAddr::local(20),
            vlan,
            ethertype: EtherType::Ipv4,
            payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
        }
    }

    #[test]
    fn untagged_round_trip() {
        let f = sample(None);
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        assert_eq!(EthernetFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn tagged_round_trip() {
        let f = sample(Some(VlanTag {
            pcp: 5,
            dei: true,
            vid: 100,
        }));
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let back = EthernetFrame::decode(&wire).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.vlan.unwrap().vid, 100);
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            EthernetFrame::decode(&Bytes::from_static(&[0u8; 13])),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_vlan_rejected() {
        let wire = sample(Some(VlanTag::new(7))).encode().slice(..15);
        assert!(matches!(
            EthernetFrame::decode(&wire),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn payload_is_a_slice_of_the_wire() {
        let wire = sample(None).encode();
        let back = EthernetFrame::decode(&wire).unwrap();
        assert_eq!(back.payload.as_ptr(), wire[ETHERNET_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x88cc), EtherType::Other(0x88cc));
        assert_eq!(EtherType::Other(0x88cc).to_u16(), 0x88cc);
    }

    #[test]
    #[should_panic]
    fn vlan_id_range_checked() {
        let _ = VlanTag::new(4096);
    }

    #[test]
    fn empty_payload_is_fine() {
        let mut f = sample(None);
        f.payload = Bytes::new();
        let wire = f.encode();
        assert_eq!(wire.len(), ETHERNET_HEADER_LEN);
        assert_eq!(EthernetFrame::decode(&wire).unwrap(), f);
    }
}
