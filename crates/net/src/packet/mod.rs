//! Byte-accurate packet codecs.
//!
//! Frames move through the simulator as raw bytes ([`bytes::Bytes`]); these
//! modules encode and decode the protocol layers the NetCo evaluation needs:
//! Ethernet II with optional 802.1Q VLAN tags, IPv4 (no options), UDP, TCP
//! (no options) and ICMP echo. All multi-byte fields are big-endian
//! (network order) and the IPv4/UDP/TCP/ICMP checksums are real Internet
//! checksums, so adversarial in-flight modification is detectable exactly as
//! it would be on a wire.
//!
//! Each format has one decoder, and it takes the shared buffer
//! ([`Bytes`](bytes::Bytes)): a decoded payload is a zero-copy slice of the
//! wire bytes, never a copy. The [`FrameView`] helper parses a full frame
//! into a structured view, and [`builder`] assembles common frame types in
//! one call.

mod arp;
pub mod builder;
mod checksum;
mod ethernet;
mod fields;
mod icmp;
mod ipv4;
mod tcp;
mod udp;
mod view;

pub use arp::{ArpOperation, ArpPacket, ARP_LEN};
pub use checksum::internet_checksum;
pub use ethernet::{EtherType, EthernetFrame, VlanTag, ETHERNET_HEADER_LEN};
pub use fields::{PacketFields, OFP_VLAN_NONE};
pub use icmp::{IcmpMessage, IcmpType};
pub use ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
pub use tcp::{TcpFlags, TcpSegment, TCP_HEADER_LEN};
pub use udp::{UdpDatagram, UDP_HEADER_LEN};
pub use view::{FrameView, L3View, L4View};

use std::fmt;

/// Error produced when decoding a packet from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the fixed header requires.
    Truncated {
        /// Protocol layer being decoded.
        layer: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// An IPv4 packet with a version other than 4.
    BadVersion(u8),
    /// An IPv4 IHL smaller than 5 or describing options (unsupported).
    BadHeaderLength(u8),
    /// A checksum did not verify.
    BadChecksum {
        /// Protocol layer whose checksum failed.
        layer: &'static str,
    },
    /// A length field disagrees with the available bytes.
    LengthMismatch {
        /// Protocol layer being decoded.
        layer: &'static str,
        /// Length claimed by the header.
        claimed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The EtherType or IP protocol is not one this simulator speaks.
    Unsupported {
        /// Protocol layer being decoded.
        layer: &'static str,
        /// The unrecognized discriminator value.
        value: u16,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { layer, needed, got } => {
                write!(f, "{layer}: truncated ({got} bytes, need {needed})")
            }
            CodecError::BadVersion(v) => write!(f, "ipv4: bad version {v}"),
            CodecError::BadHeaderLength(l) => write!(f, "ipv4: unsupported header length {l}"),
            CodecError::BadChecksum { layer } => write!(f, "{layer}: checksum mismatch"),
            CodecError::LengthMismatch {
                layer,
                claimed,
                available,
            } => write!(
                f,
                "{layer}: length field {claimed} vs {available} available"
            ),
            CodecError::Unsupported { layer, value } => {
                write!(f, "{layer}: unsupported protocol {value:#06x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}
