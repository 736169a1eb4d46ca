//! TCP segments (RFC 793, option-free headers).

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::{BitOr, BitOrAssign};

use bytes::{BufMut, Bytes, BytesMut};

use super::checksum::{add_fold, finish, sum_words};
use super::{CodecError, IpProtocol, Ipv4Packet};

/// Length of an option-free TCP header.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags (a typed subset of the flags byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN — sender is finished.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN — synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST — reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH — push buffered data.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK — acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG — urgent pointer valid. This stack never sends urgent data;
    /// the simulated endpoints reuse the bit as a compact stand-in for an
    /// RFC 2883 DSACK block ("this ACK was triggered by duplicate
    /// delivery").
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// `true` when every flag in `other` is also set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// The raw flags byte.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Builds flags from a raw byte (unknown bits preserved).
    pub fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags(bits)
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A decoded TCP segment.
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::packet::{TcpFlags, TcpSegment};
///
/// let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
/// let seg = TcpSegment {
///     src_port: 4000,
///     dst_port: 5001,
///     seq: 1000,
///     ack: 0,
///     flags: TcpFlags::SYN,
///     window: 65535,
///     payload: bytes::Bytes::new(),
/// };
/// let wire = seg.encode(src, dst);
/// assert_eq!(TcpSegment::decode(&wire, src, dst)?, seg);
/// # Ok::<(), netco_net::packet::CodecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (valid when [`TcpFlags::ACK`] is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window (bytes).
    pub window: u16,
    /// Segment payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Serializes the segment, computing the pseudo-header checksum.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = TCP_HEADER_LEN + self.payload.len();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8((5u8) << 4); // data offset 5 words, no options
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer
        buf.put_slice(&self.payload);
        let ph = Ipv4Packet::pseudo_header(src, dst, IpProtocol::Tcp, len);
        let mut sum = sum_words(&ph);
        sum = add_fold(sum, sum_words(&buf));
        let ck = finish(sum);
        buf[16..18].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }

    /// Parses a segment from L4 bytes, verifying the checksum. The payload
    /// is a zero-copy slice of `data`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::BadHeaderLength`] (options
    /// unsupported) or [`CodecError::BadChecksum`].
    pub fn decode(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<TcpSegment, CodecError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(CodecError::Truncated {
                layer: "tcp",
                needed: TCP_HEADER_LEN,
                got: data.len(),
            });
        }
        let data_off = (data[12] >> 4) as usize;
        if data_off != 5 {
            return Err(CodecError::BadHeaderLength(data_off as u8));
        }
        let ph = Ipv4Packet::pseudo_header(src, dst, IpProtocol::Tcp, data.len());
        let mut sum = sum_words(&ph);
        sum = add_fold(sum, sum_words(data));
        if finish(sum) != 0 {
            return Err(CodecError::BadChecksum { layer: "tcp" });
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_bits(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            payload: data.slice(TCP_HEADER_LEN..),
        })
    }

    /// Total encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + self.payload.len()
    }

    /// Sequence space consumed by this segment (payload plus SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);

    fn sample() -> TcpSegment {
        TcpSegment {
            src_port: 40000,
            dst_port: 5001,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 29200,
            payload: Bytes::from_static(b"segment data"),
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let wire = s.encode(SRC, DST);
        assert_eq!(wire.len(), s.wire_len());
        assert_eq!(TcpSegment::decode(&wire, SRC, DST).unwrap(), s);
    }

    #[test]
    fn corruption_detected() {
        let mut wire = sample().encode(SRC, DST).to_vec();
        wire[5] ^= 0x40; // clobber the sequence number
        assert_eq!(
            TcpSegment::decode(&wire.into(), SRC, DST),
            Err(CodecError::BadChecksum { layer: "tcp" })
        );
    }

    #[test]
    fn wrong_endpoints_detected() {
        let wire = sample().encode(SRC, DST);
        assert_eq!(
            TcpSegment::decode(&wire, SRC, Ipv4Addr::new(10, 1, 0, 99)),
            Err(CodecError::BadChecksum { layer: "tcp" })
        );
    }

    #[test]
    fn options_rejected() {
        let mut wire = sample().encode(SRC, DST).to_vec();
        wire[12] = 6 << 4;
        assert!(matches!(
            TcpSegment::decode(&wire.into(), SRC, DST),
            Err(CodecError::BadHeaderLength(6))
        ));
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut s = sample();
        assert_eq!(s.seq_len(), 12);
        s.flags |= TcpFlags::SYN;
        assert_eq!(s.seq_len(), 13);
        s.flags |= TcpFlags::FIN;
        assert_eq!(s.seq_len(), 14);
    }

    #[test]
    fn flags_display_and_contains() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(f.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }

    #[test]
    fn truncated_rejected() {
        let wire = sample().encode(SRC, DST);
        assert!(matches!(
            TcpSegment::decode(&wire.slice(..10), SRC, DST),
            Err(CodecError::Truncated { .. })
        ));
    }
}
