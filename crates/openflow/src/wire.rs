//! Byte-accurate OpenFlow 1.0 wire codec.
//!
//! Messages are framed with the standard `ofp_header` (version `0x01`,
//! type, length, xid); matches use the 40-byte `ofp_match` with the OF 1.0
//! wildcards bitfield; actions use the type/length TLV layout. The codec
//! covers exactly the [`OfMessage`] subset — an unknown message type decodes
//! to [`WireError::UnsupportedType`] rather than being silently skipped.
//!
//! A packet-in or packet-out carries a frame, and both of the paper's
//! compare placements send every replica copy in one: the compare link
//! (§IV, behind an Ethernet header) and the control channel to a
//! controller app (§V, behind nothing). [`packet_in_frame`] and
//! [`packet_out_frame`] write a link prefix and the message's head and
//! put them in front of the carried [`Frame`] with
//! [`Frame::encapsulating`], so the frame is shared, memo included, not
//! copied; [`read_frame`] is the one reader of either link, for such a
//! wrap and for any contiguous message alike.
//!
//! # Example
//!
//! ```
//! use netco_openflow::{wire, OfMessage};
//!
//! let wire_bytes = wire::encode(&OfMessage::Hello, 7);
//! let (msg, xid) = wire::decode_shared(&wire_bytes)?;
//! assert_eq!(msg, OfMessage::Hello);
//! assert_eq!(xid, 7);
//! # Ok::<(), wire::WireError>(())
//! ```

use std::fmt;
use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};
use netco_net::{Frame, MacAddr, MAX_ENCAP_HEAD};

use crate::action::Action;
use crate::flow_match::FlowMatch;
use crate::messages::{FlowModCommand, OfMessage, PacketInReason, PortDesc};
use crate::ports::OfPort;
use netco_net::packet::OFP_VLAN_NONE;

/// The OpenFlow version byte this codec speaks.
pub(crate) const OFP_VERSION: u8 = 0x01;
/// Length of the fixed `ofp_header`.
pub(crate) const HEADER_LEN: usize = 8;
/// Length of the `ofp_match` structure.
pub(crate) const MATCH_LEN: usize = 40;
/// `buffer_id` wire value meaning "not buffered".
pub(crate) const NO_BUFFER: u32 = 0xffff_ffff;
/// Fixed part of `ofp_packet_in` after the header (before the data).
const PACKET_IN_LEN: usize = 10;
/// Fixed part of `ofp_packet_out` after the header (before the actions).
const PACKET_OUT_LEN: usize = 8;

const OFPT_HELLO: u8 = 0;
const OFPT_FEATURES_REQUEST: u8 = 5;
const OFPT_FEATURES_REPLY: u8 = 6;
const OFPT_PACKET_IN: u8 = 10;
const OFPT_PACKET_OUT: u8 = 13;
const OFPT_FLOW_MOD: u8 = 14;
const OFPT_STATS_REQUEST: u8 = 16;
const OFPT_STATS_REPLY: u8 = 17;

/// `ofp_stats_types`: per-flow statistics.
const OFPST_FLOW: u16 = 1;
/// Fixed part of `ofp_flow_stats` (before the action list).
const FLOW_STATS_LEN: usize = 88;

// ofp_flow_wildcards bits.
const OFPFW_IN_PORT: u32 = 1 << 0;
const OFPFW_DL_VLAN: u32 = 1 << 1;
const OFPFW_DL_SRC: u32 = 1 << 2;
const OFPFW_DL_DST: u32 = 1 << 3;
const OFPFW_DL_TYPE: u32 = 1 << 4;
const OFPFW_NW_PROTO: u32 = 1 << 5;
const OFPFW_TP_SRC: u32 = 1 << 6;
const OFPFW_TP_DST: u32 = 1 << 7;
const OFPFW_NW_SRC_SHIFT: u32 = 8;
const OFPFW_NW_DST_SHIFT: u32 = 14;
const OFPFW_DL_VLAN_PCP: u32 = 1 << 20;
const OFPFW_NW_TOS: u32 = 1 << 21;

const OFPFF_SEND_FLOW_REM: u16 = 1;

const PHY_PORT_LEN: usize = 48;

/// Error produced when decoding OpenFlow wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the header or the header's claimed length.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Header version is not OpenFlow 1.0.
    BadVersion(u8),
    /// The message type is outside this codec's subset.
    UnsupportedType(u8),
    /// A length field inside the message is inconsistent.
    Malformed(&'static str),
    /// An action type outside this codec's subset.
    UnsupportedAction(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated openflow message ({got} bytes, need {needed})")
            }
            WireError::BadVersion(v) => write!(f, "unsupported openflow version {v:#04x}"),
            WireError::UnsupportedType(t) => write!(f, "unsupported message type {t}"),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
            WireError::UnsupportedAction(t) => write!(f, "unsupported action type {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes a message with the given transaction id.
pub fn encode(msg: &OfMessage, xid: u32) -> Bytes {
    let mut buf = BytesMut::new();
    match msg {
        OfMessage::PacketIn {
            buffer_id,
            in_port,
            data,
            ..
        } => {
            put_packet_in_head(&mut buf, xid, *buffer_id, *in_port, data.len());
            buf.put_slice(data);
        }
        OfMessage::PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        } => {
            put_packet_out_head(&mut buf, xid, *buffer_id, *in_port, actions, data.len());
            buf.put_slice(data);
        }
        _ => {
            buf.put_u8(OFP_VERSION);
            buf.put_u8(0); // type, patched below
            buf.put_u16(0); // length, patched below
            buf.put_u32(xid);
            buf[1] = encode_body(msg, &mut buf);
            let len = buf.len() as u16;
            buf[2..4].copy_from_slice(&len.to_be_bytes());
        }
    }
    buf.freeze()
}

/// The packet-in carrying `data` behind the link prefix `link`, `data`
/// shared, not copied.
pub fn packet_in_frame(
    link: &[u8],
    xid: u32,
    buffer_id: Option<u32>,
    in_port: u16,
    data: &Frame,
) -> Frame {
    let head_len = link.len() + HEADER_LEN + PACKET_IN_LEN;
    wrap(link, head_len, data, |b| {
        put_packet_in_head(b, xid, buffer_id, in_port, data.len())
    })
}

/// The packet-out carrying `data` behind the link prefix `link`, `data`
/// shared, not copied.
pub fn packet_out_frame(
    link: &[u8],
    xid: u32,
    buffer_id: Option<u32>,
    in_port: u16,
    actions: &[Action],
    data: &Frame,
) -> Frame {
    let head_len = link.len() + HEADER_LEN + PACKET_OUT_LEN + actions_len(actions);
    wrap(link, head_len, data, |b| {
        put_packet_out_head(b, xid, buffer_id, in_port, actions, data.len())
    })
}

/// `link`, what `put_head` writes (`head_len` bytes with `link`), then
/// `data`: a head in front of the shared `data` when it fits inline, else
/// (a long action list) one contiguous copy.
fn wrap(link: &[u8], head_len: usize, data: &Frame, put_head: impl Fn(&mut dyn BufMut)) -> Frame {
    if head_len > MAX_ENCAP_HEAD {
        let mut wire = BytesMut::from(link);
        put_head(&mut wire);
        wire.put_slice(data);
        return Frame::from(wire.freeze());
    }
    let mut head = Head([0; MAX_ENCAP_HEAD], 0);
    head.put_slice(link);
    put_head(&mut head);
    Frame::encapsulating(&head.0[..head.1], data)
}

/// A wrap's head and its length, written on the stack.
struct Head([u8; MAX_ENCAP_HEAD], usize);

impl BufMut for Head {
    fn put_slice(&mut self, src: &[u8]) {
        self.0[self.1..self.1 + src.len()].copy_from_slice(src);
        self.1 += src.len();
    }
}

/// An OpenFlow message [`read_frame`] read.
#[derive(Debug)]
pub enum FrameMessage<'a> {
    /// A packet-in or packet-out, read from its head, and the frame it
    /// carries.
    Payload(SplitHead<'a>, Frame),
    /// Any other message.
    Other(OfMessage),
}

/// Reads the OpenFlow message behind the link prefix `link` in `frame`,
/// with its transaction id; `None` when `frame` does not start with
/// `link` or the rest does not decode.
///
/// A [`packet_in_frame`] or [`packet_out_frame`] wrap is read from its
/// head and hands back the frame it carries, memo included. Any other
/// frame (a contiguous encoding, a wrap a link corrupted) is read as
/// [`decode_shared`] reads its bytes, and a packet-in's or packet-out's
/// data is a slice of them, with a fresh memo.
pub fn read_frame<'a>(link: &[u8], frame: &'a Frame) -> Option<(FrameMessage<'a>, u32)> {
    if let Some((head, inner)) = frame.encapsulated() {
        let split = head.strip_prefix(link);
        if let Some((split, xid)) = split.and_then(|h| decode_split(h, inner.len())) {
            return Some((FrameMessage::Payload(split, inner.clone()), xid));
        }
    }
    let bytes = frame.bytes();
    let msg = bytes.strip_prefix(link)?;
    let (message, xid) = decode_shared(&bytes.slice(link.len()..)).ok()?;
    let (OfMessage::PacketIn { data, .. } | OfMessage::PacketOut { data, .. }) = &message else {
        return Some((FrameMessage::Other(message), xid));
    };
    let head_len = u16::from_be_bytes([msg[2], msg[3]]) as usize - data.len();
    let (split, _) = decode_split(&msg[..head_len], data.len())?;
    Some((FrameMessage::Payload(split, Frame::new(data.clone())), xid))
}

/// Writes a packet-in's `ofp_header` and fixed part — every byte before
/// its data — into `b`. The header's length and the packet-in's
/// `total_len` count the `data_len` bytes of data the caller puts after
/// it; nothing is allocated.
fn put_packet_in_head(
    b: &mut (impl BufMut + ?Sized),
    xid: u32,
    buffer_id: Option<u32>,
    in_port: u16,
    data_len: usize,
) {
    put_header(
        b,
        OFPT_PACKET_IN,
        HEADER_LEN + PACKET_IN_LEN + data_len,
        xid,
    );
    b.put_u32(buffer_id.unwrap_or(NO_BUFFER));
    b.put_u16(data_len as u16);
    b.put_u16(in_port);
    b.put_u8(0); // reason: OFPR_NO_MATCH
    b.put_u8(0);
}

/// Writes a packet-out's `ofp_header`, fixed part and action list — every
/// byte before its data — into `b`; the header's length counts the
/// `data_len` bytes of data the caller puts after it. Nothing is
/// allocated.
fn put_packet_out_head(
    b: &mut (impl BufMut + ?Sized),
    xid: u32,
    buffer_id: Option<u32>,
    in_port: u16,
    actions: &[Action],
    data_len: usize,
) {
    let actions_len = actions_len(actions);
    let length = HEADER_LEN + PACKET_OUT_LEN + actions_len + data_len;
    put_header(b, OFPT_PACKET_OUT, length, xid);
    b.put_u32(buffer_id.unwrap_or(NO_BUFFER));
    b.put_u16(in_port);
    b.put_u16(actions_len as u16);
    encode_actions(actions, b);
}

fn put_header(b: &mut (impl BufMut + ?Sized), msg_type: u8, length: usize, xid: u32) {
    b.put_u8(OFP_VERSION);
    b.put_u8(msg_type);
    b.put_u16(length as u16);
    b.put_u32(xid);
}

/// A packet-in or packet-out read from its head alone (see
/// [`read_frame`]); the data is whatever follows the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitHead<'a> {
    /// `OFPT_PACKET_IN`.
    PacketIn {
        /// Switch buffer id, `None` when unbuffered.
        buffer_id: Option<u32>,
        /// Ingress port.
        in_port: u16,
    },
    /// `OFPT_PACKET_OUT`.
    PacketOut {
        /// Switch buffer id, `None` when the data is carried.
        buffer_id: Option<u32>,
        /// Ingress port the actions see.
        in_port: u16,
        /// The action list, already checked.
        actions: ActionList<'a>,
    },
}

impl SplitHead<'_> {
    /// The whole message this head and `data` make — what
    /// [`decode_shared`] returns for the head's bytes followed by `data`'s.
    pub fn with_data(&self, data: Bytes) -> OfMessage {
        match *self {
            SplitHead::PacketIn { buffer_id, in_port } => OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason: PacketInReason::NoMatch,
                data,
            },
            SplitHead::PacketOut {
                buffer_id,
                in_port,
                actions,
            } => OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions: actions.iter().collect(),
                data,
            },
        }
    }
}

/// A packet-out's action list on the wire, every action's type and length
/// already checked; [`iter`](ActionList::iter) decodes it without
/// allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionList<'a>(&'a [u8]);

impl<'a> ActionList<'a> {
    /// The actions, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = Action> + Clone + 'a {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (action, len) = decode_action(rest).expect("checked by decode_split");
            rest = &rest[len..];
            Some(action)
        })
    }
}

/// Reads a packet-in or packet-out from `head`, its bytes up to the data,
/// when `tail_len` bytes of data follow; returns it with its transaction
/// id.
///
/// Every check [`decode_shared`] makes on `head ++ data` is made here —
/// the version, the header's length, a packet-in's `total_len`, a
/// packet-out's `actions_len` and each action's type and length — so a
/// `Some` is exactly what `decode_shared` would return. The split must be
/// canonical as well: the header's length must be `head.len() + tail_len`
/// and the data must start right after `head`. Anything else (another
/// message type, an error, a split elsewhere) is `None`.
fn decode_split(head: &[u8], tail_len: usize) -> Option<(SplitHead<'_>, u32)> {
    if head.len() < HEADER_LEN || head[0] != OFP_VERSION {
        return None;
    }
    let length = u16::from_be_bytes([head[2], head[3]]) as usize;
    if length != head.len() + tail_len {
        return None;
    }
    let xid = u32::from_be_bytes([head[4], head[5], head[6], head[7]]);
    let split = decode_payload_head(head[1], &head[HEADER_LEN..], tail_len).ok()?;
    Some((split, xid))
}

/// Reads the body of a packet-in or packet-out up to its data — the fixed
/// part, and a packet-out's action list — when `data_len` bytes of data
/// follow. The one reader of both messages: [`decode_shared`] hands it
/// the body cut where the fields say the data starts, [`decode_split`]
/// the head as it was split, which must end exactly there.
fn decode_payload_head(
    msg_type: u8,
    body: &[u8],
    data_len: usize,
) -> Result<SplitHead<'_>, WireError> {
    let u16_at = |off: usize| u16::from_be_bytes([body[off], body[off + 1]]);
    let buffer_id = || {
        let id = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
        (id != NO_BUFFER).then_some(id)
    };
    match msg_type {
        OFPT_PACKET_IN if body.len() == PACKET_IN_LEN => {
            if u16_at(4) as usize != data_len {
                return Err(WireError::Malformed("packet-in total_len"));
            }
            // The reason byte (8) is read as `NoMatch`, whatever it holds.
            Ok(SplitHead::PacketIn {
                buffer_id: buffer_id(),
                in_port: u16_at(6),
            })
        }
        OFPT_PACKET_OUT if body.len() >= PACKET_OUT_LEN => {
            let actions = &body[PACKET_OUT_LEN..];
            if u16_at(6) as usize != actions.len() {
                return Err(WireError::Malformed("packet-out split off its actions"));
            }
            let mut rest = actions;
            while !rest.is_empty() {
                let (_, len) = decode_action(rest)?;
                rest = &rest[len..];
            }
            Ok(SplitHead::PacketOut {
                buffer_id: buffer_id(),
                in_port: u16_at(4),
                actions: ActionList(actions),
            })
        }
        OFPT_PACKET_IN | OFPT_PACKET_OUT => Err(WireError::Malformed("payload message split")),
        other => Err(WireError::UnsupportedType(other)),
    }
}

/// Parses one message; returns it with its transaction id. Payload fields
/// (`PacketIn`/`PacketOut` data) are zero-copy slices of `data`: compare
/// links carry every replicated copy of every data frame, so the decoder
/// never copies one.
///
/// This is the codec's only decoder; it keeps the `_shared` suffix because
/// the reference benchmark (`benchmark/`) calls it by that name.
///
/// # Errors
///
/// See [`WireError`].
pub fn decode_shared(data: &Bytes) -> Result<(OfMessage, u32), WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: data.len(),
        });
    }
    if data[0] != OFP_VERSION {
        return Err(WireError::BadVersion(data[0]));
    }
    let msg_type = data[1];
    let length = u16::from_be_bytes([data[2], data[3]]) as usize;
    if length < HEADER_LEN || length > data.len() {
        return Err(WireError::Truncated {
            needed: length.max(HEADER_LEN),
            got: data.len(),
        });
    }
    let xid = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    let msg = decode_body(msg_type, data, length)?;
    Ok((msg, xid))
}

fn encode_body(msg: &OfMessage, b: &mut BytesMut) -> u8 {
    match msg {
        OfMessage::Hello => OFPT_HELLO,
        OfMessage::FeaturesRequest => OFPT_FEATURES_REQUEST,
        OfMessage::FeaturesReply {
            datapath_id,
            n_buffers,
            n_tables,
            ports,
        } => {
            b.put_u64(*datapath_id);
            b.put_u32(*n_buffers);
            b.put_u8(*n_tables);
            b.put_slice(&[0; 3]);
            b.put_u32(0); // capabilities
            b.put_u32(0); // supported actions bitmap (informational)
            for p in ports {
                b.put_u16(p.port_no);
                b.put_slice(&p.hw_addr.octets());
                let mut name = [0u8; 16];
                let n = p.name.len().min(15);
                name[..n].copy_from_slice(&p.name.as_bytes()[..n]);
                b.put_slice(&name);
                b.put_slice(&[0; 24]); // config/state/curr/advertised/supported/peer
            }
            OFPT_FEATURES_REPLY
        }
        OfMessage::PacketIn { .. } | OfMessage::PacketOut { .. } => {
            unreachable!("encode writes payload messages through their heads")
        }
        OfMessage::FlowMod {
            command,
            matcher,
            priority,
            idle_timeout_s,
            hard_timeout_s,
            cookie,
            notify_when_removed,
            actions,
            buffer_id,
        } => {
            encode_match(matcher, b);
            b.put_u64(*cookie);
            b.put_u16(match command {
                FlowModCommand::Add => 0,
                FlowModCommand::Modify => 1,
                FlowModCommand::ModifyStrict => 2,
                FlowModCommand::Delete => 3,
                FlowModCommand::DeleteStrict => 4,
            });
            b.put_u16(*idle_timeout_s);
            b.put_u16(*hard_timeout_s);
            b.put_u16(*priority);
            b.put_u32(buffer_id.unwrap_or(NO_BUFFER));
            b.put_u16(OfPort::None.to_u16()); // out_port filter (unused)
            b.put_u16(if *notify_when_removed {
                OFPFF_SEND_FLOW_REM
            } else {
                0
            });
            encode_actions(actions, b);
            OFPT_FLOW_MOD
        }
        OfMessage::FlowStatsRequest { matcher } => {
            b.put_u16(OFPST_FLOW);
            b.put_u16(0); // flags
            encode_match(matcher, b);
            b.put_u8(0xff); // table_id: all tables
            b.put_u8(0); // pad
            b.put_u16(OfPort::None.to_u16()); // out_port filter (unused)
            OFPT_STATS_REQUEST
        }
        OfMessage::FlowStatsReply { flows } => {
            b.put_u16(OFPST_FLOW);
            b.put_u16(0); // flags: no more replies
            for f in flows {
                b.put_u16((FLOW_STATS_LEN + actions_len(&f.actions)) as u16);
                b.put_u8(0); // table_id
                b.put_u8(0); // pad
                encode_match(&f.matcher, b);
                b.put_u32(0); // duration_sec
                b.put_u32(0); // duration_nsec
                b.put_u16(f.priority);
                b.put_u16(0); // idle_timeout
                b.put_u16(0); // hard_timeout
                b.put_slice(&[0; 6]);
                b.put_u64(f.cookie);
                b.put_u64(f.packet_count);
                b.put_u64(f.byte_count);
                encode_actions(&f.actions, b);
            }
            OFPT_STATS_REPLY
        }
    }
}

/// Decodes the body `data[HEADER_LEN..length]`; payload fields are slices
/// of `data`.
fn decode_body(msg_type: u8, data: &Bytes, length: usize) -> Result<OfMessage, WireError> {
    let body = &data[HEADER_LEN..length];
    let payload = |from: usize| data.slice(HEADER_LEN + from..length);
    fn need(body: &[u8], n: usize) -> Result<(), WireError> {
        if body.len() < n {
            Err(WireError::Truncated {
                needed: n,
                got: body.len(),
            })
        } else {
            Ok(())
        }
    }
    fn u16_at(b: &[u8], off: usize) -> u16 {
        u16::from_be_bytes([b[off], b[off + 1]])
    }
    fn u32_at(b: &[u8], off: usize) -> u32 {
        u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
    }
    fn u64_at(b: &[u8], off: usize) -> u64 {
        let mut v = [0u8; 8];
        v.copy_from_slice(&b[off..off + 8]);
        u64::from_be_bytes(v)
    }

    Ok(match msg_type {
        OFPT_HELLO => OfMessage::Hello,
        OFPT_FEATURES_REQUEST => OfMessage::FeaturesRequest,
        OFPT_FEATURES_REPLY => {
            need(body, 24)?;
            let ports_bytes = &body[24..];
            if !ports_bytes.len().is_multiple_of(PHY_PORT_LEN) {
                return Err(WireError::Malformed("features-reply port list length"));
            }
            let ports = ports_bytes
                .chunks_exact(PHY_PORT_LEN)
                .map(|c| {
                    let name_end = c[8..24].iter().position(|&b| b == 0).unwrap_or(16);
                    PortDesc {
                        port_no: u16::from_be_bytes([c[0], c[1]]),
                        hw_addr: MacAddr([c[2], c[3], c[4], c[5], c[6], c[7]]),
                        name: String::from_utf8_lossy(&c[8..8 + name_end]).into_owned(),
                    }
                })
                .collect();
            OfMessage::FeaturesReply {
                datapath_id: u64_at(body, 0),
                n_buffers: u32_at(body, 8),
                n_tables: body[12],
                ports,
            }
        }
        OFPT_PACKET_IN => {
            need(body, PACKET_IN_LEN)?;
            let head = &body[..PACKET_IN_LEN];
            decode_payload_head(msg_type, head, body.len() - PACKET_IN_LEN)?
                .with_data(payload(PACKET_IN_LEN))
        }
        OFPT_PACKET_OUT => {
            need(body, PACKET_OUT_LEN)?;
            let head_len = PACKET_OUT_LEN + u16_at(body, 6) as usize;
            need(body, head_len)?;
            decode_payload_head(msg_type, &body[..head_len], body.len() - head_len)?
                .with_data(payload(head_len))
        }
        OFPT_FLOW_MOD => {
            need(body, MATCH_LEN + 24)?;
            let matcher = decode_match(&body[..MATCH_LEN])?;
            let cookie = u64_at(body, MATCH_LEN);
            let command = match u16_at(body, MATCH_LEN + 8) {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                _ => return Err(WireError::Malformed("flow-mod command")),
            };
            let buffer_id = u32_at(body, MATCH_LEN + 16);
            OfMessage::FlowMod {
                command,
                matcher,
                priority: u16_at(body, MATCH_LEN + 14),
                idle_timeout_s: u16_at(body, MATCH_LEN + 10),
                hard_timeout_s: u16_at(body, MATCH_LEN + 12),
                cookie,
                notify_when_removed: u16_at(body, MATCH_LEN + 22) & OFPFF_SEND_FLOW_REM != 0,
                actions: decode_actions(&body[MATCH_LEN + 24..])?,
                buffer_id: (buffer_id != NO_BUFFER).then_some(buffer_id),
            }
        }
        OFPT_STATS_REQUEST => {
            need(body, 4 + MATCH_LEN + 4)?;
            if u16_at(body, 0) != OFPST_FLOW {
                return Err(WireError::UnsupportedType(OFPT_STATS_REQUEST));
            }
            OfMessage::FlowStatsRequest {
                matcher: decode_match(&body[4..4 + MATCH_LEN])?,
            }
        }
        OFPT_STATS_REPLY => {
            need(body, 4)?;
            if u16_at(body, 0) != OFPST_FLOW {
                return Err(WireError::UnsupportedType(OFPT_STATS_REPLY));
            }
            let mut flows = Vec::new();
            let mut rest = &body[4..];
            while !rest.is_empty() {
                if rest.len() < FLOW_STATS_LEN {
                    return Err(WireError::Malformed("flow-stats entry length"));
                }
                let entry_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                if entry_len < FLOW_STATS_LEN || entry_len > rest.len() {
                    return Err(WireError::Malformed("flow-stats entry length"));
                }
                let matcher = decode_match(&rest[4..4 + MATCH_LEN])?;
                flows.push(crate::messages::FlowStats {
                    matcher,
                    priority: u16::from_be_bytes([rest[52], rest[53]]),
                    cookie: u64_at(rest, 64),
                    packet_count: u64_at(rest, 72),
                    byte_count: u64_at(rest, 80),
                    actions: decode_actions(&rest[FLOW_STATS_LEN..entry_len])?,
                });
                rest = &rest[entry_len..];
            }
            OfMessage::FlowStatsReply { flows }
        }
        other => return Err(WireError::UnsupportedType(other)),
    })
}

fn encode_match(m: &FlowMatch, b: &mut BytesMut) {
    let mut wildcards = 0u32;
    if m.in_port.is_none() {
        wildcards |= OFPFW_IN_PORT;
    }
    if m.dl_vlan.is_none() {
        wildcards |= OFPFW_DL_VLAN;
    }
    if m.dl_src.is_none() {
        wildcards |= OFPFW_DL_SRC;
    }
    if m.dl_dst.is_none() {
        wildcards |= OFPFW_DL_DST;
    }
    if m.dl_type.is_none() {
        wildcards |= OFPFW_DL_TYPE;
    }
    if m.nw_proto.is_none() {
        wildcards |= OFPFW_NW_PROTO;
    }
    if m.tp_src.is_none() {
        wildcards |= OFPFW_TP_SRC;
    }
    if m.tp_dst.is_none() {
        wildcards |= OFPFW_TP_DST;
    }
    if m.nw_src.is_none() {
        wildcards |= 32 << OFPFW_NW_SRC_SHIFT;
    }
    if m.nw_dst.is_none() {
        wildcards |= 32 << OFPFW_NW_DST_SHIFT;
    }
    if m.dl_vlan_pcp.is_none() {
        wildcards |= OFPFW_DL_VLAN_PCP;
    }
    if m.nw_tos.is_none() {
        wildcards |= OFPFW_NW_TOS;
    }
    b.put_u32(wildcards);
    b.put_u16(m.in_port.unwrap_or(0));
    b.put_slice(&m.dl_src.unwrap_or(MacAddr::ZERO).octets());
    b.put_slice(&m.dl_dst.unwrap_or(MacAddr::ZERO).octets());
    b.put_u16(m.dl_vlan.unwrap_or(OFP_VLAN_NONE));
    b.put_u8(m.dl_vlan_pcp.unwrap_or(0));
    b.put_u8(0); // pad
    b.put_u16(m.dl_type.unwrap_or(0));
    b.put_u8(m.nw_tos.unwrap_or(0));
    b.put_u8(m.nw_proto.unwrap_or(0));
    b.put_slice(&[0; 2]); // pad
    b.put_slice(&m.nw_src.unwrap_or(Ipv4Addr::UNSPECIFIED).octets());
    b.put_slice(&m.nw_dst.unwrap_or(Ipv4Addr::UNSPECIFIED).octets());
    b.put_u16(m.tp_src.unwrap_or(0));
    b.put_u16(m.tp_dst.unwrap_or(0));
}

fn decode_match(b: &[u8]) -> Result<FlowMatch, WireError> {
    if b.len() < MATCH_LEN {
        return Err(WireError::Truncated {
            needed: MATCH_LEN,
            got: b.len(),
        });
    }
    let w = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
    let nw_src_wild = (w >> OFPFW_NW_SRC_SHIFT) & 0x3f;
    let nw_dst_wild = (w >> OFPFW_NW_DST_SHIFT) & 0x3f;
    let field = |bit: u32| w & bit == 0;
    Ok(FlowMatch {
        in_port: field(OFPFW_IN_PORT).then(|| u16::from_be_bytes([b[4], b[5]])),
        dl_src: field(OFPFW_DL_SRC).then(|| MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]])),
        dl_dst: field(OFPFW_DL_DST).then(|| MacAddr([b[12], b[13], b[14], b[15], b[16], b[17]])),
        dl_vlan: field(OFPFW_DL_VLAN).then(|| u16::from_be_bytes([b[18], b[19]])),
        dl_vlan_pcp: field(OFPFW_DL_VLAN_PCP).then(|| b[20]),
        dl_type: field(OFPFW_DL_TYPE).then(|| u16::from_be_bytes([b[22], b[23]])),
        nw_tos: field(OFPFW_NW_TOS).then(|| b[24]),
        nw_proto: field(OFPFW_NW_PROTO).then(|| b[25]),
        nw_src: (nw_src_wild == 0).then(|| Ipv4Addr::new(b[28], b[29], b[30], b[31])),
        nw_dst: (nw_dst_wild == 0).then(|| Ipv4Addr::new(b[32], b[33], b[34], b[35])),
        tp_src: field(OFPFW_TP_SRC).then(|| u16::from_be_bytes([b[36], b[37]])),
        tp_dst: field(OFPFW_TP_DST).then(|| u16::from_be_bytes([b[38], b[39]])),
    })
}

/// Encodes a single action to its wire bytes (the canonicalizer's sort
/// key: a total, codec-defined order over actions).
pub(crate) fn encode_one_action(action: &Action) -> Bytes {
    let mut b = BytesMut::with_capacity(action_len(action));
    encode_actions(std::slice::from_ref(action), &mut b);
    b.freeze()
}

/// Wire length of one action.
fn action_len(action: &Action) -> usize {
    match action {
        Action::SetDlDst(_) => 16,
        _ => 8,
    }
}

/// Wire length of an action list.
fn actions_len(actions: &[Action]) -> usize {
    actions.iter().map(action_len).sum()
}

fn encode_actions(actions: &[Action], b: &mut (impl BufMut + ?Sized)) {
    for a in actions {
        let len = action_len(a) as u16;
        match a {
            Action::Output(port) => {
                b.put_u16(0); // OFPAT_OUTPUT
                b.put_u16(len);
                b.put_u16(port.to_u16());
                b.put_u16(0xffff); // max_len for controller sends
            }
            Action::SetVlanVid(vid) => {
                b.put_u16(1); // OFPAT_SET_VLAN_VID
                b.put_u16(len);
                b.put_u16(*vid);
                b.put_slice(&[0; 2]);
            }
            Action::StripVlan => {
                b.put_u16(3); // OFPAT_STRIP_VLAN
                b.put_u16(len);
                b.put_slice(&[0; 4]);
            }
            Action::SetDlDst(mac) => {
                b.put_u16(5); // OFPAT_SET_DL_DST
                b.put_u16(len);
                b.put_slice(&mac.octets());
                b.put_slice(&[0; 6]);
            }
        }
    }
}

fn decode_actions(mut b: &[u8]) -> Result<Vec<Action>, WireError> {
    let mut actions = Vec::new();
    while !b.is_empty() {
        let (action, len) = decode_action(b)?;
        actions.push(action);
        b = &b[len..];
    }
    Ok(actions)
}

/// Decodes the action at the front of `b`; returns it with its wire length.
fn decode_action(b: &[u8]) -> Result<(Action, usize), WireError> {
    if b.len() < 4 {
        return Err(WireError::Malformed("action header"));
    }
    let t = u16::from_be_bytes([b[0], b[1]]);
    let len = u16::from_be_bytes([b[2], b[3]]) as usize;
    if len < 8 || !len.is_multiple_of(8) || len > b.len() {
        return Err(WireError::Malformed("action length"));
    }
    let body = &b[4..len];
    let action = match t {
        0 => Action::Output(OfPort::from_u16(u16::from_be_bytes([body[0], body[1]]))),
        1 => Action::SetVlanVid(u16::from_be_bytes([body[0], body[1]])),
        3 => Action::StripVlan,
        5 => {
            if body.len() < 6 {
                return Err(WireError::Malformed("dl action length"));
            }
            Action::SetDlDst(MacAddr([
                body[0], body[1], body[2], body[3], body[4], body[5],
            ]))
        }
        other => return Err(WireError::UnsupportedAction(other)),
    };
    Ok((action, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: OfMessage) {
        let wire = encode(&msg, 0x1234_5678);
        let (back, xid) = decode_shared(&wire).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(xid, 0x1234_5678);
        // Header sanity.
        assert_eq!(wire[0], OFP_VERSION);
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]) as usize, wire.len());
    }

    #[test]
    fn simple_messages() {
        round_trip(OfMessage::Hello);
        round_trip(OfMessage::FeaturesRequest);
    }

    #[test]
    fn features_reply_with_ports() {
        round_trip(OfMessage::FeaturesReply {
            datapath_id: 0xabcdef,
            n_buffers: 256,
            n_tables: 1,
            ports: vec![
                PortDesc {
                    port_no: 1,
                    hw_addr: MacAddr::local(1),
                    name: "eth1".to_string(),
                },
                PortDesc {
                    port_no: 2,
                    hw_addr: MacAddr::local(2),
                    name: "eth2".to_string(),
                },
            ],
        });
    }

    #[test]
    fn packet_in_round_trip() {
        round_trip(OfMessage::PacketIn {
            buffer_id: Some(42),
            in_port: 3,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"frame bytes here"),
        });
        round_trip(OfMessage::PacketIn {
            buffer_id: None,
            in_port: 0,
            reason: PacketInReason::NoMatch,
            data: Bytes::new(),
        });
    }

    #[test]
    fn any_packet_in_reason_byte_reads_as_no_match() {
        let msg = OfMessage::PacketIn {
            buffer_id: None,
            in_port: 5,
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(b"copy"),
        };
        let mut wire = BytesMut::from(&encode(&msg, 7)[..]);
        // ofp_header (8), buffer_id (4), total_len (2), in_port (2): reason.
        assert_eq!(wire[16], 0, "written as OFPR_NO_MATCH");
        wire[16] = 1; // OFPR_ACTION
        assert_eq!(decode_shared(&wire.freeze()), Ok((msg, 7)));
    }

    #[test]
    fn packet_out_round_trip() {
        round_trip(OfMessage::PacketOut {
            buffer_id: None,
            in_port: OfPort::None.to_u16(),
            actions: vec![
                Action::Output(OfPort::Physical(2)),
                Action::Output(OfPort::Flood),
            ],
            data: Bytes::from_static(b"payload"),
        });
        round_trip(OfMessage::PacketOut {
            buffer_id: Some(7),
            in_port: 1,
            actions: vec![],
            data: Bytes::new(),
        });
    }

    #[test]
    fn flow_mod_round_trip() {
        round_trip(OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: FlowMatch::any()
                .with_in_port(1)
                .with_dl_dst(MacAddr::local(7))
                .with_dl_type(0x0800)
                .with_nw_dst(Ipv4Addr::new(10, 0, 0, 2))
                .with_tp_dst(80),
            priority: 1000,
            idle_timeout_s: 30,
            hard_timeout_s: 300,
            cookie: 0xfeed,
            notify_when_removed: true,
            actions: vec![
                Action::SetVlanVid(7),
                Action::SetDlDst(MacAddr::local(2)),
                Action::StripVlan,
                Action::Output(OfPort::Flood),
            ],
            buffer_id: Some(55),
        });
        round_trip(OfMessage::FlowMod {
            command: FlowModCommand::DeleteStrict,
            matcher: FlowMatch::any(),
            priority: 0,
            idle_timeout_s: 0,
            hard_timeout_s: 0,
            cookie: 0,
            notify_when_removed: false,
            actions: vec![],
            buffer_id: None,
        });
    }

    #[test]
    fn flow_stats_round_trip() {
        round_trip(OfMessage::FlowStatsRequest {
            matcher: FlowMatch::any().with_dl_dst(MacAddr::local(4)),
        });
        round_trip(OfMessage::FlowStatsReply { flows: vec![] });
        round_trip(OfMessage::FlowStatsReply {
            flows: vec![
                crate::messages::FlowStats {
                    matcher: FlowMatch::any().with_dl_dst(MacAddr::local(1)),
                    priority: 100,
                    cookie: 0xabc,
                    packet_count: 1234,
                    byte_count: 99999,
                    actions: vec![Action::Output(OfPort::Physical(2))],
                },
                crate::messages::FlowStats {
                    matcher: FlowMatch::any(),
                    priority: 1,
                    cookie: 0,
                    packet_count: 0,
                    byte_count: 0,
                    actions: vec![],
                },
            ],
        });
    }

    #[test]
    fn rejects_bad_version() {
        let mut wire = encode(&OfMessage::Hello, 0).to_vec();
        wire[0] = 0x04;
        assert_eq!(
            decode_shared(&wire.into()),
            Err(WireError::BadVersion(0x04))
        );
    }

    #[test]
    fn rejects_truncation() {
        let wire = encode(&OfMessage::FeaturesRequest, 0);
        assert!(matches!(
            decode_shared(&wire.slice(..4)),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut wire = encode(&OfMessage::Hello, 0).to_vec();
        wire[1] = 9; // OFPT_SET_CONFIG, outside the subset
        assert_eq!(
            decode_shared(&wire.into()),
            Err(WireError::UnsupportedType(9))
        );
    }

    #[test]
    fn rejects_garbage_actions() {
        let msg = OfMessage::PacketOut {
            buffer_id: None,
            in_port: 0,
            actions: vec![Action::Output(OfPort::Physical(1))],
            data: Bytes::new(),
        };
        let mut wire = encode(&msg, 0).to_vec();
        wire[HEADER_LEN + 8] = 0xff; // corrupt the action type
        wire[HEADER_LEN + 9] = 0xff;
        assert!(matches!(
            decode_shared(&wire.into()),
            Err(WireError::UnsupportedAction(0xffff))
        ));
    }

    #[test]
    fn match_wildcards_encode_correctly() {
        // Fully wildcarded match sets every wildcard bit we use.
        let mut b = BytesMut::new();
        encode_match(&FlowMatch::any(), &mut b);
        let m = decode_match(&b).unwrap();
        assert_eq!(m, FlowMatch::any());
        assert_eq!(b.len(), MATCH_LEN);
    }
}
