//! Byte-accurate OpenFlow 1.0 wire codec.
//!
//! Messages are framed with the standard `ofp_header` (version `0x01`,
//! type, length, xid); matches use the 40-byte `ofp_match` with the OF 1.0
//! wildcards bitfield; actions use the type/length TLV layout. The codec
//! covers exactly the [`OfMessage`] subset — an unknown message type decodes
//! to [`WireError::UnsupportedType`] rather than being silently skipped.
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
use netco_net::MacAddr;

use crate::action::Action;
use crate::flow_match::FlowMatch;
use crate::flow_table::FlowRemovedReason;
use crate::messages::{FlowModCommand, OfMessage, PacketInReason, PortDesc};
use crate::ports::OfPort;
use netco_net::packet::OFP_VLAN_NONE;

/// The OpenFlow version byte this codec speaks.
pub const OFP_VERSION: u8 = 0x01;
/// Length of the fixed `ofp_header`.
pub const HEADER_LEN: usize = 8;
/// Length of the `ofp_match` structure.
pub const MATCH_LEN: usize = 40;
/// `buffer_id` wire value meaning "not buffered".
pub const NO_BUFFER: u32 = 0xffff_ffff;

const OFPT_HELLO: u8 = 0;
const OFPT_ERROR: u8 = 1;
const OFPT_ECHO_REQUEST: u8 = 2;
const OFPT_ECHO_REPLY: u8 = 3;
const OFPT_FEATURES_REQUEST: u8 = 5;
const OFPT_FEATURES_REPLY: u8 = 6;
const OFPT_PACKET_IN: u8 = 10;
const OFPT_FLOW_REMOVED: u8 = 11;
const OFPT_PACKET_OUT: u8 = 13;
const OFPT_FLOW_MOD: u8 = 14;
const OFPT_STATS_REQUEST: u8 = 16;
const OFPT_STATS_REPLY: u8 = 17;
const OFPT_BARRIER_REQUEST: u8 = 18;
const OFPT_BARRIER_REPLY: u8 = 19;

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
    encode_into(msg, xid, &mut buf);
    buf.freeze()
}

/// Serializes a message with the given transaction id, appending to `buf`.
///
/// Avoids the intermediate body allocation of [`encode`]; callers that frame
/// OpenFlow inside another protocol can write everything into one buffer.
pub fn encode_into(msg: &OfMessage, xid: u32, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u8(OFP_VERSION);
    buf.put_u8(0); // type, patched below
    buf.put_u16(0); // length, patched below
    buf.put_u32(xid);
    let msg_type = encode_body(msg, buf);
    buf[start + 1] = msg_type;
    let len = (buf.len() - start) as u16;
    buf[start + 2..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Parses one message; returns it with its transaction id. Payload fields
/// (`PacketIn`/`PacketOut` data, echo/error payloads) are zero-copy slices
/// of `data`: compare links carry every replicated copy of every data
/// frame, so the decoder never copies one.
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
        OfMessage::EchoRequest(data) => {
            b.put_slice(data);
            OFPT_ECHO_REQUEST
        }
        OfMessage::EchoReply(data) => {
            b.put_slice(data);
            OFPT_ECHO_REPLY
        }
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
        OfMessage::PacketIn {
            buffer_id,
            in_port,
            reason,
            data,
        } => {
            b.put_u32(buffer_id.unwrap_or(NO_BUFFER));
            b.put_u16(data.len() as u16);
            b.put_u16(*in_port);
            b.put_u8(match reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            b.put_u8(0);
            b.put_slice(data);
            OFPT_PACKET_IN
        }
        OfMessage::PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        } => {
            let acts = encode_actions(actions);
            b.put_u32(buffer_id.unwrap_or(NO_BUFFER));
            b.put_u16(*in_port);
            b.put_u16(acts.len() as u16);
            b.put_slice(&acts);
            b.put_slice(data);
            OFPT_PACKET_OUT
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
            b.put_slice(&encode_actions(actions));
            OFPT_FLOW_MOD
        }
        OfMessage::FlowRemoved {
            matcher,
            cookie,
            priority,
            reason,
            packet_count,
            byte_count,
        } => {
            encode_match(matcher, b);
            b.put_u64(*cookie);
            b.put_u16(*priority);
            b.put_u8(match reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            b.put_u8(0);
            b.put_u32(0); // duration_sec
            b.put_u32(0); // duration_nsec
            b.put_u16(0); // idle_timeout
            b.put_slice(&[0; 2]);
            b.put_u64(*packet_count);
            b.put_u64(*byte_count);
            OFPT_FLOW_REMOVED
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
                let acts = encode_actions(&f.actions);
                b.put_u16((FLOW_STATS_LEN + acts.len()) as u16);
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
                b.put_slice(&acts);
            }
            OFPT_STATS_REPLY
        }
        OfMessage::BarrierRequest => OFPT_BARRIER_REQUEST,
        OfMessage::BarrierReply => OFPT_BARRIER_REPLY,
        OfMessage::Error {
            err_type,
            code,
            data,
        } => {
            b.put_u16(*err_type);
            b.put_u16(*code);
            b.put_slice(data);
            OFPT_ERROR
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
        OFPT_ECHO_REQUEST => OfMessage::EchoRequest(payload(0)),
        OFPT_ECHO_REPLY => OfMessage::EchoReply(payload(0)),
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
            need(body, 10)?;
            let buffer_id = u32_at(body, 0);
            let total_len = u16_at(body, 4) as usize;
            let data = &body[10..];
            if total_len != data.len() {
                return Err(WireError::Malformed("packet-in total_len"));
            }
            OfMessage::PacketIn {
                buffer_id: (buffer_id != NO_BUFFER).then_some(buffer_id),
                in_port: u16_at(body, 6),
                reason: if body[8] == 0 {
                    PacketInReason::NoMatch
                } else {
                    PacketInReason::Action
                },
                data: payload(10),
            }
        }
        OFPT_PACKET_OUT => {
            need(body, 8)?;
            let buffer_id = u32_at(body, 0);
            let actions_len = u16_at(body, 6) as usize;
            need(body, 8 + actions_len)?;
            let actions = decode_actions(&body[8..8 + actions_len])?;
            OfMessage::PacketOut {
                buffer_id: (buffer_id != NO_BUFFER).then_some(buffer_id),
                in_port: u16_at(body, 4),
                actions,
                data: payload(8 + actions_len),
            }
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
        OFPT_FLOW_REMOVED => {
            need(body, MATCH_LEN + 40)?;
            let matcher = decode_match(&body[..MATCH_LEN])?;
            OfMessage::FlowRemoved {
                matcher,
                cookie: u64_at(body, MATCH_LEN),
                priority: u16_at(body, MATCH_LEN + 8),
                reason: match body[MATCH_LEN + 10] {
                    0 => FlowRemovedReason::IdleTimeout,
                    1 => FlowRemovedReason::HardTimeout,
                    _ => FlowRemovedReason::Delete,
                },
                packet_count: u64_at(body, MATCH_LEN + 24),
                byte_count: u64_at(body, MATCH_LEN + 32),
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
        OFPT_BARRIER_REQUEST => OfMessage::BarrierRequest,
        OFPT_BARRIER_REPLY => OfMessage::BarrierReply,
        OFPT_ERROR => {
            need(body, 4)?;
            OfMessage::Error {
                err_type: u16_at(body, 0),
                code: u16_at(body, 2),
                data: payload(4),
            }
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
    encode_actions(std::slice::from_ref(action))
}

fn encode_actions(actions: &[Action]) -> Bytes {
    let mut b = BytesMut::new();
    for a in actions {
        match a {
            Action::Output(port) => {
                b.put_u16(0); // OFPAT_OUTPUT
                b.put_u16(8);
                b.put_u16(port.to_u16());
                b.put_u16(0xffff); // max_len for controller sends
            }
            Action::SetVlanVid(vid) => {
                b.put_u16(1); // OFPAT_SET_VLAN_VID
                b.put_u16(8);
                b.put_u16(*vid);
                b.put_slice(&[0; 2]);
            }
            Action::StripVlan => {
                b.put_u16(3); // OFPAT_STRIP_VLAN
                b.put_u16(8);
                b.put_slice(&[0; 4]);
            }
            Action::SetDlSrc(mac) => {
                b.put_u16(4); // OFPAT_SET_DL_SRC
                b.put_u16(16);
                b.put_slice(&mac.octets());
                b.put_slice(&[0; 6]);
            }
            Action::SetDlDst(mac) => {
                b.put_u16(5); // OFPAT_SET_DL_DST
                b.put_u16(16);
                b.put_slice(&mac.octets());
                b.put_slice(&[0; 6]);
            }
            Action::SetNwSrc(ip) => {
                b.put_u16(6); // OFPAT_SET_NW_SRC
                b.put_u16(8);
                b.put_slice(&ip.octets());
            }
            Action::SetNwDst(ip) => {
                b.put_u16(7); // OFPAT_SET_NW_DST
                b.put_u16(8);
                b.put_slice(&ip.octets());
            }
            Action::SetTpSrc(port) => {
                b.put_u16(9); // OFPAT_SET_TP_SRC
                b.put_u16(8);
                b.put_u16(*port);
                b.put_slice(&[0; 2]);
            }
            Action::SetTpDst(port) => {
                b.put_u16(10); // OFPAT_SET_TP_DST
                b.put_u16(8);
                b.put_u16(*port);
                b.put_slice(&[0; 2]);
            }
        }
    }
    b.freeze()
}

fn decode_actions(mut b: &[u8]) -> Result<Vec<Action>, WireError> {
    let mut actions = Vec::new();
    while !b.is_empty() {
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
            4 | 5 => {
                if body.len() < 6 {
                    return Err(WireError::Malformed("dl action length"));
                }
                let mac = MacAddr([body[0], body[1], body[2], body[3], body[4], body[5]]);
                if t == 4 {
                    Action::SetDlSrc(mac)
                } else {
                    Action::SetDlDst(mac)
                }
            }
            6 | 7 => {
                let ip = Ipv4Addr::new(body[0], body[1], body[2], body[3]);
                if t == 6 {
                    Action::SetNwSrc(ip)
                } else {
                    Action::SetNwDst(ip)
                }
            }
            9 => Action::SetTpSrc(u16::from_be_bytes([body[0], body[1]])),
            10 => Action::SetTpDst(u16::from_be_bytes([body[0], body[1]])),
            other => return Err(WireError::UnsupportedAction(other)),
        };
        actions.push(action);
        b = &b[len..];
    }
    Ok(actions)
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
        round_trip(OfMessage::BarrierRequest);
        round_trip(OfMessage::BarrierReply);
        round_trip(OfMessage::EchoRequest(Bytes::from_static(b"ping")));
        round_trip(OfMessage::EchoReply(Bytes::from_static(b"ping")));
        round_trip(OfMessage::Error {
            err_type: 1,
            code: 2,
            data: Bytes::from_static(b"bad message prefix"),
        });
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
            reason: PacketInReason::Action,
            data: Bytes::new(),
        });
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
                Action::SetDlSrc(MacAddr::local(1)),
                Action::SetDlDst(MacAddr::local(2)),
                Action::SetNwSrc(Ipv4Addr::new(1, 2, 3, 4)),
                Action::SetNwDst(Ipv4Addr::new(4, 3, 2, 1)),
                Action::SetTpSrc(1),
                Action::SetTpDst(2),
                Action::StripVlan,
                Action::Output(OfPort::Controller),
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
    fn flow_removed_round_trip() {
        round_trip(OfMessage::FlowRemoved {
            matcher: FlowMatch::any().with_dl_dst(MacAddr::local(9)),
            cookie: 9,
            priority: 77,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 1234,
            byte_count: 99999,
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
