//! OpenFlow 1.0 controller–switch messages (structured form): the subset
//! some world sends — the hello / features handshake, packet-in,
//! packet-out, flow-mod and flow statistics.
//!
//! The byte-level encoding lives in [`crate::wire`]; these types are what
//! switch and controller logic operate on.

use bytes::Bytes;
use netco_net::MacAddr;

use crate::action::Action;
use crate::flow_match::FlowMatch;
use crate::ports::OfPort;

/// Why a packet-in was sent to the controller. The only packet-in a
/// device sends is a table miss, and no receiver reads the reason: the
/// codec writes `OFPR_NO_MATCH` and reads any reason byte as it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// No flow entry matched (`OFPR_NO_MATCH`).
    NoMatch,
}

/// The flow-mod command (`ofp_flow_mod_command`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Install a new entry.
    Add,
    /// Modify actions of matching entries (loose).
    Modify,
    /// Modify actions of the strictly matching entry.
    ModifyStrict,
    /// Delete matching entries (loose).
    Delete,
    /// Delete the strictly matching entry.
    DeleteStrict,
}

/// One flow's statistics in a [`OfMessage::FlowStatsReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// The entry's match.
    pub matcher: FlowMatch,
    /// The entry's priority.
    pub priority: u16,
    /// The entry's cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The entry's actions.
    pub actions: Vec<Action>,
}

/// A description of one physical port in a features reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDesc {
    /// Port number.
    pub port_no: u16,
    /// Port hardware address.
    pub hw_addr: MacAddr,
    /// Interface name (at most 15 bytes are preserved on the wire).
    pub name: String,
}

/// An OpenFlow 1.0 message (the subset some world sends; any other type
/// decodes to [`WireError::UnsupportedType`](crate::wire::WireError)).
#[derive(Debug, Clone, PartialEq)]
pub enum OfMessage {
    /// Version negotiation greeting.
    Hello,
    /// Controller asks for datapath features.
    FeaturesRequest,
    /// Switch describes itself.
    FeaturesReply {
        /// Datapath id (unique per switch).
        datapath_id: u64,
        /// Number of packets the switch can buffer for packet-in.
        n_buffers: u32,
        /// Number of flow tables (always 1 here).
        n_tables: u8,
        /// Physical ports.
        ports: Vec<PortDesc>,
    },
    /// A packet is forwarded to the controller.
    PacketIn {
        /// Switch buffer holding the full packet, if buffered.
        buffer_id: Option<u32>,
        /// Port the packet arrived on.
        in_port: u16,
        /// Why it was sent.
        reason: PacketInReason,
        /// Packet bytes (possibly truncated by the switch).
        data: Bytes,
    },
    /// Controller tells the switch to emit a packet.
    PacketOut {
        /// Buffered packet to release, or `None` to use `data`.
        buffer_id: Option<u32>,
        /// The port the packet "arrived" on (for `OFPP_IN_PORT`).
        in_port: u16,
        /// Actions to apply (usually a single output).
        actions: Vec<Action>,
        /// Raw packet when not using a buffer.
        data: Bytes,
    },
    /// Controller modifies the flow table.
    FlowMod {
        /// What to do.
        command: FlowModCommand,
        /// Entries affected.
        matcher: FlowMatch,
        /// Entry priority.
        priority: u16,
        /// Idle timeout in seconds (0 = none).
        idle_timeout_s: u16,
        /// Hard timeout in seconds (0 = none).
        hard_timeout_s: u16,
        /// Opaque controller cookie.
        cookie: u64,
        /// The `OFPFF_SEND_FLOW_REM` flag. A vote compares it as part of
        /// the canonical bytes; no switch here sends flow-removed.
        notify_when_removed: bool,
        /// Actions for add/modify.
        actions: Vec<Action>,
        /// Buffered packet to run through the new entry, if any.
        buffer_id: Option<u32>,
    },
    /// Controller requests per-flow statistics (`OFPST_FLOW`) for entries
    /// subsumed by `matcher` — how the paper monitors "the flow table
    /// counters of all switches" (§VI).
    FlowStatsRequest {
        /// Filter: entries loosely matched by this are reported.
        matcher: FlowMatch,
    },
    /// Per-flow statistics.
    FlowStatsReply {
        /// One entry per reported flow.
        flows: Vec<FlowStats>,
    },
}

impl OfMessage {
    /// Convenience: a flow-mod that adds `entry`-shaped state.
    pub fn add_flow(priority: u16, matcher: FlowMatch, actions: Vec<Action>) -> OfMessage {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher,
            priority,
            idle_timeout_s: 0,
            hard_timeout_s: 0,
            cookie: 0,
            notify_when_removed: false,
            actions,
            buffer_id: None,
        }
    }

    /// Convenience: a packet-out sending `data` to one port.
    pub fn packet_out(data: Bytes, port: OfPort) -> OfMessage {
        OfMessage::PacketOut {
            buffer_id: None,
            in_port: OfPort::None.to_u16(),
            actions: vec![Action::Output(port)],
            data,
        }
    }
}
