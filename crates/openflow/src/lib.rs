//! An OpenFlow 1.0 subset: the match-action substrate of the paper.
//!
//! The NetCo prototype (paper §IV) is built on OpenFlow 1.0 switches; this
//! crate provides the pieces the reproduction needs, from the bottom up:
//!
//! * [`PacketFields`] — tolerant header-field extraction ("sniffing") used
//!   for matching; switches never drop frames over bad L4 checksums.
//! * [`FlowMatch`] — the OF 1.0 12-tuple with per-field wildcards.
//! * [`Action`] — the output to a physical port, `FLOOD` or `NONE`, and
//!   the Ethernet rewrites (destination, VLAN set / strip), applied to
//!   real wire bytes.
//! * [`FlowTable`] / [`FlowEntry`] — priority lookup, timeouts, counters.
//! * [`OfMessage`] + [`wire`] — byte-accurate OpenFlow 1.0 codec for the
//!   messages some world sends: hello, features request / reply,
//!   packet-in, packet-out, flow-mod and flow statistics. Any other type
//!   decodes to an error.
//! * [`OfSwitch`] — a [`netco_net::Device`] implementing the datapath:
//!   table lookup, action execution, packet-in buffering, and the control
//!   channel speaking the wire format. Its only parameter is the datapath
//!   id; buffer count, packet-in length and expiry period are fixed.
//!
//! # Example: a one-rule switch
//!
//! ```
//! use netco_openflow::{Action, FlowEntry, FlowMatch, FlowTable, OfPort, PacketFields};
//! use netco_net::MacAddr;
//! use netco_sim::SimTime;
//!
//! let mut table = FlowTable::new();
//! table.add(
//!     FlowEntry::new(
//!         100,
//!         FlowMatch::default().with_dl_dst(MacAddr::local(2)),
//!         vec![Action::Output(OfPort::Physical(3))],
//!     ),
//!     SimTime::ZERO,
//! );
//! let fields = PacketFields { dl_dst: MacAddr::local(2), ..PacketFields::default() };
//! let entry = table.lookup(&fields, SimTime::ZERO).unwrap();
//! assert_eq!(entry.actions(), &[Action::Output(OfPort::Physical(3))]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod canonical;
mod flow_match;
mod flow_table;
mod messages;
mod ports;
mod switch;
pub mod wire;

pub use action::{apply_actions, apply_rewrites, Action};
// Header-field extraction moved next to the `Frame` memo in `netco_net`;
// re-exported here so OpenFlow callers keep their import paths.
pub use flow_match::FlowMatch;
pub use flow_table::{FlowEntry, FlowTable};
pub use messages::{FlowModCommand, FlowStats, OfMessage, PacketInReason, PortDesc};
pub use netco_net::packet::{PacketFields, OFP_VLAN_NONE};
pub use ports::OfPort;
pub use switch::OfSwitch;
