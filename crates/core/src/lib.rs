//! **NetCo** — reliable routing with unreliable routers.
//!
//! This crate is the paper's primary contribution: a *robust network
//! combiner* that builds a trustworthy router out of `k` untrusted,
//! vendor-diverse routers plus two simple trusted components:
//!
//! * the **hub** — a stateless duplicator placing the untrusted replicas in
//!   a parallel circuit ([`GuardSwitch`], the edge component that plays
//!   the role of the paper's `s1`/`s2`),
//! * the **compare** — the voting element that releases a packet only once
//!   a majority of replicas delivered bit-identical copies
//!   ([`CompareCore`] is the protocol-agnostic logic; [`Compare`] is the
//!   central-server deployment of the paper's prototype, reachable via
//!   OpenFlow packet-in/packet-out wire messages; [`PoxCompareApp`] is the
//!   controller-application deployment used as the POX3 baseline).
//!
//! Two replicas suffice to *detect* misbehaviour, three (generally
//! `2·⌊k/2⌋ + 1`) to *prevent* it ([`Mode`]).
//!
//! The [`virtualized`] module implements the paper's §VII sketch: instead
//! of physical replica routers, flow copies are steered over vendor-diverse
//! *paths* using VLAN tunnels, and the compare runs inband at the egress.
//!
//! # Quick taste (the compare logic alone)
//!
//! ```
//! use bytes::Bytes;
//! use netco_core::{CompareAction, CompareConfig, CompareCore, LaneInfo, Mode};
//! use netco_sim::SimTime;
//!
//! let mut core = CompareCore::new(CompareConfig::prevent(3));
//! core.attach_lane(0, LaneInfo { replica_ports: vec![1, 2, 3], host_port: 4 });
//!
//! let pkt = Bytes::from_static(b"some wire frame");
//! let t = SimTime::ZERO;
//! assert_eq!(core.observe(0, 1, pkt.clone(), t).len(), 0); // 1 of 3
//! let actions: Vec<_> = core.observe(0, 2, pkt.clone(), t).collect(); // majority!
//! assert!(matches!(actions[0], CompareAction::Release { .. }));
//! assert_eq!(core.observe(0, 3, pkt, t).len(), 0); // late copy ignored
//! ```
//!
//! # Placing the compare somewhere new
//!
//! Embed a [`CompareHost`], not the bare core: it owns the core, the
//! security event log and its trace markers, the telemetry scope (`start`
//! in `on_start`) and the sweep cadence (`sweep` every `sweep_interval()`).
//! The host logs the security events a call raises (`host.events()`), and
//! a sweep raises nothing else; the placement only carries out the actions
//! `observe` hands back:
//!
//! ```
//! # use netco_core::{CompareAction, CompareConfig, CompareHost, LaneInfo};
//! # let mut host = CompareHost::new(CompareConfig::prevent(3));
//! # host.attach_lane(0, LaneInfo { replica_ports: vec![1, 2, 3], host_port: 4 });
//! for action in host.observe(0, 1, &b"frame"[..], netco_sim::SimTime::ZERO) {
//!     match action {
//!         CompareAction::Release { .. } => { /* emit `frame` on `host_port` */ }
//!         CompareAction::BlockReplicaPort { .. } => { /* tell the guard */ }
//!         CompareAction::Stall { .. } => { /* delay later output */ }
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod config;
mod encap;
mod events;
mod guard;
mod pox;
mod supervisor;
pub mod virtualized;
mod voter;

pub use compare::{
    Compare, CompareAction, CompareCore, CompareHost, CompareStats, CompareStrategy, LaneInfo,
};
pub use config::{CompareConfig, Mode};
pub use encap::{of_wrap, COMPARE_LINK};
pub use events::{EventCounts, SecurityEvent};
pub use guard::{CompareAttachment, GuardConfig, GuardStats, GuardSwitch};
pub use pox::PoxCompareApp;
pub use supervisor::SupervisorConfig;
pub use voter::{ControlVoter, ControlVoterConfig, ControlVoterStats};
