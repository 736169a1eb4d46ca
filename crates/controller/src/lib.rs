//! The logically centralized SDN controller of the reproduction.
//!
//! A [`Controller`] is a [`netco_net::Device`] with no data-plane ports; it
//! talks to its switches over control channels carrying real OpenFlow 1.0
//! wire bytes (see [`netco_openflow::wire`]). Behaviour is supplied by a
//! [`ControllerApp`]:
//!
//! * [`apps::LearningSwitchApp`] — classic reactive L2 learning (learn the
//!   source, install an exact `dl_dst` rule once the destination is known,
//!   flood otherwise).
//! * [`apps::StaticRoutingApp`] — proactively pushes a precomputed rule set
//!   to each switch as it connects. The evaluation topologies do not use
//!   it: their MAC-destination routes ("routing based on MAC destination
//!   addresses", paper §VI) are preinstalled on each switch when it is
//!   built (`netco_topo::routed_switch`).
//!
//! Controller processing cost is modeled by the CPU model the controller
//! node is added with; the POX scenario gives the controller an
//! interpreted-language per-message cost (see `netco-topo`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod apps;
mod controller;

pub use app::{ControllerApp, ControllerCtx};
pub use controller::Controller;
