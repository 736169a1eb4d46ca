//! The logically centralized SDN controller of the reproduction.
//!
//! A [`Controller`] is a [`netco_net::Device`] with no data-plane ports; it
//! talks to its switches over control channels carrying real OpenFlow 1.0
//! wire bytes (see [`netco_openflow::wire`]). Behaviour is supplied by a
//! [`ControllerApp`]. The paper's worlds host two: the POX compare
//! (`netco_core::pox`), which votes on the guards' packet-ins and answers
//! with packet-outs and port-block advice (§V), and
//! [`apps::FlowStatsMonitor`], the flow-counter screening of §VI.
//! [`apps::ByzantineApp`] wraps a replica of the former to make it lie.
//! Data-plane routes ("routing based on MAC destination addresses", paper
//! §VI) are preinstalled on each switch when it is built
//! (`netco_topo::routed_switch`), not pushed by a controller.
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
