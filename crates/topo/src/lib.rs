//! Evaluation topologies and scenario runners.
//!
//! * [`Profile`] — the calibration constants of the simulated testbed
//!   (link rates, per-packet CPU costs, control-channel latency); see
//!   `DESIGN.md §8`.
//! * [`Scenario`] / [`ScenarioKind`] — the paper's Fig. 3 reference
//!   topology in all six evaluation variants (*Linespeed*, *Dup3*, *Dup5*,
//!   *Central3*, *Central5*, *POX3*) plus the detection-mode extension,
//!   with one-call runners for TCP, UDP, max-rate search and ping.
//! * [`cell`] — the NetCo cell itself: two guards around `k` replicas,
//!   optionally a central compare. The one statement of its port scheme
//!   and wiring order; every scenario above, the case study and
//!   `netco_bench::grid` wire their cells through it, and
//!   `netco_topogen`'s degree-`d` cells take their port numbers from it.
//! * [`routed_switch`] — the one "switch with MAC-destination routes",
//!   honest ([`netco_openflow::OfSwitch`]) or scripted to misbehave
//!   ([`netco_adversary::MaliciousSwitch`]); every builder's routers,
//!   `netco_topogen::build_world`'s included, come from it.
//! * [`case_study`] — the §VI datacenter routing attack in its three
//!   phases (baseline, attack, NetCo).
//!
//! The fat-tree and the §VII virtualized combiner over it live in
//! `netco_topogen` (`generate::fat_tree`, `virtual_netco`), lowered by the
//! same `build_world` as every generated topology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;
pub mod cell;
mod profile;
mod reference;
mod routed;

pub use netco_net::{ControlFaultSpec, FaultKind, FaultPlan, FaultSpec};
pub use profile::Profile;
pub use reference::{
    AdversarySpec, BuiltScenario, ByzantineControllerSpec, ControlReplication, Direction, Scenario,
    ScenarioKind, TcpRunOutcome, UdpRunOutcome, H1_IP, H1_MAC, H2_IP, H2_MAC,
};
pub use routed::routed_switch;
