//! Virtualized NetCo (paper §VII): replica *paths* instead of replica
//! routers.
//!
//! The physical combiner needs `k` extra routers per protected position.
//! The virtualized variant instead splits a flow into `k` copies steered
//! over *vendor-diverse paths* through the existing network (VLAN
//! tunnels), and combines them with an inband compare at the egress —
//! "leveraging SDN traffic engineering flexibilities ... the compare is
//! implemented inband" (Fig. 9).
//!
//! [`VirtualGuard`] tags copies at the ingress and combines them inband
//! at the egress (both directions, symmetric). The vendor-diverse tunnels
//! themselves are computed on the topology graph, and the fat-tree world
//! built, by `netco_topogen::virtual_netco`.

mod steering;

pub use steering::{VirtualGuard, VirtualGuardConfig, VirtualGuardStats};
