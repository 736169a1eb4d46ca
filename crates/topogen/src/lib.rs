//! Deterministic topology generation and the "combiner everywhere"
//! campaign engine (ROADMAP open item 2).
//!
//! Everything the paper evaluates runs on its small fig4–fig8 worlds;
//! this crate supplies the scenario axis for evaluating NetCo on
//! *realistic fabrics at scale*, in three layers:
//!
//! 1. **Generators** ([`generate`]) — seed-keyed Erdős–Rényi,
//!    Barabási-Albert, Watts-Strogatz, 2D grid/torus and fat-tree/Clos
//!    graph generators, all emitting one pure index form ([`TopoGraph`]):
//!    nodes, links with rate/latency, host attachment points and
//!    shortest-path MAC-destination routes, computable without a
//!    simulator (the fat-tree's own scheme is [`FatTreeIndex`]).
//! 2. **NetCo-ization** ([`netcoize`]) — a pure
//!    `netcoize(&TopoGraph, NetcoizeSpec) -> TopoGraph` transform that
//!    replaces a selectable fraction of untrusted routers with the
//!    paper's robust combiner (one trusted inband guard per incident
//!    link, `k` untrusted replica switches, compare embedded in the
//!    egress guard), re-deriving the route tables so any generated
//!    topology becomes a runnable NetCo fabric; [`build::build_world`]
//!    turns the index form into a [`netco_net::World`] with one call.
//! 3. **Campaigns** ([`campaign`]) — the `topology_experiments` binary
//!    fans size × class × adversarial-replica-fraction × k sweeps across
//!    the [`netco_harness::Pool`], runs hundreds of routed ping tests
//!    per cell and reports availability, path stretch and goodput as
//!    deterministic JSON (bit-identical across reruns, thread counts and
//!    region counts).
//!
//! The §VII virtualized NetCo ([`virtual_netco`]) runs on the same
//! stack: [`generate::fat_tree`], vendor-diverse tunnels from
//! [`vendor_diverse_paths`] over the graph, and the lowering behind
//! [`build_world`] with the tunnels' steering rules and two
//! `VirtualGuard`s spliced in front of the endpoints.
//!
//! The [`lattice`] module is the single source of truth for the
//! row-lattice geometry shared with `netco_bench::grid` (the PR-7
//! `region_scale` world), so there is exactly one lattice builder in the
//! workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod campaign;
mod fattree;
pub mod generate;
pub mod graph;
pub mod lattice;
pub mod netcoize;
mod paths;
pub mod virtual_netco;

pub use build::{build_world, AdversarySpec, BuiltTopo};
pub use fattree::{FatTreeIndex, SwitchRole};
pub use graph::{NodeKind, TopoGraph, TopoHost, TopoLink, TopoNode, NO_ROUTE};
pub use netcoize::{netcoize, NetcoizeSpec};
pub use paths::{node_disjoint_paths, paths_are_vendor_diverse, vendor_diverse_paths, VendorId};
