//! Network substrate for the NetCo reproduction.
//!
//! This crate models everything the paper's Mininet testbed provided:
//!
//! * **Identifiers** — [`NodeId`], [`PortId`], [`LinkId`], [`MacAddr`]
//!   newtypes ([`std::net::Ipv4Addr`] is reused for L3 addresses).
//! * **Packets** — byte-accurate codecs for Ethernet II (with 802.1Q),
//!   IPv4, UDP, TCP and ICMP in [`packet`]. Frames travel through the
//!   simulator as [`Frame`] — immutable wire bytes plus lazily-memoized,
//!   share-on-clone derived data (fingerprint, parsed header view) — so
//!   the NetCo *compare* element can perform the paper's
//!   `memcmp()`-style bit-by-bit comparison on real wire bytes without
//!   ever rederiving them twice for the same content.
//! * **Links** — rate/latency/drop-tail-queue models ([`LinkSpec`]).
//! * **CPU** — per-node packet-processing cost models ([`CpuModel`]); these
//!   reproduce the software-forwarding bottleneck that dominated the paper's
//!   Mininet numbers (see `DESIGN.md §1`).
//! * **Dispatch** — the [`World`] event loop tying [`Device`]s, links and
//!   control channels together on top of [`netco_sim::Scheduler`].
//!
//! # Example: two hosts wired together
//!
//! ```
//! use netco_net::{LinkSpec, MacAddr, World};
//! use netco_net::testutil::EchoDevice;
//! use netco_sim::SimDuration;
//!
//! let mut world = World::new(1);
//! let a = world.add_node("a", EchoDevice::default(), Default::default());
//! let b = world.add_node("b", EchoDevice::default(), Default::default());
//! world.connect(a, 0.into(), b, 0.into(), LinkSpec::default());
//! world.inject_frame(a, 0.into(), bytes::Bytes::from_static(b"hello"));
//! world.run_for(SimDuration::from_secs(1));
//! assert!(world.counters(b).port(0.into()).rx_frames >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod device;
mod event_loop;
mod fault;
pub mod frame;
mod host;
mod id;
mod link;
pub mod packet;
mod region;
mod substrate;
pub mod testutil;
mod trace;
mod world;

pub use cpu::CpuModel;
pub use device::{Ctx, Device};
pub use event_loop::{TapDirection, TapEvent};
pub use fault::{ControlFaultSpec, FaultKind, FaultPlan, FaultSpec};
pub use frame::{
    fnv1a, fp128, memo_stats, memo_stats_merged, reset_memo_stats, Frame, MemoStats, MAX_ENCAP_HEAD,
};
pub use host::{HostNic, NeighborTable};
pub use id::{LinkId, MacAddr, NodeId, PortId};
pub use link::LinkSpec;
pub use region::{safe_horizons, RegionRunStats};
pub use substrate::{ControlChannelSpec, DropReason, NodeCounters, PortCounters};
pub use trace::{TapDigest, TraceEntry, TraceRecorder};
pub use world::World;
