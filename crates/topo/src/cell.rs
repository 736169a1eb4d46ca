//! The NetCo cell (paper Fig. 3): two trusted guards around `k` untrusted
//! replicas, optionally a central compare host behind them — the only
//! statement of the cell's port scheme and wiring order. The reference
//! scenarios, the §VI case study and `netco_bench::grid` all call
//! [`Cell::wire`].
//!
//! **Ports.** Guard `j ∈ {0, 1}` faces out on port 0, replica `i ∈ 1..=k`
//! on port `i` ([`guard_replica_ports`]) and a central compare on port
//! `k + 1`. Replica `i` faces guard `j` on port `j + 1` ([`replica_port`],
//! [`REPLICA_PORT`]); the compare faces guard `j` on port `j`.
//! `netco_topogen`'s degree-`d` cells and inband guards use the same
//! helpers.
//!
//! **Order.** [`Cell::wire`] adds guard 0, guard 1, the compare host if
//! any, then per replica: the node, its guard-0 link, its guard-1 link.
//! The caller then connects port 0 of each guard to its surroundings and
//! calls `Cell::wire_compare` for the two compare links, last. Node and
//! link ids follow from that order and feed RNG streams, event keys and
//! tap digests (`tests/world_shape.rs`, `grid_lattice_digest`).

use netco_core::{Compare, CompareConfig, GuardConfig, GuardSwitch, LaneInfo};
use netco_net::{Device, LinkId, LinkSpec, NodeId, PortId, World};

use crate::profile::Profile;

/// The replica port facing guard `j`: port `j + 1`. A degree-`d` cell
/// (`netco_topogen::netcoize`) has guards `0..d`.
pub const fn replica_port(j: usize) -> u16 {
    j as u16 + 1
}

/// The replica ports facing guard 0 and guard 1.
pub const REPLICA_PORT: [u16; 2] = [replica_port(0), replica_port(1)];

/// A guard's replica ports: port `i` faces replica `i ∈ 1..=k`.
pub fn guard_replica_ports(k: usize) -> impl Iterator<Item = u16> + Clone {
    1..=k as u16
}

/// One guard's ports, as the cell numbers them — the arguments of the
/// [`GuardConfig`] constructors.
pub struct GuardPorts {
    /// Port 0: toward the protected host / the rest of the network.
    pub out: PortId,
    /// Ports `1..=k`: toward the replicas.
    pub replicas: Vec<PortId>,
    /// Port `k + 1`: toward a central compare.
    pub compare: PortId,
}

/// The lane a compare keeps per guard: which guard ports are replica
/// ingresses and where released packets leave.
pub(crate) fn lane(k: usize) -> LaneInfo {
    LaneInfo {
        replica_ports: guard_replica_ports(k).collect(),
        host_port: 0,
    }
}

/// What one cell is made of, apart from its devices.
pub struct CellSpec<'a> {
    /// Replica count.
    pub k: usize,
    /// Node names of guard 0 and guard 1.
    pub guard_names: [String; 2],
    /// Name and configuration of the central compare host, for guards
    /// built with [`GuardConfig::central`].
    pub compare: Option<(&'a str, CompareConfig)>,
    /// CPU models: `guard_cpu`, `switch_cpu` (replicas), `compare_cpu`.
    pub profile: &'a Profile,
    /// Every link inside the cell.
    pub link: &'a LinkSpec,
}

/// A wired cell.
pub struct Cell {
    /// Guard 0 and guard 1; port 0 of each is still unwired.
    pub guards: [NodeId; 2],
    /// The central compare host, if the spec named one.
    pub compare: Option<NodeId>,
    compare_port: PortId,
}

impl Cell {
    /// Adds the cell's nodes and inner links to `world` in the module's
    /// order. `guard(j, ports)` picks guard `j`'s compare placement,
    /// `replica(i)` supplies replica `i`'s name and device, and
    /// `wired(node, guard_0_link, guard_1_link)` hands each replica's ids
    /// back as it is wired.
    pub fn wire(
        world: &mut World,
        spec: CellSpec<'_>,
        guard: impl Fn(usize, GuardPorts) -> GuardConfig,
        mut replica: impl FnMut(u16) -> (String, Box<dyn Device>),
        mut wired: impl FnMut(NodeId, LinkId, LinkId),
    ) -> Cell {
        let (k, cpu) = (spec.k as u16, spec.profile);
        let compare_port = PortId(k + 1);
        let mut add_guard = |j: usize, name: String| {
            let ports = GuardPorts {
                out: PortId(0),
                replicas: guard_replica_ports(spec.k).map(PortId).collect(),
                compare: compare_port,
            };
            world.add_node(
                name,
                GuardSwitch::new(guard(j, ports)),
                cpu.guard_cpu.clone(),
            )
        };
        let [name0, name1] = spec.guard_names;
        let guards = [add_guard(0, name0), add_guard(1, name1)];
        let compare = spec.compare.map(|(name, cfg)| {
            let mut compare = Compare::new(cfg);
            compare.attach_guard(PortId(0), lane(spec.k));
            compare.attach_guard(PortId(1), lane(spec.k));
            world.add_node(name, compare, cpu.compare_cpu.clone())
        });
        let [p0, p1] = REPLICA_PORT.map(PortId);
        for i in guard_replica_ports(spec.k) {
            let (name, device) = replica(i);
            let r = world.add_node(name, device, cpu.switch_cpu.clone());
            let l0 = world.connect(guards[0], PortId(i), r, p0, spec.link.clone());
            let l1 = world.connect(r, p1, guards[1], PortId(i), spec.link.clone());
            wired(r, l0, l1);
        }
        Cell {
            guards,
            compare,
            compare_port,
        }
    }

    /// Connects each guard's compare port to the compare host — after the
    /// caller's outer links, so the compare links take the last two link
    /// ids. A cell without a central compare has nothing to connect.
    pub(crate) fn wire_compare(&self, world: &mut World, link: &LinkSpec) {
        if let Some(compare) = self.compare {
            for (&guard, j) in self.guards.iter().zip(0..) {
                world.connect(guard, self.compare_port, compare, PortId(j), link.clone());
            }
        }
    }
}
