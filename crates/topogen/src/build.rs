//! Index form → simulator: wire a [`TopoGraph`] into a
//! [`netco_net::World`] with one call.
//!
//! Node-for-node translation of the graph: routers and honest replicas
//! become [`routed_switch`]es carrying the graph's route table as
//! MAC-destination flows, guards become inband [`GuardSwitch`]es
//! (compare embedded, Detect or Prevent per the node's
//! [`NodeKind::Guard`] label), hosts get [`HostNic`]s with a full
//! neighbor table and whatever device the caller's factory supplies
//! (pinger, responder, traffic source). An optional [`AdversarySpec`]
//! turns a seeded fraction of the replica switches into
//! payload-corrupting malicious ones — the campaign's
//! adversarial-replica axis.

use netco_adversary::{ActivationWindow, Behavior};
use netco_core::virtualized::{VirtualGuard, VirtualGuardConfig};
use netco_core::{CompareConfig, GuardConfig, GuardSwitch};
use netco_net::{Device, HostNic, LinkSpec, NeighborTable, NodeId, PortId, World};
use netco_openflow::{FlowEntry, FlowMatch};
use netco_topo::cell::guard_replica_ports;
use netco_topo::{routed_switch, Profile};

use crate::graph::{NodeKind, TopoGraph, NO_ROUTE};

/// Datapath-id block for plain routers (`| node index`).
const ROUTER_DPID_BASE: u64 = 0x7000_0000;
/// Datapath-id block for replica switches (`| node index`).
const REPLICA_DPID_BASE: u64 = 0x4100_0000;

/// Which replica switches misbehave, selected deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// Fraction of `Replica` nodes to corrupt, in `[0, 1]` (count
    /// rounded to nearest).
    pub fraction: f64,
    /// Seed for the site-selection shuffle.
    pub seed: u64,
    /// Corrupt one out of this many matching frames (1 = all).
    pub every_nth: u64,
}

impl AdversarySpec {
    /// The deterministic sorted set of graph node indices this spec
    /// corrupts: a seeded shuffle over the replica nodes, truncated to
    /// the rounded fraction.
    pub(crate) fn sites(&self, graph: &TopoGraph) -> Vec<usize> {
        let replicas = |kind| matches!(kind, NodeKind::Replica { .. });
        graph.seeded_sites(replicas, self.fraction, self.seed, 0x6164) // "ad"
    }
}

/// A built world plus the handles needed to assert on it afterwards.
pub struct BuiltTopo {
    /// The wired world, not yet run.
    pub world: World,
    /// Simulator node id per graph node index.
    pub switch_ids: Vec<NodeId>,
    /// Simulator node id per graph host index.
    pub host_ids: Vec<NodeId>,
    /// Graph node indices of the adversarial replicas.
    pub adversarial: Vec<usize>,
}

/// Builds the world for `graph`. `host_factory(host_index, nic)`
/// supplies each host device; the nic already carries the full
/// IP→MAC neighbor table. `seed` feeds the world RNG (CPU jitter).
///
/// # Panics
///
/// Panics if `graph.routes` is empty while hosts exist.
pub fn build_world(
    graph: &TopoGraph,
    profile: &Profile,
    seed: u64,
    host_factory: impl FnMut(usize, HostNic) -> Box<dyn Device>,
    adversary: Option<&AdversarySpec>,
) -> BuiltTopo {
    let adversarial = adversary.map(|a| a.sites(graph)).unwrap_or_default();
    let corrupt = [(
        Behavior::CorruptPayload {
            select: FlowMatch::any(),
            every_nth: adversary.map(|a| a.every_nth.max(1)).unwrap_or(1),
        },
        ActivationWindow::always(),
    )];
    // Only replicas are ever adversarial (`AdversarySpec::sites`).
    let behaviors = |n: usize| {
        adversarial
            .binary_search(&n)
            .is_ok()
            .then_some(&corrupt[..])
    };
    let (mut built, _) = lower(
        graph,
        profile,
        seed,
        host_factory,
        behaviors,
        |_| Vec::new(),
        &[],
    );
    built.adversarial = adversarial;
    built
}

/// The one lowering of a [`TopoGraph`] into a [`World`]: switch-level
/// nodes in graph order, then the links, then per host: the host, and —
/// for a host listed in `guards` — its [`VirtualGuard`] with the
/// host–guard and guard–switch links, else the host's own link.
/// `behaviors(n)` makes router or replica `n` a misbehaving
/// [`routed_switch`]; `extra_flows(n)` appends flow entries behind an
/// honest one's routes. Returns the world (no adversarial sites
/// recorded) and `(host index, guard id)` per spliced guard, in host
/// order.
pub(crate) fn lower<'b>(
    graph: &TopoGraph,
    profile: &Profile,
    seed: u64,
    mut host_factory: impl FnMut(usize, HostNic) -> Box<dyn Device>,
    behaviors: impl Fn(usize) -> Option<&'b [(Behavior, ActivationWindow)]>,
    mut extra_flows: impl FnMut(usize) -> Vec<FlowEntry>,
    guards: &[(usize, VirtualGuardConfig)],
) -> (BuiltTopo, Vec<(usize, NodeId)>) {
    assert!(
        graph.hosts.is_empty() || !graph.routes.is_empty(),
        "install routes before building"
    );
    let mut world = World::new(seed);
    let neighbor_table: NeighborTable = graph.hosts.iter().map(|h| (h.ip, h.mac)).collect();

    // Switch-level nodes first, in graph order.
    let mut switch_ids = Vec::with_capacity(graph.nodes.len());
    for (n, node) in graph.nodes.iter().enumerate() {
        let device: Box<dyn Device> = match node.kind {
            NodeKind::Guard { k, detect } => {
                let replica_ports = guard_replica_ports(k).map(PortId).collect();
                let compare = if detect {
                    CompareConfig::detect(k)
                } else {
                    CompareConfig::prevent(k)
                };
                Box::new(GuardSwitch::new(GuardConfig::inband(
                    PortId(0),
                    replica_ports,
                    compare,
                )))
            }
            NodeKind::Router | NodeKind::Replica { .. } => {
                let base = if node.kind == NodeKind::Router {
                    ROUTER_DPID_BASE
                } else {
                    REPLICA_DPID_BASE
                };
                let routes = graph.hosts.iter().enumerate().filter_map(|(h, host)| {
                    let port = graph.routes[n][h];
                    (port != NO_ROUTE).then_some((host.mac, port))
                });
                routed_switch(base | n as u64, routes, extra_flows(n), behaviors(n))
            }
        };
        let cpu = match node.kind {
            NodeKind::Guard { .. } => profile.guard_cpu.clone(),
            _ => profile.switch_cpu.clone(),
        };
        switch_ids.push(world.add_node(node.name.clone(), device, cpu));
    }

    for l in &graph.links {
        world.connect(
            switch_ids[l.a],
            PortId(l.a_port),
            switch_ids[l.b],
            PortId(l.b_port),
            LinkSpec::new(l.rate_bps, l.latency),
        );
    }

    let mut host_ids = Vec::with_capacity(graph.hosts.len());
    let mut guard_ids = Vec::with_capacity(guards.len());
    for (h, host) in graph.hosts.iter().enumerate() {
        let mut nic = HostNic::new(host.mac, host.ip);
        nic.neighbors = neighbor_table.clone();
        let device = host_factory(h, nic);
        let id = world.add_node(format!("host{h}"), device, profile.host_cpu.clone());
        let link = LinkSpec::new(host.rate_bps, host.latency);
        let attach = (switch_ids[host.attach], PortId(host.attach_port));
        let uplink = match guards.iter().find(|(g, _)| *g == h) {
            Some((_, cfg)) => {
                let guard = VirtualGuard::new(cfg.clone());
                let guard = world.add_node(format!("vguard{h}"), guard, profile.guard_cpu.clone());
                world.connect(id, PortId(0), guard, cfg.host_port, link.clone());
                guard_ids.push((h, guard));
                (guard, cfg.uplink_port)
            }
            None => (id, PortId(0)),
        };
        world.connect(uplink.0, uplink.1, attach.0, attach.1, link);
        host_ids.push(id);
    }

    let built = BuiltTopo {
        world,
        switch_ids,
        host_ids,
        adversarial: Vec::new(),
    };
    (built, guard_ids)
}

#[cfg(test)]
mod tests {
    use netco_sim::SimDuration;
    use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

    use super::*;
    use crate::generate::erdos_renyi;
    use crate::netcoize::{netcoize, NetcoizeSpec};

    fn ping_world(graph: &TopoGraph) -> (BuiltTopo, NodeId) {
        let dst_ip = graph.hosts[1].ip;
        let built = build_world(
            graph,
            &Profile::default(),
            7,
            |h, nic| {
                if h == 0 {
                    Box::new(Pinger::new(nic, PingConfig::new(dst_ip).with_count(5)))
                } else {
                    Box::new(IcmpEchoResponder::new(nic))
                }
            },
            None,
        );
        let pinger = built.host_ids[0];
        (built, pinger)
    }

    #[test]
    fn plain_generated_world_carries_pings() {
        let graph = erdos_renyi(12, 3.0, 4, 5);
        let (mut built, pinger) = ping_world(&graph);
        built.world.run_for(SimDuration::from_millis(200));
        let report = built.world.device::<Pinger>(pinger).unwrap().report();
        assert_eq!(report.transmitted, 5);
        assert_eq!(report.received, 5, "lossless fabric must deliver all");
    }

    #[test]
    fn netcoized_world_carries_pings_through_cells() {
        let base = erdos_renyi(8, 3.0, 4, 5);
        let graph = netcoize(&base, &NetcoizeSpec::full(3, 2));
        let (mut built, pinger) = ping_world(&graph);
        built.world.run_for(SimDuration::from_millis(400));
        let report = built.world.device::<Pinger>(pinger).unwrap().report();
        assert_eq!(report.received, 5, "cells must be transparent");
    }

    #[test]
    fn adversary_sites_are_deterministic_and_replicas_only() {
        let base = erdos_renyi(8, 3.0, 4, 5);
        let graph = netcoize(&base, &NetcoizeSpec::full(3, 2));
        let spec = AdversarySpec {
            fraction: 0.3,
            seed: 6,
            every_nth: 1,
        };
        let sites = spec.sites(&graph);
        assert_eq!(sites, spec.sites(&graph));
        assert!(!sites.is_empty());
        assert!(sites
            .iter()
            .all(|&n| matches!(graph.nodes[n].kind, NodeKind::Replica { .. })));
    }
}
