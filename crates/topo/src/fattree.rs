//! A k-ary fat-tree (Clos) datacenter topology with static
//! MAC-destination routing — the environment of the paper's Fig. 1.
//!
//! The topology exists in two forms: a *pure index form* (ports, routes
//! and the [`PathGraph`]) computable without a simulator, and a built
//! [`World`]. The two share the same index scheme, so path computations on
//! the graph translate directly into rules on the simulated switches.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netco_adversary::{ActivationWindow, Behavior};
use netco_core::virtualized::{PathGraph, VendorId, VirtualGuard, VirtualGuardConfig};
use netco_net::{Device, HostNic, MacAddr, NeighborTable, NodeId, PortId, World};
use netco_openflow::FlowEntry;

use crate::profile::Profile;
use crate::routed::routed_switch;

/// The role of a switch in the fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchRole {
    /// Top-of-rack switch (pod, index).
    Edge(usize, usize),
    /// Aggregation switch (pod, index).
    Agg(usize, usize),
    /// Core switch (index).
    Core(usize),
}

/// The pure index form of a k-ary fat-tree.
///
/// * `k` pods, each with `k/2` edge and `k/2` aggregation switches,
/// * `(k/2)²` cores,
/// * `k/2` hosts per edge switch (`k³/4` total).
#[derive(Debug, Clone)]
pub struct FatTreeIndex {
    /// Tree arity (must be even, ≥ 2).
    pub k: usize,
}

impl FatTreeIndex {
    /// Creates the index form.
    ///
    /// # Panics
    ///
    /// Panics when `k` is odd or below 2.
    pub fn new(k: usize) -> FatTreeIndex {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and ≥ 2"
        );
        FatTreeIndex { k }
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.k * self.k + self.half() * self.half()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.k * self.half() * self.half()
    }

    /// Graph index of an edge switch.
    pub fn edge(&self, pod: usize, e: usize) -> usize {
        pod * self.half() + e
    }

    /// Graph index of an aggregation switch.
    pub fn agg(&self, pod: usize, a: usize) -> usize {
        self.k * self.half() + pod * self.half() + a
    }

    /// Graph index of a core switch.
    pub fn core(&self, c: usize) -> usize {
        self.k * self.k + c
    }

    /// The role of a graph index.
    pub fn role(&self, gidx: usize) -> SwitchRole {
        let half = self.half();
        if gidx < self.k * half {
            SwitchRole::Edge(gidx / half, gidx % half)
        } else if gidx < 2 * self.k * half {
            let r = gidx - self.k * half;
            SwitchRole::Agg(r / half, r % half)
        } else {
            SwitchRole::Core(gidx - 2 * self.k * half)
        }
    }

    /// `(pod, edge, slot)` of a host index.
    pub fn host_position(&self, host: usize) -> (usize, usize, usize) {
        let per_pod = self.half() * self.half();
        let pod = host / per_pod;
        let within = host % per_pod;
        (pod, within / self.half(), within % self.half())
    }

    /// Deterministic host MAC.
    pub fn host_mac(&self, host: usize) -> MacAddr {
        MacAddr::local(1_000 + host as u32)
    }

    /// Deterministic host IPv4 (`10.pod.edge.slot+2`).
    pub fn host_ip(&self, host: usize) -> Ipv4Addr {
        let (pod, edge, slot) = self.host_position(host);
        Ipv4Addr::new(10, pod as u8, edge as u8, slot as u8 + 2)
    }

    /// The uplink/downlink port wiring between two adjacent switches, as
    /// `(port on a, port on b)`. Returns `None` for non-adjacent switches.
    pub fn ports_between(&self, a: usize, b: usize) -> Option<(u16, u16)> {
        let half = self.half();
        // `(uplink on lower, downlink on upper)`, lower tier first.
        let up = |lower, upper| match (self.role(lower), self.role(upper)) {
            (SwitchRole::Edge(pe, e), SwitchRole::Agg(pa, ag)) if pe == pa => {
                Some(((half + ag) as u16, e as u16))
            }
            (SwitchRole::Agg(pa, ag), SwitchRole::Core(c)) if c / half == ag => {
                Some(((half + c % half) as u16, pa as u16))
            }
            _ => None,
        };
        up(a, b).or_else(|| up(b, a).map(|(pb, pa)| (pa, pb)))
    }

    /// Adjacent switch pairs `(lower, upper)`, pod by pod: every edge–agg
    /// pair, then every agg–core pair.
    fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let half = self.half();
        let pairs = move || (0..half).flat_map(move |x| (0..half).map(move |y| (x, y)));
        (0..self.k).flat_map(move |pod| {
            let edge_agg = pairs().map(move |(e, a)| (self.edge(pod, e), self.agg(pod, a)));
            let agg_core = pairs().map(move |(a, i)| (self.agg(pod, a), self.core(a * half + i)));
            edge_agg.chain(agg_core)
        })
    }

    /// The edge-switch port a host attaches to.
    pub fn host_port(&self, host: usize) -> u16 {
        let (_, _, slot) = self.host_position(host);
        slot as u16
    }

    /// The egress port of `switch` for traffic to `dst_host` under the
    /// static MAC routing scheme, or `None` when the switch would never
    /// carry that traffic... it always has a route (fat-trees are
    /// rearrangeably non-blocking); this returns `Some` for every input.
    pub fn route_port(&self, switch: usize, dst_host: usize) -> u16 {
        let half = self.half();
        let (dpod, dedge, dslot) = self.host_position(dst_host);
        let spread = dst_host % half; // deterministic ECMP-style choice
        match self.role(switch) {
            SwitchRole::Edge(pod, e) => {
                if pod == dpod && e == dedge {
                    dslot as u16
                } else {
                    (half + spread) as u16
                }
            }
            SwitchRole::Agg(pod, _a) => {
                if pod == dpod {
                    dedge as u16
                } else {
                    (half + spread) as u16
                }
            }
            SwitchRole::Core(_) => dpod as u16,
        }
    }

    /// The switch-level [`PathGraph`] with vendors assigned per
    /// aggregation "column" (aggregation switch `j` in every pod and the
    /// cores it uplinks to share `VendorId(j+1)`; edges are `VendorId(0)`).
    pub fn graph(&self) -> PathGraph {
        let half = self.half();
        let mut g = PathGraph::new(self.switch_count());
        for (lower, upper) in self.links() {
            g.add_edge(lower, upper);
        }
        for idx in 0..self.switch_count() {
            let vendor = match self.role(idx) {
                SwitchRole::Edge(..) => VendorId(0),
                SwitchRole::Agg(_, a) => VendorId(a as u32 + 1),
                SwitchRole::Core(c) => VendorId((c / half) as u32 + 1),
            };
            g.set_vendor(idx, vendor);
        }
        g
    }

    /// Human-readable switch name.
    pub fn switch_name(&self, gidx: usize) -> String {
        match self.role(gidx) {
            SwitchRole::Edge(p, e) => format!("edge{p}-{e}"),
            SwitchRole::Agg(p, a) => format!("agg{p}-{a}"),
            SwitchRole::Core(c) => format!("core{c}"),
        }
    }
}

/// Extra, higher-priority rules to install on a switch (e.g. VLAN tunnel
/// steering for the virtualized NetCo).
pub type ExtraRules = HashMap<usize, Vec<FlowEntry>>;

/// Optional modifications to a fat-tree build.
#[derive(Default)]
pub struct FatTreeOptions {
    /// Switches (by graph index) to replace with
    /// [`netco_adversary::MaliciousSwitch`]es carrying the given behaviours
    /// (they keep the honest routes for everything else).
    pub malicious: HashMap<usize, Vec<(Behavior, ActivationWindow)>>,
    /// Additional flow entries per switch (only honest switches — a
    /// malicious router ignores its rules, which is the point).
    pub extra_rules: ExtraRules,
    /// Hosts (by host index) that get a [`VirtualGuard`] spliced between
    /// themselves and their edge switch (virtualized NetCo, Fig. 9). The
    /// config's `host_port`/`uplink_port` must be 0/1.
    pub guarded_hosts: HashMap<usize, VirtualGuardConfig>,
}

/// A built fat-tree world.
pub struct FatTree {
    /// The simulated network.
    pub world: World,
    /// The index form used to build it.
    pub index: FatTreeIndex,
    /// Switch node ids by graph index.
    pub switches: Vec<NodeId>,
    /// Host node ids by host index.
    pub hosts: Vec<NodeId>,
    /// Virtual guards by host index (guarded hosts only).
    pub guards: HashMap<usize, NodeId>,
}

impl FatTree {
    /// Builds the fat-tree. `host_factory(host_index, nic)` supplies each
    /// host device; see [`FatTreeOptions`] for the rest.
    pub fn build(
        index: FatTreeIndex,
        profile: &Profile,
        seed: u64,
        mut host_factory: impl FnMut(usize, HostNic) -> Box<dyn Device>,
        options: &FatTreeOptions,
    ) -> FatTree {
        let malicious = &options.malicious;
        let extra_rules = &options.extra_rules;
        let mut world = World::new(seed);
        let neighbor_table: NeighborTable = (0..index.host_count())
            .map(|h| (index.host_ip(h), index.host_mac(h)))
            .collect();

        // Switches first (graph order).
        let mut switches = Vec::with_capacity(index.switch_count());
        for gidx in 0..index.switch_count() {
            let name = index.switch_name(gidx);
            let routes =
                (0..index.host_count()).map(|h| (index.host_mac(h), index.route_port(gidx, h)));
            let extra = extra_rules.get(&gidx).cloned().unwrap_or_default();
            let behaviors = malicious.get(&gidx).map(Vec::as_slice);
            let device = routed_switch(gidx as u64, routes, extra, behaviors);
            switches.push(world.add_node(name, device, profile.switch_cpu.clone()));
        }

        // Inter-switch links.
        for (lower, upper) in index.links() {
            let (pl, pu) = index.ports_between(lower, upper).expect("adjacent");
            let (lower, upper) = (switches[lower], switches[upper]);
            world.connect(lower, PortId(pl), upper, PortId(pu), profile.link.clone());
        }

        // Hosts (optionally behind a virtual guard).
        let mut hosts = Vec::with_capacity(index.host_count());
        let mut guards = HashMap::new();
        for h in 0..index.host_count() {
            let mut nic = HostNic::new(index.host_mac(h), index.host_ip(h));
            nic.neighbors = neighbor_table.clone();
            let device = host_factory(h, nic);
            let id = world.add_node(format!("host{h}"), device, profile.host_cpu.clone());
            let (pod, edge, _) = index.host_position(h);
            let edge_id = switches[index.edge(pod, edge)];
            let edge_port = PortId(index.host_port(h));
            match options.guarded_hosts.get(&h) {
                Some(vg_cfg) => {
                    let guard = world.add_node(
                        format!("vguard{h}"),
                        VirtualGuard::new(vg_cfg.clone()),
                        profile.guard_cpu.clone(),
                    );
                    world.connect(id, PortId(0), guard, vg_cfg.host_port, profile.link.clone());
                    world.connect(
                        guard,
                        vg_cfg.uplink_port,
                        edge_id,
                        edge_port,
                        profile.link.clone(),
                    );
                    guards.insert(h, guard);
                }
                None => {
                    world.connect(id, PortId(0), edge_id, edge_port, profile.link.clone());
                }
            }
            hosts.push(id);
        }

        FatTree {
            world,
            index,
            switches,
            hosts,
            guards,
        }
    }
}

/// A do-nothing host device for background slots.
#[derive(Debug, Default)]
pub struct InertHost;

impl Device for InertHost {
    fn on_frame(&mut self, _ctx: &mut netco_net::Ctx<'_>, _port: PortId, _frame: netco_net::Frame) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_core::virtualized::{node_disjoint_paths, vendor_diverse_paths};
    use netco_sim::SimDuration;
    use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

    #[test]
    fn index_counts() {
        let idx = FatTreeIndex::new(4);
        assert_eq!(idx.switch_count(), 20);
        assert_eq!(idx.host_count(), 16);
        let idx6 = FatTreeIndex::new(6);
        assert_eq!(idx6.switch_count(), 45);
        assert_eq!(idx6.host_count(), 54);
    }

    #[test]
    fn roles_round_trip() {
        let idx = FatTreeIndex::new(4);
        for g in 0..idx.switch_count() {
            let role = idx.role(g);
            let back = match role {
                SwitchRole::Edge(p, e) => idx.edge(p, e),
                SwitchRole::Agg(p, a) => idx.agg(p, a),
                SwitchRole::Core(c) => idx.core(c),
            };
            assert_eq!(back, g, "{role:?}");
        }
    }

    #[test]
    fn ports_between_is_symmetric() {
        let idx = FatTreeIndex::new(4);
        let e = idx.edge(1, 0);
        let a = idx.agg(1, 1);
        let (pe, pa) = idx.ports_between(e, a).unwrap();
        let (pa2, pe2) = idx.ports_between(a, e).unwrap();
        assert_eq!((pe, pa), (pe2, pa2));
        // Non-adjacent: edge to core.
        assert!(idx.ports_between(idx.edge(0, 0), idx.core(0)).is_none());
        // Agg only reaches its own core group.
        assert!(idx.ports_between(idx.agg(0, 0), idx.core(3)).is_none());
        assert!(idx.ports_between(idx.agg(0, 1), idx.core(3)).is_some());
    }

    #[test]
    fn graph_has_expected_disjoint_paths() {
        // k=4: 2 interior-disjoint inter-pod paths; k=6: 3.
        let idx4 = FatTreeIndex::new(4);
        let g4 = idx4.graph();
        assert!(node_disjoint_paths(&g4, idx4.edge(0, 0), idx4.edge(1, 0), 2).is_some());
        assert!(node_disjoint_paths(&g4, idx4.edge(0, 0), idx4.edge(1, 0), 3).is_none());
        let idx6 = FatTreeIndex::new(6);
        let g6 = idx6.graph();
        let paths = vendor_diverse_paths(&g6, idx6.edge(0, 0), idx6.edge(1, 0), 3).unwrap();
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn any_host_can_ping_any_other() {
        // k=4 fat-tree; ping across pods and within a pod.
        let idx = FatTreeIndex::new(4);
        let dst = 13; // pod 3
        let dst_ip = idx.host_ip(dst);
        let ft = {
            let idx2 = FatTreeIndex::new(4);
            FatTree::build(
                idx2,
                &Profile::functional(),
                3,
                |h, nic| {
                    if h == 0 {
                        Box::new(Pinger::new(nic, PingConfig::new(dst_ip).with_count(5)))
                    } else {
                        Box::new(IcmpEchoResponder::new(nic))
                    }
                },
                &FatTreeOptions::default(),
            )
        };
        let mut ft = ft;
        ft.world.run_for(SimDuration::from_secs(2));
        let report = ft.world.device::<Pinger>(ft.hosts[0]).unwrap().report();
        assert_eq!(report.transmitted, 5);
        assert_eq!(report.received, 5, "cross-pod ping must round-trip");
    }

    #[test]
    fn intra_pod_ping_stays_off_the_core() {
        let idx = FatTreeIndex::new(4);
        // hosts 0 and 2 share pod 0 but sit on different edges.
        let dst_ip = idx.host_ip(2);
        let mut ft = FatTree::build(
            FatTreeIndex::new(4),
            &Profile::functional(),
            3,
            |h, nic| {
                if h == 0 {
                    Box::new(Pinger::new(nic, PingConfig::new(dst_ip).with_count(3)))
                } else {
                    Box::new(IcmpEchoResponder::new(nic))
                }
            },
            &FatTreeOptions::default(),
        );
        ft.world.run_for(SimDuration::from_secs(1));
        let report = ft.world.device::<Pinger>(ft.hosts[0]).unwrap().report();
        assert_eq!(report.received, 3);
        // tcpdump equivalent: no core switch saw any traffic.
        for c in 0..4 {
            let core = ft.switches[ft.index.core(c)];
            assert_eq!(
                ft.world.counters(core).total().rx_frames,
                0,
                "core{c} must stay idle for intra-pod traffic"
            );
        }
    }
}
