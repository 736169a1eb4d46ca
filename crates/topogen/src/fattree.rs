//! The k-ary fat-tree (Clos) index scheme — the environment of the
//! paper's Fig. 1 — as pure arithmetic: switch indices and roles, the
//! port wiring between tiers, host MACs / IPs / ports, static
//! MAC-destination routes and the vendor labels of §VII.
//! [`crate::generate::fat_tree`] turns it into a [`crate::TopoGraph`].

use std::net::Ipv4Addr;

use netco_net::MacAddr;

use crate::paths::VendorId;

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
    pub(crate) fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
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
    /// static MAC routing scheme: the host port on the destination's
    /// edge, the downlink toward the destination's pod or edge, else the
    /// uplink `k/2 + dst_host % (k/2)` (a deterministic ECMP-style
    /// spread). Every switch has a route to every host.
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

    /// The §VII vendor label of a switch: aggregation switch `j` of
    /// every pod and the cores it uplinks to share `VendorId(j + 1)`;
    /// edges are `VendorId(0)`.
    pub fn vendor(&self, gidx: usize) -> VendorId {
        match self.role(gidx) {
            SwitchRole::Edge(..) => VendorId(0),
            SwitchRole::Agg(_, a) => VendorId(a as u32 + 1),
            SwitchRole::Core(c) => VendorId((c / self.half()) as u32 + 1),
        }
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

#[cfg(test)]
mod tests {
    use netco_net::Device;
    use netco_sim::SimDuration;
    use netco_topo::Profile;
    use netco_traffic::{IcmpEchoResponder, PingConfig, PingReport, Pinger};

    use super::*;
    use crate::build::{build_world, BuiltTopo};
    use crate::generate::fat_tree;
    use crate::paths::{node_disjoint_paths, vendor_diverse_paths};

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

    /// `build_world` over `generate::fat_tree(4, 3)` with a pinger on
    /// host 0 toward `dst`, responders elsewhere, run for `run_for`.
    fn ping_from_host0(dst: usize, count: u32, run_for: SimDuration) -> (BuiltTopo, PingReport) {
        let graph = fat_tree(4, 3);
        let dst_ip = graph.hosts[dst].ip;
        let mut built = build_world(
            &graph,
            &Profile::functional(),
            3,
            |h, nic| -> Box<dyn Device> {
                if h == 0 {
                    Box::new(Pinger::new(nic, PingConfig::new(dst_ip).with_count(count)))
                } else {
                    Box::new(IcmpEchoResponder::new(nic))
                }
            },
            None,
        );
        built.world.run_for(run_for);
        let report = built
            .world
            .device::<Pinger>(built.host_ids[0])
            .unwrap()
            .report();
        (built, report)
    }

    #[test]
    fn graph_has_expected_disjoint_paths() {
        // k=4: 2 interior-disjoint inter-pod paths; k=6: 3.
        let (idx4, g4) = (FatTreeIndex::new(4), fat_tree(4, 1));
        assert!(node_disjoint_paths(&g4, idx4.edge(0, 0), idx4.edge(1, 0), 2).is_some());
        assert!(node_disjoint_paths(&g4, idx4.edge(0, 0), idx4.edge(1, 0), 3).is_none());
        let (idx6, g6) = (FatTreeIndex::new(6), fat_tree(6, 1));
        let vendors: Vec<_> = (0..idx6.switch_count()).map(|n| idx6.vendor(n)).collect();
        let paths =
            vendor_diverse_paths(&g6, &vendors, idx6.edge(0, 0), idx6.edge(1, 0), 3).unwrap();
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn any_host_can_ping_any_other() {
        // Host 13 sits in pod 3: the ping crosses the core.
        let (_, report) = ping_from_host0(13, 5, SimDuration::from_secs(2));
        assert_eq!(report.transmitted, 5);
        assert_eq!(report.received, 5, "cross-pod ping must round-trip");
    }

    #[test]
    fn intra_pod_ping_stays_off_the_core() {
        // Hosts 0 and 2 share pod 0 but sit on different edges.
        let (built, report) = ping_from_host0(2, 3, SimDuration::from_secs(1));
        assert_eq!(report.received, 3);
        // tcpdump equivalent: no core switch saw any traffic.
        let idx = FatTreeIndex::new(4);
        for c in 0..4 {
            let core = built.switch_ids[idx.core(c)];
            assert_eq!(
                built.world.counters(core).total().rx_frames,
                0,
                "core{c} must stay idle for intra-pod traffic"
            );
        }
    }
}
