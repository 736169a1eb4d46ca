//! The pure NetCo-ization transform: replace untrusted routers with the
//! paper's robust combiner, entirely in the index form.
//!
//! A replaced router of degree `d` (links *and* hosts both count)
//! becomes one cell of `d` trusted guards — one per former attachment,
//! port 0 facing whatever that attachment faced — plus `k` untrusted
//! replica switches, each wired to every guard (replica `i` port
//! `j + 1` ↔ guard `j` port `i`, the `netco_bench::grid` cell geometry
//! generalized from degree 2 to degree `d`). The replicas inherit the
//! router's route table (egress ports remapped through attachment
//! rank), guards carry no routes (their forwarding is hub-and-vote, not
//! table lookup), and untouched nodes, links, hosts and routes are
//! preserved index-for-index. Because the transform is pure, path
//! stretch and switch inflation can be measured on the output graph
//! before a single simulator event fires.

use netco_sim::SimDuration;
use netco_topo::cell::{guard_replica_ports, replica_port};

use crate::graph::{Attachment, NodeKind, TopoGraph, NO_ROUTE};

/// Rate of the intra-cell guard↔replica links (1 Gbit/s, matching the
/// fabric links the generators emit).
pub(crate) const CELL_LINK_RATE_BPS: u64 = 1_000_000_000;

/// One-way latency of the intra-cell guard↔replica links. Short but
/// positive: the cell's internal edges stay visible to the region
/// partitioner's lookahead matrix.
pub(crate) const CELL_LINK_LATENCY_US: u64 = 2;

/// What fraction of routers to NetCo-ize, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetcoizeSpec {
    /// Fraction of `Router` nodes to replace, in `[0, 1]`. The count is
    /// rounded to nearest; `1.0` replaces every router.
    pub fraction: f64,
    /// Replicas per cell. `k >= 3` yields Prevent semantics (majority
    /// vote), `k == 2` yields Detect (mismatch alarms, first copy
    /// released).
    pub k: usize,
    /// Seed for the replacement-site selection shuffle.
    pub seed: u64,
}

impl NetcoizeSpec {
    /// Replace every router with a `k`-replica cell.
    pub fn full(k: usize, seed: u64) -> NetcoizeSpec {
        NetcoizeSpec {
            fraction: 1.0,
            k,
            seed,
        }
    }

    /// Whether cells built from this spec run Detect (k < 3) rather
    /// than Prevent semantics.
    pub(crate) fn detect(&self) -> bool {
        self.k < 3
    }
}

/// The deterministic set of router indices `netcoize` will replace for
/// this spec: a seeded shuffle of the router indices, truncated to the
/// rounded fraction, returned sorted. Exposed so campaigns can place
/// adversarial replicas at known sites.
pub(crate) fn replacement_sites(base: &TopoGraph, spec: &NetcoizeSpec) -> Vec<usize> {
    let routers = |kind| kind == NodeKind::Router;
    base.seeded_sites(routers, spec.fraction, spec.seed, 0x6e63) // "nc"
}

/// Replaces the selected fraction of `base`'s routers with guard +
/// `k`-replica cells (see the module docs) and returns the transformed
/// graph. `base.routes` must be installed. With a selection of zero
/// routers (fraction `0.0`, or a fraction that rounds to zero sites)
/// the transform is the identity.
///
/// # Panics
///
/// Panics if `spec.k < 2` or `base.routes` is empty while hosts exist.
pub fn netcoize(base: &TopoGraph, spec: &NetcoizeSpec) -> TopoGraph {
    assert!(spec.k >= 2, "a combiner needs at least two replicas");
    assert!(
        base.hosts.is_empty() || !base.routes.is_empty(),
        "install routes before netcoizing"
    );
    let sites = replacement_sites(base, spec);
    if sites.is_empty() {
        return base.clone();
    }
    let replaced = {
        let mut flags = vec![false; base.nodes.len()];
        for &s in &sites {
            flags[s] = true;
        }
        flags
    };

    let mut out = TopoGraph::new(base.class.clone());
    // Surviving nodes first (same relative order), then each cell's
    // guards and replicas in base-index order.
    let mut survivor: Vec<Option<usize>> = vec![None; base.nodes.len()];
    for (n, node) in base.nodes.iter().enumerate() {
        if !replaced[n] {
            survivor[n] = Some(out.add_node(node.name.clone(), node.kind));
        }
    }
    // Per replaced node: its attachments in port-rank order, the new
    // guard node per rank, and the new replica nodes.
    struct Cell {
        base_node: usize,
        /// `(base port, attachment)` sorted by port; rank = index.
        atts: Vec<(u16, Attachment)>,
        guards: Vec<usize>,
        replicas: Vec<usize>,
    }
    impl Cell {
        fn rank(&self, port: u16) -> usize {
            self.atts
                .binary_search_by_key(&port, |&(p, _)| p)
                .expect("port is an attachment")
        }
    }
    let detect = spec.detect();
    let mut cells: Vec<Cell> = Vec::with_capacity(sites.len());
    // `cell_of[n]` indexes `cells` for a replaced base node `n`.
    let mut cell_of: Vec<usize> = vec![usize::MAX; base.nodes.len()];
    for &n in &sites {
        cell_of[n] = cells.len();
        let atts = base.attachments(n);
        assert!(!atts.is_empty(), "cannot netcoize an isolated router");
        let name = &base.nodes[n].name;
        let guards: Vec<usize> = (0..atts.len())
            .map(|j| {
                out.add_node(
                    format!("{name}#g{j}"),
                    NodeKind::Guard { k: spec.k, detect },
                )
            })
            .collect();
        let replicas: Vec<usize> = (1..=spec.k)
            .map(|i| out.add_node(format!("{name}#r{i}"), NodeKind::Replica { index: i }))
            .collect();
        cells.push(Cell {
            base_node: n,
            atts,
            guards,
            replicas,
        });
    }
    // An endpoint `(node, port)` of a base link/host maps to the node's
    // survivor (same port) or to the guard fronting that attachment
    // rank (port 0).
    let map_end = |node: usize, port: u16| -> (usize, u16) {
        match survivor[node] {
            Some(s) => (s, port),
            None => {
                let cell = &cells[cell_of[node]];
                (cell.guards[cell.rank(port)], 0)
            }
        }
    };
    for l in &base.links {
        let (a, a_port) = map_end(l.a, l.a_port);
        let (b, b_port) = map_end(l.b, l.b_port);
        out.link_with_ports(a, a_port, b, b_port, l.rate_bps, l.latency);
    }
    let cell_latency = SimDuration::from_micros(CELL_LINK_LATENCY_US);
    for cell in &cells {
        // Replica i port j+1 ↔ guard j port i — `netco_topo::cell`'s scheme.
        for (&replica, i) in cell.replicas.iter().zip(guard_replica_ports(spec.k)) {
            for (j, &guard) in cell.guards.iter().enumerate() {
                out.link_with_ports(
                    guard,
                    i,
                    replica,
                    replica_port(j),
                    CELL_LINK_RATE_BPS,
                    cell_latency,
                );
            }
        }
    }
    for h in &base.hosts {
        let (node, port) = map_end(h.attach, h.attach_port);
        out.attach_host_at(node, port, h.mac, h.ip, h.rate_bps, h.latency);
    }

    // Routes: survivors keep their rows verbatim (their egress ports
    // did not move); replicas remap each egress port to attachment rank
    // + 1 (their port toward the guard fronting that attachment);
    // guards carry no table.
    out.routes = vec![vec![NO_ROUTE; out.hosts.len()]; out.nodes.len()];
    for (n, row) in base.routes.iter().enumerate() {
        if let Some(s) = survivor[n] {
            out.routes[s].clone_from(row);
        }
    }
    for cell in &cells {
        let base_row = &base.routes[cell.base_node];
        for (h, &port) in base_row.iter().enumerate() {
            if port == NO_ROUTE {
                continue;
            }
            let toward = replica_port(cell.rank(port));
            for &replica in &cell.replicas {
                out.routes[replica][h] = toward;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use netco_net::MacAddr;

    use super::*;

    fn path3() -> TopoGraph {
        let mut g = TopoGraph::new("path");
        let a = g.add_node("a", NodeKind::Router);
        let b = g.add_node("b", NodeKind::Router);
        let c = g.add_node("c", NodeKind::Router);
        let us = SimDuration::from_micros(5);
        g.link(a, b, 1_000_000_000, us);
        g.link(b, c, 1_000_000_000, us);
        g.attach_host(
            a,
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
            1_000_000_000,
            us,
        );
        g.attach_host(
            c,
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 2),
            1_000_000_000,
            us,
        );
        g.install_shortest_path_routes();
        g
    }

    #[test]
    fn fraction_zero_is_identity() {
        let base = path3();
        let out = netcoize(
            &base,
            &NetcoizeSpec {
                fraction: 0.0,
                k: 3,
                seed: 9,
            },
        );
        assert_eq!(out, base);
        assert_eq!(out.digest(), base.digest());
    }

    #[test]
    fn full_netcoize_builds_cells_and_preserves_paths() {
        let base = path3();
        let out = netcoize(&base, &NetcoizeSpec::full(3, 9));
        // Every degree-2 router becomes 2 guards + 3 replicas.
        assert_eq!(out.kind_counts(), (0, 6, 9));
        assert_eq!(out.switch_count(), 15);
        // Base: host0 -> host1 crosses a, b, c = 3 hops. NetCo-ized:
        // each router is guard+replica+guard = 3 hops -> 9.
        assert_eq!(base.route_hops(0, 1), Some(3));
        assert_eq!(out.route_hops(0, 1), Some(9));
        assert_eq!(out.route_hops(1, 0), Some(9));
        // Host indices and addresses are preserved.
        assert_eq!(out.hosts[0].mac, base.hosts[0].mac);
        assert_eq!(out.hosts[1].ip, base.hosts[1].ip);
        assert!(out.is_connected());
    }

    #[test]
    fn partial_netcoize_keeps_survivor_routes() {
        let base = path3();
        let spec = NetcoizeSpec {
            fraction: 0.34, // rounds to 1 of 3 routers
            k: 2,
            seed: 4,
        };
        let sites = replacement_sites(&base, &spec);
        assert_eq!(sites.len(), 1);
        let out = netcoize(&base, &spec);
        let (routers, guards, replicas) = out.kind_counts();
        assert_eq!(routers, 2);
        assert_eq!(replicas, 2);
        assert!(guards >= 2);
        // Paths still resolve end to end; exactly one cell adds 2 hops.
        assert_eq!(out.route_hops(0, 1), Some(5));
        // Detect semantics at k = 2.
        assert!(out
            .nodes
            .iter()
            .all(|n| !matches!(n.kind, NodeKind::Guard { detect: false, .. })));
    }

    #[test]
    fn site_selection_is_seeded_and_sorted() {
        let base = path3();
        let spec = NetcoizeSpec {
            fraction: 0.67,
            k: 3,
            seed: 11,
        };
        let a = replacement_sites(&base, &spec);
        let b = replacement_sites(&base, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            netcoize(&base, &spec).digest(),
            netcoize(&base, &spec).digest()
        );
    }
}
