//! Deterministic, seed-keyed graph generators.
//!
//! Every generator is a pure function of its parameters and the seed:
//! same inputs → byte-identical [`TopoGraph`] (the proptests fold
//! [`TopoGraph::digest`] to enforce it). All randomness flows through
//! labeled [`SimRng`] forks, so adding a generator never perturbs an
//! existing one.

use std::net::Ipv4Addr;

use netco_net::MacAddr;
use netco_sim::{SimDuration, SimRng};

use crate::fattree::FatTreeIndex;
use crate::graph::{NodeKind, TopoGraph};
use crate::lattice::stagger_latency;

/// Default link rate for generated topologies (1 Gbit/s, the paper's
/// testbed speed).
pub(crate) const LINK_RATE_BPS: u64 = 1_000_000_000;

/// RNG fork labels (stable: part of the deterministic contract).
const FORK_LINKS: u64 = 0x11;
const FORK_HOSTS: u64 = 0x22;
const FORK_WIRE: u64 = 0x33;

/// Deterministic host MAC for generated topologies (distinct from the
/// fat-tree's `local(1000 + h)` scheme and the row lattice's `0x1000`
/// block).
pub(crate) fn host_mac(host: usize) -> MacAddr {
    MacAddr::local(0x2_0000 + host as u32)
}

/// Deterministic host IPv4 for generated topologies.
pub(crate) fn host_ip(host: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 100 + (host / 250) as u8, (host % 250) as u8, 2)
}

/// Per-link staggered latency: 3–9 µs, drawn in link-creation order.
fn next_latency(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_micros(rng.range(3, 10))
}

/// Attaches `hosts` hosts to routers of `g` in a seed-shuffled
/// round-robin (host `h` lands on the `h mod n`-th router of a shuffled
/// router permutation), then installs shortest-path routes.
fn attach_hosts_and_route(g: &mut TopoGraph, hosts: usize, rng: &mut SimRng) {
    let n = g.nodes.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut hrng = rng.fork(FORK_HOSTS);
    hrng.shuffle(&mut order);
    for h in 0..hosts {
        let node = order[h % n];
        let latency = next_latency(&mut hrng);
        g.attach_host(node, host_mac(h), host_ip(h), LINK_RATE_BPS, latency);
    }
    g.install_shortest_path_routes();
}

/// Chains disconnected components together (one deterministic link
/// between the smallest members of consecutive components), so sparse
/// random draws still yield a usable fabric. Returns how many links were
/// added — `0` means the draw was already connected.
fn ensure_connected(g: &mut TopoGraph, rng: &mut SimRng) -> usize {
    let comps = g.components();
    let added = comps.len().saturating_sub(1);
    for pair in comps.windows(2) {
        let latency = next_latency(rng);
        g.link(pair[0][0], pair[1][0], LINK_RATE_BPS, latency);
    }
    added
}

/// Erdős–Rényi `G(n, p)` with `p = avg_degree / (n-1)`, chained
/// connected, `hosts` hosts, shortest-path routes installed.
pub fn erdos_renyi(n: usize, avg_degree: f64, hosts: usize, seed: u64) -> TopoGraph {
    assert!(n >= 2, "need at least two routers");
    let mut g = TopoGraph::new("erdos_renyi");
    for i in 0..n {
        g.add_node(format!("er{i}"), NodeKind::Router);
    }
    let mut rng = SimRng::new(seed).fork(FORK_LINKS);
    let p = (avg_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
    let mut wire = rng.fork(FORK_WIRE);
    for i in 0..n {
        for j in (i + 1)..n {
            if wire.chance(p) {
                let latency = next_latency(&mut wire);
                g.link(i, j, LINK_RATE_BPS, latency);
            }
        }
    }
    ensure_connected(&mut g, &mut wire);
    attach_hosts_and_route(&mut g, hosts, &mut rng);
    g
}

/// Barabási-Albert preferential attachment: a complete seed clique of
/// `m + 1` routers, then each new router wires `m` links to targets
/// sampled proportionally to degree. Connected by construction.
pub fn barabasi_albert(n: usize, m: usize, hosts: usize, seed: u64) -> TopoGraph {
    assert!(m >= 1 && n > m + 1, "need n > m + 1 and m >= 1");
    let mut g = TopoGraph::new("barabasi_albert");
    for i in 0..n {
        g.add_node(format!("ba{i}"), NodeKind::Router);
    }
    let mut rng = SimRng::new(seed).fork(FORK_LINKS);
    let mut wire = rng.fork(FORK_WIRE);
    // `ends` lists every link endpoint twice; sampling an index uniformly
    // is sampling a node with probability proportional to its degree.
    let mut ends: Vec<usize> = Vec::with_capacity(2 * (m + 1 + (n - m - 1) * m));
    let m0 = m + 1;
    for i in 0..m0 {
        for j in (i + 1)..m0 {
            let latency = next_latency(&mut wire);
            g.link(i, j, LINK_RATE_BPS, latency);
            ends.push(i);
            ends.push(j);
        }
    }
    for v in m0..n {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        // Bounded rejection sampling (duplicates/self), deterministic
        // fallback to the lowest-index unused node so the loop always
        // terminates with exactly `m` distinct targets.
        let mut attempts = 0;
        while chosen.len() < m {
            let candidate = if attempts < 16 * m {
                ends[wire.next_below(ends.len() as u64) as usize]
            } else {
                (0..v)
                    .find(|c| !chosen.contains(c))
                    .expect("v > m distinct predecessors exist")
            };
            attempts += 1;
            if candidate != v && !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        for &t in &chosen {
            let latency = next_latency(&mut wire);
            g.link(v, t, LINK_RATE_BPS, latency);
            ends.push(v);
            ends.push(t);
        }
    }
    attach_hosts_and_route(&mut g, hosts, &mut rng);
    g
}

/// Watts-Strogatz small world: a ring where each router links its
/// `k_neighbors / 2` nearest neighbors on each side, then each link's
/// far endpoint is rewired with probability `beta` (self-loops and
/// duplicate links rejected; a failed draw keeps the lattice edge, so
/// node and edge counts are always preserved).
pub fn watts_strogatz(
    n: usize,
    k_neighbors: usize,
    beta: f64,
    hosts: usize,
    seed: u64,
) -> TopoGraph {
    assert!(
        k_neighbors >= 2 && k_neighbors.is_multiple_of(2) && k_neighbors < n,
        "k_neighbors must be even, >= 2 and < n"
    );
    let mut g = TopoGraph::new("watts_strogatz");
    for i in 0..n {
        g.add_node(format!("ws{i}"), NodeKind::Router);
    }
    let mut rng = SimRng::new(seed).fork(FORK_LINKS);
    let mut wire = rng.fork(FORK_WIRE);
    for i in 0..n {
        for j in 1..=(k_neighbors / 2) {
            let latency = next_latency(&mut wire);
            g.link(i, (i + j) % n, LINK_RATE_BPS, latency);
        }
    }
    for li in 0..g.links.len() {
        if !wire.chance(beta) {
            continue;
        }
        let a = g.links[li].a;
        // Up to 8 draws for a valid new far endpoint; keep the lattice
        // edge otherwise.
        for _ in 0..8 {
            let candidate = wire.next_below(n as u64) as usize;
            if candidate != a && candidate != g.links[li].b && !g.linked(a, candidate) {
                // Rewire in place: the far endpoint moves to the
                // candidate's smallest free port (earlier rewires leave
                // holes in the old endpoint's numbering); `a`'s port is
                // unchanged.
                g.rewire_far(li, candidate);
                break;
            }
        }
    }
    ensure_connected(&mut g, &mut wire);
    attach_hosts_and_route(&mut g, hosts, &mut rng);
    g
}

/// 2D grid (optionally a torus): `rows × cols` routers, lattice links
/// with the shared `stagger_latency` scheme, `hosts` hosts.
pub fn grid2d(rows: usize, cols: usize, torus: bool, hosts: usize, seed: u64) -> TopoGraph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
    let mut g = TopoGraph::new(if torus { "torus" } else { "grid" });
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(format!("g{r}.{c}"), NodeKind::Router);
        }
    }
    let at = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.link(at(r, c), at(r, c + 1), LINK_RATE_BPS, stagger_latency(r, c));
            } else if torus && cols > 2 {
                g.link(at(r, c), at(r, 0), LINK_RATE_BPS, stagger_latency(r, c));
            }
            if r + 1 < rows {
                g.link(at(r, c), at(r + 1, c), LINK_RATE_BPS, stagger_latency(c, r));
            } else if torus && rows > 2 {
                g.link(at(r, c), at(0, c), LINK_RATE_BPS, stagger_latency(c, r));
            }
        }
    }
    let mut rng = SimRng::new(seed).fork(FORK_LINKS);
    attach_hosts_and_route(&mut g, hosts, &mut rng);
    g
}

/// The k-ary fat-tree (Clos) fabric of Fig. 1 as a [`TopoGraph`]: its
/// switch indices, port scheme, host MACs/IPs and deterministic
/// ECMP-style routes, links pod by pod. Host count is fixed by the arity
/// (`k³/4`).
pub fn fat_tree(k: usize, seed: u64) -> TopoGraph {
    let index = FatTreeIndex::new(k);
    let mut g = TopoGraph::new("fat_tree");
    for s in 0..index.switch_count() {
        g.add_node(index.switch_name(s), NodeKind::Router);
    }
    let mut rng = SimRng::new(seed).fork(FORK_LINKS);
    let mut wire = rng.fork(FORK_WIRE);
    for (s, sp, d, dp) in index.links() {
        let latency = next_latency(&mut wire);
        g.link_with_ports(s, sp, d, dp, LINK_RATE_BPS, latency);
    }
    for h in 0..index.host_count() {
        let (pod, e, slot) = index.host_position(h);
        let latency = next_latency(&mut wire);
        g.attach_host_at(
            index.edge(pod, e),
            slot as u16,
            index.host_mac(h),
            index.host_ip(h),
            LINK_RATE_BPS,
            latency,
        );
    }
    // The fat-tree's own deterministic ECMP-style routes, not plain BFS.
    g.routes = (0..g.nodes.len())
        .map(|s| (0..g.hosts.len()).map(|h| index.route_port(s, h)).collect())
        .collect();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        for (a, b) in [
            (
                erdos_renyi(24, 4.0, 10, 7).digest(),
                erdos_renyi(24, 4.0, 10, 7).digest(),
            ),
            (
                barabasi_albert(24, 2, 10, 7).digest(),
                barabasi_albert(24, 2, 10, 7).digest(),
            ),
            (
                watts_strogatz(24, 4, 0.1, 10, 7).digest(),
                watts_strogatz(24, 4, 0.1, 10, 7).digest(),
            ),
            (
                grid2d(4, 6, false, 10, 7).digest(),
                grid2d(4, 6, false, 10, 7).digest(),
            ),
            (fat_tree(4, 7).digest(), fat_tree(4, 7).digest()),
        ] {
            assert_eq!(a, b);
        }
        assert_ne!(
            erdos_renyi(24, 4.0, 10, 7).digest(),
            erdos_renyi(24, 4.0, 10, 8).digest(),
            "seed must matter"
        );
    }

    #[test]
    fn ba_degree_sum_matches_edge_count() {
        let g = barabasi_albert(40, 3, 10, 3);
        let m0 = 4;
        let expected = m0 * (m0 - 1) / 2 + (40 - m0) * 3;
        assert_eq!(g.links.len(), expected);
        assert!(g.is_connected());
    }

    #[test]
    fn ws_preserves_counts() {
        let g = watts_strogatz(30, 4, 0.3, 10, 9);
        assert_eq!(g.nodes.len(), 30);
        // 30 * 4 / 2 = 60 lattice edges, possibly + chain-up links.
        assert!(g.links.len() >= 60);
        assert!(g.is_connected());
    }

    #[test]
    fn fat_tree_matches_index_form() {
        let index = FatTreeIndex::new(4);
        let g = fat_tree(4, 1);
        assert_eq!(g.nodes.len(), index.switch_count());
        assert_eq!(g.hosts.len(), index.host_count());
        assert_eq!(g.links.len(), 4 * 2 * 2 * 2, "k^3/2 inter-switch links");
        // Host 0 to host 15 crosses edge-agg-core-agg-edge: 5 switches.
        assert_eq!(g.route_hops(0, 15), Some(5));
        // Same-edge pair: one switch.
        assert_eq!(g.route_hops(0, 1), Some(1));
        assert!(g.is_connected());
    }

    #[test]
    fn er_is_connected_and_routed() {
        let g = erdos_renyi(40, 3.0, 20, 11);
        assert!(g.is_connected());
        for h in 1..20 {
            assert!(g.route_hops(0, h).is_some(), "host 0 -> {h} unroutable");
        }
    }
}
