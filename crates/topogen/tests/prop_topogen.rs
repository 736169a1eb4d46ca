//! Property tests for the topology generators and the NetCo-ization
//! transform (ISSUE 9): seed determinism is byte-exact, connectivity is
//! restored (or islands reported) for every draw, Barabási-Albert obeys
//! its degree-sum arithmetic, Watts-Strogatz preserves node and edge
//! counts through rewiring, and `netcoize` at fraction 0 is the identity.
//! Since PR 21 also: the per-node port table answers every port question
//! the way a scan of the edge list does, and the campaign's graphs are the
//! bytes they were before the table existed.

use netco_topogen::campaign::CampaignConfig;
use netco_topogen::generate::{barabasi_albert, erdos_renyi, fat_tree, grid2d, watts_strogatz};
use netco_topogen::graph::Attachment;
use netco_topogen::{netcoize, NetcoizeSpec, NodeKind, TopoGraph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// Degree of `node` counted from the link list (host attachments are
/// tracked separately and deliberately excluded).
fn degree(g: &TopoGraph, node: usize) -> usize {
    g.links
        .iter()
        .filter(|l| l.a == node || l.b == node)
        .count()
}

/// What sits on each port of `node`, sorted by port: the edge-list scan
/// `TopoGraph::attachments` was before the port table (PR 21), kept here
/// as the table's reference.
fn scan_attachments(g: &TopoGraph, node: usize) -> Vec<(u16, Attachment)> {
    let mut out: Vec<(u16, Attachment)> = Vec::new();
    for (i, l) in g.links.iter().enumerate() {
        if l.a == node {
            out.push((l.a_port, Attachment::Link(i)));
        }
        if l.b == node {
            out.push((l.b_port, Attachment::Link(i)));
        }
    }
    for (i, h) in g.hosts.iter().enumerate() {
        if h.attach == node {
            out.push((h.attach_port, Attachment::Host(i)));
        }
    }
    out.sort_by_key(|&(p, _)| p);
    out
}

/// The smallest unwired port, from the scan (the retired `used_ports`
/// walk).
fn scan_free_port(g: &TopoGraph, node: usize) -> u16 {
    let mut next = 0;
    for (p, _) in scan_attachments(g, node) {
        if p == next {
            next += 1;
        } else if p > next {
            break;
        }
    }
    next
}

/// Every node's `attachments` / `free_port` / `port_count` against the
/// scan, and `linked` against the link list (every link, plus each node's
/// three id-successors as likely non-links).
fn ports_match_the_scan(g: &TopoGraph) -> TestCaseResult {
    for n in 0..g.nodes.len() {
        let scan = scan_attachments(g, n);
        prop_assert_eq!(g.attachments(n), scan.clone(), "{} node {}", g.class, n);
        prop_assert_eq!(
            g.free_port(n),
            scan_free_port(g, n),
            "{} node {}",
            g.class,
            n
        );
        prop_assert_eq!(
            g.port_count(n) as usize,
            scan.len(),
            "{} node {}",
            g.class,
            n
        );
    }
    let scan_linked = |a: usize, b: usize| {
        g.links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    };
    for l in &g.links {
        prop_assert!(g.linked(l.a, l.b) && g.linked(l.b, l.a));
    }
    for a in 0..g.nodes.len() {
        for b in (1..=3).map(|d| (a + d) % g.nodes.len()) {
            prop_assert_eq!(g.linked(a, b), scan_linked(a, b), "{} {}-{}", g.class, a, b);
        }
    }
    Ok(())
}

/// The five `CampaignConfig::full(7)` base graphs and their k = 3
/// NetCo-ized forms, byte for byte: `digest()` constants recorded on
/// commit 11cbfcb, where every port question was an edge-list scan
/// (EXPERIMENTS.md "PR 21"). The properties below compare a graph only
/// with itself; this compares it with the parent.
#[test]
fn campaign_graph_digests_are_pinned() {
    const PINNED: [(&str, u64, u64); 5] = [
        ("grid", 0x800df6ff3e37beaf, 0xf16b3405543c7874),
        ("erdos_renyi", 0xf42bc1843d550167, 0x6cb9d7b816077242),
        ("barabasi_albert", 0x196d80253ce90288, 0xd24d3cdba4dfabe6),
        ("watts_strogatz", 0x24f6aa4018ac9be1, 0x8723b339a8542475),
        ("fat_tree", 0xe78b3850f8b72e65, 0xb6c8b9c1885e8d64),
    ];
    let cfg = CampaignConfig::full(7);
    let got: Vec<(&str, u64, u64)> = cfg
        .classes
        .iter()
        .zip(0u64..)
        .map(|(class, class_idx)| {
            let base = class.graph(cfg.hosts, cfg.seed.wrapping_add(class_idx));
            let netco = netcoize(&base, &NetcoizeSpec::full(3, cfg.seed));
            (class.label(), base.digest(), netco.digest())
        })
        .collect();
    assert!(got == PINNED, "campaign graphs moved: {got:#018x?}");
}

proptest! {
    /// After any generator and after `netcoize`, the port table and a
    /// scan of the edge list give the same answer for every node —
    /// including Watts-Strogatz draws, whose rewiring moves link ends and
    /// leaves holes in the port numbering.
    #[test]
    fn port_table_agrees_with_the_edge_list(
        n in 8usize..28,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let graphs = [
            erdos_renyi(n, 3.0, 6, seed),
            barabasi_albert(n, 2, 6, seed),
            watts_strogatz(n, 4, 0.0, 6, seed),
            watts_strogatz(n, 4, 0.3, 6, seed),
            watts_strogatz(n, 4, 1.0, 6, seed),
            grid2d(3, n.div_ceil(3), n % 2 == 0, 6, seed),
            fat_tree(4, seed),
        ];
        for base in &graphs {
            ports_match_the_scan(base)?;
            ports_match_the_scan(&netcoize(base, &NetcoizeSpec { fraction: 0.5, k, seed }))?;
            ports_match_the_scan(&netcoize(base, &NetcoizeSpec::full(k, seed)))?;
        }
    }

    /// Same parameters, same seed → byte-identical graphs, across every
    /// generator family; a different seed must perturb the randomized
    /// families.
    #[test]
    fn same_seed_builds_byte_identical_graphs(
        n in 6usize..32,
        seed in any::<u64>(),
        hosts in 0usize..12,
    ) {
        let pairs = [
            (
                erdos_renyi(n, 3.0, hosts, seed).digest(),
                erdos_renyi(n, 3.0, hosts, seed).digest(),
            ),
            (
                barabasi_albert(n, 2, hosts, seed).digest(),
                barabasi_albert(n, 2, hosts, seed).digest(),
            ),
            (
                watts_strogatz(n, 4, 0.2, hosts, seed).digest(),
                watts_strogatz(n, 4, 0.2, hosts, seed).digest(),
            ),
            (
                grid2d(3, n.div_ceil(3), n % 2 == 0, hosts, seed).digest(),
                grid2d(3, n.div_ceil(3), n % 2 == 0, hosts, seed).digest(),
            ),
        ];
        for (a, b) in pairs {
            prop_assert_eq!(a, b, "same seed must rebuild the same bytes");
        }
        // The seed must reach the wiring.
        prop_assert_ne!(
            erdos_renyi(n, 3.0, hosts, seed).digest(),
            erdos_renyi(n, 3.0, hosts, seed.wrapping_add(1)).digest(),
        );
    }

    /// Every draw either comes out connected or its islands were chained:
    /// the emitted graph always reports exactly one component, and every
    /// host pair is mutually routable.
    #[test]
    fn generated_graphs_are_connected_and_routed(
        n in 6usize..32,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        // Sparse ER draws (avg degree 1) island frequently; the generator
        // must chain them rather than emit an unroutable fabric.
        let avg = if sparse { 1.0 } else { 4.0 };
        let g = erdos_renyi(n, avg, 6, seed);
        prop_assert_eq!(g.components().len(), 1, "islands must be chained");
        prop_assert!(g.is_connected());
        for a in 0..g.hosts.len() {
            for b in 0..g.hosts.len() {
                if a != b {
                    prop_assert!(
                        g.route_hops(a, b).is_some(),
                        "host {} -> {} unroutable", a, b
                    );
                }
            }
        }
    }

    /// Barabási-Albert arithmetic: a complete `m + 1` clique plus `m`
    /// links per later node, so the degree sum is exactly twice that, and
    /// preferential attachment never disconnects the graph.
    #[test]
    fn ba_degree_sum_matches_the_attachment_arithmetic(
        n in 8usize..40,
        m in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(n > m + 1);
        let g = barabasi_albert(n, m, 4, seed);
        let m0 = m + 1;
        let links = m0 * (m0 - 1) / 2 + (n - m0) * m;
        prop_assert_eq!(g.links.len(), links);
        let degree_sum: usize = (0..g.nodes.len()).map(|v| degree(&g, v)).sum();
        prop_assert_eq!(degree_sum, 2 * links, "every link contributes two ends");
        // Seed-clique members accrete attachment; no node exceeds them by
        // construction of the clique (they start with the max degree).
        prop_assert!(g.is_connected());
    }

    /// Watts-Strogatz rewiring moves far endpoints but never creates or
    /// destroys nodes or lattice edges; only island-chaining may add.
    #[test]
    fn ws_rewiring_preserves_counts(
        n in 8usize..40,
        beta_pct in 0u32..100,
        seed in any::<u64>(),
    ) {
        let k = 4;
        let beta = f64::from(beta_pct) / 100.0;
        let g = watts_strogatz(n, k, beta, 5, seed);
        prop_assert_eq!(g.nodes.len(), n, "rewiring must not add nodes");
        let lattice = n * k / 2;
        prop_assert!(
            g.links.len() >= lattice,
            "rewiring must preserve the lattice edges: {} < {}",
            g.links.len(),
            lattice
        );
        if beta_pct == 0 {
            prop_assert_eq!(
                g.links.len(),
                lattice,
                "beta 0 must be exactly the ring lattice"
            );
        }
        prop_assert!(g.nodes.iter().all(|node| node.kind == NodeKind::Router));
        prop_assert!(g.is_connected());
        // Rewiring must never double-book a (node, port) endpoint —
        // the regression that broke `netcoize` on rewired draws.
        let mut endpoints: Vec<(usize, u16)> = g
            .links
            .iter()
            .flat_map(|l| [(l.a, l.a_port), (l.b, l.b_port)])
            .chain(g.hosts.iter().map(|h| (h.attach, h.attach_port)))
            .collect();
        let total = endpoints.len();
        endpoints.sort_unstable();
        endpoints.dedup();
        prop_assert_eq!(endpoints.len(), total, "duplicate (node, port) endpoint");
    }

    /// `netcoize` at fraction 0 is the identity, byte for byte; at
    /// fraction 1 every router becomes a combiner cell with one guard per
    /// former attachment and exactly `k` replicas per site.
    #[test]
    fn netcoize_fraction_zero_is_identity(
        n in 6usize..24,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let base = barabasi_albert(n, 2, 6, seed);
        let zero = NetcoizeSpec { fraction: 0.0, k, seed };
        prop_assert_eq!(
            netcoize(&base, &zero).digest(),
            base.digest(),
            "fraction 0 must not touch a single byte"
        );
        let full = netcoize(&base, &NetcoizeSpec::full(k, seed));
        let (routers, guards, replicas) = full.kind_counts();
        prop_assert_eq!(routers, 0, "full netcoization leaves no bare router");
        prop_assert_eq!(guards, 2 * base.links.len() + base.hosts.len());
        prop_assert_eq!(replicas, n * k);
    }
}
