//! Diverse path computation for the virtualized combiner (paper §VII),
//! over a [`TopoGraph`]'s switch-level nodes.

use std::collections::VecDeque;

use crate::graph::TopoGraph;

/// A vendor (or country-of-manufacture) label; the diversity unit of the
/// paper's non-cooperation assumption (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VendorId(pub u32);

/// Shortest path `src → dst` (BFS over `adj`, ties broken by link
/// insertion order) avoiding `banned` interior nodes. Endpoints are never
/// banned.
fn shortest_path(
    adj: &[Vec<(usize, usize, u16)>],
    src: usize,
    dst: usize,
    banned: &[bool],
) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut prev = vec![usize::MAX; adj.len()];
    let mut queue = VecDeque::new();
    prev[src] = src;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for &(_, v, _) in &adj[u] {
            if prev[v] != usize::MAX || (v != dst && banned[v]) {
                continue;
            }
            prev[v] = u;
            if v == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = prev[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

/// Greedy shortest-first: `k` times, take the shortest path around the
/// banned nodes, then let `ban` widen the ban with that path's interior.
fn greedy_paths(
    graph: &TopoGraph,
    src: usize,
    dst: usize,
    k: usize,
    mut ban: impl FnMut(&[usize], &mut [bool]),
) -> Option<Vec<Vec<usize>>> {
    let adj = graph.adjacency();
    let mut banned = vec![false; adj.len()];
    let mut paths = Vec::new();
    for _ in 0..k {
        let path = shortest_path(&adj, src, dst, &banned)?;
        ban(interior(&path), &mut banned);
        paths.push(path);
    }
    Some(paths)
}

/// A path without its endpoints.
fn interior(path: &[usize]) -> &[usize] {
    path.get(1..path.len().saturating_sub(1))
        .unwrap_or_default()
}

/// Computes up to `k` node-disjoint paths from `src` to `dst` (greedy
/// shortest-first; interior nodes of chosen paths are removed).
///
/// Returns `None` when fewer than `k` disjoint paths exist.
pub fn node_disjoint_paths(
    graph: &TopoGraph,
    src: usize,
    dst: usize,
    k: usize,
) -> Option<Vec<Vec<usize>>> {
    greedy_paths(graph, src, dst, k, |interior, banned| {
        for &n in interior {
            banned[n] = true;
        }
    })
}

/// Computes up to `k` *vendor-diverse* paths: no vendor (`vendors[n]`
/// labels node `n`) appears on the interior of more than one path, so a
/// single compromised vendor can affect at most one copy.
///
/// Returns `None` when the graph cannot supply `k` such paths.
pub fn vendor_diverse_paths(
    graph: &TopoGraph,
    vendors: &[VendorId],
    src: usize,
    dst: usize,
    k: usize,
) -> Option<Vec<Vec<usize>>> {
    greedy_paths(graph, src, dst, k, |interior, banned| {
        // Ban every node of each vendor used on this path's interior.
        let used: Vec<VendorId> = interior.iter().map(|&n| vendors[n]).collect();
        for (is_banned, vendor) in banned.iter_mut().zip(vendors) {
            *is_banned |= used.contains(vendor);
        }
    })
}

/// Checks the diversity invariant: each vendor (`vendors[n]` labels node
/// `n`) occurs on the interior of at most one path.
pub fn paths_are_vendor_diverse(vendors: &[VendorId], paths: &[Vec<usize>]) -> bool {
    let mut seen: Vec<(VendorId, usize)> = Vec::new(); // (vendor, path idx)
    for (i, path) in paths.iter().enumerate() {
        for &n in interior(path) {
            let v = vendors[n];
            match seen.iter().find(|(sv, _)| *sv == v) {
                Some((_, owner)) if *owner != i => return false,
                Some(_) => {}
                None => seen.push((v, i)),
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use netco_sim::SimDuration;

    use super::*;
    use crate::graph::NodeKind;

    fn graph(n: usize, edges: &[(usize, usize)]) -> TopoGraph {
        let mut g = TopoGraph::new("paths");
        for i in 0..n {
            g.add_node(format!("n{i}"), NodeKind::Router);
        }
        for &(a, b) in edges {
            g.link(a, b, 1_000_000_000, SimDuration::from_micros(5));
        }
        g
    }

    /// A tiny "fat-tree slice": src 0 and dst 7, three parallel two-hop
    /// routes via (1,2), (3,4), (5,6) share no interior nodes; vendors
    /// 1,1 / 2,2 / 3,3, endpoints 0.
    fn parallel3() -> (TopoGraph, Vec<VendorId>) {
        let g = graph(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 7),
                (0, 3),
                (3, 4),
                (4, 7),
                (0, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let vendors = [0, 1, 1, 2, 2, 3, 3, 0].map(VendorId).to_vec();
        (g, vendors)
    }

    #[test]
    fn bfs_finds_shortest() {
        let (g, _) = parallel3();
        let p = shortest_path(&g.adjacency(), 0, 7, &[false; 8]).unwrap();
        assert_eq!(p.len(), 4); // 0, x, y, 7
        assert_eq!(p[0], 0);
        assert_eq!(p[3], 7);
    }

    #[test]
    fn three_disjoint_paths_exist() {
        let (g, _) = parallel3();
        let paths = node_disjoint_paths(&g, 0, 7, 3).unwrap();
        assert_eq!(paths.len(), 3);
        // Interiors are pairwise disjoint.
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            for &n in &p[1..p.len() - 1] {
                assert!(seen.insert(n), "node {n} reused");
            }
        }
    }

    #[test]
    fn four_disjoint_paths_do_not_exist() {
        let (g, _) = parallel3();
        assert!(node_disjoint_paths(&g, 0, 7, 4).is_none());
    }

    #[test]
    fn vendor_diverse_paths_hold_invariant() {
        let (g, vendors) = parallel3();
        let paths = vendor_diverse_paths(&g, &vendors, 0, 7, 3).unwrap();
        assert!(paths_are_vendor_diverse(&vendors, &paths));
    }

    #[test]
    fn same_vendor_everywhere_limits_to_one_path() {
        let (g, mut vendors) = parallel3();
        vendors[1..=6].fill(VendorId(9));
        assert!(vendor_diverse_paths(&g, &vendors, 0, 7, 2).is_none());
        assert!(vendor_diverse_paths(&g, &vendors, 0, 7, 1).is_some());
    }

    #[test]
    fn diversity_check_detects_violations() {
        // Two distinct paths whose interiors share vendor 1.
        let (_, mut vendors) = parallel3();
        let paths = vec![vec![0, 1, 2, 7], vec![0, 3, 4, 7]];
        // With the original labels they are diverse.
        assert!(paths_are_vendor_diverse(&vendors, &paths));
        vendors[3] = VendorId(1);
        vendors[4] = VendorId(1);
        assert!(!paths_are_vendor_diverse(&vendors, &paths));
    }

    #[test]
    fn disconnected_graph_yields_none() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        assert!(node_disjoint_paths(&g, 0, 3, 1).is_none());
    }

    #[test]
    fn src_equals_dst() {
        let (g, _) = parallel3();
        let p = node_disjoint_paths(&g, 0, 0, 1).unwrap();
        assert_eq!(p, vec![vec![0]]);
    }
}
