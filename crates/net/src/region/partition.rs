//! Which region each node runs in, and how far each region may run ahead:
//! the partition ([`RegionMap`]) and the safe-horizon fixpoint
//! ([`safe_horizons`]).
//!
//! # Partitioning
//!
//! Zero-latency links and zero-latency control channels are contracted
//! first (union-find): a zero-latency edge provides no lookahead, so both
//! endpoints must share a region. The resulting islands, ordered by their
//! smallest node id, are packed into id-contiguous blocks of roughly equal
//! node count — builders add nodes in locality order, so contiguous blocks
//! keep most links region-internal. The assignment is a pure function of
//! the topology, so every run (and every thread count) partitions
//! identically.
//!
//! # Safe horizon
//!
//! Let `E_r` be the earliest pending event of region `r` and `L[s][d]` the
//! minimum latency over cut edges from `s` to `d`. The *bound*
//! `B_r = min(E_r, min_s (B_s + L[s][r]))` is the earliest instant at
//! which region `r` could possibly emit anything — solved to fixpoint by
//! relaxation ([`safe_horizons`]). The *horizon*
//! `T_r = min over in-neighbors s of (B_s + L[s][r])` then bounds the
//! earliest event that could still arrive from outside. A region processes
//! events strictly below its horizon: same-timestamp cross-region arrivals
//! must first land so they merge into the tick in canonical key order.
//! Progress is guaranteed — the region holding the globally earliest event
//! `t*` has `T_r ≥ t* + min cut latency > t*` since every bound is at
//! least `t*` and every cut latency is positive.

use std::sync::Arc;

use crate::substrate::Substrate;

/// A deterministic partition of a world's nodes into regions, plus the
/// inter-region lookahead matrix.
pub(crate) struct RegionMap {
    /// `assignment[node] = region`.
    pub(crate) assignment: Arc<Vec<u32>>,
    /// Number of regions actually formed (`<=` the requested count).
    pub(crate) regions: u32,
    /// `lookahead[s][d]`: minimum latency in ns over cut edges from region
    /// `s` to region `d`; `u64::MAX` when no such edge exists.
    pub(crate) lookahead: Vec<Vec<u64>>,
}

impl RegionMap {
    pub(crate) fn partition(core: &Substrate, want: usize) -> RegionMap {
        let n = core.names.len();
        // Union-find with path halving; zero-latency edges are contracted
        // because they would yield zero lookahead (and deadlock risk).
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Deterministic: smaller root wins.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        };
        for link in &core.links {
            if link.spec.latency.as_nanos() == 0 {
                union(&mut parent, link.ends[0].0 .0, link.ends[1].0 .0);
            }
        }
        for ((a, b), spec) in &core.control {
            if spec.latency.as_nanos() == 0 {
                union(&mut parent, a.0, b.0);
            }
        }
        // Islands keyed by root; each island's id is its smallest member,
        // and islands are processed in ascending order of that id, so the
        // assignment is independent of hash-map iteration order.
        let island_of: Vec<u32> = (0..n as u32).map(|i| find(&mut parent, i)).collect();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (node, &root) in island_of.iter().enumerate() {
            members[root as usize].push(node as u32);
        }
        let islands: Vec<Vec<u32>> = members.into_iter().filter(|m| !m.is_empty()).collect();
        let regions = want.clamp(1, islands.len().max(1)) as u32;
        // Contiguous block assignment in island order. Builders add nodes
        // in locality order (a row of switches gets adjacent ids), so
        // id-contiguous blocks keep topological neighbors together and
        // most links internal — a deterministic stand-in for a full graph
        // partitioner. A region closes once it has met its proportional
        // share of nodes; the forced advance keeps one island available
        // for every region still open.
        let total: usize = islands.iter().map(Vec::len).sum();
        let mut assignment = vec![0u32; n];
        let mut r: u32 = 0;
        let mut cum = 0usize;
        let mut in_region = 0usize;
        for (i, island) in islands.iter().enumerate() {
            let remaining = islands.len() - i;
            let forced = remaining <= (regions - 1 - r) as usize;
            let met_share = cum * regions as usize >= (r as usize + 1) * total;
            if r + 1 < regions && in_region > 0 && (forced || met_share) {
                r += 1;
                in_region = 0;
            }
            cum += island.len();
            in_region += 1;
            for &node in island {
                assignment[node as usize] = r;
            }
        }
        let mut lookahead = vec![vec![u64::MAX; regions as usize]; regions as usize];
        for link in &core.links {
            let (ra, rb) = (
                assignment[link.ends[0].0.index()] as usize,
                assignment[link.ends[1].0.index()] as usize,
            );
            if ra != rb {
                let l = link.spec.latency.as_nanos();
                debug_assert!(l > 0, "cut link with zero latency survived contraction");
                lookahead[ra][rb] = lookahead[ra][rb].min(l);
                lookahead[rb][ra] = lookahead[rb][ra].min(l);
            }
        }
        for ((a, b), spec) in &core.control {
            let (ra, rb) = (
                assignment[a.index()] as usize,
                assignment[b.index()] as usize,
            );
            if ra != rb {
                let l = spec.latency.as_nanos();
                debug_assert!(
                    l > 0,
                    "cut control channel with zero latency survived contraction"
                );
                lookahead[ra][rb] = lookahead[ra][rb].min(l);
            }
        }
        RegionMap {
            assignment: Arc::new(assignment),
            regions,
            lookahead,
        }
    }
}

/// Solves the conservative-PDES bound/horizon fixpoint.
///
/// `earliest[r]` is region `r`'s earliest pending event in ns
/// (`u64::MAX` when idle); `lookahead[s][d]` is the minimum cut latency
/// from `s` to `d` (`u64::MAX` when no edge). Returns `(bound, horizon)`:
///
/// * `bound[r] = min(earliest[r], min_s(bound[s] + lookahead[s][r]))` —
///   the earliest instant region `r` could emit anything;
/// * `horizon[r] = min over in-neighbors s of (bound[s] + lookahead[s][r])`
///   (`u64::MAX` with no in-edges) — events strictly below it can never be
///   preceded by a not-yet-delivered cross-region arrival.
///
/// Pure so the property tests can drive it directly.
pub fn safe_horizons(earliest: &[u64], lookahead: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let (mut bound, mut horizon) = (Vec::new(), Vec::new());
    safe_horizons_into(earliest, lookahead, &mut bound, &mut horizon);
    (bound, horizon)
}

/// [`safe_horizons`] into caller-owned vectors, which the round loop
/// reuses across its (often ~10 k) coordinations.
pub(super) fn safe_horizons_into(
    earliest: &[u64],
    lookahead: &[Vec<u64>],
    bound: &mut Vec<u64>,
    horizon: &mut Vec<u64>,
) {
    let r = earliest.len();
    bound.clear();
    bound.extend_from_slice(earliest);
    // Bellman-Ford-style relaxation; positive edge weights guarantee the
    // fixpoint is reached in at most `r` sweeps.
    loop {
        let mut changed = false;
        for d in 0..r {
            for s in 0..r {
                if s == d || lookahead[s][d] == u64::MAX {
                    continue;
                }
                let via = bound[s].saturating_add(lookahead[s][d]);
                if via < bound[d] {
                    bound[d] = via;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    horizon.clear();
    horizon.resize(r, u64::MAX);
    for d in 0..r {
        for s in 0..r {
            if s == d || lookahead[s][d] == u64::MAX {
                continue;
            }
            horizon[d] = horizon[d].min(bound[s].saturating_add(lookahead[s][d]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::EchoDevice;
    use crate::{LinkSpec, World};

    #[test]
    fn zero_latency_edges_are_contracted() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), Default::default());
        let b = w.add_node("b", EchoDevice::default(), Default::default());
        let c = w.add_node("c", EchoDevice::default(), Default::default());
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        w.connect(b, 1.into(), c, 0.into(), LinkSpec::default());
        let map = RegionMap::partition(&w.core.sub, 3);
        let region_of = |node: crate::NodeId| map.assignment[node.index()];
        assert_eq!(map.regions, 2);
        assert_eq!(region_of(a), region_of(b));
        assert_ne!(region_of(a), region_of(c));
    }

    #[test]
    fn safe_horizons_basic_properties() {
        // Two regions, symmetric 5 µs lookahead.
        let l = vec![vec![u64::MAX, 5_000], vec![5_000, u64::MAX]];
        let (bound, horizon) = safe_horizons(&[10_000, 40_000], &l);
        assert_eq!(bound, vec![10_000, 15_000]);
        // Region 0 may run up to (but not including) B1 + L = 20 000;
        // region 1 up to B0 + L = 15 000.
        assert_eq!(horizon, vec![20_000, 15_000]);
        // An idle region's bound is lifted by its neighbor's sends: region
        // 0 could first emit at B0 = 7 000 + 5 000 = 12 000, so region 1
        // may still only advance to 17 000 — not unboundedly.
        let (bound, horizon) = safe_horizons(&[u64::MAX, 7_000], &l);
        assert_eq!(bound, vec![12_000, 7_000]);
        assert_eq!(horizon, vec![12_000, 17_000]);
    }
}
