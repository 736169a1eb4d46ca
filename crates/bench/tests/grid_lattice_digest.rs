//! Pins the `netco_bench::grid` world to its PR-7 geometry.
//!
//! `build_grid` is the PR-7 `region_scale` world; its shape —
//! staggered latencies, host MAC scheme, payload sizes, replica datapath
//! ids — is load-bearing because the recorded benchmark digests depend on
//! it. PR 9 moved those constants into `netco_topogen::lattice` (the
//! single lattice builder the campaign grid generator shares); these
//! digests, computed from the pre-refactor builder, prove the move did
//! not perturb the world bit for bit.

use netco_bench::grid::build_grid;
use netco_net::TapDigest;
use netco_sim::SimDuration;

/// Order-sensitive tap digest of a `rows × cells` grid run for `ms`
/// simulated milliseconds, plus the tap count.
fn grid_digest(rows: usize, cells: usize, seed: u64, ms: u64) -> (u64, u64) {
    let mut world = build_grid(rows, cells, seed).world;
    let digest = TapDigest::attach(&mut world);
    world.run_for(SimDuration::from_millis(ms));
    (digest.value(), digest.taps())
}

#[test]
fn small_grid_digest_is_pinned() {
    assert_eq!(grid_digest(4, 3, 7, 20), (0x0d7f16367a10ce0b, 19379));
}

#[test]
fn region_scale_grid_digest_is_pinned() {
    // The PR-7 `region_scale` world: 16 × 5 = 400 switches.
    assert_eq!(grid_digest(16, 5, 7, 50), (0x1b7764d9889f67ab, 185953));
}

#[test]
fn lattice_index_form_matches_built_grid() {
    // The same geometry, computed in the index form: RowGrid::graph()
    // NetCo-ized at k = 3 must predict build_grid's switch census.
    use netco_topogen::lattice::RowGrid;
    use netco_topogen::{netcoize, NetcoizeSpec};
    let lattice = RowGrid::new(4, 3);
    let netco = netcoize(&lattice.graph(), &NetcoizeSpec::full(3, 0));
    let grid = build_grid(4, 3, 7);
    assert_eq!(netco.switch_count(), grid.switches);
    let (routers, guards, replicas) = netco.kind_counts();
    assert_eq!(routers, 0);
    assert_eq!(guards, 4 * 3 * 2, "two guards per cell");
    assert_eq!(replicas, 4 * 3 * 3, "three replicas per cell");
    assert_eq!(RowGrid::switches_per_cell(3) * 4 * 3, grid.switches);
}
