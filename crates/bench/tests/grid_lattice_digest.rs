//! Pins the `netco_bench::grid` world to its PR-7 geometry.
//!
//! `build_grid` is the PR-7 `region_scale` world; its shape —
//! staggered latencies, host MAC scheme, payload sizes, replica datapath
//! ids — is load-bearing because the recorded benchmark digests depend on
//! it. PR 9 moved those constants into `netco_topogen::lattice` (the
//! single lattice builder the campaign grid generator shares); these
//! digests, computed from the pre-refactor builder, prove the move did
//! not perturb the world bit for bit.

use std::cell::RefCell;
use std::rc::Rc;

use netco_bench::grid::build_grid;
use netco_net::TapDirection;
use netco_sim::SimDuration;

/// SplitMix64 — the digest mixer shared with the determinism tests.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive tap digest of a `rows × cells` grid run for `ms`
/// simulated milliseconds, plus the tap count.
fn grid_digest(rows: usize, cells: usize, seed: u64, ms: u64) -> (u64, u64) {
    let mut world = build_grid(rows, cells, seed).world;
    let acc = Rc::new(RefCell::new((0u64, 0u64)));
    let tap_acc = Rc::clone(&acc);
    world.add_tap(move |ev| {
        let mut g = tap_acc.borrow_mut();
        let mut d = g.0;
        d = splitmix(d ^ ev.at.as_nanos());
        d = splitmix(d ^ ev.node.index() as u64);
        d = splitmix(d ^ ev.port.0 as u64);
        d = splitmix(d ^ matches!(ev.direction, TapDirection::Tx) as u64);
        d = splitmix(d ^ netco_net::fnv1a(ev.frame));
        g.0 = d;
        g.1 += 1;
    });
    world.run_for(SimDuration::from_millis(ms));
    let out = *acc.borrow();
    out
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
