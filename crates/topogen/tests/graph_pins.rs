//! What `netco-topogen` computes on a graph, pinned byte for byte: the
//! fat-tree and its §VII vendor labels, the two path searches over it,
//! and the four generators whose routes come from a breadth-first walk.
//! Every constant was recorded on commit d36952a, before the fat-tree's
//! ports and vendor groups were read from the graph and the crate's
//! walks were folded into one (command and output in EXPERIMENTS.md);
//! never re-record one from a change to those.

use netco_topogen::generate::{barabasi_albert, erdos_renyi, fat_tree, grid2d, watts_strogatz};
use netco_topogen::{
    node_disjoint_paths, vendor_diverse_paths, vendor_labels, TopoGraph, VendorId,
};

fn fold(mut d: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        d ^= byte as u64;
        d = d.wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

/// One digit per vendor label.
fn digits(labels: &[VendorId]) -> String {
    labels.iter().map(|v| v.0.to_string()).collect()
}

/// `fat_tree(k, 3)`'s digest and its vendor labels, k = 2, 4, 6, 8.
#[test]
fn fat_tree_digests_and_vendor_labels_are_pinned() {
    const PINNED: [(usize, u64, &str); 4] = [
        (2, 0x2160_0179_9661_bba7, "00111"),
        (4, 0x5ebe_8a0f_8cd2_8a6d, "00000000121212121122"),
        (
            6,
            0x5369_fe81_ca21_b6a9,
            "000000000000000000123123123123123123111222333",
        ),
        (
            8,
            0x69d0_02cc_f5a1_2e29,
            "00000000000000000000000000000000123412341234123412341234123412341111222233334444",
        ),
    ];
    let mut moved = Vec::new();
    for (k, pinned_digest, pinned_labels) in PINNED {
        let g = fat_tree(k, 3);
        let got = (g.digest(), digits(&vendor_labels(&g)));
        if got != (pinned_digest, pinned_labels.to_owned()) {
            moved.push(format!("k = {k}: {:#018x}, {:?}", got.0, got.1));
        }
    }
    assert!(
        moved.is_empty(),
        "fat-tree or its labels moved:\n{}",
        moved.join("\n")
    );
}

/// One digest per arity over `node_disjoint_paths` and
/// `vendor_diverse_paths` (k = 2, 3, 4, `None` included) for every
/// ordered pair of distinct edge switches of `fat_tree(6 | 8, 1)`.
#[test]
fn fat_tree_path_searches_are_pinned() {
    const PINNED: [(usize, u64); 2] = [(6, 0x1886_8474_3e54_f1c5), (8, 0x4fc8_66fb_798d_db25)];
    let mut moved = Vec::new();
    for (k, pinned) in PINNED {
        let g = fat_tree(k, 1);
        let vendors = vendor_labels(&g);
        let edges = k * k / 2;
        let mut d = 0xcbf2_9ce4_8422_2325;
        for src in 0..edges {
            for dst in (0..edges).filter(|&dst| dst != src) {
                for want in 2..=4 {
                    for paths in [
                        node_disjoint_paths(&g, src, dst, want),
                        vendor_diverse_paths(&g, &vendors, src, dst, want),
                    ] {
                        let Some(paths) = paths else {
                            d = fold(d, u64::MAX);
                            continue;
                        };
                        d = fold(d, paths.len() as u64);
                        for path in &paths {
                            d = fold(d, path.len() as u64);
                            for &n in path {
                                d = fold(d, n as u64);
                            }
                        }
                    }
                }
            }
        }
        if d != pinned {
            moved.push(format!("k = {k}: {d:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "path searches moved:\n{}",
        moved.join("\n")
    );
}

/// `digest()` of the four generators whose routes are breadth-first
/// shortest paths, at three sizes × seeds 1, 7 and 42. The sparse
/// Erdős–Rényi size is chained from several components.
#[test]
fn bfs_routed_generator_digests_are_pinned() {
    type Gen = fn(u64) -> TopoGraph;
    const SEEDS: [u64; 3] = [1, 7, 42];
    let generators: [(&str, Gen); 12] = [
        ("er 12", |s| erdos_renyi(12, 3.0, 6, s)),
        ("er 40 sparse", |s| erdos_renyi(40, 1.2, 20, s)),
        ("er 120", |s| erdos_renyi(120, 4.0, 60, s)),
        ("ba 12", |s| barabasi_albert(12, 2, 6, s)),
        ("ba 40", |s| barabasi_albert(40, 3, 20, s)),
        ("ba 120", |s| barabasi_albert(120, 2, 60, s)),
        ("ws 12", |s| watts_strogatz(12, 4, 0.2, 6, s)),
        ("ws 40", |s| watts_strogatz(40, 4, 0.1, 20, s)),
        ("ws 120", |s| watts_strogatz(120, 6, 0.3, 60, s)),
        ("grid 3x4", |s| grid2d(3, 4, false, 6, s)),
        ("torus 6x6", |s| grid2d(6, 6, true, 12, s)),
        ("grid 10x12", |s| grid2d(10, 12, false, 40, s)),
    ];
    // One row per generator above, one digest per seed.
    const PINNED: [[u64; 3]; 12] = [
        [0xea360a8260fcfb1b, 0xbddd1145e4266fe8, 0x7d00c66c4e0db479],
        [0x6581a15d95d15170, 0xea66d230fcb6c636, 0xe7ae93cc2920c63e],
        [0xedc5641f632f02df, 0x628e5cd9d7b72e01, 0x2ba6038191e21c5a],
        [0x6bad10acfd2a3f06, 0x43fedd223999e8a7, 0x272382d36ec1749d],
        [0x162719a1e870e886, 0x56444f16d1b79be0, 0x5b95a4ae6d57e669],
        [0xb26304a2c9bacdda, 0xf0fb35c19f91ea1d, 0x8b6d839c7321f5ee],
        [0xbd3ea83307fcc3f7, 0x4b270a03c27becca, 0x81f86566834060c2],
        [0x68423303185af47b, 0xc08fcfa707eb2e82, 0xf89a5f8bb325ad96],
        [0xb3a19b8a07c1a519, 0x6fc743addd7d3744, 0x179b872caffb3633],
        [0xf5f62a89d71369a3, 0x28d7eac2d73b547b, 0x6d6cd96899da74e7],
        [0xd21d1d14a623863e, 0xbff16dd767507a9e, 0xd9292fba87c09a79],
        [0x5b4afb7260ef3516, 0x7598b75446890661, 0x3e917e808a513c65],
    ];
    let mut moved = Vec::new();
    for ((label, generate), pinned) in generators.into_iter().zip(PINNED) {
        let got = SEEDS.map(|s| generate(s).digest());
        if got != pinned {
            moved.push(format!("(\"{label}\", {got:#018x?})"));
        }
    }
    assert!(
        moved.is_empty(),
        "generated graphs moved:\n{}",
        moved.join("\n")
    );
}
