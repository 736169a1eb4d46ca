//! End-to-end reproduction of the paper's §VI case study and §VII
//! virtualized NetCo through the public API.

use netco_adversary::{ActivationWindow, Behavior};
use netco_openflow::FlowMatch;
use netco_topo::case_study::{self, Phase};
use netco_topo::Profile;
use netco_topogen::virtual_netco::{self, VirtualNetcoConfig};

#[test]
fn case_study_phase1_baseline() {
    let out = case_study::run(Phase::Baseline, &Profile::default(), 42, 10);
    assert_eq!(out.requests_sent, 10);
    assert_eq!(out.requests_at_fw1, 10);
    assert_eq!(out.responses_at_vm1, 10, "10 perfect cycles");
    assert_eq!(
        out.frames_at_core, 0,
        "no packet strays from the benign path"
    );
}

#[test]
fn case_study_phase2_attack() {
    // "After 10 requests sent, we witness 20 requests arriving at fw1 and
    // 0 responses arriving at vm1."
    let out = case_study::run(Phase::Attack, &Profile::default(), 42, 10);
    assert_eq!(out.requests_sent, 10);
    assert_eq!(out.requests_at_fw1, 20);
    assert_eq!(out.responses_at_vm1, 0);
    assert!(out.frames_at_core >= 10);
}

#[test]
fn case_study_phase3_netco_restores_service() {
    // "Thus all 10 request response cycles completed successfully." The
    // mirrored copies reach the compare but never leave it.
    let out = case_study::run(Phase::NetCo, &Profile::default(), 42, 10);
    assert_eq!(out.requests_sent, 10);
    assert_eq!(out.requests_at_fw1, 10);
    assert_eq!(out.responses_at_vm1, 10);
    assert!(out.compare_suppressed >= 10);
    assert!(out.single_path_alarms >= 10);
}

#[test]
fn virtualized_netco_clean_run() {
    let out = virtual_netco::run_ping(&VirtualNetcoConfig::default(), &Profile::default(), 5);
    assert!(out.vendor_diverse);
    assert_eq!(out.tunnel_paths.len(), 3);
    assert_eq!(out.ping.received, out.ping.transmitted);
    assert_eq!(out.released_at_dst as u32, out.ping.transmitted);
}

#[test]
fn virtualized_netco_survives_a_malicious_tunnel_switch() {
    let cfg = VirtualNetcoConfig {
        corrupt_tunnel: Some((
            2,
            vec![(
                Behavior::CorruptPayload {
                    select: FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        )),
        ..VirtualNetcoConfig::default()
    };
    let out = virtual_netco::run_ping(&cfg, &Profile::default(), 5);
    assert_eq!(out.ping.received, out.ping.transmitted, "{out:?}");
    assert!(out.suppressed_at_dst > 0, "corrupted copies must be caught");
}

#[test]
fn virtualized_netco_paths_traverse_distinct_agg_columns() {
    let out = virtual_netco::run_ping(&VirtualNetcoConfig::default(), &Profile::functional(), 5);
    // Each tunnel's first hop after the source edge is a different
    // aggregation switch column (that is what vendor diversity means in
    // our fat-tree labeling).
    let mut first_hops: Vec<&String> = out.tunnel_paths.iter().map(|p| &p[1]).collect();
    first_hops.sort();
    first_hops.dedup();
    assert_eq!(first_hops.len(), 3, "paths: {:?}", out.tunnel_paths);
}

/// Pins what the public §VII runner reports, in the style of
/// `crates/topo/tests/world_shape.rs`: for the default configuration and
/// a one-tunnel `CorruptPayload` attack, under both profiles, one FNV-1a
/// digest of the tunnel switch names, the diversity verdict, every
/// `PingReport` field (RTTs as exact nanoseconds) and the dst guard's
/// released / suppressed counts. Recorded on commit 0eefacf, before the
/// virtualized world moved onto `TopoGraph` (command and output in
/// EXPERIMENTS.md); never re-record it from a change to the builder. The
/// world's node order and tap digest are pinned beside the builder, by
/// the unit test `virtual_world_shape_is_pinned`.
#[test]
fn virtualized_netco_outcomes_are_pinned() {
    fn fold(mut d: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            d ^= b as u64;
            d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
        d
    }
    let fold_u64 = |d: u64, v: u64| fold(d, &v.to_le_bytes());
    let attacked = VirtualNetcoConfig {
        corrupt_tunnel: Some((
            2,
            vec![(
                Behavior::CorruptPayload {
                    select: FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        )),
        ..VirtualNetcoConfig::default()
    };
    let cells: [(&str, VirtualNetcoConfig, Profile, u64); 4] = [
        (
            "clean, default",
            VirtualNetcoConfig::default(),
            Profile::default(),
            0xbbc2_942b_5bd2_04e3,
        ),
        (
            "clean, functional",
            VirtualNetcoConfig::default(),
            Profile::functional(),
            0xf0b9_631f_dc3d_88e3,
        ),
        (
            "attacked, default",
            attacked.clone(),
            Profile::default(),
            0x75a3_3e61_9d6d_c1a9,
        ),
        (
            "attacked, functional",
            attacked,
            Profile::functional(),
            0xaa9a_0d56_1dd9_45a9,
        ),
    ];
    let mut moved = Vec::new();
    for (label, cfg, profile, pinned) in &cells {
        let out = virtual_netco::run_ping(cfg, profile, 5);
        let mut d = fold_u64(0xcbf2_9ce4_8422_2325, out.tunnel_paths.len() as u64);
        for path in &out.tunnel_paths {
            d = fold_u64(d, path.len() as u64);
            for name in path {
                d = fold(d, name.as_bytes());
                d = fold(d, &[0xff]);
            }
        }
        let rtt = |r: Option<netco_sim::SimDuration>| r.map_or(u64::MAX, |r| r.as_nanos());
        let p = &out.ping;
        for v in [
            out.vendor_diverse as u64,
            p.transmitted as u64,
            p.received as u64,
            rtt(p.min),
            rtt(p.avg),
            rtt(p.max),
            rtt(p.mdev),
            out.released_at_dst,
            out.suppressed_at_dst,
        ] {
            d = fold_u64(d, v);
        }
        if d != *pinned {
            moved.push(format!("{label}: {d:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "§VII outcome moved:\n{}",
        moved.join("\n")
    );
}
