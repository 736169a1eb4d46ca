//! Regression: pooled figure sweeps are bit-identical at every thread
//! count. Worlds share nothing and the pool folds results in canonical
//! job order, so even float accumulation must not change by a single ulp
//! when the worker count does.

use netco_bench::experiments::{ablation_modes, fig4_tcp, fig7_rtt, table1, TcpRow, SEED};
use netco_bench::ExperimentScale;
use netco_harness::Pool;
use netco_topo::{Direction, Profile, Scenario, ScenarioKind};

fn tcp_bits(rows: &[TcpRow]) -> Vec<(u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.mbps.to_bits(),
                r.fast_retransmits_per_s.to_bits(),
                r.timeouts_per_s.to_bits(),
            )
        })
        .collect()
}

/// The ISSUE's canonical check: a fixed-seed Central3 TCP sweep run
/// serially and on a 4-worker pool produces bit-identical goodput.
#[test]
fn central3_tcp_sweep_bit_identical_serial_vs_pooled() {
    let profile = Profile::default();
    let scale = ExperimentScale::smoke();
    let jobs: Vec<(u64, Direction)> = (0..3)
        .flat_map(|run| {
            [Direction::H1ToH2, Direction::H2ToH1]
                .into_iter()
                .map(move |dir| (run, dir))
        })
        .collect();
    let run_one = |&(run, dir): &(u64, Direction)| {
        let scenario = Scenario::build(ScenarioKind::Central3, profile.clone(), SEED);
        let out = scenario.run_tcp(dir, scale.duration, run);
        (out.mbps.to_bits(), out.events)
    };
    let serial = Pool::serial().map(&jobs, run_one);
    let pooled = Pool::new(4).map(&jobs, run_one);
    assert_eq!(serial, pooled);
    assert!(serial.iter().all(|&(_, events)| events > 0));
}

/// Whole-figure check: Fig. 4 rows (all six scenarios) at every worker
/// count, compared through `f64::to_bits`. Honors `NETCO_THREADS` (the CI
/// axis, a comma list), defaulting to 1/2/4.
#[test]
fn fig4_rows_bit_identical_across_thread_counts() {
    let counts: Vec<usize> = std::env::var(netco_harness::THREADS_ENV)
        .ok()
        .map(|list| {
            list.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4]);
    let profile = Profile::default();
    let scale = ExperimentScale::smoke();
    let reference = tcp_bits(&fig4_tcp(&Pool::serial(), &profile, scale));
    assert_eq!(reference.len(), ScenarioKind::PAPER.len());
    for threads in counts {
        let rows = fig4_tcp(&Pool::new(threads), &profile, scale);
        assert_eq!(
            tcp_bits(&rows),
            reference,
            "rows diverged at {threads} workers"
        );
    }
}

/// Fig. 7 exercises Option-valued min/max folds; they too must not move.
#[test]
fn fig7_rows_bit_identical_across_thread_counts() {
    let profile = Profile::default();
    let scale = ExperimentScale::smoke();
    let reference = fig7_rtt(&Pool::serial(), &profile, scale);
    let pooled = fig7_rtt(&Pool::new(3), &profile, scale);
    let bits = |rows: &[netco_bench::experiments::RttRow]| {
        rows.iter()
            .map(|r| {
                (
                    r.avg_us.to_bits(),
                    r.min_us.to_bits(),
                    r.max_us.to_bits(),
                    r.received,
                    r.transmitted,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&pooled), bits(&reference));
}

/// Table I and the mode ablation, pinned to the bits the retired serial
/// forms (`tcp_row_counted` / `udp_row_counted` / `rtt_row_counted`)
/// produced on commit f6a7edd at smoke scale (command and output in
/// EXPERIMENTS.md, "PR 19"). Recorded once on the parent; never re-record
/// from a change — a moved bit means a fold changed its arithmetic order.
#[test]
fn table1_and_ablation_bits_are_the_serial_forms() {
    // (tcp_mbps, udp_mbps, rtt_ms) per Table I column.
    const TABLE1: [[u64; 3]; 5] = [
        [0x4075ccb9ee6b517a, 0x407180a9d9117a82, 0x3fc06290eed02cd4], // Linespeed
        [0x406080fa94e60cfe, 0x406d597a2cc5f696, 0x3fc0370cdc8754f4], // Dup3
        [0x40540523d47cbb36, 0x406550c7dd582c6e, 0x3fc05cd4ed2cbea5], // Dup5
        [0x406a4de5e1e0f04e, 0x406e53803e114c7e, 0x3fc8e1049235f809], // Central3
        [0x4052d79d773bd50c, 0x406397879ed09948, 0x3fcaccf6be37de93], // Central5
    ];
    // (mbps, fast_retransmits_per_s, timeouts_per_s) per ablation row.
    const ABLATION: [[u64; 3]; 4] = [
        [0x4075ccb9ee6b517a, 0, 0],                  // Linespeed
        [0x40726a7561f6f56e, 0, 0],                  // Detect2
        [0x406a4de5e1e0f04e, 0, 0],                  // Central3
        [0x4066394a873f5208, 0, 0x400aaaaaaaaaaaab], // Inband3
    ];
    let profile = Profile::default();
    let scale = ExperimentScale::smoke();
    for threads in [1, 3] {
        let pool = Pool::new(threads);
        let table: Vec<[u64; 3]> = table1(&pool, &profile, scale)
            .iter()
            .map(|c| {
                [
                    c.tcp_mbps.to_bits(),
                    c.udp_mbps.to_bits(),
                    c.rtt_ms.to_bits(),
                ]
            })
            .collect();
        assert_eq!(table, TABLE1, "Table I moved at {threads} workers");
        let ablation: Vec<[u64; 3]> = ablation_modes(&pool, &profile, scale)
            .iter()
            .map(|r| {
                [
                    r.mbps.to_bits(),
                    r.fast_retransmits_per_s.to_bits(),
                    r.timeouts_per_s.to_bits(),
                ]
            })
            .collect();
        assert_eq!(
            ablation, ABLATION,
            "ablation rows moved at {threads} workers"
        );
    }
}
