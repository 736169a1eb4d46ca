//! `flow_smoke`: the CI timed smoke for the million-flow traffic engine.
//!
//! Runs the canonical flow-scale world (default 100,000 concurrent flows;
//! CI passes 1,000,000) twice with the same seed, prints one JSON line, and
//! exits non-zero if any flow failed to complete or the reruns were not
//! bit-identical. CI wraps the invocation in `timeout`, so a performance
//! regression that blows the wall-clock budget fails the job even though
//! the run itself would eventually succeed.
//!
//! Usage: `flow_smoke [flows]`

use netco_bench::flows::{peak_rss_mb, run_flow_world};

fn main() {
    let flows: usize = std::env::args()
        .nth(1)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(100_000);
    let first = run_flow_world(flows, 7);
    let second = run_flow_world(flows, 7);
    let identical = first.digest == second.digest && first.events == second.events;
    let complete = second.completed == second.spawned && second.spawned == flows as u64;
    println!(
        "{{\"flows\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \"packets\": {}, \"completed\": {}, \"peak_rss_mb\": {:.1}, \"rerun_bit_identical\": {}, \"all_flows_completed\": {}}}",
        flows,
        second.events,
        second.events_per_sec(),
        second.packets,
        second.completed,
        peak_rss_mb(),
        identical,
        complete
    );
    if !identical || !complete {
        eprintln!("flow_smoke: FAILED (identical={identical} complete={complete})");
        std::process::exit(1);
    }
}
