//! The combiner-everywhere campaign driver.
//!
//! Fans a size × topology-class × adversarial-replica-fraction × k
//! sweep of NetCo-ized generated topologies across the harness pool and
//! prints the campaign as deterministic JSON on stdout — bit-identical
//! across reruns, `NETCO_THREADS` values and region counts. What the
//! region-parallel witness runs did (regions, workers, rounds) goes to
//! stderr.
//!
//! ```text
//! topology_experiments [--mode full|smoke] [--seed N]
//! ```
//!
//! `NETCO_THREADS` caps the worker pool (default: available
//! parallelism).

use netco_harness::Pool;
use netco_topogen::campaign::{render_json, run_campaign_with_stats, CampaignConfig};

fn main() {
    let mut mode = String::from("full");
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                mode = args.next().expect("--mode needs a value");
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--help" | "-h" => {
                eprintln!("usage: topology_experiments [--mode full|smoke] [--seed N]");
                return;
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let cfg = match mode.as_str() {
        "full" => CampaignConfig::full(seed),
        "smoke" => CampaignConfig::smoke(seed),
        other => panic!("unknown mode: {other} (expected full|smoke)"),
    };
    let pool = Pool::from_env();
    let (result, witness) = run_campaign_with_stats(&cfg, &pool);
    print!("{}", render_json(&cfg, &result));
    // The witness's round counts go to stderr: stdout is the campaign and
    // must not vary with the worker count.
    for stats in witness {
        eprintln!("region witness: {stats:?}");
    }
}
