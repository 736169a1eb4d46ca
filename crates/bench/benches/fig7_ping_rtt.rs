//! Regenerates Fig. 7 (ping RTT, all scenarios).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let rows = experiments::fig7_rtt(
        &Pool::from_env(),
        &Profile::default(),
        ExperimentScale::from_env(),
    );
    print!("{}", render::fig7(&rows));
}
