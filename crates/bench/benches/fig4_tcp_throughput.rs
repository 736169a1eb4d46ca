//! Regenerates Fig. 4 (TCP throughput, six scenarios).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let rows = experiments::fig4_tcp(
        &Pool::from_env(),
        &Profile::default(),
        ExperimentScale::from_env(),
    );
    print!("{}", render::fig4(&rows));
}
