//! Regenerates Fig. 5 (max UDP throughput at <0.5% loss, six scenarios).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let rows = experiments::fig5_udp(
        &Pool::from_env(),
        &Profile::default(),
        ExperimentScale::from_env(),
    );
    print!("{}", render::fig5(&rows));
}
