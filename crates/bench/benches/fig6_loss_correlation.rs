//! Regenerates Fig. 6 (UDP throughput vs loss rate, Central3).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let pts = experiments::fig6_loss_correlation(
        &Pool::from_env(),
        &Profile::default(),
        ExperimentScale::from_env(),
    );
    print!("{}", render::fig6(&pts));
}
