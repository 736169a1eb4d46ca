//! Regenerates Fig. 8 (jitter vs UDP payload size, all scenarios).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let cells = experiments::fig8_jitter(
        &Pool::from_env(),
        &Profile::default(),
        ExperimentScale::from_env(),
    );
    print!("{}", render::fig8(&cells));
}
