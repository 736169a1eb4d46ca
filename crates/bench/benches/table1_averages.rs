//! Regenerates Table I (average TCP/UDP bandwidth and RTT per scenario).
use netco_bench::{experiments, render, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let profile = Profile::default();
    let scale = ExperimentScale::from_env();
    let cols = experiments::table1(&Pool::from_env(), &profile, scale);
    print!("{}", render::table1(&cols));
    println!(
        "(paper: tcp 474/122/72/145/78, udp 278/266/149/245/156, rtt 0.181/0.189/0.26/0.319/0.415)"
    );
}
