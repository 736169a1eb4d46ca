//! Ablations beyond the paper: detect vs prevent cost, compare strategies'
//! security under payload corruption.
use netco_bench::{experiments, ExperimentScale};
use netco_harness::Pool;
use netco_topo::Profile;

fn main() {
    let profile = Profile::default();
    let scale = ExperimentScale::from_env();
    println!("Ablation A — protection mode (TCP goodput)");
    for row in experiments::ablation_modes(&Pool::from_env(), &profile, scale) {
        println!("  {:<11} {:>8.1} Mbit/s", row.kind.name(), row.mbps);
    }
    println!("Ablation B — compare strategy vs payload-corrupting replica (50 pings)");
    println!("  strategy      delivered  corrupted-released  suppressed");
    for row in experiments::ablation_strategies(&profile) {
        println!(
            "  {:<12} {:>9}  {:>18}  {:>10}",
            row.name, row.delivered, row.corrupted_released, row.suppressed
        );
    }
    println!("Ablation C — §IX sampled out-of-band detection");
    println!("  p(sample)  detection  compare-load/pkt");
    for row in experiments::ablation_sampling(&profile) {
        println!(
            "  {:>9.2}  {:>8.0}%  {:>16.2}",
            row.probability,
            row.detection_fraction * 100.0,
            row.compare_load_per_packet
        );
    }
}
