//! Quickstart: build the paper's reference combiner (Fig. 3, k = 3), ping
//! through it, then corrupt one replica and watch NetCo shrug it off.
//!
//! Run with: `cargo run --example quickstart`

use netco_adversary::{ActivationWindow, Behavior};
use netco_core::Compare;
use netco_openflow::FlowMatch;
use netco_sim::SimDuration;
use netco_topo::{AdversarySpec, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

fn main() {
    // 1. A clean k = 3 combiner: h1 – s1 – {r1,r2,r3} – s2 – h2, with the
    //    compare on a trusted host h3.
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 42);
    let report = scenario.run_ping(PingConfig::default().with_count(20));
    println!(
        "clean combiner : {}/{} pings, avg RTT {}",
        report.received,
        report.transmitted,
        report.avg.map(|d| d.to_string()).unwrap_or_default()
    );

    // 2. Now replica r2 corrupts every packet it forwards.
    let attacked = scenario.clone_with_corrupting_replica();
    let mut built = attacked.build_world(
        0,
        |nic| Pinger::new(nic, PingConfig::new(H2_IP).with_count(20)),
        IcmpEchoResponder::new,
    );
    built.world.run_for(SimDuration::from_secs(2));
    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    let compare = built
        .world
        .device::<Compare>(built.compare.unwrap())
        .unwrap();
    println!(
        "corrupting r2  : {}/{} pings still complete (2-of-3 majority)",
        report.received, report.transmitted
    );
    println!(
        "compare        : {} copies suppressed, {} security events:",
        compare.stats().expired_unreleased,
        compare.events().iter().len()
    );
    for e in compare.events().iter().take(4) {
        println!("  [{}] {}", e.at, e.record);
    }
    if compare.events().iter().len() > 4 {
        println!("  ... and {} more", compare.events().iter().len() - 4);
    }
}

/// Small helper so the example reads linearly.
trait WithAdversary {
    fn clone_with_corrupting_replica(&self) -> Scenario;
}

impl WithAdversary for Scenario {
    fn clone_with_corrupting_replica(&self) -> Scenario {
        self.clone().with_adversary(AdversarySpec {
            replica_index: 1,
            behaviors: vec![(
                Behavior::CorruptPayload {
                    select: FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            )],
        })
    }
}
