//! The §VII virtualized NetCo: no replica routers — flow copies travel
//! three vendor-diverse VLAN tunnels across a k = 6 fat-tree, combined
//! inband at the egress (Fig. 9).
//!
//! Run with: `cargo run --example virtualized_netco`

use netco_adversary::{ActivationWindow, Behavior};
use netco_openflow::FlowMatch;
use netco_topo::Profile;
use netco_topogen::virtual_netco::{run_ping, VirtualNetcoConfig};

fn main() {
    let profile = Profile::default();

    let clean = run_ping(&VirtualNetcoConfig::default(), &profile, 11);
    println!(
        "vendor-diverse tunnels (diverse = {}):",
        clean.vendor_diverse
    );
    for (i, path) in clean.tunnel_paths.iter().enumerate() {
        println!("  tunnel {i}: {}", path.join(" -> "));
    }
    println!(
        "\nclean run        : {}/{} pings, {} releases at the egress guard",
        clean.ping.received, clean.ping.transmitted, clean.released_at_dst
    );

    let attacked = run_ping(
        &VirtualNetcoConfig {
            corrupt_tunnel: Some((
                1,
                vec![(
                    Behavior::Drop {
                        select: FlowMatch::any(),
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..VirtualNetcoConfig::default()
        },
        &profile,
        11,
    );
    println!(
        "tunnel 1 blackholed: {}/{} pings still complete (2-of-3 tunnels)",
        attacked.ping.received, attacked.ping.transmitted
    );
    println!(
        "                     avg RTT {} (clean: {})",
        attacked.ping.avg.map(|d| d.to_string()).unwrap_or_default(),
        clean.ping.avg.map(|d| d.to_string()).unwrap_or_default()
    );
}
