//! Byte pins on two telemetry snapshots: the chaos scenario's and a
//! traced Central3 TCP second's. Between them they hold every
//! `compare.*` counter and gauge, the switch, link and lifecycle rows,
//! so a change to how a statistic is stored or adopted into the registry
//! must leave both renderings byte-identical. Each pin is the FNV-1a of
//! the rendered `metrics_json`.

use netco_bench::chaos;
use netco_net::fnv1a;
use netco_sim::SimDuration;
use netco_telemetry::TelemetrySink;
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{TcpConfig, TcpReceiver, TcpSender};

/// FNV-1a of `chaos::artifacts().metrics_json`.
const CHAOS_METRICS_FNV: u64 = 0xec74_1a2d_238a_497a;

/// FNV-1a of the metrics snapshot of Central3 at seed 7 carrying one TCP
/// transfer for one simulated second, telemetry on from the start.
const CENTRAL3_TCP_METRICS_FNV: u64 = 0xad6a_fa68_7f68_2ba7;

fn assert_pin(what: &str, json: &str, pinned: u64) {
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got, pinned,
        "{what}: metrics_json FNV-1a {got:#018x}, pinned {pinned:#018x}\n{json}"
    );
}

#[test]
fn chaos_metrics_snapshot_is_pinned() {
    assert_pin("chaos", &chaos::artifacts().metrics_json, CHAOS_METRICS_FNV);
}

#[test]
fn traced_central3_tcp_metrics_snapshot_is_pinned() {
    let duration = SimDuration::from_secs(1);
    let cfg = TcpConfig::new(H2_IP).with_duration(duration);
    let receiver_cfg = cfg.clone();
    let mut built = Scenario::build(ScenarioKind::Central3, Profile::default(), 7).build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, receiver_cfg),
    );
    built.world.set_telemetry(TelemetrySink::enabled());
    built.world.run_for(duration);
    assert_pin(
        "Central3 TCP",
        &built.world.telemetry().metrics_json(),
        CENTRAL3_TCP_METRICS_FNV,
    );
}
