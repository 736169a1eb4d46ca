//! The paper's two screening methods as reusable tools: a tcpdump-style
//! trace ([`TraceRecorder`]) and periodic flow-counter polling
//! ([`FlowStatsMonitor`]) — here watching a combiner under a mirroring
//! attack — plus the self-healing supervisor's quarantine timeline under
//! a scripted flapping replica, with every run observed through the
//! `netco-telemetry` registry.
//!
//! Run with: `cargo run --example observability`
//!
//! Pass `--json` to print one canonical metrics snapshot as a single JSON
//! document on stdout (nothing else), suitable for piping into
//! `python3 -m json.tool` or CI artifact checks. The snapshot combines the
//! data-plane quarantine run and the control-plane voting run (the
//! `ctlvote.*` cells) in one registry.

use netco_adversary::{ActivationWindow, Behavior};
use netco_bench::{chaos, control_chaos};
use netco_controller::apps::FlowStatsMonitor;
use netco_controller::Controller;
use netco_core::{Compare, ControlVoter, SecurityEvent};
use netco_net::{CpuModel, PortId, TraceRecorder};
use netco_openflow::{FlowMatch, OfSwitch};
use netco_sim::SimDuration;
use netco_telemetry::TelemetrySink;
use netco_topo::{AdversarySpec, Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};

fn main() {
    if std::env::args().any(|a| a == "--json") {
        // Machine mode: one canonical registry snapshot, nothing else.
        // Both chaos worlds feed the same sink, so the document carries
        // the data-plane lifecycle histograms *and* the control-plane
        // `ctlvote.*` cells.
        let sink = TelemetrySink::enabled();
        let _ = chaos::run_with_sink(Some(sink.clone()));
        let _ = control_chaos::run_with_sink(Some(sink.clone()));
        print!("{}", sink.metrics_json());
        return;
    }
    mirror_attack_screening();
    quarantine_timeline();
    control_vote_timeline();
}

/// A combiner whose replica r1 mirrors fw-bound packets the wrong way,
/// screened three ways: tcpdump-style trace, honest flow counters, and
/// the telemetry registry's frame/drop counters.
fn mirror_attack_screening() {
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 17).with_adversary(
        AdversarySpec {
            replica_index: 0,
            behaviors: vec![(
                Behavior::Mirror {
                    select: FlowMatch::any().with_in_port(1),
                    to_port: PortId(1),
                },
                ActivationWindow::always(),
            )],
        },
    );
    let mut built = scenario.build_world(
        0,
        |nic| Pinger::new(nic, PingConfig::new(H2_IP).with_count(5)),
        IcmpEchoResponder::new,
    );
    let sink = TelemetrySink::enabled();
    built.world.set_telemetry(sink.clone());

    // Screening method 1: tcpdump on every interface.
    let trace = TraceRecorder::new();
    trace.attach(&mut built.world);

    // Screening method 2: poll the honest replicas' flow counters.
    let ctl = built.world.add_node(
        "monitor",
        Controller::new(FlowStatsMonitor::new()).with_tick(SimDuration::from_millis(20)),
        CpuModel::default(),
    );
    for &r in &built.routers[1..] {
        // r1 is malicious and would lie anyway; watch the honest ones.
        built.world.connect_control(r, ctl, Default::default());
        built
            .world
            .device_mut::<OfSwitch>(r)
            .expect("honest replicas are OpenFlow switches")
            .set_controller(ctl);
        built.world.device_mut::<Controller>(ctl).unwrap().manage(r);
    }

    built.world.run_for(SimDuration::from_secs(1));

    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    println!(
        "pings          : {}/{}",
        report.received, report.transmitted
    );

    println!("\nflow counters (honest replicas):");
    let monitor = built
        .world
        .device::<Controller>(ctl)
        .unwrap()
        .app::<FlowStatsMonitor>()
        .unwrap();
    for &r in &built.routers[1..] {
        println!(
            "  {:<4} matched {} packets across {} flows",
            built.world.node_name(r),
            monitor.total_packets(r),
            monitor.snapshot(r).map_or(0, |s| s.len())
        );
    }

    println!("\ntcpdump-style per-node Rx totals:");
    let hist = trace.rx_histogram();
    let mut nodes: Vec<_> = hist.iter().collect();
    nodes.sort_by_key(|(n, _)| n.index());
    for (node, count) in nodes {
        println!("  {:<12} {count}", built.world.node_name(*node));
    }

    println!("\nlast few observations at the compare:");
    let compare = built.compare.unwrap();
    for e in trace.received_at(compare).iter().rev().take(3).rev() {
        println!("  [{}] {}", e.at, e.summary);
    }

    // Screening method 3: the registry the trace and world now feed.
    println!("\ntelemetry registry (mirror-attack world):");
    println!(
        "  events processed       : {}",
        sink.counter("sim.events_processed").get()
    );
    println!(
        "  frames traced (rx/tx)  : {}/{}",
        sink.counter("trace.rx_frames").get(),
        sink.counter("trace.tx_frames").get()
    );
    println!(
        "  flow-table hits/misses : {}/{}",
        sink.counter("openflow.table_hits").get(),
        sink.counter("openflow.table_misses").get()
    );
}

/// Screening method 4: the supervisor's own event log. A flapping replica
/// is quarantined, the lane degrades to detection, and after probation the
/// replica is re-admitted — all visible as timestamped security events and
/// as packet-lifecycle latency histograms in the registry snapshot.
fn quarantine_timeline() {
    let sink = TelemetrySink::enabled();
    let built = chaos::run_with_sink(Some(sink.clone()));

    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    println!("\nquarantine timeline (r2 flaps 3×, supervisor attached):");
    println!(
        "  pings          : {}/{}",
        report.received, report.transmitted
    );
    let compare_node = built.compare.unwrap();
    let compare = built.world.device::<Compare>(compare_node).unwrap();
    for e in compare.events().iter() {
        let interesting = matches!(
            e.record,
            SecurityEvent::ReplicaQuarantined { .. }
                | SecurityEvent::ReplicaProbation { .. }
                | SecurityEvent::ReplicaReadmitted { .. }
                | SecurityEvent::ModeDegraded { .. }
                | SecurityEvent::ModeRestored { .. }
        );
        if interesting {
            println!("  [{:>7.3} ms] {}", e.at.as_nanos() as f64 / 1e6, e.record);
        }
    }

    let counts = compare.stats().events;
    println!("\nper-kind event counters:");
    println!("  single-path alarms     : {}", counts.single_path);
    println!("  detection mismatches   : {}", counts.detection_mismatch);
    println!(
        "  replica-down alarms    : {}",
        counts.replica_suspected_down
    );
    println!("  replica recoveries     : {}", counts.replica_recovered);
    println!("  quarantines            : {}", counts.quarantines);
    println!("  probations             : {}", counts.probations);
    println!("  re-admissions          : {}", counts.readmissions);
    println!("  degradations           : {}", counts.degradations);
    println!("  restorations           : {}", counts.restorations);
    println!("  total alarms           : {}", counts.alarms());

    // The same story, told by the registry: per-stage packet latencies
    // and the compare's scoped counters.
    let scope = built.world.node_name(compare_node);
    println!("\ntelemetry registry (quarantine world):");
    println!(
        "  compare received/released : {}/{}",
        sink.counter(&format!("compare.{scope}.received")).get(),
        sink.counter(&format!("compare.{scope}.released")).get()
    );
    for name in [
        "lifecycle.hub_to_replica_ns",
        "lifecycle.replica_to_compare_ns",
        "lifecycle.compare_to_verdict_ns",
        "lifecycle.end_to_end_ns",
    ] {
        let s = sink.histogram(name).snapshot();
        println!(
            "  {name:<32} count {:>4}  p50 {:>7}  p99 {:>7}  max {:>7}",
            s.count, s.p50, s.p99, s.max
        );
    }
    println!(
        "  (run with --json for the full canonical snapshot; a chrome-trace\n   of the same scenario is written to target/chaos/chaos_trace.json by\n   `cargo test --test chaos_supervisor`)"
    );
}

/// Screening method 5: the replicated control plane's own vote counters.
/// Controller `pox1` equivocates for half a second; each guard's voter
/// out-votes it, counts the disagreements against exactly that replica,
/// and the supervisor runs it through quarantine and back.
fn control_vote_timeline() {
    let sink = TelemetrySink::enabled();
    let built = control_chaos::run_with_sink(Some(sink.clone()));

    let report = built.world.device::<Pinger>(built.h1).unwrap().report();
    println!("\ncontrol-plane voting (pox1 equivocates 150–650 ms, 3 replicas):");
    println!(
        "  pings          : {}/{}",
        report.received, report.transmitted
    );
    for &v in &built.voters {
        let scope = built.world.node_name(v).to_string();
        let voter = built.world.device::<ControlVoter>(v).unwrap();
        let stats = voter.stats();
        println!(
            "  {scope}: sent {} voted {} rejected {} relayed {} disagreements {:?}",
            stats.sent, stats.voted, stats.rejected, stats.relayed, stats.disagreements
        );
        for e in voter.events().iter() {
            let interesting = matches!(
                e.record,
                SecurityEvent::ReplicaQuarantined { .. }
                    | SecurityEvent::ReplicaProbation { .. }
                    | SecurityEvent::ReplicaReadmitted { .. }
                    | SecurityEvent::ModeDegraded { .. }
                    | SecurityEvent::ModeRestored { .. }
            );
            if interesting {
                println!(
                    "    [{:>7.3} ms] {}",
                    e.at.as_nanos() as f64 / 1e6,
                    e.record
                );
            }
        }
        let lat = sink
            .histogram(&format!("ctlvote.{scope}.vote_latency_ns"))
            .snapshot();
        println!(
            "    vote latency: count {:>4}  p50 {:>7}  p99 {:>7}  max {:>7}",
            lat.count, lat.p50, lat.p99, lat.max
        );
    }
}
