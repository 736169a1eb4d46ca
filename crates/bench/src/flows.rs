//! The flow-scale benchmark world: a [`FlowSet`] engine draining
//! pre-spawned two-packet flows through a fat link into a [`FlowSink`].
//!
//! The scenario of the CI timed smoke bin (`flow_smoke`).

use std::net::Ipv4Addr;
use std::time::Instant;

use netco_net::{CpuModel, HostNic, LinkSpec, MacAddr, NeighborTable, PortId, World};
use netco_sim::SimDuration;
use netco_traffic::{FlowSet, FlowSetConfig, FlowSink, SizeDist};

/// What one seeded flow-scale run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRunOutcome {
    /// Simulator events processed.
    pub events: u64,
    /// Wall-clock nanoseconds the run took.
    pub wall_nanos: u64,
    /// Flows spawned (all pre-spawned, so also the peak concurrency).
    pub spawned: u64,
    /// Flows that sent their last byte.
    pub completed: u64,
    /// Packets the sink accepted.
    pub packets: u64,
    /// The sink's order-sensitive arrival digest — bit-identity witness.
    pub digest: u64,
}

impl FlowRunOutcome {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Runs one seeded world with `flows` pre-spawned flows: each flow is
/// 2,400 bytes (two 1,200-byte packets) paced at 10 Mbit/s, first packets
/// staggered over 800 ms, simulated for 2 s — enough for every flow to
/// finish. Deterministic for a given `(flows, seed)`.
pub fn run_flow_world(flows: usize, seed: u64) -> FlowRunOutcome {
    let src_ip = Ipv4Addr::new(10, 9, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 9, 0, 2);
    let table: NeighborTable = [(src_ip, MacAddr::local(1)), (dst_ip, MacAddr::local(2))]
        .into_iter()
        .collect();
    let mut na = HostNic::new(MacAddr::local(1), src_ip);
    na.neighbors = table.clone();
    let mut nb = HostNic::new(MacAddr::local(2), dst_ip);
    nb.neighbors = table;
    let cfg = FlowSetConfig::new(dst_ip)
        .with_initial_flows(flows)
        .with_arrival_rate(0.0)
        .with_size_dist(SizeDist::Fixed(2_400))
        .with_payload_len(1_200)
        .with_flow_rate(10_000_000)
        .with_start_spread(SimDuration::from_millis(800));
    let mut w = World::new(seed);
    let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
    let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
    w.connect(
        src,
        PortId(0),
        dst,
        PortId(0),
        // Fat enough that 1M staggered flows never queue: the measurement
        // targets engine + scheduler cost, not congestion.
        LinkSpec::new(400_000_000_000, SimDuration::from_micros(5)),
    );
    let start = Instant::now();
    w.run_for(SimDuration::from_secs(2));
    let wall_nanos = start.elapsed().as_nanos() as u64;
    let stats = w.device::<FlowSet>(src).expect("flowset").stats();
    let sink = w.device::<FlowSink>(dst).expect("sink");
    FlowRunOutcome {
        events: w.events_processed(),
        wall_nanos,
        spawned: stats.spawned,
        completed: stats.completed,
        packets: sink.packets(),
        digest: sink.digest(),
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// `VmHWM`, in MiB. `0.0` where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_world_completes_and_reruns_identically() {
        let a = run_flow_world(2_000, 7);
        assert_eq!(a.spawned, 2_000);
        assert_eq!(a.completed, 2_000);
        assert_eq!(a.packets, 4_000); // two packets per flow
        let b = run_flow_world(2_000, 7);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
    }
}
