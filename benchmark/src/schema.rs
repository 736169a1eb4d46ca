//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and the per-layer metric names. Every
//! name printed or written comes from these tables; `BENCHMARK.json` at
//! the repository root repeats them for the driver, and a test below fails
//! when the two disagree.

/// Result-file schema version.
pub const SCHEMA_VERSION: u32 = 1;

/// One named workload and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "central3_tcp",
        why: "Paper's headline: Central3, one TCP transfer, 10 s simulated; few nodes, cache-hot; only workload where copies cross openflow.wire to a central compare",
    },
    Workload {
        name: "flowset_1m",
        why: "1,000,000 pre-spawned flows on two ideal-CPU nodes: working set beyond the cache, no OpenFlow, no compare; control for core/openflow/net.cpu changes",
    },
    Workload {
        name: "lattice400_seq",
        why: "400 switches + 32 hosts, every hop an inband k=3 cell, run_until: dispatch spread, table lookups, inband compare, frame memo misses, no control channel",
    },
    Workload {
        name: "lattice400_par2",
        why: "Same lattice under run_until_parallel on 2 workers, 4 regions: only net.region should move this row and leave lattice400_seq alone",
    },
    Workload {
        name: "campaign_full",
        why: "run_campaign full: 45 generated cells up to 644 switches on a 2-thread pool; construction-heavy, tapped, adversarial compare paths, slowest cell sets the end",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the rule that calls a change a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen between
    /// two runs of one seed before `compare` calls it a regression.
    pub bound: f64,
    /// A worsening must also exceed this many units to count.
    pub floor: f64,
    /// Simulated quantity: repeats exactly, so any worsening counts.
    pub exact: bool,
    /// The bound `BENCHMARK.json` gives the driver, which compares medians
    /// of ten runs on ten seeds and so also sees what the seed changes and
    /// how the host drifts over minutes; sized at about three times the
    /// quartile spreads recorded in the README, `setup_s` at the most the
    /// contract allows and `wall_s` just under it. `None` keeps the
    /// metric out of `BENCHMARK.json`: `ops_failed_share` is always 0 and
    /// travels as the result line's `failed` ÷ `attempted` instead.
    pub driver_bound: Option<f64>,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.07,
        floor: 0.0,
        exact: false,
        driver_bound: Some(0.24),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.005,
        exact: false,
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        floor: 0.0,
        exact: false,
        driver_bound: Some(0.12),
    },
    EndToEnd {
        name: "sim_delivered",
        unit: "count",
        better: Better::Higher,
        bound: 0.0,
        floor: 0.0,
        exact: true,
        driver_bound: Some(0.12),
    },
    EndToEnd {
        name: "ops_failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        exact: true,
        driver_bound: None,
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Kernel: the layer's public functions timed in isolation.
    K,
    /// Exact count read from public accessors after an untraced run.
    C,
    /// Read from the telemetry registry (or the counting tap) of the
    /// traced run; simulated, so it repeats exactly.
    T,
    /// Derived from other metrics and host time.
    D,
}

impl Kind {
    /// Whether two runs of one commit must agree on the value exactly.
    pub fn exact(self) -> bool {
        matches!(self, Kind::C | Kind::T)
    }
}

/// One per-layer metric.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind, better: Better) -> Layer {
    Layer {
        name,
        unit,
        kind,
        better,
    }
}

use Better::{Higher, Lower};
use Kind::{C, D, K, T};

pub const PER_LAYER: [Layer; 82] = [
    // sim: scheduler
    layer("sim.sched.churn_ns", "ns", K, Lower),
    layer("sim.sched.tick_drain_ns", "ns", K, Lower),
    layer("sim.sched.scheduled", "count", T, Lower),
    layer("sim.sched.pops", "count", T, Lower),
    layer("sim.sched.depth_peak", "count", T, Lower),
    // net: frame
    layer("net.frame.build_ns", "ns", K, Lower),
    layer("net.frame.clone_ns", "ns", K, Lower),
    layer("net.frame.fp128_cold_ns", "ns", K, Lower),
    layer("net.frame.fp128_cold_64_ns", "ns", K, Lower),
    layer("net.frame.fp128_memo_ns", "ns", K, Lower),
    layer("net.frame.parse_cold_ns", "ns", K, Lower),
    layer("net.frame.parse_memo_ns", "ns", K, Lower),
    layer("net.frame.fp_misses", "count", C, Lower),
    layer("net.frame.fp_hit_ratio", "ratio", C, Higher),
    layer("net.frame.parse_misses", "count", C, Lower),
    layer("net.frame.parse_hit_ratio", "ratio", C, Higher),
    // net: world, cpu, link, tap
    layer("net.world.hop_ideal_ns", "ns", K, Lower),
    layer("net.world.hop_cpu_ns", "ns", K, Lower),
    layer("net.cpu.admit_ns", "ns", D, Lower),
    layer("net.tap.per_event_ns", "ns", K, Lower),
    layer("world.events", "count", C, Lower),
    layer("world.events_per_sec", "1/s", D, Higher),
    layer("world.ns_per_event", "ns", D, Lower),
    layer("world.sim_s_per_wall_s", "ratio", D, Higher),
    layer("net.cpu.admissions", "count", T, Lower),
    layer("net.cpu.busy_sim_ns", "ns", T, Lower),
    layer("net.link.queue_bytes_p99", "bytes", T, Lower),
    layer("net.link.tx_frames", "count", T, Lower),
    layer("net.drops.total", "count", T, Lower),
    // net: region executor
    layer("net.region.safe_horizons_ns", "ns", K, Lower),
    layer("net.region.speedup_vs_seq", "ratio", D, Higher),
    layer("net.region.par1_overhead_ratio", "ratio", D, Lower),
    layer("net.region.tapped_overhead_ratio", "ratio", D, Lower),
    layer("net.region.cpu_share", "ratio", D, Higher),
    // openflow
    layer("openflow.table.lookup_16_ns", "ns", K, Lower),
    layer("openflow.table.lookup_4096_ns", "ns", K, Lower),
    layer("openflow.wire.packet_in_encode_ns", "ns", K, Lower),
    layer("openflow.wire.packet_in_decode_ns", "ns", K, Lower),
    layer("openflow.table.hits", "count", T, Lower),
    layer("openflow.table.misses", "count", T, Lower),
    layer("openflow.packet_ins", "count", T, Lower),
    // core
    layer("core.compare.observe_ns", "ns", K, Lower),
    layer("core.compare.observe_miss_ns", "ns", K, Lower),
    layer("core.cell.hop_ns", "ns", K, Lower),
    layer("core.compare.received", "count", T, Lower),
    layer("core.compare.released", "count", T, Higher),
    layer("core.compare.release_ratio", "ratio", D, Higher),
    layer("core.compare.suppressed_duplicates", "count", T, Lower),
    layer("core.compare.expired_unreleased", "count", T, Lower),
    layer("core.compare.cleanups", "count", T, Lower),
    layer("core.compare.peak_cache_entries", "count", T, Lower),
    layer("lifecycle.end_to_end_sim_ns_p50", "ns", T, Lower),
    layer("lifecycle.end_to_end_sim_ns_p99", "ns", T, Lower),
    // traffic
    layer("traffic.flowset.spawned", "count", C, Higher),
    layer("traffic.flowset.completed", "count", C, Higher),
    layer("traffic.tcp.goodput_mbps", "Mbit/s", C, Higher),
    layer("traffic.tcp.duplicate_segments", "count", C, Lower),
    layer("traffic.tcp.out_of_order_segments", "count", C, Lower),
    layer("fidelity.central3_tcp_vs_paper", "ratio", D, Higher),
    // topogen, harness
    layer("topogen.generate_ms", "ms", K, Lower),
    layer("topogen.netcoize_ms", "ms", K, Lower),
    layer("topogen.build_world_ms", "ms", K, Lower),
    layer("harness.pool.map_job_ns", "ns", K, Lower),
    layer("topogen.campaign.cells", "count", C, Higher),
    layer("topogen.campaign.tests", "count", C, Higher),
    layer("topogen.campaign.received", "count", C, Higher),
    layer("topogen.campaign.switches_max", "count", C, Higher),
    layer(
        "topogen.campaign.zero_fraction_availability_pct",
        "%",
        C,
        Higher,
    ),
    layer("harness.pool.cpu_share", "ratio", D, Higher),
    // telemetry
    layer("telemetry.counter_inc_ns", "ns", K, Lower),
    layer("telemetry.histogram_record_ns", "ns", K, Lower),
    layer("telemetry.lifecycle_packet_ns", "ns", K, Lower),
    layer("telemetry.overhead_ratio", "ratio", D, Lower),
    layer("telemetry.trace_dropped", "count", T, Lower),
    // attribution: kernel ns × this workload's count ÷ run CPU ns
    layer("attr.sched_share", "ratio", D, Lower),
    layer("attr.substrate_share", "ratio", D, Lower),
    layer("attr.cpu_admit_share", "ratio", D, Lower),
    layer("attr.frame_share", "ratio", D, Lower),
    layer("attr.table_share", "ratio", D, Lower),
    layer("attr.wire_share", "ratio", D, Lower),
    layer("attr.compare_share", "ratio", D, Lower),
    layer("attr.unattributed_share", "ratio", D, Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way the metric `name`, of either table, improves.
pub fn better(name: &str) -> Option<Better> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.better));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.better));
    end_to_end
        .chain(per_layer)
        .find(|&(n, _)| n == name)
        .map(|(_, better)| better)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Start-up check: every workload and metric name matches
/// `[A-Za-z0-9_.-]+` and is used once.
pub fn validate_names() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name `{name}`"));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` used twice"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Json};

    #[test]
    fn every_name_is_valid_and_unique() {
        validate_names().unwrap();
    }

    /// `BENCHMARK.json` tells the driver what these tables tell the
    /// program; on a mismatch the assertion prints what the file should
    /// hold.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        let s = |v: &str| Json::Str(v.into());
        let workloads = WORKLOADS
            .iter()
            .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
            .collect();
        let end_to_end = END_TO_END
            .iter()
            .filter_map(|m| {
                Some(obj([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                    ("bound", Json::Num(m.driver_bound?)),
                ]))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                obj([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.as_str())),
                ])
            })
            .collect();
        for (key, want) in [
            ("workloads", Json::Arr(workloads)),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
            ("paths", Json::Arr(vec![s("benchmark")])),
            ("run_seconds", Json::Num(crate::DEFAULT_SECONDS)),
        ] {
            assert_eq!(
                file.get(key),
                Some(&want),
                "BENCHMARK.json `{key}` should be {}",
                want.render()
            );
        }
        let keys: Vec<&str> = file.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = file.get("command").expect("command").items();
        assert!(command
            .iter()
            .any(|a| a.as_str() == Some("benchmark/Cargo.toml")));
    }

    #[test]
    fn whys_and_units_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "unit `{unit}`"
            );
        }
        // `setup_s` is listed, lower is better, and has the largest bound.
        let bounds: Vec<f64> = END_TO_END.iter().filter_map(|m| m.driver_bound).collect();
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(bounds
            .iter()
            .all(|&b| b > 0.0 && b <= setup.driver_bound.unwrap()));
        assert!(setup.driver_bound.unwrap() <= 0.25);
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("net.frame.fp128_cold_64_ns"));
    }
}
