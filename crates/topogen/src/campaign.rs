//! The combiner-everywhere campaign engine: size × class ×
//! adversarial-replica-fraction × k sweeps over NetCo-ized generated
//! topologies, reported as deterministic JSON.
//!
//! Each class's base graph is generated once and NetCo-ized once per k
//! — *every* router ([`NetcoizeSpec::full`]); every cell of the sweep
//! borrows its pair, corrupts a seeded fraction of the replica switches
//! ([`AdversarySpec`]) and drives hundreds of routed ping tests through
//! the built world. Cells fan out across the
//! [`Pool`] (each cell's world runs sequentially, so the report is
//! bit-identical at every `NETCO_THREADS`); one cell is additionally
//! re-run under the space-parallel executor at two region counts and
//! its tap digest compared, witnessing that region count does not move
//! the report either. No wall-clock value enters the JSON.

use std::sync::{Arc, Mutex};

use netco_harness::Pool;
use netco_net::{RegionRunStats, TapDigest};
use netco_sim::{mix64, SimDuration, SimTime};
use netco_topo::Profile;
use netco_traffic::{
    FlowSet, FlowSetConfig, FlowSink, IcmpEchoResponder, PingConfig, Pinger, SizeDist,
};

use crate::build::{build_world, AdversarySpec, BuiltTopo};
use crate::generate;
use crate::graph::TopoGraph;
use crate::netcoize::{netcoize, NetcoizeSpec};

/// One topology class of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassSpec {
    /// 2D grid, `rows × cols` routers.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Erdős–Rényi `G(n, p)` at the given expected degree.
    ErdosRenyi {
        /// Router count.
        n: usize,
        /// Expected degree (sets `p`).
        avg_degree: f64,
    },
    /// Barabási-Albert preferential attachment.
    BarabasiAlbert {
        /// Router count.
        n: usize,
        /// Links per new router.
        m: usize,
    },
    /// Watts-Strogatz small world.
    WattsStrogatz {
        /// Router count.
        n: usize,
        /// Ring neighbors (even).
        k_neighbors: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// The `netco_topo::fattree` Clos fabric (host count fixed by the
    /// arity; the `hosts` knob is ignored).
    FatTree {
        /// Fat-tree arity (even).
        k: usize,
    },
}

impl ClassSpec {
    /// Stable class label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ClassSpec::Grid { .. } => "grid",
            ClassSpec::ErdosRenyi { .. } => "erdos_renyi",
            ClassSpec::BarabasiAlbert { .. } => "barabasi_albert",
            ClassSpec::WattsStrogatz { .. } => "watts_strogatz",
            ClassSpec::FatTree { .. } => "fat_tree",
        }
    }

    /// Generates the class's base graph with `hosts` hosts.
    pub fn graph(&self, hosts: usize, seed: u64) -> TopoGraph {
        match *self {
            ClassSpec::Grid { rows, cols } => generate::grid2d(rows, cols, false, hosts, seed),
            ClassSpec::ErdosRenyi { n, avg_degree } => {
                generate::erdos_renyi(n, avg_degree, hosts, seed)
            }
            ClassSpec::BarabasiAlbert { n, m } => generate::barabasi_albert(n, m, hosts, seed),
            ClassSpec::WattsStrogatz {
                n,
                k_neighbors,
                beta,
            } => generate::watts_strogatz(n, k_neighbors, beta, hosts, seed),
            ClassSpec::FatTree { k } => generate::fat_tree(k, seed),
        }
    }
}

/// The full sweep description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Report label (`"full"` / `"smoke"`).
    pub label: String,
    /// Topology classes.
    pub classes: Vec<ClassSpec>,
    /// Replica counts per cell (2 = Detect, ≥3 = Prevent).
    pub ks: Vec<usize>,
    /// Fractions of replica switches made adversarial.
    pub adversary_fractions: Vec<f64>,
    /// Ping pairs per cell (capped at half the host count).
    pub pairs: usize,
    /// Echo requests per pair.
    pub pings_per_pair: u32,
    /// Hosts attached to generated classes (fat-tree fixes its own).
    pub hosts: usize,
    /// Simulated run length per cell, in milliseconds.
    pub run_ms: u64,
    /// Master seed.
    pub seed: u64,
    /// Additionally run one offered-load cell (the first sweep cell's
    /// topology driven by [`FlowSet`] sources into [`FlowSink`]s instead
    /// of pings). Smoke-scale campaigns only — the full sweep keeps its
    /// recorded shape.
    pub offered_load: bool,
}

impl CampaignConfig {
    /// The headline campaign: 5 classes × k ∈ {2, 3, 5} × 3 adversary
    /// fractions, 240 routed ping tests per cell. The grid class at
    /// k = 2 is a 400-switch NetCo-ized world (272 guards + 128
    /// replicas); larger k go well past that.
    pub fn full(seed: u64) -> CampaignConfig {
        CampaignConfig {
            label: "full".into(),
            classes: vec![
                ClassSpec::Grid { rows: 8, cols: 8 },
                ClassSpec::ErdosRenyi {
                    n: 64,
                    avg_degree: 4.0,
                },
                ClassSpec::BarabasiAlbert { n: 64, m: 2 },
                ClassSpec::WattsStrogatz {
                    n: 64,
                    k_neighbors: 4,
                    beta: 0.1,
                },
                ClassSpec::FatTree { k: 6 },
            ],
            ks: vec![2, 3, 5],
            adversary_fractions: vec![0.0, 0.2, 0.5],
            pairs: 24,
            pings_per_pair: 10,
            hosts: 48,
            run_ms: 300,
            seed,
            offered_load: false,
        }
    }

    /// The CI smoke campaign: ≤ 100 switches per cell, 2 classes,
    /// k ∈ {2, 3}, 104 tests per cell — small enough for a timeout'd
    /// rerun-twice bit-identity check.
    pub fn smoke(seed: u64) -> CampaignConfig {
        CampaignConfig {
            label: "smoke".into(),
            classes: vec![
                ClassSpec::Grid { rows: 3, cols: 3 },
                ClassSpec::BarabasiAlbert { n: 10, m: 2 },
            ],
            ks: vec![2, 3],
            adversary_fractions: vec![0.0, 0.4],
            pairs: 13,
            pings_per_pair: 8,
            hosts: 26,
            run_ms: 200,
            seed,
            offered_load: true,
        }
    }
}

/// What one sweep cell measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Class label.
    pub class: String,
    /// Replicas per NetCo cell.
    pub k: usize,
    /// Adversarial replica fraction.
    pub adversary_fraction: f64,
    /// Switch count of the NetCo-ized world (guards + replicas).
    pub switches: usize,
    /// Guard count.
    pub guards: usize,
    /// Replica count.
    pub replicas: usize,
    /// How many replicas actually misbehave.
    pub adversarial: usize,
    /// Echo requests sent (the cell's test count).
    pub tests: u32,
    /// Echo replies received.
    pub received: u32,
    /// `received / tests`, percent.
    pub availability_pct: f64,
    /// Mean hop stretch vs. the un-NetCo-ized base graph, from the
    /// index form.
    pub mean_stretch: f64,
    /// Delivered echo payload rate over the simulated run, bits/s.
    pub goodput_bps: f64,
    /// Reply-weighted mean RTT, nanoseconds (0 when nothing arrived).
    pub avg_rtt_ns: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Order-sensitive tap digest of the cell's frame stream.
    pub digest: u64,
}

/// The offered-load cell: the first sweep cell's topology driven by
/// [`FlowSet`] engines instead of pings, reporting how much of the
/// offered traffic the NetCo-ized fabric actually delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedLoadOutcome {
    /// Class label of the underlying topology.
    pub class: String,
    /// Replicas per NetCo cell.
    pub k: usize,
    /// Flow sources (one per ping pair's even host).
    pub sources: usize,
    /// Flows spawned across all sources.
    pub flows_spawned: u64,
    /// Flows that sent their last byte before the deadline.
    pub flows_completed: u64,
    /// Packets accepted by the sinks.
    pub packets_delivered: u64,
    /// Payload bits/s the sources offered over the run.
    pub offered_bps: f64,
    /// Payload bits/s the sinks accepted over the run.
    pub goodput_bps: f64,
    /// Combined order-sensitive sink digest — rerun bit-identity witness.
    pub digest: u64,
}

/// A finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One outcome per sweep cell, in sweep order (class-major, then
    /// k, then fraction).
    pub cells: Vec<CellOutcome>,
    /// Whether the first cell's tap digest was identical under the
    /// space-parallel executor at 2 and 4 regions.
    pub region_parallel_identical: bool,
    /// Minimum availability over the adversary-free cells (the paper's
    /// baseline claim: the combiner is transparent — 100.0 expected).
    pub zero_fraction_availability_pct: f64,
    /// The offered-load cell, when [`CampaignConfig::offered_load`] was
    /// set (smoke campaigns).
    pub offered_load: Option<OfferedLoadOutcome>,
}

/// One sweep coordinate.
#[derive(Debug, Clone, Copy)]
struct Cell {
    class_idx: usize,
    /// Index of the cell's `(class, k)` among the sweep's.
    group: usize,
    k: usize,
    frac_idx: usize,
}

/// The NetCo-ized graph of one `(class, k)`, shared by the cells that run
/// on it: built by the first to ask and let go with the last, so it is
/// alive only while its cells are — building every graph up front would
/// hold all of them (2.4 MB on the full sweep) through the largest worlds.
struct SharedGraph {
    /// Checkouts still to come.
    users_left: usize,
    graph: Option<Arc<TopoGraph>>,
}

impl SharedGraph {
    fn checkout(slot: &Mutex<SharedGraph>, build: impl FnOnce() -> TopoGraph) -> Arc<TopoGraph> {
        // Built under the lock: a cell that needs the graph meanwhile
        // would otherwise have to build its own.
        let mut slot = slot.lock().expect("graph slot lock");
        let graph = Arc::clone(slot.graph.get_or_insert_with(|| Arc::new(build())));
        slot.users_left -= 1;
        if slot.users_left == 0 {
            slot.graph = None;
        }
        graph
    }
}

fn cell_adversary(cfg: &CampaignConfig, cell: Cell) -> AdversarySpec {
    AdversarySpec {
        fraction: cfg.adversary_fractions[cell.frac_idx],
        seed: mix64(cfg.seed ^ ((cell.k as u64) << 32) ^ cell.frac_idx as u64),
        every_nth: 1,
    }
}

/// Builds a cell's world: ping pairs `(2p, 2p+1)` with per-pair
/// identifiers and staggered starts, echo responders everywhere else.
fn cell_world(cfg: &CampaignConfig, cell: Cell, netco: &TopoGraph) -> (BuiltTopo, usize) {
    let pairs = cfg.pairs.min(netco.hosts.len() / 2);
    let adversary = cell_adversary(cfg, cell);
    let world_seed = mix64(
        cfg.seed ^ ((cell.class_idx as u64) << 48) ^ ((cell.k as u64) << 24) ^ cell.frac_idx as u64,
    );
    let built = build_world(
        netco,
        &Profile::default(),
        world_seed,
        |h, nic| {
            let pair = h / 2;
            if h % 2 == 0 && pair < pairs {
                let cfg = PingConfig {
                    dst_ip: netco.hosts[h + 1].ip,
                    count: cfg.pings_per_pair,
                    interval: SimDuration::from_millis(10),
                    payload_len: 56,
                    identifier: pair as u16 + 1,
                    start_after: SimDuration::from_micros((pair as u64 % 16) * 500),
                };
                Box::new(Pinger::new(nic, cfg))
            } else {
                Box::new(IcmpEchoResponder::new(nic))
            }
        },
        Some(&adversary),
    );
    (built, pairs)
}

fn run_cell(cfg: &CampaignConfig, cell: Cell, base: &TopoGraph, netco: &TopoGraph) -> CellOutcome {
    let (mut built, pairs) = cell_world(cfg, cell, netco);
    let digest = TapDigest::attach(&mut built.world);
    built
        .world
        .run_until(SimTime::from_nanos(cfg.run_ms * 1_000_000));

    let mut tests = 0u32;
    let mut received = 0u32;
    let mut rtt_weighted_ns = 0u128;
    let mut stretch_sum = 0.0;
    let mut stretch_n = 0usize;
    for pair in 0..pairs {
        let report = built
            .world
            .device::<Pinger>(built.host_ids[2 * pair])
            .expect("pinger device")
            .report();
        tests += report.transmitted;
        received += report.received;
        if let Some(avg) = report.avg {
            rtt_weighted_ns += avg.as_nanos() as u128 * report.received as u128;
        }
        if let (Some(nh), Some(bh)) = (
            netco.route_hops(2 * pair, 2 * pair + 1),
            base.route_hops(2 * pair, 2 * pair + 1),
        ) {
            if bh > 0 {
                stretch_sum += nh as f64 / bh as f64;
                stretch_n += 1;
            }
        }
    }
    let (_, guards, replicas) = netco.kind_counts();
    CellOutcome {
        class: cfg.classes[cell.class_idx].label().into(),
        k: cell.k,
        adversary_fraction: cfg.adversary_fractions[cell.frac_idx],
        switches: netco.switch_count(),
        guards,
        replicas,
        adversarial: built.adversarial.len(),
        tests,
        received,
        availability_pct: if tests == 0 {
            0.0
        } else {
            received as f64 / tests as f64 * 100.0
        },
        mean_stretch: if stretch_n == 0 {
            0.0
        } else {
            stretch_sum / stretch_n as f64
        },
        goodput_bps: received as f64 * 56.0 * 8.0 * 1000.0 / cfg.run_ms as f64,
        avg_rtt_ns: if received == 0 {
            0
        } else {
            (rtt_weighted_ns / received as u128) as u64
        },
        events: built.world.events_processed(),
        digest: digest.value(),
    }
}

/// Runs the offered-load cell: the first sweep cell's adversary-free
/// topology, with the even host of each pair running a [`FlowSet`]
/// (fixed-size two-packet flows toward its partner) and every other
/// host a [`FlowSink`].
fn run_offered_load(cfg: &CampaignConfig, cell: Cell, netco: &TopoGraph) -> OfferedLoadOutcome {
    let pairs = cfg.pairs.min(netco.hosts.len() / 2);
    let world_seed = mix64(cfg.seed ^ 0x6f66_6665_7265_6421); // "offered!"
    let mut built = build_world(
        netco,
        &Profile::default(),
        world_seed,
        |h, nic| {
            let pair = h / 2;
            if h % 2 == 0 && pair < pairs {
                let flow_cfg = FlowSetConfig::new(netco.hosts[h + 1].ip)
                    .with_initial_flows(40)
                    .with_arrival_rate(0.0)
                    .with_size_dist(SizeDist::Fixed(2_400))
                    .with_payload_len(1_200)
                    .with_flow_rate(10_000_000)
                    .with_start_spread(SimDuration::from_millis(cfg.run_ms / 2))
                    // Content-unique payloads: the compare's §V packet cache
                    // suppresses byte-identical packets as replicated-copy
                    // duplicates, so untagged (all-zero) flows would collapse
                    // to ~one release per source.
                    .with_tagged_payload(true);
                Box::new(FlowSet::new(nic, flow_cfg))
            } else {
                Box::new(FlowSink::new(nic))
            }
        },
        None,
    );
    built
        .world
        .run_until(SimTime::from_nanos(cfg.run_ms * 1_000_000));

    let mut spawned = 0u64;
    let mut completed = 0u64;
    let mut offered_bytes = 0u64;
    let mut packets = 0u64;
    let mut goodput_bytes = 0u64;
    let mut digest = 0u64;
    for (h, &id) in built.host_ids.iter().enumerate() {
        if h % 2 == 0 && h / 2 < pairs {
            let stats = built
                .world
                .device::<FlowSet>(id)
                .expect("flow source")
                .stats();
            spawned += stats.spawned;
            completed += stats.completed;
            offered_bytes += stats.bytes_sent;
        } else if let Some(sink) = built.world.device::<FlowSink>(id) {
            packets += sink.packets();
            goodput_bytes += sink.bytes();
            digest = mix64(digest ^ sink.digest());
        }
    }
    let run_s = cfg.run_ms as f64 / 1_000.0;
    OfferedLoadOutcome {
        class: cfg.classes[cell.class_idx].label().into(),
        k: cell.k,
        sources: pairs,
        flows_spawned: spawned,
        flows_completed: completed,
        packets_delivered: packets,
        offered_bps: offered_bytes as f64 * 8.0 / run_s,
        goodput_bps: goodput_bytes as f64 * 8.0 / run_s,
        digest,
    }
}

/// Re-runs the first sweep cell under the space-parallel executor at
/// the given region count and returns its tap digest and round counts.
fn region_witness(
    cfg: &CampaignConfig,
    cell: Cell,
    netco: &TopoGraph,
    pool: &Pool,
    regions: usize,
) -> (u64, RegionRunStats) {
    let (mut built, _) = cell_world(cfg, cell, netco);
    let digest = TapDigest::attach(&mut built.world);
    built
        .world
        .run_until_parallel(SimTime::from_nanos(cfg.run_ms * 1_000_000), pool, regions);
    (digest.value(), built.world.region_stats())
}

/// Runs the whole sweep, fanning cells across `pool`.
pub fn run_campaign(cfg: &CampaignConfig, pool: &Pool) -> CampaignResult {
    run_campaign_with_stats(cfg, pool).0
}

/// [`run_campaign`], plus what the region-parallel witness runs did (one
/// entry per region count). Kept out of [`CampaignResult`]: the worker
/// count in it is the one thing here that depends on `pool`.
pub fn run_campaign_with_stats(
    cfg: &CampaignConfig,
    pool: &Pool,
) -> (CampaignResult, Vec<RegionRunStats>) {
    let mut sweep = Vec::new();
    for class_idx in 0..cfg.classes.len() {
        for (k_idx, &k) in cfg.ks.iter().enumerate() {
            for frac_idx in 0..cfg.adversary_fractions.len() {
                sweep.push(Cell {
                    class_idx,
                    group: class_idx * cfg.ks.len() + k_idx,
                    k,
                    frac_idx,
                });
            }
        }
    }
    let first = sweep[0];
    // Every graph is built once: the base graphs here — they depend on the
    // class only, so stretch and availability are comparable across k and
    // fraction within a class — and each NetCo-ized form by the first of
    // its users, which are its cells and, for the first, the witness.
    let base: Vec<TopoGraph> = cfg
        .classes
        .iter()
        .zip(0u64..)
        .map(|(class, class_idx)| class.graph(cfg.hosts, cfg.seed.wrapping_add(class_idx)))
        .collect();
    let netco: Vec<Mutex<SharedGraph>> = (0..cfg.classes.len() * cfg.ks.len())
        .map(|group| {
            Mutex::new(SharedGraph {
                users_left: cfg.adversary_fractions.len() + usize::from(group == first.group),
                graph: None,
            })
        })
        .collect();
    let checkout = |cell: Cell| {
        SharedGraph::checkout(&netco[cell.group], || {
            netcoize(&base[cell.class_idx], &NetcoizeSpec::full(cell.k, cfg.seed))
        })
    };
    let cells = pool.map(&sweep, |&cell| {
        run_cell(cfg, cell, &base[cell.class_idx], &checkout(cell))
    });
    let first_netco = checkout(first);
    // Region-count independence witness: the first cell, re-run under
    // the space-parallel executor, must reproduce its sequential digest.
    let sequential = cells[0].digest;
    let mut witness_stats = Vec::new();
    let region_parallel_identical = [2, 4].into_iter().all(|regions| {
        let (digest, stats) = region_witness(cfg, first, &first_netco, pool, regions);
        witness_stats.push(stats);
        digest == sequential
    });
    let zero_fraction_availability_pct = cells
        .iter()
        .filter(|c| c.adversary_fraction == 0.0)
        .map(|c| c.availability_pct)
        .fold(f64::INFINITY, f64::min);
    let offered_load = cfg
        .offered_load
        .then(|| run_offered_load(cfg, first, &first_netco));
    let result = CampaignResult {
        cells,
        region_parallel_identical,
        zero_fraction_availability_pct,
        offered_load,
    };
    (result, witness_stats)
}

/// Renders the campaign as deterministic JSON (stable key order, fixed
/// decimal places, no wall-clock values).
pub fn render_json(cfg: &CampaignConfig, result: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", cfg.label));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!(
        "  \"classes\": [{}],\n",
        cfg.classes
            .iter()
            .map(|c| format!("\"{}\"", c.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"ks\": [{}],\n",
        cfg.ks
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"adversary_fractions\": [{}],\n",
        cfg.adversary_fractions
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"pairs\": {},\n", cfg.pairs));
    out.push_str(&format!("  \"pings_per_pair\": {},\n", cfg.pings_per_pair));
    out.push_str(&format!("  \"run_ms\": {},\n", cfg.run_ms));
    out.push_str(&format!(
        "  \"region_parallel_identical\": {},\n",
        result.region_parallel_identical
    ));
    out.push_str(&format!(
        "  \"zero_fraction_availability_pct\": {:.2},\n",
        result.zero_fraction_availability_pct
    ));
    // Appended (never interleaved) so campaigns without the offered-load
    // cell render byte-for-byte what they always did.
    if let Some(o) = &result.offered_load {
        out.push_str(&format!(
            "  \"offered_load\": {{\"class\": \"{}\", \"k\": {}, \"sources\": {}, \
             \"flows_spawned\": {}, \"flows_completed\": {}, \"packets_delivered\": {}, \
             \"offered_bps\": {:.1}, \"goodput_bps\": {:.1}, \"digest\": \"{:#018x}\"}},\n",
            o.class,
            o.k,
            o.sources,
            o.flows_spawned,
            o.flows_completed,
            o.packets_delivered,
            o.offered_bps,
            o.goodput_bps,
            o.digest
        ));
    }
    out.push_str("  \"cells\": [\n");
    for (i, c) in result.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"k\": {}, \"adversary_fraction\": {:.2}, \
             \"switches\": {}, \"guards\": {}, \"replicas\": {}, \"adversarial\": {}, \
             \"tests\": {}, \"received\": {}, \"availability_pct\": {:.2}, \
             \"mean_stretch\": {:.3}, \"goodput_bps\": {:.1}, \"avg_rtt_ns\": {}, \
             \"events\": {}, \"digest\": \"{:#018x}\"}}{}\n",
            c.class,
            c.k,
            c.adversary_fraction,
            c.switches,
            c.guards,
            c.replicas,
            c.adversarial,
            c.tests,
            c.received,
            c.availability_pct,
            c.mean_stretch,
            c.goodput_bps,
            c.avg_rtt_ns,
            c.events,
            c.digest,
            if i + 1 == result.cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_deterministic_and_available() {
        let cfg = CampaignConfig::smoke(7);
        let pool = Pool::new(2);
        let a = run_campaign(&cfg, &pool);
        let b = run_campaign(&cfg, &Pool::new(1));
        assert_eq!(a, b, "thread count must not move the campaign");
        assert_eq!(render_json(&cfg, &a), render_json(&cfg, &b));
        assert!(a.region_parallel_identical);
        assert_eq!(a.cells.len(), 2 * 2 * 2);
        assert_eq!(a.zero_fraction_availability_pct, 100.0);
        for c in &a.cells {
            assert!(c.switches <= 100, "smoke cells stay small");
            assert_eq!(c.tests, 13 * 8);
            assert!(c.mean_stretch >= 1.0);
            if c.adversary_fraction == 0.0 {
                assert_eq!(c.received, c.tests, "combiner must be transparent");
                assert!(c.avg_rtt_ns > 0);
                assert!(c.goodput_bps > 0.0);
            }
        }
        let offered = a.offered_load.as_ref().expect("smoke runs offered load");
        assert!(offered.sources > 0);
        assert!(offered.flows_spawned > 0, "no flows offered");
        assert_eq!(
            offered.flows_completed, offered.flows_spawned,
            "every offered flow drains within the run"
        );
        // Fixed(2,400)-byte flows at 1,200 B/packet: two packets per flow,
        // and the zero-adversary NetCo fabric must deliver all of them —
        // tagged payloads keep the compare's content-keyed cache from
        // collapsing the stream into duplicates.
        assert_eq!(
            offered.packets_delivered,
            offered.flows_spawned * 2,
            "lossless fabric delivers every offered packet"
        );
        assert!(offered.goodput_bps > 0.0);
        assert!(
            offered.goodput_bps <= offered.offered_bps,
            "goodput cannot exceed offered load"
        );
        assert_eq!(
            a.offered_load, b.offered_load,
            "offered-load cell must be deterministic"
        );
    }

    #[test]
    fn full_campaign_json_has_no_offered_load_cell() {
        let cfg = CampaignConfig::full(7);
        assert!(!cfg.offered_load, "the full sweep keeps its recorded shape");
    }
}
