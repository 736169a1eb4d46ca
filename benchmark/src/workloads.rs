//! The five reference worlds, driven only through what a user's
//! experiment uses: build, start phase, run to a simulated deadline,
//! read the public counters.
//!
//! Every repetition builds a fresh world from the seed, so simulated
//! results repeat exactly and only host time varies.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use netco_bench::grid::build_grid;
use netco_core::GuardSwitch;
use netco_harness::Pool;
use netco_net::{
    fnv1a, memo_stats_merged, CpuModel, HostNic, LinkSpec, MacAddr, MemoStats, NeighborTable,
    PortId, TapDirection, World,
};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::TelemetrySink;
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_topogen::campaign::{render_json, run_campaign, CampaignConfig, CampaignResult};
use netco_topogen::{build_world, netcoize, AdversarySpec, BuiltTopo, NetcoizeSpec};
use netco_traffic::{
    FlowSet, FlowSetConfig, FlowSink, IcmpEchoResponder, PingConfig, Pinger, SizeDist, TcpConfig,
    TcpReceiver, TcpSender,
};

use crate::host::cpu_seconds;
use crate::spans::Spans;

/// Worker threads of the two pooled workloads (the sizing host has 2 CPUs).
pub const WORKERS: usize = 2;
/// Regions the lattice is sharded into under `run_until_parallel`.
const REGIONS: usize = 4;
/// Flows pre-spawned by `flowset_1m`, two packets each.
pub const FLOWS: usize = 1_000_000;
/// The paper's Fig. 4 run length and the receiver's drain grace.
const TCP_DURATION: SimDuration = SimDuration::from_secs(10);
const TCP_GRACE: SimDuration = SimDuration::from_millis(500);
/// Simulated length of the flow and lattice runs.
const FLOW_DURATION: SimDuration = SimDuration::from_secs(2);
const LATTICE_DURATION: SimDuration = SimDuration::from_secs(2);
const LATTICE_ROWS: usize = 16;
const LATTICE_CELLS: usize = 5;

/// Per-layer values gathered from one repetition, by metric name.
pub type Counts = Vec<(&'static str, f64)>;

/// What one repetition computed in simulated time. Two repetitions of one
/// seed must agree on every field.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    pub events: u64,
    pub clock_ns: u64,
    /// Application units delivered (`sim_delivered`).
    pub delivered: u64,
    /// Workload-specific witness of everything else that was computed.
    pub digest: u64,
}

/// One repetition: host-time samples plus the simulated observation.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Process CPU seconds over the run phase, all threads.
    pub cpu_s: f64,
    pub obs: Observation,
    /// Frame-memo hits and misses over the whole repetition, all threads.
    pub memo: MemoStats,
    /// Exact counts read from public accessors (kind C).
    pub counts: Counts,
}

/// What a tap saw: frame and byte counts and, for a digest tap, the
/// order-sensitive digest over (time, node, port, direction, frame bytes)
/// that the determinism tests use.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TapLog {
    pub tx_frames: u64,
    pub tx_bytes: u64,
    pub rx_frames: u64,
    pub digest: u64,
}

/// The tap a repetition carries. Hashing every frame costs several times
/// the run itself, so only the determinism checks pay for the digest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Tap {
    #[default]
    None,
    Counting,
    Digest,
}

/// How one repetition is observed. Timed repetitions use the default: no
/// telemetry, no tap, the whole run.
#[derive(Default, Clone)]
pub struct Probe {
    pub sink: Option<TelemetrySink>,
    pub tap: Tap,
    log: Rc<RefCell<TapLog>>,
    /// Stop after the start phase: an extra `setup_s` sample.
    pub setup_only: bool,
}

impl Probe {
    /// An order-sensitive digest tap, telemetry off.
    pub fn tapped() -> Probe {
        Probe {
            tap: Tap::Digest,
            ..Probe::default()
        }
    }

    /// Telemetry on, plus `tap`.
    pub fn traced(tap: Tap) -> Probe {
        Probe {
            sink: Some(TelemetrySink::enabled()),
            tap,
            ..Probe::default()
        }
    }

    pub fn setup_only() -> Probe {
        Probe {
            setup_only: true,
            ..Probe::default()
        }
    }

    pub fn tap_log(&self) -> TapLog {
        *self.log.borrow()
    }

    /// Installs the observers; must run before the start phase, where
    /// devices fetch their metric handles.
    fn install(&self, world: &mut World) {
        if let Some(sink) = &self.sink {
            world.set_telemetry(sink.clone());
        }
        if self.tap != Tap::None {
            let log = Rc::clone(&self.log);
            let digest = self.tap == Tap::Digest;
            world.add_tap(move |ev| {
                let mut g = log.borrow_mut();
                let tx = matches!(ev.direction, TapDirection::Tx);
                if tx {
                    g.tx_frames += 1;
                    g.tx_bytes += ev.frame.len() as u64;
                } else {
                    g.rx_frames += 1;
                }
                if digest {
                    let mut d = g.digest;
                    d = splitmix(d ^ ev.at.as_nanos());
                    d = splitmix(d ^ ev.node.index() as u64);
                    d = splitmix(d ^ ev.port.0 as u64);
                    d = splitmix(d ^ tx as u64);
                    d = splitmix(d ^ fnv1a(ev.frame));
                    g.digest = d;
                }
            });
        }
    }
}

/// SplitMix64, the mixer the repository's digests and campaign seeds use.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How a lattice world is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Sequential,
    Parallel { workers: usize },
}

pub fn memo_counts(d: MemoStats) -> Counts {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    vec![
        ("net.frame.fp_misses", d.fp_misses as f64),
        ("net.frame.fp_hit_ratio", ratio(d.fp_hits, d.fp_misses)),
        ("net.frame.parse_misses", d.parse_misses as f64),
        (
            "net.frame.parse_hit_ratio",
            ratio(d.parse_hits, d.parse_misses),
        ),
    ]
}

/// Build → start → run → extract for a workload that is one world.
///
/// `setup_s` is construction plus the start phase (`run_until(now)` fires
/// every `on_start`); `wall_s` is the run phase only.
fn world_rep<B>(
    spans: &mut Spans,
    probe: &Probe,
    build: impl FnOnce() -> B,
    world_of: impl Fn(&mut B) -> &mut World,
    duration: SimDuration,
    run: impl FnOnce(&mut World, SimTime),
    extract: impl FnOnce(&B) -> (u64, u64, Counts),
) -> Rep {
    let memo_before = memo_stats_merged();
    let (mut built, build_s) = spans.span("build", |_| {
        let mut built = build();
        probe.install(world_of(&mut built));
        built
    });
    let ((), start_s) = spans.span("start", |_| {
        let world = world_of(&mut built);
        world.run_until(world.now());
    });
    let cpu_before = cpu_seconds();
    let ((), wall_s) = spans.span("run", |_| {
        if !probe.setup_only {
            let world = world_of(&mut built);
            let deadline = world.now() + duration;
            run(world, deadline);
        }
    });
    let cpu_s = cpu_seconds() - cpu_before;
    let (rep, _) = spans.span("extract", |_| {
        let (delivered, digest, mut counts) = extract(&built);
        let world = world_of(&mut built);
        let events = world.events_processed();
        counts.push(("world.events", events as f64));
        Rep {
            setup_s: build_s + start_s,
            wall_s,
            cpu_s,
            obs: Observation {
                events,
                clock_ns: world.now().as_nanos(),
                delivered,
                digest,
            },
            memo: memo_stats_merged().since(memo_before),
            counts,
        }
    });
    rep
}

/// `central3_tcp`: the paper's Central3 combiner carrying one TCP Reno
/// transfer h1 → h2 for 10 s simulated plus 0.5 s grace.
pub fn central3_tcp(seed: u64, probe: &Probe, spans: &mut Spans) -> Rep {
    world_rep(
        spans,
        probe,
        || {
            let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), seed);
            let cfg = TcpConfig::new(H2_IP).with_duration(TCP_DURATION);
            let receiver_cfg = cfg.clone();
            scenario.build_world(
                0,
                |nic| TcpSender::new(nic, cfg),
                |nic| TcpReceiver::new(nic, receiver_cfg),
            )
        },
        |built| &mut built.world,
        TCP_DURATION + TCP_GRACE,
        |world, deadline| world.run_until(deadline),
        |built| {
            let report = built
                .world
                .device::<TcpReceiver>(built.h2)
                .expect("h2 runs the receiver")
                .report();
            // Every copy a guard hands the compare crosses the wire codec
            // as a PacketIn (the guards are not OfSwitches, so the
            // registry's `openflow.packet_ins` never sees them).
            let packet_ins: u64 = built
                .guards
                .iter()
                .filter_map(|&g| built.world.device::<GuardSwitch>(g))
                .map(|g| g.stats().to_compare)
                .sum();
            let counts = vec![
                ("traffic.tcp.goodput_mbps", report.goodput_bps / 1e6),
                (
                    "traffic.tcp.duplicate_segments",
                    report.duplicate_segments as f64,
                ),
                (
                    "traffic.tcp.out_of_order_segments",
                    report.out_of_order_segments as f64,
                ),
                ("openflow.packet_ins", packet_ins as f64),
            ];
            let digest = splitmix(
                report.goodput_bps.to_bits()
                    ^ splitmix(report.duplicate_segments)
                    ^ splitmix(report.out_of_order_segments ^ packet_ins.rotate_left(32)),
            );
            (report.bytes_delivered, digest, counts)
        },
    )
}

/// `flowset_1m`: the parameters of `netco_bench::flows`, built through the
/// public `FlowSet` API on a default `World`.
pub fn flowset_1m(seed: u64, probe: &Probe, spans: &mut Spans) -> Rep {
    world_rep(
        spans,
        probe,
        || {
            let src_ip = Ipv4Addr::new(10, 9, 0, 1);
            let dst_ip = Ipv4Addr::new(10, 9, 0, 2);
            let table: NeighborTable = [(src_ip, MacAddr::local(1)), (dst_ip, MacAddr::local(2))]
                .into_iter()
                .collect();
            let mut src_nic = HostNic::new(MacAddr::local(1), src_ip);
            src_nic.neighbors = table.clone();
            let mut dst_nic = HostNic::new(MacAddr::local(2), dst_ip);
            dst_nic.neighbors = table;
            let cfg = FlowSetConfig::new(dst_ip)
                .with_initial_flows(FLOWS)
                .with_arrival_rate(0.0)
                .with_size_dist(SizeDist::Fixed(2_400))
                .with_payload_len(1_200)
                .with_flow_rate(10_000_000)
                .with_start_spread(SimDuration::from_millis(800));
            let mut world = World::new(seed);
            let src = world.add_node("flows", FlowSet::new(src_nic, cfg), CpuModel::default());
            let dst = world.add_node("sink", FlowSink::new(dst_nic), CpuModel::default());
            // Fat enough that a million staggered flows never queue: the
            // workload targets engine and scheduler cost, not congestion.
            world.connect(
                src,
                PortId(0),
                dst,
                PortId(0),
                LinkSpec::new(400_000_000_000, SimDuration::from_micros(5)),
            );
            (world, src, dst)
        },
        |built| &mut built.0,
        FLOW_DURATION,
        |world, deadline| world.run_until(deadline),
        |(world, src, dst)| {
            let stats = world.device::<FlowSet>(*src).expect("flow source").stats();
            let sink = world.device::<FlowSink>(*dst).expect("flow sink");
            let counts = vec![
                ("traffic.flowset.spawned", stats.spawned as f64),
                ("traffic.flowset.completed", stats.completed as f64),
            ];
            (
                sink.packets(),
                splitmix(sink.digest() ^ splitmix(stats.completed)),
                counts,
            )
        },
    )
}

/// `lattice400_seq` / `lattice400_par2`: 16 × 5 inband k = 3 cells, 16
/// endless ping-pongs, 2 s simulated, under the chosen executor.
pub fn lattice400(seed: u64, exec: Exec, probe: &Probe, spans: &mut Spans) -> Rep {
    world_rep(
        spans,
        probe,
        || build_grid(LATTICE_ROWS, LATTICE_CELLS, seed),
        |grid| &mut grid.world,
        LATTICE_DURATION,
        |world, deadline| match exec {
            Exec::Sequential => world.run_until(deadline),
            Exec::Parallel { workers } => {
                world.run_until_parallel(deadline, &Pool::new(workers), REGIONS)
            }
        },
        |grid| {
            let delivered = grid.deliveries();
            (delivered, splitmix(delivered), Vec::new())
        },
    )
}

/// One coordinate of the campaign sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    class_idx: usize,
    k: usize,
    frac_idx: usize,
}

/// The sweep in `run_campaign`'s order: class-major, then k, then fraction.
pub fn campaign_cells(cfg: &CampaignConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for class_idx in 0..cfg.classes.len() {
        for &k in &cfg.ks {
            for frac_idx in 0..cfg.adversary_fractions.len() {
                cells.push(Cell {
                    class_idx,
                    k,
                    frac_idx,
                });
            }
        }
    }
    cells
}

/// Builds one cell's world through the public pieces `run_campaign` is
/// made of — `ClassSpec::graph` → `netcoize` → `build_world` — with the
/// same seeds and hosts, a span around each. Returns the world and its
/// ping-pair count. `campaign_traced` checks cell by cell that these
/// worlds deliver what `run_campaign`'s own do.
pub fn build_cell(cfg: &CampaignConfig, cell: Cell, spans: &mut Spans) -> (BuiltTopo, usize) {
    let (base, _) = spans.span("generate", |_| {
        cfg.classes[cell.class_idx].graph(cfg.hosts, cfg.seed.wrapping_add(cell.class_idx as u64))
    });
    let (netco, _) = spans.span("netcoize", |_| {
        netcoize(&base, &NetcoizeSpec::full(cell.k, cfg.seed))
    });
    let pairs = cfg.pairs.min(netco.hosts.len() / 2);
    let adversary = AdversarySpec {
        fraction: cfg.adversary_fractions[cell.frac_idx],
        seed: splitmix(cfg.seed ^ ((cell.k as u64) << 32) ^ cell.frac_idx as u64),
        every_nth: 1,
    };
    let world_seed = splitmix(
        cfg.seed ^ ((cell.class_idx as u64) << 48) ^ ((cell.k as u64) << 24) ^ cell.frac_idx as u64,
    );
    let (built, _) = spans.span("build_world", |_| {
        build_world(
            &netco,
            &Profile::default(),
            world_seed,
            |h, nic| {
                let pair = h / 2;
                if h % 2 == 0 && pair < pairs {
                    Box::new(Pinger::new(
                        nic,
                        PingConfig {
                            dst_ip: netco.hosts[h + 1].ip,
                            count: cfg.pings_per_pair,
                            interval: SimDuration::from_millis(10),
                            payload_len: 56,
                            identifier: pair as u16 + 1,
                            start_after: SimDuration::from_micros((pair as u64 % 16) * 500),
                        },
                    ))
                } else {
                    Box::new(IcmpEchoResponder::new(nic))
                }
            },
            Some(&adversary),
        )
    });
    (built, pairs)
}

/// Serial build-only pass over every cell: the campaign's `setup_s`.
pub fn campaign_build_pass(cfg: &CampaignConfig, spans: &mut Spans) -> f64 {
    let ((), build_s) = spans.span("build", |spans| {
        for cell in campaign_cells(cfg) {
            spans.span("cell", |spans| {
                std::hint::black_box(build_cell(cfg, cell, spans));
            });
        }
    });
    build_s
}

fn campaign_counts(result: &CampaignResult) -> Counts {
    let sum = |f: fn(&netco_topogen::campaign::CellOutcome) -> u64| -> f64 {
        result.cells.iter().map(f).sum::<u64>() as f64
    };
    vec![
        ("world.events", sum(|c| c.events)),
        ("topogen.campaign.cells", result.cells.len() as f64),
        ("topogen.campaign.tests", sum(|c| c.tests as u64)),
        ("topogen.campaign.received", sum(|c| c.received as u64)),
        (
            "topogen.campaign.switches_max",
            result.cells.iter().map(|c| c.switches).max().unwrap_or(0) as f64,
        ),
        (
            "topogen.campaign.zero_fraction_availability_pct",
            result.zero_fraction_availability_pct,
        ),
    ]
}

/// `campaign_full`: README's quick-start campaign on a 2-thread pool.
/// Returns the result too, for the checks that read it.
pub fn campaign_full(seed: u64, spans: &mut Spans) -> (Rep, CampaignResult) {
    let cfg = CampaignConfig::full(seed);
    let memo_before = memo_stats_merged();
    let setup_s = campaign_build_pass(&cfg, spans);
    let cpu_before = cpu_seconds();
    let (result, wall_s) = spans.span("run", |_| run_campaign(&cfg, &Pool::new(WORKERS)));
    let cpu_s = cpu_seconds() - cpu_before;
    let rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        obs: Observation {
            events: result.cells.iter().map(|c| c.events).sum(),
            clock_ns: cfg.run_ms * 1_000_000,
            delivered: result.cells.iter().map(|c| c.received as u64).sum(),
            // Every reported field of every cell, tap digests included.
            digest: fnv1a(render_json(&cfg, &result).as_bytes()),
        },
        memo: memo_stats_merged().since(memo_before),
        counts: campaign_counts(&result),
    };
    (rep, result)
}

/// What the traced campaign pass saw in one cell.
pub struct TracedCell {
    pub events: u64,
    pub received: u32,
}

/// The traced campaign pass as a whole.
pub struct CampaignTrace {
    /// Run-phase wall seconds summed over the cells.
    pub wall_s: f64,
    pub cells: Vec<TracedCell>,
    /// Trace-ring overflow summed over the cell sinks.
    pub trace_dropped: u64,
}

/// The campaign cell by cell: `run_campaign` owns its worlds, so the
/// traced run walks the same cells serially through the public pieces,
/// observed by `probe` (every cell's registry is folded into its sink).
pub fn campaign_cell_pass(seed: u64, probe: &Probe, spans: &mut Spans) -> CampaignTrace {
    let cfg = CampaignConfig::full(seed);
    let mut trace = CampaignTrace {
        wall_s: 0.0,
        cells: Vec::new(),
        trace_dropped: 0,
    };
    for cell in campaign_cells(&cfg) {
        spans.span("cell", |spans| {
            let (mut built, pairs) = build_cell(&cfg, cell, spans);
            // One sink per cell: scoped names (`compare.<node>.…`) repeat
            // from cell to cell, and adopting a second world's cells into
            // a live handle would alias them.
            let cell_probe = Probe {
                sink: probe.sink.as_ref().map(|_| TelemetrySink::enabled()),
                ..probe.clone()
            };
            cell_probe.install(&mut built.world);
            let ((), run_s) = spans.span("run", |_| {
                built
                    .world
                    .run_until(SimTime::from_nanos(cfg.run_ms * 1_000_000));
            });
            trace.wall_s += run_s;
            if let (Some(total), Some(cell_sink)) = (&probe.sink, &cell_probe.sink) {
                total.merge_sink(cell_sink);
                trace.trace_dropped += cell_sink.trace_dropped();
            }
            let received = (0..pairs)
                .map(|pair| {
                    built
                        .world
                        .device::<Pinger>(built.host_ids[2 * pair])
                        .expect("even hosts of a pair ping")
                        .report()
                        .received
                })
                .sum();
            trace.cells.push(TracedCell {
                events: built.world.events_processed(),
                received,
            });
        });
    }
    trace
}
