//! `perf_report`: one-shot hot-path performance snapshot, printed as a
//! single JSON object on stdout.
//!
//! Nine measurements:
//!
//! 1. Scheduler churn — a steady-state pop-one/push-one loop over the
//!    timing-wheel [`netco_sim::Scheduler`], with the retired binary-heap
//!    implementation ([`netco_sim::baseline::HeapScheduler`]) run through
//!    the identical loop as the comparison point.
//! 2. Compare observe — 3-way voting over distinct full-size UDP frames
//!    under [`CompareStrategy::FullPacket`] fingerprint keying.
//! 3. Frame memo — fingerprint and header-sniff ns/op on a full-size
//!    frame, cold (fresh [`Frame`] per touch) vs memoized (shared-memo
//!    hits, the steady state of a frame traversing the combiner).
//! 4. A Fig.-4-shaped end-to-end run — Central3 TCP at
//!    [`ExperimentScale::quick`] duration — reporting whole-simulator
//!    event throughput, the sim-time/wall-time ratio and the compare
//!    cache high-water mark.
//! 5. Flow-table classification — lookup ns/op over tables of 16/256/4096
//!    wildcard-free entries, the indexed [`FlowTable`] against the
//!    retired linear scan ([`netco_openflow::baseline::LinearFlowTable`]).
//! 6. Flow-scale sweep — a [`netco_traffic::FlowSet`] world at 1 k / 100 k
//!    / 1 M concurrent flows, each count run several times: events/sec,
//!    peak RSS (`VmHWM`), and a bit-identity check on the sink digest
//!    across the repeats.
//! 7. Parallel figure sweeps — Fig. 4 (TCP) and Fig. 7 (RTT) fanned over
//!    the [`netco_harness::Pool`] at several worker counts, reporting
//!    wall-clock, aggregate simulator events/sec and whether the rows
//!    stayed bit-identical across thread counts (they must).
//! 8. Region scale — one 16 × 5 NetCo grid (400 switches), run
//!    space-parallel (`run_until_parallel`, 4 regions) at 1/2/4
//!    workers against the sequential oracle, interleaved A/B per worker
//!    count; reports events/sec and speedup over sequential. Timed runs
//!    carry no taps (observation cost is not executor cost, and both
//!    sides of every pair run with identical zero observers); a separate
//!    untimed tapped pair per worker count checks that the
//!    order-sensitive tap digest stays bit-identical (it must).
//! 9. Topology campaign — the [`netco_topogen::campaign`] smoke sweep
//!    (2 generated classes × k ∈ {2, 3} × 2 adversary fractions, ~100
//!    routed ping tests per cell), run twice; reports per-cell
//!    availability, stretch and the tap digest, plus the rerun and
//!    region-count bit-identity verdicts (the BENCH_PR9 record).
//!
//! Everything simulated is deterministic; wall-clock rates vary with the
//! host. Run with `cargo run --release -p netco-bench --bin perf_report`.
//! Pass `--threads 1,2,4` (or set `NETCO_THREADS`) to choose the sweep
//! worker counts; the default is `1,2,4,8`. Pass `--telemetry <dir>` to
//! additionally run the canonical chaos scenario with a telemetry sink
//! and dump `chaos_metrics.json` (registry snapshot) and
//! `chaos_trace.json` (chrome://tracing document) into `<dir>`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use netco_bench::experiments::{fig4_tcp_on, fig7_rtt_on, Sweep, TcpRow};
use netco_bench::flows::{peak_rss_mb, run_flow_world};
use netco_bench::grid::build_grid;
use netco_bench::ExperimentScale;
use netco_core::{Compare, CompareConfig, CompareCore, LaneInfo};
use netco_harness::Pool;
use netco_net::packet::builder;
use netco_net::{Frame, MacAddr, RegionRunStats, TapDirection};
use netco_openflow::{Action, FlowEntry, FlowMatch, FlowTable, OfPort, PacketFields};
use netco_sim::{SimDuration, SimTime};
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_topogen::campaign::{run_campaign, CampaignConfig, CellOutcome};
use netco_traffic::{TcpConfig, TcpReceiver, TcpSender};

/// Total pops per scheduler churn measurement.
const SCHED_OPS: u64 = 1_000_000;
/// Untimed pops before the measurement starts (page-faults, allocator
/// arena growth and the CPU frequency ramp otherwise land on whichever
/// measurement runs first in the process). A full measurement-length
/// pass: the ramp alone takes hundreds of milliseconds.
const SCHED_WARMUP: u64 = SCHED_OPS;
/// Measured passes per scheduler; the best is reported (rejects
/// scheduling interference on shared CI hosts).
const SCHED_PASSES: usize = 3;
/// Events kept in flight during churn (spread over all wheel levels).
const SCHED_FLIGHT: u64 = 4_096;
/// Distinct frames in the compare pool (each observed on 3 ports).
const COMPARE_POOL: usize = 1_024;
/// Passes over the compare pool.
const COMPARE_ROUNDS: usize = 64;

/// Deterministic 64-bit LCG (same constants as Knuth's MMIX).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// Delay pattern hitting every wheel level and the far-future heap:
/// mostly sub-millisecond, a tail out to ~4 ms, a sliver past 4.3 s.
fn churn_delay(state: &mut u64) -> SimDuration {
    let x = lcg(state);
    let nanos = match x & 0xF {
        0..=9 => x >> 4 & 0xF_FFFF,            // ≤ ~1 ms: levels 0–2
        10..=14 => x >> 4 & 0x3F_FFFF,         // ≤ ~4 ms: level 3
        _ => (x >> 4 & 0xFFF) + 5_000_000_000, // past the wheel horizon
    };
    SimDuration::from_nanos(nanos)
}

fn wheel_events_per_sec() -> f64 {
    let mut s = netco_sim::Scheduler::new();
    let mut state = 0x9E37_79B9u64;
    for i in 0..SCHED_FLIGHT {
        s.schedule_after(churn_delay(&mut state), i);
    }
    for i in 0..SCHED_WARMUP {
        let (_, ev) = s.pop().expect("flight never drains");
        std::hint::black_box(ev);
        s.schedule_after(churn_delay(&mut state), i);
    }
    let mut best = f64::INFINITY;
    for _ in 0..SCHED_PASSES {
        let start = Instant::now();
        for i in 0..SCHED_OPS {
            let (_, ev) = s.pop().expect("flight never drains");
            std::hint::black_box(ev);
            s.schedule_after(churn_delay(&mut state), i);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    SCHED_OPS as f64 / best
}

fn heap_events_per_sec() -> f64 {
    let mut s = netco_sim::baseline::HeapScheduler::new();
    let mut state = 0x9E37_79B9u64;
    for i in 0..SCHED_FLIGHT {
        s.schedule_after(churn_delay(&mut state), i);
    }
    for i in 0..SCHED_WARMUP {
        let (_, ev) = s.pop().expect("flight never drains");
        std::hint::black_box(ev);
        s.schedule_after(churn_delay(&mut state), i);
    }
    let mut best = f64::INFINITY;
    for _ in 0..SCHED_PASSES {
        let start = Instant::now();
        for i in 0..SCHED_OPS {
            let (_, ev) = s.pop().expect("flight never drains");
            std::hint::black_box(ev);
            s.schedule_after(churn_delay(&mut state), i);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    SCHED_OPS as f64 / best
}

fn compare_observes_per_sec() -> f64 {
    let mut core = CompareCore::new(CompareConfig::prevent(3));
    core.attach_lane(
        0,
        LaneInfo {
            replica_ports: vec![1, 2, 3],
            host_port: 4,
        },
    );
    // Distinct full-size frames; payload tag + source port make every key
    // unique within a pool pass.
    let frames: Vec<Bytes> = (0..COMPARE_POOL)
        .map(|i| {
            builder::udp_frame(
                MacAddr::local(1),
                MacAddr::local(2),
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                10_000 + (i as u16),
                5001,
                Bytes::from(vec![(i % 251) as u8; 1400]),
                None,
            )
        })
        .collect();
    let mut now = SimTime::ZERO;
    // 20 µs per frame: one pool pass spans ~20 ms, past the default hold
    // time, so periodic sweeps retire entries and the cache stays bounded.
    let tick = SimDuration::from_micros(20);
    let mut observes = 0u64;
    let mut start = Instant::now();
    // The first few rounds are warmup (cache reaching steady state); the
    // timer restarts after them.
    let warmup_rounds = 4;
    for round in 0..COMPARE_ROUNDS + warmup_rounds {
        if round == warmup_rounds {
            observes = 0;
            start = Instant::now();
        }
        for (i, f) in frames.iter().enumerate() {
            for port in [1u16, 2, 3] {
                std::hint::black_box(core.observe(0, port, f.clone(), now));
                observes += 1;
            }
            now += tick;
            if (round * COMPARE_POOL + i) % 256 == 255 {
                std::hint::black_box(core.sweep(now));
            }
        }
    }
    observes as f64 / start.elapsed().as_secs_f64()
}

/// Touches per frame-memo measurement pass.
const MEMO_OPS: u64 = 1_000_000;
/// Measured passes per memo variant; the best is reported.
const MEMO_PASSES: usize = 3;

struct FrameMemoPoint {
    frame_len: usize,
    cold_fp128_ns: f64,
    memoized_fp128_ns: f64,
    cold_parse_ns: f64,
    memoized_parse_ns: f64,
    clone_ns: f64,
}

/// Best-of-[`MEMO_PASSES`] ns/op over [`MEMO_OPS`] iterations of `op`,
/// with a quarter-length warmup pass first.
fn memo_ns(mut op: impl FnMut()) -> f64 {
    for _ in 0..MEMO_OPS / 4 {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..MEMO_PASSES {
        let start = Instant::now();
        for _ in 0..MEMO_OPS {
            op();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / MEMO_OPS as f64
}

/// Fingerprint and header-sniff cost on a full-size UDP frame, cold
/// (fresh [`Frame`] per touch, so the memo never helps) against memoized
/// (every touch after the first is a shared-memo hit — the steady state
/// of a frame crossing hub, replicas, guard and compare).
fn frame_memo_point() -> FrameMemoPoint {
    let wire = builder::udp_frame(
        MacAddr::local(1),
        MacAddr::local(2),
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        10_000,
        5001,
        Bytes::from(vec![0xA5u8; 1400]),
        None,
    );
    let cold_fp128_ns = memo_ns(|| {
        let f = Frame::new(wire.clone());
        std::hint::black_box(f.fp128());
    });
    let hot = Frame::new(wire.clone());
    let memoized_fp128_ns = memo_ns(|| {
        std::hint::black_box(hot.fp128());
    });
    let cold_parse_ns = memo_ns(|| {
        let f = Frame::new(wire.clone());
        std::hint::black_box(f.fields().dl_type);
    });
    let memoized_parse_ns = memo_ns(|| {
        std::hint::black_box(hot.fields().dl_type);
    });
    // Frame::clone is the combiner's fan-out primitive (one clone per
    // replica copy); since the memo moved from `Rc` to `Arc` for the
    // region-parallel executor it costs an atomic refcount bump, so it
    // gets its own number to catch any regression.
    let clone_ns = memo_ns(|| {
        std::hint::black_box(hot.clone());
    });
    FrameMemoPoint {
        frame_len: wire.len(),
        cold_fp128_ns,
        memoized_fp128_ns,
        cold_parse_ns,
        memoized_parse_ns,
        clone_ns,
    }
}

struct EndToEnd {
    events_per_sec: f64,
    sim_seconds_per_wall_second: f64,
    peak_cache_entries: u64,
    tcp_mbps: f64,
}

/// Fig.-4-shaped run: Central3 (3 replicas, central compare), one TCP
/// transfer h1 → h2 at the quick-scale duration.
fn end_to_end(scale: ExperimentScale) -> EndToEnd {
    let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7);
    let duration = scale.duration;
    let grace = SimDuration::from_millis(500);
    let cfg = TcpConfig::new(H2_IP).with_duration(duration);
    let cfg2 = cfg.clone();
    let mut built = scenario.build_world(
        0,
        |nic| TcpSender::new(nic, cfg),
        |nic| TcpReceiver::new(nic, cfg2),
    );
    let start = Instant::now();
    built.world.run_for(duration + grace);
    let wall = start.elapsed().as_secs_f64();
    let report = built
        .world
        .device::<TcpReceiver>(built.h2)
        .expect("receiver")
        .report();
    let compare = built
        .world
        .device::<Compare>(built.compare.expect("Central3 has a compare"))
        .expect("compare device");
    EndToEnd {
        events_per_sec: built.world.events_processed() as f64 / wall,
        sim_seconds_per_wall_second: built.world.now().as_nanos() as f64 / 1e9 / wall,
        peak_cache_entries: compare.stats().peak_cache_entries,
        tcp_mbps: report.goodput_bps / 1e6,
    }
}

/// Table sizes for the flow-table lookup measurement.
const FLOW_TABLE_SIZES: [usize; 3] = [16, 256, 4096];
/// Lookups per flow-table measurement pass.
const FLOW_LOOKUPS: u64 = 1_000_000;
/// Measured passes per table; the best is reported.
const FLOW_PASSES: usize = 3;

/// A distinct, wildcard-free key for slot `i` of the microbench table.
fn bench_fields(i: usize) -> PacketFields {
    PacketFields {
        in_port: (i % 48) as u16,
        dl_src: MacAddr::local((i % 251) as u32 + 1),
        dl_dst: MacAddr::local((i % 127) as u32 + 1),
        dl_type: 0x0800,
        nw_proto: 17,
        nw_src: std::net::Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
        nw_dst: std::net::Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
        tp_src: 10_000 + (i % 40_000) as u16,
        tp_dst: 5001,
        ..PacketFields::default()
    }
}

/// Lookup cost over a table of `n` wildcard-free entries, hitting keys in
/// an LCG-scrambled order. `F` builds either the indexed [`FlowTable`] or
/// the retired linear baseline wrapped behind the same closure shape.
fn flow_lookup_ns<T>(
    n: usize,
    mut add: impl FnMut(&mut T, FlowEntry),
    mut lookup: impl FnMut(&mut T, &PacketFields) -> bool,
    table: &mut T,
) -> f64 {
    for i in 0..n {
        add(
            table,
            FlowEntry::new(
                100,
                FlowMatch::exact(&bench_fields(i)),
                vec![Action::Output(OfPort::Physical((i % 4) as u16 + 1))],
            ),
        );
    }
    let keys: Vec<PacketFields> = (0..n).map(bench_fields).collect();
    let mut state = 0xD1B5_4A32u64;
    // Warmup pass.
    for _ in 0..FLOW_LOOKUPS / 4 {
        let k = &keys[(lcg(&mut state) as usize) % n];
        std::hint::black_box(lookup(table, k));
    }
    let mut best = f64::INFINITY;
    for _ in 0..FLOW_PASSES {
        let start = Instant::now();
        for _ in 0..FLOW_LOOKUPS {
            let k = &keys[(lcg(&mut state) as usize) % n];
            std::hint::black_box(lookup(table, k));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / FLOW_LOOKUPS as f64
}

struct FlowTablePoint {
    entries: usize,
    indexed_ns: f64,
    linear_ns: f64,
}

fn flow_table_points() -> Vec<FlowTablePoint> {
    let now = SimTime::ZERO;
    FLOW_TABLE_SIZES
        .iter()
        .map(|&n| {
            let indexed_ns = flow_lookup_ns(
                n,
                |t: &mut FlowTable, e| t.add(e, now),
                |t, k| t.lookup(k, now).is_some(),
                &mut FlowTable::new(),
            );
            let linear_ns = flow_lookup_ns(
                n,
                |t: &mut netco_openflow::baseline::LinearFlowTable, e| t.add(e, now),
                |t, k| t.lookup(k, now).is_some(),
                &mut netco_openflow::baseline::LinearFlowTable::new(),
            );
            FlowTablePoint {
                entries: n,
                indexed_ns,
                linear_ns,
            }
        })
        .collect()
}

struct SweepPoint {
    threads: usize,
    fig4_wall_s: f64,
    fig4_events_per_sec: f64,
    fig7_wall_s: f64,
    fig7_events_per_sec: f64,
}

/// Collapses Fig. 4 rows to bit patterns for cross-thread-count equality.
fn tcp_bits(rows: &[TcpRow]) -> Vec<(u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.mbps.to_bits(),
                r.fast_retransmits_per_s.to_bits(),
                r.timeouts_per_s.to_bits(),
            )
        })
        .collect()
}

fn sweep_points(thread_counts: &[usize], scale: ExperimentScale) -> (Vec<SweepPoint>, bool) {
    let profile = Profile::default();
    let mut points = Vec::new();
    let mut reference: Option<Vec<(u64, u64, u64)>> = None;
    let mut identical = true;
    for &threads in thread_counts {
        let pool = Pool::new(threads);
        let fig4: Sweep<Vec<TcpRow>> = fig4_tcp_on(&pool, &profile, scale);
        let fig7 = fig7_rtt_on(&pool, &profile, scale);
        let bits = tcp_bits(&fig4.rows);
        match &reference {
            None => reference = Some(bits),
            Some(r) => identical &= *r == bits,
        }
        points.push(SweepPoint {
            threads,
            fig4_wall_s: fig4.wall_seconds,
            fig4_events_per_sec: fig4.events_per_sec(),
            fig7_wall_s: fig7.wall_seconds,
            fig7_events_per_sec: fig7.events_per_sec(),
        });
    }
    (points, identical)
}

/// Concurrent-flow counts for the traffic-engine scale sweep.
const FLOW_SCALE_COUNTS: [usize; 3] = [1_000, 100_000, 1_000_000];
/// Same-seed repeats per flow count; the best wall is reported.
const FLOW_SCALE_REPEATS: usize = 3;

struct FlowScalePoint {
    flows: usize,
    events_per_sec: f64,
    events: u64,
    packets_delivered: u64,
    peak_flows_active: u64,
    peak_rss_mb: f64,
    digest_identical: bool,
}

/// Million-flow scale sweep over [`netco_bench::flows::run_flow_world`].
/// `events_per_sec` reports the best wall of [`FLOW_SCALE_REPEATS`]
/// same-seed runs, and `digest_identical` asserts every repeat produced
/// the same sink digest and event count.
/// `peak_rss_mb` is a process-lifetime high-water mark (`VmHWM`), so the
/// sweep runs in ascending flow count and each row reports the mark
/// *after* its run — the 1M row is the honest number, smaller rows are
/// upper bounds.
fn flow_scale_points() -> Vec<FlowScalePoint> {
    FLOW_SCALE_COUNTS
        .iter()
        .map(|&flows| {
            let first = run_flow_world(flows, 7);
            let mut best = first.wall_nanos;
            let mut identical = true;
            for _ in 1..FLOW_SCALE_REPEATS {
                let r = run_flow_world(flows, 7);
                identical &= (r.digest, r.events) == (first.digest, first.events);
                best = best.min(r.wall_nanos);
            }
            FlowScalePoint {
                flows,
                events_per_sec: first.events as f64 / (best as f64 / 1e9),
                events: first.events,
                packets_delivered: first.packets,
                peak_flows_active: first.spawned, // pre-spawned → peak = spawned
                peak_rss_mb: peak_rss_mb(),
                digest_identical: identical,
            }
        })
        .collect()
}

/// Grid for the region-scale sweep: 16 rows × 5 inband NetCo cells =
/// 400 switches plus 32 hosts.
const REGION_GRID_ROWS: usize = 16;
const REGION_GRID_CELLS: usize = 5;
/// Simulated time per region-scale run.
const REGION_SIM_MS: u64 = 1_000;
/// Regions the grid is sharded into (fixed, so only the worker count
/// varies across the sweep).
const REGION_COUNT: usize = 4;
/// Interleaved sequential/parallel pairs per worker count.
const REGION_PAIRS: usize = 3;
/// Worker counts for the region-scale sweep.
const REGION_WORKERS: [usize; 3] = [1, 2, 4];

/// One grid run: `(wall seconds, events, digest, taps, rounds)`. `workers ==
/// None` is the sequential oracle; `Some(w)` shards the grid into
/// [`REGION_COUNT`] regions on a `w`-thread pool. When `tapped`, an
/// order-sensitive digest tap observes every frame — used by the
/// untimed divergence check. Timed throughput runs go untapped: tap
/// record buffering/replay is observation cost, not executor cost, and
/// symmetry (zero observers on both sides of every pair) keeps the
/// comparison honest.
fn region_observe(workers: Option<usize>, tapped: bool) -> (f64, u64, u64, u64, RegionRunStats) {
    let mut world = build_grid(REGION_GRID_ROWS, REGION_GRID_CELLS, 7).world;
    let acc = Rc::new(RefCell::new((0u64, 0u64)));
    if tapped {
        let tap_acc = Rc::clone(&acc);
        world.add_tap(move |ev| {
            let mut g = tap_acc.borrow_mut();
            let mut d = g.0;
            d = splitmix(d ^ ev.at.as_nanos());
            d = splitmix(d ^ ev.node.index() as u64);
            d = splitmix(d ^ ev.port.0 as u64);
            d = splitmix(d ^ matches!(ev.direction, TapDirection::Tx) as u64);
            d = splitmix(d ^ netco_net::fnv1a(ev.frame));
            g.0 = d;
            g.1 += 1;
        });
    }
    let deadline = world.now() + SimDuration::from_millis(REGION_SIM_MS);
    let start = Instant::now();
    match workers {
        None => world.run_until(deadline),
        Some(w) => world.run_until_parallel(deadline, &Pool::new(w), REGION_COUNT),
    }
    let wall = start.elapsed().as_secs_f64();
    let (digest, taps) = *acc.borrow();
    (
        wall,
        world.events_processed(),
        digest,
        taps,
        world.region_stats(),
    )
}

/// SplitMix64 — the digest mixer shared with the determinism tests.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct RegionScalePoint {
    workers: usize,
    seq_wall_s: f64,
    par_wall_s: f64,
    events: u64,
    seq_events_per_sec: f64,
    par_events_per_sec: f64,
    speedup: f64,
    /// Rounds the region-parallel run took, and how many of them had a
    /// single runnable region: the grid's four regions share no link, so
    /// this reads one round — the speedup says nothing about round cost.
    rounds: u64,
    solo_rounds: u64,
    digest_identical: bool,
}

/// Interleaved A/B per worker count: untapped sequential and
/// region-parallel runs alternate back to back [`REGION_PAIRS`] times so
/// both see the same machine windows; the best wall of each side is
/// reported (rejects scheduling interference, the same policy as every
/// other section). One extra untimed tapped pair checks the
/// order-sensitive digest bit for bit.
fn region_scale_points() -> Vec<RegionScalePoint> {
    REGION_WORKERS
        .iter()
        .map(|&workers| {
            let (_, se, sd, st, _) = region_observe(None, true);
            let (_, pe, pd, pt, stats) = region_observe(Some(workers), true);
            let mut identical = st > 0 && (se, sd, st) == (pe, pd, pt);
            let mut seq_best = f64::INFINITY;
            let mut par_best = f64::INFINITY;
            let mut events = 0;
            for _ in 0..REGION_PAIRS {
                let (sw, seq_events, ..) = region_observe(None, false);
                let (pw, par_events, ..) = region_observe(Some(workers), false);
                identical &= seq_events == se && par_events == se;
                seq_best = seq_best.min(sw);
                par_best = par_best.min(pw);
                events = seq_events;
            }
            RegionScalePoint {
                workers,
                seq_wall_s: seq_best,
                par_wall_s: par_best,
                events,
                seq_events_per_sec: events as f64 / seq_best,
                par_events_per_sec: events as f64 / par_best,
                speedup: seq_best / par_best,
                rounds: stats.rounds,
                solo_rounds: stats.solo_rounds,
                digest_identical: identical,
            }
        })
        .collect()
}

struct TopoCampaignSection {
    label: String,
    cells: Vec<CellOutcome>,
    rerun_identical: bool,
    region_parallel_identical: bool,
    zero_fraction_availability_pct: f64,
}

/// The topogen smoke campaign, run twice on the same pool: the second
/// run must reproduce the first bit for bit (`rerun_identical`), the
/// first cell must survive the space-parallel executor at 2 and 4
/// regions (`region_parallel_identical`), and every adversary-free cell
/// must deliver every ping.
fn topo_campaign_section(pool: &Pool) -> TopoCampaignSection {
    let cfg = CampaignConfig::smoke(7);
    let first = run_campaign(&cfg, pool);
    let second = run_campaign(&cfg, pool);
    TopoCampaignSection {
        label: cfg.label,
        rerun_identical: first == second,
        region_parallel_identical: first.region_parallel_identical,
        zero_fraction_availability_pct: first.zero_fraction_availability_pct,
        cells: first.cells,
    }
}

/// `--telemetry <dir>` from argv: run the canonical chaos scenario with a
/// telemetry sink installed and dump the metrics snapshot plus the
/// chrome://tracing document into `<dir>`.
fn telemetry_dir() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

fn dump_telemetry(dir: &std::path::Path) {
    let artifacts = netco_bench::chaos::artifacts();
    std::fs::create_dir_all(dir).expect("create telemetry dir");
    std::fs::write(dir.join("chaos_metrics.json"), &artifacts.metrics_json)
        .expect("write chaos metrics snapshot");
    std::fs::write(dir.join("chaos_trace.json"), &artifacts.trace_json)
        .expect("write chaos chrome trace");
    eprintln!(
        "telemetry: wrote {} and {} (open the trace in chrome://tracing)",
        dir.join("chaos_metrics.json").display(),
        dir.join("chaos_trace.json").display()
    );
}

/// `--threads 1,2,4` from argv, else `NETCO_THREADS`, else 1/2/4/8.
fn thread_counts() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    let from_flag = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var(netco_harness::THREADS_ENV).ok());
    match from_flag {
        Some(list) => list
            .split(',')
            .filter_map(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .collect(),
        None => vec![1, 2, 4, 8],
    }
}

/// Section boundary: zeroes every cross-section counter. Both the
/// thread-local frame-memo stats *and* the cross-thread merged
/// accumulator that pool workers publish into are reset — the merged
/// side was previously never cleared, so the sweep, region-scale and
/// topo-campaign sections inherited earlier sections' state. Never call
/// *inside* a measured region.
fn section_boundary() {
    netco_net::reset_memo_stats();
    netco_net::reset_memo_stats_merged();
}

fn main() {
    if let Some(dir) = telemetry_dir() {
        dump_telemetry(&dir);
    }
    let scale = ExperimentScale::quick();
    let wheel = wheel_events_per_sec();
    let heap = heap_events_per_sec();
    section_boundary();
    let observes = compare_observes_per_sec();
    section_boundary();
    let memo = frame_memo_point();
    section_boundary();
    let e2e = end_to_end(scale);
    section_boundary();
    let flow = flow_table_points();
    section_boundary();
    let flow_scale = flow_scale_points();
    section_boundary();
    let counts = thread_counts();
    let (sweeps, identical) = sweep_points(&counts, scale);
    section_boundary();
    let region = region_scale_points();
    section_boundary();
    let campaign = topo_campaign_section(&Pool::new(counts.iter().copied().max().unwrap_or(2)));
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!("  \"scheduler_wheel_events_per_sec\": {wheel:.0},");
    println!("  \"scheduler_heap_events_per_sec\": {heap:.0},");
    println!("  \"compare_observes_per_sec\": {observes:.0},");
    println!("  \"frame_memo\": {{");
    println!("    \"frame_len\": {},", memo.frame_len);
    println!("    \"cold_fp128_ns\": {:.1},", memo.cold_fp128_ns);
    println!("    \"memoized_fp128_ns\": {:.1},", memo.memoized_fp128_ns);
    println!(
        "    \"fp128_speedup\": {:.2},",
        memo.cold_fp128_ns / memo.memoized_fp128_ns
    );
    println!("    \"cold_parse_ns\": {:.1},", memo.cold_parse_ns);
    println!("    \"memoized_parse_ns\": {:.1},", memo.memoized_parse_ns);
    println!(
        "    \"parse_speedup\": {:.2},",
        memo.cold_parse_ns / memo.memoized_parse_ns
    );
    println!("    \"clone_ns\": {:.1}", memo.clone_ns);
    println!("  }},");
    println!("  \"e2e_scenario\": \"central3_tcp\",");
    println!(
        "  \"e2e_sim_duration_s\": {:.3},",
        scale.duration.as_secs_f64()
    );
    println!("  \"e2e_events_per_sec\": {:.0},", e2e.events_per_sec);
    println!(
        "  \"e2e_sim_seconds_per_wall_second\": {:.3},",
        e2e.sim_seconds_per_wall_second
    );
    println!("  \"e2e_peak_cache_entries\": {},", e2e.peak_cache_entries);
    println!("  \"e2e_tcp_mbps\": {:.1},", e2e.tcp_mbps);
    println!("  \"host_cpus\": {host_cpus},");
    println!("  \"flow_table_lookup\": [");
    for (i, p) in flow.iter().enumerate() {
        let comma = if i + 1 < flow.len() { "," } else { "" };
        println!(
            "    {{\"entries\": {}, \"indexed_ns_per_lookup\": {:.1}, \"linear_ns_per_lookup\": {:.1}, \"speedup\": {:.2}}}{comma}",
            p.entries,
            p.indexed_ns,
            p.linear_ns,
            p.linear_ns / p.indexed_ns
        );
    }
    println!("  ],");
    println!("  \"flow_scale\": [");
    for (i, p) in flow_scale.iter().enumerate() {
        let comma = if i + 1 < flow_scale.len() { "," } else { "" };
        println!(
            "    {{\"flows\": {}, \"events_per_sec\": {:.0}, \"events\": {}, \"packets_delivered\": {}, \"peak_flows_active\": {}, \"peak_rss_mb\": {:.1}, \"digest_identical\": {}}}{comma}",
            p.flows,
            p.events_per_sec,
            p.events,
            p.packets_delivered,
            p.peak_flows_active,
            p.peak_rss_mb,
            p.digest_identical
        );
    }
    println!("  ],");
    println!("  \"sweep_rows_bit_identical\": {identical},");
    println!("  \"sweeps\": [");
    for (i, p) in sweeps.iter().enumerate() {
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        println!(
            "    {{\"threads\": {}, \"fig4_wall_s\": {:.3}, \"fig4_events_per_sec\": {:.0}, \"fig7_wall_s\": {:.3}, \"fig7_events_per_sec\": {:.0}}}{comma}",
            p.threads, p.fig4_wall_s, p.fig4_events_per_sec, p.fig7_wall_s, p.fig7_events_per_sec
        );
    }
    println!("  ],");
    println!(
        "  \"region_grid\": {{\"rows\": {}, \"cells\": {}, \"switches\": {}, \"regions\": {}, \"sim_ms\": {}, \"ab_pairs\": {}}},",
        REGION_GRID_ROWS,
        REGION_GRID_CELLS,
        REGION_GRID_ROWS * REGION_GRID_CELLS * 5,
        REGION_COUNT,
        REGION_SIM_MS,
        REGION_PAIRS
    );
    println!("  \"region_scale\": [");
    for (i, p) in region.iter().enumerate() {
        let comma = if i + 1 < region.len() { "," } else { "" };
        println!(
            "    {{\"workers\": {}, \"events\": {}, \"seq_wall_s\": {:.3}, \"par_wall_s\": {:.3}, \"seq_events_per_sec\": {:.0}, \"par_events_per_sec\": {:.0}, \"speedup\": {:.3}, \"rounds\": {}, \"solo_rounds\": {}, \"digest_identical\": {}}}{comma}",
            p.workers,
            p.events,
            p.seq_wall_s,
            p.par_wall_s,
            p.seq_events_per_sec,
            p.par_events_per_sec,
            p.speedup,
            p.rounds,
            p.solo_rounds,
            p.digest_identical
        );
    }
    println!("  ],");
    println!("  \"topo_campaign\": {{");
    println!("    \"label\": \"{}\",", campaign.label);
    println!("    \"rerun_identical\": {},", campaign.rerun_identical);
    println!(
        "    \"region_parallel_identical\": {},",
        campaign.region_parallel_identical
    );
    println!(
        "    \"zero_fraction_availability_pct\": {:.2},",
        campaign.zero_fraction_availability_pct
    );
    println!("    \"cells\": [");
    for (i, c) in campaign.cells.iter().enumerate() {
        let comma = if i + 1 < campaign.cells.len() {
            ","
        } else {
            ""
        };
        println!(
            "      {{\"class\": \"{}\", \"k\": {}, \"adversary_fraction\": {:.2}, \"switches\": {}, \"adversarial\": {}, \"tests\": {}, \"received\": {}, \"availability_pct\": {:.2}, \"mean_stretch\": {:.3}, \"digest\": \"{:#018x}\"}}{comma}",
            c.class,
            c.k,
            c.adversary_fraction,
            c.switches,
            c.adversarial,
            c.tests,
            c.received,
            c.availability_pct,
            c.mean_stretch,
            c.digest
        );
    }
    println!("    ]");
    println!("  }}");
    println!("}}");
}
