//! One workload, one process: warm-up, timed repetitions with telemetry
//! off and no taps, correctness checks, and — with `--trace 1` — the
//! traced run, the kernels and the derived per-layer numbers.

use std::ops::Add;
use std::path::{Path, PathBuf};
use std::time::Instant;

use netco_topogen::campaign::CampaignConfig;

use crate::host::peak_rss_mb;
use crate::json::{obj, Json};
use crate::kernels;
use crate::schema::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{
    self, memo_counts, Counts, Exec, Observation, Probe, Rep, Tap, FLOWS, WORKERS,
};

/// Timed repetitions are cut to fit `--seconds`, never below this.
const MIN_REPS: usize = 5;
/// Untraced repetitions a traced invocation makes for its baseline.
const TRACE_BASELINE_REPS: usize = 3;
/// Set-up-only samples are added for this many seconds, up to this many
/// samples in all: a 15 µs set-up needs thousands for a steady median, a
/// 0.1 s one gets the handful that fit.
const SETUP_EXTRA_S: f64 = 1.0;
const SETUP_SAMPLES: usize = 2_000;
/// The paper's Central3 TCP throughput (Table I), Mbit/s.
const PAPER_CENTRAL3_TCP_MBPS: f64 = 145.0;

/// Where traces and per-workload records are written.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(file: &str, text: &str) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    std::fs::write(dir.join(file), text).expect("write into benchmark/out");
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    Central3Tcp,
    Flowset1m,
    Lattice400Seq,
    Lattice400Par2,
    CampaignFull,
}

impl Id {
    pub fn parse(name: &str) -> Option<Id> {
        Some(match name {
            "central3_tcp" => Id::Central3Tcp,
            "flowset_1m" => Id::Flowset1m,
            "lattice400_seq" => Id::Lattice400Seq,
            "lattice400_par2" => Id::Lattice400Par2,
            "campaign_full" => Id::CampaignFull,
            _ => return None,
        })
    }

    /// Whether the run phase spreads over the [`WORKERS`]-thread pool.
    fn pooled(self) -> bool {
        matches!(self, Id::Lattice400Par2 | Id::CampaignFull)
    }
}

/// Attempted and failed correctness checks; feeds `ops_failed_share`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is printed at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// One metric of an invocation: name, unit, samples summarised.
pub type Metrics = Vec<(&'static str, &'static str, Summary)>;

/// What one invocation measured.
pub struct Outcome {
    pub repetitions: usize,
    pub checks: Checks,
    /// Every end-to-end metric (`--trace 0`) or every per-layer metric
    /// (`--trace 1`), in schema order.
    pub metrics: Metrics,
}

struct Run {
    id: Id,
    seed: u64,
    checks: Checks,
    /// The first full repetition: every later one must reproduce it.
    reference: Option<Observation>,
}

impl Run {
    /// One repetition under `probe`, checked against the first.
    fn rep(&mut self, spans: &mut Spans, probe: &Probe) -> Rep {
        let (id, seed) = (self.id, self.seed);
        let (rep, _) = spans.span("rep", |spans| match id {
            Id::Central3Tcp => workloads::central3_tcp(seed, probe, spans),
            Id::Flowset1m => workloads::flowset_1m(seed, probe, spans),
            Id::Lattice400Seq => workloads::lattice400(seed, Exec::Sequential, probe, spans),
            Id::Lattice400Par2 => {
                workloads::lattice400(seed, Exec::Parallel { workers: WORKERS }, probe, spans)
            }
            Id::CampaignFull => self.campaign_rep(spans, probe),
        });
        if !probe.setup_only {
            self.check_rep(&rep);
        }
        rep
    }

    fn campaign_rep(&mut self, spans: &mut Spans, probe: &Probe) -> Rep {
        assert!(
            probe.sink.is_none() && probe.tap == Tap::None,
            "run_campaign owns its worlds; observe them with campaign_cell_pass"
        );
        if probe.setup_only {
            let setup_s = workloads::campaign_build_pass(&CampaignConfig::full(self.seed), spans);
            return Rep {
                setup_s,
                ..Rep::default()
            };
        }
        let (rep, result) = workloads::campaign_full(self.seed, spans);
        self.checks.check(result.region_parallel_identical, || {
            "campaign: first cell differs under run_until_parallel".into()
        });
        self.checks.same(
            "campaign: availability at adversary fraction 0",
            result.zero_fraction_availability_pct,
            100.0,
        );
        rep
    }

    fn check_rep(&mut self, rep: &Rep) {
        let checks = &mut self.checks;
        match self.reference {
            None => self.reference = Some(rep.obs),
            Some(first) => {
                checks.same(
                    "world.events across repetitions",
                    rep.obs.events,
                    first.events,
                );
                checks.same(
                    "final clock across repetitions",
                    rep.obs.clock_ns,
                    first.clock_ns,
                );
                checks.same(
                    "sim_delivered across repetitions",
                    rep.obs.delivered,
                    first.delivered,
                );
                checks.same("digest across repetitions", rep.obs.digest, first.digest);
            }
        }
        match self.id {
            Id::Flowset1m => {
                checks.same(
                    "flows completed",
                    count(&rep.counts, "traffic.flowset.completed"),
                    FLOWS as f64,
                );
                checks.same("packets delivered", rep.obs.delivered, 2 * FLOWS as u64);
            }
            Id::Central3Tcp => {
                checks.check(rep.obs.delivered > 0, || "TCP delivered no bytes".into());
            }
            _ => {}
        }
    }

    /// Untimed warm-up, then repetitions until `seconds` of measured time
    /// have passed and at least `min_reps` are in.
    fn timed_reps(&mut self, spans: &mut Spans, seconds: f64, min_reps: usize) -> Vec<Rep> {
        let probe = Probe::default();
        spans.span("warmup", |spans| self.rep(spans, &probe));
        let mut reps = Vec::new();
        let mut measured = 0.0;
        while reps.len() < min_reps || measured < seconds {
            let rep = self.rep(spans, &probe);
            measured += rep.setup_s + rep.wall_s;
            reps.push(rep);
        }
        reps
    }

    /// A sequential lattice run, which `lattice400_par2` must reproduce
    /// event for event.
    fn sequential_reference(&mut self, spans: &mut Spans, probe: &Probe) -> Rep {
        let (seq, _) = spans.span("sequential_reference", |spans| {
            workloads::lattice400(self.seed, Exec::Sequential, probe, spans)
        });
        if let Some(par) = self.reference {
            self.checks.same("parallel vs sequential", par, seq.obs);
        }
        seq
    }
}

/// Last value recorded under `name`, 0 when none was.
fn count(counts: &Counts, name: &str) -> f64 {
    counts
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Summary {
    Summary::of(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Runs one workload as the driver asks: `--trace 0` yields the
/// end-to-end metrics, `--trace 1` the per-layer ones and the trace file.
pub fn run(id: Id, name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut spans = Spans::new();
    let mut run = Run {
        id,
        seed,
        checks: Checks::default(),
        reference: None,
    };
    let ((repetitions, metrics), _) = spans.span("workload", |spans| {
        if trace {
            let (repetitions, values) = traced(&mut run, spans, name, seconds);
            let metrics = PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, Summary::single(count(&values, m.name))))
                .collect();
            (repetitions, metrics)
        } else {
            end_to_end(&mut run, spans, seconds)
        }
    });
    if trace {
        write_out(
            &format!("trace_{name}.json"),
            &spans.chrome_trace(name).render(),
        );
    }
    Outcome {
        repetitions,
        checks: run.checks,
        metrics,
    }
}

fn end_to_end(run: &mut Run, spans: &mut Spans, seconds: f64) -> (usize, Metrics) {
    if run.id == Id::Lattice400Par2 {
        // Untimed, and a first warm-up of caches and allocator besides.
        let seq = run.sequential_reference(spans, &Probe::default());
        run.reference = Some(seq.obs);
    }
    let reps = run.timed_reps(spans, seconds, MIN_REPS);
    let peak_rss = peak_rss_mb();
    // Set-up is short next to the run, so the repetitions alone give it
    // few samples for its size; top them up.
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while setup.len() < SETUP_SAMPLES && extra.elapsed().as_secs_f64() < SETUP_EXTRA_S {
        setup.push(run.rep(spans, &Probe::setup_only()).setup_s);
    }
    let first = run.reference.expect("at least one repetition ran");
    let failed_share = run.checks.failed as f64 / run.checks.attempted.max(1) as f64;
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let summary = match m.name {
                "wall_s" => median_of(&reps, |r| r.wall_s),
                "setup_s" => Summary::of(&setup),
                "peak_rss_mb" => Summary::single(peak_rss),
                "sim_delivered" => Summary::single(first.delivered as f64),
                "ops_failed_share" => Summary::single(failed_share),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m.name, m.unit, summary)
        })
        .collect();
    (reps.len(), metrics)
}

/// The telemetry registry of a traced run, parsed from `metrics_json()`.
struct Registry(Json);

impl Registry {
    /// A counter's value, or `field` of a gauge or histogram.
    fn scalar(v: &Json, field: &str) -> f64 {
        v.as_f64()
            .or_else(|| v.get(field).and_then(Json::as_f64))
            .unwrap_or(0.0)
    }

    /// 0 when the run never registered `name`.
    fn get(&self, name: &str, field: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| Self::scalar(v, field))
    }

    /// `field` of every metric named `<prefix>…<suffix>` (scoped names
    /// such as `compare.<node>.received`), folded from 0.
    fn fold(&self, prefix: &str, suffix: &str, field: &str, f: fn(f64, f64) -> f64) -> f64 {
        self.0
            .members()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| Self::scalar(v, field))
            .fold(0.0, f)
    }
}

/// Per-layer metrics read straight from the traced run's registry:
/// (metric, registry name, field of a gauge or histogram).
const FROM_REGISTRY: [(&str, &str, &str); 9] = [
    ("sim.sched.scheduled", "sim.sched.scheduled", ""),
    ("sim.sched.pops", "sim.sched.pops", ""),
    ("sim.sched.depth_peak", "sim.sched.depth", "peak"),
    ("net.cpu.busy_sim_ns", "net.cpu_busy_ns", ""),
    ("net.link.queue_bytes_p99", "net.link_queue_bytes", "p99"),
    ("openflow.table.hits", "openflow.table_hits", ""),
    ("openflow.table.misses", "openflow.table_misses", ""),
    (
        "lifecycle.end_to_end_sim_ns_p50",
        "lifecycle.end_to_end_ns",
        "p50",
    ),
    (
        "lifecycle.end_to_end_sim_ns_p99",
        "lifecycle.end_to_end_ns",
        "p99",
    ),
];

/// Per-layer metrics summed over every compare's scoped counter
/// `compare.<node><suffix>`: (metric, suffix).
const COMPARE_COUNTERS: [(&str, &str); 5] = [
    ("core.compare.received", ".received"),
    ("core.compare.released", ".released"),
    (
        "core.compare.suppressed_duplicates",
        ".suppressed_duplicates",
    ),
    ("core.compare.expired_unreleased", ".expired_unreleased"),
    ("core.compare.cleanups", ".cleanups"),
];

/// Host time of the untraced baseline a traced invocation measures
/// against.
struct Baseline {
    wall_s: f64,
    /// Process CPU seconds of the run phase.
    cpu_s: f64,
    /// Simulated seconds one run covers.
    sim_s: f64,
}

fn traced(run: &mut Run, spans: &mut Spans, name: &str, seconds: f64) -> (usize, Counts) {
    let (id, seed) = (run.id, run.seed);
    let mut out = Counts::new();

    // Untraced baseline: the C counts, and the host time that the traced
    // run and the attribution are measured against.
    let reps = run.timed_reps(spans, seconds / 4.0, TRACE_BASELINE_REPS);
    let last = reps.last().expect("baseline repetitions");
    out.extend(last.counts.iter().copied());
    out.extend(memo_counts(last.memo));
    let worlds = match id {
        Id::CampaignFull => count(&out, "topogen.campaign.cells"),
        _ => 1.0,
    };
    let base = Baseline {
        wall_s: median_of(&reps, |r| r.wall_s).median,
        cpu_s: median_of(&reps, |r| r.cpu_s).median,
        sim_s: last.obs.clock_ns as f64 / 1e9 * worlds,
    };

    // The traced run: telemetry on, one counting tap — for the campaign
    // the digest tap, which every cell of `run_campaign` carries too.
    let probe = Probe::traced(match id {
        Id::CampaignFull => Tap::Digest,
        _ => Tap::Counting,
    });
    let sink = probe.sink.clone().expect("traced probe carries a sink");
    let ((overhead_ratio, trace_dropped), _) = spans.span("traced", |spans| match id {
        Id::CampaignFull => {
            // Like for like: the same serial pass with telemetry off.
            let plain = workloads::campaign_cell_pass(seed, &Probe::tapped(), spans);
            let traced = workloads::campaign_cell_pass(seed, &probe, spans);
            let events: u64 = traced.cells.iter().map(|c| c.events).sum();
            let replies: u64 = traced.cells.iter().map(|c| c.received as u64).sum();
            run.checks.same("cell pass events", events, last.obs.events);
            run.checks
                .same("cell pass replies", replies, last.obs.delivered);
            (traced.wall_s / plain.wall_s, traced.trace_dropped)
        }
        _ => {
            let rep = run.rep(spans, &probe);
            (rep.wall_s / base.wall_s, sink.trace_dropped())
        }
    });
    let registry = sink.metrics_json();
    write_out(&format!("metrics_{name}.json"), &registry);
    let registry = Registry(Json::parse(&registry).expect("registry renders valid JSON"));
    let tap = probe.tap_log();
    // `flowset_1m`'s nodes are all ideal-CPU: its traced run admits every
    // arrival only because telemetry switches the bypass off, a cost that
    // belongs to `telemetry.overhead_ratio`, not to the workload.
    let admissions = match id {
        Id::Flowset1m => 0.0,
        _ => registry.get("net.cpu_service_ns", "count"),
    };
    out.extend(FROM_REGISTRY.map(|(metric, name, field)| (metric, registry.get(name, field))));
    out.extend(
        COMPARE_COUNTERS
            .map(|(metric, suffix)| (metric, registry.fold("compare.", suffix, "", f64::add))),
    );
    out.extend([
        ("net.cpu.admissions", admissions),
        ("net.link.tx_frames", tap.tx_frames as f64),
        (
            "net.drops.total",
            registry.fold("net.drops.", "", "", f64::add),
        ),
        (
            "core.compare.peak_cache_entries",
            registry.fold("compare.", ".cache_entries", "peak", f64::max),
        ),
        ("telemetry.overhead_ratio", overhead_ratio),
        ("telemetry.trace_dropped", trace_dropped as f64),
    ]);
    // OfSwitches count their packet-ins in the registry; the guards of
    // `central3_tcp` are not OfSwitches and were counted by the workload.
    let packet_ins = registry.get("openflow.packet_ins", "") + count(&out, "openflow.packet_ins");
    out.push(("openflow.packet_ins", packet_ins));

    let (kernel_values, _) = spans.span("kernels", |spans| kernels::run_all(seed, spans));
    out.extend(kernel_values);
    let pool_cpu_share = base.cpu_s / (WORKERS as f64 * base.wall_s);
    match id {
        Id::Lattice400Par2 => {
            out.push(("net.region.cpu_share", pool_cpu_share));
            region_extras(run, spans, base.wall_s, &mut out);
        }
        Id::CampaignFull => {
            out.push(("harness.pool.cpu_share", pool_cpu_share));
            campaign_build_phases(seed, spans, &mut out);
        }
        _ => {}
    }
    derive(id, &base, last, tap.tx_bytes as f64, &mut out);
    (reps.len(), out)
}

/// `topogen.*_ms`: median seconds per phase of the campaign's serial
/// build pass, summed over its cells, from the benchmark's own spans.
fn campaign_build_phases(seed: u64, spans: &mut Spans, out: &mut Counts) {
    const PHASES: [(&str, &str); 3] = [
        ("generate", "topogen.generate_ms"),
        ("netcoize", "topogen.netcoize_ms"),
        ("build_world", "topogen.build_world_ms"),
    ];
    let cfg = CampaignConfig::full(seed);
    let mut samples: [Vec<f64>; 3] = Default::default();
    for _ in 0..TRACE_BASELINE_REPS {
        let mark = spans.mark();
        workloads::campaign_build_pass(&cfg, spans);
        for (samples, (span, _)) in samples.iter_mut().zip(PHASES) {
            samples.push(spans.total_s(span, mark) * 1e3);
        }
    }
    for (samples, (_, metric)) in samples.iter().zip(PHASES) {
        out.push((metric, Summary::of(samples).median));
    }
}

/// `net.region.*`: the executor against the sequential loop, its
/// machinery with no parallelism, and the cost of observing it. The
/// tapped runs double as the order-sensitive digest check.
fn region_extras(run: &mut Run, spans: &mut Spans, par_wall_s: f64, out: &mut Counts) {
    let seed = run.seed;
    let seq_wall_s = Summary::of(&[
        run.sequential_reference(spans, &Probe::default()).wall_s,
        run.sequential_reference(spans, &Probe::default()).wall_s,
    ])
    .median;

    let mut one_worker = || {
        let (rep, _) = spans.span("one_worker", |spans| {
            let exec = Exec::Parallel { workers: 1 };
            workloads::lattice400(seed, exec, &Probe::default(), spans)
        });
        run.checks.same(
            "1-worker parallel vs 2-worker",
            Some(rep.obs),
            run.reference,
        );
        rep.wall_s
    };
    let one_worker_wall_s = Summary::of(&[one_worker(), one_worker()]).median;

    let tapped_seq = Probe::tapped();
    run.sequential_reference(spans, &tapped_seq);
    let mut tapped = || {
        let probe = Probe::tapped();
        let wall_s = run.rep(spans, &probe).wall_s;
        run.checks
            .check(probe.tap_log().tx_frames > 0, || "tap saw no frame".into());
        run.checks.same(
            "tapped parallel vs tapped sequential",
            probe.tap_log(),
            tapped_seq.tap_log(),
        );
        wall_s
    };
    let tapped_wall_s = Summary::of(&[tapped(), tapped()]).median;

    out.extend([
        ("net.region.speedup_vs_seq", seq_wall_s / par_wall_s),
        (
            "net.region.par1_overhead_ratio",
            one_worker_wall_s / seq_wall_s,
        ),
        (
            "net.region.tapped_overhead_ratio",
            tapped_wall_s / par_wall_s,
        ),
    ]);
}

/// The D metrics: rates, ratios and the per-layer attribution.
fn derive(id: Id, base: &Baseline, last: &Rep, tx_bytes: f64, out: &mut Counts) {
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let events = count(out, "world.events");
    let received = count(out, "core.compare.received");
    let admit_ns = count(out, "net.world.hop_cpu_ns") - count(out, "net.world.hop_ideal_ns");
    out.extend([
        ("world.events_per_sec", events / base.wall_s),
        ("world.ns_per_event", base.wall_s * 1e9 / events),
        ("world.sim_s_per_wall_s", base.sim_s / base.wall_s),
        ("net.cpu.admit_ns", admit_ns),
        (
            "core.compare.release_ratio",
            ratio(count(out, "core.compare.released"), received),
        ),
        // Reported, not gated: the cost model is calibrated for the
        // paper's shape, not its absolute numbers. Only `central3_tcp`
        // has a goodput.
        (
            "fidelity.central3_tcp_vs_paper",
            count(out, "traffic.tcp.goodput_mbps") / PAPER_CENTRAL3_TCP_MBPS,
        ),
    ]);

    // Attribution: kernel ns × this workload's count ÷ the run phase's
    // CPU ns. Pooled workloads divide by process CPU time (wall × threads
    // would charge barrier waits to the layers); single-threaded ones by
    // wall time, which procfs' 10 ms CPU ticks cannot beat.
    let run_ns = 1e9 * if id.pooled() { base.cpu_s } else { base.wall_s };
    let tick_ns = count(out, "sim.sched.tick_drain_ns");
    let tx_frames = count(out, "net.link.tx_frames");
    // Cold fingerprint cost at the workload's mean frame length, between
    // the 64-byte and the 1,442-byte kernels.
    let fp_cold_ns = {
        let mean_len = ratio(tx_bytes, tx_frames).clamp(64.0, 1442.0);
        let small = count(out, "net.frame.fp128_cold_64_ns");
        let full = count(out, "net.frame.fp128_cold_ns");
        small + (full - small) * (mean_len - 64.0) / (1442.0 - 64.0)
    };
    let memo = last.memo;
    let frame_ns = fp_cold_ns * memo.fp_misses as f64
        + count(out, "net.frame.fp128_memo_ns") * memo.fp_hits as f64
        + count(out, "net.frame.parse_cold_ns") * memo.parse_misses as f64
        + count(out, "net.frame.parse_memo_ns") * memo.parse_hits as f64
        + count(out, "net.frame.clone_ns") * tx_frames;
    let lookups = count(out, "openflow.table.hits") + count(out, "openflow.table.misses");
    // A guard encodes each PacketIn and the compare decodes it; each
    // release travels back as a PacketOut the other way round.
    let packet_ins = count(out, "openflow.packet_ins");
    let wire_messages = if packet_ins > 0.0 {
        packet_ins + count(out, "core.compare.released")
    } else {
        0.0
    };
    let wire_ns = wire_messages
        * (count(out, "openflow.wire.packet_in_encode_ns")
            + count(out, "openflow.wire.packet_in_decode_ns"));
    let expired = count(out, "core.compare.expired_unreleased").min(received);
    let compare_ns = count(out, "core.compare.observe_ns") * (received - expired)
        + count(out, "core.compare.observe_miss_ns") * expired;
    let shares = [
        ("attr.sched_share", tick_ns * events),
        (
            "attr.substrate_share",
            (count(out, "net.world.hop_ideal_ns") - tick_ns) * events,
        ),
        (
            "attr.cpu_admit_share",
            admit_ns * count(out, "net.cpu.admissions"),
        ),
        ("attr.frame_share", frame_ns),
        (
            "attr.table_share",
            count(out, "openflow.table.lookup_16_ns") * lookups,
        ),
        ("attr.wire_share", wire_ns),
        ("attr.compare_share", compare_ns),
    ]
    .map(|(name, ns)| (name, ns / run_ns));
    let attributed: f64 = shares.iter().map(|&(_, share)| share).sum();
    if attributed > 1.0 || shares.iter().any(|&(_, share)| share < 0.0) {
        // A kernel mis-sized against the workload: reported, never clamped.
        eprintln!("warning: attribution out of range, {attributed:.3} attributed: {shares:?}");
    }
    out.extend(shares);
    out.push(("attr.unattributed_share", 1.0 - attributed));
}

/// The record one invocation leaves in `benchmark/out/` for the full run
/// to assemble: every metric as `{unit, median, min, max, n}`.
pub fn record(outcome: &Outcome) -> Json {
    obj([
        ("repetitions", Json::Num(outcome.repetitions as f64)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        (
            "metrics",
            obj(outcome
                .metrics
                .iter()
                .map(|&(name, unit, summary)| (name, summary.to_json(unit)))),
        ),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being those `BENCHMARK.json` lists.
pub fn result_line(outcome: &Outcome) -> String {
    let unlisted = |name: &str| {
        END_TO_END
            .iter()
            .any(|m| m.name == name && m.driver_bound.is_none())
    };
    let metrics = outcome
        .metrics
        .iter()
        .filter(|(name, ..)| !unlisted(name))
        .map(|&(name, unit, summary)| {
            let value = obj([
                ("value", Json::Num(summary.median)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, value)
        });
    obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}
