//! One function per table/figure.
//!
//! Every measurement has one form: a job enumeration fanned across a
//! [`netco_harness::Pool`] (one job per simulation world, or per iperf
//! rate search) and one fold over the results. `tcp_rows` / `udp_rows` /
//! `rtt_rows` hold the three the paper's evaluation is built from;
//! Figs. 4, 5 and 7 are those over [`ScenarioKind::PAPER`], Table I zips
//! them over its five scenarios, the mode ablation is `tcp_rows` over its
//! four. Worlds share nothing, jobs are joined in a fixed canonical order
//! (scenario-major, then run, then direction / sequence) and folded in
//! that order, so every row is bit-identical at any thread count.

use netco_harness::Pool;
use netco_sim::SimDuration;
use netco_topo::{case_study, Direction, Profile, Scenario, ScenarioKind};
use netco_topogen::virtual_netco;
use netco_traffic::{IperfConfig, PingConfig};

use crate::ExperimentScale;

/// The seed every runner here builds its scenarios with; a trial index
/// perturbs it per world.
pub const SEED: u64 = 0xC0FFEE;

/// The two transfer directions, in the canonical job-enumeration order.
const DIRECTIONS: [Direction; 2] = [Direction::H1ToH2, Direction::H2ToH1];

/// One scenario's TCP measurement (Fig. 4).
#[derive(Debug, Clone, Copy)]
pub struct TcpRow {
    /// Scenario.
    pub kind: ScenarioKind,
    /// Mean goodput over runs and directions, Mbit/s.
    pub mbps: f64,
    /// Fast retransmits per second of transfer (mean).
    pub fast_retransmits_per_s: f64,
    /// Timeouts per second of transfer (mean).
    pub timeouts_per_s: f64,
}

/// Fig. 4: TCP throughput for all six scenarios.
pub fn fig4_tcp(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<TcpRow> {
    tcp_rows(pool, &ScenarioKind::PAPER, profile, scale)
}

/// The TCP measurement (Fig. 4, Table I, the mode ablation): one job per
/// (scenario, run, direction).
fn tcp_rows(
    pool: &Pool,
    kinds: &[ScenarioKind],
    profile: &Profile,
    scale: ExperimentScale,
) -> Vec<TcpRow> {
    let jobs: Vec<(ScenarioKind, u64, Direction)> = kinds
        .iter()
        .flat_map(|&kind| {
            (0..scale.runs)
                .flat_map(move |run| DIRECTIONS.into_iter().map(move |dir| (kind, run, dir)))
        })
        .collect();
    let outs = pool.map(&jobs, |&(kind, run, dir)| {
        let scenario = Scenario::build(kind, profile.clone(), SEED);
        let out = scenario.run_tcp(dir, scale.duration, run);
        (out.mbps, out.sender.fast_retransmits, out.sender.timeouts)
    });
    let per_kind = scale.runs as usize * DIRECTIONS.len();
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut mbps = 0.0;
            let mut fr = 0.0;
            let mut to = 0.0;
            let mut n = 0.0;
            for &(m, f, t) in &outs[i * per_kind..(i + 1) * per_kind] {
                mbps += m;
                fr += f as f64 / scale.duration.as_secs_f64();
                to += t as f64 / scale.duration.as_secs_f64();
                n += 1.0;
            }
            TcpRow {
                kind,
                mbps: mbps / n,
                fast_retransmits_per_s: fr / n,
                timeouts_per_s: to / n,
            }
        })
        .collect()
}

/// One scenario's UDP measurement (Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct UdpRow {
    /// Scenario.
    pub kind: ScenarioKind,
    /// Maximum goodput with loss < 0.5 %, Mbit/s (mean over directions).
    pub mbps: f64,
    /// Loss fraction at that rate.
    pub loss: f64,
    /// RFC 3550 jitter at that rate, microseconds.
    pub jitter_us: f64,
}

/// Fig. 5: maximum UDP throughput at < 0.5 % loss for all six scenarios.
pub fn fig5_udp(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<UdpRow> {
    udp_rows(pool, &ScenarioKind::PAPER, profile, scale)
}

/// The max-rate UDP measurement (Fig. 5, Table I): one job per (scenario,
/// direction) — each job is a whole iperf rate search, the unit that
/// cannot be split further (later trials depend on earlier loss
/// measurements).
fn udp_rows(
    pool: &Pool,
    kinds: &[ScenarioKind],
    profile: &Profile,
    scale: ExperimentScale,
) -> Vec<UdpRow> {
    // POX is orders of magnitude slower; the search starts low so the
    // bracket is meaningful.
    let iperf = IperfConfig {
        min_rate_bps: 500_000,
        max_rate_bps: 1_000_000_000,
        loss_threshold: 0.005,
        resolution_bps: 8_000_000,
    };
    let trial = scale.duration.min(SimDuration::from_secs(1));
    let jobs: Vec<(ScenarioKind, Direction)> = kinds
        .iter()
        .flat_map(|&kind| DIRECTIONS.into_iter().map(move |dir| (kind, dir)))
        .collect();
    let outs = pool.map(&jobs, |&(kind, dir)| {
        let scenario = Scenario::build(kind, profile.clone(), SEED);
        scenario
            .run_udp_max_rate(dir, &iperf, 1470, trial, scale.duration)
            .map(|(_rate, report)| report)
    });
    let per_kind = DIRECTIONS.len();
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut mbps = 0.0;
            let mut loss = 0.0;
            let mut jitter = 0.0;
            let mut n = 0.0;
            for report in outs[i * per_kind..(i + 1) * per_kind].iter().flatten() {
                // Report the measured goodput at the found rate, like
                // iperf's server-side report (the `-b` setting itself
                // may exceed what the sender can physically emit).
                mbps += report.goodput_bps / 1e6;
                loss += report.loss_fraction;
                jitter += report.jitter.as_nanos() as f64 / 1e3;
                n += 1.0;
            }
            UdpRow {
                kind,
                mbps: if n > 0.0 { mbps / n } else { 0.0 },
                loss: if n > 0.0 { loss / n } else { 1.0 },
                jitter_us: if n > 0.0 { jitter / n } else { 0.0 },
            }
        })
        .collect()
}

/// One point of Fig. 6 (Central3 offered-rate sweep).
#[derive(Debug, Clone, Copy)]
pub struct LossPoint {
    /// Offered rate, Mbit/s.
    pub offered_mbps: f64,
    /// Measured goodput, Mbit/s.
    pub goodput_mbps: f64,
    /// Measured loss fraction.
    pub loss: f64,
}

/// Fig. 6: UDP throughput vs. loss rate in Central3, one job per
/// offered-rate step. The sweep brackets the scenario's capacity knee
/// (~245 Mbit/s under the default profile), so the loss-throughput
/// correlation is visible on both sides.
pub fn fig6_loss_correlation(
    pool: &Pool,
    profile: &Profile,
    scale: ExperimentScale,
) -> Vec<LossPoint> {
    let jobs: Vec<u64> = (0..=15u64).collect();
    pool.map(&jobs, |&step| {
        let scenario = Scenario::build(ScenarioKind::Central3, profile.clone(), SEED);
        let offered = 150_000_000 + step * 10_000_000; // 150..300 Mbit/s
        let out = scenario.run_udp(Direction::H1ToH2, offered, 1470, scale.duration, step);
        LossPoint {
            offered_mbps: offered as f64 / 1e6,
            goodput_mbps: out.report.goodput_bps / 1e6,
            loss: out.report.loss_fraction,
        }
    })
}

/// One scenario's ping measurement (Fig. 7).
#[derive(Debug, Clone, Copy)]
pub struct RttRow {
    /// Scenario.
    pub kind: ScenarioKind,
    /// Average RTT, microseconds.
    pub avg_us: f64,
    /// Minimum RTT, microseconds.
    pub min_us: f64,
    /// Maximum RTT, microseconds.
    pub max_us: f64,
    /// Replies received (of the transmitted count).
    pub received: u32,
    /// Requests transmitted.
    pub transmitted: u32,
}

/// Fig. 7: ping RTT. The paper plots 3 sequences of 50 ICMP cycles per
/// scenario (it omits Linespeed from the figure but we include it — it is
/// the Table I RTT baseline).
pub fn fig7_rtt(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<RttRow> {
    rtt_rows(pool, &ScenarioKind::PAPER, profile, scale)
}

/// The ping measurement (Fig. 7, Table I): one job per (scenario,
/// sequence).
fn rtt_rows(
    pool: &Pool,
    kinds: &[ScenarioKind],
    profile: &Profile,
    scale: ExperimentScale,
) -> Vec<RttRow> {
    let sequences = scale.runs.clamp(1, 3);
    let jobs: Vec<(ScenarioKind, u64)> = kinds
        .iter()
        .flat_map(|&kind| (0..sequences).map(move |seq| (kind, seq)))
        .collect();
    let outs = pool.map(&jobs, |&(kind, seq)| {
        let scenario = Scenario::build(kind, profile.clone(), SEED);
        let cfg = PingConfig::default()
            .with_count(50)
            .with_interval(SimDuration::from_millis(10));
        scenario.run_ping_trial(cfg, Direction::H1ToH2, seq)
    });
    let per_kind = sequences as usize;
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut avg = 0.0;
            let mut min = f64::MAX;
            let mut max: f64 = 0.0;
            let mut received = 0;
            let mut transmitted = 0;
            for report in &outs[i * per_kind..(i + 1) * per_kind] {
                transmitted += report.transmitted;
                received += report.received;
                if let (Some(a), Some(mn), Some(mx)) = (report.avg, report.min, report.max) {
                    avg += a.as_nanos() as f64 / 1e3;
                    min = min.min(mn.as_nanos() as f64 / 1e3);
                    max = max.max(mx.as_nanos() as f64 / 1e3);
                }
            }
            RttRow {
                kind,
                avg_us: avg / sequences as f64,
                min_us: min,
                max_us: max,
                received,
                transmitted,
            }
        })
        .collect()
}

/// One bar of Fig. 8: jitter for a scenario and UDP payload size.
#[derive(Debug, Clone, Copy)]
pub struct JitterCell {
    /// Scenario.
    pub kind: ScenarioKind,
    /// UDP payload bytes.
    pub payload: usize,
    /// RFC 3550 jitter, microseconds (mean of runs).
    pub jitter_us: f64,
}

/// Fig. 8: jitter for varying packet sizes (fixed offered bit-rate, so
/// smaller packets mean proportionally more packets per second), one job
/// per (scenario, payload, run).
pub fn fig8_jitter(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<JitterCell> {
    let sizes = [64usize, 256, 512, 1024, 1470];
    let rate = 60_000_000; // comfortably below every scenario's UDP maximum
    let runs = scale.runs.clamp(1, 5);
    let jobs: Vec<(ScenarioKind, usize, u64)> = ScenarioKind::PAPER
        .iter()
        .flat_map(|&kind| {
            sizes
                .into_iter()
                .flat_map(move |payload| (0..runs).map(move |run| (kind, payload, run)))
        })
        .collect();
    let outs = pool.map(&jobs, |&(kind, payload, run)| {
        let scenario = Scenario::build(kind, profile.clone(), SEED);
        // POX cannot carry 60 Mbit/s; cap its offered rate so the jitter
        // measurement reflects delivery, not pure loss.
        let offered = if kind == ScenarioKind::Pox3 {
            2_000_000
        } else {
            rate
        };
        let out = scenario.run_udp(Direction::H1ToH2, offered, payload, scale.duration, run);
        out.report.jitter.as_nanos() as f64
    });
    let per_cell = runs as usize;
    jobs.iter()
        .step_by(per_cell)
        .zip(outs.chunks(per_cell))
        .map(|(&(kind, payload, _), cell)| {
            let mut jitter = 0.0;
            for jitter_nanos in cell {
                jitter += jitter_nanos / 1e3;
            }
            JitterCell {
                kind,
                payload,
                jitter_us: jitter / runs as f64,
            }
        })
        .collect()
}

/// One Table I column.
#[derive(Debug, Clone, Copy)]
pub struct Table1Column {
    /// Scenario.
    pub kind: ScenarioKind,
    /// Average TCP goodput, Mbit/s.
    pub tcp_mbps: f64,
    /// Average max-rate UDP goodput, Mbit/s.
    pub udp_mbps: f64,
    /// Average ping RTT, milliseconds.
    pub rtt_ms: f64,
}

/// The Table I scenario set (the five non-POX scenarios).
const TABLE1_KINDS: [ScenarioKind; 5] = [
    ScenarioKind::Linespeed,
    ScenarioKind::Dup3,
    ScenarioKind::Dup5,
    ScenarioKind::Central3,
    ScenarioKind::Central5,
];

/// Table I: average TCP bandwidth, UDP bandwidth and RTT for the five
/// non-POX scenarios — the averages of Figs. 4, 5 and 7.
pub fn table1(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<Table1Column> {
    let tcp = tcp_rows(pool, &TABLE1_KINDS, profile, scale);
    let udp = udp_rows(pool, &TABLE1_KINDS, profile, scale);
    let rtt = rtt_rows(pool, &TABLE1_KINDS, profile, scale);
    tcp.iter()
        .zip(&udp)
        .zip(&rtt)
        .map(|((tcp, udp), rtt)| Table1Column {
            kind: tcp.kind,
            tcp_mbps: tcp.mbps,
            udp_mbps: udp.mbps,
            rtt_ms: rtt.avg_us / 1e3,
        })
        .collect()
}

/// §VI: the three case-study phases with 10 echo cycles each.
pub fn case_study_all(profile: &Profile) -> [(case_study::Phase, case_study::Outcome); 3] {
    [
        case_study::Phase::Baseline,
        case_study::Phase::Attack,
        case_study::Phase::NetCo,
    ]
    .map(|phase| (phase, case_study::run(phase, profile, SEED, 10)))
}

/// §VII: the virtualized combiner, clean and under a one-tunnel attack.
pub fn virtualized(
    profile: &Profile,
) -> (
    virtual_netco::VirtualNetcoOutcome,
    virtual_netco::VirtualNetcoOutcome,
) {
    use netco_adversary::{ActivationWindow, Behavior};
    use netco_openflow::FlowMatch;
    let clean = virtual_netco::run_ping(&virtual_netco::VirtualNetcoConfig::default(), profile, 1);
    let attacked = virtual_netco::run_ping(
        &virtual_netco::VirtualNetcoConfig {
            corrupt_tunnel: Some((
                0,
                vec![(
                    Behavior::Drop {
                        select: FlowMatch::any(),
                    },
                    ActivationWindow::always(),
                )],
            )),
            ..virtual_netco::VirtualNetcoConfig::default()
        },
        profile,
        1,
    );
    (clean, attacked)
}

/// Ablation: detection (k = 2) vs prevention (k = 3) cost, plus the §IX
/// inband placement.
pub fn ablation_modes(pool: &Pool, profile: &Profile, scale: ExperimentScale) -> Vec<TcpRow> {
    let kinds = [
        ScenarioKind::Linespeed,
        ScenarioKind::Detect2,
        ScenarioKind::Central3,
        ScenarioKind::Inband3,
    ];
    tcp_rows(pool, &kinds, profile, scale)
}

/// One row of the §IX sampling ablation.
#[derive(Debug, Clone, Copy)]
pub struct SamplingRow {
    /// Sampling probability.
    pub probability: f64,
    /// Fraction of corrupted packets flagged by the (passive) compare.
    pub detection_fraction: f64,
    /// Copies the compare had to process per delivered packet.
    pub compare_load_per_packet: f64,
}

/// Ablation: sampled out-of-band detection — coverage and compare load as
/// functions of the sampling rate, under a corrupting non-primary replica.
pub fn ablation_sampling(profile: &Profile) -> Vec<SamplingRow> {
    use netco_adversary::{ActivationWindow, Behavior};
    use netco_core::{Compare, SecurityEvent};
    use netco_openflow::FlowMatch;
    use netco_traffic::{UdpConfig, UdpSink, UdpSource};
    [0.05, 0.1, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|probability| {
            let scenario = Scenario::build(ScenarioKind::Central3, profile.clone(), SEED)
                .with_sampling(probability)
                .with_adversary(netco_topo::AdversarySpec {
                    replica_index: 1,
                    behaviors: vec![(
                        Behavior::CorruptPayload {
                            select: FlowMatch::any(),
                            every_nth: 1,
                        },
                        ActivationWindow::always(),
                    )],
                });
            let mut built = scenario.build_world(
                0,
                |nic| {
                    UdpSource::new(
                        nic,
                        UdpConfig::new(netco_topo::H2_IP)
                            .with_rate(10_000_000)
                            .with_payload_len(300)
                            .with_duration(SimDuration::from_millis(200)),
                    )
                },
                |nic| UdpSink::new(nic, 5001),
            );
            built.world.run_for(SimDuration::from_secs(1));
            let compare = built
                .world
                .device::<Compare>(built.compare.expect("central"))
                .unwrap();
            let alarms = compare
                .events()
                .iter()
                .filter(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. }))
                .count() as f64;
            let received = built
                .world
                .device::<UdpSink>(built.h2)
                .unwrap()
                .report()
                .received
                .max(1) as f64;
            SamplingRow {
                probability,
                detection_fraction: alarms / received,
                compare_load_per_packet: compare.stats().received as f64 / received,
            }
        })
        .collect()
}

/// One row of the compare-strategy ablation (security, not speed: the
/// strategies trade state size against what they can catch).
#[derive(Debug, Clone, Copy)]
pub struct StrategyRow {
    /// Strategy name.
    pub name: &'static str,
    /// Ping cycles that completed under a payload-corrupting replica.
    pub delivered: u32,
    /// Of the delivered replies, how many arrived *corrupted* (host-side
    /// checksum failure would catch them, but the combiner let them out).
    pub corrupted_released: u64,
    /// Copies suppressed by the compare.
    pub suppressed: u64,
}

/// Ablation: compare strategies under a payload-corrupting replica.
/// Bit-exact and digest comparison catch the corruption; header-only
/// cannot (paper §III: "depending on the threat model, packets may be
/// compared bit-by-bit, or just based on the header").
pub fn ablation_strategies(profile: &Profile) -> Vec<StrategyRow> {
    use netco_adversary::{ActivationWindow, Behavior};
    use netco_core::{Compare, CompareStrategy};
    use netco_openflow::FlowMatch;
    use netco_traffic::{IcmpEchoResponder, Pinger};
    [
        ("full-packet", CompareStrategy::FullPacket),
        ("header-only", CompareStrategy::headers()),
        ("digest", CompareStrategy::Digest),
    ]
    .into_iter()
    .map(|(name, strategy)| {
        let scenario = Scenario::build(ScenarioKind::Central3, profile.clone(), SEED)
            .with_strategy(strategy)
            .with_adversary(netco_topo::AdversarySpec {
                replica_index: 0,
                behaviors: vec![(
                    Behavior::CorruptPayload {
                        select: FlowMatch::any(),
                        every_nth: 1,
                    },
                    ActivationWindow::always(),
                )],
            });
        let mut built = scenario.build_world(
            0,
            |nic| {
                Pinger::new(
                    nic,
                    PingConfig::new(netco_topo::H2_IP)
                        .with_count(50)
                        .with_interval(SimDuration::from_millis(5)),
                )
            },
            IcmpEchoResponder::new,
        );
        // Count corrupted frames escaping toward the hosts.
        use std::cell::Cell;
        use std::rc::Rc;
        let corrupted = Rc::new(Cell::new(0u64));
        {
            let corrupted = corrupted.clone();
            let h1 = built.h1;
            let h2 = built.h2;
            built.world.add_tap(move |ev| {
                use netco_net::packet::FrameView;
                if ev.direction == netco_net::TapDirection::Rx && (ev.node == h1 || ev.node == h2) {
                    if let Ok(v) = FrameView::parse(ev.frame.bytes()) {
                        if v.l4().is_err() {
                            corrupted.set(corrupted.get() + 1);
                        }
                    }
                }
            });
        }
        built.world.run_for(SimDuration::from_secs(2));
        let report = built.world.device::<Pinger>(built.h1).unwrap().report();
        let compare = built
            .world
            .device::<Compare>(built.compare.unwrap())
            .unwrap();
        StrategyRow {
            name,
            delivered: report.received,
            corrupted_released: corrupted.get(),
            suppressed: compare.stats().expired_unreleased,
        }
    })
    .collect()
}
