//! Differential regression for the space-parallel executor: the
//! region-parallel dispatch loop (`World::run_until_parallel`) must be
//! observationally bit-identical to the sequential oracle
//! (`World::run_until`) — same order-sensitive tap digest, same tap
//! count, same event count, same final clock — at every worker count ×
//! region count, on three very different worlds:
//!
//! * the Central3 TCP scenario (congestion control, central compare,
//!   control channels),
//! * the chaos supervisor world (fault injection, link flaps,
//!   quarantine / probation control traffic),
//! * the NetCo grid (hundreds of switches — the topology the executor
//!   exists for).
//!
//! Worker counts honor `NETCO_THREADS` (comma list, the CI axis),
//! defaulting to 1/2/4. Any scheduling divergence — an event admitted
//! past the safe horizon, outboxes drained out of order, a region RNG
//! shared where the sequential path derives per-node streams — shows up
//! as a digest mismatch here.

use netco_bench::chaos::flapping_scenario;
use netco_bench::grid::build_grid;
use netco_bench::ExperimentScale;
use netco_harness::Pool;
use netco_net::{TapDigest, World};
use netco_sim::{SimDuration, SimTime};
use netco_topo::{Profile, Scenario, ScenarioKind, H2_IP};
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger, TcpConfig, TcpReceiver, TcpSender};

/// How to drive a world to its deadline.
#[derive(Clone, Copy)]
enum Mode {
    Sequential,
    Parallel { threads: usize, regions: usize },
}

/// Drives a freshly built world to `deadline` under `mode` and returns
/// the standard observation tuple.
fn drive(world: &mut World, deadline: SimTime, mode: Mode) -> (u64, u64, u64, u64) {
    let acc = TapDigest::attach(world);
    match mode {
        Mode::Sequential => world.run_until(deadline),
        Mode::Parallel { threads, regions } => {
            world.run_until_parallel(deadline, &Pool::new(threads), regions)
        }
    }
    let (digest, taps) = (acc.value(), acc.taps());
    (
        digest,
        taps,
        world.events_processed(),
        world.now().as_nanos(),
    )
}

/// The thread-count axis: `NETCO_THREADS` as a comma list, default 1/2/4.
fn thread_counts() -> Vec<usize> {
    std::env::var(netco_harness::THREADS_ENV)
        .ok()
        .map(|list| {
            list.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

const REGION_COUNTS: [usize; 3] = [2, 3, 4];

/// Runs `build` under every (threads, regions) combination and asserts
/// each observation equals the sequential oracle bit for bit.
fn assert_parallel_matches_sequential<F>(what: &str, build: F)
where
    F: Fn(Mode) -> (u64, u64, u64, u64),
{
    let oracle = build(Mode::Sequential);
    assert!(oracle.1 > 0, "{what}: tap saw no frames");
    assert!(oracle.2 > 0, "{what}: no events processed");
    for threads in thread_counts() {
        for regions in REGION_COUNTS {
            let got = build(Mode::Parallel { threads, regions });
            assert_eq!(
                got, oracle,
                "{what} diverged at {threads} workers / {regions} regions"
            );
        }
    }
}

#[test]
fn central3_tcp_region_parallel_matches_sequential() {
    assert_parallel_matches_sequential("central3", |mode| {
        let scale = ExperimentScale::smoke();
        let scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 7);
        let cfg = TcpConfig::new(H2_IP).with_duration(scale.duration);
        let cfg2 = cfg.clone();
        let mut built = scenario.build_world(
            0,
            |nic| TcpSender::new(nic, cfg),
            |nic| TcpReceiver::new(nic, cfg2),
        );
        let deadline = built.world.now() + scale.duration + SimDuration::from_millis(500);
        drive(&mut built.world, deadline, mode)
    });
}

#[test]
fn chaos_supervisor_region_parallel_matches_sequential() {
    assert_parallel_matches_sequential("chaos", |mode| {
        let mut built = flapping_scenario().build_world(
            0,
            |nic| {
                Pinger::new(
                    nic,
                    PingConfig::new(H2_IP)
                        .with_count(100)
                        .with_interval(SimDuration::from_millis(10)),
                )
            },
            IcmpEchoResponder::new,
        );
        let deadline = built.world.now() + SimDuration::from_secs(2);
        drive(&mut built.world, deadline, mode)
    });
}

#[test]
fn grid_region_parallel_matches_sequential() {
    assert_parallel_matches_sequential("grid", |mode| {
        let mut grid = build_grid(4, 3, 11);
        let deadline = grid.world.now() + SimDuration::from_millis(30);
        let out = drive(&mut grid.world, deadline, mode);
        assert!(grid.deliveries() > 0, "grid carried no traffic");
        out
    });
}
