//! Space-parallel single-world execution: sharded regions with latency
//! lookahead.
//!
//! [`crate::World::run_until_parallel`] partitions the node graph into regions,
//! runs each region's timing wheel on its own [`netco_harness::Pool`]
//! worker, and exploits the minimum inter-region link latency as
//! conservative lookahead — classic null-message-free conservative PDES.
//! A region may safely advance to
//! `min over incoming cut links of (neighbor region bound + link latency)`
//! because any frame the neighbor has yet to send must ride a cut link and
//! therefore arrives at least one cut latency after the neighbor's current
//! bound.
//!
//! [`partition`] forms the regions and bounds how far each may run ahead;
//! [`coordinator`] runs the rounds. This module splits the world into one
//! shard per region and merges the shards back. Who owns what is stated
//! once: `Substrate::shard` / `absorb` (the table on `Substrate`) and
//! `Event::region`.

mod coordinator;
mod partition;

use coordinator::run_rounds;
pub use coordinator::RegionRunStats;
pub use partition::safe_horizons;
pub(crate) use partition::RegionMap;

use std::sync::Mutex;

use netco_harness::Pool;
use netco_sim::{SimTime, Tick};
use netco_telemetry::TelemetrySink;

use crate::event_loop::{Tap, TapRecord, WorldCore};
use crate::World;

impl World {
    /// What the most recent [`run_until_parallel`](World::run_until_parallel)
    /// call did (all zero before the first).
    pub fn region_stats(&self) -> RegionRunStats {
        self.region_stats
    }

    /// Region-parallel [`run_until`](crate::World::run_until): partitions the
    /// world into (at most) `regions` regions and executes them on `pool`
    /// workers under a conservative lookahead protocol (DESIGN.md §16).
    ///
    /// Observable behaviour — tap observation order (and therefore any
    /// order-sensitive digest), per-node counters, RNG streams, drop
    /// counts, leftover event schedule and `events_processed` — is
    /// bit-identical to sequential [`run_until`](crate::World::run_until) at
    /// every worker count and region count. Telemetry metric *values*
    /// merge deterministically; span traces and cross-region lifecycle
    /// pairing remain per-shard (documented limitation).
    ///
    /// Falls back to the sequential loop when the partition yields a
    /// single region (topology too small or fully contracted).
    pub fn run_until_parallel(&mut self, deadline: SimTime, pool: &Pool, regions: usize) {
        let map = RegionMap::partition(&self.core.sub, regions);
        if map.regions <= 1 {
            self.region_stats = RegionRunStats {
                regions: 1,
                workers: 1,
                ..RegionRunStats::default()
            };
            self.run_until(deadline);
            return;
        }
        let n = self.core.devices.len();
        let parent_enabled = self.core.sub.telemetry.is_enabled();

        // --- Split. Drained first: draining numbers stages, and the shards
        // start numbering theirs past the parent's.
        let pending = self.core.sub.sched.drain_all_ordered();
        let mut shards: Vec<WorldCore> = (0..map.regions)
            .map(|region| {
                let sink = if parent_enabled {
                    TelemetrySink::enabled()
                } else {
                    TelemetrySink::disabled()
                };
                WorldCore {
                    devices: (0..n).map(|_| None).collect(),
                    sub: self.core.sub.shard(region, &map, sink),
                    tick: Tick::new(),
                }
            })
            .collect();
        for (node, device) in self.core.devices.iter_mut().enumerate() {
            shards[map.assignment[node] as usize].devices[node] = device.take();
        }
        for (at, key, event) in pending {
            let Some(region) = event.region(&map.assignment) else {
                // Pins are consumed by the run that scheduled them; none
                // should be pending between runs.
                debug_assert!(false, "stale Pin in scheduler");
                continue;
            };
            shards[region as usize]
                .sub
                .sched
                .schedule_at_keyed(at, key, event);
        }

        let shards: Vec<Mutex<WorldCore>> = shards.into_iter().map(Mutex::new).collect();
        self.region_stats = run_rounds(&shards, &map, deadline, pool, &self.events_processed);

        // --- Merge back, in ascending region order throughout.
        let mut leftovers = Vec::new();
        let mut region_records = Vec::new();
        for shard in shards {
            let core = shard.into_inner().expect("region lock");
            for (slot, device) in self.core.devices.iter_mut().zip(core.devices) {
                if device.is_some() {
                    *slot = device;
                }
            }
            let (left, records) = self.core.sub.absorb(core.sub);
            leftovers.extend(left);
            region_records.push(records);
        }
        // Leftovers (all strictly past the deadline) re-enter the parent
        // scheduler in canonical order. Keys never collide across regions,
        // so (at, key) is a total order here.
        leftovers.sort_by_key(|&(at, key, _)| (at, key));
        for (at, key, event) in leftovers {
            self.core.sub.sched.schedule_at_keyed(at, key, event);
        }
        replay_tap_records(&mut self.taps, region_records);
        // Pin the clock exactly like a sequential run would (this also
        // accounts the one Pin event a sequential run processes).
        self.run_until(deadline);
    }
}

/// Replays per-region tap record streams to the live tap closures in
/// canonical sequential order — time, then same-instant stage, then
/// event key — without materializing the merged union. Each shard
/// records its observations in exactly that order and event keys
/// never collide across regions, so a lazy k-way merge over the
/// region streams reproduces the order a sequential run would have
/// delivered, one record at a time.
fn replay_tap_records(taps: &mut [Tap], region_records: Vec<Vec<TapRecord>>) {
    let mut streams: Vec<_> = region_records
        .into_iter()
        .map(|records| records.into_iter().peekable())
        .collect();
    while let Some((_, stream)) = streams
        .iter_mut()
        .filter_map(|s| Some((s.peek().map(|r| (r.at, r.stage, r.key))?, s)))
        .min_by_key(|&(key, _)| key)
    {
        stream.next().expect("peeked record").deliver(taps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::EchoDevice;
    use crate::{Ctx, Device, Frame, LinkSpec, NodeId, PortId, TapDirection, World};
    use bytes::Bytes;
    use netco_sim::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::mpsc;
    use std::time::Duration;

    type TapLog = Rc<RefCell<Vec<(u64, u32, u16, bool, u64)>>>;

    /// A ring of echo devices with staggered link latencies; injected
    /// frames ping-pong forever, constantly crossing region cuts.
    fn ring_world(seed: u64, nodes: usize) -> (World, TapLog) {
        let mut w = World::new(seed);
        let ids: Vec<NodeId> = (0..nodes)
            .map(|i| w.add_node(format!("n{i}"), EchoDevice::default(), Default::default()))
            .collect();
        for i in 0..nodes {
            let j = (i + 1) % nodes;
            let spec = LinkSpec {
                latency: SimDuration::from_micros(3 + (i as u64 % 4) * 2),
                ..LinkSpec::default()
            };
            w.connect(ids[i], 1.into(), ids[j], 0.into(), spec);
        }
        for i in (0..nodes).step_by(2) {
            w.inject_frame(ids[i], 1.into(), Bytes::from(format!("frame-{i}")));
        }
        let log = tap_log(&mut w);
        (w, log)
    }

    fn tap_log(w: &mut World) -> TapLog {
        let log: TapLog = Rc::new(RefCell::new(Vec::new()));
        let sink = log.clone();
        w.add_tap(move |e| {
            sink.borrow_mut().push((
                e.at.as_nanos(),
                e.node.index() as u32,
                e.port.0,
                matches!(e.direction, TapDirection::Tx),
                e.frame.fnv1a(),
            ));
        });
        log
    }

    /// Passes each frame on round the ring (in at port 0, out at port 1),
    /// one byte shorter, until it is used up: a token of `n` bytes lives
    /// `n - 1` hops. The `fuse`-th frame panics instead (0: never).
    #[derive(Default)]
    struct Relay {
        seen: u32,
        fuse: u32,
    }

    impl Device for Relay {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, frame: Frame) {
            self.seen += 1;
            assert!(self.seen != self.fuse, "relay fuse blew");
            if frame.len() > 1 {
                ctx.send_frame(1.into(), frame.slice(1..));
            }
        }
    }

    const SPARSE_NODES: usize = 12;

    /// A *sparse connected* world: a ring of relays with 2–5 µs link
    /// latencies. Every node starts with a short token, so the run opens
    /// dense (the first round has every region runnable); within 19 hops
    /// they are used up and only the `long` tokens keep circling, one event
    /// each in the whole world, crossing every cut once a lap — rounds in
    /// which one region at most has anything to do.
    fn sparse_world(seed: u64, long: &[usize], fuse: Option<(usize, u32)>) -> World {
        let mut w = World::new(seed);
        let ids: Vec<NodeId> = (0..SPARSE_NODES)
            .map(|i| {
                let fuse = fuse.map_or(0, |(node, nth)| if node == i { nth } else { 0 });
                let relay = Relay { seen: 0, fuse };
                w.add_node(format!("n{i}"), relay, Default::default())
            })
            .collect();
        for i in 0..SPARSE_NODES {
            let spec = LinkSpec {
                latency: SimDuration::from_micros(2 + i as u64 % 4),
                ..LinkSpec::default()
            };
            w.connect(
                ids[i],
                1.into(),
                ids[(i + 1) % SPARSE_NODES],
                0.into(),
                spec,
            );
        }
        for (i, &id) in ids.iter().enumerate() {
            w.inject_frame(id, 0.into(), vec![i as u8; 8 + i]);
        }
        for &i in long {
            w.inject_frame(ids[i], 0.into(), vec![0xEE; 1_400]);
        }
        w
    }

    fn observe(w: &World) -> (u64, u64, Vec<u64>) {
        let per_node: Vec<u64> = (0..w.node_count())
            .map(|i| {
                let c = w.counters(NodeId(i as u32));
                c.port(0.into()).rx_frames
                    + c.port(1.into()).rx_frames
                    + c.port(0.into()).rx_bytes
                    + c.port(1.into()).rx_bytes
            })
            .collect();
        (w.now().as_nanos(), w.events_processed(), per_node)
    }

    #[test]
    fn parallel_matches_sequential_every_region_and_thread_count() {
        let deadline = SimTime::from_nanos(400_000);
        let (mut seq, seq_log) = ring_world(7, 8);
        seq.run_until(deadline);
        let seq_obs = observe(&seq);
        for regions in [2, 3, 4, 8] {
            for threads in [1, 2, 4] {
                let (mut par, par_log) = ring_world(7, 8);
                par.run_until_parallel(deadline, &Pool::new(threads), regions);
                assert_eq!(
                    *par_log.borrow(),
                    *seq_log.borrow(),
                    "tap order diverged at regions={regions} threads={threads}"
                );
                assert_eq!(
                    observe(&par),
                    seq_obs,
                    "world state diverged at regions={regions} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sparse_world_matches_sequential_with_both_kinds_of_round() {
        let deadline = SimTime::from_nanos(1_500_000);
        let mut seq = sparse_world(5, &[0, 7], None);
        let seq_log = tap_log(&mut seq);
        seq.run_until(deadline);
        let seq_obs = observe(&seq);
        for regions in [2, 3, 4, 8] {
            let mut by_workers = Vec::new();
            // 8 workers is more than any CI host has CPUs for.
            for threads in [1, 2, 4, 8] {
                let mut par = sparse_world(5, &[0, 7], None);
                let par_log = tap_log(&mut par);
                par.run_until_parallel(deadline, &Pool::new(threads), regions);
                assert_eq!(
                    *par_log.borrow(),
                    *seq_log.borrow(),
                    "tap order diverged at regions={regions} threads={threads}"
                );
                assert_eq!(
                    observe(&par),
                    seq_obs,
                    "world state diverged at regions={regions} threads={threads}"
                );
                let stats = par.region_stats();
                assert_eq!(
                    (stats.regions, stats.workers),
                    (regions, threads.min(regions))
                );
                assert_eq!(stats.rounds, stats.solo_rounds + stats.parallel_rounds);
                // Neither path may silently go unexercised.
                assert!(
                    stats.solo_rounds > 0 && stats.parallel_rounds > 0,
                    "regions={regions} threads={threads}: {stats:?}"
                );
                assert!(stats.cross_region_events > 0);
                by_workers.push(RegionRunStats {
                    workers: 0,
                    ..stats
                });
            }
            // Who runs a round depends on the host; which rounds there are
            // does not.
            assert!(
                by_workers.iter().all(|s| *s == by_workers[0]),
                "round counts moved with the worker count: {by_workers:?}"
            );
        }
    }

    #[test]
    fn parallel_then_sequential_resumes_identically() {
        // Leftover events and per-node RNG state must merge back exactly:
        // continuing a parallel run sequentially matches a pure
        // sequential run of the whole window — whether the split falls in
        // a dense world or between the solo rounds of a sparse one.
        let dense = || ring_world(11, 6);
        let sparse = || {
            let mut w = sparse_world(11, &[3], None);
            let log = tap_log(&mut w);
            (w, log)
        };
        let worlds: [&dyn Fn() -> (World, TapLog); 2] = [&dense, &sparse];
        for build in worlds {
            let (mut seq, seq_log) = build();
            seq.run_until(SimTime::from_nanos(150_000));
            seq.run_until(SimTime::from_nanos(300_000));
            let (mut par, par_log) = build();
            par.run_until_parallel(SimTime::from_nanos(150_000), &Pool::new(2), 3);
            par.run_until(SimTime::from_nanos(300_000));
            assert_eq!(*par_log.borrow(), *seq_log.borrow());
            assert_eq!(observe(&par), observe(&seq));
        }
    }

    /// Runs `build()`'s world region-parallel on a helper thread and
    /// returns the panic message the call ended with. Fails if the call
    /// is still going after 10 s — the hang this guards against — or
    /// returns normally.
    fn panic_of_parallel_run(
        build: impl FnOnce() -> World + Send + 'static,
        threads: usize,
        regions: usize,
    ) -> String {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| {
                build().run_until_parallel(
                    SimTime::from_nanos(20_000_000),
                    &Pool::new(threads),
                    regions,
                )
            });
            let _ = tx.send(std::panic::catch_unwind(run));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run_until_parallel still running 10 s after a worker panicked");
        helper.join().expect("helper thread");
        let payload = outcome.expect_err("the run finished without the device's panic");
        payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic message")
    }

    /// The first node of region 1 (regions are id-contiguous blocks).
    fn first_node_of_region_1(regions: usize) -> usize {
        let w = sparse_world(1, &[], None);
        let map = RegionMap::partition(&w.core.sub, regions);
        assert_eq!(map.regions as usize, regions);
        (0..SPARSE_NODES)
            .find(|&i| map.assignment[i] == 1)
            .expect("region 1 has a node")
    }

    #[test]
    fn worker_panic_in_a_parallel_round_reaches_the_caller() {
        for (threads, regions) in [(2, 2), (4, 4)] {
            let node = first_node_of_region_1(regions);
            // Every node holds a token at t = 0, so the first round has
            // every region runnable and the first frame at `node` is
            // dispatched in it, with the other workers at the rendezvous.
            let message = panic_of_parallel_run(
                move || sparse_world(1, &[0], Some((node, 1))),
                threads,
                regions,
            );
            assert_eq!(message, "relay fuse blew", "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_in_a_solo_round_reaches_the_caller() {
        for (threads, regions) in [(2, 2), (4, 4)] {
            let node = first_node_of_region_1(regions);
            // The 12 short tokens (18 hops at most, 12 nodes a lap) pass a
            // node twice each at most and are gone within 0.2 ms; the
            // 40th frame is therefore the one long token's, at a time
            // when it is the only event in the world: a solo round, run
            // inside the rendezvous with the other workers parked — which
            // the run's first, parallel round put there.
            let message = panic_of_parallel_run(
                move || sparse_world(1, &[0], Some((node, 40))),
                threads,
                regions,
            );
            assert_eq!(message, "relay fuse blew", "threads={threads}");
        }
    }

    #[test]
    fn single_region_falls_back_to_sequential() {
        let (mut w, log) = ring_world(3, 4);
        assert_eq!(w.region_stats(), RegionRunStats::default());
        w.run_until_parallel(SimTime::from_nanos(50_000), &Pool::new(4), 1);
        let fallback = RegionRunStats {
            regions: 1,
            workers: 1,
            ..RegionRunStats::default()
        };
        assert_eq!(w.region_stats(), fallback);
        let (mut seq, seq_log) = ring_world(3, 4);
        seq.run_until(SimTime::from_nanos(50_000));
        assert_eq!(*log.borrow(), *seq_log.borrow());
        assert_eq!(observe(&w), observe(&seq));
    }
}
