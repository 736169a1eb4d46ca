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
//! # Partitioning
//!
//! Zero-latency links and zero-latency control channels are contracted
//! first (union-find): a zero-latency edge provides no lookahead, so both
//! endpoints must share a region. The resulting islands, ordered by their
//! smallest node id, are packed into id-contiguous blocks of roughly equal
//! node count — builders add nodes in locality order, so contiguous blocks
//! keep most links region-internal. The assignment is a pure function of
//! the topology, so every run (and every thread count) partitions
//! identically.
//!
//! # Safe horizon
//!
//! Let `E_r` be the earliest pending event of region `r` and `L[s][d]` the
//! minimum latency over cut edges from `s` to `d`. The *bound*
//! `B_r = min(E_r, min_s (B_s + L[s][r]))` is the earliest instant at
//! which region `r` could possibly emit anything — solved to fixpoint by
//! relaxation ([`safe_horizons`]). The *horizon*
//! `T_r = min over in-neighbors s of (B_s + L[s][r])` then bounds the
//! earliest event that could still arrive from outside. A region processes
//! events strictly below its horizon: same-timestamp cross-region arrivals
//! must first land so they merge into the tick in canonical key order.
//! Progress is guaranteed — the region holding the globally earliest event
//! `t*` has `T_r ≥ t* + min cut latency > t*` since every bound is at
//! least `t*` and every cut latency is positive.
//!
//! # Channel draining order
//!
//! Cross-region arrivals ride per-`(src, dst)` outboxes. Between rounds a
//! single coordinator drains every outbox into the destination scheduler
//! in ascending source-region order; within one outbox messages keep their
//! send order. Each `(timestamp, key)` stream is produced by exactly one
//! region, so this drain order reproduces the sequential scheduler's
//! per-key FIFO exactly — the foundation of the bit-identical tap-digest
//! guarantee that `region_determinism` tests enforce.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use netco_harness::Pool;
use netco_sim::{Scheduler, SimTime, Tick};
use netco_telemetry::TelemetrySink;

use crate::world::{Event, RegionCtx, Substrate, TapRecorder, World, WorldCore};
use crate::DropReason;

/// A deterministic partition of a world's nodes into regions, plus the
/// inter-region lookahead matrix.
pub struct RegionMap {
    /// `assignment[node] = region`.
    assignment: Arc<Vec<u32>>,
    /// Number of regions actually formed (`<=` the requested count).
    regions: u32,
    /// `lookahead[s][d]`: minimum latency in ns over cut edges from region
    /// `s` to region `d`; `u64::MAX` when no such edge exists.
    lookahead: Vec<Vec<u64>>,
}

impl RegionMap {
    /// Number of regions formed.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// The region a node was assigned to.
    pub fn region_of(&self, node: crate::NodeId) -> u32 {
        self.assignment[node.index()]
    }

    pub(crate) fn partition(core: &Substrate, want: usize) -> RegionMap {
        let n = core.names.len();
        // Union-find with path halving; zero-latency edges are contracted
        // because they would yield zero lookahead (and deadlock risk).
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Deterministic: smaller root wins.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        };
        for link in &core.links {
            if link.spec.latency.as_nanos() == 0 {
                union(&mut parent, link.ends[0].0 .0, link.ends[1].0 .0);
            }
        }
        for ((a, b), spec) in &core.control {
            if spec.latency.as_nanos() == 0 {
                union(&mut parent, a.0, b.0);
            }
        }
        // Islands keyed by root; each island's id is its smallest member,
        // and islands are processed in ascending order of that id, so the
        // assignment is independent of hash-map iteration order.
        let island_of: Vec<u32> = (0..n as u32).map(|i| find(&mut parent, i)).collect();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (node, &root) in island_of.iter().enumerate() {
            members[root as usize].push(node as u32);
        }
        let islands: Vec<Vec<u32>> = members.into_iter().filter(|m| !m.is_empty()).collect();
        let regions = want.clamp(1, islands.len().max(1)) as u32;
        // Contiguous block assignment in island order. Builders add nodes
        // in locality order (a row of switches gets adjacent ids), so
        // id-contiguous blocks keep topological neighbors together and
        // most links internal — a deterministic stand-in for a full graph
        // partitioner. A region closes once it has met its proportional
        // share of nodes; the forced advance keeps one island available
        // for every region still open.
        let total: usize = islands.iter().map(Vec::len).sum();
        let mut assignment = vec![0u32; n];
        let mut r: u32 = 0;
        let mut cum = 0usize;
        let mut in_region = 0usize;
        for (i, island) in islands.iter().enumerate() {
            let remaining = islands.len() - i;
            let forced = remaining <= (regions - 1 - r) as usize;
            let met_share = cum * regions as usize >= (r as usize + 1) * total;
            if r + 1 < regions && in_region > 0 && (forced || met_share) {
                r += 1;
                in_region = 0;
            }
            cum += island.len();
            in_region += 1;
            for &node in island {
                assignment[node as usize] = r;
            }
        }
        let mut lookahead = vec![vec![u64::MAX; regions as usize]; regions as usize];
        for link in &core.links {
            let (ra, rb) = (
                assignment[link.ends[0].0.index()] as usize,
                assignment[link.ends[1].0.index()] as usize,
            );
            if ra != rb {
                let l = link.spec.latency.as_nanos();
                debug_assert!(l > 0, "cut link with zero latency survived contraction");
                lookahead[ra][rb] = lookahead[ra][rb].min(l);
                lookahead[rb][ra] = lookahead[rb][ra].min(l);
            }
        }
        for ((a, b), spec) in &core.control {
            let (ra, rb) = (
                assignment[a.index()] as usize,
                assignment[b.index()] as usize,
            );
            if ra != rb {
                let l = spec.latency.as_nanos();
                debug_assert!(
                    l > 0,
                    "cut control channel with zero latency survived contraction"
                );
                lookahead[ra][rb] = lookahead[ra][rb].min(l);
            }
        }
        RegionMap {
            assignment: Arc::new(assignment),
            regions,
            lookahead,
        }
    }
}

/// Solves the conservative-PDES bound/horizon fixpoint.
///
/// `earliest[r]` is region `r`'s earliest pending event in ns
/// (`u64::MAX` when idle); `lookahead[s][d]` is the minimum cut latency
/// from `s` to `d` (`u64::MAX` when no edge). Returns `(bound, horizon)`:
///
/// * `bound[r] = min(earliest[r], min_s(bound[s] + lookahead[s][r]))` —
///   the earliest instant region `r` could emit anything;
/// * `horizon[r] = min over in-neighbors s of (bound[s] + lookahead[s][r])`
///   (`u64::MAX` with no in-edges) — events strictly below it can never be
///   preceded by a not-yet-delivered cross-region arrival.
///
/// Pure so the property tests can drive it directly.
pub fn safe_horizons(earliest: &[u64], lookahead: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let r = earliest.len();
    let mut bound: Vec<u64> = earliest.to_vec();
    // Bellman-Ford-style relaxation; positive edge weights guarantee the
    // fixpoint is reached in at most `r` sweeps.
    loop {
        let mut changed = false;
        for d in 0..r {
            for s in 0..r {
                if s == d || lookahead[s][d] == u64::MAX {
                    continue;
                }
                let via = bound[s].saturating_add(lookahead[s][d]);
                if via < bound[d] {
                    bound[d] = via;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut horizon = vec![u64::MAX; r];
    for d in 0..r {
        for s in 0..r {
            if s == d || lookahead[s][d] == u64::MAX {
                continue;
            }
            horizon[d] = horizon[d].min(bound[s].saturating_add(lookahead[s][d]));
        }
    }
    (bound, horizon)
}

/// One region's execution state: a full [`WorldCore`] shard (owning the
/// region's devices; replicated read-mostly state for the rest) plus the
/// bookkeeping the round loop needs.
struct RegionRunner {
    core: WorldCore,
    tick: Tick<Event>,
    last_at: u64,
    events: u64,
}

impl RegionRunner {
    /// Processes every pending event with `t <= deadline && t < horizon`.
    /// The bound is strict below the horizon: a tick exactly at the
    /// horizon could still gain same-timestamp cross-region arrivals that
    /// must merge into it in key order.
    fn run_round(&mut self, horizon: u64, deadline_ns: u64) {
        let RegionRunner {
            core,
            tick,
            last_at,
            events,
        } = self;
        let (my_region, assignment) = {
            let rt = core.region.as_ref().expect("region ctx installed");
            (rt.my_region, rt.assignment.clone())
        };
        while let Some(t) = core.sched.peek_time() {
            let tn = t.as_nanos();
            if tn > deadline_ns || tn >= horizon {
                break;
            }
            let n = core.sched.pop_tick_until(t, tick);
            debug_assert!(n > 0, "peeked tick must pop");
            core.tap_rec.stage = if tn == *last_at {
                core.tap_rec.stage + 1
            } else {
                0
            };
            *last_at = tn;
            for (key, event) in tick.drain_keyed() {
                // `LinkAdmin` is replicated to both endpoint regions so
                // link state stays consistent; only the owner (region of
                // endpoint 0) counts it, keeping `events_processed` equal
                // to a sequential run's.
                let counted = match &event {
                    Event::LinkAdmin { link, .. } => {
                        assignment[core.links[*link as usize].ends[0].0.index()] == my_region
                    }
                    _ => true,
                };
                *events += counted as u64;
                core.tap_rec.key = key;
                core.dispatch(event);
            }
        }
    }
}

impl World {
    /// Region-parallel [`run_until`](crate::World::run_until): partitions the
    /// world into (at most) `regions` regions and executes them on `pool`
    /// workers under the conservative lookahead protocol described in the
    /// [module docs](self).
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
        let map = RegionMap::partition(&self.core, regions);
        if map.regions <= 1 {
            self.run_until(deadline);
            return;
        }
        let r = map.regions as usize;
        let n = self.core.devices.len();
        let deadline_ns = deadline.as_nanos();
        let parent_enabled = self.core.telemetry.is_enabled();

        // --- Build one WorldCore shard per region. Devices move to their
        // owning shard; everything else is replicated (links and per-node
        // state merge back by ownership afterwards).
        let pending = self.core.sched.drain_all_ordered();
        let mut runners: Vec<RegionRunner> = (0..r)
            .map(|region| {
                let sink = if parent_enabled {
                    TelemetrySink::enabled()
                } else {
                    TelemetrySink::disabled()
                };
                let mut sched = Scheduler::new();
                sched.attach_telemetry(&sink);
                // The cloned link directions remember the parent's stage
                // ordinals for the frames they are serialising.
                sched.skip_stages_to(self.core.sched.stage());
                let core = WorldCore {
                    devices: (0..n).map(|_| None).collect(),
                    sub: Substrate {
                        sched,
                        seed: self.core.seed,
                        node_rngs: self.core.node_rngs.clone(),
                        names: self.core.names.clone(),
                        cpu_models: self.core.cpu_models.clone(),
                        cpu_states: self.core.cpu_states.clone(),
                        // Shard sinks have the same enabledness as the
                        // parent, so the parent's bypass bits stay valid
                        // verbatim on every shard.
                        cpu_bypass: self.core.cpu_bypass.clone(),
                        bypass_enabled: self.core.bypass_enabled,
                        counters: self.core.counters.clone(),
                        links: self.core.links.clone(),
                        adjacency: self.core.adjacency.clone(),
                        control: self.core.control.clone(),
                        control_faults: self.core.control_faults.clone(),
                        substrate_drops: [0; DropReason::COUNT],
                        tap_rec: TapRecorder {
                            record: self.core.tap_rec.record,
                            ..TapRecorder::default()
                        },
                        region: Some(RegionCtx {
                            my_region: region as u32,
                            assignment: map.assignment.clone(),
                            outboxes: (0..r).map(|_| Vec::new()).collect(),
                        }),
                        tel_link_queue: sink.histogram("net.link_queue_bytes"),
                        tel_cpu_service: sink.histogram("net.cpu_service_ns"),
                        tel_cpu_busy: sink.counter("net.cpu_busy_ns"),
                        tel_control_latency: sink.histogram("net.control_latency_ns"),
                        telemetry: sink,
                    },
                };
                RegionRunner {
                    core,
                    tick: Tick::new(),
                    last_at: u64::MAX,
                    events: 0,
                }
            })
            .collect();
        for node in 0..n {
            let dst = map.assignment[node] as usize;
            runners[dst].core.devices[node] = self.core.devices[node].take();
        }
        for (at, key, event) in pending {
            match &event {
                Event::Pin => {
                    // Pins are consumed by the run that scheduled them;
                    // none should be pending between runs.
                    debug_assert!(false, "stale Pin in scheduler");
                }
                Event::LinkAdmin { link, enabled } => {
                    // Replicate to both endpoint regions (dedup if equal).
                    let l = &self.core.links[*link as usize];
                    let (ra, rb) = (
                        map.assignment[l.ends[0].0.index()] as usize,
                        map.assignment[l.ends[1].0.index()] as usize,
                    );
                    let (link, enabled) = (*link, *enabled);
                    runners[ra].core.sched.schedule_at_keyed(
                        at,
                        key,
                        Event::LinkAdmin { link, enabled },
                    );
                    if rb != ra {
                        runners[rb].core.sched.schedule_at_keyed(
                            at,
                            key,
                            Event::LinkAdmin { link, enabled },
                        );
                    }
                }
                _ => {
                    let owner = event.owner_node().expect("event kinds above have an owner");
                    let dst = map.assignment[owner.index()] as usize;
                    runners[dst].core.sched.schedule_at_keyed(at, key, event);
                }
            }
        }

        // --- Round loop: one `pool.map` call hosts the whole run. Jobs
        // are worker indices; every job enters the same barrier-paced
        // loop, so each of the `w` map workers executes exactly one job
        // (a job blocks on its first barrier until all `w` are running,
        // so no thread can ever claim two). Regions are claimed per round
        // through an atomic counter for dynamic load balance.
        let w = pool.threads().min(r);
        let runners: Vec<Mutex<RegionRunner>> = runners.into_iter().map(Mutex::new).collect();
        let horizons: Vec<AtomicU64> = {
            let earliest: Vec<u64> = runners
                .iter()
                .map(|m| peek_ns(&m.lock().expect("region lock").core))
                .collect();
            let (_, t) = safe_horizons(&earliest, &map.lookahead);
            t.into_iter().map(AtomicU64::new).collect()
        };
        let claim = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(w);
        let jobs: Vec<usize> = (0..w).collect();
        // All cross-thread state is ordered by the barrier; the atomics
        // need no ordering of their own.
        pool.map(&jobs, |_| {
            loop {
                loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= r {
                        break;
                    }
                    let mut runner = runners[i].lock().expect("region lock");
                    let horizon = horizons[i].load(Ordering::Relaxed);
                    runner.run_round(horizon, deadline_ns);
                }
                let round_end = barrier.wait();
                if round_end.is_leader() {
                    // Coordination phase: every other worker is parked on
                    // the next barrier, so the leader has exclusive access.
                    // 1. Drain outboxes in ascending (src, dst) order.
                    let mut out: Vec<Vec<Vec<(u64, u64, Event)>>> = Vec::with_capacity(r);
                    for src in runners.iter() {
                        let mut src = src.lock().expect("region lock");
                        let boxes = &mut src.core.region.as_mut().expect("region ctx").outboxes;
                        out.push(boxes.iter_mut().map(std::mem::take).collect());
                    }
                    let mut earliest = vec![u64::MAX; r];
                    for (d, dst) in runners.iter().enumerate() {
                        let mut dst = dst.lock().expect("region lock");
                        for src_boxes in out.iter_mut() {
                            for (at, key, event) in src_boxes[d].drain(..) {
                                dst.core.sched.schedule_at_keyed(
                                    SimTime::from_nanos(at),
                                    key,
                                    event,
                                );
                            }
                        }
                        earliest[d] = peek_ns(&dst.core);
                    }
                    // 2. Recompute horizons and test for termination.
                    let (_, t) = safe_horizons(&earliest, &map.lookahead);
                    for (h, t) in horizons.iter().zip(t) {
                        h.store(t, Ordering::Relaxed);
                    }
                    done.store(earliest.iter().all(|&e| e > deadline_ns), Ordering::Relaxed);
                    claim.store(0, Ordering::Relaxed);
                }
                barrier.wait();
                if done.load(Ordering::Relaxed) {
                    return;
                }
            }
        });

        // --- Merge shards back, in ascending region order throughout.
        let mut total_events = 0u64;
        let mut leftovers: Vec<(SimTime, u64, Event)> = Vec::new();
        let mut region_records: Vec<Vec<crate::world::TapRecord>> = Vec::new();
        for (region, cell) in runners.into_iter().enumerate() {
            let runner = cell.into_inner().expect("region lock");
            let mut core = runner.core;
            total_events += runner.events;
            // ...and the directions merged back below remember the shard's.
            self.core.sub.sched.skip_stages_to(core.sched.stage());
            for (at, key, event) in core.sched.drain_all_ordered() {
                // Drop the non-owner's replica of a leftover LinkAdmin.
                if let Event::LinkAdmin { link, .. } = &event {
                    let owner = core.links[*link as usize].ends[0].0;
                    if map.assignment[owner.index()] as usize != region {
                        continue;
                    }
                }
                leftovers.push((at, key, event));
            }
            for node in 0..n {
                if map.assignment[node] as usize != region {
                    continue;
                }
                self.core.devices[node] = core.devices[node].take();
                self.core.node_rngs[node] = core.node_rngs[node].clone();
                self.core.cpu_states[node] = core.cpu_states[node].clone();
                self.core.counters[node] = std::mem::take(&mut core.counters[node]);
            }
            for (li, link) in core.links.iter().enumerate() {
                for d in 0..2 {
                    if map.assignment[link.ends[d].0.index()] as usize != region {
                        continue;
                    }
                    let parent = &mut self.core.links[li];
                    parent.dirs[d] = link.dirs[d].clone();
                    parent.dropped[d] = link.dropped[d];
                    parent.fault_dropped[d] = link.fault_dropped[d];
                    if let (Some(pf), Some(sf)) = (&mut parent.fault, &link.fault) {
                        pf.rngs[d] = sf.rngs[d].clone();
                    }
                }
                if map.assignment[link.ends[0].0.index()] as usize == region {
                    self.core.links[li].enabled = link.enabled;
                }
            }
            // A control-fault entry's RNG advances only when `from` sends:
            // the region owning `from` holds the authoritative copy.
            for (pair, fault) in &core.control_faults {
                if map.assignment[pair.0.index()] as usize == region {
                    self.core.control_faults.insert(*pair, fault.clone());
                }
            }
            for (acc, shard) in self
                .core
                .substrate_drops
                .iter_mut()
                .zip(core.substrate_drops)
            {
                *acc += shard;
            }
            self.core.telemetry.merge_sink(&core.telemetry);
            region_records.push(std::mem::take(&mut core.tap_rec.records));
        }
        self.events_processed.add(total_events);
        // Leftovers (all strictly past the deadline) re-enter the parent
        // scheduler in canonical order. Keys never collide across regions,
        // so (at, key) is a total order here.
        leftovers.sort_by_key(|&(at, key, _)| (at, key));
        for (at, key, event) in leftovers {
            self.core.sched.schedule_at_keyed(at, key, event);
        }
        // Replay tap observations in canonical sequential order: a lazy
        // k-way merge of the per-region record streams, delivered one
        // record at a time so the (potentially multi-million record)
        // union is never sorted or materialized.
        self.replay_tap_records(region_records);
        // Pin the clock exactly like a sequential run would (this also
        // accounts the one Pin event a sequential run processes).
        self.run_until(deadline);
    }
}

/// Earliest pending timestamp of a shard's scheduler in ns (`u64::MAX`
/// when idle).
fn peek_ns(core: &Substrate) -> u64 {
    core.sched.peek_time().map_or(u64::MAX, |t| t.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::EchoDevice;
    use crate::{fnv1a, LinkSpec, NodeId, TapDirection, World};
    use bytes::Bytes;
    use netco_sim::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

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
        let log: TapLog = Rc::new(RefCell::new(Vec::new()));
        let sink = log.clone();
        w.add_tap(move |e| {
            sink.borrow_mut().push((
                e.at.as_nanos(),
                e.node.index() as u32,
                e.port.0,
                matches!(e.direction, TapDirection::Tx),
                fnv1a(e.frame),
            ));
        });
        (w, log)
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
    fn parallel_then_sequential_resumes_identically() {
        // Leftover events and per-node RNG state must merge back exactly:
        // continuing a parallel run sequentially matches a pure
        // sequential run of the whole window.
        let (mut seq, seq_log) = ring_world(11, 6);
        seq.run_until(SimTime::from_nanos(150_000));
        seq.run_until(SimTime::from_nanos(300_000));
        let (mut par, par_log) = ring_world(11, 6);
        par.run_until_parallel(SimTime::from_nanos(150_000), &Pool::new(2), 3);
        par.run_until(SimTime::from_nanos(300_000));
        assert_eq!(*par_log.borrow(), *seq_log.borrow());
        assert_eq!(observe(&par), observe(&seq));
    }

    #[test]
    fn single_region_falls_back_to_sequential() {
        let (mut w, log) = ring_world(3, 4);
        w.run_until_parallel(SimTime::from_nanos(50_000), &Pool::new(4), 1);
        let (mut seq, seq_log) = ring_world(3, 4);
        seq.run_until(SimTime::from_nanos(50_000));
        assert_eq!(*log.borrow(), *seq_log.borrow());
        assert_eq!(observe(&w), observe(&seq));
    }

    #[test]
    fn zero_latency_edges_are_contracted() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), Default::default());
        let b = w.add_node("b", EchoDevice::default(), Default::default());
        let c = w.add_node("c", EchoDevice::default(), Default::default());
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        w.connect(b, 1.into(), c, 0.into(), LinkSpec::default());
        let map = RegionMap::partition(&w.core, 3);
        assert_eq!(map.regions(), 2);
        assert_eq!(map.region_of(a), map.region_of(b));
        assert_ne!(map.region_of(a), map.region_of(c));
    }

    #[test]
    fn safe_horizons_basic_properties() {
        // Two regions, symmetric 5 µs lookahead.
        let l = vec![vec![u64::MAX, 5_000], vec![5_000, u64::MAX]];
        let (bound, horizon) = safe_horizons(&[10_000, 40_000], &l);
        assert_eq!(bound, vec![10_000, 15_000]);
        // Region 0 may run up to (but not including) B1 + L = 20 000;
        // region 1 up to B0 + L = 15 000.
        assert_eq!(horizon, vec![20_000, 15_000]);
        // An idle region's bound is lifted by its neighbor's sends: region
        // 0 could first emit at B0 = 7 000 + 5 000 = 12 000, so region 1
        // may still only advance to 17 000 — not unboundedly.
        let (bound, horizon) = safe_horizons(&[u64::MAX, 7_000], &l);
        assert_eq!(bound, vec![12_000, 7_000]);
        assert_eq!(horizon, vec![12_000, 17_000]);
    }
}
