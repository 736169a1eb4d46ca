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
//!
//! # Rounds
//!
//! A *round* runs every region up to its horizon, then drains the
//! outboxes and recomputes the horizons. A region's part of a round is the
//! sequential event loop itself (`WorldCore::run_ticks`) on the region's
//! shard, bounded by `min(deadline, horizon − 1)`. A region is *runnable*
//! when its earliest event is within the deadline and strictly below its
//! horizon; the progress argument above makes at least one region
//! runnable until the run is done. A round costs what its parallelism is
//! worth:
//!
//! * **Solo rounds.** While exactly one region is runnable, the
//!   coordinating thread runs that region's round itself, drains,
//!   recomputes and looks again; the workers are woken only for a round
//!   with two or more runnable regions. A region that is not runnable
//!   pops nothing, so a solo round is the same round a full one would have
//!   been — same events, same drain, same order — and the choice reads
//!   the world (earliest events, lookahead), never the host. Sparse
//!   connected worlds (a few frames in flight, microsecond cut latencies)
//!   spend most of their rounds here: the first cell of the full campaign
//!   runs 7,086 of its 9,706 rounds solo at 2 regions.
//! * **One rendezvous per round.** Workers meet once per parallel round
//!   in a private `Rendezvous`: the last to arrive runs the coordination
//!   (and any solo rounds that follow) *before* releasing the others, so
//!   a round costs one sleep/wake pair per waiting worker, not two.
//! * **Spinning is gated on the host.** A waiter polls the rendezvous'
//!   generation for a short bounded time before parking, but only when
//!   [`std::thread::available_parallelism`] is at least the worker count.
//!   On an oversubscribed host a spinning waiter burns the time slice of
//!   the very thread it is waiting for (DESIGN.md §16 has the measured
//!   frontier), so there waiters park at once.
//!
//! A worker that panics poisons the rendezvous on unwind; the others
//! leave at their next arrival, and [`Pool::map`] re-raises the panic on
//! the caller instead of leaving them parked forever.
//! [`World::region_stats`] reports how many rounds of each kind a run took.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use netco_harness::Pool;
use netco_sim::{Scheduler, SimTime, Tick};
use netco_telemetry::TelemetrySink;

use crate::world::{Event, OutMsg, RegionCtx, Substrate, TapRecorder, World, WorldCore};
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
    let (mut bound, mut horizon) = (Vec::new(), Vec::new());
    safe_horizons_into(earliest, lookahead, &mut bound, &mut horizon);
    (bound, horizon)
}

/// [`safe_horizons`] into caller-owned vectors, which the round loop
/// reuses across its (often ~10 k) coordinations.
fn safe_horizons_into(
    earliest: &[u64],
    lookahead: &[Vec<u64>],
    bound: &mut Vec<u64>,
    horizon: &mut Vec<u64>,
) {
    let r = earliest.len();
    bound.clear();
    bound.extend_from_slice(earliest);
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
    horizon.clear();
    horizon.resize(r, u64::MAX);
    for d in 0..r {
        for s in 0..r {
            if s == d || lookahead[s][d] == u64::MAX {
                continue;
            }
            horizon[d] = horizon[d].min(bound[s].saturating_add(lookahead[s][d]));
        }
    }
}

/// One region's execution state: a full [`WorldCore`] shard (owning the
/// region's devices; replicated read-mostly state for the rest) and the
/// events it has counted.
struct RegionRunner {
    core: WorldCore,
    events: u64,
}

impl RegionRunner {
    /// Processes every pending event with `t <= deadline && t < horizon`
    /// through the world's own tick loop. The bound is strict below the
    /// horizon: a tick exactly at the horizon could still gain
    /// same-timestamp cross-region arrivals that must merge into it in key
    /// order. Horizons are at least 1 ns because cut latencies are
    /// positive.
    fn run_round(&mut self, horizon: u64, deadline_ns: u64) {
        let until = SimTime::from_nanos(deadline_ns.min(horizon - 1));
        self.events += self.core.run_ticks(until, |_| {});
    }
}

/// What one [`World::run_until_parallel`] call did, round by round.
///
/// A plain value outside the telemetry registry, so sequential and
/// region-parallel runs keep equal metrics. Every field but `workers` is
/// a pure function of the world and the region count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionRunStats {
    /// Regions the partition formed (1 when the run fell back to the
    /// sequential loop).
    pub regions: usize,
    /// Threads that hosted the round loop: `min(pool threads, regions)`.
    pub workers: usize,
    /// Rounds run: `solo_rounds + parallel_rounds`.
    pub rounds: u64,
    /// Rounds in which exactly one region was runnable, executed by the
    /// coordinating thread without waking the workers.
    pub solo_rounds: u64,
    /// Rounds in which two or more regions were runnable.
    pub parallel_rounds: u64,
    /// Events that crossed a region cut through an outbox.
    pub cross_region_events: u64,
}

/// Polls of the generation a waiter makes before parking, on a host with a
/// CPU for every worker: long enough to cover a round of a few events,
/// short enough that a long run of solo rounds is waited out asleep.
const SPIN_POLLS: u32 = 2_000;

/// Where the round loop's workers meet, once per parallel round. The last
/// party to arrive runs the coordination closure, then releases the rest.
struct Rendezvous {
    parties: usize,
    /// Polls before parking; zero on a host with fewer CPUs than parties.
    spin: u32,
    state: Mutex<Arrivals>,
    released: Condvar,
    /// Completed meetings. Written under `state`'s lock, so a parked waiter
    /// cannot miss a release; read without it by spinning waiters, whose
    /// `Acquire` pairs with the leader's `Release`.
    generation: AtomicU64,
}

#[derive(Default)]
struct Arrivals {
    arrived: usize,
    poisoned: bool,
}

impl Rendezvous {
    fn new(parties: usize, spin: u32) -> Rendezvous {
        Rendezvous {
            parties,
            spin,
            state: Mutex::new(Arrivals::default()),
            released: Condvar::new(),
            generation: AtomicU64::new(0),
        }
    }

    /// No code panics while holding this lock and each update is a single
    /// field store, so a poisoned lock still guards valid state — and
    /// [`poison`](Self::poison) runs during unwinding, where it must not
    /// panic again.
    fn lock(&self) -> MutexGuard<'_, Arrivals> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until all parties have arrived. The last arriver runs `lead`
    /// while the others wait — it has exclusive use of whatever the parties
    /// share — and everything it wrote is visible to them on return.
    /// Returns `false`, without having met, once a party has panicked.
    #[must_use]
    fn arrive(&self, lead: impl FnOnce()) -> bool {
        let mut state = self.lock();
        if state.poisoned {
            return false;
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            drop(state);
            lead();
            {
                let _state = self.lock();
                self.generation.fetch_add(1, Ordering::Release);
            }
            self.released.notify_all();
            return true;
        }
        let generation = self.generation.load(Ordering::Relaxed);
        drop(state);
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != generation {
                return true;
            }
            std::hint::spin_loop();
        }
        let mut state = self.lock();
        while self.generation.load(Ordering::Relaxed) == generation {
            if state.poisoned {
                return false;
            }
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        true
    }

    /// Marks the meeting as never to complete and wakes every waiter.
    fn poison(&self) {
        self.lock().poisoned = true;
        self.released.notify_all();
    }
}

/// Poisons the rendezvous when the worker holding it unwinds, so that the
/// other workers leave instead of waiting for a party that will not come.
struct PoisonOnUnwind<'a>(&'a Rendezvous);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The coordination phase and its per-run state: runs between rounds on
/// whichever thread arrived last, with every region at rest.
struct Coordinator<'a> {
    runners: &'a [Mutex<RegionRunner>],
    map: &'a RegionMap,
    deadline_ns: u64,
    earliest: Vec<u64>,
    bound: Vec<u64>,
    horizon: Vec<u64>,
    /// `inbox[d]`: the messages for region `d` out of the source being
    /// drained; swapped with the source's outbox, so capacity circulates.
    inbox: Vec<Vec<OutMsg>>,
    stats: RegionRunStats,
}

impl Coordinator<'_> {
    /// Drains the outboxes, recomputes the horizons and runs solo rounds
    /// for as long as exactly one region is runnable. Returns `true` when
    /// the run is done; on `false`, `horizon` holds the next parallel
    /// round's.
    fn advance(&mut self) -> bool {
        loop {
            self.drain();
            safe_horizons_into(
                &self.earliest,
                &self.map.lookahead,
                &mut self.bound,
                &mut self.horizon,
            );
            let mut runnable = (0..self.earliest.len()).filter(|&i| {
                self.earliest[i] <= self.deadline_ns && self.earliest[i] < self.horizon[i]
            });
            match (runnable.next(), runnable.next()) {
                (None, _) => {
                    debug_assert!(
                        self.earliest.iter().all(|&e| e > self.deadline_ns),
                        "an event within the deadline but no region runnable"
                    );
                    return true;
                }
                (Some(solo), None) => {
                    self.stats.rounds += 1;
                    self.stats.solo_rounds += 1;
                    self.runners[solo]
                        .lock()
                        .expect("region lock")
                        .run_round(self.horizon[solo], self.deadline_ns);
                }
                _ => {
                    self.stats.rounds += 1;
                    self.stats.parallel_rounds += 1;
                    return false;
                }
            }
        }
    }

    /// Moves every outbox into its destination scheduler, sources in
    /// ascending order and each outbox in send order (see the module docs),
    /// then reads every region's earliest pending event.
    fn drain(&mut self) {
        for src in self.runners {
            {
                let mut src = src.lock().expect("region lock");
                let outboxes = &mut src.core.region.as_mut().expect("region ctx").outboxes;
                for (outbox, inbox) in outboxes.iter_mut().zip(&mut self.inbox) {
                    std::mem::swap(outbox, inbox);
                }
            }
            for (dst, inbox) in self.runners.iter().zip(&mut self.inbox) {
                if inbox.is_empty() {
                    continue;
                }
                self.stats.cross_region_events += inbox.len() as u64;
                let mut dst = dst.lock().expect("region lock");
                for (at, key, event) in inbox.drain(..) {
                    dst.core
                        .sched
                        .schedule_at_keyed(SimTime::from_nanos(at), key, event);
                }
            }
        }
        for (earliest, runner) in self.earliest.iter_mut().zip(self.runners) {
            *earliest = peek_ns(&runner.lock().expect("region lock").core);
        }
    }
}

impl World {
    /// What the most recent [`run_until_parallel`](World::run_until_parallel)
    /// call did (all zero before the first).
    pub fn region_stats(&self) -> RegionRunStats {
        self.region_stats
    }

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
            self.region_stats = RegionRunStats {
                regions: 1,
                workers: 1,
                ..RegionRunStats::default()
            };
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
                    tick: Tick::new(),
                };
                RegionRunner { core, events: 0 }
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

        // --- Round loop (module docs, "Rounds"). The coordinator opens the
        // run on this thread; only if a round with two or more runnable
        // regions turns up does one `pool.map` call host the rest. Jobs are
        // worker indices; every job enters the same rendezvous-paced loop,
        // so each of the `w` map workers executes exactly one job (a job
        // blocks at its first rendezvous until all `w` are running, so no
        // thread can ever claim two). Regions are claimed per round
        // through an atomic counter for dynamic load balance.
        let w = pool.threads().min(r);
        let runners: Vec<Mutex<RegionRunner>> = runners.into_iter().map(Mutex::new).collect();
        let mut coordinator = Coordinator {
            runners: &runners,
            map: &map,
            deadline_ns,
            earliest: vec![u64::MAX; r],
            bound: Vec::with_capacity(r),
            horizon: Vec::with_capacity(r),
            inbox: (0..r).map(|_| Vec::new()).collect(),
            stats: RegionRunStats {
                regions: r,
                workers: w,
                ..RegionRunStats::default()
            },
        };
        if !coordinator.advance() {
            let horizons: Vec<AtomicU64> = coordinator
                .horizon
                .iter()
                .map(|&h| AtomicU64::new(h))
                .collect();
            let coordinator = Mutex::new(&mut coordinator);
            let claim = AtomicUsize::new(0);
            let done = AtomicBool::new(false);
            let has_cpu_each = std::thread::available_parallelism().is_ok_and(|n| n.get() >= w);
            let rendezvous = Rendezvous::new(w, if has_cpu_each { SPIN_POLLS } else { 0 });
            let jobs: Vec<usize> = (0..w).collect();
            // All cross-thread state is ordered by the rendezvous; the
            // atomics need no ordering of their own.
            pool.map(&jobs, |_| {
                let _poison = PoisonOnUnwind(&rendezvous);
                loop {
                    loop {
                        let i = claim.fetch_add(1, Ordering::Relaxed);
                        if i >= r {
                            break;
                        }
                        let horizon = horizons[i].load(Ordering::Relaxed);
                        runners[i]
                            .lock()
                            .expect("region lock")
                            .run_round(horizon, deadline_ns);
                    }
                    let met = rendezvous.arrive(|| {
                        let mut coordinator = coordinator.lock().expect("coordinator lock");
                        done.store(coordinator.advance(), Ordering::Relaxed);
                        for (shared, &h) in horizons.iter().zip(&coordinator.horizon) {
                            shared.store(h, Ordering::Relaxed);
                        }
                        claim.store(0, Ordering::Relaxed);
                    });
                    // A panicked worker never arrives: leave, and let
                    // `Pool::map` re-raise its panic on the caller.
                    if !met || done.load(Ordering::Relaxed) {
                        return;
                    }
                }
            });
        }
        self.region_stats = coordinator.stats;

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
            let ctx = core.region.take().expect("region ctx");
            for (at, key, event) in core.sched.drain_all_ordered() {
                // Drop the non-owner's replica of a leftover LinkAdmin.
                if ctx.owns(&event, &core.links) {
                    leftovers.push((at, key, event));
                }
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
    use crate::{fnv1a, Ctx, Device, Frame, LinkSpec, NodeId, PortId, TapDirection, World};
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
                fnv1a(e.frame),
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
        let map = RegionMap::partition(&w.core, regions);
        assert_eq!(map.regions() as usize, regions);
        (0..SPARSE_NODES)
            .find(|&i| map.region_of(NodeId(i as u32)) == 1)
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

    /// `parties` threads meet `generations` times; the leader bumps a
    /// shared counter with a plain load-then-store, and every party must
    /// read exactly the generation count after each meeting.
    fn rendezvous_counts_exactly(parties: usize, spin: u32, generations: u64) {
        let rendezvous = Rendezvous::new(parties, spin);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for generation in 1..=generations {
                        let met = rendezvous.arrive(|| {
                            let seen = counter.load(Ordering::Relaxed);
                            counter.store(seen + 1, Ordering::Relaxed);
                        });
                        assert!(met);
                        assert_eq!(counter.load(Ordering::Relaxed), generation);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), generations);
    }

    #[test]
    fn rendezvous_leader_runs_alone_and_releases_everyone() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Park path only.
        rendezvous_counts_exactly(4, 0, 20_000);
        // Spin path only: never parks, so it needs a CPU per party (the
        // gate `run_until_parallel` applies).
        rendezvous_counts_exactly(cpus.min(4), u32::MAX, 20_000);
        // Spin, then park: the hand-over between the two.
        rendezvous_counts_exactly(4, SPIN_POLLS, 20_000);
    }

    #[test]
    fn poisoned_rendezvous_turns_waiters_away() {
        let rendezvous = Rendezvous::new(2, 0);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| rendezvous.arrive(|| unreachable!("never met")));
            // Whether the waiter is parked yet or not, it must see this.
            rendezvous.poison();
            assert!(!waiter.join().expect("waiter thread"));
        });
        assert!(!rendezvous.arrive(|| unreachable!("poisoned")));
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
