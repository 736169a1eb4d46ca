//! The rounds of a region-parallel run: the coordination between rounds
//! ([`Coordinator`]), the workers' meeting point ([`Rendezvous`]), and
//! [`run_rounds`], which hosts both on the caller's thread and the pool.
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
//! horizon; the safe horizon's progress argument (`partition`) makes at
//! least one region runnable until the run is done. A round costs what its
//! parallelism is worth:
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
//! [`World::region_stats`](crate::World::region_stats) reports how many
//! rounds of each kind a run took.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use netco_harness::Pool;
use netco_sim::SimTime;
use netco_telemetry::Counter;

use super::partition::{safe_horizons_into, RegionMap};
use crate::event_loop::WorldCore;
use crate::substrate::OutMsg;

/// What one [`World::run_until_parallel`](crate::World::run_until_parallel)
/// call did, round by round.
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

/// Runs `shard`'s part of a round: every pending event with
/// `t <= deadline && t < horizon`, through the world's own tick loop,
/// counted into `events`. The bound is strict below the horizon: a tick
/// exactly at the horizon could still gain same-timestamp cross-region
/// arrivals that must merge into it in key order. Horizons are at least
/// 1 ns because cut latencies are positive.
fn run_round(shard: &Mutex<WorldCore>, horizon: u64, deadline_ns: u64, events: &Counter) {
    let until = SimTime::from_nanos(deadline_ns.min(horizon - 1));
    let mut core = shard.lock().expect("region lock");
    events.add(core.run_ticks(until, |_| {}));
}

/// The coordination phase and its per-run state: runs between rounds on
/// whichever thread arrived last, with every region at rest.
struct Coordinator<'a> {
    shards: &'a [Mutex<WorldCore>],
    map: &'a RegionMap,
    deadline_ns: u64,
    events: &'a Counter,
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
                    run_round(
                        &self.shards[solo],
                        self.horizon[solo],
                        self.deadline_ns,
                        self.events,
                    );
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
    /// ascending order and each outbox in send order (see the `region`
    /// module docs), then reads every region's earliest pending event.
    fn drain(&mut self) {
        for src in self.shards {
            {
                let mut src = src.lock().expect("region lock");
                let outboxes = &mut src.sub.region.as_mut().expect("region ctx").outboxes;
                for (outbox, inbox) in outboxes.iter_mut().zip(&mut self.inbox) {
                    std::mem::swap(outbox, inbox);
                }
            }
            for (dst, inbox) in self.shards.iter().zip(&mut self.inbox) {
                if inbox.is_empty() {
                    continue;
                }
                self.stats.cross_region_events += inbox.len() as u64;
                let mut dst = dst.lock().expect("region lock");
                for (at, key, event) in inbox.drain(..) {
                    dst.sub
                        .sched
                        .schedule_at_keyed(SimTime::from_nanos(at), key, event);
                }
            }
        }
        for (earliest, shard) in self.earliest.iter_mut().zip(self.shards) {
            let next = shard.lock().expect("region lock").sub.sched.peek_time();
            *earliest = next.map_or(u64::MAX, SimTime::as_nanos);
        }
    }
}

/// Runs rounds on `shards` until nothing due by `deadline` is left, adding
/// the events each region owns to `events`. The coordinator opens the run
/// on this thread; only if a round with two or more runnable regions turns
/// up does one `pool.map` call host the rest. Jobs are worker indices;
/// every job enters the same rendezvous-paced loop, so each of the `w` map
/// workers executes exactly one job (a job blocks at its first rendezvous
/// until all `w` are running, so no thread can ever claim two). Regions
/// are claimed per round through an atomic counter for dynamic load
/// balance.
pub(super) fn run_rounds(
    shards: &[Mutex<WorldCore>],
    map: &RegionMap,
    deadline: SimTime,
    pool: &Pool,
    events: &Counter,
) -> RegionRunStats {
    let deadline_ns = deadline.as_nanos();
    let r = shards.len();
    let w = pool.threads().min(r);
    let mut coordinator = Coordinator {
        shards,
        map,
        deadline_ns,
        events,
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
                    run_round(&shards[i], horizon, deadline_ns, events);
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
    coordinator.stats
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // gate `run_rounds` applies).
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
}
