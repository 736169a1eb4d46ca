//! The protocol-agnostic voting logic shared by every compare deployment.

use netco_net::Frame;
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::{Counter, Gauge, TelemetrySink};
use std::cell::Cell;
use std::vec::Drain;

use super::cache::{CacheEntry, Observed, PacketCache};
use crate::config::{
    CompareConfig, Mode, BLOCK_DURATION, CLEANUP_COST_PER_ENTRY, DOS_REPEAT_THRESHOLD,
};
use crate::events::{EventCounts, SecurityEvent};
use crate::supervisor::LaneSupervisor;

/// Description of one *lane*: the traffic of one guard attached to the
/// compare (the paper's compare serves both `s1` and `s2`, whose buffers
/// "should be logically isolated").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInfo {
    /// The guard's replica ingress ports (length `k`).
    pub replica_ports: Vec<u16>,
    /// The guard port toward the protected host/network — where released
    /// packets should be output.
    pub host_port: u16,
}

/// What the embedding (device, controller app, inband guard) must do in
/// response to an observation or sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareAction {
    /// Emit one copy of `frame`, to be output on the guard's `host_port`.
    Release {
        /// The lane the packet belongs to.
        lane: u16,
        /// The guard port to output on.
        host_port: u16,
        /// The released frame (memo intact: its fingerprint was computed
        /// at most once on the way in and is reused on the way out).
        frame: Frame,
        /// When the released frame's first copy arrived.
        first_seen: SimTime,
    },
    /// Advise the guard to block a replica port for `duration`.
    BlockReplicaPort {
        /// The lane concerned.
        lane: u16,
        /// The replica port to block.
        port: u16,
        /// Block length.
        duration: SimDuration,
    },
    /// The compare just did `duration` of bookkeeping work (cache
    /// cleanup); the embedding should delay subsequent output accordingly.
    Stall {
        /// The lane whose cache was cleaned.
        lane: u16,
        /// Modeled processing pause.
        duration: SimDuration,
    },
}

/// Aggregate compare statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompareStats {
    /// Copies received (all replicas).
    pub received: u64,
    /// Packets released toward the destination.
    pub released: u64,
    /// Late copies ignored after release (paper: "if additional packets
    /// ... arrive later, they are ignored").
    pub suppressed_duplicates: u64,
    /// Entries that expired without winning a majority (dropped).
    pub expired_unreleased: u64,
    /// DoS advisories issued.
    pub dos_advices: u64,
    /// Cleanup sweeps run.
    pub cleanups: u64,
    /// Entries evicted by cleanups.
    pub evicted: u64,
    /// Copies arriving on ports not registered for the lane.
    pub unknown_port: u64,
    /// High-water mark of live cache entries across all lanes.
    pub peak_cache_entries: u64,
    /// Per-kind counters of every [`SecurityEvent`] this compare emitted.
    pub events: EventCounts,
}

/// One compare statistic: a plain count, which [`CompareStats`] reads,
/// mirrored into a registry counter once [`CompareCore::set_telemetry`]
/// adopts it. Until then the registry handle is disabled, so a compare
/// without telemetry allocates nothing for it and counts with no atomic.
#[derive(Debug, Default)]
struct Stat {
    /// A `Cell` so that code holding `&StatCells` can count.
    n: Cell<u64>,
    registry: Counter,
}

impl Stat {
    fn inc(&self) {
        self.add(1);
    }

    fn add(&self, n: u64) {
        self.n.set(self.n.get() + n);
        self.registry.add(n);
    }

    fn get(&self) -> u64 {
        self.n.get()
    }

    /// Registers this statistic as `name`, carrying over its count so far.
    fn adopt(&mut self, sink: &TelemetrySink, name: &str) {
        sink.adopt_counter(name, &mut self.registry);
        self.registry.add(self.get());
    }
}

/// A last-value statistic with its high-water mark; mirrored into a
/// registry gauge like [`Stat`].
#[derive(Debug, Default)]
struct Level {
    value: u64,
    peak: u64,
    registry: Gauge,
}

impl Level {
    fn set(&mut self, value: u64) {
        self.value = value;
        self.peak = self.peak.max(value);
        self.registry.set(value);
    }

    /// Registers this statistic as `name`, carrying over its value and
    /// its peak so far.
    fn adopt(&mut self, sink: &TelemetrySink, name: &str) {
        sink.adopt_gauge(name, &mut self.registry);
        // The peak first: the gauge keeps the larger peak either way.
        self.registry.set(self.peak);
        self.registry.set(self.value);
    }
}

/// The statistics behind [`CompareStats`], kept by the core itself so that
/// the [`CompareCore::stats`] façade works with or without an installed
/// [`TelemetrySink`]; [`CompareCore::set_telemetry`] mirrors them into
/// the world registry under scoped `compare.<scope>.*` names without
/// losing counts accumulated before installation.
#[derive(Debug, Default)]
struct StatCells {
    received: Stat,
    released: Stat,
    suppressed_duplicates: Stat,
    expired_unreleased: Stat,
    dos_advices: Stat,
    cleanups: Stat,
    evicted: Stat,
    unknown_port: Stat,
    /// Entries that expired unreleased out of a *sweep* (the paper's hold
    /// timeout), as opposed to capacity eviction.
    hold_timeouts: Stat,
    /// Live cache entries of the lane last touched; its peak is the
    /// [`CompareStats::peak_cache_entries`] high-water mark.
    cache_entries: Level,
}

/// Why an entry left the cache for good (lifecycle drop attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RemovalCause {
    /// Expired after `hold_time` (sweep).
    Expired,
    /// Evicted by a capacity cleanup.
    Evicted,
}

impl RemovalCause {
    fn slug(self) -> &'static str {
        match self {
            RemovalCause::Expired => "hold_timeout",
            RemovalCause::Evicted => "cache_evicted",
        }
    }
}

#[derive(Debug)]
struct Lane {
    info: LaneInfo,
    cache: PacketCache,
    consecutive_miss: Vec<u32>,
    alarmed_down: Vec<bool>,
    /// Self-healing state machine; present when the config carries a
    /// [`SupervisorConfig`](crate::SupervisorConfig).
    supervisor: Option<LaneSupervisor>,
}

/// The NetCo compare: majority voting over per-lane packet caches, with
/// bounded hold times, DoS containment and replica-liveness alarms.
///
/// `CompareCore` is deliberately free of any I/O: embeddings translate the
/// [`CompareAction`]s a call hands back into their transport
/// (OpenFlow-over-link, controller packet-outs, or direct forwarding for
/// the inband variant). The actions are queued in one buffer the core
/// keeps and handed back as a [`Drain`] of it, so a call allocates no
/// action list; the security events a call raises wait in another (see
/// [`CompareCore::events`]).
#[derive(Debug)]
pub struct CompareCore {
    cfg: CompareConfig,
    /// Sorted by lane id: a sweep walks the lanes in id order.
    lanes: Vec<(u16, Lane)>,
    cells: StatCells,
    event_counts: EventCounts,
    telemetry: TelemetrySink,
    /// The actions of the current call, drained by its caller.
    pub(super) actions: Vec<CompareAction>,
    /// The security events of the current call, in emission order: the
    /// host moves them into its log.
    pub(super) events: Vec<SecurityEvent>,
}

impl CompareCore {
    /// Creates a compare with no lanes attached.
    pub fn new(cfg: CompareConfig) -> CompareCore {
        CompareCore {
            cfg,
            lanes: Vec::new(),
            cells: StatCells::default(),
            event_counts: EventCounts::default(),
            telemetry: TelemetrySink::disabled(),
            actions: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Where lane `lane` sits in `lanes`, or where it would be inserted.
    fn lane_slot(&self, lane: u16) -> Result<usize, usize> {
        self.lanes.binary_search_by_key(&lane, |&(id, _)| id)
    }

    fn lane(&self, lane: u16) -> Option<&Lane> {
        let slot = self.lane_slot(lane).ok()?;
        Some(&self.lanes[slot].1)
    }

    /// The configuration in effect.
    pub(crate) fn config(&self) -> &CompareConfig {
        &self.cfg
    }

    /// Aggregate statistics, read from the core's own counts.
    pub fn stats(&self) -> CompareStats {
        CompareStats {
            received: self.cells.received.get(),
            released: self.cells.released.get(),
            suppressed_duplicates: self.cells.suppressed_duplicates.get(),
            expired_unreleased: self.cells.expired_unreleased.get(),
            dos_advices: self.cells.dos_advices.get(),
            cleanups: self.cells.cleanups.get(),
            evicted: self.cells.evicted.get(),
            unknown_port: self.cells.unknown_port.get(),
            peak_cache_entries: self.cells.cache_entries.peak,
            events: self.event_counts,
        }
    }

    /// Installs a telemetry sink: the statistics are mirrored into the
    /// registry under `compare.<scope>.*` (carrying over anything counted
    /// so far), and packet verdicts start feeding the sink's packet
    /// lifecycle recorder. `scope` should name the hosting device (node
    /// name) so two compares in one world never collide. Only the first
    /// enabled sink is installed: a second would carry the counts over
    /// twice.
    pub(crate) fn set_telemetry(&mut self, sink: &TelemetrySink, scope: &str) {
        if !sink.is_enabled() || self.telemetry.is_enabled() {
            return;
        }
        let cells = &mut self.cells;
        let counters = [
            ("received", &mut cells.received),
            ("released", &mut cells.released),
            ("suppressed_duplicates", &mut cells.suppressed_duplicates),
            ("expired_unreleased", &mut cells.expired_unreleased),
            ("dos_advices", &mut cells.dos_advices),
            ("cleanups", &mut cells.cleanups),
            ("evicted", &mut cells.evicted),
            ("unknown_port", &mut cells.unknown_port),
            ("hold_timeouts", &mut cells.hold_timeouts),
        ];
        for (name, stat) in counters {
            stat.adopt(sink, &format!("compare.{scope}.{name}"));
        }
        cells
            .cache_entries
            .adopt(sink, &format!("compare.{scope}.cache_entries"));
        self.telemetry = sink.clone();
    }

    /// Registers (or replaces) a lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane's replica port count differs from the configured
    /// `k`.
    pub fn attach_lane(&mut self, lane: u16, info: LaneInfo) {
        assert_eq!(
            info.replica_ports.len(),
            self.cfg.k,
            "lane must have exactly k replica ports"
        );
        let k = info.replica_ports.len();
        let supervisor = self
            .cfg
            .supervisor
            .clone()
            .map(|sup_cfg| LaneSupervisor::new(sup_cfg, k));
        let state = Lane {
            info,
            cache: PacketCache::new(),
            consecutive_miss: vec![0; k],
            alarmed_down: vec![false; k],
            supervisor,
        };
        match self.lane_slot(lane) {
            Ok(slot) => self.lanes[slot].1 = state,
            Err(slot) => self.lanes.insert(slot, (lane, state)),
        }
    }

    /// Replica ports of `lane` currently quarantined by the supervisor
    /// (empty for unknown lanes or without a supervisor).
    pub fn quarantined_ports(&self, lane: u16) -> Vec<u16> {
        let Some(l) = self.lane(lane) else {
            return Vec::new();
        };
        let Some(sup) = &l.supervisor else {
            return Vec::new();
        };
        l.info
            .replica_ports
            .iter()
            .enumerate()
            .filter(|&(idx, _)| sup.is_quarantined(idx))
            .map(|(_, &p)| p)
            .collect()
    }

    /// Whether `lane` currently runs with degraded (detection) semantics
    /// because too few replicas are healthy for prevention.
    #[cfg(test)]
    pub(crate) fn lane_degraded(&self, lane: u16) -> bool {
        self.lane(lane)
            .and_then(|l| l.supervisor.as_ref())
            .is_some_and(|s| s.degraded())
    }

    /// The release quorum currently in force on `lane`: the configured
    /// `CompareConfig::release_threshold` without a supervisor, the
    /// healthy-set quorum with one.
    pub fn active_release_threshold(&self, lane: u16) -> usize {
        match self.lane(lane).and_then(|l| l.supervisor.as_ref()) {
            Some(sup) => sup.active_release_threshold(&self.cfg),
            None => self.cfg.release_threshold(),
        }
    }

    /// Live cache size of a lane (0 for unknown lanes).
    pub fn cache_len(&self, lane: u16) -> usize {
        self.lane(lane).map_or(0, |l| l.cache.len())
    }

    /// Records one copy arriving on `lane` from replica ingress `in_port`.
    /// Returns the actions the embedding must carry out, in order; what
    /// the caller leaves in the drain is dropped with it. The events the
    /// call raised replace the previous call's in
    /// [`events`](CompareCore::events).
    pub fn observe(
        &mut self,
        lane_id: u16,
        in_port: u16,
        frame: impl Into<Frame>,
        now: SimTime,
    ) -> Drain<'_, CompareAction> {
        self.events.clear();
        self.record(lane_id, in_port, frame.into(), now);
        self.actions.drain(..)
    }

    /// The security events the last [`observe`](CompareCore::observe) or
    /// [`sweep`](CompareCore::sweep) raised, in emission order.
    pub fn events(&self) -> &[SecurityEvent] {
        &self.events
    }

    /// [`observe`](CompareCore::observe)'s work: its actions go into
    /// `self.actions`, its events into `self.events`.
    pub(super) fn record(&mut self, lane_id: u16, in_port: u16, frame: Frame, now: SimTime) {
        let Ok(slot) = self.lane_slot(lane_id) else {
            self.cells.unknown_port.inc();
            return;
        };
        let actions = &mut self.actions;
        let events = &mut self.events;
        let release_threshold = self.cfg.release_threshold();
        let lane = &mut self.lanes[slot].1;
        let Some(replica_idx) = lane.info.replica_ports.iter().position(|&p| p == in_port) else {
            self.cells.unknown_port.inc();
            return;
        };
        self.cells.received.inc();
        if self.telemetry.is_enabled() {
            // Memoized: the same fingerprint the compare key uses below.
            self.telemetry
                .lifecycle_observe(frame.fp128(), now.as_nanos());
        }

        // Capacity cleanup before inserting (paper §V: "once the packet
        // cache is full, a clean up procedure starts").
        if lane.cache.len() >= self.cfg.cache_capacity {
            let target = self.cfg.cache_capacity / 2;
            let evicted = lane.cache.cleanup(target);
            let n = evicted.len();
            self.cells.cleanups.inc();
            self.cells.evicted.add(n as u64);
            actions.push(CompareAction::Stall {
                lane: lane_id,
                duration: CLEANUP_COST_PER_ENTRY * n as u64,
            });
            Self::emit(
                &mut self.event_counts,
                events,
                SecurityEvent::CacheCleanup {
                    lane: lane_id,
                    evicted: n,
                },
            );
            for (_, entry) in evicted {
                Self::account_removed_entry(
                    &self.cfg,
                    lane_id,
                    lane,
                    entry,
                    now,
                    RemovalCause::Evicted,
                    events,
                    &self.cells,
                    &mut self.event_counts,
                    &self.telemetry,
                );
            }
        }

        let key = self.cfg.strategy.key(&frame);
        let (key, observed) = lane.cache.observe(key, replica_idx, &frame, now);
        self.cells.cache_entries.set(lane.cache.len() as u64);
        match observed {
            Observed::New | Observed::AdditionalPort { .. } => {
                let (distinct, released) = match observed {
                    Observed::New => (1, false),
                    Observed::AdditionalPort { distinct, released } => (distinct, released),
                    Observed::Repeat { .. } => unreachable!(),
                };
                if released {
                    self.cells.suppressed_duplicates.inc();
                } else {
                    // Quorum over the healthy set: with quarantined
                    // replicas, their copies are shadow-compared but do
                    // not count toward release, and the threshold is
                    // recomputed over the healthy replicas.
                    let (effective_distinct, threshold) = match &lane.supervisor {
                        Some(sup) if sup.any_quarantined() => {
                            let entry = lane.cache.entry(&key).expect("entry just observed");
                            let healthy_distinct = lane
                                .info
                                .replica_ports
                                .iter()
                                .enumerate()
                                .filter(|&(idx, _)| {
                                    !sup.is_quarantined(idx) && entry.delivered(idx)
                                })
                                .count();
                            (healthy_distinct, sup.active_release_threshold(&self.cfg))
                        }
                        _ => (distinct, release_threshold),
                    };
                    if effective_distinct >= threshold {
                        if let Some((out, first_seen)) = lane.cache.mark_released(&key) {
                            self.cells.released.inc();
                            if self.telemetry.is_enabled() {
                                self.telemetry
                                    .lifecycle_release(out.fp128(), now.as_nanos());
                            }
                            if !self.cfg.passive {
                                actions.push(CompareAction::Release {
                                    lane: lane_id,
                                    host_port: lane.info.host_port,
                                    frame: out,
                                    first_seen,
                                });
                            } else {
                                let _ = out;
                            }
                        }
                    }
                }
            }
            Observed::Repeat { count, released } => {
                if released {
                    self.cells.suppressed_duplicates.inc();
                }
                if count >= DOS_REPEAT_THRESHOLD && lane.cache.mark_dos_advised(&key) {
                    self.cells.dos_advices.inc();
                    Self::emit(
                        &mut self.event_counts,
                        events,
                        SecurityEvent::DosSuspected {
                            lane: lane_id,
                            port: in_port,
                            repeats: count,
                        },
                    );
                    actions.push(CompareAction::BlockReplicaPort {
                        lane: lane_id,
                        port: in_port,
                        duration: BLOCK_DURATION,
                    });
                    Self::emit(
                        &mut self.event_counts,
                        events,
                        SecurityEvent::PortBlocked {
                            lane: lane_id,
                            port: in_port,
                        },
                    );
                    // A DoS alarm is attributable: it strikes the replica.
                    if let Some(sup) = lane.supervisor.as_mut() {
                        let mut transitions = Vec::new();
                        sup.note_strike(
                            lane_id,
                            replica_idx,
                            in_port,
                            now,
                            &self.cfg,
                            &mut transitions,
                        );
                        for ev in transitions {
                            Self::emit(&mut self.event_counts, events, ev);
                        }
                    }
                }
            }
        }
    }

    /// Expires overdue cache entries on every lane, in lane-id order; call
    /// periodically (e.g. every `hold_time / 4`). A sweep raises events
    /// (alarms for what expired unreleased) and no action; one that finds
    /// nothing due reads the oldest entry's age per lane and allocates
    /// nothing. Its events replace the previous call's in
    /// [`events`](CompareCore::events).
    pub fn sweep(&mut self, now: SimTime) {
        self.events.clear();
        self.expire(now);
    }

    /// [`sweep`](CompareCore::sweep)'s work: its events go into
    /// `self.events`.
    pub(super) fn expire(&mut self, now: SimTime) {
        let hold = self.cfg.hold_time;
        for (lane_id, lane) in &mut self.lanes {
            while let Some((_, entry)) = lane.cache.pop_expired(now, hold) {
                Self::account_removed_entry(
                    &self.cfg,
                    *lane_id,
                    lane,
                    entry,
                    now,
                    RemovalCause::Expired,
                    &mut self.events,
                    &self.cells,
                    &mut self.event_counts,
                    &self.telemetry,
                );
            }
        }
    }

    /// Counts an event and appends it to the call's events.
    fn emit(counts: &mut EventCounts, events: &mut Vec<SecurityEvent>, event: SecurityEvent) {
        counts.note(&event);
        events.push(event);
    }

    /// Miss/alarm bookkeeping when an entry leaves the cache for good.
    ///
    /// Runs for every expiry and eviction; the entry's port list is
    /// spelled out (one `Vec`) only for an event that reports it.
    #[allow(clippy::too_many_arguments)]
    fn account_removed_entry(
        cfg: &CompareConfig,
        lane_id: u16,
        lane: &mut Lane,
        entry: CacheEntry,
        now: SimTime,
        cause: RemovalCause,
        events: &mut Vec<SecurityEvent>,
        cells: &StatCells,
        event_counts: &mut EventCounts,
        telemetry: &TelemetrySink,
    ) {
        // Liveness first (it only reads the ports): replicas that did not
        // deliver this packet accumulate consecutive misses; replicas that
        // delivered reset them. Alarms are buffered so the emitted event
        // order (mismatch/single-path event, then liveness events) is
        // unchanged; the buffer allocates nothing in the common quiet case.
        let mut liveness = Vec::new();
        // Replica indices freshly alarmed down by this entry (they strike).
        let mut fresh_down = Vec::new();
        for (idx, &port) in lane.info.replica_ports.iter().enumerate() {
            if entry.delivered(idx) {
                lane.consecutive_miss[idx] = 0;
                if lane.alarmed_down[idx] {
                    lane.alarmed_down[idx] = false;
                    let ev = SecurityEvent::ReplicaRecovered {
                        lane: lane_id,
                        port,
                    };
                    event_counts.note(&ev);
                    liveness.push(ev);
                }
            } else {
                lane.consecutive_miss[idx] += 1;
                if lane.consecutive_miss[idx] >= cfg.miss_alarm_threshold && !lane.alarmed_down[idx]
                {
                    lane.alarmed_down[idx] = true;
                    fresh_down.push(idx);
                    let ev = SecurityEvent::ReplicaSuspectedDown {
                        lane: lane_id,
                        port,
                    };
                    event_counts.note(&ev);
                    liveness.push(ev);
                }
            }
        }
        // Supervisor pass (reads the port list before it is moved into the
        // primary event below): strikes from attributable alarms, shadow
        // agreement bookkeeping for quarantined replicas.
        let mut transitions = Vec::new();
        if let Some(sup) = lane.supervisor.as_mut() {
            if !entry.released {
                // This entry expired unreleased: every port that delivered
                // it is a single-path suspect and strikes (for quarantined
                // replicas the strike resets their probation streak).
                for (idx, &port) in lane.info.replica_ports.iter().enumerate() {
                    if entry.delivered(idx) {
                        sup.note_strike(lane_id, idx, port, now, cfg, &mut transitions);
                    }
                }
            }
            for &idx in &fresh_down {
                let port = lane.info.replica_ports[idx];
                sup.note_strike(lane_id, idx, port, now, cfg, &mut transitions);
            }
            if entry.released {
                // The released bytes are the healthy majority's verdict:
                // a quarantined replica's shadow copy either matched it
                // (it shares the entry) or went missing/diverged.
                for (idx, &port) in lane.info.replica_ports.iter().enumerate() {
                    if !sup.is_quarantined(idx) {
                        continue;
                    }
                    if entry.delivered(idx) {
                        sup.note_shadow_agreement(lane_id, idx, port, now, &mut transitions);
                    } else {
                        sup.note_shadow_disagreement(idx);
                    }
                }
            }
        }
        if entry.released {
            // Mismatch accounting runs against the semantics currently in
            // force: the healthy set and, for degraded prevention lanes,
            // detection-mode expectations.
            let (active_mode, expected) = match &lane.supervisor {
                Some(sup) => (sup.active_mode(cfg), sup.healthy_count()),
                None => (cfg.mode, cfg.k),
            };
            let healthy_delivered = match &lane.supervisor {
                Some(sup) if sup.any_quarantined() => lane
                    .info
                    .replica_ports
                    .iter()
                    .enumerate()
                    .filter(|&(idx, _)| !sup.is_quarantined(idx) && entry.delivered(idx))
                    .count(),
                _ => entry.distinct_ports(),
            };
            if active_mode == Mode::Detect && healthy_delivered < expected {
                Self::emit(
                    event_counts,
                    events,
                    SecurityEvent::DetectionMismatch {
                        lane: lane_id,
                        delivering_ports: entry.ports(&lane.info.replica_ports),
                    },
                );
            }
        } else {
            cells.expired_unreleased.inc();
            if cause == RemovalCause::Expired {
                cells.hold_timeouts.inc();
            }
            if telemetry.is_enabled() {
                // The entry's frame carries the fingerprint computed when
                // its compare key was derived — no re-hash on expiry.
                telemetry.lifecycle_drop(entry.frame.fp128(), now.as_nanos(), cause.slug());
            }
            Self::emit(
                event_counts,
                events,
                SecurityEvent::SinglePathPacket {
                    lane: lane_id,
                    suspect_ports: entry.ports(&lane.info.replica_ports),
                },
            );
        }
        events.extend(liveness);
        for ev in transitions {
            Self::emit(event_counts, events, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::strategy::CompareStrategy;
    use bytes::Bytes;

    fn core(k: usize) -> CompareCore {
        let mut c = CompareCore::new(
            CompareConfig::prevent(k).with_hold_time(SimDuration::from_millis(10)),
        );
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: (1..=k as u16).collect(),
                host_port: 100,
            },
        );
        c
    }

    fn pkt(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 60])
    }

    /// [`CompareCore::observe`]'s actions, collected.
    fn observe(
        c: &mut CompareCore,
        lane: u16,
        port: u16,
        frame: Bytes,
        now: SimTime,
    ) -> Vec<CompareAction> {
        c.observe(lane, port, frame, now).collect()
    }

    fn releases(actions: &[CompareAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, CompareAction::Release { .. }))
            .count()
    }

    #[test]
    fn majority_releases_exactly_once_k3() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        assert_eq!(releases(&observe(&mut c, 0, 1, pkt(1), t)), 0);
        let a = observe(&mut c, 0, 2, pkt(1), t);
        assert_eq!(releases(&a), 1);
        match &a[0] {
            CompareAction::Release { host_port, .. } => assert_eq!(*host_port, 100),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(releases(&observe(&mut c, 0, 3, pkt(1), t)), 0);
        assert_eq!(c.stats().released, 1);
        assert_eq!(c.stats().suppressed_duplicates, 1);
    }

    #[test]
    fn majority_is_three_for_k5() {
        let mut c = core(5);
        let t = SimTime::ZERO;
        assert_eq!(releases(&observe(&mut c, 0, 1, pkt(1), t)), 0);
        assert_eq!(releases(&observe(&mut c, 0, 2, pkt(1), t)), 0);
        assert_eq!(releases(&observe(&mut c, 0, 3, pkt(1), t)), 1);
    }

    #[test]
    fn modified_copy_never_wins() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        // One malicious replica modifies the packet: its copy differs.
        observe(&mut c, 0, 1, pkt(1), t);
        let evil = Bytes::from(vec![9u8; 60]);
        assert_eq!(releases(&observe(&mut c, 0, 2, evil, t)), 0);
        // The two honest copies still win.
        assert_eq!(releases(&observe(&mut c, 0, 3, pkt(1), t)), 1);
        // The malicious copy expires unsent and raises an alarm.
        c.sweep(t + SimDuration::from_millis(10));
        assert!(c.events().iter().any(|e| matches!(
            e,
            SecurityEvent::SinglePathPacket { suspect_ports, .. } if suspect_ports == &vec![2]
        )));
        assert_eq!(c.stats().expired_unreleased, 1);
    }

    #[test]
    fn dropped_copy_still_releases_via_other_two() {
        // Paper case study: "only two copies of each response reached the
        // compare. However since two out of three constitutes a majority,
        // one copy ... was released".
        let mut c = core(3);
        let t = SimTime::ZERO;
        observe(&mut c, 0, 1, pkt(1), t);
        assert_eq!(releases(&observe(&mut c, 0, 3, pkt(1), t)), 1);
    }

    #[test]
    fn single_port_packet_expires_unsent() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        assert_eq!(releases(&observe(&mut c, 0, 2, pkt(7), t)), 0);
        c.sweep(t + SimDuration::from_millis(10));
        assert_eq!(c.stats().expired_unreleased, 1);
        assert!(c
            .events()
            .iter()
            .any(|e| matches!(e, SecurityEvent::SinglePathPacket { .. })));
        assert_eq!(c.stats().released, 0);
    }

    #[test]
    fn detect_mode_releases_first_copy_and_alarms_on_mismatch() {
        let mut c =
            CompareCore::new(CompareConfig::detect(2).with_hold_time(SimDuration::from_millis(10)));
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2],
                host_port: 9,
            },
        );
        let t = SimTime::ZERO;
        // First copy released immediately (performance).
        assert_eq!(releases(&observe(&mut c, 0, 1, pkt(1), t)), 1);
        // Second replica delivers a *different* packet: released too
        // (detection cannot prevent), but both entries later alarm.
        assert_eq!(releases(&observe(&mut c, 0, 2, pkt(2), t)), 1);
        c.sweep(t + SimDuration::from_millis(10));
        let mismatches = c
            .events()
            .iter()
            .filter(|e| matches!(e, SecurityEvent::DetectionMismatch { .. }))
            .count();
        assert_eq!(mismatches, 2);
    }

    #[test]
    fn detect_mode_agreement_is_quiet() {
        let mut c =
            CompareCore::new(CompareConfig::detect(2).with_hold_time(SimDuration::from_millis(10)));
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2],
                host_port: 9,
            },
        );
        let t = SimTime::ZERO;
        observe(&mut c, 0, 1, pkt(1), t);
        observe(&mut c, 0, 2, pkt(1), t);
        c.sweep(t + SimDuration::from_millis(10));
        assert!(!c
            .events()
            .iter()
            .any(|e| matches!(e, SecurityEvent::DetectionMismatch { .. })));
    }

    #[test]
    fn dos_repeats_trigger_block_advice_once() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        observe(&mut c, 0, 1, pkt(1), t);
        let mut advices = 0;
        for _ in 0..40 {
            let actions = observe(&mut c, 0, 1, pkt(1), t);
            advices += actions
                .iter()
                .filter(|a| matches!(a, CompareAction::BlockReplicaPort { .. }))
                .count();
        }
        assert_eq!(advices, 1, "advice must fire exactly once per entry");
        assert_eq!(c.stats().dos_advices, 1);
    }

    /// Pinned: `DosSuspected` fires on the 16th copy of one packet from one
    /// port, and the port block it advises lasts 500 ms.
    #[test]
    fn pinned_dos_advice_on_sixteenth_copy_blocks_for_500_ms() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        let (mut fired, mut blocks) = (Vec::new(), Vec::new());
        for copy in 1..=40u32 {
            for a in observe(&mut c, 0, 1, pkt(1), t) {
                if let CompareAction::BlockReplicaPort { port, duration, .. } = a {
                    blocks.push((copy, port, duration));
                }
            }
            for e in c.events() {
                if let SecurityEvent::DosSuspected { port, repeats, .. } = *e {
                    fired.push((copy, port, repeats));
                }
            }
        }
        assert_eq!(fired, vec![(16, 1, 16)]);
        assert_eq!(blocks, vec![(16, 1, SimDuration::from_millis(500))]);
    }

    #[test]
    fn replica_down_alarm_and_recovery() {
        let mut cfg = CompareConfig::prevent(3).with_hold_time(SimDuration::from_millis(1));
        cfg.miss_alarm_threshold = 3;
        let mut c = CompareCore::new(cfg);
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 9,
            },
        );
        let mut t = SimTime::ZERO;
        let mut down_alarms = 0;
        let mut recoveries = 0;
        // Replica 3 is silent for 3 packets.
        for i in 0..3u8 {
            observe(&mut c, 0, 1, pkt(i), t);
            observe(&mut c, 0, 2, pkt(i), t);
            t += SimDuration::from_millis(2);
            c.sweep(t);
            for e in c.events() {
                match *e {
                    SecurityEvent::ReplicaSuspectedDown { port, .. } => {
                        assert_eq!(port, 3);
                        down_alarms += 1;
                    }
                    SecurityEvent::ReplicaRecovered { .. } => recoveries += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(down_alarms, 1, "alarm exactly once");
        // Replica 3 comes back.
        observe(&mut c, 0, 1, pkt(50), t);
        observe(&mut c, 0, 2, pkt(50), t);
        observe(&mut c, 0, 3, pkt(50), t);
        t += SimDuration::from_millis(2);
        c.sweep(t);
        recoveries += c
            .events()
            .iter()
            .filter(|e| matches!(e, SecurityEvent::ReplicaRecovered { port: 3, .. }))
            .count();
        assert_eq!(recoveries, 1);
    }

    #[test]
    fn cache_capacity_triggers_cleanup_and_stall() {
        let mut c = CompareCore::new(CompareConfig::prevent(3).with_cache_capacity(8));
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 9,
            },
        );
        let t = SimTime::ZERO;
        let mut stalls = Vec::new();
        for i in 0..20u8 {
            for a in observe(&mut c, 0, 1, pkt(i), t) {
                if let CompareAction::Stall { duration, .. } = a {
                    stalls.push(duration);
                }
            }
        }
        assert!(!stalls.is_empty(), "cleanup must have fired");
        // The first cleanup halves the full cache: 4 of 8 entries go.
        assert_eq!(stalls[0], CLEANUP_COST_PER_ENTRY * 4);
        assert!(c.stats().cleanups >= 1);
        assert!(c.stats().evicted >= 4);
        assert!(c.cache_len(0) <= 8);
    }

    /// A bare core holds only the last call's events: `observe` and
    /// `sweep` clear them first, so a caller that never reads them (a
    /// timing loop) keeps at most one call's worth.
    #[test]
    fn bare_core_holds_only_the_last_calls_events() {
        let mut c = CompareCore::new(CompareConfig::prevent(3).with_cache_capacity(2));
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 9,
            },
        );
        let t = SimTime::ZERO;
        for i in 0..200u8 {
            observe(&mut c, 0, 1, pkt(i), t);
        }
        // From the third lone copy on, each observe evicts an earlier one.
        assert_eq!(c.stats().events.single_path, 198);
        assert_eq!(
            c.events(),
            [
                SecurityEvent::CacheCleanup {
                    lane: 0,
                    evicted: 1
                },
                SecurityEvent::SinglePathPacket {
                    lane: 0,
                    suspect_ports: vec![1]
                },
            ]
        );
        // Nothing is due yet: the sweep raises nothing and keeps nothing.
        c.sweep(t);
        assert!(c.events().is_empty());
    }

    #[test]
    fn unknown_lane_and_port_are_counted() {
        let mut c = core(3);
        assert!(observe(&mut c, 9, 1, pkt(1), SimTime::ZERO).is_empty());
        assert!(observe(&mut c, 0, 77, pkt(1), SimTime::ZERO).is_empty());
        assert_eq!(c.stats().unknown_port, 2);
        assert_eq!(c.stats().received, 0);
    }

    #[test]
    fn lanes_are_isolated() {
        let mut c = core(3);
        c.attach_lane(
            1,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 200,
            },
        );
        let t = SimTime::ZERO;
        // One copy on each lane: no majority anywhere despite two copies
        // total of the same bytes.
        assert_eq!(releases(&observe(&mut c, 0, 1, pkt(1), t)), 0);
        assert_eq!(releases(&observe(&mut c, 1, 2, pkt(1), t)), 0);
        // Completing the majority within lane 1 releases to lane 1's host.
        let a = observe(&mut c, 1, 3, pkt(1), t);
        assert_eq!(releases(&a), 1);
        match &a[0] {
            CompareAction::Release {
                lane, host_port, ..
            } => {
                assert_eq!((*lane, *host_port), (1, 200));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exactly k replica ports")]
    fn lane_must_match_k() {
        let mut c = core(3);
        c.attach_lane(
            5,
            LaneInfo {
                replica_ports: vec![1, 2],
                host_port: 9,
            },
        );
    }

    /// The byte-exact oracle: `HeaderOnly` with an unbounded prefix slices
    /// the whole frame, which is precisely the old `FullPacket` keying
    /// (`CompareKey::Bytes(frame)`).
    fn byte_exact_oracle_strategy() -> CompareStrategy {
        CompareStrategy::HeaderOnly { prefix: usize::MAX }
    }

    fn equivalence_core(strategy: CompareStrategy) -> CompareCore {
        let mut cfg = CompareConfig::prevent(3)
            .with_strategy(strategy)
            .with_hold_time(SimDuration::from_millis(10))
            .with_cache_capacity(16);
        cfg.miss_alarm_threshold = 3;
        let mut c = CompareCore::new(cfg);
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 100,
            },
        );
        c
    }

    proptest::proptest! {
        /// Fingerprinted `FullPacket` keying must release, suppress, advise
        /// and alarm exactly like byte-exact keying, action for action,
        /// across random interleavings of copies, repeats, cleanup
        /// pressure and expiry sweeps.
        #[test]
        fn fingerprint_keying_equals_byte_exact_keying(
            ops in proptest::collection::vec(
                (0u8..4, 0u8..6, 0u8..3, 0u8..8), 0..250
            )
        ) {
            let mut fp = equivalence_core(CompareStrategy::FullPacket);
            let mut oracle = equivalence_core(byte_exact_oracle_strategy());
            let mut now = SimTime::ZERO;
            for (port_sel, tag, len_sel, advance) in ops {
                if port_sel == 3 {
                    // Jump time and sweep both sides.
                    now += SimDuration::from_millis(advance as u64);
                    fp.sweep(now);
                    oracle.sweep(now);
                } else {
                    let frame = Bytes::from(vec![tag; 40 + 20 * len_sel as usize]);
                    let port = port_sel as u16 + 1;
                    proptest::prop_assert_eq!(
                        observe(&mut fp, 0, port, frame.clone(), now),
                        observe(&mut oracle, 0, port, frame, now)
                    );
                }
                proptest::prop_assert_eq!(fp.events(), oracle.events());
                proptest::prop_assert_eq!(fp.stats(), oracle.stats());
                proptest::prop_assert_eq!(fp.cache_len(0), oracle.cache_len(0));
            }
        }
    }

    #[test]
    fn supervisor_full_cycle_quarantine_degrade_probation_readmit_restore() {
        use crate::supervisor::SupervisorConfig;
        let mut cfg = CompareConfig::prevent(3)
            .with_hold_time(SimDuration::from_millis(1))
            .with_supervisor(
                SupervisorConfig::default()
                    .with_quarantine_strikes(1)
                    .with_probation_delay(SimDuration::from_millis(5))
                    .with_readmit_streak(3),
            );
        cfg.miss_alarm_threshold = 2;
        let mut c = CompareCore::new(cfg);
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 9,
            },
        );
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        /// Collects the events the last call raised.
        fn drive(events: &mut Vec<SecurityEvent>, c: &CompareCore) {
            events.extend_from_slice(c.events());
        }

        // Phase 1: replica 3 goes silent. Two expired entries without its
        // copy hit miss_alarm_threshold → down alarm → strike → quarantine
        // → degraded (healthy 2 < 3).
        for i in 0..2u8 {
            observe(&mut c, 0, 1, pkt(i), t);
            drive(&mut events, &c);
            observe(&mut c, 0, 2, pkt(i), t);
            drive(&mut events, &c);
            t += SimDuration::from_millis(2);
            c.sweep(t);
            drive(&mut events, &c);
        }
        assert_eq!(c.quarantined_ports(0), vec![3]);
        assert!(c.lane_degraded(0));
        assert_eq!(c.active_release_threshold(0), 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, SecurityEvent::ReplicaQuarantined { port: 3, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SecurityEvent::ModeDegraded { healthy: 2, .. })));

        // Phase 2: degraded detection — one healthy copy releases at once,
        // while a copy from the quarantined port alone never releases.
        let a = observe(&mut c, 0, 1, pkt(10), t);
        assert_eq!(
            releases(&a),
            1,
            "degraded lane releases on first healthy copy"
        );
        drive(&mut events, &c);
        observe(&mut c, 0, 2, pkt(10), t);
        drive(&mut events, &c);
        let a = observe(&mut c, 0, 3, pkt(11), t);
        assert_eq!(releases(&a), 0, "quarantined copies never win the quorum");
        drive(&mut events, &c);
        t += SimDuration::from_millis(2);
        c.sweep(t); // expires both; pkt(11) single-path
        drive(&mut events, &c);

        // Phase 3: replica 3 returns; agreeing shadow copies past the
        // probation gate rebuild trust and re-admit it. (The first round
        // sweeps before the probation window opens and does not count.)
        for i in 20..24u8 {
            observe(&mut c, 0, 1, pkt(i), t);
            drive(&mut events, &c);
            observe(&mut c, 0, 2, pkt(i), t);
            drive(&mut events, &c);
            observe(&mut c, 0, 3, pkt(i), t);
            drive(&mut events, &c);
            t += SimDuration::from_millis(2);
            c.sweep(t);
            drive(&mut events, &c);
        }
        assert!(c.quarantined_ports(0).is_empty());
        assert!(!c.lane_degraded(0));
        assert_eq!(c.active_release_threshold(0), 2);
        let order: Vec<usize> = [
            events
                .iter()
                .position(|e| matches!(e, SecurityEvent::ReplicaQuarantined { .. })),
            events
                .iter()
                .position(|e| matches!(e, SecurityEvent::ModeDegraded { .. })),
            events
                .iter()
                .position(|e| matches!(e, SecurityEvent::ReplicaProbation { .. })),
            events
                .iter()
                .position(|e| matches!(e, SecurityEvent::ReplicaReadmitted { .. })),
            events
                .iter()
                .position(|e| matches!(e, SecurityEvent::ModeRestored { .. })),
        ]
        .into_iter()
        .map(|p| p.expect("every lifecycle event fired"))
        .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "lifecycle order quarantine→degrade→probation→readmit→restore, got {order:?}"
        );
        let counts = c.stats().events;
        assert_eq!(counts.quarantines, 1);
        assert_eq!(counts.degradations, 1);
        assert_eq!(counts.probations, 1);
        assert_eq!(counts.readmissions, 1);
        assert_eq!(counts.restorations, 1);
        assert!(counts.alarms() >= 1);
    }

    #[test]
    fn event_counts_track_emitted_events() {
        let mut c = core(3);
        let t = SimTime::ZERO;
        observe(&mut c, 0, 2, pkt(7), t);
        c.sweep(t + SimDuration::from_millis(10));
        assert_eq!(c.stats().events.single_path, 1);
        assert_eq!(c.stats().events.alarms(), 1);
        // DoS repeats: DosSuspected + PortBlocked counted.
        let mut c = core(3);
        observe(&mut c, 0, 1, pkt(1), t);
        for _ in 0..40 {
            observe(&mut c, 0, 1, pkt(1), t);
        }
        assert_eq!(c.stats().events.dos_suspected, 1);
        assert_eq!(c.stats().events.port_blocked, 1);
    }

    #[test]
    fn digest_strategy_works_end_to_end() {
        let mut c =
            CompareCore::new(CompareConfig::prevent(3).with_strategy(CompareStrategy::Digest));
        c.attach_lane(
            0,
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 9,
            },
        );
        let t = SimTime::ZERO;
        observe(&mut c, 0, 1, pkt(1), t);
        assert_eq!(releases(&observe(&mut c, 0, 2, pkt(1), t)), 1);
    }
}
