//! The [`World`]: nodes, links, control channels and the event loop.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use netco_sim::{mix64, ActivationWindow, Scheduler, SimDuration, SimRng, SimTime, Tick};
use netco_telemetry::{Counter, Histogram, TelemetrySink};

use crate::cpu::CpuModel;
use crate::device::{Ctx, Device};
use crate::fault::{FaultKind, FaultPlan};
use crate::frame::Frame;
use crate::id::{LinkId, NodeId, PortId};
use crate::link::LinkSpec;
use crate::region::RegionRunStats;

/// Why a frame was dropped by the substrate (not by a device's own logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The link's transmit queue was full.
    LinkQueueFull,
    /// The receiving node's CPU queue was full.
    CpuQueueFull,
    /// The frame was sent on a port with no link attached.
    NoLink,
    /// The link is administratively/physically down.
    LinkDown,
    /// A control message was sent without a registered control channel.
    NoControlChannel,
    /// A scripted [`FaultPlan`](crate::FaultPlan) loss fault ate the frame.
    FaultInjected,
}

impl DropReason {
    /// Number of variants, sizing the dense drop-counter array.
    pub(crate) const COUNT: usize = 6;

    /// Canonical lower-snake-case slug, used as the metric-name suffix in
    /// telemetry snapshots (`net.drops.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            DropReason::LinkQueueFull => "link_queue_full",
            DropReason::CpuQueueFull => "cpu_queue_full",
            DropReason::NoLink => "no_link",
            DropReason::LinkDown => "link_down",
            DropReason::NoControlChannel => "no_control_channel",
            DropReason::FaultInjected => "fault_injected",
        }
    }
}

/// Byte/frame counters for one port of a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames delivered to the device from this port.
    pub rx_frames: u64,
    /// Bytes delivered to the device from this port.
    pub rx_bytes: u64,
    /// Frames the device transmitted on this port (before link drops).
    pub tx_frames: u64,
    /// Bytes the device transmitted on this port.
    pub tx_bytes: u64,
    /// Frames dropped on transmit (link queue full or no link).
    pub tx_dropped: u64,
    /// Frames dropped on receive (CPU queue full).
    pub rx_dropped: u64,
}

/// Counters for one node.
#[derive(Debug, Clone, Default)]
pub struct NodeCounters {
    // Dense per-port storage: `port_mut` sits on the per-event delivery
    // path, where an index beats a hash probe. Port numbers index the
    // vector directly, so devices should keep them small.
    ports: Vec<PortCounters>,
}

impl NodeCounters {
    /// Counters of one port (zeros if the port never saw traffic).
    pub fn port(&self, port: PortId) -> PortCounters {
        self.ports.get(port.0 as usize).copied().unwrap_or_default()
    }

    /// Sum of counters over all ports.
    pub fn total(&self) -> PortCounters {
        let mut t = PortCounters::default();
        for c in &self.ports {
            t.rx_frames += c.rx_frames;
            t.rx_bytes += c.rx_bytes;
            t.tx_frames += c.tx_frames;
            t.tx_bytes += c.tx_bytes;
            t.tx_dropped += c.tx_dropped;
            t.rx_dropped += c.rx_dropped;
        }
        t
    }

    fn port_mut(&mut self, port: PortId) -> &mut PortCounters {
        let idx = port.0 as usize;
        if idx >= self.ports.len() {
            self.ports.resize(idx + 1, PortCounters::default());
        }
        &mut self.ports[idx]
    }
}

/// Whether a tapped frame was entering or leaving the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDirection {
    /// Frame arriving at the node (tapped before CPU admission, like
    /// `tcpdump` on the interface).
    Rx,
    /// Frame leaving the node (tapped before link admission).
    Tx,
}

/// A frame observation handed to taps.
#[derive(Debug)]
pub struct TapEvent<'a> {
    /// Observation time.
    pub at: SimTime,
    /// Observed node.
    pub node: NodeId,
    /// Observed port.
    pub port: PortId,
    /// Direction relative to the node.
    pub direction: TapDirection,
    /// The raw frame bytes.
    pub frame: &'a Bytes,
}

type Tap = Box<dyn FnMut(&TapEvent<'_>)>;

/// One recorded tap observation. The substrate records observations into
/// [`TapRecorder`] and the [`World`] replays them to the (possibly `!Send`)
/// tap closures on the main thread — after each tick in sequential runs, in
/// canonical `(at, stage, key)` merge order after a region-parallel run.
pub(crate) struct TapRecord {
    pub(crate) at: u64,
    pub(crate) stage: u32,
    pub(crate) key: u64,
    pub(crate) node: NodeId,
    pub(crate) port: PortId,
    pub(crate) direction: TapDirection,
    pub(crate) frame: Bytes,
}

impl TapRecord {
    /// Hands this observation to every tap closure.
    fn deliver(&self, taps: &mut [Tap]) {
        let event = TapEvent {
            at: SimTime::from_nanos(self.at),
            node: self.node,
            port: self.port,
            direction: self.direction,
            frame: &self.frame,
        };
        for tap in taps {
            tap(&event);
        }
    }
}

/// Substrate-side tap capture state. `record` is false when no taps are
/// installed (recording then costs one branch); `stage`/`key` are the
/// coordinates of the event currently being dispatched, stamped onto every
/// record so a parallel run can be merged into sequential observation
/// order. `stage` counts the consecutive ticks at instant `last_at`.
#[derive(Default)]
pub(crate) struct TapRecorder {
    pub(crate) record: bool,
    pub(crate) stage: u32,
    pub(crate) key: u64,
    pub(crate) last_at: Option<u64>,
    pub(crate) records: Vec<TapRecord>,
}

/// A cross-region event in flight: `(arrival ns, ordering key, event)`.
pub(crate) type OutMsg = (u64, u64, Event);

/// Region-parallel routing state installed on a shard's core: events whose
/// owner node lives in another region are diverted into the per-destination
/// outbox instead of the local scheduler.
pub(crate) struct RegionCtx {
    pub(crate) my_region: u32,
    pub(crate) assignment: Arc<Vec<u32>>,
    pub(crate) outboxes: Vec<Vec<OutMsg>>,
}

impl RegionCtx {
    /// Whether this region owns `event`. A `LinkAdmin` is replicated to
    /// both endpoint regions so link state stays consistent; only the
    /// region of endpoint 0 owns it — counts it in `events_processed` and
    /// hands a leftover one back — so the totals equal a sequential run's.
    pub(crate) fn owns(&self, event: &Event, links: &[LinkState]) -> bool {
        match event {
            Event::LinkAdmin { link, .. } => {
                self.assignment[links[*link as usize].ends[0].0.index()] == self.my_region
            }
            _ => true,
        }
    }
}

#[derive(Debug)]
pub(crate) enum Event {
    Start {
        node: NodeId,
    },
    FrameArrival {
        node: NodeId,
        port: PortId,
        frame: Frame,
    },
    FrameProcessed {
        node: NodeId,
        port: PortId,
        frame: Frame,
    },
    ControlArrival {
        to: NodeId,
        from: NodeId,
        msg: Bytes,
    },
    ControlProcessed {
        to: NodeId,
        from: NodeId,
        msg: Bytes,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    /// Scheduled administrative link state change (fault injection).
    LinkAdmin {
        link: u32,
        enabled: bool,
    },
    Pin,
}

/// Deterministic ordering keys: same-instant events deliver in key order
/// (see `netco_sim::Scheduler::schedule_at_keyed`). A key names the
/// *stream* an event belongs to — a node, a control pair, a link — with
/// the event kind in the top byte so distinct kinds never collide. Every
/// stream is owned by exactly one region, and the key is computable from
/// the event alone, so sequential and region-parallel executions sort
/// identical same-instant sets identically. Kind 2 is not in use: it
/// belonged to the per-frame end-of-serialisation event that
/// `LinkDirState::release_finished` replaced, and it sorted ahead of
/// every kind whose handler can transmit except `Start`.
impl Event {
    pub(crate) const KEY_PIN: u64 = u64::MAX;

    pub(crate) fn key_start(node: NodeId) -> u64 {
        (1 << 56) | node.index() as u64
    }
    pub(crate) fn key_frame_arrival(node: NodeId, port: PortId) -> u64 {
        (3 << 56) | ((node.index() as u64) << 16) | port.0 as u64
    }
    pub(crate) fn key_frame_processed(node: NodeId, port: PortId) -> u64 {
        (4 << 56) | ((node.index() as u64) << 16) | port.0 as u64
    }
    pub(crate) fn key_control_arrival(to: NodeId, from: NodeId) -> u64 {
        (5 << 56) | ((to.index() as u64) << 24) | from.index() as u64
    }
    pub(crate) fn key_control_processed(to: NodeId, from: NodeId) -> u64 {
        (6 << 56) | ((to.index() as u64) << 24) | from.index() as u64
    }
    pub(crate) fn key_timer(node: NodeId) -> u64 {
        (7 << 56) | node.index() as u64
    }
    pub(crate) fn key_link_admin(link: u32) -> u64 {
        (8 << 56) | link as u64
    }

    /// The node whose region owns this event's stream. `None` for events
    /// without a single owner (`Pin`; `LinkAdmin`, which is replicated to
    /// both endpoint regions).
    pub(crate) fn owner_node(&self) -> Option<NodeId> {
        match self {
            Event::Pin | Event::LinkAdmin { .. } => None,
            Event::Start { node }
            | Event::FrameArrival { node, .. }
            | Event::FrameProcessed { node, .. }
            | Event::Timer { node, .. } => Some(*node),
            Event::ControlArrival { to, .. } | Event::ControlProcessed { to, .. } => Some(*to),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CpuState {
    busy_until: SimTime,
    pending: usize,
    // Hysteresis overload state: once the queue fills, drop everything
    // until it drains to half. Software forwarders lose whole bursts under
    // overload (scheduler quanta, interrupt livelock), not every k-th
    // frame — this matters for NetCo because deterministic one-in-k tail
    // drop would accidentally deduplicate the combiner's packet copies.
    dropping: bool,
}

/// A frame that is in, or waiting for, serialisation on a link direction.
#[derive(Clone)]
struct InFlight {
    /// When its last bit leaves the sender.
    done: SimTime,
    /// [`Scheduler::stage`] at the time it was enqueued.
    stage: u64,
    len: usize,
}

/// One direction of a link. No event marks the end of a serialisation:
/// the direction remembers what it is sending and, the next time somebody
/// transmits on it, first forgets what has left since
/// ([`release_finished`](LinkDirState::release_finished)).
#[derive(Clone, Default)]
pub(crate) struct LinkDirState {
    busy_until: SimTime,
    /// Sum of `len` over `in_flight`.
    queued_bytes: usize,
    /// In enqueue order, which is also `done` order: each serialisation
    /// starts when the previous one ends.
    in_flight: VecDeque<InFlight>,
}

impl LinkDirState {
    /// Stops counting every frame whose serialisation is over against the
    /// queue, as seen by an event handler running at `now` in scheduler
    /// stage `stage`.
    ///
    /// "Over" is defined by the event this replaces: one per frame, due at
    /// `done`, sorting ahead of every same-stage event whose handler can
    /// transmit on this direction. (`Start` sorts lower still, but a
    /// node's start handler runs before the node has sent anything, so the
    /// directions it can transmit on are empty.) That event would have
    /// been delivered by now iff `done` is in the past, or `done` is this
    /// very instant and the frame was enqueued in an earlier stage — had
    /// it been enqueued in the current one, its event would be waiting for
    /// the next stage, however short the serialisation.
    fn release_finished(&mut self, now: SimTime, stage: u64) {
        while let Some(f) = self.in_flight.front() {
            if f.done > now || (f.done == now && f.stage == stage) {
                break;
            }
            self.queued_bytes -= f.len;
            self.in_flight.pop_front();
        }
    }
}

#[derive(Clone)]
pub(crate) struct LinkState {
    pub(crate) spec: LinkSpec,
    // dirs[0]: a -> b, dirs[1]: b -> a
    pub(crate) ends: [(NodeId, PortId); 2],
    pub(crate) dirs: [LinkDirState; 2],
    pub(crate) dropped: [u64; 2],
    /// The subset of `dropped` eaten by scripted loss faults
    /// ([`DropReason::FaultInjected`]), kept separately so chaos
    /// experiments can tell injected loss from congestion on the same
    /// link.
    pub(crate) fault_dropped: [u64; 2],
    pub(crate) enabled: bool,
    pub(crate) fault: Option<LinkFault>,
}

/// The per-admission impairments a [`FaultPlan`](crate::FaultPlan) can
/// install — loss, corruption, added delay, reordering — as links and
/// control channels share them. Holds no RNG: each roll draws from the
/// stream its owner passes in, a dedicated one so fault rolls never
/// perturb the world's CPU-jitter/workload streams.
#[derive(Clone, Default)]
pub(crate) struct Impairments {
    loss: Vec<(f64, ActivationWindow)>,
    corrupt: Vec<(f64, ActivationWindow)>,
    delay: Vec<(SimDuration, ActivationWindow)>,
    reorder: Vec<(f64, SimDuration, ActivationWindow)>,
}

impl Impairments {
    /// Files one of the four per-admission kinds. Outages and flaps change
    /// up/down state instead and stay with the caller.
    fn push(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::Loss {
                probability,
                window,
            } => self.loss.push((probability, window)),
            FaultKind::Corrupt {
                probability,
                window,
            } => self.corrupt.push((probability, window)),
            FaultKind::Delay { extra, window } => self.delay.push((extra, window)),
            FaultKind::Reorder {
                probability,
                hold,
                window,
            } => self.reorder.push((probability, hold, window)),
            FaultKind::Outage(_) | FaultKind::Flaps { .. } => {
                unreachable!("outages and flaps are not per-admission rolls")
            }
        }
    }

    fn drop_roll(&self, now: SimTime, rng: &mut SimRng) -> bool {
        self.loss
            .iter()
            .any(|&(p, w)| w.contains(now) && rng.chance(p))
    }

    /// Returns the byte index to corrupt, if a corruption fault fires.
    fn corrupt_roll(&self, now: SimTime, len: usize, rng: &mut SimRng) -> Option<usize> {
        if len == 0 {
            return None;
        }
        for &(p, w) in &self.corrupt {
            if w.contains(now) && rng.chance(p) {
                return Some(rng.next_below(len as u64) as usize);
            }
        }
        None
    }

    /// Extra latency this admission suffers: deterministic `Delay` windows
    /// plus probabilistic `Reorder` hold-backs. Only ever *adds* latency,
    /// so the region executor's minimum-link-latency lookahead stays a
    /// valid lower bound.
    fn extra_roll(&self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        for &(d, w) in &self.delay {
            if w.contains(now) {
                extra += d;
            }
        }
        for &(p, hold, w) in &self.reorder {
            if w.contains(now) && rng.chance(p) {
                extra += hold;
            }
        }
        extra
    }
}

/// Scripted [`Impairments`] on one link.
#[derive(Clone)]
pub(crate) struct LinkFault {
    imp: Impairments,
    /// One independent stream per direction: each half-link is owned by
    /// the region holding its sending endpoint, so the two directions must
    /// never share RNG state. Direction 0 keeps the pre-split derivation.
    pub(crate) rngs: [SimRng; 2],
}

impl LinkFault {
    fn new(plan_seed: u64, link_idx: u32) -> LinkFault {
        // Per-link stream: mix the plan seed with the link index so two
        // impaired links draw independent sequences.
        let seed = plan_seed ^ (link_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        LinkFault {
            imp: Impairments::default(),
            rngs: [SimRng::new(seed), SimRng::new(seed ^ 0xD6E8_FEB8_6659_FD93)],
        }
    }
}

/// Scripted [`Impairments`] on one *direction* of a control channel
/// (see [`crate::ControlFaultSpec`]), with outage windows folded in
/// (control channels have no up/down admin state to schedule).
#[derive(Clone)]
pub(crate) struct ControlFault {
    imp: Impairments,
    outage: Vec<ActivationWindow>,
    /// Per-directed-pair stream derived from the plan seed; consumed only
    /// when `from` sends, which always runs on the region owning the pair
    /// (control peers are contracted into one region).
    rng: SimRng,
}

impl ControlFault {
    fn new(plan_seed: u64, from: NodeId, to: NodeId) -> ControlFault {
        let seed = plan_seed
            ^ (from.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.index() as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        ControlFault {
            imp: Impairments::default(),
            outage: Vec::new(),
            rng: SimRng::new(seed),
        }
    }
}

/// Specification of a control channel between a node and its controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlChannelSpec {
    /// One-way message latency (e.g. the TCP/TLS session to the controller).
    pub latency: SimDuration,
}

impl Default for ControlChannelSpec {
    /// 500 µs one-way — a local-network controller session.
    fn default() -> Self {
        ControlChannelSpec {
            latency: SimDuration::from_micros(500),
        }
    }
}

/// Everything the event loop owns *except* the devices. `Substrate` is
/// `Send` — link state, schedulers and per-node RNG streams all cross
/// threads — which is what lets the region-parallel executor move whole
/// shards onto pool workers. The `!Send` tap closures stay behind on
/// [`World`]; the substrate records observations into [`TapRecorder`] for
/// the world to replay.
///
/// Devices live in the sibling [`WorldCore`] field so that a [`Ctx`] can
/// borrow the whole substrate mutably while the device being dispatched is
/// borrowed from the device table — two disjoint borrows, no take/put
/// dance on the per-event hot path.
pub(crate) struct Substrate {
    pub(crate) sched: Scheduler<Event>,
    pub(crate) seed: u64,
    /// One deterministic stream per node, derived from `(seed, node)` so a
    /// node draws the same sequence no matter which worker executes its
    /// region (a single world-shared stream would interleave draws in
    /// execution order and diverge between modes).
    pub(crate) node_rngs: Vec<SimRng>,
    pub(crate) names: Vec<String>,
    pub(crate) cpu_models: Vec<CpuModel>,
    pub(crate) cpu_states: Vec<CpuState>,
    pub(crate) counters: Vec<NodeCounters>,
    pub(crate) links: Vec<LinkState>,
    // Dense adjacency indexed `[node][port]`: the link lookup runs once
    // per transmitted frame, so it must not hash.
    pub(crate) adjacency: Vec<Vec<Option<(u32, u8)>>>,
    pub(crate) control: HashMap<(NodeId, NodeId), ControlChannelSpec>,
    /// Scripted control-channel impairments, keyed by directed pair. The
    /// RNG inside an entry advances only when `from` sends, so the entry is
    /// owned (and merged back) by the region holding `from`.
    pub(crate) control_faults: HashMap<(NodeId, NodeId), ControlFault>,
    pub(crate) substrate_drops: [u64; DropReason::COUNT],
    pub(crate) tap_rec: TapRecorder,
    pub(crate) region: Option<RegionCtx>,
    pub(crate) telemetry: TelemetrySink,
    pub(crate) tel_link_queue: Histogram,
    pub(crate) tel_cpu_service: Histogram,
    pub(crate) tel_cpu_busy: Counter,
    pub(crate) tel_control_latency: Histogram,
}

/// The substrate plus the device table, and the event loop that drives
/// them ([`run_ticks`](WorldCore::run_ticks)).
pub(crate) struct WorldCore {
    /// `None` only transiently, while a region shard owns the device.
    pub(crate) devices: Vec<Option<Box<dyn Device>>>,
    pub(crate) sub: Substrate,
    /// Reusable tick buffer, kept across runs so steady-state runs never
    /// reallocate it.
    pub(crate) tick: Tick<Event>,
}

// The substrate fields used to live directly on `WorldCore`; deref keeps
// the dozens of `core.sched` / `core.links` accesses (and the region
// executor) reading naturally after the device split.
impl std::ops::Deref for WorldCore {
    type Target = Substrate;
    fn deref(&self) -> &Substrate {
        &self.sub
    }
}

impl std::ops::DerefMut for WorldCore {
    fn deref_mut(&mut self) -> &mut Substrate {
        &mut self.sub
    }
}

impl Substrate {
    pub(crate) fn now(&self) -> SimTime {
        self.sched.now()
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.sched.schedule_after_keyed(
            delay,
            Event::key_timer(node),
            Event::Timer { node, token },
        );
    }

    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.node_rngs[node.index()]
    }

    /// The per-node RNG stream derivation: splitmix64 over `(seed, node)`.
    pub(crate) fn derive_node_rng(seed: u64, node: u32) -> SimRng {
        SimRng::new(mix64(
            seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Schedules an event owned by `owner`'s stream: locally in sequential
    /// runs, into the cross-region outbox when `owner` lives in another
    /// region. Cross-region arrival times are strictly above the sender's
    /// clock (cut links have latency > 0), so no clamping can occur.
    fn route_to_node(&mut self, at: SimTime, key: u64, owner: NodeId, event: Event) {
        if let Some(rt) = &mut self.region {
            let dst = rt.assignment[owner.index()];
            if dst != rt.my_region {
                debug_assert!(
                    at > self.sched.now(),
                    "cross-region event not in the future"
                );
                rt.outboxes[dst as usize].push((at.as_nanos(), key, event));
                return;
            }
        }
        self.sched.schedule_at_keyed(at, key, event);
    }

    pub(crate) fn ports_of(&self, node: NodeId) -> Vec<PortId> {
        self.adjacency[node.index()]
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(p, _)| PortId(p as u16))
            .collect()
    }

    fn link_at(&self, node: NodeId, port: PortId) -> Option<(u32, u8)> {
        self.adjacency[node.index()]
            .get(port.0 as usize)
            .copied()
            .flatten()
    }

    fn wire(&mut self, node: NodeId, port: PortId, entry: (u32, u8)) {
        let ports = &mut self.adjacency[node.index()];
        let idx = port.0 as usize;
        if idx >= ports.len() {
            ports.resize(idx + 1, None);
        }
        ports[idx] = Some(entry);
    }

    pub(crate) fn name_of(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    fn drop_frame(&mut self, reason: DropReason) {
        self.substrate_drops[reason as usize] += 1;
        if self.telemetry.is_enabled() {
            // Rare path (drops, not deliveries): the name lookup is fine.
            self.telemetry
                .counter(&format!("net.drops.{}", reason.slug()))
                .inc();
        }
    }

    fn run_taps(&mut self, node: NodeId, port: PortId, direction: TapDirection, frame: &Bytes) {
        if !self.tap_rec.record {
            return;
        }
        self.tap_rec.records.push(TapRecord {
            at: self.sched.now().as_nanos(),
            stage: self.tap_rec.stage,
            key: self.tap_rec.key,
            node,
            port,
            direction,
            frame: frame.clone(),
        });
    }

    pub(crate) fn transmit(&mut self, node: NodeId, port: PortId, frame: Frame) {
        self.run_taps(node, port, TapDirection::Tx, frame.bytes());
        let len = frame.len();
        let Some((link_idx, dir)) = self.link_at(node, port) else {
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::NoLink);
            return;
        };
        let counters = self.counters[node.index()].port_mut(port);
        counters.tx_frames += 1;
        counters.tx_bytes += len as u64;

        let now = self.sched.now();
        let link = &mut self.links[link_idx as usize];
        if !link.enabled {
            link.dropped[dir as usize] += 1;
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::LinkDown);
            return;
        }
        // Scripted probabilistic impairments (FaultPlan): loss eats the
        // frame at link admission, corruption flips one bit in flight.
        let lost = link
            .fault
            .as_mut()
            .is_some_and(|f| f.imp.drop_roll(now, &mut f.rngs[dir as usize]));
        if lost {
            link.dropped[dir as usize] += 1;
            link.fault_dropped[dir as usize] += 1;
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::FaultInjected);
            return;
        }
        let link = &mut self.links[link_idx as usize];
        let corrupt_at = link.fault.as_mut().and_then(|f| {
            f.imp
                .corrupt_roll(now, frame.len(), &mut f.rngs[dir as usize])
        });
        let frame = match corrupt_at {
            Some(idx) => {
                // New content: the corrupted copy starts a fresh memo.
                let mut bytes = frame.to_vec();
                bytes[idx] ^= 0x01;
                Frame::from(bytes)
            }
            None => frame,
        };
        // Extra latency (Delay windows / Reorder hold-backs) only ever adds
        // to the substrate latency, so the region executor's lookahead
        // bound stays valid.
        let extra = link.fault.as_mut().map_or(SimDuration::ZERO, |f| {
            f.imp.extra_roll(now, &mut f.rngs[dir as usize])
        });
        let stage = self.sched.stage();
        let d = &mut link.dirs[dir as usize];
        d.release_finished(now, stage);
        if d.queued_bytes.saturating_add(len) > link.spec.queue_bytes {
            link.dropped[dir as usize] += 1;
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::LinkQueueFull);
            return;
        }
        d.queued_bytes += len;
        let depth = d.queued_bytes;
        self.tel_link_queue.record(depth as u64);
        let start = d.busy_until.max(now);
        let done = start + link.spec.tx_time(len);
        d.busy_until = done;
        d.in_flight.push_back(InFlight { done, stage, len });
        let (peer, peer_port) = link.ends[1 - dir as usize];
        let arrival = done + link.spec.latency + extra;
        // The arrival belongs to the receiver's stream — possibly across a
        // region cut, in which case it rides the outbox channel.
        self.route_to_node(
            arrival,
            Event::key_frame_arrival(peer, peer_port),
            peer,
            Event::FrameArrival {
                node: peer,
                port: peer_port,
                frame,
            },
        );
    }

    pub(crate) fn send_control(&mut self, from: NodeId, to: NodeId, msg: Bytes) {
        let Some(spec) = self.control.get(&(from, to)) else {
            self.drop_frame(DropReason::NoControlChannel);
            return;
        };
        let latency = spec.latency;
        let now = self.sched.now();
        // Scripted control-plane impairments (FaultPlan::control_fault):
        // outage/loss eat the message, corruption flips one bit, delay and
        // reorder stretch the channel latency.
        let mut msg = msg;
        let mut extra = SimDuration::ZERO;
        if let Some(fault) = self.control_faults.get_mut(&(from, to)) {
            if fault.outage.iter().any(|w| w.contains(now))
                || fault.imp.drop_roll(now, &mut fault.rng)
            {
                self.drop_frame(DropReason::FaultInjected);
                return;
            }
            if let Some(idx) = fault.imp.corrupt_roll(now, msg.len(), &mut fault.rng) {
                let mut bytes = msg.to_vec();
                bytes[idx] ^= 0x01;
                msg = Bytes::from(bytes);
            }
            extra = fault.imp.extra_roll(now, &mut fault.rng);
        }
        self.tel_control_latency.record(latency.as_nanos());
        let at = now + latency + extra;
        self.route_to_node(
            at,
            Event::key_control_arrival(to, from),
            to,
            Event::ControlArrival { to, from, msg },
        );
    }

    /// Admits a unit of work (frame or control message) to `node`'s CPU.
    /// Returns the completion time, or `None` when tail-dropped.
    fn cpu_admit(&mut self, node: NodeId, len: usize) -> Option<SimTime> {
        let model = &self.cpu_models[node.index()];
        let state = &mut self.cpu_states[node.index()];
        if state.pending >= model.queue_limit {
            state.dropping = true;
        } else if state.pending <= model.queue_limit.saturating_sub(4) {
            state.dropping = false;
        }
        if state.dropping {
            return None;
        }
        let service = model.service_time(len, &mut self.node_rngs[node.index()]);
        state.pending += 1;
        let now = self.sched.now();
        let start = state.busy_until.max(now);
        let done = start + service;
        state.busy_until = done;
        self.tel_cpu_service.record(service.as_nanos());
        self.tel_cpu_busy.add(service.as_nanos());
        Some(done)
    }
}

impl WorldCore {
    /// Borrows `node`'s device and a [`Ctx`] over the substrate — two
    /// disjoint field borrows, replacing the old take/put dance (which cost
    /// an `Option` write pair per event and made re-entry a runtime panic;
    /// re-entry is now structurally impossible because `Ctx` has no device
    /// access).
    #[inline(always)]
    fn device_ctx(&mut self, node: NodeId) -> (&mut dyn Device, Ctx<'_>) {
        let device = self.devices[node.index()]
            .as_deref_mut()
            .expect("device absent (owned by a region shard)");
        let ctx = Ctx {
            core: &mut self.sub,
            node,
        };
        (device, ctx)
    }

    pub(crate) fn dispatch(&mut self, event: Event) {
        match event {
            Event::Pin => {}
            Event::Start { node } => {
                let (d, mut ctx) = self.device_ctx(node);
                d.on_start(&mut ctx);
            }
            Event::FrameArrival { node, port, frame } => {
                let sub = &mut self.sub;
                sub.run_taps(node, port, TapDirection::Rx, frame.bytes());
                match sub.cpu_admit(node, frame.len()) {
                    Some(done) => {
                        sub.sched.schedule_at_keyed(
                            done,
                            Event::key_frame_processed(node, port),
                            Event::FrameProcessed { node, port, frame },
                        );
                    }
                    None => {
                        sub.counters[node.index()].port_mut(port).rx_dropped += 1;
                        sub.drop_frame(DropReason::CpuQueueFull);
                    }
                }
            }
            Event::FrameProcessed { node, port, frame } => {
                self.sub.cpu_states[node.index()].pending -= 1;
                let c = self.sub.counters[node.index()].port_mut(port);
                c.rx_frames += 1;
                c.rx_bytes += frame.len() as u64;
                let (d, mut ctx) = self.device_ctx(node);
                d.on_frame(&mut ctx, port, frame);
            }
            Event::ControlArrival { to, from, msg } => {
                let sub = &mut self.sub;
                match sub.cpu_admit(to, msg.len()) {
                    Some(done) => {
                        sub.sched.schedule_at_keyed(
                            done,
                            Event::key_control_processed(to, from),
                            Event::ControlProcessed { to, from, msg },
                        );
                    }
                    None => {
                        sub.drop_frame(DropReason::CpuQueueFull);
                    }
                }
            }
            Event::ControlProcessed { to, from, msg } => {
                self.sub.cpu_states[to.index()].pending -= 1;
                let (d, mut ctx) = self.device_ctx(to);
                d.on_control(&mut ctx, from, msg);
            }
            Event::Timer { node, token } => {
                let (d, mut ctx) = self.device_ctx(node);
                d.on_timer(&mut ctx, token);
            }
            Event::LinkAdmin { link, enabled } => {
                self.sub.links[link as usize].enabled = enabled;
            }
        }
    }

    /// The event loop — [`World::run_until`] and every region round run
    /// this and nothing else. Pops each whole tick due at or before `until`
    /// (inclusive), stamps every event's tap coordinates (the tick's
    /// same-instant stage, the event's key), dispatches it, and hands the
    /// tick's tap records to `after_tick`. Returns the events dispatched,
    /// less a region shard's replicas it does not own
    /// ([`RegionCtx::owns`]).
    ///
    /// Delivery is in global `(time, key, seq)` order: events a handler
    /// schedules for the instant being drained surface as the next tick at
    /// the same timestamp, one stage later.
    pub(crate) fn run_ticks(
        &mut self,
        until: SimTime,
        mut after_tick: impl FnMut(&mut Vec<TapRecord>),
    ) -> u64 {
        let mut tick = std::mem::take(&mut self.tick);
        let mut events = 0;
        while self.sub.sched.pop_tick_until(until, &mut tick) > 0 {
            let at = self.sub.sched.now().as_nanos();
            let rec = &mut self.sub.tap_rec;
            rec.stage = if rec.last_at == Some(at) {
                rec.stage + 1
            } else {
                0
            };
            rec.last_at = Some(at);
            for (key, event) in tick.drain_keyed() {
                let sub = &self.sub;
                events += sub
                    .region
                    .as_ref()
                    .is_none_or(|rt| rt.owns(&event, &sub.links)) as u64;
                self.sub.tap_rec.key = key;
                self.dispatch(event);
            }
            after_tick(&mut self.sub.tap_rec.records);
        }
        self.tick = tick;
        events
    }
}

/// The complete simulated network: devices, links, control channels and the
/// discrete-event loop tying them together.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct World {
    pub(crate) core: WorldCore,
    /// The (possibly `!Send`) tap closures. The substrate never calls them
    /// directly: the core records observations and the world replays them
    /// here on the main thread (see [`TapRecord`]).
    taps: Vec<Tap>,
    /// Detached telemetry counter: always live (the benchmark and tests read
    /// it with telemetry off) and adopted into the registry as
    /// `sim.events_processed` by [`set_telemetry`](World::set_telemetry).
    pub(crate) events_processed: Counter,
    /// What the last [`run_until_parallel`](World::run_until_parallel) did.
    pub(crate) region_stats: RegionRunStats,
}

impl World {
    /// Creates an empty world with a deterministic RNG seed.
    pub fn new(seed: u64) -> World {
        World {
            core: WorldCore {
                devices: Vec::new(),
                sub: Substrate {
                    sched: Scheduler::new(),
                    seed,
                    node_rngs: Vec::new(),
                    names: Vec::new(),
                    cpu_models: Vec::new(),
                    cpu_states: Vec::new(),
                    counters: Vec::new(),
                    links: Vec::new(),
                    adjacency: Vec::new(),
                    control: HashMap::new(),
                    control_faults: HashMap::new(),
                    substrate_drops: [0; DropReason::COUNT],
                    tap_rec: TapRecorder::default(),
                    region: None,
                    telemetry: TelemetrySink::disabled(),
                    tel_link_queue: Histogram::disabled(),
                    tel_cpu_service: Histogram::disabled(),
                    tel_cpu_busy: Counter::disabled(),
                    tel_control_latency: Histogram::disabled(),
                },
                tick: Tick::new(),
            },
            taps: Vec::new(),
            events_processed: Counter::detached(),
            region_stats: RegionRunStats::default(),
        }
    }

    /// Installs a telemetry sink on this world: substrate instrumentation
    /// (scheduler, links, CPUs, control channels, drop reasons) starts
    /// reporting into the sink's registry, and the always-on counters are
    /// adopted so the registry and the legacy accessors read one cell.
    /// With the default [`TelemetrySink::disabled`] sink all handles are
    /// inert and the per-event cost is a branch on a null pointer.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        sink.adopt_counter("sim.events_processed", &mut self.events_processed);
        self.core.sched.attach_telemetry(&sink);
        self.core.tel_link_queue = sink.histogram("net.link_queue_bytes");
        self.core.tel_cpu_service = sink.histogram("net.cpu_service_ns");
        self.core.tel_cpu_busy = sink.counter("net.cpu_busy_ns");
        self.core.tel_control_latency = sink.histogram("net.control_latency_ns");
        self.core.telemetry = sink;
    }

    /// The telemetry sink installed on this world (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.core.telemetry
    }

    /// Adds a device with the given human-readable name and CPU model.
    /// Its [`Device::on_start`] runs at the current simulation time.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        device: impl Device,
        cpu: CpuModel,
    ) -> NodeId {
        let id = NodeId(self.core.devices.len() as u32);
        // Builders hand over devices that are already a `Box<dyn Device>`:
        // store that box itself, not a box around it, so an event costs
        // one vtable hop and `device::<T>()` sees the concrete type.
        let mut slot = Some(device);
        let device: Box<dyn Device> =
            match (&mut slot as &mut dyn Any).downcast_mut::<Option<Box<dyn Device>>>() {
                Some(pre_boxed) => pre_boxed.take().expect("just stored"),
                None => Box::new(slot.expect("just stored")),
            };
        self.core.devices.push(Some(device));
        let seed = self.core.seed;
        self.core
            .node_rngs
            .push(Substrate::derive_node_rng(seed, id.0));
        self.core.names.push(name.into());
        self.core.cpu_models.push(cpu);
        self.core.cpu_states.push(CpuState::default());
        self.core.counters.push(NodeCounters::default());
        self.core.adjacency.push(Vec::new());
        self.core.sched.schedule_after_keyed(
            SimDuration::ZERO,
            Event::key_start(id),
            Event::Start { node: id },
        );
        id
    }

    /// Connects port `pa` of node `a` to port `pb` of node `b`.
    ///
    /// # Panics
    ///
    /// Panics if either port already has a link, if a node id is unknown, or
    /// on a self-loop to the same port.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        spec: LinkSpec,
    ) -> LinkId {
        assert!(a.index() < self.core.devices.len(), "unknown node {a}");
        assert!(b.index() < self.core.devices.len(), "unknown node {b}");
        assert!(!(a == b && pa == pb), "self-loop on a single port");
        assert!(
            self.core.link_at(a, pa).is_none(),
            "port {pa} of {a} already wired"
        );
        assert!(
            self.core.link_at(b, pb).is_none(),
            "port {pb} of {b} already wired"
        );
        let idx = self.core.links.len() as u32;
        self.core.links.push(LinkState {
            spec,
            ends: [(a, pa), (b, pb)],
            dirs: Default::default(),
            dropped: [0, 0],
            fault_dropped: [0, 0],
            enabled: true,
            fault: None,
        });
        self.core.wire(a, pa, (idx, 0));
        self.core.wire(b, pb, (idx, 1));
        LinkId(idx)
    }

    /// Registers a bidirectional control channel between `node` and
    /// `controller`.
    pub fn connect_control(&mut self, node: NodeId, controller: NodeId, spec: ControlChannelSpec) {
        self.core.control.insert((node, controller), spec.clone());
        self.core.control.insert((controller, node), spec);
    }

    /// Registers a frame observer invoked for every tapped frame
    /// (rx before CPU admission, tx before link admission) on all nodes.
    pub fn add_tap(&mut self, tap: impl FnMut(&TapEvent<'_>) + 'static) {
        self.taps.push(Box::new(tap));
        self.core.tap_rec.record = true;
    }

    /// Delivers `frame` to `node` as if it had just arrived on `port`
    /// (subject to the node's CPU model).
    pub fn inject_frame(&mut self, node: NodeId, port: PortId, frame: impl Into<Frame>) {
        let frame = frame.into();
        self.core.sched.schedule_after_keyed(
            SimDuration::ZERO,
            Event::key_frame_arrival(node, port),
            Event::FrameArrival { node, port, frame },
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.sched.now()
    }

    /// Counters of a node.
    pub fn counters(&self, node: NodeId) -> &NodeCounters {
        &self.core.counters[node.index()]
    }

    /// Frames dropped by a link, per direction `[a→b, b→a]`.
    pub fn link_drops(&self, link: LinkId) -> [u64; 2] {
        self.core.links[link.index()].dropped
    }

    /// The subset of [`link_drops`](World::link_drops) caused by scripted
    /// loss faults ([`DropReason::FaultInjected`]), per direction.
    pub fn link_fault_drops(&self, link: LinkId) -> [u64; 2] {
        self.core.links[link.index()].fault_dropped
    }

    /// Takes a link down (frames are dropped) or brings it back up.
    /// Fault injection for availability experiments; in-flight frames are
    /// unaffected.
    pub fn set_link_enabled(&mut self, link: LinkId, enabled: bool) {
        self.core.links[link.index()].enabled = enabled;
    }

    /// Whether a link is currently up.
    pub fn link_enabled(&self, link: LinkId) -> bool {
        self.core.links[link.index()].enabled
    }

    /// Schedules a link up/down transition at simulated time `at`, riding
    /// the ordinary event queue so the transition interleaves
    /// deterministically with traffic. The building block for
    /// [`apply_fault_plan`](World::apply_fault_plan); also usable directly.
    pub fn schedule_link_state(&mut self, at: SimTime, link: LinkId, enabled: bool) {
        self.core.sched.schedule_at_keyed(
            at,
            Event::key_link_admin(link.index() as u32),
            Event::LinkAdmin {
                link: link.index() as u32,
                enabled,
            },
        );
    }

    /// Installs a scripted [`FaultPlan`]: outages and flaps become
    /// scheduled [`schedule_link_state`](World::schedule_link_state)
    /// transitions; loss/corruption probabilities attach to the link with a
    /// dedicated RNG stream derived from [`FaultPlan::seed`]. Call before
    /// the run starts (faults scheduled in the past never fire).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for spec in &plan.faults {
            match spec.kind {
                FaultKind::Outage(window) => {
                    self.schedule_link_state(window.from, spec.link, false);
                    if let Some(up) = window.until {
                        self.schedule_link_state(up, spec.link, true);
                    }
                }
                FaultKind::Flaps {
                    first_down,
                    down_for,
                    up_for,
                    cycles,
                } => {
                    let mut t = first_down;
                    for _ in 0..cycles {
                        self.schedule_link_state(t, spec.link, false);
                        self.schedule_link_state(t + down_for, spec.link, true);
                        t = t + down_for + up_for;
                    }
                }
                ref kind => self.link_fault_mut(plan.seed, spec.link).imp.push(kind),
            }
        }
        for spec in &plan.control_faults {
            let fault = self
                .core
                .control_faults
                .entry((spec.from, spec.to))
                .or_insert_with(|| ControlFault::new(plan.seed, spec.from, spec.to));
            match spec.kind {
                // Control channels have no admin state: outages and flaps
                // become window-based drops evaluated at send time.
                FaultKind::Outage(window) => fault.outage.push(window),
                FaultKind::Flaps {
                    first_down,
                    down_for,
                    up_for,
                    cycles,
                } => {
                    let mut t = first_down;
                    for _ in 0..cycles {
                        fault
                            .outage
                            .push(ActivationWindow::between(t, t + down_for));
                        t = t + down_for + up_for;
                    }
                }
                ref kind => fault.imp.push(kind),
            }
        }
    }

    fn link_fault_mut(&mut self, plan_seed: u64, link: LinkId) -> &mut LinkFault {
        let idx = link.index();
        self.core.links[idx]
            .fault
            .get_or_insert_with(|| LinkFault::new(plan_seed, idx as u32))
    }

    /// Total frames dropped by the substrate, per reason.
    pub fn substrate_drops(&self, reason: DropReason) -> u64 {
        self.core.substrate_drops[reason as usize]
    }

    /// Immutable access to a device, downcast to its concrete type.
    ///
    /// Returns `None` for a wrong type or while the device is handling an
    /// event (never observable from outside the run loop).
    pub fn device<T: Device>(&self, node: NodeId) -> Option<&T> {
        let d: &dyn Any = self.core.devices[node.index()].as_deref()?;
        d.downcast_ref::<T>()
    }

    /// Mutable access to a device, downcast to its concrete type.
    pub fn device_mut<T: Device>(&mut self, node: NodeId) -> Option<&mut T> {
        let d: &mut dyn Any = self.core.devices[node.index()].as_deref_mut()?;
        d.downcast_mut::<T>()
    }

    /// Name a node was registered with.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.core.name_of(node)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.devices.len()
    }

    /// Total events executed since creation, sequentially or region-parallel
    /// (the `sim.events_processed` counter). Deterministic per seed: the
    /// benchmark divides it by wall time, tests compare it across runs.
    pub fn events_processed(&self) -> u64 {
        self.events_processed.get()
    }

    /// Runs until the event queue drains or `deadline` is reached; the
    /// clock ends exactly at `deadline` if it was reached.
    ///
    /// Each scheduler pop drains a whole timing-wheel tick, delivered in
    /// global `(time, key, seq)` order, and the tick's tap observations
    /// reach the tap closures before the next tick starts. The loop is the
    /// one every region round of
    /// [`run_until_parallel`](World::run_until_parallel) runs too.
    pub fn run_until(&mut self, deadline: SimTime) {
        // Pin the clock so `now()` lands on the deadline even if the queue
        // drains early.
        self.core
            .sched
            .schedule_at_keyed(deadline, Event::KEY_PIN, Event::Pin);
        let taps = &mut self.taps;
        let events = self.core.run_ticks(deadline, |records| {
            for rec in records.drain(..) {
                rec.deliver(taps);
            }
        });
        self.events_processed.add(events);
    }

    /// Runs for `duration` of simulated time from the current clock.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now().saturating_add(duration);
        self.run_until(deadline);
    }

    /// Replays per-region tap record streams to the live tap closures in
    /// canonical sequential order — time, then same-instant stage, then
    /// event key — without materializing the merged union. Each shard
    /// records its observations in exactly that order and event keys
    /// never collide across regions, so a lazy k-way merge over the
    /// region streams reproduces the order a sequential run would have
    /// delivered, one record at a time.
    pub(crate) fn replay_tap_records(&mut self, region_records: Vec<Vec<TapRecord>>) {
        let mut streams: Vec<_> = region_records
            .into_iter()
            .filter(|records| !records.is_empty())
            .map(|records| records.into_iter().peekable())
            .collect();
        loop {
            let mut best: Option<usize> = None;
            let mut best_key = (u64::MAX, u32::MAX, u64::MAX);
            for (i, stream) in streams.iter_mut().enumerate() {
                if let Some(rec) = stream.peek() {
                    let key = (rec.at, rec.stage, rec.key);
                    if best.is_none() || key < best_key {
                        best = Some(i);
                        best_key = key;
                    }
                }
            }
            let Some(i) = best else { break };
            let rec = streams[i].next().expect("peeked record");
            rec.deliver(&mut self.taps);
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("nodes", &self.core.devices.len())
            .field("links", &self.core.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CollectorDevice, EchoDevice};

    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn frame_travels_across_a_link() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(
            a,
            0.into(),
            b,
            0.into(),
            LinkSpec::new(1_000_000_000, SimDuration::from_micros(5)),
        );
        w.inject_frame(a, 0.into(), frame(1000));
        w.run_for(SimDuration::from_millis(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames.len(), 1);
        assert_eq!(col.frames[0].1.len(), 1000);
        // 8 µs serialization + 5 µs propagation.
        assert_eq!(col.frames[0].0, SimTime::from_nanos(13_000));
        assert_eq!(w.counters(b).port(0.into()).rx_frames, 1);
        assert_eq!(w.counters(a).port(0.into()).tx_frames, 1);
    }

    #[test]
    fn pre_boxed_device_is_stored_unwrapped() {
        // Builders like `topogen::build_world` hand `add_node` a
        // `Box<dyn Device>`; the slot must hold the concrete device.
        let mut w = World::new(1);
        let boxed: Box<dyn Device> = Box::new(EchoDevice::default());
        let e = w.add_node("e", boxed, CpuModel::default());
        assert!(w.device::<EchoDevice>(e).is_some());
        assert!(w.device_mut::<EchoDevice>(e).is_some());
        assert!(w.device::<CollectorDevice>(e).is_none());
        let slot: &dyn Any = w.core.devices[e.index()].as_deref().unwrap();
        assert!(slot.is::<EchoDevice>());
    }

    #[test]
    fn cpu_delays_delivery() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node(
            "b",
            CollectorDevice::default(),
            CpuModel::per_packet(SimDuration::from_micros(100)),
        );
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames[0].0, SimTime::from_nanos(100_000));
    }

    #[test]
    fn cpu_queue_tail_drops() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node(
            "b",
            CollectorDevice::default(),
            CpuModel::per_packet(SimDuration::from_millis(10)).with_queue_limit(2),
        );
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        for _ in 0..5 {
            w.inject_frame(a, 0.into(), frame(10));
        }
        w.run_for(SimDuration::from_secs(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames.len(), 2);
        assert_eq!(w.counters(b).port(0.into()).rx_dropped, 3);
        assert_eq!(w.substrate_drops(DropReason::CpuQueueFull), 3);
    }

    #[test]
    fn link_queue_tail_drops() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        // 1500-byte queue: room for exactly one of our frames at a time.
        let spec = LinkSpec::new(1_000_000, SimDuration::ZERO).with_queue_bytes(1500);
        let link = w.connect(a, 0.into(), b, 0.into(), spec);
        for _ in 0..4 {
            w.inject_frame(a, 0.into(), frame(1000));
        }
        w.run_for(SimDuration::from_secs(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames.len(), 1);
        assert_eq!(w.link_drops(link), [3, 0]);
        assert_eq!(w.counters(a).port(0.into()).tx_dropped, 3);
    }

    #[test]
    fn serialization_pipelines_frames() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        // 1 Mbit/s: 1000-byte frame = 8 ms serialization.
        w.connect(
            a,
            0.into(),
            b,
            0.into(),
            LinkSpec::new(1_000_000, SimDuration::ZERO),
        );
        w.inject_frame(a, 0.into(), frame(1000));
        w.inject_frame(a, 0.into(), frame(1000));
        w.run_for(SimDuration::from_secs(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames[0].0, SimTime::from_nanos(8_000_000));
        assert_eq!(col.frames[1].0, SimTime::from_nanos(16_000_000));
    }

    #[test]
    fn unwired_port_counts_drop() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        w.inject_frame(a, 3.into(), frame(10)); // echo will send back out p3
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.counters(a).port(3.into()).tx_dropped, 1);
        assert_eq!(w.substrate_drops(DropReason::NoLink), 1);
    }

    #[test]
    fn disabled_link_drops_until_reenabled() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        assert!(w.link_enabled(link));
        w.set_link_enabled(link, false);
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
        assert_eq!(w.link_drops(link), [1, 0]);
        assert_eq!(w.substrate_drops(DropReason::LinkDown), 1);
        w.set_link_enabled(link, true);
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
    }

    #[test]
    fn taps_see_both_directions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        w.add_tap(move |ev| seen2.borrow_mut().push((ev.node, ev.direction)));
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        let seen = seen.borrow();
        assert!(seen.contains(&(a, TapDirection::Rx)));
        assert!(seen.contains(&(a, TapDirection::Tx)));
        assert!(seen.contains(&(b, TapDirection::Rx)));
    }

    #[test]
    fn control_channel_round_trip() {
        use crate::testutil::ControlEchoDevice;
        let mut w = World::new(1);
        let sw = w.add_node("sw", ControlEchoDevice::default(), CpuModel::default());
        let ctl = w.add_node("ctl", CollectorDevice::default(), CpuModel::default());
        w.connect_control(
            sw,
            ctl,
            ControlChannelSpec {
                latency: SimDuration::from_millis(1),
            },
        );
        w.device_mut::<ControlEchoDevice>(sw).unwrap().peer = Some(ctl);
        w.run_for(SimDuration::from_millis(10));
        let col = w.device::<CollectorDevice>(ctl).unwrap();
        assert_eq!(col.control.len(), 1);
        assert_eq!(col.control[0].0, SimTime::from_nanos(1_000_000));
    }

    #[test]
    fn control_without_channel_is_counted() {
        use crate::testutil::ControlEchoDevice;
        let mut w = World::new(1);
        let sw = w.add_node("sw", ControlEchoDevice::default(), CpuModel::default());
        let ctl = w.add_node("ctl", CollectorDevice::default(), CpuModel::default());
        w.device_mut::<ControlEchoDevice>(sw).unwrap().peer = Some(ctl);
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.substrate_drops(DropReason::NoControlChannel), 1);
    }

    #[test]
    fn run_until_pins_clock() {
        let mut w = World::new(1);
        w.run_until(SimTime::from_nanos(5_000));
        assert_eq!(w.now(), SimTime::from_nanos(5_000));
        w.run_for(SimDuration::from_micros(5));
        assert_eq!(w.now(), SimTime::from_nanos(10_000));
    }

    #[test]
    fn timers_fire_in_order() {
        use crate::testutil::TimerRecorder;
        let mut w = World::new(1);
        let n = w.add_node("t", TimerRecorder::default(), CpuModel::default());
        w.run_for(SimDuration::from_millis(10));
        let rec = w.device::<TimerRecorder>(n).unwrap();
        assert_eq!(rec.fired, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", EchoDevice::default(), CpuModel::default());
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        w.connect(a, 0.into(), b, 1.into(), LinkSpec::ideal());
    }

    #[test]
    fn fault_plan_flaps_follow_schedule() {
        use crate::fault::FaultPlan;
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        // Down during [10, 20) µs and [30, 40) µs.
        let plan = FaultPlan::new(7).flaps(
            link,
            SimTime::from_nanos(10_000),
            SimDuration::from_micros(10),
            SimDuration::from_micros(10),
            2,
        );
        w.apply_fault_plan(&plan);
        // Inject while up (5, 22, 45 µs) and while down (12, 32 µs).
        for t_us in [5u64, 12, 22, 32, 45] {
            w.run_until(SimTime::from_nanos(t_us * 1_000));
            w.inject_frame(a, 0.into(), frame(64));
        }
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 3);
        assert_eq!(w.link_drops(link), [2, 0]);
        assert_eq!(w.substrate_drops(DropReason::LinkDown), 2);
        assert!(w.link_enabled(link), "final flap cycle ends link-up");
    }

    #[test]
    fn fault_plan_loss_drops_inside_window_only() {
        use crate::fault::FaultPlan;
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        let plan = FaultPlan::new(9).loss(
            link,
            1.0,
            ActivationWindow::between(SimTime::from_nanos(10_000), SimTime::from_nanos(20_000)),
        );
        w.apply_fault_plan(&plan);
        w.set_telemetry(TelemetrySink::enabled());
        // 15 µs lands inside the loss window, 5 and 25 µs outside.
        for t_us in [5u64, 15, 25] {
            w.run_until(SimTime::from_nanos(t_us * 1_000));
            w.inject_frame(a, 0.into(), frame(64));
        }
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 2);
        assert_eq!(w.substrate_drops(DropReason::FaultInjected), 1);
        assert_eq!(w.link_drops(link), [1, 0]);
        // Injected loss is attributed, not folded into generic drops.
        assert_eq!(w.link_fault_drops(link), [1, 0]);
        assert_eq!(w.telemetry().counter("net.drops.fault_injected").get(), 1);
    }

    #[test]
    fn telemetry_backs_events_processed_and_substrate_metrics() {
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(a, 0.into(), b, 0.into(), LinkSpec::default());
        w.set_telemetry(TelemetrySink::enabled());
        w.inject_frame(a, 0.into(), frame(100));
        w.run_for(SimDuration::from_millis(1));
        let sink = w.telemetry().clone();
        // The façade accessor and the registry read the same cell.
        assert_eq!(
            sink.counter("sim.events_processed").get(),
            w.events_processed()
        );
        assert!(w.events_processed() > 0);
        assert!(sink.counter("sim.sched.pops").get() >= w.events_processed());
        assert!(sink.histogram("net.link_queue_bytes").snapshot().count >= 1);
        assert!(sink.histogram("net.cpu_service_ns").snapshot().count >= 2);
    }

    #[test]
    fn fault_plan_corruption_flips_one_bit() {
        use crate::fault::FaultPlan;
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        let plan = FaultPlan::new(11).corrupt(link, 1.0, ActivationWindow::always());
        w.apply_fault_plan(&plan);
        let original = frame(128);
        w.inject_frame(a, 0.into(), original.clone());
        w.run_for(SimDuration::from_millis(1));
        let col = w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(col.frames.len(), 1, "corruption must not drop the frame");
        let got = &col.frames[0].1;
        assert_eq!(got.len(), original.len());
        let flipped_bits: u32 = got
            .iter()
            .zip(original.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped_bits, 1, "exactly one bit flips");
    }

    #[test]
    fn fault_plan_randomness_is_deterministic_and_isolated() {
        use crate::fault::FaultPlan;
        fn run(with_faults: bool) -> Vec<(SimTime, usize)> {
            let mut w = World::new(42);
            let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
            let b = w.add_node(
                "b",
                CollectorDevice::default(),
                CpuModel::per_packet(SimDuration::from_micros(10)).with_jitter(0.3),
            );
            let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::default());
            if with_faults {
                let plan = FaultPlan::new(5).loss(link, 0.5, ActivationWindow::always());
                w.apply_fault_plan(&plan);
            }
            for i in 0..50 {
                w.inject_frame(a, 0.into(), frame(100 + i));
            }
            w.run_for(SimDuration::from_secs(1));
            w.device::<CollectorDevice>(b)
                .unwrap()
                .frames
                .iter()
                .map(|(t, f)| (*t, f.len()))
                .collect()
        }
        // Same plan, same seed: bit-identical delivery.
        assert_eq!(run(true), run(true));
        let clean = run(false);
        let faulty = run(true);
        assert!(faulty.len() < clean.len(), "p=0.5 loss must drop frames");
        // Fault RNG is a separate stream: every frame the faulty run does
        // deliver exists in the clean run with identical payload length —
        // injecting faults never re-times unrelated deliveries upstream of
        // the CPU (lengths here are unique per frame).
        let clean_lens: Vec<usize> = clean.iter().map(|(_, l)| *l).collect();
        for (_, len) in &faulty {
            assert!(clean_lens.contains(len));
        }
    }

    #[test]
    fn deterministic_runs() {
        fn run() -> Vec<(SimTime, usize)> {
            let mut w = World::new(77);
            let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
            let b = w.add_node(
                "b",
                CollectorDevice::default(),
                CpuModel::per_packet(SimDuration::from_micros(10)).with_jitter(0.3),
            );
            w.connect(a, 0.into(), b, 0.into(), LinkSpec::default());
            for i in 0..50 {
                w.inject_frame(a, 0.into(), frame(100 + i));
            }
            w.run_for(SimDuration::from_secs(1));
            w.device::<CollectorDevice>(b)
                .unwrap()
                .frames
                .iter()
                .map(|(t, f)| (*t, f.len()))
                .collect()
        }
        assert_eq!(run(), run());
    }

    /// Dispatches single events up to and including the next frame
    /// arrival: its admission has happened, its completion (due the same
    /// instant, one stage later) has not.
    fn admit_one(w: &mut World) {
        while let Some((_, event)) = w.core.sched.pop() {
            let arrival = matches!(event, Event::FrameArrival { .. });
            w.events_processed.inc();
            w.core.dispatch(event);
            if arrival {
                return;
            }
        }
        panic!("no frame arrival pending");
    }

    /// An admission and its completion are one path whatever the sink:
    /// toggling telemetry while a completion is in flight leaves no
    /// `pending` behind and changes nothing observable.
    #[test]
    fn telemetry_toggles_mid_admission_leave_no_pending_work() {
        let build = || {
            let mut w = World::new(5);
            let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
            let b = w.add_node("b", EchoDevice::default(), CpuModel::default());
            let c = w.add_node(
                "c",
                CollectorDevice::default(),
                CpuModel::default().with_queue_limit(2),
            );
            w.connect(a, 1.into(), b, 0.into(), LinkSpec::default());
            // No serialisation: a burst reaches `c` in one instant and
            // overflows its queue.
            let burst = LinkSpec {
                bandwidth_bps: None,
                ..LinkSpec::default()
            };
            w.connect(a, 2.into(), c, 0.into(), burst);
            for i in 0..3u8 {
                w.inject_frame(a, 1.into(), vec![i; 100 + i as usize]);
            }
            for i in 0..4u8 {
                w.inject_frame(a, 2.into(), vec![0x40 | i; 64]);
            }
            let digest = crate::TapDigest::attach(&mut w);
            (w, digest)
        };
        let mid = SimTime::from_nanos(30_000);
        let end = SimTime::from_nanos(200_000);
        let observe = |w: &World, digest: &crate::TapDigest| {
            let counters: Vec<_> = (0..w.node_count())
                .map(|i| w.counters(NodeId(i as u32)).total())
                .collect();
            let drops =
                [DropReason::CpuQueueFull, DropReason::LinkQueueFull].map(|r| w.substrate_drops(r));
            (
                digest.value(),
                digest.taps(),
                w.events_processed(),
                counters,
                drops,
            )
        };

        let (mut plain, plain_digest) = build();
        plain.run_until(mid);
        plain.run_until(end);

        let (mut w, digest) = build();
        w.set_telemetry(TelemetrySink::enabled());
        admit_one(&mut w);
        w.set_telemetry(TelemetrySink::disabled());
        w.run_until(mid);
        admit_one(&mut w);
        w.set_telemetry(TelemetrySink::enabled());
        w.run_until(end);

        let pending: Vec<usize> = w.core.cpu_states.iter().map(|s| s.pending).collect();
        assert_eq!(pending, [0, 0, 0], "admissions without a completion");
        assert!(
            w.substrate_drops(DropReason::CpuQueueFull) > 0,
            "the finite queue never overflowed"
        );
        assert_eq!(observe(&w, &digest), observe(&plain, &plain_digest));
    }
}
