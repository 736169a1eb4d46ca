//! The [`Substrate`]: links, control channels, fault injection, CPU
//! admission and drop accounting — everything the event loop owns except
//! the devices — and the one statement of which region shard owns which
//! part of it ([`Substrate::shard`], [`Substrate::absorb`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use netco_sim::{mix64, ActivationWindow, Scheduler, SimDuration, SimRng, SimTime};
use netco_telemetry::{Counter, Histogram, TelemetrySink};

use crate::cpu::CpuModel;
use crate::event_loop::{Event, TapDirection, TapRecord, TapRecorder};
use crate::fault::FaultKind;
use crate::frame::Frame;
use crate::id::{NodeId, PortId};
use crate::link::LinkSpec;
use crate::region::RegionMap;

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
    pub(crate) fn slug(self) -> &'static str {
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

// `substrate_drops[reason as usize]` indexes a `[u64; COUNT]`. The match is
// exhaustive, so a new variant does not compile until it has an arm here,
// and its arm does not compile until `COUNT` counts it.
const _: () = {
    use DropReason::*;
    match LinkQueueFull {
        LinkQueueFull => const { assert!((LinkQueueFull as usize) < DropReason::COUNT) },
        CpuQueueFull => const { assert!((CpuQueueFull as usize) < DropReason::COUNT) },
        NoLink => const { assert!((NoLink as usize) < DropReason::COUNT) },
        LinkDown => const { assert!((LinkDown as usize) < DropReason::COUNT) },
        NoControlChannel => const { assert!((NoControlChannel as usize) < DropReason::COUNT) },
        FaultInjected => const { assert!((FaultInjected as usize) < DropReason::COUNT) },
    }
};

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

    pub(crate) fn port_mut(&mut self, port: PortId) -> &mut PortCounters {
        let idx = port.0 as usize;
        if idx >= self.ports.len() {
            self.ports.resize(idx + 1, PortCounters::default());
        }
        &mut self.ports[idx]
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CpuState {
    busy_until: SimTime,
    pub(crate) pending: usize,
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

/// One direction of a link: its queue, its drop counts and its faults,
/// all owned by the region of the sending end. No event marks the end of
/// a serialisation: the direction remembers what it is sending and, the
/// next time somebody transmits on it, first forgets what has left since
/// ([`release_finished`](LinkDirState::release_finished)).
#[derive(Clone, Default)]
pub(crate) struct LinkDirState {
    busy_until: SimTime,
    /// Sum of `len` over `in_flight`.
    queued_bytes: usize,
    /// In enqueue order, which is also `done` order: each serialisation
    /// starts when the previous one ends.
    in_flight: VecDeque<InFlight>,
    pub(crate) dropped: u64,
    /// The subset of `dropped` eaten by scripted loss faults
    /// ([`DropReason::FaultInjected`]), kept separately so chaos
    /// experiments can tell injected loss from congestion on the same
    /// link.
    pub(crate) fault_dropped: u64,
    /// Boxed: most links carry no fault, and every link direction in a
    /// world is allocated up front.
    pub(crate) fault: Option<Box<ChannelFault>>,
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

    /// Whether one of this direction's outage windows contains `now`.
    pub(crate) fn down(&self, now: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|f| f.imp.down(now))
    }
}

#[derive(Clone)]
pub(crate) struct LinkState {
    pub(crate) spec: LinkSpec,
    pub(crate) ends: [(NodeId, PortId); 2],
    /// `dirs[0]`: `ends[0]` → `ends[1]`; `dirs[1]`: back.
    pub(crate) dirs: [LinkDirState; 2],
}

/// The impairments a [`FaultPlan`](crate::FaultPlan) can install — outage,
/// loss, corruption, added delay, reordering — as link directions and
/// control channels share them. Each is a list of windows judged when a
/// frame or message is admitted. Holds no RNG: each roll draws from the
/// stream its owner passes in, a dedicated one so fault rolls never
/// perturb the world's CPU-jitter/workload streams.
#[derive(Clone, Default)]
pub(crate) struct Impairments {
    outage: Vec<ActivationWindow>,
    loss: Vec<(f64, ActivationWindow)>,
    corrupt: Vec<(f64, ActivationWindow)>,
    delay: Vec<(SimDuration, ActivationWindow)>,
    reorder: Vec<(f64, SimDuration, ActivationWindow)>,
}

impl Impairments {
    /// Files one fault. A flap schedule is its list of down windows.
    pub(crate) fn push(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::Outage(window) => self.outage.push(window),
            FaultKind::Flaps {
                first_down,
                down_for,
                up_for,
                cycles,
            } => {
                let mut t = first_down;
                for _ in 0..cycles {
                    self.outage.push(ActivationWindow::between(t, t + down_for));
                    t = t + down_for + up_for;
                }
            }
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
        }
    }

    /// Whether one of the outage windows `[from, until)` contains `now`.
    fn down(&self, now: SimTime) -> bool {
        self.outage.iter().any(|w| w.contains(now))
    }

    fn drop_roll(&self, now: SimTime, rng: &mut SimRng) -> bool {
        self.loss
            .iter()
            .any(|&(p, w)| w.contains(now) && rng.chance(p))
    }

    /// `frame` with one bit flipped if a corruption fault fires, else
    /// `frame` itself. The corrupted copy is new content, so it is a new
    /// contiguous `Frame` with a fresh memo — on a link and on a control
    /// channel alike.
    fn corrupt(&self, now: SimTime, frame: Frame, rng: &mut SimRng) -> Frame {
        if frame.is_empty() {
            return frame;
        }
        for &(p, w) in &self.corrupt {
            if w.contains(now) && rng.chance(p) {
                let at = rng.next_below(frame.len() as u64) as usize;
                let mut bytes = frame.to_vec();
                bytes[at] ^= 0x01;
                return Frame::from(bytes);
            }
        }
        frame
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

/// Scripted [`Impairments`] on one link direction or one direction of a
/// control channel (see [`crate::ControlFaultSpec`]), with the stream
/// its rolls draw from. The stream advances only when the sending end
/// admits something, so it belongs to the sender's region.
#[derive(Clone)]
pub(crate) struct ChannelFault {
    pub(crate) imp: Impairments,
    rng: SimRng,
}

impl ChannelFault {
    /// Direction `dir` of link `link`. The plan seed is mixed with the
    /// link index so two impaired links draw independent sequences, and
    /// direction 1 with a second constant so the two directions never
    /// share one.
    pub(crate) fn link(plan_seed: u64, link: u32, dir: usize) -> ChannelFault {
        let seed = plan_seed ^ (link as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ChannelFault::new(seed ^ [0, 0xD6E8_FEB8_6659_FD93][dir])
    }

    /// The `from → to` direction of a control channel.
    pub(crate) fn control(plan_seed: u64, from: NodeId, to: NodeId) -> ChannelFault {
        ChannelFault::new(
            plan_seed
                ^ (from.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (to.index() as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        )
    }

    fn new(seed: u64) -> ChannelFault {
        ChannelFault {
            imp: Impairments::default(),
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

/// A cross-region event in flight: `(arrival ns, ordering key, event)`.
pub(crate) type OutMsg = (u64, u64, Event);

/// Region-parallel routing state installed on a shard: events whose owner
/// lives in another region are diverted into the per-destination outbox
/// instead of the local scheduler.
pub(crate) struct RegionCtx {
    pub(crate) my_region: u32,
    pub(crate) assignment: Arc<Vec<u32>>,
    pub(crate) outboxes: Vec<Vec<OutMsg>>,
}

/// Everything the event loop owns *except* the devices. `Substrate` is
/// `Send` — link state, schedulers and per-node RNG streams all cross
/// threads — which is what lets the region-parallel executor move whole
/// shards onto pool workers. The `!Send` tap closures stay behind on
/// [`World`](crate::World); the substrate records observations into
/// [`TapRecorder`] for the world to replay.
///
/// Devices live in the sibling [`WorldCore`](crate::event_loop::WorldCore)
/// field so that a [`Ctx`](crate::Ctx) can borrow the whole substrate
/// mutably while the device being dispatched is borrowed from the device
/// table: two disjoint borrows, and a device cannot reach itself through
/// its context.
///
/// # Ownership in a region-parallel run
///
/// [`shard`](Substrate::shard) and [`absorb`](Substrate::absorb) name
/// every field, with no `..`: a new field does not compile until it has a
/// rule in both. Which region an event belongs to is [`Event::region`].
///
/// | field | a shard starts with | merged back from |
/// |---|---|---|
/// | `sched` | an empty wheel, then the events `Event::region` gives the region | every leftover, re-sorted by `(at, key)` |
/// | `seed`, `names`, `cpu_models`, `adjacency`, `control` | a copy | nowhere: read-only |
/// | `node_rngs`, `cpu_states`, `counters` | a copy | the node's region |
/// | `links[l].spec`, `links[l].ends` | a copy | nowhere: read-only |
/// | `links[l].dirs[d]`: queue, `dropped`, `fault_dropped`, `fault` | a copy | the region of `ends[d]`, the sender |
/// | `control_faults[(from, to)]` | a copy | the region of `from`, the sender |
/// | `substrate_drops` | zeros | every region, summed |
/// | `tap_rec` | no records; the parent's `record` flag | every region's records, replayed in `(at, stage, key)` order |
/// | `region` | the shard's [`RegionCtx`] | nowhere |
/// | `telemetry`, `tel_*` | a fresh sink, enabled iff the parent's is | every region's sink, merged in region order |
///
/// The devices follow the node: each moves to its node's region and back.
#[derive(Default)]
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
    /// RNG inside an entry advances only when `from` sends.
    pub(crate) control_faults: HashMap<(NodeId, NodeId), ChannelFault>,
    pub(crate) substrate_drops: [u64; DropReason::COUNT],
    pub(crate) tap_rec: TapRecorder,
    pub(crate) region: Option<RegionCtx>,
    pub(crate) telemetry: TelemetrySink,
    tel_link_queue: Histogram,
    tel_cpu_service: Histogram,
    tel_cpu_busy: Counter,
    tel_control_latency: Histogram,
}

impl Substrate {
    /// An empty substrate drawing its per-node streams from `seed`, with
    /// telemetry off.
    pub(crate) fn new(seed: u64) -> Substrate {
        Substrate {
            seed,
            ..Substrate::default()
        }
    }

    /// Points the scheduler, link, CPU and control-channel instrumentation
    /// at `sink` and installs it as the sink devices see.
    pub(crate) fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.sched.attach_telemetry(&sink);
        self.tel_link_queue = sink.histogram("net.link_queue_bytes");
        self.tel_cpu_service = sink.histogram("net.cpu_service_ns");
        self.tel_cpu_busy = sink.counter("net.cpu_busy_ns");
        self.tel_control_latency = sink.histogram("net.control_latency_ns");
        self.telemetry = sink;
    }

    /// Region `region`'s shard under `map`, reporting into `sink`, with an
    /// empty scheduler (the table on [`Substrate`]).
    pub(crate) fn shard(&self, region: u32, map: &RegionMap, sink: TelemetrySink) -> Substrate {
        let mut shard = Substrate {
            sched: Scheduler::new(),
            seed: self.seed,
            node_rngs: self.node_rngs.clone(),
            names: self.names.clone(),
            cpu_models: self.cpu_models.clone(),
            cpu_states: self.cpu_states.clone(),
            counters: self.counters.clone(),
            links: self.links.clone(),
            adjacency: self.adjacency.clone(),
            control: self.control.clone(),
            control_faults: self.control_faults.clone(),
            substrate_drops: [0; DropReason::COUNT],
            tap_rec: TapRecorder {
                record: self.tap_rec.record,
                ..TapRecorder::default()
            },
            region: Some(RegionCtx {
                my_region: region,
                assignment: map.assignment.clone(),
                outboxes: (0..map.regions).map(|_| Vec::new()).collect(),
            }),
            telemetry: TelemetrySink::disabled(),
            tel_link_queue: Histogram::disabled(),
            tel_cpu_service: Histogram::disabled(),
            tel_cpu_busy: Counter::disabled(),
            tel_control_latency: Histogram::disabled(),
        };
        shard.attach_telemetry(sink);
        // The cloned link directions remember the parent's stage ordinals
        // for the frames they are serialising.
        shard.sched.skip_stages_to(self.sched.stage());
        shard
    }

    /// Takes back what a region's `shard` owns (the table on [`Substrate`]).
    /// Returns its leftover events and its tap records, which the caller
    /// orders across regions.
    pub(crate) fn absorb(
        &mut self,
        shard: Substrate,
    ) -> (Vec<(SimTime, u64, Event)>, Vec<TapRecord>) {
        let Substrate {
            mut sched,
            seed: _,
            node_rngs,
            names: _,
            cpu_models: _,
            cpu_states,
            counters,
            links,
            adjacency: _,
            control: _,
            control_faults,
            substrate_drops,
            tap_rec,
            region,
            telemetry,
            tel_link_queue: _,
            tel_cpu_service: _,
            tel_cpu_busy: _,
            tel_control_latency: _,
        } = shard;
        let ctx = region.expect("a shard carries its region");
        let here = |node: NodeId| ctx.assignment[node.index()] == ctx.my_region;
        // ...and the directions merged back below remember the shard's.
        self.sched.skip_stages_to(sched.stage());
        let leftovers = sched.drain_all_ordered();
        let nodes = node_rngs.into_iter().zip(cpu_states).zip(counters);
        for (node, ((rng, cpu), counters)) in nodes.enumerate() {
            if here(NodeId(node as u32)) {
                self.node_rngs[node] = rng;
                self.cpu_states[node] = cpu;
                self.counters[node] = counters;
            }
        }
        for (parent, link) in self.links.iter_mut().zip(links) {
            let LinkState {
                spec: _,
                ends,
                dirs,
            } = link;
            for (d, dir) in dirs.into_iter().enumerate() {
                if here(ends[d].0) {
                    parent.dirs[d] = dir;
                }
            }
        }
        for (pair, fault) in control_faults {
            if here(pair.0) {
                self.control_faults.insert(pair, fault);
            }
        }
        for (acc, shard) in self.substrate_drops.iter_mut().zip(substrate_drops) {
            *acc += shard;
        }
        self.telemetry.merge_sink(&telemetry);
        (leftovers, tap_rec.records)
    }

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

    /// Schedules an event one of this region's nodes sent: locally in
    /// sequential runs, into the cross-region outbox when its region
    /// ([`Event::region`]) is another one. Cross-region arrival times are
    /// strictly above the sender's clock (cut links have latency > 0), so
    /// no clamping can occur.
    fn route(&mut self, at: SimTime, key: u64, event: Event) {
        if let Some(rt) = &mut self.region {
            let dst = event
                .region(&rt.assignment)
                .expect("an arrival has a region");
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

    pub(crate) fn link_at(&self, node: NodeId, port: PortId) -> Option<(u32, u8)> {
        self.adjacency[node.index()]
            .get(port.0 as usize)
            .copied()
            .flatten()
    }

    pub(crate) fn wire(&mut self, node: NodeId, port: PortId, entry: (u32, u8)) {
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

    pub(crate) fn drop_frame(&mut self, reason: DropReason) {
        self.substrate_drops[reason as usize] += 1;
        if self.telemetry.is_enabled() {
            // Rare path (drops, not deliveries): the name lookup is fine.
            self.telemetry
                .counter(&format!("net.drops.{}", reason.slug()))
                .inc();
        }
    }

    /// Records a tap observation when taps are installed. The record
    /// shares the frame (memo included) and reads none of its bytes, so
    /// an encapsulating frame is made contiguous only by a tap that asks
    /// for its bytes.
    pub(crate) fn run_taps(
        &mut self,
        node: NodeId,
        port: PortId,
        direction: TapDirection,
        frame: &Frame,
    ) {
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
        self.run_taps(node, port, TapDirection::Tx, &frame);
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
        let d = &mut link.dirs[dir as usize];
        if d.down(now) {
            d.dropped += 1;
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::LinkDown);
            return;
        }
        // Scripted probabilistic impairments (FaultPlan): loss eats the
        // frame at link admission, corruption flips one bit in flight.
        let lost = d
            .fault
            .as_mut()
            .is_some_and(|f| f.imp.drop_roll(now, &mut f.rng));
        if lost {
            d.dropped += 1;
            d.fault_dropped += 1;
            self.counters[node.index()].port_mut(port).tx_dropped += 1;
            self.drop_frame(DropReason::FaultInjected);
            return;
        }
        let frame = match d.fault.as_mut() {
            Some(f) => f.imp.corrupt(now, frame, &mut f.rng),
            None => frame,
        };
        // Extra latency (Delay windows / Reorder hold-backs) only ever adds
        // to the substrate latency, so the region executor's lookahead
        // bound stays valid.
        let extra = d
            .fault
            .as_mut()
            .map_or(SimDuration::ZERO, |f| f.imp.extra_roll(now, &mut f.rng));
        let stage = self.sched.stage();
        d.release_finished(now, stage);
        if d.queued_bytes.saturating_add(len) > link.spec.queue_bytes {
            d.dropped += 1;
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
        self.route(
            arrival,
            Event::key_frame_arrival(peer, peer_port),
            Event::FrameArrival {
                node: peer,
                port: peer_port,
                frame,
            },
        );
    }

    pub(crate) fn send_control(&mut self, from: NodeId, to: NodeId, msg: Frame) {
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
            if fault.imp.down(now) || fault.imp.drop_roll(now, &mut fault.rng) {
                self.drop_frame(DropReason::FaultInjected);
                return;
            }
            msg = fault.imp.corrupt(now, msg, &mut fault.rng);
            extra = fault.imp.extra_roll(now, &mut fault.rng);
        }
        self.tel_control_latency.record(latency.as_nanos());
        let at = now + latency + extra;
        self.route(
            at,
            Event::key_control_arrival(to, from),
            Event::ControlArrival { to, from, msg },
        );
    }

    /// Admits a unit of work (frame or control message) to `node`'s CPU.
    /// Returns the completion time, or `None` when tail-dropped.
    pub(crate) fn cpu_admit(&mut self, node: NodeId, len: usize) -> Option<SimTime> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CollectorDevice, EchoDevice};
    use crate::World;
    use bytes::Bytes;

    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
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
        use crate::fault::FaultPlan;
        let mut w = World::new(1);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let link = w.connect(a, 0.into(), b, 0.into(), LinkSpec::ideal());
        assert!(w.link_enabled(link));
        // Down for the first millisecond, up from then on.
        let down = ActivationWindow::between(SimTime::ZERO, SimTime::from_nanos(1_000_000));
        w.apply_fault_plan(&FaultPlan::new(1).outage(link, down));
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
        assert_eq!(w.link_drops(link), [1, 0]);
        assert_eq!(w.substrate_drops(DropReason::LinkDown), 1);
        assert!(w.link_enabled(link));
        w.inject_frame(a, 0.into(), frame(10));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
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
}
