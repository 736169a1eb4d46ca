//! The event loop: the [`Event`]s a world schedules and their ordering
//! keys, the tap observations a run records, and [`WorldCore`], which
//! dispatches every event to the substrate and the devices
//! ([`WorldCore::run_ticks`]).

use bytes::Bytes;
use netco_sim::{SimTime, Tick};

use crate::device::{Ctx, Device};
use crate::frame::Frame;
use crate::id::{NodeId, PortId};
use crate::substrate::{DropReason, Substrate};

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

pub(crate) type Tap = Box<dyn FnMut(&TapEvent<'_>)>;

/// One recorded tap observation. The substrate records observations into
/// [`TapRecorder`] and the [`World`](crate::World) replays them to the
/// (possibly `!Send`) tap closures on the main thread — after each tick in
/// sequential runs, in canonical `(at, stage, key)` merge order after a
/// region-parallel run.
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
    pub(crate) fn deliver(&self, taps: &mut [Tap]) {
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
/// every kind whose handler can transmit except `Start`. Kind 8 is not in
/// use either: it belonged to the scheduled link up/down transition that
/// outage windows judged at transmit replaced, and it sorted after every
/// other kind of its instant.
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
    /// The one routing rule of a region-parallel run: the region this
    /// event belongs to under `assignment`, which alone runs it, counts it
    /// and hands it back if it is left over. That is the region of the
    /// node whose stream it is on. `None` for a `Pin`, which only the run
    /// that scheduled it sees.
    pub(crate) fn region(&self, assignment: &[u32]) -> Option<u32> {
        let node = match self {
            Event::Pin => return None,
            Event::Start { node }
            | Event::FrameArrival { node, .. }
            | Event::FrameProcessed { node, .. }
            | Event::Timer { node, .. } => node,
            Event::ControlArrival { to, .. } | Event::ControlProcessed { to, .. } => to,
        };
        Some(assignment[node.index()])
    }
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

impl WorldCore {
    /// Borrows `node`'s device and a [`Ctx`] over the substrate — two
    /// disjoint field borrows, so an event costs no device move and a
    /// handler cannot re-enter its own device (`Ctx` has no device
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
        }
    }

    /// The event loop — [`World::run_until`](crate::World::run_until) and
    /// every region round run this and nothing else. Pops each whole tick
    /// due at or before `until` (inclusive), stamps every event's tap
    /// coordinates (the tick's same-instant stage, the event's key),
    /// dispatches it, and hands the tick's tap records to `after_tick`.
    /// Returns the number of events dispatched.
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
                events += 1;
                self.sub.tap_rec.key = key;
                self.dispatch(event);
            }
            after_tick(&mut self.sub.tap_rec.records);
        }
        self.tick = tick;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CollectorDevice, EchoDevice};
    use crate::{CpuModel, LinkSpec, World};
    use netco_telemetry::TelemetrySink;

    /// Dispatches single events up to and including the next frame
    /// arrival: its admission has happened, its completion (due the same
    /// instant, one stage later) has not.
    fn admit_one(w: &mut World) {
        while let Some((_, event)) = w.core.sub.sched.pop() {
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

        let pending: Vec<usize> = w.core.sub.cpu_states.iter().map(|s| s.pending).collect();
        assert_eq!(pending, [0, 0, 0], "admissions without a completion");
        assert!(
            w.substrate_drops(DropReason::CpuQueueFull) > 0,
            "the finite queue never overflowed"
        );
        assert_eq!(observe(&w, &digest), observe(&plain, &plain_digest));
    }
}
