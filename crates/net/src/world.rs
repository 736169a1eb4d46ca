//! The [`World`] and its public API. The state it drives is the
//! [`Substrate`] and the event loop's [`WorldCore`]; region-parallel runs
//! are in `region`.

use std::any::Any;

use netco_sim::{SimDuration, SimTime, Tick};
use netco_telemetry::{Counter, TelemetrySink};

use crate::cpu::CpuModel;
use crate::device::Device;
use crate::event_loop::{Event, Tap, TapEvent, WorldCore};
use crate::fault::FaultPlan;
use crate::frame::Frame;
use crate::id::{LinkId, NodeId, PortId};
use crate::link::LinkSpec;
use crate::region::RegionRunStats;
use crate::substrate::{
    ChannelFault, ControlChannelSpec, CpuState, DropReason, LinkState, NodeCounters, Substrate,
};

/// The complete simulated network: devices, links, control channels and the
/// discrete-event loop tying them together.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct World {
    pub(crate) core: WorldCore,
    /// The (possibly `!Send`) tap closures. The substrate never calls them
    /// directly: the core records observations and the world replays them
    /// here on the main thread.
    pub(crate) taps: Vec<Tap>,
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
                sub: Substrate::new(seed),
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
    /// adopted so that the registry and
    /// [`events_processed`](World::events_processed) read one cell.
    /// With the default [`TelemetrySink::disabled`] sink all handles are
    /// inert and the per-event cost is a branch on a null pointer.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        sink.adopt_counter("sim.events_processed", &mut self.events_processed);
        self.core.sub.attach_telemetry(sink);
    }

    /// The telemetry sink installed on this world (disabled by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.core.sub.telemetry
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
        let sub = &mut self.core.sub;
        sub.node_rngs
            .push(Substrate::derive_node_rng(sub.seed, id.0));
        sub.names.push(name.into());
        sub.cpu_models.push(cpu);
        sub.cpu_states.push(CpuState::default());
        sub.counters.push(NodeCounters::default());
        sub.adjacency.push(Vec::new());
        sub.sched.schedule_after_keyed(
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
        let sub = &mut self.core.sub;
        assert!(
            sub.link_at(a, pa).is_none(),
            "port {pa} of {a} already wired"
        );
        assert!(
            sub.link_at(b, pb).is_none(),
            "port {pb} of {b} already wired"
        );
        let idx = sub.links.len() as u32;
        sub.links.push(LinkState {
            spec,
            ends: [(a, pa), (b, pb)],
            dirs: Default::default(),
        });
        sub.wire(a, pa, (idx, 0));
        sub.wire(b, pb, (idx, 1));
        LinkId(idx)
    }

    /// Registers a bidirectional control channel between `node` and
    /// `controller`.
    pub fn connect_control(&mut self, node: NodeId, controller: NodeId, spec: ControlChannelSpec) {
        self.core
            .sub
            .control
            .insert((node, controller), spec.clone());
        self.core.sub.control.insert((controller, node), spec);
    }

    /// Registers a frame observer invoked for every tapped frame
    /// (rx before CPU admission, tx before link admission) on all nodes.
    pub fn add_tap(&mut self, tap: impl FnMut(&TapEvent<'_>) + 'static) {
        self.taps.push(Box::new(tap));
        self.core.sub.tap_rec.record = true;
    }

    /// Delivers `frame` to `node` as if it had just arrived on `port`
    /// (subject to the node's CPU model).
    pub fn inject_frame(&mut self, node: NodeId, port: PortId, frame: impl Into<Frame>) {
        let frame = frame.into();
        self.core.sub.sched.schedule_after_keyed(
            SimDuration::ZERO,
            Event::key_frame_arrival(node, port),
            Event::FrameArrival { node, port, frame },
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.sub.now()
    }

    /// Counters of a node.
    pub fn counters(&self, node: NodeId) -> &NodeCounters {
        &self.core.sub.counters[node.index()]
    }

    /// Frames dropped by a link, per direction `[a→b, b→a]`.
    pub fn link_drops(&self, link: LinkId) -> [u64; 2] {
        let [ab, ba] = &self.core.sub.links[link.index()].dirs;
        [ab.dropped, ba.dropped]
    }

    /// The subset of [`link_drops`](World::link_drops) caused by scripted
    /// loss faults ([`DropReason::FaultInjected`]), per direction.
    pub fn link_fault_drops(&self, link: LinkId) -> [u64; 2] {
        let [ab, ba] = &self.core.sub.links[link.index()].dirs;
        [ab.fault_dropped, ba.fault_dropped]
    }

    /// Whether a link is up now: no outage window of its
    /// [`FaultPlan`] contains [`now`](World::now).
    pub fn link_enabled(&self, link: LinkId) -> bool {
        let now = self.now();
        !self.core.sub.links[link.index()]
            .dirs
            .iter()
            .any(|d| d.down(now))
    }

    /// Installs a scripted [`FaultPlan`]. Every fault is a set of windows
    /// judged when a frame or message is admitted: a link direction or a
    /// control channel direction is down at `now` iff one of its outage
    /// windows `[from, until)` contains `now` (a flap schedule is its list
    /// of down windows), and loss, corruption, delay and reordering act on
    /// what is admitted inside their windows. Frames already in flight are
    /// unaffected. A link fault applies to both directions of the link.
    /// Probabilistic faults draw from dedicated RNG streams derived from
    /// [`FaultPlan::seed`], one per link direction and one per control
    /// channel direction.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for spec in &plan.faults {
            let link = spec.link.index() as u32;
            let dirs = &mut self.core.sub.links[link as usize].dirs;
            for (d, dir) in dirs.iter_mut().enumerate() {
                dir.fault
                    .get_or_insert_with(|| Box::new(ChannelFault::link(plan.seed, link, d)))
                    .imp
                    .push(&spec.kind);
            }
        }
        for spec in &plan.control_faults {
            self.core
                .sub
                .control_faults
                .entry((spec.from, spec.to))
                .or_insert_with(|| ChannelFault::control(plan.seed, spec.from, spec.to))
                .imp
                .push(&spec.kind);
        }
    }

    /// Total frames dropped by the substrate, per reason.
    pub fn substrate_drops(&self, reason: DropReason) -> u64 {
        self.core.sub.substrate_drops[reason as usize]
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
        self.core.sub.name_of(node)
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
            .sub
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
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("nodes", &self.core.devices.len())
            .field("links", &self.core.sub.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{CollectorDevice, EchoDevice};
    use crate::TapDirection;
    use bytes::Bytes;

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
}
