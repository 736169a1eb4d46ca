//! Monomorphic device dispatch for the event hot path.
//!
//! The default [`World`](netco_net::World) stores every device as a
//! `Box<dyn Device>`: each dispatched event pays an indirect call through
//! the vtable plus a heap-pointer chase before any device code runs. This
//! crate provides [`DeviceKind`] — an enum inlining the half-dozen hottest
//! built-in devices (hub, guard, replica OpenFlow switch, the million-flow
//! traffic engine, the echo/collector test devices) — and the
//! [`FastWorld`] alias storing devices as that enum, so >95% of dispatched
//! events in the bench worlds resolve to a jump table into monomorphized,
//! inlinable handler code. Everything else rides the
//! [`DeviceKind::Custom`] variant, which is exactly the old boxed path.
//!
//! The dyn-dispatch world remains the differential oracle: build any world
//! as a plain [`World`](netco_net::World), run the A-leg there, and
//! [`accelerate`] an identically built world for the B-leg. The two runs
//! are bit-identical — same event stream, same RNG draws, same tap-digest
//! — because the enum changes *how a handler is reached*, never what it
//! does (`batch_determinism` / `region_determinism` /
//! `grid_lattice_digest` enforce this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;

use bytes::Bytes;
use netco_core::{GuardSwitch, Hub};
use netco_net::testutil::{CollectorDevice, EchoDevice};
use netco_net::{Ctx, Device, DeviceStore, Frame, GenericWorld, NodeId, PortId, World};
use netco_openflow::OfSwitch;
use netco_traffic::{FlowSet, FlowSink};

/// A world whose devices are stored as [`DeviceKind`] — the monomorphic
/// fast path. Built via [`accelerate`] (or directly with
/// `FastWorld::new`, whose `add_node` classifies devices on insertion).
pub type FastWorld = GenericWorld<DeviceKind>;

/// Converts a freshly built dyn-dispatch world into an enum-dispatch
/// [`FastWorld`], carrying all substrate state (clock, RNG streams, links,
/// pending events) unchanged. Call at any quiescent point — typically
/// right after the builder returns, before the first `run_until`.
pub fn accelerate(world: World) -> FastWorld {
    world.map_devices()
}

/// Device storage with the hottest built-in devices inlined as enum
/// variants. See the [crate docs](crate) for why this exists and how it is
/// proven equivalent to the boxed path.
#[allow(clippy::large_enum_variant)] // one table per world; spend the bytes, skip the pointer chase
pub enum DeviceKind {
    /// The NetCo duplicating hub element.
    Hub(Hub),
    /// The NetCo guard (hub + compare sandwich) element.
    Guard(GuardSwitch),
    /// A replica OpenFlow switch.
    Switch(OfSwitch),
    /// The million-flow traffic source engine.
    FlowSet(FlowSet),
    /// The million-flow traffic sink.
    FlowSink(FlowSink),
    /// The echo test device (hot in the region/ring benches).
    Echo(EchoDevice),
    /// The collector test device.
    Collector(CollectorDevice),
    /// Any other device — the classic vtable path.
    Custom(Box<dyn Device>),
}

impl DeviceKind {
    /// Unwraps the extra boxing layers a pre-boxed device accumulates
    /// (`add_node` re-boxes whatever it is given, so a `Box<dyn Device>`
    /// arrives as `Box<Box<dyn Device>>`), then classifies the concrete
    /// type into a variant.
    fn classify(mut device: Box<dyn Device>) -> DeviceKind {
        loop {
            if !(device.as_ref() as &dyn Any).is::<Box<dyn Device>>() {
                break;
            }
            let outer: Box<dyn Any> = device;
            device = *outer
                .downcast::<Box<dyn Device>>()
                .expect("checked double box");
        }
        macro_rules! classify_as {
            ($ty:ty, $variant:ident) => {
                if (device.as_ref() as &dyn Any).is::<$ty>() {
                    let any: Box<dyn Any> = device;
                    return DeviceKind::$variant(
                        *any.downcast::<$ty>().expect("checked concrete type"),
                    );
                }
            };
        }
        classify_as!(Hub, Hub);
        classify_as!(GuardSwitch, Guard);
        classify_as!(OfSwitch, Switch);
        classify_as!(FlowSet, FlowSet);
        classify_as!(FlowSink, FlowSink);
        classify_as!(EchoDevice, Echo);
        classify_as!(CollectorDevice, Collector);
        DeviceKind::Custom(device)
    }
}

impl DeviceStore for DeviceKind {
    fn from_dyn(device: Box<dyn Device>) -> Self {
        DeviceKind::classify(device)
    }

    fn into_dyn(self) -> Box<dyn Device> {
        match self {
            DeviceKind::Hub(d) => Box::new(d),
            DeviceKind::Guard(d) => Box::new(d),
            DeviceKind::Switch(d) => Box::new(d),
            DeviceKind::FlowSet(d) => Box::new(d),
            DeviceKind::FlowSink(d) => Box::new(d),
            DeviceKind::Echo(d) => Box::new(d),
            DeviceKind::Collector(d) => Box::new(d),
            DeviceKind::Custom(d) => d,
        }
    }

    #[inline]
    fn dispatch_start(&mut self, ctx: &mut Ctx<'_>) {
        match self {
            DeviceKind::Hub(d) => d.on_start(ctx),
            DeviceKind::Guard(d) => d.on_start(ctx),
            DeviceKind::Switch(d) => d.on_start(ctx),
            DeviceKind::FlowSet(d) => d.on_start(ctx),
            DeviceKind::FlowSink(d) => d.on_start(ctx),
            DeviceKind::Echo(d) => d.on_start(ctx),
            DeviceKind::Collector(d) => d.on_start(ctx),
            DeviceKind::Custom(d) => d.on_start(ctx),
        }
    }

    #[inline]
    fn dispatch_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        match self {
            DeviceKind::Hub(d) => d.on_frame(ctx, port, frame),
            DeviceKind::Guard(d) => d.on_frame(ctx, port, frame),
            DeviceKind::Switch(d) => d.on_frame(ctx, port, frame),
            DeviceKind::FlowSet(d) => d.on_frame(ctx, port, frame),
            DeviceKind::FlowSink(d) => d.on_frame(ctx, port, frame),
            DeviceKind::Echo(d) => d.on_frame(ctx, port, frame),
            DeviceKind::Collector(d) => d.on_frame(ctx, port, frame),
            DeviceKind::Custom(d) => d.on_frame(ctx, port, frame),
        }
    }

    #[inline]
    fn dispatch_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match self {
            DeviceKind::Hub(d) => d.on_timer(ctx, token),
            DeviceKind::Guard(d) => d.on_timer(ctx, token),
            DeviceKind::Switch(d) => d.on_timer(ctx, token),
            DeviceKind::FlowSet(d) => d.on_timer(ctx, token),
            DeviceKind::FlowSink(d) => d.on_timer(ctx, token),
            DeviceKind::Echo(d) => d.on_timer(ctx, token),
            DeviceKind::Collector(d) => d.on_timer(ctx, token),
            DeviceKind::Custom(d) => d.on_timer(ctx, token),
        }
    }

    #[inline]
    fn dispatch_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        match self {
            DeviceKind::Hub(d) => d.on_control(ctx, from, msg),
            DeviceKind::Guard(d) => d.on_control(ctx, from, msg),
            DeviceKind::Switch(d) => d.on_control(ctx, from, msg),
            DeviceKind::FlowSet(d) => d.on_control(ctx, from, msg),
            DeviceKind::FlowSink(d) => d.on_control(ctx, from, msg),
            DeviceKind::Echo(d) => d.on_control(ctx, from, msg),
            DeviceKind::Collector(d) => d.on_control(ctx, from, msg),
            DeviceKind::Custom(d) => d.on_control(ctx, from, msg),
        }
    }

    fn inner_any(&self) -> &dyn Any {
        match self {
            DeviceKind::Hub(d) => d,
            DeviceKind::Guard(d) => d,
            DeviceKind::Switch(d) => d,
            DeviceKind::FlowSet(d) => d,
            DeviceKind::FlowSink(d) => d,
            DeviceKind::Echo(d) => d,
            DeviceKind::Collector(d) => d,
            DeviceKind::Custom(d) => d.inner_any(),
        }
    }

    fn inner_any_mut(&mut self) -> &mut dyn Any {
        match self {
            DeviceKind::Hub(d) => d,
            DeviceKind::Guard(d) => d,
            DeviceKind::Switch(d) => d,
            DeviceKind::FlowSet(d) => d,
            DeviceKind::FlowSink(d) => d,
            DeviceKind::Echo(d) => d,
            DeviceKind::Collector(d) => d,
            DeviceKind::Custom(d) => d.inner_any_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::{CpuModel, LinkSpec};
    use netco_sim::SimDuration;

    fn echo_collector_world() -> World {
        let mut w = World::new(42);
        let a = w.add_node("a", EchoDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        w.connect(
            a,
            0.into(),
            b,
            0.into(),
            LinkSpec::new(1_000_000_000, SimDuration::from_micros(5)),
        );
        for i in 0..8 {
            w.inject_frame(a, 0.into(), Bytes::from(vec![i as u8; 600 + i]));
        }
        w
    }

    #[test]
    fn classification_hits_the_inline_variants() {
        let mut w: FastWorld = FastWorld::new(1);
        let e = w.add_node("e", EchoDevice::default(), CpuModel::default());
        let h = w.add_node("h", Hub::default(), CpuModel::default());
        // Concrete downcasts still work through the enum.
        assert!(w.device::<EchoDevice>(e).is_some());
        assert!(w.device::<Hub>(h).is_some());
        assert!(w.device::<Hub>(e).is_none());
    }

    #[test]
    fn traffic_engine_does_not_fatten_every_device_slot() {
        // Every slot of an accelerated world is as large as the largest
        // variant, today `GuardSwitch`; `FlowSet` boxes its pacing wheel
        // to stay below it.
        use std::mem::size_of;
        assert!(size_of::<FlowSet>() <= size_of::<GuardSwitch>());
    }

    #[test]
    fn pre_boxed_devices_classify_through_double_boxing() {
        // Builders like `build_world` hand `add_node` an already-boxed
        // `Box<dyn Device>`; classification must see through the re-boxing.
        let mut w: FastWorld = FastWorld::new(1);
        let boxed: Box<dyn Device> = Box::new(EchoDevice::default());
        let e = w.add_node("e", boxed, CpuModel::default());
        assert!(w.device::<EchoDevice>(e).is_some());
    }

    #[test]
    fn accelerated_world_matches_dyn_world() {
        let mut dyn_w = echo_collector_world();
        let mut fast_w = accelerate(echo_collector_world());
        dyn_w.run_for(SimDuration::from_millis(5));
        fast_w.run_for(SimDuration::from_millis(5));
        assert_eq!(dyn_w.events_processed(), fast_w.events_processed());
        let b = NodeId::from_index(1);
        let dyn_col = dyn_w.device::<CollectorDevice>(b).unwrap();
        let fast_col = fast_w.device::<CollectorDevice>(b).unwrap();
        assert_eq!(dyn_col.frames, fast_col.frames);
        assert_eq!(dyn_w.counters(b).total(), fast_w.counters(b).total());
    }

    #[test]
    fn round_trip_preserves_device_state() {
        let mut fast_w = accelerate(echo_collector_world());
        fast_w.run_for(SimDuration::from_millis(5));
        let events = fast_w.events_processed();
        // FastWorld -> dyn World -> FastWorld keeps device state and the
        // substrate clock.
        let mut back: World = fast_w.map_devices();
        let col = back
            .device_mut::<CollectorDevice>(NodeId::from_index(1))
            .unwrap();
        assert_eq!(col.frames.len(), 8);
        let again: FastWorld = back.map_devices();
        assert_eq!(again.events_processed(), events);
    }
}
