//! The [`Device`] trait and the per-invocation context handle.

use std::any::Any;

use netco_sim::{SimDuration, SimRng, SimTime};

use crate::frame::Frame;
use crate::id::{NodeId, PortId};
use crate::substrate::Substrate;

/// A node participating in the simulated network.
///
/// Devices receive frames (after link propagation and CPU service), timers
/// they scheduled, and control-plane messages. They react through the
/// [`Ctx`] handle. Implementations live across the workspace: OpenFlow
/// switches, NetCo hubs and compares, hosts with traffic apps, controllers,
/// and adversarial wrappers.
///
/// The `Any` supertrait enables post-run inspection via
/// [`crate::World::device`]. The `Send` supertrait lets the
/// region-parallel executor move a shard's devices onto a pool worker;
/// devices never need `Sync` (each is owned by exactly one region).
pub trait Device: Any + Send {
    /// Invoked once when the simulation starts (or when the node is added
    /// to an already-running world). Typical use: schedule the first timer
    /// or send the first packet.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A frame has been received on `port` and has cleared this node's CPU.
    ///
    /// The [`Frame`] carries memoized derived data (fingerprint, parsed
    /// header fields) shared with every other clone of the same content.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame);

    /// A timer scheduled via [`Ctx::schedule_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// A control-plane message from `from` has arrived and cleared the CPU.
    ///
    /// Like a data-plane frame it is a [`Frame`]: a message that carries
    /// a frame (an OpenFlow packet-in or packet-out) shares it, memo
    /// included, instead of copying it.
    fn on_control(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Frame) {}
}

impl Device for Box<dyn Device> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        (**self).on_frame(ctx, port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        (**self).on_timer(ctx, token);
    }
    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        (**self).on_control(ctx, from, msg);
    }
}

/// The capabilities a [`Device`] has while handling an event.
///
/// `Ctx` borrows the world's device-free substrate (scheduler, links,
/// counters, RNG) while the device itself is borrowed separately from the
/// device table, so a device can never re-enter itself.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut Substrate,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The id of the device handling this event.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's deterministic random stream, derived from the world
    /// seed and the node id — a node draws the same sequence no matter
    /// which worker executes its region.
    pub fn rng(&mut self) -> &mut SimRng {
        self.core.node_rng(self.node)
    }

    /// Transmits `frame` out of `port`.
    ///
    /// The frame is subject to the attached link's queue, serialization and
    /// propagation models, and then to the receiving node's CPU model.
    /// Sending on a port with no attached link silently discards the frame
    /// (counted as a tx drop) — matching a cable that isn't plugged in.
    ///
    /// Accepts anything convertible into a [`Frame`] (`Bytes`,
    /// `Vec<u8>`, or a `Frame` whose memo is preserved across the hop).
    pub fn send_frame(&mut self, port: PortId, frame: impl Into<Frame>) {
        self.core.transmit(self.node, port, frame.into());
    }

    /// Schedules [`Device::on_timer`] with `token` after `delay`.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        self.core.schedule_timer(self.node, delay, token);
    }

    /// Sends a control-plane message to `peer`.
    ///
    /// Requires a control channel registered between the two nodes
    /// ([`crate::World::connect_control`]); the message is silently dropped
    /// (and counted) otherwise. Accepts anything convertible into a
    /// [`Frame`], as [`send_frame`](Ctx::send_frame) does.
    pub fn send_control(&mut self, peer: NodeId, msg: impl Into<Frame>) {
        self.core.send_control(self.node, peer, msg.into());
    }

    /// The ports of this node that have a link attached, in ascending order.
    pub fn ports(&self) -> Vec<PortId> {
        self.core.ports_of(self.node)
    }

    /// Human-readable name of a node (for logs and assertions).
    pub fn node_name(&self, id: NodeId) -> &str {
        self.core.name_of(id)
    }

    /// The world's telemetry sink (disabled unless the experiment
    /// installed one via [`crate::World::set_telemetry`]). Devices use it
    /// to register their own counters and emit spans; with the default
    /// disabled sink every such call is a no-op.
    pub fn telemetry(&self) -> &netco_telemetry::TelemetrySink {
        &self.core.telemetry
    }
}
