//! The controller application interface.

use std::any::Any;

use netco_net::{Ctx, Frame, NodeId};
use netco_openflow::{wire, Action, FlowMatch, OfMessage, OfPort};
use netco_sim::{SimDuration, SimTime};

/// What an app can do while handling a controller event: inspect time and
/// send OpenFlow messages to switches.
pub struct ControllerCtx<'a, 'b> {
    pub(crate) ctx: &'a mut Ctx<'b>,
    pub(crate) next_xid: &'a mut u32,
    /// When `Some`, every send buffers `(switch, message)` instead of
    /// transmitting — the interposition point wrapper apps (e.g. the
    /// Byzantine harness) use to inspect and rewrite the inner app's
    /// outputs before they reach the wire.
    pub(crate) capture: Option<Vec<(NodeId, Frame)>>,
}

impl<'a, 'b> ControllerCtx<'a, 'b> {
    pub(crate) fn new(ctx: &'a mut Ctx<'b>, next_xid: &'a mut u32) -> ControllerCtx<'a, 'b> {
        ControllerCtx {
            ctx,
            next_xid,
            capture: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The hosting controller node's device context (node name,
    /// telemetry sink).
    pub fn device(&self) -> &Ctx<'b> {
        self.ctx
    }

    /// Sends an OpenFlow message to `switch` (encoded to wire bytes).
    pub fn send(&mut self, switch: NodeId, msg: &OfMessage) {
        let xid = self.fresh_xid();
        self.transmit(switch, wire::encode(msg, xid).into());
    }

    fn fresh_xid(&mut self) -> u32 {
        let xid = *self.next_xid;
        *self.next_xid = self.next_xid.wrapping_add(1);
        xid
    }

    /// Sends `msg` to `switch`, or buffers it while a capture is on.
    fn transmit(&mut self, switch: NodeId, msg: Frame) {
        match &mut self.capture {
            Some(buf) => buf.push((switch, msg)),
            None => self.ctx.send_control(switch, msg),
        }
    }

    /// Starts buffering every subsequent [`ControllerCtx::send`] instead of
    /// transmitting; pair with [`ControllerCtx::end_capture`].
    pub(crate) fn begin_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(Vec::new());
        }
    }

    /// Stops capturing and returns the buffered `(switch, message)`
    /// sends, in emission order.
    pub(crate) fn end_capture(&mut self) -> Vec<(NodeId, Frame)> {
        self.capture.take().unwrap_or_default()
    }

    /// Sends an encoded message to `switch`, bypassing any active
    /// capture — how a wrapper forwards (or rewrites) captured output.
    pub(crate) fn send_raw(&mut self, switch: NodeId, msg: Frame) {
        self.ctx.send_control(switch, msg);
    }

    /// Schedules [`ControllerApp::on_app_timer`] with `token` after
    /// `delay`. App tokens live in their own namespace — they never
    /// collide with the controller's internal tick timer.
    pub(crate) fn schedule_app_timer(&mut self, delay: SimDuration, token: u64) {
        self.ctx
            .schedule_timer(delay, crate::controller::APP_TIMER_BASE + token);
    }

    /// Convenience: installs a flow entry on `switch`.
    pub fn install(
        &mut self,
        switch: NodeId,
        priority: u16,
        matcher: FlowMatch,
        actions: Vec<Action>,
    ) {
        self.send(switch, &OfMessage::add_flow(priority, matcher, actions));
    }

    /// Convenience: a packet-out releasing `buffer_id` (or sending `data`,
    /// which it carries without copying) out of `port`.
    pub fn packet_out(
        &mut self,
        switch: NodeId,
        buffer_id: Option<u32>,
        in_port: u16,
        port: OfPort,
        data: &Frame,
    ) {
        let xid = self.fresh_xid();
        let actions = [Action::Output(port)];
        let msg = wire::packet_out_frame(&[], xid, buffer_id, in_port, &actions, data);
        self.transmit(switch, msg);
    }
}

/// A controller application: the control logic running on a
/// [`crate::Controller`].
///
/// All methods default to no-ops so apps implement only what they need.
/// The `Any` supertrait allows post-run inspection through
/// [`crate::Controller::app`].
#[allow(unused_variables)]
pub trait ControllerApp: Any + Send {
    /// The run is starting on the hosting [`crate::Controller`] node.
    fn on_start(&mut self, cx: &mut ControllerCtx<'_, '_>) {}

    /// A switch completed the handshake (features reply received).
    fn on_switch_up(&mut self, cx: &mut ControllerCtx<'_, '_>, switch: NodeId) {}

    /// A packet-in arrived from `switch`; `data` is the frame it carries,
    /// memo included when the switch sent it without copying.
    fn on_packet_in(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        buffer_id: Option<u32>,
        in_port: u16,
        data: Frame,
    ) {
    }

    /// Per-flow statistics arrived (answer to a
    /// [`netco_openflow::OfMessage::FlowStatsRequest`]).
    fn on_flow_stats(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        flows: Vec<netco_openflow::FlowStats>,
    ) {
    }

    /// Periodic housekeeping; called every tick interval when the
    /// controller was built with [`crate::Controller::with_tick`].
    fn tick(&mut self, cx: &mut ControllerCtx<'_, '_>) {}

    /// A timer scheduled with `ControllerCtx::schedule_app_timer` fired;
    /// `token` is the value the app passed when scheduling.
    fn on_app_timer(&mut self, cx: &mut ControllerCtx<'_, '_>, token: u64) {}
}
