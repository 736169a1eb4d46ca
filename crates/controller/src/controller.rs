//! The controller device: handshake and dispatch.

use std::any::Any;
use std::collections::HashSet;

use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_openflow::wire::FrameMessage::{Other, Payload};
use netco_openflow::wire::{self, SplitHead};
use netco_openflow::OfMessage;
use netco_sim::SimDuration;

use crate::app::{ControllerApp, ControllerCtx};

/// A logically centralized OpenFlow controller hosting one application.
///
/// Switches are registered with [`Controller::manage`]; at start the
/// controller sends `Hello` + `FeaturesRequest` to each, and declares a
/// switch *up* when its features reply arrives.
///
/// # Example
///
/// See the crate-level docs of [`netco_controller`](crate) and the
/// integration tests; a minimal deployment is: add the controller node, add
/// switches with [`netco_openflow::OfSwitch::set_controller`], register
/// control channels, and call `manage` for each switch.
pub struct Controller {
    app: Box<dyn ControllerApp>,
    switches: Vec<NodeId>,
    up: HashSet<NodeId>,
    next_xid: u32,
    packet_ins: u64,
    tick_interval: Option<SimDuration>,
}

const TICK_TIMER: u64 = 0;
/// App-scheduled timers (see [`ControllerCtx::schedule_app_timer`]) live
/// at `APP_TIMER_BASE + token` so they can never shadow internal timers.
pub(crate) const APP_TIMER_BASE: u64 = 1 << 32;

impl Controller {
    /// Creates a controller running `app`.
    pub fn new(app: impl ControllerApp) -> Controller {
        Controller {
            app: Box::new(app),
            switches: Vec::new(),
            up: HashSet::new(),
            next_xid: 1,
            packet_ins: 0,
            tick_interval: None,
        }
    }

    /// Builder: makes the app's [`ControllerApp::tick`] fire periodically.
    pub fn with_tick(mut self, interval: SimDuration) -> Controller {
        self.tick_interval = Some(interval);
        self
    }

    /// Registers a switch this controller manages (the control channel must
    /// be registered separately on the world).
    pub fn manage(&mut self, switch: NodeId) {
        self.switches.push(switch);
    }

    /// Switches that completed the handshake.
    #[cfg(test)]
    pub(crate) fn switches_up(&self) -> usize {
        self.up.len()
    }

    /// Total packet-ins received.
    pub fn packet_in_count(&self) -> u64 {
        self.packet_ins
    }

    /// Downcasts the hosted app for inspection.
    pub fn app<T: ControllerApp>(&self) -> Option<&T> {
        (self.app.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to the hosted app.
    pub fn app_mut<T: ControllerApp>(&mut self) -> Option<&mut T> {
        (self.app.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }
}

impl Device for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &sw in &self.switches {
            let hello = wire::encode(&OfMessage::Hello, 0);
            ctx.send_control(sw, hello);
            let feat = wire::encode(&OfMessage::FeaturesRequest, self.next_xid);
            self.next_xid = self.next_xid.wrapping_add(1);
            ctx.send_control(sw, feat);
        }
        if let Some(interval) = self.tick_interval {
            ctx.schedule_timer(interval, TICK_TIMER);
        }
        self.app
            .on_start(&mut ControllerCtx::new(ctx, &mut self.next_xid));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TICK_TIMER => {
                let Some(interval) = self.tick_interval else {
                    return;
                };
                let mut cx = ControllerCtx::new(ctx, &mut self.next_xid);
                self.app.tick(&mut cx);
                ctx.schedule_timer(interval, TICK_TIMER);
            }
            tok if tok >= APP_TIMER_BASE => {
                let mut cx = ControllerCtx::new(ctx, &mut self.next_xid);
                self.app.on_app_timer(&mut cx, tok - APP_TIMER_BASE);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {
        // Controllers have no data-plane ports.
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        let Some((message, _)) = wire::read_frame(&[], &msg) else {
            return;
        };
        let mut cx = ControllerCtx::new(ctx, &mut self.next_xid);
        match message {
            Other(OfMessage::Hello) => {}
            Other(OfMessage::FeaturesReply { .. }) if self.up.insert(from) => {
                self.app.on_switch_up(&mut cx, from);
            }
            Payload(SplitHead::PacketIn { buffer_id, in_port }, data) => {
                self.packet_ins += 1;
                cx.ctx.telemetry().counter("controller.packet_ins").inc();
                self.app
                    .on_packet_in(&mut cx, from, buffer_id, in_port, data);
            }
            Other(OfMessage::FlowStatsReply { flows }) => {
                self.app.on_flow_stats(&mut cx, from, flows);
            }
            // Requests a switch would send to a controller make no sense.
            // Ignore them.
            _ => {}
        }
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("switches", &self.switches.len())
            .field("up", &self.up.len())
            .field("packet_ins", &self.packet_ins)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::{CpuModel, World};
    use netco_openflow::OfSwitch;

    /// An app that does nothing: the handshake alone is under test.
    struct Idle;
    impl ControllerApp for Idle {}

    #[test]
    fn handshake_brings_switch_up() {
        let mut w = World::new(3);
        let sw = w.add_node("sw", OfSwitch::new(1), CpuModel::default());
        let ctl = w.add_node("ctl", Controller::new(Idle), CpuModel::default());
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.device::<Controller>(ctl).unwrap().switches_up(), 1);
    }
}
