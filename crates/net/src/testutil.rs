//! Tiny devices for tests and documentation examples.

use bytes::Bytes;
#[cfg(test)]
use netco_sim::SimDuration;
use netco_sim::SimTime;

use crate::device::{Ctx, Device};
use crate::frame::Frame;
use crate::id::{NodeId, PortId};

/// A device that retransmits every received frame out of the same port.
#[derive(Debug, Default)]
pub struct EchoDevice {
    /// Frames echoed so far.
    pub echoed: u64,
}

impl Device for EchoDevice {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        self.echoed += 1;
        ctx.send_frame(port, frame);
    }
}

/// A device that records everything it receives, with timestamps.
#[derive(Debug, Default)]
pub struct CollectorDevice {
    /// `(arrival time, frame)` pairs in arrival order.
    pub frames: Vec<(SimTime, Bytes)>,
    /// `(arrival time, sender, message)` control messages.
    pub control: Vec<(SimTime, NodeId, Bytes)>,
}

impl Device for CollectorDevice {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, frame: Frame) {
        self.frames.push((ctx.now(), frame.into_bytes()));
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        self.control.push((ctx.now(), from, msg.into_bytes()));
    }
}

/// A device that sends one control message to `peer` at start-up.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ControlEchoDevice {
    /// Destination of the start-up message.
    pub peer: Option<NodeId>,
    started: bool,
}

#[cfg(test)]
impl Device for ControlEchoDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // `peer` is usually set right after `add_node`; retry via timer so
        // ordering does not matter.
        ctx.schedule_timer(SimDuration::ZERO, 0);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.started {
            return;
        }
        if let Some(peer) = self.peer {
            self.started = true;
            ctx.send_control(peer, Bytes::from_static(b"hello"));
        } else {
            ctx.schedule_timer(SimDuration::from_micros(1), 0);
        }
    }
}

/// A device that schedules three timers at start and records firing order.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct TimerRecorder {
    /// Tokens in firing order.
    pub fired: Vec<u64>,
}

#[cfg(test)]
impl Device for TimerRecorder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_timer(SimDuration::from_micros(30), 3);
        ctx.schedule_timer(SimDuration::from_micros(10), 1);
        ctx.schedule_timer(SimDuration::from_micros(20), 2);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
        self.fired.push(token);
    }
}
