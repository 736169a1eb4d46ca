//! The controller device: handshake, dispatch, liveness.

use std::any::Any;
use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_openflow::{wire, OfMessage};
use netco_sim::{SimDuration, SimTime};

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
    errors: u64,
    tick_interval: Option<SimDuration>,
    liveness: Option<Liveness>,
}

#[derive(Debug, Clone)]
struct Liveness {
    interval: SimDuration,
    missed_threshold: u32,
    outstanding: HashMap<NodeId, u32>,
    /// When the latest probe to each switch left, so the echo reply can
    /// be turned into a control-channel round-trip-time sample
    /// (`controller.echo_rtt_ns`).
    sent_at: HashMap<NodeId, SimTime>,
}

const TICK_TIMER: u64 = 0;
const LIVENESS_TIMER: u64 = 1;
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
            errors: 0,
            tick_interval: None,
            liveness: None,
        }
    }

    /// Builder: makes the app's [`ControllerApp::tick`] fire periodically.
    pub fn with_tick(mut self, interval: SimDuration) -> Controller {
        self.tick_interval = Some(interval);
        self
    }

    /// Builder: probes every up switch with an OpenFlow echo request every
    /// `interval`; a switch missing `missed_threshold` consecutive replies
    /// is declared down ([`ControllerApp::on_switch_down`] fires, and the
    /// handshake restarts when it speaks again).
    pub fn with_liveness(mut self, interval: SimDuration, missed_threshold: u32) -> Controller {
        self.liveness = Some(Liveness {
            interval,
            missed_threshold: missed_threshold.max(1),
            outstanding: HashMap::new(),
            sent_at: HashMap::new(),
        });
        self
    }

    /// Registers a switch this controller manages (the control channel must
    /// be registered separately on the world).
    pub fn manage(&mut self, switch: NodeId) {
        self.switches.push(switch);
    }

    /// Switches that completed the handshake.
    pub fn switches_up(&self) -> usize {
        self.up.len()
    }

    /// Total packet-ins received.
    pub fn packet_in_count(&self) -> u64 {
        self.packet_ins
    }

    /// Total error messages received.
    pub fn error_count(&self) -> u64 {
        self.errors
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
        if let Some(l) = &self.liveness {
            ctx.schedule_timer(l.interval, LIVENESS_TIMER);
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
            LIVENESS_TIMER => {
                let Some(mut liveness) = self.liveness.take() else {
                    return;
                };
                let mut went_down = Vec::new();
                for &sw in &self.switches {
                    if self.up.contains(&sw) {
                        let missed = liveness.outstanding.entry(sw).or_insert(0);
                        *missed += 1;
                        if *missed > liveness.missed_threshold {
                            went_down.push(sw);
                            continue;
                        }
                    }
                    // Down switches keep being probed so recovery is
                    // noticed as soon as they answer again.
                    let probe = OfMessage::EchoRequest(Bytes::from_static(b"liveness"));
                    let xid = self.next_xid;
                    self.next_xid = self.next_xid.wrapping_add(1);
                    liveness.sent_at.insert(sw, ctx.now());
                    ctx.send_control(sw, wire::encode(&probe, xid));
                }
                for sw in went_down {
                    self.up.remove(&sw);
                    liveness.outstanding.remove(&sw);
                    let mut cx = ControllerCtx::new(ctx, &mut self.next_xid);
                    self.app.on_switch_down(&mut cx, sw);
                }
                ctx.schedule_timer(liveness.interval, LIVENESS_TIMER);
                self.liveness = Some(liveness);
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

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        let Ok((message, xid)) = wire::decode(&msg) else {
            self.errors += 1;
            return;
        };
        // A switch previously declared dead is speaking again: restart its
        // handshake so the app sees a fresh switch-up.
        if self.switches.contains(&from) && !self.up.contains(&from) {
            if let Some(l) = &mut self.liveness {
                l.outstanding.insert(from, 0);
                if !matches!(message, OfMessage::FeaturesReply { .. }) {
                    let feat = wire::encode(&OfMessage::FeaturesRequest, self.next_xid);
                    self.next_xid = self.next_xid.wrapping_add(1);
                    ctx.send_control(from, feat);
                }
            }
        }
        let mut cx = ControllerCtx::new(ctx, &mut self.next_xid);
        match message {
            OfMessage::Hello => {}
            OfMessage::EchoRequest(data) => {
                cx.ctx
                    .send_control(from, wire::encode(&OfMessage::EchoReply(data), xid));
            }
            OfMessage::EchoReply(_) => {
                if let Some(l) = &mut self.liveness {
                    l.outstanding.insert(from, 0);
                    if let Some(sent) = l.sent_at.remove(&from) {
                        // Replies are rare (one per liveness interval per
                        // switch): the registry lookup is fine here.
                        let rtt = cx.ctx.now().saturating_since(sent);
                        cx.ctx
                            .telemetry()
                            .histogram("controller.echo_rtt_ns")
                            .record(rtt.as_nanos());
                    }
                }
            }
            OfMessage::FeaturesReply { .. } if self.up.insert(from) => {
                self.app.on_switch_up(&mut cx, from);
            }
            OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason,
                data,
            } => {
                self.packet_ins += 1;
                cx.ctx.telemetry().counter("controller.packet_ins").inc();
                self.app
                    .on_packet_in(&mut cx, from, buffer_id, in_port, reason, data);
            }
            OfMessage::FlowRemoved {
                matcher,
                packet_count,
                byte_count,
                ..
            } => {
                self.app
                    .on_flow_removed(&mut cx, from, matcher, packet_count, byte_count);
            }
            OfMessage::FlowStatsReply { flows } => {
                self.app.on_flow_stats(&mut cx, from, flows);
            }
            OfMessage::Error { err_type, code, .. } => {
                self.errors += 1;
                self.app.on_error(&mut cx, from, err_type, code);
            }
            OfMessage::BarrierReply => {}
            // Requests a switch would send to a controller make no sense;
            // ignore them defensively.
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
    use crate::apps::LearningSwitchApp;
    use netco_net::{CpuModel, PortId, World};
    use netco_openflow::OfMessage;

    /// An OF-speaking stub: completes the handshake and answers echo
    /// requests until muted.
    #[derive(Default)]
    struct MuteableSwitch {
        controller: Option<NodeId>,
        pub muted: bool,
    }

    impl netco_net::Device for MuteableSwitch {
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: Frame) {}
        fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
            if self.muted {
                return;
            }
            self.controller = Some(from);
            let Ok((m, xid)) = wire::decode(&msg) else {
                return;
            };
            let reply = match m {
                OfMessage::FeaturesRequest => Some(OfMessage::FeaturesReply {
                    datapath_id: 1,
                    n_buffers: 0,
                    n_tables: 1,
                    ports: vec![],
                }),
                OfMessage::EchoRequest(data) => Some(OfMessage::EchoReply(data)),
                _ => None,
            };
            if let Some(r) = reply {
                ctx.send_control(from, wire::encode(&r, xid));
            }
        }
    }

    #[test]
    fn liveness_declares_mute_switch_down_and_recovers_it() {
        let mut w = World::new(2);
        let sw = w.add_node("sw", MuteableSwitch::default(), CpuModel::default());
        let ctl = w.add_node(
            "ctl",
            Controller::new(LearningSwitchApp::new())
                .with_liveness(SimDuration::from_millis(10), 2),
            CpuModel::default(),
        );
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.device::<Controller>(ctl).unwrap().switches_up(), 1);

        // Mute the switch: after > 2 missed probes it is declared down.
        w.device_mut::<MuteableSwitch>(sw).unwrap().muted = true;
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(w.device::<Controller>(ctl).unwrap().switches_up(), 0);

        // Unmute: the next probe/handshake brings it back up.
        w.device_mut::<MuteableSwitch>(sw).unwrap().muted = false;
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(w.device::<Controller>(ctl).unwrap().switches_up(), 1);
    }
}
