//! The OpenFlow switch datapath as a simulated [`Device`]: the reactive
//! path (table-miss packet-ins, buffers, packet-out, flow-mod add /
//! modify / delete, timeouts) and the handshake and flow statistics a
//! controller app reads. It answers nothing else and sends no
//! asynchronous message but the packet-in.

use std::collections::HashMap;

use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_sim::SimDuration;
use netco_telemetry::Counter;

use crate::action::{apply_actions, Action};
use crate::flow_table::{FlowEntry, FlowTable};
use crate::messages::{FlowModCommand, OfMessage, PortDesc};
use crate::ports::OfPort;
use crate::wire::FrameMessage::{Other, Payload};
use crate::wire::{self, SplitHead};

const EXPIRY_TIMER: u64 = 1;
/// Period of the flow-expiry sweep.
const EXPIRY_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Packet-in buffer slots; the oldest is overwritten when all are held.
const N_BUFFERS: usize = 256;
/// Bytes of the frame a packet-in carries (OF 1.0's miss-send length).
const MISS_SEND_LEN: usize = 128;

/// An OpenFlow 1.0 switch: flow table, packet-in/packet-out, flow-mod over
/// the control channel (speaking the real wire format), per-entry timeouts
/// and counters.
///
/// A table miss with a controller attached buffers the frame (256 slots,
/// the oldest overwritten first) and sends a packet-in carrying its buffer
/// id and the frame's first 128 bytes; without a controller the frame is
/// dropped. Timed-out entries are swept every 500 ms. A control message
/// that does not decode, or that no controller sends a switch, is
/// ignored.
///
/// Switch-local rules can also be pre-installed with
/// [`OfSwitch::preinstall`] — the reproduction uses this the way the paper
/// used static Mininet flow rules.
pub struct OfSwitch {
    datapath_id: u64,
    controller: Option<NodeId>,
    table: FlowTable,
    preinstalled: Vec<FlowEntry>,
    buffers: HashMap<u32, (u16, Frame)>,
    buffer_order: Vec<u32>,
    next_buffer_id: u32,
    next_xid: u32,
    tel: SwitchTelemetry,
}

/// Workspace-wide datapath counters (aggregated over every switch in the
/// world); inert until the world enables telemetry.
#[derive(Default)]
struct SwitchTelemetry {
    table_hits: Counter,
    table_misses: Counter,
    packet_ins: Counter,
}

impl OfSwitch {
    /// Creates a switch reporting `datapath_id` in its features replies,
    /// with no controller attached.
    pub fn new(datapath_id: u64) -> OfSwitch {
        OfSwitch {
            datapath_id,
            controller: None,
            table: FlowTable::new(),
            preinstalled: Vec::new(),
            buffers: HashMap::new(),
            buffer_order: Vec::new(),
            next_buffer_id: 1,
            next_xid: 1,
            tel: SwitchTelemetry::default(),
        }
    }

    /// Attaches the controller this switch will speak OpenFlow with
    /// (a control channel must also be registered on the world).
    pub fn set_controller(&mut self, controller: NodeId) {
        self.controller = Some(controller);
    }

    /// Queues a flow entry to be installed when the simulation starts.
    pub fn preinstall(&mut self, entry: FlowEntry) {
        self.preinstalled.push(entry);
    }

    /// Makes room for `additional` more [`preinstall`](OfSwitch::preinstall)ed
    /// entries in one allocation.
    pub fn reserve_preinstalled(&mut self, additional: usize) {
        self.preinstalled.reserve_exact(additional);
    }

    /// Read access to the flow table (e.g. to monitor counters, as the
    /// paper's case study does).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    fn fresh_xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    /// A table miss: buffers `frame` and sends the controller a packet-in
    /// carrying its buffer id and its first 128 bytes, shared with `frame`.
    fn packet_in(&mut self, ctx: &mut Ctx<'_>, controller: NodeId, in_port: u16, frame: Frame) {
        let buffer_id = Some(self.buffer_packet(in_port, &frame));
        let xid = self.fresh_xid();
        let data = frame.slice(..frame.len().min(MISS_SEND_LEN));
        let msg = wire::packet_in_frame(&[], xid, buffer_id, in_port, &data);
        ctx.send_control(controller, msg);
    }

    fn buffer_packet(&mut self, in_port: u16, frame: &Frame) -> u32 {
        if self.buffers.len() >= N_BUFFERS {
            // Evict the oldest buffer (switches overwrite stale slots).
            if let Some(old) = self.buffer_order.first().copied() {
                self.buffer_order.remove(0);
                self.buffers.remove(&old);
            }
        }
        let id = self.next_buffer_id;
        self.next_buffer_id = self.next_buffer_id.wrapping_add(1).max(1);
        self.buffers.insert(id, (in_port, frame.clone()));
        self.buffer_order.push(id);
        id
    }

    // The parameter list mirrors the `ofp_flow_mod` wire structure 1:1.
    #[allow(clippy::too_many_arguments)]
    fn handle_flow_mod(
        &mut self,
        ctx: &mut Ctx<'_>,
        command: FlowModCommand,
        matcher: crate::FlowMatch,
        priority: u16,
        idle_timeout_s: u16,
        hard_timeout_s: u16,
        cookie: u64,
        actions: Vec<Action>,
        buffer_id: Option<u32>,
    ) {
        let now = ctx.now();
        match command {
            FlowModCommand::Add => {
                let mut entry =
                    FlowEntry::new(priority, matcher, actions.as_slice()).with_cookie(cookie);
                if idle_timeout_s > 0 {
                    entry = entry.with_idle_timeout(SimDuration::from_secs(idle_timeout_s as u64));
                }
                if hard_timeout_s > 0 {
                    entry = entry.with_hard_timeout(SimDuration::from_secs(hard_timeout_s as u64));
                }
                self.table.add(entry, now);
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict_priority =
                    matches!(command, FlowModCommand::ModifyStrict).then_some(priority);
                let n = self.table.modify(&matcher, strict_priority, &actions);
                if n == 0 {
                    // OF 1.0: modify with no match behaves like add.
                    self.table
                        .add(FlowEntry::new(priority, matcher, actions.as_slice()), now);
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = matches!(command, FlowModCommand::DeleteStrict);
                self.table
                    .delete(&matcher, strict.then_some(priority), strict);
            }
        }
        // Run a buffered packet through the (new) table state.
        if let Some(id) = buffer_id {
            if let Some((in_port, frame)) = self.take_buffer(id) {
                apply_actions(frame, &actions, |port, out| emit(ctx, in_port, port, out));
            }
        }
    }

    fn take_buffer(&mut self, id: u32) -> Option<(u16, Frame)> {
        self.buffer_order.retain(|&b| b != id);
        self.buffers.remove(&id)
    }
}

/// Carries out one `Output` of an action list on a frame that came in on
/// `in_port`.
fn emit(ctx: &mut Ctx<'_>, in_port: u16, port: OfPort, frame: Frame) {
    match port {
        OfPort::Physical(p) => ctx.send_frame(PortId(p), frame),
        OfPort::Flood => {
            let mut targets = ctx.ports();
            targets.retain(|p| p.number() != in_port);
            // Move the frame into the final replica send.
            if let Some((&last, rest)) = targets.split_last() {
                for &p in rest {
                    ctx.send_frame(p, frame.clone());
                }
                ctx.send_frame(last, frame);
            }
        }
        OfPort::None => {}
    }
}

impl Device for OfSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.telemetry().is_enabled() {
            self.tel = SwitchTelemetry {
                table_hits: ctx.telemetry().counter("openflow.table_hits"),
                table_misses: ctx.telemetry().counter("openflow.table_misses"),
                packet_ins: ctx.telemetry().counter("openflow.packet_ins"),
            };
        }
        self.table
            .add_all(std::mem::take(&mut self.preinstalled), ctx.now());
        if let Some(controller) = self.controller {
            let xid = self.fresh_xid();
            ctx.send_control(controller, wire::encode(&OfMessage::Hello, xid));
        }
        ctx.schedule_timer(EXPIRY_INTERVAL, EXPIRY_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let now = ctx.now();
        // Memoized parse: the byte sniff ran at most once for this content
        // anywhere in the world; this hop only stamps its ingress port.
        let fields = frame.fields_on(port.number());
        match self.table.lookup_counted(&fields, frame.len(), now) {
            Some(entry) => {
                self.tel.table_hits.inc();
                // `emit` needs only `ctx`: the entry's actions stay
                // borrowed from the table while they run.
                apply_actions(frame, entry.actions(), |out_port, out| {
                    emit(ctx, port.number(), out_port, out);
                });
            }
            None => {
                self.tel.table_misses.inc();
                if let Some(controller) = self.controller {
                    self.packet_in(ctx, controller, port.number(), frame);
                    self.tel.packet_ins.inc();
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != EXPIRY_TIMER {
            return;
        }
        self.table.expire(ctx.now());
        ctx.schedule_timer(EXPIRY_INTERVAL, EXPIRY_TIMER);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        if Some(from) != self.controller {
            return; // only the attached controller may program the switch
        }
        let Some((message, xid)) = wire::read_frame(&[], &msg) else {
            return;
        };
        let reply = match message {
            Payload(
                SplitHead::PacketOut {
                    buffer_id,
                    in_port,
                    actions,
                },
                data,
            ) => {
                let payload = match buffer_id.and_then(|id| self.take_buffer(id)) {
                    Some((buf_port, frame)) => Some((buf_port, frame)),
                    None if !data.is_empty() => Some((in_port, data)),
                    None => None,
                };
                if let Some((in_port, frame)) = payload {
                    let actions: Vec<Action> = actions.iter().collect();
                    apply_actions(frame, &actions, |port, out| emit(ctx, in_port, port, out));
                }
                return;
            }
            Other(OfMessage::FeaturesRequest) => {
                let ports = ctx
                    .ports()
                    .iter()
                    .map(|p| PortDesc {
                        port_no: p.number(),
                        hw_addr: netco_net::MacAddr::local(
                            0xff00_0000 | ((self.datapath_id as u32) << 8) | p.number() as u32,
                        ),
                        name: format!("eth{}", p.number()),
                    })
                    .collect();
                OfMessage::FeaturesReply {
                    datapath_id: self.datapath_id,
                    n_buffers: N_BUFFERS as u32,
                    n_tables: 1,
                    ports,
                }
            }
            Other(OfMessage::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout_s,
                hard_timeout_s,
                cookie,
                actions,
                buffer_id,
                ..
            }) => {
                self.handle_flow_mod(
                    ctx,
                    command,
                    matcher,
                    priority,
                    idle_timeout_s,
                    hard_timeout_s,
                    cookie,
                    actions,
                    buffer_id,
                );
                return;
            }
            Other(OfMessage::FlowStatsRequest { matcher }) => {
                let flows = self
                    .table
                    .iter()
                    .filter(|e| matcher.subsumes(e.matcher()))
                    .map(|e| crate::messages::FlowStats {
                        matcher: e.matcher().clone(),
                        priority: e.priority(),
                        cookie: e.cookie(),
                        packet_count: e.packet_count(),
                        byte_count: e.byte_count(),
                        actions: e.actions().to_vec(),
                    })
                    .collect();
                OfMessage::FlowStatsReply { flows }
            }
            // The hello needs no answer; replies and packet-ins are
            // controller-bound, so a switch receiving one ignores it.
            _ => return,
        };
        ctx.send_control(from, wire::encode(&reply, xid));
    }
}

impl std::fmt::Debug for OfSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfSwitch")
            .field("datapath_id", &self.datapath_id)
            .field("flows", &self.table.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowMatch, PacketInReason};
    use bytes::Bytes;
    use netco_net::packet::builder;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, MacAddr, World};
    use netco_sim::SimTime;
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn frame_to(dst: MacAddr) -> Bytes {
        builder::udp_frame(
            MacAddr::local(1),
            dst,
            IP_A,
            IP_B,
            1,
            2,
            Bytes::from_static(b"data"),
            None,
        )
    }

    /// host_a (p0) -- (p1) switch (p2) -- (p0) host_b, plus host_c on p3.
    fn three_port_world() -> (World, NodeId, NodeId, NodeId, NodeId) {
        let mut w = World::new(1);
        let a = w.add_node("a", CollectorDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let c = w.add_node("c", CollectorDevice::default(), CpuModel::default());
        let sw = w.add_node("sw", OfSwitch::new(0), CpuModel::default());
        w.connect(a, PortId(0), sw, PortId(1), LinkSpec::ideal());
        w.connect(b, PortId(0), sw, PortId(2), LinkSpec::ideal());
        w.connect(c, PortId(0), sw, PortId(3), LinkSpec::ideal());
        (w, a, b, c, sw)
    }

    #[test]
    fn forwards_on_match() {
        let (mut w, a, b, c, sw) = three_port_world();
        w.device_mut::<OfSwitch>(sw)
            .unwrap()
            .preinstall(FlowEntry::new(
                10,
                FlowMatch::any().with_dl_dst(MacAddr::local(20)),
                vec![Action::Output(OfPort::Physical(2))],
            ));
        w.inject_frame(a, PortId(0), Bytes::new()); // wake a (no-op)
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(c).unwrap().frames.len(), 0);
        let _ = a;
    }

    #[test]
    fn drops_on_miss_without_controller() {
        let (mut w, _a, b, c, sw) = three_port_world();
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(99)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
        assert_eq!(w.device::<CollectorDevice>(c).unwrap().frames.len(), 0);
    }

    #[test]
    fn flood_excludes_ingress() {
        let (mut w, a, b, c, sw) = three_port_world();
        w.device_mut::<OfSwitch>(sw)
            .unwrap()
            .preinstall(FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![Action::Output(OfPort::Flood)],
            ));
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::BROADCAST));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(a).unwrap().frames.len(), 0);
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(c).unwrap().frames.len(), 1);
    }

    #[test]
    fn rewrite_actions_apply_in_datapath() {
        let (mut w, _a, b, _c, sw) = three_port_world();
        w.device_mut::<OfSwitch>(sw)
            .unwrap()
            .preinstall(FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![Action::SetVlanVid(42), Action::Output(OfPort::Physical(2))],
            ));
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        w.run_for(SimDuration::from_millis(1));
        let frames = &w.device::<CollectorDevice>(b).unwrap().frames;
        let v = netco_net::packet::FrameView::parse(&frames[0].1).unwrap();
        assert_eq!(v.eth.vlan.unwrap().vid, 42);
    }

    // --- control-channel tests using a scripted controller device ---

    /// A minimal scripted controller: sends `script` messages at start,
    /// records every message it receives.
    #[derive(Default)]
    struct ScriptedController {
        switch: Option<NodeId>,
        script: Vec<OfMessage>,
        received: Vec<OfMessage>,
    }

    impl Device for ScriptedController {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule_timer(SimDuration::from_micros(1), 0);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(sw) = self.switch {
                for (i, m) in self.script.drain(..).enumerate() {
                    ctx.send_control(sw, wire::encode(&m, i as u32 + 100));
                }
            }
        }
        fn on_control(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Frame) {
            if let Ok((m, _)) = wire::decode_shared(msg.bytes()) {
                self.received.push(m);
            }
        }
    }

    fn controlled_world(script: Vec<OfMessage>) -> (World, NodeId, NodeId, NodeId, NodeId) {
        let (mut w, a, b, _c, sw) = three_port_world();
        let ctl = w.add_node("ctl", ScriptedController::default(), CpuModel::default());
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        {
            let c = w.device_mut::<ScriptedController>(ctl).unwrap();
            c.switch = Some(sw);
            c.script = script;
        }
        (w, a, b, sw, ctl)
    }

    #[test]
    fn switch_says_hello() {
        let (mut w, _a, _b, _sw, ctl) = controlled_world(vec![]);
        w.run_for(SimDuration::from_millis(10));
        let c = w.device::<ScriptedController>(ctl).unwrap();
        assert!(c.received.contains(&OfMessage::Hello));
    }

    #[test]
    fn miss_generates_packet_in_and_packet_out_releases_buffer() {
        let (mut w, _a, b, sw, ctl) = controlled_world(vec![]);
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        w.run_for(SimDuration::from_millis(10));
        let buffer_id = {
            let c = w.device::<ScriptedController>(ctl).unwrap();
            let pi = c
                .received
                .iter()
                .find_map(|m| match m {
                    OfMessage::PacketIn {
                        buffer_id,
                        in_port,
                        reason: PacketInReason::NoMatch,
                        ..
                    } => Some((*buffer_id, *in_port)),
                    _ => None,
                })
                .expect("packet-in expected");
            assert_eq!(pi.1, 1);
            pi.0.expect("buffered")
        };
        // Release the buffer out port 2 via a packet-out from a fresh
        // scripted controller (the switch is re-pointed at it).
        let shot = w.add_node("shot", ScriptedController::default(), CpuModel::default());
        w.connect_control(sw, shot, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(shot);
        {
            let s = w.device_mut::<ScriptedController>(shot).unwrap();
            s.switch = Some(sw);
            s.script = vec![OfMessage::PacketOut {
                buffer_id: Some(buffer_id),
                in_port: 1,
                actions: vec![Action::Output(OfPort::Physical(2))],
                data: Bytes::new(),
            }];
        }
        let _ = ctl;
        w.run_for(SimDuration::from_millis(10));
        let released = w.device::<CollectorDevice>(b).unwrap().frames.len();
        assert_eq!(released, 1, "buffered frame must reach host b");
    }

    #[test]
    fn flow_mod_add_then_traffic_flows() {
        let fm = OfMessage::add_flow(
            50,
            FlowMatch::any().with_dl_dst(MacAddr::local(20)),
            vec![Action::Output(OfPort::Physical(2))],
        );
        let (mut w, _a, b, sw, _ctl) = controlled_world(vec![fm]);
        w.run_for(SimDuration::from_millis(5)); // let the flow-mod land
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
        let table = w.device::<OfSwitch>(sw).unwrap().table();
        assert_eq!(table.len(), 1);
        assert_eq!(table.iter().next().unwrap().packet_count(), 1);
    }

    #[test]
    fn features_reply_lists_every_port() {
        let (mut w, _a, _b, _sw, ctl) = controlled_world(vec![OfMessage::FeaturesRequest]);
        w.run_for(SimDuration::from_millis(10));
        let c = w.device::<ScriptedController>(ctl).unwrap();
        assert!(c.received.iter().any(|m| matches!(
            m,
            OfMessage::FeaturesReply { n_tables: 1, ports, .. } if ports.len() == 3
        )));
    }

    /// Controller-bound messages sent to a switch get no answer.
    #[test]
    fn unexpected_messages_are_ignored() {
        let (mut w, _a, _b, sw, ctl) = controlled_world(vec![
            OfMessage::FeaturesReply {
                datapath_id: 9,
                n_buffers: 0,
                n_tables: 1,
                ports: vec![],
            },
            OfMessage::FlowStatsReply { flows: vec![] },
        ]);
        w.run_for(SimDuration::from_millis(10));
        let c = w.device::<ScriptedController>(ctl).unwrap();
        assert_eq!(c.received, vec![OfMessage::Hello]);
        assert!(w.device::<OfSwitch>(sw).unwrap().table().is_empty());
    }

    #[test]
    fn flow_stats_report_live_counters() {
        let fm = OfMessage::add_flow(
            50,
            FlowMatch::any().with_dl_dst(MacAddr::local(20)),
            vec![Action::Output(OfPort::Physical(2))],
        );
        let (mut w, _a, _b, sw, ctl) = controlled_world(vec![
            fm,
            OfMessage::FlowStatsRequest {
                matcher: FlowMatch::any(),
            },
        ]);
        w.run_for(SimDuration::from_millis(5));
        let frame = frame_to(MacAddr::local(20));
        let bytes = frame.len() as u64;
        w.inject_frame(sw, PortId(1), frame);
        w.run_for(SimDuration::from_millis(5));
        // Ask again after traffic.
        let shot = w.add_node("shot", ScriptedController::default(), CpuModel::default());
        w.connect_control(sw, shot, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(shot);
        {
            let s = w.device_mut::<ScriptedController>(shot).unwrap();
            s.switch = Some(sw);
            s.script = vec![OfMessage::FlowStatsRequest {
                matcher: FlowMatch::any(),
            }];
        }
        let _ = ctl;
        w.run_for(SimDuration::from_millis(5));
        let c = w.device::<ScriptedController>(shot).unwrap();
        let flows = c
            .received
            .iter()
            .find_map(|m| match m {
                OfMessage::FlowStatsReply { flows } => Some(flows.clone()),
                _ => None,
            })
            .expect("stats reply expected");
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].priority, 50);
        assert_eq!(flows[0].packet_count, 1);
        assert_eq!(flows[0].byte_count, bytes);
    }

    #[test]
    fn garbage_control_message_is_ignored() {
        let (mut w, _a, _b, sw, ctl) = controlled_world(vec![]);
        // Send raw garbage on the control channel.
        #[derive(Default)]
        struct Garbage {
            to: Option<NodeId>,
        }
        impl Device for Garbage {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_timer(SimDuration::ZERO, 0);
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                if let Some(to) = self.to {
                    ctx.send_control(to, Bytes::from_static(b"\x01\xff\x00\x09\x00\x00\x00\x01x"));
                }
            }
        }
        let _ = ctl;
        let g = w.add_node("garbage", Garbage::default(), CpuModel::default());
        w.connect_control(sw, g, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(g);
        w.device_mut::<Garbage>(g).unwrap().to = Some(sw);
        w.run_for(SimDuration::from_millis(10));
        // The switch does not crash and the table is untouched.
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 0);
    }

    #[test]
    fn non_controller_cannot_program_switch() {
        let (mut w, _a, _b, sw, ctl) = controlled_world(vec![]);
        let rogue = w.add_node("rogue", ScriptedController::default(), CpuModel::default());
        w.connect_control(sw, rogue, Default::default());
        {
            let r = w.device_mut::<ScriptedController>(rogue).unwrap();
            r.switch = Some(sw);
            r.script = vec![OfMessage::add_flow(
                1,
                FlowMatch::any(),
                vec![Action::Output(OfPort::Flood)],
            )];
        }
        let _ = ctl;
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 0);
    }

    // --- pins recorded on the configurable switch: buffer count, packet-in
    // length and expiry period are fixed values, and these record them ---

    fn packet_ins(c: &ScriptedController) -> Vec<(Option<u32>, usize)> {
        c.received
            .iter()
            .filter_map(|m| match m {
                OfMessage::PacketIn {
                    buffer_id, data, ..
                } => Some((*buffer_id, data.len())),
                _ => None,
            })
            .collect()
    }

    /// A table miss ships a buffered packet-in carrying the first
    /// `min(len, 128)` bytes of the frame.
    #[test]
    fn pinned_miss_packet_in_is_buffered_and_cut_at_128_bytes() {
        let (mut w, _a, _b, sw, ctl) = controlled_world(vec![]);
        let small = frame_to(MacAddr::local(20));
        let big = builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(20),
            IP_A,
            IP_B,
            1,
            2,
            Bytes::from(vec![0xAB; 1000]),
            None,
        );
        let (small_len, big_len) = (small.len(), big.len());
        w.inject_frame(sw, PortId(1), small);
        w.inject_frame(sw, PortId(1), big);
        w.run_for(SimDuration::from_millis(10));
        assert!(small_len < 128 && big_len > 128);
        assert_eq!(
            packet_ins(w.device::<ScriptedController>(ctl).unwrap()),
            vec![(Some(1), small_len), (Some(2), 128)]
        );
    }

    /// 256 packet-in buffers: the 257th unanswered miss evicts the oldest
    /// buffer, so a packet-out naming it releases nothing while the
    /// second-oldest is still held.
    #[test]
    fn pinned_257th_miss_evicts_the_oldest_buffer() {
        let (mut w, _a, b, sw, ctl) = controlled_world(vec![]);
        let frames: Vec<Bytes> = (0..257u32)
            .map(|i| {
                builder::udp_frame(
                    MacAddr::local(1),
                    MacAddr::local(20),
                    IP_A,
                    IP_B,
                    1,
                    2,
                    Bytes::from(i.to_be_bytes().to_vec()),
                    None,
                )
            })
            .collect();
        for f in &frames {
            w.inject_frame(sw, PortId(1), f.clone());
        }
        w.run_for(SimDuration::from_millis(10));
        let ids: Vec<Option<u32>> = packet_ins(w.device::<ScriptedController>(ctl).unwrap())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, (1..=257).map(Some).collect::<Vec<_>>());
        let shot = w.add_node("shot", ScriptedController::default(), CpuModel::default());
        w.connect_control(sw, shot, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(shot);
        {
            let s = w.device_mut::<ScriptedController>(shot).unwrap();
            s.switch = Some(sw);
            s.script = [1, 2]
                .map(|id| OfMessage::PacketOut {
                    buffer_id: Some(id),
                    in_port: 1,
                    actions: vec![Action::Output(OfPort::Physical(2))],
                    data: Bytes::new(),
                })
                .to_vec();
        }
        w.run_for(SimDuration::from_millis(10));
        let got = &w.device::<CollectorDevice>(b).unwrap().frames;
        assert_eq!(got.len(), 1, "buffer 1 was evicted, buffer 2 is held");
        assert_eq!(got[0].1, frames[1]);
    }

    /// The expiry sweep runs every 500 ms from start. A 1 s idle rule last
    /// hit at 300 ms times out at 1.3 s but is only removed by the 1.5 s
    /// sweep.
    #[test]
    fn pinned_expiry_sweep_runs_every_500_ms() {
        let (mut w, _a, _b, _c, sw) = three_port_world();
        w.device_mut::<OfSwitch>(sw).unwrap().preinstall(
            FlowEntry::new(
                10,
                FlowMatch::any().with_dl_dst(MacAddr::local(20)),
                vec![Action::Output(OfPort::Physical(2))],
            )
            .with_idle_timeout(SimDuration::from_secs(1)),
        );
        w.run_for(SimDuration::from_millis(300));
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        let mut gone_at = None;
        for ms in 301..=2000u64 {
            w.run_until(SimTime::from_nanos(ms * 1_000_000));
            if w.device::<OfSwitch>(sw).unwrap().table().is_empty() {
                gone_at = Some(ms);
                break;
            }
        }
        assert_eq!(gone_at, Some(1500));
    }

    /// A buffered frame comes back from `take_buffer` as the same Frame:
    /// same underlying buffer (pointer and length) and the same memo, so
    /// the post-`PacketOut` emit reuses the ingress parse.
    #[test]
    fn buffered_frame_handoff_is_zero_copy() {
        let mut sw = OfSwitch::new(0);
        let frame = Frame::from(frame_to(MacAddr::local(9)));
        let fp = frame.fp128();
        let id = sw.buffer_packet(7, &frame);
        let (in_port, back) = sw.take_buffer(id).expect("buffer held");
        assert_eq!(in_port, 7);
        assert_eq!(back.bytes().as_ptr(), frame.bytes().as_ptr());
        assert_eq!(back.len(), frame.len());
        let before = netco_net::memo_stats();
        assert_eq!(back.fp128(), fp);
        let d = netco_net::memo_stats().since(before);
        assert_eq!(d.fp_misses, 0, "handoff kept the memoized fingerprint");
        assert_eq!(d.fp_hits, 1);
    }
}
