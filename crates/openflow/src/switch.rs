//! The OpenFlow switch datapath as a simulated [`Device`].

use std::collections::HashMap;

use bytes::Bytes;
use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_sim::{SimDuration, SimTime};
use netco_telemetry::Counter;

use crate::action::{apply_actions, Action};
use crate::flow_table::{FlowEntry, FlowTable};
use crate::messages::{FlowModCommand, OfMessage, PacketInReason, PortDesc};
use crate::ports::OfPort;
use crate::wire;

const EXPIRY_TIMER: u64 = 1;

/// Static configuration of an [`OfSwitch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Datapath id reported in features replies.
    pub datapath_id: u64,
    /// Packet-in buffer slots (0 disables buffering — full packets are
    /// then shipped to the controller, as in the paper's prototype, which
    /// notes buffering "if the router supports" it).
    pub n_buffers: usize,
    /// Bytes of the packet included in an unbuffered packet-in
    /// (`miss_send_len`); buffered packet-ins always truncate to this too.
    pub miss_send_len: usize,
    /// Period of the flow-expiry sweep.
    pub expiry_interval: SimDuration,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            datapath_id: 0,
            n_buffers: 256,
            miss_send_len: 128,
            expiry_interval: SimDuration::from_millis(500),
        }
    }
}

impl SwitchConfig {
    /// A config with the given datapath id and defaults elsewhere.
    pub fn with_datapath_id(datapath_id: u64) -> SwitchConfig {
        SwitchConfig {
            datapath_id,
            ..SwitchConfig::default()
        }
    }
}

/// Aggregate datapath statistics of a switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames forwarded by flow entries.
    pub forwarded: u64,
    /// Frames shipped to the controller (miss or explicit action).
    pub to_controller: u64,
    /// Frames dropped because nothing matched and no controller is attached
    /// (or the action list had no output).
    pub dropped: u64,
    /// Frames dropped on a blocked ingress port.
    pub blocked: u64,
}

/// An OpenFlow 1.0 switch: flow table, packet-in/packet-out, flow-mod over
/// the control channel (speaking the real wire format), per-entry timeouts
/// and counters.
///
/// Switch-local rules can also be pre-installed with
/// [`OfSwitch::preinstall`] — the reproduction uses this the way the paper
/// used static Mininet flow rules.
pub struct OfSwitch {
    config: SwitchConfig,
    controller: Option<NodeId>,
    table: FlowTable,
    preinstalled: Vec<FlowEntry>,
    buffers: HashMap<u32, (u16, Frame)>,
    buffer_order: Vec<u32>,
    next_buffer_id: u32,
    next_xid: u32,
    blocked_ports: HashMap<u16, SimTime>,
    stats: SwitchStats,
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
    /// Creates a switch with no controller attached.
    pub fn new(config: SwitchConfig) -> OfSwitch {
        OfSwitch {
            config,
            controller: None,
            table: FlowTable::new(),
            preinstalled: Vec::new(),
            buffers: HashMap::new(),
            buffer_order: Vec::new(),
            next_buffer_id: 1,
            next_xid: 1,
            blocked_ports: HashMap::new(),
            stats: SwitchStats::default(),
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

    /// Read access to the flow table (e.g. to monitor counters, as the
    /// paper's case study does).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Datapath statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Drops everything arriving on `port` until `until` (used for the
    /// compare's DoS containment advice, paper §IV case 2).
    pub fn block_port(&mut self, port: PortId, until: SimTime) {
        self.blocked_ports.insert(port.number(), until);
    }

    /// `true` when `port` is currently blocked.
    pub fn is_port_blocked(&self, port: PortId, now: SimTime) -> bool {
        self.blocked_ports
            .get(&port.number())
            .is_some_and(|&until| now < until)
    }

    fn fresh_xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    fn send_to_controller(&mut self, ctx: &mut Ctx<'_>, msg: &OfMessage) {
        if let Some(controller) = self.controller {
            let xid = self.fresh_xid();
            ctx.send_control(controller, wire::encode(msg, xid));
        }
    }

    fn buffer_packet(&mut self, in_port: u16, frame: &Frame) -> Option<u32> {
        if self.config.n_buffers == 0 {
            return None;
        }
        if self.buffers.len() >= self.config.n_buffers {
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
        Some(id)
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, in_port: Option<u16>, outputs: Vec<(OfPort, Frame)>) {
        let mut sent_any = false;
        for (port, frame) in outputs {
            match port {
                OfPort::Physical(p) => {
                    ctx.send_frame(PortId(p), frame);
                    sent_any = true;
                }
                OfPort::InPort => {
                    if let Some(p) = in_port {
                        ctx.send_frame(PortId(p), frame);
                        sent_any = true;
                    }
                }
                OfPort::Flood | OfPort::All => {
                    let mut targets = ctx.ports();
                    if port == OfPort::Flood {
                        targets.retain(|p| Some(p.number()) != in_port);
                    }
                    // Move the frame into the final replica send.
                    if let Some((&last, rest)) = targets.split_last() {
                        for &p in rest {
                            ctx.send_frame(p, frame.clone());
                        }
                        ctx.send_frame(last, frame);
                        sent_any = true;
                    }
                }
                OfPort::Controller => {
                    let data = truncate(frame.bytes(), self.config.miss_send_len);
                    let msg = OfMessage::PacketIn {
                        buffer_id: self.buffer_packet(in_port.unwrap_or(0), &frame),
                        in_port: in_port.unwrap_or(0),
                        reason: PacketInReason::Action,
                        data,
                    };
                    self.send_to_controller(ctx, &msg);
                    self.stats.to_controller += 1;
                }
                OfPort::None => {}
            }
        }
        if sent_any {
            self.stats.forwarded += 1;
        }
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
        notify: bool,
        actions: Vec<Action>,
        buffer_id: Option<u32>,
    ) {
        let now = ctx.now();
        match command {
            FlowModCommand::Add => {
                let mut entry = FlowEntry::new(priority, matcher, actions.clone())
                    .with_cookie(cookie)
                    .with_notify(notify);
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
                        .add(FlowEntry::new(priority, matcher, actions.clone()), now);
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = matches!(command, FlowModCommand::DeleteStrict);
                let removed = self
                    .table
                    .delete(&matcher, strict.then_some(priority), strict);
                for entry in removed {
                    if entry.notify_when_removed() {
                        let msg = OfMessage::FlowRemoved {
                            matcher: entry.matcher().clone(),
                            cookie: entry.cookie(),
                            priority: entry.priority(),
                            reason: crate::FlowRemovedReason::Delete,
                            packet_count: entry.packet_count(),
                            byte_count: entry.byte_count(),
                        };
                        self.send_to_controller(ctx, &msg);
                    }
                }
            }
        }
        // Run a buffered packet through the (new) table state.
        if let Some(id) = buffer_id {
            if let Some((in_port, frame)) = self.take_buffer(id) {
                let outputs = apply_actions(&frame, &actions);
                self.emit(ctx, Some(in_port), outputs);
            }
        }
    }

    fn take_buffer(&mut self, id: u32) -> Option<(u16, Frame)> {
        self.buffer_order.retain(|&b| b != id);
        self.buffers.remove(&id)
    }
}

/// Zero-copy truncation: a shared sub-slice of the same buffer, never a
/// reallocation.
fn truncate(frame: &Bytes, len: usize) -> Bytes {
    if frame.len() <= len {
        frame.clone()
    } else {
        frame.slice(..len)
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
        let now = ctx.now();
        for entry in std::mem::take(&mut self.preinstalled) {
            self.table.add(entry, now);
        }
        if self.controller.is_some() {
            self.send_to_controller(ctx, &OfMessage::Hello);
        }
        ctx.schedule_timer(self.config.expiry_interval, EXPIRY_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let now = ctx.now();
        if self.is_port_blocked(port, now) {
            self.stats.blocked += 1;
            return;
        }
        // Memoized parse: the byte sniff ran at most once for this content
        // anywhere in the world; this hop only stamps its ingress port.
        let fields = frame.fields_on(port.number());
        match self.table.lookup_counted(&fields, frame.len(), now) {
            Some(entry) => {
                self.tel.table_hits.inc();
                // Clone the Arc handle, not the list: `lookup_counted`
                // borrows the table mutably, so the actions must outlive
                // the borrow, but a per-packet Vec copy is not the way.
                let actions = entry.shared_actions();
                let outputs = apply_actions(&frame, &actions);
                if outputs.is_empty() {
                    self.stats.dropped += 1;
                }
                self.emit(ctx, Some(port.number()), outputs);
            }
            None => {
                self.tel.table_misses.inc();
                if self.controller.is_some() {
                    let data = truncate(frame.bytes(), self.config.miss_send_len);
                    let msg = OfMessage::PacketIn {
                        buffer_id: self.buffer_packet(port.number(), &frame),
                        in_port: port.number(),
                        reason: PacketInReason::NoMatch,
                        data,
                    };
                    self.send_to_controller(ctx, &msg);
                    self.stats.to_controller += 1;
                    self.tel.packet_ins.inc();
                } else {
                    self.stats.dropped += 1;
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != EXPIRY_TIMER {
            return;
        }
        let now = ctx.now();
        self.blocked_ports.retain(|_, &mut until| now < until);
        for (entry, reason) in self.table.expire(now) {
            if entry.notify_when_removed() {
                let msg = OfMessage::FlowRemoved {
                    matcher: entry.matcher().clone(),
                    cookie: entry.cookie(),
                    priority: entry.priority(),
                    reason,
                    packet_count: entry.packet_count(),
                    byte_count: entry.byte_count(),
                };
                self.send_to_controller(ctx, &msg);
            }
        }
        ctx.schedule_timer(self.config.expiry_interval, EXPIRY_TIMER);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        if Some(from) != self.controller {
            return; // only the attached controller may program the switch
        }
        let (message, xid) = match wire::decode_shared(&msg) {
            Ok(m) => m,
            Err(_) => {
                let reply = OfMessage::Error {
                    err_type: 0, // OFPET_HELLO_FAILED family: generic
                    code: 0,
                    data: truncate(&msg, 64),
                };
                self.send_to_controller(ctx, &reply);
                return;
            }
        };
        match message {
            OfMessage::Hello => {}
            OfMessage::EchoRequest(data) => {
                if let Some(controller) = self.controller {
                    ctx.send_control(controller, wire::encode(&OfMessage::EchoReply(data), xid));
                }
            }
            OfMessage::FeaturesRequest => {
                let ports = ctx
                    .ports()
                    .iter()
                    .map(|p| PortDesc {
                        port_no: p.number(),
                        hw_addr: netco_net::MacAddr::local(
                            0xff00_0000
                                | ((self.config.datapath_id as u32) << 8)
                                | p.number() as u32,
                        ),
                        name: format!("eth{}", p.number()),
                    })
                    .collect();
                let reply = OfMessage::FeaturesReply {
                    datapath_id: self.config.datapath_id,
                    n_buffers: self.config.n_buffers as u32,
                    n_tables: 1,
                    ports,
                };
                if let Some(controller) = self.controller {
                    ctx.send_control(controller, wire::encode(&reply, xid));
                }
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                let payload = match buffer_id.and_then(|id| self.take_buffer(id)) {
                    Some((buf_port, frame)) => Some((buf_port, frame)),
                    None if !data.is_empty() => Some((in_port, Frame::new(data))),
                    None => None,
                };
                if let Some((port, frame)) = payload {
                    let outputs = apply_actions(&frame, &actions);
                    self.emit(ctx, Some(port), outputs);
                }
            }
            OfMessage::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout_s,
                hard_timeout_s,
                cookie,
                notify_when_removed,
                actions,
                buffer_id,
            } => {
                self.handle_flow_mod(
                    ctx,
                    command,
                    matcher,
                    priority,
                    idle_timeout_s,
                    hard_timeout_s,
                    cookie,
                    notify_when_removed,
                    actions,
                    buffer_id,
                );
            }
            OfMessage::BarrierRequest => {
                if let Some(controller) = self.controller {
                    ctx.send_control(controller, wire::encode(&OfMessage::BarrierReply, xid));
                }
            }
            OfMessage::FlowStatsRequest { matcher } => {
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
                if let Some(controller) = self.controller {
                    ctx.send_control(
                        controller,
                        wire::encode(&OfMessage::FlowStatsReply { flows }, xid),
                    );
                }
            }
            // Replies/asynchronous messages are controller-bound; a switch
            // receiving them reports an error, per spec.
            _ => {
                let reply = OfMessage::Error {
                    err_type: 1, // OFPET_BAD_REQUEST
                    code: 1,     // OFPBRC_BAD_TYPE
                    data: truncate(&msg, 64),
                };
                self.send_to_controller(ctx, &reply);
            }
        }
    }
}

impl std::fmt::Debug for OfSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfSwitch")
            .field("datapath_id", &self.config.datapath_id)
            .field("flows", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowMatch;
    use netco_net::packet::builder;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, MacAddr, World};
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
        let sw = w.add_node(
            "sw",
            OfSwitch::new(SwitchConfig::default()),
            CpuModel::default(),
        );
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
        let st = w.device::<OfSwitch>(sw).unwrap().stats();
        assert_eq!(st.forwarded, 1);
    }

    #[test]
    fn drops_on_miss_without_controller() {
        let (mut w, _a, b, c, sw) = three_port_world();
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(99)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
        assert_eq!(w.device::<CollectorDevice>(c).unwrap().frames.len(), 0);
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().stats().dropped, 1);
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().miss_count(), 1);
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
    fn all_includes_ingress() {
        let (mut w, a, b, c, sw) = three_port_world();
        w.device_mut::<OfSwitch>(sw)
            .unwrap()
            .preinstall(FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![Action::Output(OfPort::All)],
            ));
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::BROADCAST));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(a).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(c).unwrap().frames.len(), 1);
    }

    #[test]
    fn blocked_port_drops() {
        let (mut w, _a, b, _c, sw) = three_port_world();
        {
            let s = w.device_mut::<OfSwitch>(sw).unwrap();
            s.preinstall(FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![Action::Output(OfPort::Physical(2))],
            ));
            s.block_port(PortId(1), SimTime::from_nanos(u64::MAX));
        }
        w.inject_frame(sw, PortId(1), frame_to(MacAddr::local(20)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 0);
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().stats().blocked, 1);
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
        fn on_control(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Bytes) {
            if let Ok((m, _)) = wire::decode_shared(&msg) {
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
    fn echo_and_features_and_barrier() {
        let (mut w, _a, _b, _sw, ctl) = controlled_world(vec![
            OfMessage::EchoRequest(Bytes::from_static(b"abc")),
            OfMessage::FeaturesRequest,
            OfMessage::BarrierRequest,
        ]);
        w.run_for(SimDuration::from_millis(10));
        let c = w.device::<ScriptedController>(ctl).unwrap();
        assert!(c
            .received
            .contains(&OfMessage::EchoReply(Bytes::from_static(b"abc"))));
        assert!(c.received.iter().any(|m| matches!(
            m,
            OfMessage::FeaturesReply { n_tables: 1, ports, .. } if ports.len() == 3
        )));
        assert!(c.received.contains(&OfMessage::BarrierReply));
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
    fn garbage_control_message_yields_error() {
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
                vec![Action::Output(OfPort::All)],
            )];
        }
        let _ = ctl;
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 0);
    }

    /// Packet-in truncation is a shared view of the frame's buffer — the
    /// miss path must never reallocate the (possibly jumbo) payload just
    /// to ship the controller its first `miss_send_len` bytes.
    #[test]
    fn packet_in_truncation_is_zero_copy() {
        let wire = builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            IP_A,
            IP_B,
            1,
            2,
            Bytes::from(vec![0xEEu8; 1400]),
            None,
        );
        let cut = truncate(&wire, 128);
        assert_eq!(cut.len(), 128);
        assert_eq!(cut.as_ptr(), wire.as_ptr(), "sub-slice views the buffer");
        let whole = truncate(&wire, usize::MAX);
        assert_eq!(whole.len(), wire.len());
        assert_eq!(whole.as_ptr(), wire.as_ptr(), "no-op cut stays shared");
    }

    /// A buffered frame comes back from `take_buffer` as the same Frame:
    /// same underlying buffer (pointer and length) and the same memo, so
    /// the post-`PacketOut` emit reuses the ingress parse.
    #[test]
    fn buffered_frame_handoff_is_zero_copy() {
        let mut sw = OfSwitch::new(SwitchConfig::default());
        let frame = Frame::from(frame_to(MacAddr::local(9)));
        let fp = frame.fp128();
        let id = sw.buffer_packet(7, &frame).expect("buffering enabled");
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
