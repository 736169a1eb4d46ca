//! Reactive L2 learning switch application.

use std::collections::HashMap;

use bytes::Bytes;
use netco_net::packet::EthernetFrame;
use netco_net::{MacAddr, NodeId};
use netco_openflow::{Action, FlowMatch, OfPort, PacketInReason};

use crate::app::{ControllerApp, ControllerCtx};

/// The classic learning-switch controller app.
///
/// On every packet-in it learns `(dl_src → in_port)` for that switch. When
/// the destination is already known it installs an exact `dl_dst` rule
/// (with an idle timeout) and releases the packet toward the learned port;
/// otherwise it floods the packet without installing anything.
#[derive(Debug, Default)]
pub struct LearningSwitchApp {
    tables: HashMap<NodeId, HashMap<MacAddr, u16>>,
    /// Idle timeout (seconds) for installed rules; 0 = permanent.
    pub idle_timeout_s: u16,
    installs: u64,
    floods: u64,
}

impl LearningSwitchApp {
    /// Creates an app installing permanent rules.
    pub fn new() -> LearningSwitchApp {
        LearningSwitchApp::default()
    }

    /// Rules installed so far.
    pub fn install_count(&self) -> u64 {
        self.installs
    }

    /// Packets flooded so far.
    pub fn flood_count(&self) -> u64 {
        self.floods
    }

    /// The learned port for `mac` on `switch`, if any.
    pub fn learned(&self, switch: NodeId, mac: MacAddr) -> Option<u16> {
        self.tables.get(&switch)?.get(&mac).copied()
    }
}

impl ControllerApp for LearningSwitchApp {
    fn on_packet_in(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        buffer_id: Option<u32>,
        in_port: u16,
        _reason: PacketInReason,
        data: Bytes,
    ) {
        let Ok(EthernetFrame { dst, src, .. }) = EthernetFrame::decode(&data) else {
            return;
        };
        let table = self.tables.entry(switch).or_default();
        if !src.is_multicast() {
            table.insert(src, in_port);
        }
        match table.get(&dst).copied() {
            Some(out_port) if !dst.is_multicast() => {
                self.installs += 1;
                let msg = netco_openflow::OfMessage::FlowMod {
                    command: netco_openflow::FlowModCommand::Add,
                    matcher: FlowMatch::any().with_dl_dst(dst),
                    priority: 100,
                    idle_timeout_s: self.idle_timeout_s,
                    hard_timeout_s: 0,
                    cookie: 0,
                    notify_when_removed: false,
                    actions: vec![Action::Output(OfPort::Physical(out_port))],
                    buffer_id,
                };
                cx.send(switch, &msg);
                if buffer_id.is_none() {
                    cx.packet_out(switch, None, in_port, OfPort::Physical(out_port), data);
                }
            }
            _ => {
                self.floods += 1;
                cx.packet_out(switch, buffer_id, in_port, OfPort::Flood, data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Controller;
    use bytes::Bytes;
    use netco_net::packet::builder;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, PortId, World};
    use netco_openflow::{OfSwitch, SwitchConfig};
    use netco_sim::SimDuration;
    use std::net::Ipv4Addr;

    fn udp(src: u32, dst: u32) -> Bytes {
        builder::udp_frame(
            MacAddr::local(src),
            MacAddr::local(dst),
            Ipv4Addr::new(10, 0, 0, src as u8),
            Ipv4Addr::new(10, 0, 0, dst as u8),
            1,
            2,
            Bytes::from_static(b"x"),
            None,
        )
    }

    /// a(p0)--(p1)sw(p2)--(p0)b with a learning controller.
    fn world() -> (World, NodeId, NodeId, NodeId, NodeId) {
        let mut w = World::new(3);
        let a = w.add_node("a", CollectorDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let sw = w.add_node(
            "sw",
            OfSwitch::new(SwitchConfig::with_datapath_id(1)),
            CpuModel::default(),
        );
        let ctl = w.add_node(
            "ctl",
            Controller::new(LearningSwitchApp::new()),
            CpuModel::default(),
        );
        w.connect(a, PortId(0), sw, PortId(1), LinkSpec::ideal());
        w.connect(b, PortId(0), sw, PortId(2), LinkSpec::ideal());
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);
        (w, a, b, sw, ctl)
    }

    #[test]
    fn handshake_brings_switch_up() {
        let (mut w, _a, _b, _sw, ctl) = world();
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.device::<Controller>(ctl).unwrap().switches_up(), 1);
    }

    #[test]
    fn first_packet_floods_then_reverse_installs() {
        let (mut w, a, b, sw, ctl) = world();
        w.run_for(SimDuration::from_millis(20));
        // a → b : unknown destination → flood (reaches b), learns a@1.
        w.inject_frame(sw, PortId(1), udp(1, 2));
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
        // b → a : destination known → rule installed, packet delivered.
        w.inject_frame(sw, PortId(2), udp(2, 1));
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.device::<CollectorDevice>(a).unwrap().frames.len(), 1);
        let c = w.device::<Controller>(ctl).unwrap();
        let app = c.app::<LearningSwitchApp>().unwrap();
        assert_eq!(app.flood_count(), 1);
        assert_eq!(app.install_count(), 1);
        assert_eq!(app.learned(sw, MacAddr::local(1)), Some(1));
        assert_eq!(app.learned(sw, MacAddr::local(2)), Some(2));
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 1);
    }

    #[test]
    fn learned_flow_bypasses_controller() {
        let (mut w, _a, b, sw, ctl) = world();
        w.run_for(SimDuration::from_millis(20));
        w.inject_frame(sw, PortId(1), udp(1, 2)); // learn a
        w.run_for(SimDuration::from_millis(20));
        w.inject_frame(sw, PortId(2), udp(2, 1)); // learn b, install b→a... (dst a)
        w.run_for(SimDuration::from_millis(20));
        w.inject_frame(sw, PortId(1), udp(1, 2)); // install a→b
        w.run_for(SimDuration::from_millis(20));
        let packet_ins_before = w.device::<Controller>(ctl).unwrap().packet_in_count();
        // Steady state: no new packet-ins.
        for _ in 0..5 {
            w.inject_frame(sw, PortId(1), udp(1, 2));
        }
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(
            w.device::<Controller>(ctl).unwrap().packet_in_count(),
            packet_ins_before
        );
        assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 2 + 5);
    }
}
