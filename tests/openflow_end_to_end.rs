//! Cross-crate OpenFlow control-plane scenarios: reactive learning over a
//! multi-switch topology, proactive routing, flow expiry under traffic,
//! and counter monitoring — all over the real wire codec. The learning and
//! proactive controllers are test-local apps: the paper's worlds preinstall
//! their routes, so these apps exist only to drive the protocol.

use std::collections::HashMap;

use bytes::Bytes;
use netco_controller::apps::FlowStatsMonitor;
use netco_controller::{Controller, ControllerApp, ControllerCtx};
use netco_net::packet::{builder, EthernetFrame};
use netco_net::testutil::CollectorDevice;
use netco_net::{CpuModel, Frame, HostNic, LinkSpec, MacAddr, NodeId, PortId, World};
use netco_openflow::{
    Action, FlowEntry, FlowMatch, FlowModCommand, OfMessage, OfPort, OfSwitch, PacketInReason,
};
use netco_sim::SimDuration;
use netco_traffic::{IcmpEchoResponder, PingConfig, Pinger};
use std::net::Ipv4Addr;

/// Reactive L2 learning: learns each source's port; a known destination
/// gets a `dl_dst` rule whose flow-mod releases the buffered packet, an
/// unknown one is flooded and installs nothing.
#[derive(Default)]
struct Learn {
    ports: HashMap<(NodeId, MacAddr), u16>,
    /// Idle timeout (seconds) of installed rules; 0 = permanent.
    idle_timeout_s: u16,
}

impl ControllerApp for Learn {
    fn on_packet_in(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        buffer_id: Option<u32>,
        in_port: u16,
        _reason: PacketInReason,
        data: Frame,
    ) {
        let Ok(EthernetFrame { dst, src, .. }) = EthernetFrame::decode(data.bytes()) else {
            return;
        };
        self.ports.insert((switch, src), in_port);
        match self.ports.get(&(switch, dst)) {
            Some(&out) => cx.send(
                switch,
                &OfMessage::FlowMod {
                    command: FlowModCommand::Add,
                    matcher: FlowMatch::any().with_dl_dst(dst),
                    priority: 100,
                    idle_timeout_s: self.idle_timeout_s,
                    hard_timeout_s: 0,
                    cookie: 0,
                    notify_when_removed: false,
                    actions: vec![Action::Output(OfPort::Physical(out))],
                    buffer_id,
                },
            ),
            None => cx.packet_out(switch, buffer_id, in_port, OfPort::Flood, &data),
        }
    }
}

/// Proactive routing: installs each switch's `(match, output port)` rules
/// as soon as the switch completes the handshake.
#[derive(Default)]
struct Push(HashMap<NodeId, Vec<(FlowMatch, u16)>>);

impl ControllerApp for Push {
    fn on_switch_up(&mut self, cx: &mut ControllerCtx<'_, '_>, switch: NodeId) {
        for (matcher, port) in self.0.get(&switch).into_iter().flatten() {
            let actions = vec![Action::Output(OfPort::Physical(*port))];
            cx.install(switch, 100, matcher.clone(), actions);
        }
    }
}

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);
const MAC_A: MacAddr = MacAddr::local(0x0a01);
const MAC_B: MacAddr = MacAddr::local(0x0a02);

fn nic(mac: MacAddr, ip: Ipv4Addr) -> HostNic {
    let mut n = HostNic::new(mac, ip);
    n.neighbors.extend([(IP_A, MAC_A), (IP_B, MAC_B)]);
    n
}

/// hostA — sw1 — sw2 — hostB, both switches managed by one controller.
fn two_switch_world(app: impl ControllerApp) -> (World, NodeId, NodeId, NodeId, NodeId, NodeId) {
    let mut w = World::new(77);
    let a = w.add_node(
        "a",
        Pinger::new(nic(MAC_A, IP_A), PingConfig::new(IP_B).with_count(10)),
        CpuModel::default(),
    );
    let b = w.add_node(
        "b",
        IcmpEchoResponder::new(nic(MAC_B, IP_B)),
        CpuModel::default(),
    );
    let sw1 = w.add_node("sw1", OfSwitch::new(1), CpuModel::default());
    let sw2 = w.add_node("sw2", OfSwitch::new(2), CpuModel::default());
    let ctl = w.add_node("ctl", Controller::new(app), CpuModel::default());
    w.connect(a, PortId(0), sw1, PortId(1), LinkSpec::ideal());
    w.connect(sw1, PortId(2), sw2, PortId(1), LinkSpec::ideal());
    w.connect(sw2, PortId(2), b, PortId(0), LinkSpec::ideal());
    for sw in [sw1, sw2] {
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);
    }
    (w, a, b, sw1, sw2, ctl)
}

#[test]
fn learning_switches_converge_across_two_hops() {
    let (mut w, a, _b, sw1, sw2, ctl) = two_switch_world(Learn::default());
    w.run_for(SimDuration::from_secs(2));
    let report = w.device::<Pinger>(a).unwrap().report();
    assert_eq!(report.transmitted, 10);
    assert_eq!(report.received, 10, "reactive learning must converge");
    // After convergence both switches hold rules for both MACs.
    for sw in [sw1, sw2] {
        assert!(
            w.device::<OfSwitch>(sw).unwrap().table().len() >= 2,
            "{} should have learned both directions",
            w.node_name(sw)
        );
    }
    // And the steady state stops consulting the controller.
    let c = w.device::<Controller>(ctl).unwrap();
    assert!(
        c.packet_in_count() < 10,
        "only the first packets may reach the controller, saw {}",
        c.packet_in_count()
    );
}

#[test]
fn proactive_routing_never_consults_the_controller_for_data() {
    let (mut w, a, _b, sw1, sw2, ctl) = two_switch_world(Push::default());
    // Give the handshake + rule push a head start before traffic begins.
    w.device_mut::<Pinger>(a)
        .unwrap()
        .set_start_after(SimDuration::from_millis(50));
    let rules = vec![
        (FlowMatch::any().with_dl_dst(MAC_B), 2),
        (FlowMatch::any().with_dl_dst(MAC_A), 1),
    ];
    let push = w.device_mut::<Controller>(ctl).unwrap().app_mut::<Push>();
    push.unwrap().0 = HashMap::from([(sw1, rules.clone()), (sw2, rules)]);
    w.run_for(SimDuration::from_secs(2));
    let report = w.device::<Pinger>(a).unwrap().report();
    assert_eq!(report.received, 10);
    let c = w.device::<Controller>(ctl).unwrap();
    assert_eq!(
        c.packet_in_count(),
        0,
        "proactive rules must keep all data off the controller"
    );
    for sw in [sw1, sw2] {
        assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 2);
    }
}

#[test]
fn idle_timeout_expires_learned_rules_and_relearning_works() {
    let (mut w, a, _b, sw1, _sw2, _ctl) = two_switch_world(Learn {
        idle_timeout_s: 1,
        ..Learn::default()
    });
    w.run_for(SimDuration::from_secs(2)); // ping burst finishes < 1 s
    assert_eq!(w.device::<Pinger>(a).unwrap().report().received, 10);
    // After > 1 s of silence the learned rules expire.
    w.run_for(SimDuration::from_secs(3));
    assert!(
        w.device::<OfSwitch>(sw1).unwrap().table().is_empty(),
        "idle rules must expire"
    );
}

#[test]
fn stats_monitor_tracks_multi_switch_traffic() {
    // Preinstall static rules; the monitor app polls both switches.
    let mut w = World::new(78);
    let a = w.add_node(
        "a",
        Pinger::new(nic(MAC_A, IP_A), PingConfig::new(IP_B).with_count(7)),
        CpuModel::default(),
    );
    let b = w.add_node(
        "b",
        IcmpEchoResponder::new(nic(MAC_B, IP_B)),
        CpuModel::default(),
    );
    let mk_switch = |dpid: u64| {
        let mut sw = OfSwitch::new(dpid);
        sw.preinstall(FlowEntry::new(
            100,
            FlowMatch::any().with_dl_dst(MAC_B),
            vec![Action::Output(OfPort::Physical(2))],
        ));
        sw.preinstall(FlowEntry::new(
            100,
            FlowMatch::any().with_dl_dst(MAC_A),
            vec![Action::Output(OfPort::Physical(1))],
        ));
        sw
    };
    let sw1 = w.add_node("sw1", mk_switch(1), CpuModel::default());
    let sw2 = w.add_node("sw2", mk_switch(2), CpuModel::default());
    let ctl = w.add_node(
        "ctl",
        Controller::new(FlowStatsMonitor::new()).with_tick(SimDuration::from_millis(25)),
        CpuModel::default(),
    );
    w.connect(a, PortId(0), sw1, PortId(1), LinkSpec::ideal());
    w.connect(sw1, PortId(2), sw2, PortId(1), LinkSpec::ideal());
    w.connect(sw2, PortId(2), b, PortId(0), LinkSpec::ideal());
    for sw in [sw1, sw2] {
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);
    }
    w.run_for(SimDuration::from_secs(1));
    let monitor = w
        .device::<Controller>(ctl)
        .unwrap()
        .app::<FlowStatsMonitor>()
        .unwrap();
    // 7 requests + 7 replies through each switch.
    assert_eq!(monitor.total_packets(sw1), 14);
    assert_eq!(monitor.total_packets(sw2), 14);
}

#[test]
fn packet_out_floods_reach_every_port() {
    // A controller-driven flood from a buffered miss: the learning app's
    // first-packet flood must reach both other ports of a 3-host switch.
    let mut w = World::new(79);
    let hosts: Vec<NodeId> = (0..3)
        .map(|i| {
            w.add_node(
                format!("h{i}"),
                CollectorDevice::default(),
                CpuModel::default(),
            )
        })
        .collect();
    let sw = w.add_node("sw", OfSwitch::new(9), CpuModel::default());
    let ctl = w.add_node(
        "ctl",
        Controller::new(Learn::default()),
        CpuModel::default(),
    );
    for (i, &h) in hosts.iter().enumerate() {
        w.connect(h, PortId(0), sw, PortId(i as u16 + 1), LinkSpec::ideal());
    }
    w.connect_control(sw, ctl, Default::default());
    w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
    w.device_mut::<Controller>(ctl).unwrap().manage(sw);
    w.run_for(SimDuration::from_millis(20));
    let frame = builder::udp_frame(
        MAC_A,
        MacAddr::local(0xffff), // unknown destination → flood
        IP_A,
        IP_B,
        5,
        6,
        Bytes::from_static(b"flood me"),
        None,
    );
    w.inject_frame(sw, PortId(1), frame);
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(
        w.device::<CollectorDevice>(hosts[0]).unwrap().frames.len(),
        0
    );
    assert_eq!(
        w.device::<CollectorDevice>(hosts[1]).unwrap().frames.len(),
        1
    );
    assert_eq!(
        w.device::<CollectorDevice>(hosts[2]).unwrap().frames.len(),
        1
    );
}

#[test]
fn first_packet_floods_and_the_reverse_packet_installs_one_rule() {
    // a(p0)--(p1)sw(p2)--(p0)b under the learning app.
    let mut w = World::new(3);
    let a = w.add_node("a", CollectorDevice::default(), CpuModel::default());
    let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
    let sw = w.add_node("sw", OfSwitch::new(1), CpuModel::default());
    let ctl = w.add_node(
        "ctl",
        Controller::new(Learn::default()),
        CpuModel::default(),
    );
    w.connect(a, PortId(0), sw, PortId(1), LinkSpec::ideal());
    w.connect(b, PortId(0), sw, PortId(2), LinkSpec::ideal());
    w.connect_control(sw, ctl, Default::default());
    w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
    w.device_mut::<Controller>(ctl).unwrap().manage(sw);
    w.run_for(SimDuration::from_millis(20));
    let udp = |src: u32, dst: u32| {
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
    };
    // a → b: unknown destination, flooded to b, nothing installed.
    w.inject_frame(sw, PortId(1), udp(1, 2));
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(w.device::<CollectorDevice>(b).unwrap().frames.len(), 1);
    assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 0);
    // b → a: destination learned, one rule installed, packet delivered.
    w.inject_frame(sw, PortId(2), udp(2, 1));
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(w.device::<CollectorDevice>(a).unwrap().frames.len(), 1);
    assert_eq!(w.device::<OfSwitch>(sw).unwrap().table().len(), 1);
}
