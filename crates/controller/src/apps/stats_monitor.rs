//! Periodic flow-counter monitoring — the paper's second screening method
//! ("monitoring the flow table counters of all switches", §VI).

use std::collections::HashMap;

use netco_net::NodeId;
use netco_openflow::{FlowMatch, FlowStats, OfMessage};

use crate::app::{ControllerApp, ControllerCtx};

/// Polls every managed switch's flow counters on each controller tick and
/// keeps the latest snapshot for inspection.
///
/// Host it with `Controller::new(FlowStatsMonitor::new()).with_tick(..)`.
#[derive(Debug, Default)]
pub struct FlowStatsMonitor {
    switches: Vec<NodeId>,
    snapshots: HashMap<NodeId, Vec<FlowStats>>,
}

impl FlowStatsMonitor {
    /// Creates a monitor with no switches registered yet; switches are
    /// discovered via the handshake.
    pub fn new() -> FlowStatsMonitor {
        FlowStatsMonitor::default()
    }

    /// The latest counter snapshot of `switch`.
    pub fn snapshot(&self, switch: NodeId) -> Option<&[FlowStats]> {
        self.snapshots.get(&switch).map(|v| v.as_slice())
    }

    /// Total packets matched across all flows of `switch` in the latest
    /// snapshot.
    pub fn total_packets(&self, switch: NodeId) -> u64 {
        self.snapshots
            .get(&switch)
            .map(|v| v.iter().map(|f| f.packet_count).sum())
            .unwrap_or(0)
    }
}

impl ControllerApp for FlowStatsMonitor {
    fn on_switch_up(&mut self, _cx: &mut ControllerCtx<'_, '_>, switch: NodeId) {
        self.switches.push(switch);
    }

    fn tick(&mut self, cx: &mut ControllerCtx<'_, '_>) {
        for &sw in &self.switches {
            cx.send(
                sw,
                &OfMessage::FlowStatsRequest {
                    matcher: FlowMatch::any(),
                },
            );
        }
    }

    fn on_flow_stats(
        &mut self,
        _cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        flows: Vec<FlowStats>,
    ) {
        self.snapshots.insert(switch, flows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Controller;
    use bytes::Bytes;
    use netco_net::packet::builder;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, MacAddr, PortId, World};
    use netco_openflow::{Action, FlowEntry, OfPort, OfSwitch};
    use netco_sim::SimDuration;
    use std::net::Ipv4Addr;

    #[test]
    fn monitor_sees_counters_move() {
        let mut w = World::new(8);
        let a = w.add_node("a", CollectorDevice::default(), CpuModel::default());
        let b = w.add_node("b", CollectorDevice::default(), CpuModel::default());
        let mut sw_dev = OfSwitch::new(1);
        sw_dev.preinstall(FlowEntry::new(
            10,
            netco_openflow::FlowMatch::any().with_dl_dst(MacAddr::local(2)),
            vec![Action::Output(OfPort::Physical(2))],
        ));
        let sw = w.add_node("sw", sw_dev, CpuModel::default());
        let ctl = w.add_node(
            "ctl",
            Controller::new(FlowStatsMonitor::new()).with_tick(SimDuration::from_millis(10)),
            CpuModel::default(),
        );
        w.connect(a, PortId(0), sw, PortId(1), LinkSpec::ideal());
        w.connect(b, PortId(0), sw, PortId(2), LinkSpec::ideal());
        w.connect_control(sw, ctl, Default::default());
        w.device_mut::<OfSwitch>(sw).unwrap().set_controller(ctl);
        w.device_mut::<Controller>(ctl).unwrap().manage(sw);

        w.run_for(SimDuration::from_millis(30));
        // Baseline snapshot: rule installed, zero packets.
        {
            let m = w
                .device::<Controller>(ctl)
                .unwrap()
                .app::<FlowStatsMonitor>()
                .unwrap();
            assert!(m.snapshot(sw).is_some());
            assert_eq!(m.total_packets(sw), 0);
        }
        // Send 5 packets, wait a poll cycle, observe the counters.
        for _ in 0..5 {
            let frame = builder::udp_frame(
                MacAddr::local(1),
                MacAddr::local(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                Bytes::from_static(b"x"),
                None,
            );
            w.inject_frame(sw, PortId(1), frame);
        }
        w.run_for(SimDuration::from_millis(30));
        let m = w
            .device::<Controller>(ctl)
            .unwrap()
            .app::<FlowStatsMonitor>()
            .unwrap();
        assert_eq!(m.total_packets(sw), 5);
        let snap = m.snapshot(sw).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].packet_count, 5);
    }
}
