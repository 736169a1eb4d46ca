//! The compare as an SDN controller application (the paper's POX baseline).

use netco_controller::{ControllerApp, ControllerCtx};
use netco_net::{Frame, NodeId};
use netco_openflow::OfPort;
use netco_sim::EventLog;

use crate::compare::{CompareAction, CompareHost, CompareStats, LaneInfo};
use crate::config::CompareConfig;
use crate::encap::block_advice;
use crate::events::SecurityEvent;

/// A [`ControllerApp`] running the NetCo compare logic — the paper's
/// *POX3* reference deployment ("a reference implementation of NetCo as a
/// SDN application running on the POX controller", §V).
///
/// Every replica copy takes a full packet-in → controller → packet-out
/// round trip, and the hosting controller node is typically configured
/// with an interpreted-language CPU cost; both effects together reproduce
/// POX3's poor performance in Figs. 4–7.
///
/// Host it with `Controller::new(PoxCompareApp::new(..)).with_tick(..)` so
/// cache sweeps run.
pub struct PoxCompareApp {
    host: CompareHost,
    /// The lane table: guard `guards[lane]` votes on lane `lane`.
    guards: Vec<NodeId>,
}

impl PoxCompareApp {
    /// Creates the app; attach guards before the run starts.
    pub fn new(cfg: CompareConfig) -> PoxCompareApp {
        PoxCompareApp {
            host: CompareHost::new(cfg),
            guards: Vec::new(),
        }
    }

    /// Registers a guard switch and its lane layout; lanes are numbered in
    /// attach order.
    ///
    /// # Panics
    ///
    /// Panics past 65,536 guards (lane ids are 16-bit).
    pub fn attach_guard(&mut self, guard: NodeId, info: LaneInfo) {
        let lane = u16::try_from(self.guards.len()).expect("at most 65,536 lanes");
        self.guards.push(guard);
        self.host.attach_lane(lane, info);
    }

    /// Aggregate compare statistics.
    pub fn stats(&self) -> CompareStats {
        self.host.core().stats()
    }

    /// The security event log.
    pub fn events(&self) -> &EventLog<SecurityEvent> {
        self.host.events()
    }

    fn lane_of(&self, guard: NodeId) -> Option<u16> {
        let lane = self.guards.iter().position(|&g| g == guard)?;
        Some(lane as u16)
    }
}

impl ControllerApp for PoxCompareApp {
    fn on_start(&mut self, cx: &mut ControllerCtx<'_, '_>) {
        self.host.start(cx.device());
    }

    fn on_packet_in(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        _buffer_id: Option<u32>,
        in_port: u16,
        data: Frame,
    ) {
        let Some(lane) = self.lane_of(switch) else {
            return;
        };
        // Each decision goes to the guard of its lane.
        let guards = &self.guards;
        for action in self.host.observe(lane, in_port, data, cx.now()) {
            match action {
                CompareAction::Release {
                    lane,
                    host_port,
                    frame,
                    ..
                } => {
                    let guard = guards[lane as usize];
                    let port = OfPort::Physical(host_port);
                    cx.packet_out(guard, None, 0, port, &frame);
                }
                CompareAction::BlockReplicaPort {
                    lane,
                    port,
                    duration,
                } => cx.send(guards[lane as usize], &block_advice(port, duration)),
                // Controller processing cost is modeled by the node's CPU
                // model.
                CompareAction::Stall { .. } => {}
            }
        }
    }

    fn tick(&mut self, cx: &mut ControllerCtx<'_, '_>) {
        self.host.sweep(cx.now());
    }
}

impl std::fmt::Debug for PoxCompareApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoxCompareApp")
            .field("guards", &self.guards.len())
            .field("stats", &self.host.core().stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netco_sim::SimTime;

    #[test]
    fn guards_whose_indices_agree_mod_65536_get_their_own_lanes() {
        let mut app = PoxCompareApp::new(CompareConfig::prevent(3));
        let (a, b) = (NodeId::from_index(7), NodeId::from_index(65_543));
        for guard in [a, b] {
            let info = LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 0,
            };
            app.attach_guard(guard, info);
        }
        let (la, lb) = (app.lane_of(a).unwrap(), app.lane_of(b).unwrap());
        assert_ne!(la, lb);
        // One copy at each guard is one copy on each lane, not a majority.
        let (pkt, t) = (Bytes::from_static(b"same bytes"), SimTime::ZERO);
        assert_eq!(app.host.observe(la, 1, pkt.clone(), t).len(), 0);
        assert_eq!(app.host.observe(lb, 2, pkt, t).len(), 0);
        assert_eq!(app.host.core().cache_len(la), 1);
        assert_eq!(app.host.core().cache_len(lb), 1);
    }
}
