//! The virtual guard: VLAN splitting at the ingress, inband combining at
//! the egress.

use std::vec::Drain;

use netco_net::packet::{EthernetFrame, VlanTag};
use netco_net::{Ctx, Device, Frame, PortId};

use crate::compare::{CompareAction, CompareHost, CompareStats, LaneInfo};
use crate::config::CompareConfig;

const SWEEP_TIMER: u64 = 1;

/// Configuration of a [`VirtualGuard`].
///
/// A virtual guard is symmetric: it tags and splits traffic *from* its
/// host side, and combines tagged copies arriving *from* the network side.
/// Two of them (one per endpoint) implement the Fig. 9 deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualGuardConfig {
    /// Port toward the protected host.
    pub host_port: PortId,
    /// Port toward the network (where tunnels start/end).
    pub uplink_port: PortId,
    /// One VLAN id per vendor-diverse path (length `k`). The tag doubles
    /// as the replica identity at the combining side.
    pub tunnel_tags: Vec<u16>,
    /// Compare parameters (`k` must equal `tunnel_tags.len()`).
    pub compare: CompareConfig,
}

/// Activity counters of a virtual guard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualGuardStats {
    /// Copies tagged and sent into tunnels.
    pub split: u64,
    /// Tagged copies received from tunnels.
    pub collected: u64,
    /// Packets released to the host after combining.
    pub released: u64,
    /// Frames without a recognized tunnel tag (ignored).
    pub untagged: u64,
}

/// The ingress/egress element of the virtualized NetCo.
///
/// *Host → network*: each frame is copied `k` times, stamped with one
/// tunnel VLAN each, and sent up the single physical uplink; the network's
/// match-action rules steer each tag over its own vendor-diverse path.
///
/// *Network → host*: tagged copies are stripped back to the original frame
/// (so all copies become bit-identical) and fed to an embedded
/// [`CompareHost`]; a majority releases exactly one untagged copy to the
/// host.
pub struct VirtualGuard {
    cfg: VirtualGuardConfig,
    host: CompareHost,
    stats: VirtualGuardStats,
}

impl VirtualGuard {
    /// Creates a virtual guard.
    ///
    /// # Panics
    ///
    /// Panics when `tunnel_tags.len()` differs from the compare's `k`, or
    /// when the tag list contains duplicates.
    pub fn new(cfg: VirtualGuardConfig) -> VirtualGuard {
        assert_eq!(
            cfg.tunnel_tags.len(),
            cfg.compare.k,
            "one tunnel tag per replica path required"
        );
        let mut dedup = cfg.tunnel_tags.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            cfg.tunnel_tags.len(),
            "tunnel tags must be unique"
        );
        let mut host = CompareHost::new(cfg.compare.clone());
        host.attach_lane(
            0,
            LaneInfo {
                replica_ports: cfg.tunnel_tags.clone(),
                host_port: cfg.host_port.number(),
            },
        );
        VirtualGuard {
            cfg,
            host,
            stats: VirtualGuardStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> VirtualGuardStats {
        self.stats
    }

    /// Compare statistics of the embedded core.
    pub fn compare_stats(&self) -> CompareStats {
        self.host.core().stats()
    }

    /// The security event log.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &netco_sim::EventLog<crate::events::SecurityEvent> {
        self.host.events()
    }

    /// Releases go to the host; tunnels have no local port to block (the
    /// event accompanying the advice is in the host's log).
    fn apply(
        ctx: &mut Ctx<'_>,
        actions: Drain<'_, CompareAction>,
        host_port: PortId,
        stats: &mut VirtualGuardStats,
    ) {
        for action in actions {
            if let CompareAction::Release { frame, .. } = action {
                stats.released += 1;
                ctx.send_frame(host_port, frame);
            }
        }
    }
}

impl Device for VirtualGuard {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.start(ctx);
        ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        if port == self.cfg.host_port {
            // Split: one tagged copy per tunnel.
            let Ok(mut eth) = EthernetFrame::decode(frame.bytes()) else {
                return;
            };
            for &tag in &self.cfg.tunnel_tags.clone() {
                eth.vlan = Some(VlanTag::new(tag & 0x0fff));
                self.stats.split += 1;
                ctx.send_frame(self.cfg.uplink_port, eth.encode());
            }
            return;
        }
        if port == self.cfg.uplink_port {
            let Ok(mut eth) = EthernetFrame::decode(frame.bytes()) else {
                return;
            };
            let Some(tag) = eth.vlan.map(|t| t.vid) else {
                self.stats.untagged += 1;
                return;
            };
            if !self.cfg.tunnel_tags.contains(&tag) {
                self.stats.untagged += 1;
                return;
            }
            // Strip the tag so copies from different tunnels compare equal.
            eth.vlan = None;
            let untagged = eth.encode();
            self.stats.collected += 1;
            let actions = self.host.observe(0, tag, untagged, ctx.now());
            Self::apply(ctx, actions, self.cfg.host_port, &mut self.stats);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != SWEEP_TIMER {
            return;
        }
        let actions = self.host.sweep(ctx.now());
        Self::apply(ctx, actions, self.cfg.host_port, &mut self.stats);
        ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
    }
}

impl std::fmt::Debug for VirtualGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualGuard")
            .field("tags", &self.cfg.tunnel_tags)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::SecurityEvent;
    use bytes::Bytes;
    use netco_sim::SimDuration;

    /// Is this frame tagged with `tag`?
    fn has_tag(frame: &Bytes, tag: u16) -> bool {
        EthernetFrame::decode(frame)
            .ok()
            .and_then(|e| e.vlan)
            .map(|v| v.vid == tag)
            .unwrap_or(false)
    }
    use netco_net::packet::builder;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, MacAddr, NodeId, World};
    use std::net::Ipv4Addr;

    fn payload_frame() -> Bytes {
        builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Bytes::from_static(b"virtual"),
            None,
        )
    }

    fn guard() -> VirtualGuard {
        VirtualGuard::new(VirtualGuardConfig {
            host_port: PortId(0),
            uplink_port: PortId(1),
            tunnel_tags: vec![101, 102, 103],
            compare: CompareConfig::prevent(3).with_hold_time(SimDuration::from_millis(5)),
        })
    }

    fn world() -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::new(11);
        let host = w.add_node("host", CollectorDevice::default(), CpuModel::default());
        let net = w.add_node("net", CollectorDevice::default(), CpuModel::default());
        let vg = w.add_node("vguard", guard(), CpuModel::default());
        w.connect(vg, PortId(0), host, PortId(0), LinkSpec::ideal());
        w.connect(vg, PortId(1), net, PortId(0), LinkSpec::ideal());
        (w, vg, host, net)
    }

    #[test]
    fn splits_into_tagged_copies() {
        let (mut w, vg, _host, net) = world();
        w.inject_frame(vg, PortId(0), payload_frame());
        w.run_for(SimDuration::from_millis(1));
        let frames = &w.device::<CollectorDevice>(net).unwrap().frames;
        assert_eq!(frames.len(), 3);
        for (f, tag) in frames.iter().zip([101u16, 102, 103]) {
            assert!(has_tag(&f.1, tag), "expected tag {tag}");
        }
    }

    #[test]
    fn combines_tagged_copies_to_one_untagged() {
        let (mut w, vg, host, _net) = world();
        let base = payload_frame();
        // Two tagged copies arrive from the network: majority of 3.
        for tag in [101u16, 102] {
            let eth = {
                let mut e = EthernetFrame::decode(&base).unwrap();
                e.vlan = Some(VlanTag::new(tag));
                e.encode()
            };
            w.inject_frame(vg, PortId(1), eth);
        }
        w.run_for(SimDuration::from_millis(1));
        let frames = &w.device::<CollectorDevice>(host).unwrap().frames;
        assert_eq!(frames.len(), 1);
        assert_eq!(
            frames[0].1, base,
            "released frame must be untagged original"
        );
        assert_eq!(w.device::<VirtualGuard>(vg).unwrap().stats().released, 1);
    }

    #[test]
    fn single_tunnel_copy_is_dropped_with_alarm() {
        let (mut w, vg, host, _net) = world();
        w.set_telemetry(netco_telemetry::TelemetrySink::enabled());
        let eth = {
            let mut e = EthernetFrame::decode(&payload_frame()).unwrap();
            e.vlan = Some(VlanTag::new(103));
            e.encode()
        };
        w.inject_frame(vg, PortId(1), eth);
        w.run_for(SimDuration::from_millis(50));
        assert!(w.device::<CollectorDevice>(host).unwrap().frames.is_empty());
        let g = w.device::<VirtualGuard>(vg).unwrap();
        assert_eq!(g.compare_stats().expired_unreleased, 1);
        let row = w.telemetry().counter("compare.vguard.expired_unreleased");
        assert_eq!(row.get(), 1, "the virtual guard installs its telemetry");
        assert!(g
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. })));
    }

    #[test]
    fn foreign_tags_are_ignored() {
        let (mut w, vg, host, _net) = world();
        let eth = {
            let mut e = EthernetFrame::decode(&payload_frame()).unwrap();
            e.vlan = Some(VlanTag::new(999));
            e.encode()
        };
        w.inject_frame(vg, PortId(1), eth);
        // And a completely untagged frame.
        w.inject_frame(vg, PortId(1), payload_frame());
        w.run_for(SimDuration::from_millis(1));
        assert!(w.device::<CollectorDevice>(host).unwrap().frames.is_empty());
        assert_eq!(w.device::<VirtualGuard>(vg).unwrap().stats().untagged, 2);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_tags_rejected() {
        let _ = VirtualGuard::new(VirtualGuardConfig {
            host_port: PortId(0),
            uplink_port: PortId(1),
            tunnel_tags: vec![1, 1, 2],
            compare: CompareConfig::prevent(3),
        });
    }
}
