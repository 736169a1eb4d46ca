//! The central compare server (the paper's C prototype on host `h3`).

use std::collections::VecDeque;

use netco_net::{Ctx, Device, Frame, PortId};
use netco_openflow::wire::{self, FrameMessage, SplitHead};
use netco_openflow::{Action, OfPort};
use netco_sim::{EventLog, SimTime};

use super::core::{CompareAction, CompareCore, CompareStats, LaneInfo};
use super::host::CompareHost;
use crate::config::CompareConfig;
use crate::encap::{block_advice, of_wrap, COMPARE_LINK};
use crate::events::SecurityEvent;

const SWEEP_TIMER: u64 = 1;
const DRAIN_TIMER: u64 = 2;

/// The compare as a dedicated trusted host on the data plane.
///
/// Each guard attaches over one data link ("lane"); the guard wraps every
/// replica copy in an OpenFlow `PacketIn` (carrying the replica ingress
/// port) and the compare answers with `PacketOut` (release) or `FlowMod`
/// with an empty action list (port-block advice) — exactly the prototype's
/// interface (paper §IV).
///
/// Cache-cleanup stalls delay subsequent releases, reproducing the
/// packet-size-dependent jitter of Fig. 8.
pub struct Compare {
    host: CompareHost,
    out: Outbox,
}

/// What the compare sends toward its guards, and when: a field of its
/// own so the host's actions can be drained into it.
struct Outbox {
    stall_until: SimTime,
    pending: VecDeque<(PortId, Frame)>,
    next_xid: u32,
}

impl Compare {
    /// Creates a compare server; attach lanes before the run starts.
    pub fn new(cfg: CompareConfig) -> Compare {
        Compare {
            host: CompareHost::new(cfg),
            out: Outbox {
                stall_until: SimTime::ZERO,
                pending: VecDeque::new(),
                next_xid: 1,
            },
        }
    }

    /// Registers the guard attached on `port` (see
    /// [`CompareCore::attach_lane`]).
    pub fn attach_guard(&mut self, port: PortId, info: LaneInfo) {
        self.host.attach_lane(port.number(), info);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CompareStats {
        self.host.core().stats()
    }

    /// The security event log.
    pub fn events(&self) -> &EventLog<SecurityEvent> {
        self.host.events()
    }

    /// The underlying voting core (for fine-grained inspection).
    pub fn core(&self) -> &CompareCore {
        self.host.core()
    }
}

impl Outbox {
    fn fresh_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        xid
    }

    fn send_or_queue(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let now = ctx.now();
        if now >= self.stall_until && self.pending.is_empty() {
            ctx.send_frame(port, frame);
        } else {
            self.pending.push_back((port, frame));
            let delay = self.stall_until.saturating_since(now);
            ctx.schedule_timer(delay, DRAIN_TIMER);
        }
    }

    fn apply_actions(&mut self, ctx: &mut Ctx<'_>, actions: impl Iterator<Item = CompareAction>) {
        let now = ctx.now();
        for action in actions {
            match action {
                CompareAction::Release {
                    lane,
                    host_port,
                    frame,
                    ..
                } => {
                    // The released frame rides in the packet-out, memo
                    // included.
                    let xid = self.fresh_xid();
                    let output = [Action::Output(OfPort::Physical(host_port))];
                    let in_port = OfPort::None.to_u16();
                    let out =
                        wire::packet_out_frame(&COMPARE_LINK, xid, None, in_port, &output, &frame);
                    self.send_or_queue(ctx, PortId(lane), out);
                }
                CompareAction::BlockReplicaPort {
                    lane,
                    port,
                    duration,
                } => {
                    let xid = self.fresh_xid();
                    let advice = of_wrap(&block_advice(port, duration), xid);
                    self.send_or_queue(ctx, PortId(lane), Frame::new(advice));
                }
                CompareAction::Stall { duration, .. } => {
                    self.stall_until = self.stall_until.max(now) + duration;
                }
                // Already in the host's log.
                CompareAction::Event(_) => {}
            }
        }
    }
}

impl Device for Compare {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.start(ctx);
        ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        // The replica's copy is the frame a guard's packet-in carries,
        // memo included when the wrap crossed the link intact.
        let Some((FrameMessage::Payload(SplitHead::PacketIn { in_port, .. }, copy), _)) =
            wire::read_frame(&COMPARE_LINK, &frame)
        else {
            // Not for us; trusted components ignore the unknown.
            return;
        };
        let now = ctx.now();
        let actions = self.host.observe(port.number(), in_port, copy, now);
        self.out.apply_actions(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            SWEEP_TIMER => {
                let now = ctx.now();
                let actions = self.host.sweep(now);
                self.out.apply_actions(ctx, actions);
                ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
            }
            DRAIN_TIMER => {
                let now = ctx.now();
                if now < self.out.stall_until {
                    let delay = self.out.stall_until.saturating_since(now);
                    ctx.schedule_timer(delay, DRAIN_TIMER);
                    return;
                }
                while let Some((port, frame)) = self.out.pending.pop_front() {
                    ctx.send_frame(port, frame);
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Compare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compare")
            .field("stats", &self.host.core().stats())
            .field("pending", &self.out.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encap::of_unwrap;
    use bytes::Bytes;
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, NodeId, World};
    use netco_openflow::{OfMessage, PacketInReason};
    use netco_sim::SimDuration;

    fn packet_in(in_port: u16, payload: &'static [u8]) -> Bytes {
        of_wrap(
            &OfMessage::PacketIn {
                buffer_id: None,
                in_port,
                reason: PacketInReason::NoMatch,
                data: Bytes::from_static(payload),
            },
            0,
        )
    }

    /// guard-stub(collector) <-> compare, lane on compare port 0.
    fn world() -> (World, NodeId, NodeId) {
        let mut w = World::new(7);
        let guard = w.add_node("guard", CollectorDevice::default(), CpuModel::default());
        let mut compare =
            Compare::new(CompareConfig::prevent(3).with_hold_time(SimDuration::from_millis(5)));
        compare.attach_guard(
            PortId(0),
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 4,
            },
        );
        let cmp = w.add_node("compare", compare, CpuModel::default());
        w.connect(guard, PortId(0), cmp, PortId(0), LinkSpec::ideal());
        (w, guard, cmp)
    }

    #[test]
    fn majority_releases_packet_out() {
        let (mut w, guard, cmp) = world();
        w.inject_frame(cmp, PortId(0), packet_in(1, b"payload-bytes"));
        w.inject_frame(cmp, PortId(0), packet_in(2, b"payload-bytes"));
        w.run_for(SimDuration::from_millis(1));
        let frames = &w.device::<CollectorDevice>(guard).unwrap().frames;
        assert_eq!(frames.len(), 1);
        let (msg, _) = of_unwrap(&frames[0].1).unwrap();
        match msg {
            OfMessage::PacketOut { actions, data, .. } => {
                assert_eq!(actions, vec![Action::Output(OfPort::Physical(4))]);
                assert_eq!(data, Bytes::from_static(b"payload-bytes"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_copy_never_leaves_and_alarm_is_logged() {
        let (mut w, guard, cmp) = world();
        w.inject_frame(cmp, PortId(0), packet_in(1, b"evil-mirrored"));
        w.run_for(SimDuration::from_millis(50));
        assert!(w
            .device::<CollectorDevice>(guard)
            .unwrap()
            .frames
            .is_empty());
        let compare = w.device::<Compare>(cmp).unwrap();
        assert_eq!(compare.stats().expired_unreleased, 1);
        assert!(compare
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::SinglePathPacket { .. })));
    }

    #[test]
    fn telemetry_backs_compare_stats_facade() {
        let (mut w, _guard, cmp) = world();
        w.set_telemetry(netco_telemetry::TelemetrySink::enabled());
        w.inject_frame(cmp, PortId(0), packet_in(1, b"payload-bytes"));
        w.inject_frame(cmp, PortId(0), packet_in(2, b"payload-bytes"));
        w.run_for(SimDuration::from_millis(1));
        let sink = w.telemetry().clone();
        let stats = w.device::<Compare>(cmp).unwrap().stats();
        assert_eq!(stats.received, 2);
        assert_eq!(
            sink.counter("compare.compare.received").get(),
            stats.received
        );
        assert_eq!(
            sink.counter("compare.compare.released").get(),
            stats.released
        );
        assert_eq!(
            sink.gauge("compare.compare.cache_entries").peak(),
            stats.peak_cache_entries
        );
        assert!(stats.peak_cache_entries >= 1);
        // This mini-world has no guard hub tagging frames, so the release
        // verdict is counted as untracked rather than invented.
        assert_eq!(sink.counter("lifecycle.untracked_verdicts").get(), 1);
    }

    #[test]
    fn dos_flood_triggers_flow_mod_block() {
        let (mut w, guard, cmp) = world();
        for _ in 0..40 {
            w.inject_frame(cmp, PortId(0), packet_in(2, b"flood"));
        }
        w.run_for(SimDuration::from_millis(1));
        let frames = &w.device::<CollectorDevice>(guard).unwrap().frames;
        let blocks: Vec<_> = frames
            .iter()
            .filter_map(|(_, f)| of_unwrap(f))
            .filter_map(|(m, _)| match m {
                OfMessage::FlowMod {
                    matcher, actions, ..
                } if actions.is_empty() => matcher.in_port,
                _ => None,
            })
            .collect();
        assert_eq!(blocks, vec![2]);
    }

    #[test]
    fn non_netco_frames_are_ignored() {
        let (mut w, guard, cmp) = world();
        w.inject_frame(cmp, PortId(0), Bytes::from_static(b"not openflow at all"));
        w.run_for(SimDuration::from_millis(1));
        assert!(w
            .device::<CollectorDevice>(guard)
            .unwrap()
            .frames
            .is_empty());
        assert_eq!(w.device::<Compare>(cmp).unwrap().stats().received, 0);
    }

    #[test]
    fn stall_delays_release() {
        let mut w = World::new(7);
        let guard = w.add_node("guard", CollectorDevice::default(), CpuModel::default());
        let mut cfg = CompareConfig::prevent(3)
            .with_hold_time(SimDuration::from_secs(1))
            .with_cache_capacity(4);
        cfg.cleanup_cost_per_entry = SimDuration::from_millis(1);
        let mut compare = Compare::new(cfg);
        compare.attach_guard(
            PortId(0),
            LaneInfo {
                replica_ports: vec![1, 2, 3],
                host_port: 4,
            },
        );
        let cmp = w.add_node("compare", compare, CpuModel::default());
        w.connect(guard, PortId(0), cmp, PortId(0), LinkSpec::ideal());
        // Fill the cache with singletons to force a cleanup...
        for i in 0..4u8 {
            let payload: Bytes = Bytes::from(vec![i; 8]);
            let m = OfMessage::PacketIn {
                buffer_id: None,
                in_port: 1,
                reason: PacketInReason::NoMatch,
                data: payload,
            };
            w.inject_frame(cmp, PortId(0), of_wrap(&m, 0));
        }
        // ...then complete a majority; its release must be delayed by the
        // cleanup stall.
        w.inject_frame(cmp, PortId(0), packet_in(1, b"real"));
        w.inject_frame(cmp, PortId(0), packet_in(2, b"real"));
        w.run_for(SimDuration::from_millis(100));
        let frames = &w.device::<CollectorDevice>(guard).unwrap().frames;
        assert_eq!(frames.len(), 1);
        assert!(
            frames[0].0 >= SimTime::ZERO + SimDuration::from_millis(2),
            "release at {} should be delayed by the cleanup stall",
            frames[0].0
        );
        let compare = w.device::<Compare>(cmp).unwrap();
        assert!(compare.stats().cleanups >= 1);
        assert!(compare
            .events()
            .iter()
            .any(|e| matches!(e.record, SecurityEvent::CacheCleanup { .. })));
    }
}
