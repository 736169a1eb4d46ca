//! The malicious switch device.

use std::collections::HashMap;

use bytes::BytesMut;
use netco_net::packet::EthernetFrame;
use netco_net::{Ctx, Device, Frame, MacAddr, PortId};
use netco_openflow::{apply_rewrites, Action};
use netco_sim::{SimDuration, SimTime};

use crate::behavior::{ActivationWindow, Behavior};

/// Counters of attack activity (for experiment assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Packets forwarded along the pretended-correct route.
    pub forwarded: u64,
    /// Packets sent to a wrong port by `Reroute`.
    pub rerouted: u64,
    /// Extra copies emitted by `Mirror`.
    pub mirrored: u64,
    /// Packets deleted by `Drop`.
    pub dropped: u64,
    /// Packets whose header or payload was modified.
    pub modified: u64,
    /// Crafted packets emitted by `InjectCbr`.
    pub injected: u64,
    /// Extra copies emitted by `Replicate`.
    pub replicated: u64,
    /// Packets held back by `Delay`.
    pub delayed: u64,
    /// Packets with no route (discarded).
    pub unroutable: u64,
}

/// A router that ignores its flow rules and runs scripted attacks instead.
///
/// Outside active behaviours it forwards by a static MAC-destination map
/// (the routing the controller *believes* is installed), so a
/// `MaliciousSwitch` with no behaviours is an honest router — experiments
/// use that for their baseline phases.
pub struct MaliciousSwitch {
    routes: HashMap<MacAddr, PortId>,
    behaviors: Vec<(Behavior, ActivationWindow)>,
    corrupt_seen: u64,
    /// Frames `Delay` holds back, in the order held: `(release instant,
    /// egress port, frame)`.
    delayed: Vec<(SimTime, PortId, Frame)>,
    stats: AdversaryStats,
}

const INJECT_TIMER_BASE: u64 = 1_000;
const DELAY_TIMER: u64 = 1;

impl MaliciousSwitch {
    /// Creates a switch with no routes and no behaviours.
    pub fn new() -> MaliciousSwitch {
        MaliciousSwitch {
            routes: HashMap::new(),
            behaviors: Vec::new(),
            corrupt_seen: 0,
            delayed: Vec::new(),
            stats: AdversaryStats::default(),
        }
    }

    /// Adds a static route: packets for `mac` leave on `port`.
    pub fn route(&mut self, mac: MacAddr, port: PortId) -> &mut Self {
        self.routes.insert(mac, port);
        self
    }

    /// Adds a behaviour active during `window`. Behaviours apply in the
    /// order they were added.
    pub fn add_behavior(&mut self, behavior: Behavior, window: ActivationWindow) -> &mut Self {
        self.behaviors.push((behavior, window));
        self
    }

    /// Attack activity counters.
    pub fn stats(&self) -> AdversaryStats {
        self.stats
    }

    fn forward_normally(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        match normal_route(&self.routes, &frame) {
            Some(port) => {
                self.stats.forwarded += 1;
                ctx.send_frame(port, frame);
            }
            None => self.stats.unroutable += 1,
        }
    }
}

/// The port the static MAC-destination map sends `frame` to.
fn normal_route(routes: &HashMap<MacAddr, PortId>, frame: &Frame) -> Option<PortId> {
    let eth = EthernetFrame::decode(frame.bytes()).ok()?;
    routes.get(&eth.dst).copied()
}

impl Default for MaliciousSwitch {
    fn default() -> Self {
        MaliciousSwitch::new()
    }
}

impl Device for MaliciousSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (behavior, window)) in self.behaviors.iter().enumerate() {
            if let Behavior::InjectCbr { .. } = behavior {
                // Fire the first injection at the window start (or now).
                let first = window.from.saturating_since(ctx.now());
                ctx.schedule_timer(first, INJECT_TIMER_BASE + i as u64);
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let now = ctx.now();
        // Memoized parse: reuses the header view if any earlier hop
        // already sniffed this exact content.
        let fields = frame.fields_on(port.number());
        let mut frame = frame;
        for (behavior, window) in &self.behaviors {
            if !window.contains(now) {
                continue;
            }
            match behavior {
                Behavior::Drop { select } => {
                    if select.matches(&fields) {
                        self.stats.dropped += 1;
                        return;
                    }
                }
                Behavior::Reroute { select, to_port } => {
                    if select.matches(&fields) {
                        self.stats.rerouted += 1;
                        ctx.send_frame(*to_port, frame);
                        return;
                    }
                }
                Behavior::Mirror { select, to_port } => {
                    if select.matches(&fields) {
                        self.stats.mirrored += 1;
                        ctx.send_frame(*to_port, frame.clone());
                    }
                }
                Behavior::SetVlan { select, vid } => {
                    if select.matches(&fields) {
                        self.stats.modified += 1;
                        frame = apply_rewrites(frame.bytes(), &[Action::SetVlanVid(*vid)]).into();
                    }
                }
                Behavior::RewriteDlDst { select, mac } => {
                    if select.matches(&fields) {
                        self.stats.modified += 1;
                        frame = apply_rewrites(frame.bytes(), &[Action::SetDlDst(*mac)]).into();
                    }
                }
                Behavior::CorruptPayload { select, every_nth } => {
                    if select.matches(&fields) {
                        self.corrupt_seen += 1;
                        if self.corrupt_seen.is_multiple_of((*every_nth).max(1)) {
                            self.stats.modified += 1;
                            let mut buf = BytesMut::from(&frame[..]);
                            let idx = buf.len() - 1;
                            buf[idx] ^= 0xff;
                            // Corrupted bytes are new content: fresh memo.
                            frame = Frame::from(buf.freeze());
                        }
                    }
                }
                Behavior::Replicate { select, copies } => {
                    if select.matches(&fields) {
                        if let Some(route) = normal_route(&self.routes, &frame) {
                            for _ in 1..*copies {
                                self.stats.replicated += 1;
                                ctx.send_frame(route, frame.clone());
                            }
                        }
                    }
                }
                Behavior::Delay { select, extra } => {
                    if select.matches(&fields) {
                        if let Some(route) = normal_route(&self.routes, &frame) {
                            self.stats.delayed += 1;
                            self.delayed.push((now + *extra, route, frame));
                            ctx.schedule_timer(*extra, DELAY_TIMER);
                            return;
                        }
                    }
                }
                Behavior::InjectCbr { .. } => {} // timer-driven
            }
        }
        self.forward_normally(ctx, frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == DELAY_TIMER {
            // Each held frame armed one timer for its own release
            // instant, so a due frame is waiting; the earliest held goes.
            let now = ctx.now();
            if let Some(i) = self.delayed.iter().position(|&(at, ..)| at <= now) {
                let (_, port, frame) = self.delayed.remove(i);
                ctx.send_frame(port, frame);
            }
            return;
        }
        if token >= INJECT_TIMER_BASE {
            let idx = (token - INJECT_TIMER_BASE) as usize;
            if let Some((
                Behavior::InjectCbr {
                    frame,
                    out_port,
                    interval,
                },
                window,
            )) = self.behaviors.get(idx).cloned()
            {
                let now = ctx.now();
                if window.contains(now) {
                    self.stats.injected += 1;
                    ctx.send_frame(out_port, frame);
                }
                // Keep ticking while the window can still become / stay
                // active.
                if window.until.is_none_or(|u| now < u) {
                    ctx.schedule_timer(interval.max(SimDuration::from_nanos(1)), token);
                }
            }
        }
    }
}

impl std::fmt::Debug for MaliciousSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaliciousSwitch")
            .field("routes", &self.routes.len())
            .field("behaviors", &self.behaviors.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netco_net::packet::{builder, FrameView};
    use netco_net::testutil::CollectorDevice;
    use netco_net::{CpuModel, LinkSpec, NodeId, World};
    use netco_openflow::FlowMatch;
    use netco_sim::SimTime;
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn frame(dst: MacAddr) -> Bytes {
        builder::udp_frame(
            MacAddr::local(1),
            dst,
            IP_A,
            IP_B,
            7,
            8,
            Bytes::from_static(b"secret"),
            None,
        )
    }

    /// evil switch with port1 → good host, port2 → exfil host.
    fn world(evil_setup: impl FnOnce(&mut MaliciousSwitch)) -> (World, NodeId, NodeId, NodeId) {
        let mut w = World::new(5);
        let good = w.add_node("good", CollectorDevice::default(), CpuModel::default());
        let exfil = w.add_node("exfil", CollectorDevice::default(), CpuModel::default());
        let mut evil = MaliciousSwitch::new();
        evil.route(MacAddr::local(10), PortId(1));
        evil_setup(&mut evil);
        let sw = w.add_node("evil", evil, CpuModel::default());
        w.connect(sw, PortId(1), good, PortId(0), LinkSpec::ideal());
        w.connect(sw, PortId(2), exfil, PortId(0), LinkSpec::ideal());
        (w, sw, good, exfil)
    }

    #[test]
    fn benign_when_no_behaviors() {
        let (mut w, sw, good, exfil) = world(|_| {});
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(good).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(exfil).unwrap().frames.len(), 0);
        assert_eq!(
            w.device::<MaliciousSwitch>(sw).unwrap().stats().forwarded,
            1
        );
    }

    #[test]
    fn reroute_diverts_traffic() {
        let (mut w, sw, good, exfil) = world(|e| {
            e.add_behavior(
                Behavior::Reroute {
                    select: FlowMatch::any().with_dl_dst(MacAddr::local(10)),
                    to_port: PortId(2),
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(good).unwrap().frames.len(), 0);
        assert_eq!(w.device::<CollectorDevice>(exfil).unwrap().frames.len(), 1);
    }

    #[test]
    fn mirror_duplicates_to_exfil() {
        let (mut w, sw, good, exfil) = world(|e| {
            e.add_behavior(
                Behavior::Mirror {
                    select: FlowMatch::any(),
                    to_port: PortId(2),
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(good).unwrap().frames.len(), 1);
        assert_eq!(w.device::<CollectorDevice>(exfil).unwrap().frames.len(), 1);
    }

    #[test]
    fn drop_deletes_selected_only() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.route(MacAddr::local(11), PortId(1));
            e.add_behavior(
                Behavior::Drop {
                    select: FlowMatch::any().with_dl_dst(MacAddr::local(10)),
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10))); // dropped
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(11))); // passes
        w.run_for(SimDuration::from_millis(1));
        let got = &w.device::<CollectorDevice>(good).unwrap().frames;
        assert_eq!(got.len(), 1);
        assert_eq!(w.device::<MaliciousSwitch>(sw).unwrap().stats().dropped, 1);
    }

    #[test]
    fn vlan_rewrite_changes_tag() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.add_behavior(
                Behavior::SetVlan {
                    select: FlowMatch::any(),
                    vid: 666,
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        let got = &w.device::<CollectorDevice>(good).unwrap().frames;
        let v = FrameView::parse(&got[0].1).unwrap();
        assert_eq!(v.eth.vlan.unwrap().vid, 666);
    }

    #[test]
    fn corruption_breaks_checksum() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.add_behavior(
                Behavior::CorruptPayload {
                    select: FlowMatch::any(),
                    every_nth: 1,
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        let got = &w.device::<CollectorDevice>(good).unwrap().frames;
        let v = FrameView::parse(&got[0].1).unwrap();
        assert!(v.l4().is_err(), "corrupted payload must fail UDP checksum");
    }

    #[test]
    fn replicate_amplifies() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.add_behavior(
                Behavior::Replicate {
                    select: FlowMatch::any(),
                    copies: 4,
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.device::<CollectorDevice>(good).unwrap().frames.len(), 4);
        assert_eq!(
            w.device::<MaliciousSwitch>(sw).unwrap().stats().replicated,
            3
        );
    }

    #[test]
    fn inject_cbr_floods_during_window() {
        let (mut w, _sw, good, _exfil) = {
            let crafted = frame(MacAddr::local(10));
            world(move |e| {
                e.add_behavior(
                    Behavior::InjectCbr {
                        frame: crafted,
                        out_port: PortId(1),
                        interval: SimDuration::from_millis(1),
                    },
                    ActivationWindow::between(
                        SimTime::ZERO,
                        SimTime::ZERO + SimDuration::from_millis(10),
                    ),
                );
            })
        };
        w.run_for(SimDuration::from_millis(50));
        let n = w.device::<CollectorDevice>(good).unwrap().frames.len();
        assert!((9..=11).contains(&n), "got {n} injected packets");
    }

    #[test]
    fn delay_holds_packets_back() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.add_behavior(
                Behavior::Delay {
                    select: FlowMatch::any(),
                    extra: SimDuration::from_millis(5),
                },
                ActivationWindow::always(),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10)));
        w.run_for(SimDuration::from_millis(20));
        let got = &w.device::<CollectorDevice>(good).unwrap().frames;
        assert_eq!(got.len(), 1);
        assert!(got[0].0 >= SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn overlapping_delays_release_each_frame_on_its_own_time() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.route(MacAddr::local(11), PortId(1));
            for (dst, ms) in [(10, 5), (11, 1)] {
                e.add_behavior(
                    Behavior::Delay {
                        select: FlowMatch::any().with_dl_dst(MacAddr::local(dst)),
                        extra: SimDuration::from_millis(ms),
                    },
                    ActivationWindow::always(),
                );
            }
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10))); // held 5 ms
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(11))); // held 1 ms
        w.run_for(SimDuration::from_millis(20));
        let got = &w.device::<CollectorDevice>(good).unwrap().frames;
        let dst = |bytes: &Bytes| FrameView::parse(bytes).unwrap().eth.dst;
        let ms = SimDuration::from_millis;
        assert_eq!(got.len(), 2);
        assert_eq!(
            dst(&got[0].1),
            MacAddr::local(11),
            "the 1 ms frame leaves first"
        );
        assert!((SimTime::ZERO + ms(1)..SimTime::ZERO + ms(5)).contains(&got[0].0));
        assert_eq!(dst(&got[1].1), MacAddr::local(10));
        assert!(got[1].0 >= SimTime::ZERO + ms(5));
    }

    #[test]
    fn window_gates_attack() {
        let (mut w, sw, good, _exfil) = world(|e| {
            e.add_behavior(
                Behavior::Drop {
                    select: FlowMatch::any(),
                },
                ActivationWindow::starting_at(SimTime::ZERO + SimDuration::from_millis(10)),
            );
        });
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10))); // before window: passes
        w.run_for(SimDuration::from_millis(20));
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(10))); // inside window: dropped
        w.run_for(SimDuration::from_millis(20));
        assert_eq!(w.device::<CollectorDevice>(good).unwrap().frames.len(), 1);
    }

    #[test]
    fn unroutable_is_counted() {
        let (mut w, sw, _good, _exfil) = world(|_| {});
        w.inject_frame(sw, PortId(0), frame(MacAddr::local(99)));
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(
            w.device::<MaliciousSwitch>(sw).unwrap().stats().unroutable,
            1
        );
    }
}
