//! The guard: the paper's trusted edge components `s1`/`s2`.

use std::collections::HashMap;
use std::vec::Drain;

use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_openflow::wire::FrameMessage::{Other, Payload};
use netco_openflow::wire::{self, SplitHead};
use netco_openflow::{Action, OfMessage, OfPort, PacketInReason};
use netco_sim::{SimDuration, SimTime};

use crate::compare::{CompareAction, CompareHost, CompareStats, LaneInfo};
use crate::config::CompareConfig;
use crate::encap::COMPARE_LINK;

/// Where this guard sends replica copies for combining.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareAttachment {
    /// A compare host reachable over a data port; copies are wrapped as
    /// OpenFlow `PacketIn` frames (the paper's C prototype, *Central-k*).
    DataPort(PortId),
    /// The compare runs as an app on the SDN controller; copies travel the
    /// control channel as genuine packet-ins (*POX-k*).
    Controller(NodeId),
    /// The compare runs *inside this guard* — the paper's §IX inband /
    /// middlebox / NFV placement ("the compare could also be implemented
    /// inband, e.g., as a middlebox"), with these parameters.
    Embedded(CompareConfig),
    /// No combining: replica copies are forwarded straight to the host
    /// side, duplicates and all (*Dup-k*).
    None,
}

/// Static configuration of a [`GuardSwitch`]: its ports, and the two
/// knobs — where copies are combined, and whether only a sample is.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// The port toward the protected host / rest of the network.
    pub host_port: PortId,
    /// The `k` ports toward the untrusted replicas.
    pub replica_ports: Vec<PortId>,
    /// Where copies are combined.
    pub compare: CompareAttachment,
    /// `None`: every copy goes to the compare. `Some(p)`: the §IX sampled
    /// deployment — the primary replica's copies are forwarded directly to
    /// the host side and the fraction `p` of packets (all copies of a
    /// packet, or none) additionally goes to the compare, which should
    /// then be passive. `Some(1.0)` screens everything and still forwards
    /// directly. Needs a [`DataPort`](CompareAttachment::DataPort) or
    /// [`Controller`](CompareAttachment::Controller) compare.
    pub sampling: Option<f64>,
}

impl GuardConfig {
    /// A guard forwarding every copy to `compare`, nothing embedded.
    fn attached(host_port: PortId, replica_ports: Vec<PortId>, compare: CompareAttachment) -> Self {
        GuardConfig {
            host_port,
            replica_ports,
            compare,
            sampling: None,
        }
    }

    /// A central-compare guard forwarding every copy.
    pub fn central(host_port: PortId, replica_ports: Vec<PortId>, compare_port: PortId) -> Self {
        let compare = CompareAttachment::DataPort(compare_port);
        Self::attached(host_port, replica_ports, compare)
    }

    /// A guard whose compare runs as an app on `controller` (or behind a
    /// control voter standing in for it): every copy travels the control
    /// channel as a packet-in (*POX-k*).
    pub fn controller(host_port: PortId, replica_ports: Vec<PortId>, controller: NodeId) -> Self {
        let compare = CompareAttachment::Controller(controller);
        Self::attached(host_port, replica_ports, compare)
    }

    /// A duplicate-only guard (no combining).
    pub fn dup(host_port: PortId, replica_ports: Vec<PortId>) -> Self {
        Self::attached(host_port, replica_ports, CompareAttachment::None)
    }

    /// An inband guard: the compare lives inside the guard itself (§IX).
    pub fn inband(host_port: PortId, replica_ports: Vec<PortId>, compare: CompareConfig) -> Self {
        let compare = CompareAttachment::Embedded(compare);
        Self::attached(host_port, replica_ports, compare)
    }
}

/// Guard activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Copies emitted toward replicas (hub function).
    pub hubbed: u64,
    /// Replica copies wrapped and sent to the compare.
    pub to_compare: u64,
    /// Replica copies passed directly to the host side (Dup mode, or the
    /// primary replica under sampling).
    pub direct: u64,
    /// Replica copies skipped by sampling.
    pub sample_skipped: u64,
    /// Packets released by the compare and emitted.
    pub released: u64,
    /// Frames dropped on blocked replica ports.
    pub blocked_drops: u64,
    /// Compare-link / controller messages that were not understood.
    pub invalid_msgs: u64,
}

/// The trusted edge component: hub toward the replicas, collector toward
/// the compare, executor of the compare's decisions.
///
/// "Every packet entering NetCo is forwarded to each `r_i`. Every packet
/// received from any `r_i` is forwarded to the compare ... Every packet
/// received from the compare is to be forwarded" (paper §IV). The paper
/// notes this functionality is simple enough to realize as a cheap trusted
/// component — which is exactly what this device is.
pub struct GuardSwitch {
    cfg: GuardConfig,
    blocked: HashMap<u16, SimTime>,
    stats: GuardStats,
    next_xid: u32,
    embedded: Option<CompareHost>,
}

const EMBEDDED_SWEEP_TIMER: u64 = 0xE0;

impl GuardSwitch {
    /// Creates a guard.
    ///
    /// # Panics
    ///
    /// Panics when the sampling probability is outside `[0, 1]` or set
    /// without an out-of-band compare, when the replica list is empty, or
    /// when ports overlap.
    pub fn new(cfg: GuardConfig) -> GuardSwitch {
        assert!(
            cfg.sampling.is_none_or(|p| (0.0..=1.0).contains(&p)),
            "sample probability must be within [0, 1]"
        );
        assert!(!cfg.replica_ports.is_empty(), "need at least one replica");
        assert!(
            !cfg.replica_ports.contains(&cfg.host_port),
            "host port must differ from replica ports"
        );
        if let CompareAttachment::DataPort(p) = cfg.compare {
            assert!(
                p != cfg.host_port,
                "compare port must differ from host port"
            );
            assert!(
                !cfg.replica_ports.contains(&p),
                "compare port must differ from replica ports"
            );
        }
        assert!(
            cfg.sampling.is_none()
                || matches!(
                    cfg.compare,
                    CompareAttachment::DataPort(_) | CompareAttachment::Controller(_)
                ),
            "sampling needs an out-of-band compare"
        );
        let embedded = match &cfg.compare {
            CompareAttachment::Embedded(compare_cfg) => {
                let mut host = CompareHost::new(compare_cfg.clone());
                host.attach_lane(
                    0,
                    LaneInfo {
                        replica_ports: cfg.replica_ports.iter().map(|p| p.number()).collect(),
                        host_port: cfg.host_port.number(),
                    },
                );
                Some(host)
            }
            _ => None,
        };
        GuardSwitch {
            cfg,
            blocked: HashMap::new(),
            stats: GuardStats::default(),
            next_xid: 1,
            embedded,
        }
    }

    /// Compare statistics of the embedded (inband) compare, if any.
    pub fn embedded_compare_stats(&self) -> Option<CompareStats> {
        self.embedded.as_ref().map(|c| c.core().stats())
    }

    /// Applies the embedded compare's decisions. Takes the fields it
    /// writes, not `self`: `actions` borrows the embedded host.
    fn apply_embedded(
        ctx: &mut Ctx<'_>,
        actions: Drain<'_, CompareAction>,
        host_port: PortId,
        stats: &mut GuardStats,
        blocked: &mut HashMap<u16, SimTime>,
    ) {
        let now = ctx.now();
        for action in actions {
            match action {
                CompareAction::Release { frame, .. } => {
                    stats.released += 1;
                    ctx.send_frame(host_port, frame);
                }
                CompareAction::BlockReplicaPort { port, duration, .. } => {
                    blocked.insert(port, now + duration);
                }
                CompareAction::Stall { .. } | CompareAction::Event(_) => {}
            }
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// `true` when `port` is currently blocked by compare advice.
    pub(crate) fn is_port_blocked(&self, port: PortId, now: SimTime) -> bool {
        // Asked for every replica copy; empty unless a compare sent advice.
        !self.blocked.is_empty()
            && self
                .blocked
                .get(&port.number())
                .is_some_and(|&until| now < until)
    }

    fn fresh_xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    /// Whether the compare screens `frame`. Content-based, so every copy
    /// of a packet — at either guard — gets the same answer.
    fn sampled(&self, frame: &Frame) -> bool {
        match self.cfg.sampling {
            Some(p) if p < 1.0 => (frame.fnv1a() as f64 / u64::MAX as f64) < p,
            _ => true,
        }
    }

    /// What precedes an OpenFlow message to or from an out-of-band
    /// compare: the compare link's Ethernet header, or nothing on a
    /// control channel.
    fn link(&self) -> &'static [u8] {
        match self.cfg.compare {
            CompareAttachment::DataPort(_) => &COMPARE_LINK,
            _ => &[],
        }
    }

    fn forward_to_compare(&mut self, ctx: &mut Ctx<'_>, in_port: PortId, frame: Frame) {
        self.stats.to_compare += 1;
        // The copy itself rides in the packet-in, memo included: the
        // compare unwraps it.
        let xid = self.fresh_xid();
        let reason = PacketInReason::NoMatch;
        let msg = wire::packet_in_frame(self.link(), xid, None, in_port.number(), reason, &frame);
        match self.cfg.compare {
            CompareAttachment::DataPort(p) => ctx.send_frame(p, msg),
            CompareAttachment::Controller(c) => ctx.send_control(c, msg),
            CompareAttachment::None | CompareAttachment::Embedded(_) => {
                unreachable!("handled by the caller")
            }
        }
    }

    /// Emits a packet the compare released out of every physical port
    /// `actions` outputs to; a packet-out without one is invalid.
    fn release(&mut self, ctx: &mut Ctx<'_>, actions: impl Iterator<Item = Action>, data: Frame) {
        let mut outputs = actions.filter_map(|a| match a {
            Action::Output(OfPort::Physical(p)) => Some(PortId(p)),
            _ => None,
        });
        let Some(mut port) = outputs.next() else {
            self.stats.invalid_msgs += 1;
            return;
        };
        // Move the payload into the last output.
        for next in outputs {
            ctx.send_frame(port, data.clone());
            port = next;
        }
        ctx.send_frame(port, data);
        self.stats.released += 1;
    }

    /// Handles a message from the compare, on either attachment: `reply`
    /// is the controller it came from (control channel), `None` on the
    /// compare link. A packet-out releases the frame it carries, memo
    /// included when its wrap arrived intact.
    fn handle_compare_msg(&mut self, ctx: &mut Ctx<'_>, msg: &Frame, reply: Option<NodeId>) {
        let Some((message, xid)) = wire::read_frame(self.link(), msg) else {
            self.stats.invalid_msgs += 1;
            return;
        };
        match message {
            Payload(SplitHead::PacketOut { actions, .. }, data) => {
                self.release(ctx, actions.iter(), data);
            }
            Other(OfMessage::FlowMod {
                matcher,
                actions,
                hard_timeout_s,
                ..
            }) if actions.is_empty() => {
                // Port-block advice: an empty-action rule on in_port.
                if let Some(port) = matcher.in_port {
                    let until = ctx.now() + SimDuration::from_secs(hard_timeout_s.max(1) as u64);
                    self.blocked.insert(port, until);
                } else {
                    self.stats.invalid_msgs += 1;
                }
            }
            // Minimal OpenFlow politeness so a managing controller can
            // complete its handshake in POX mode.
            Other(OfMessage::Hello) => {}
            Other(OfMessage::FeaturesRequest) => {
                if let Some(c) = reply {
                    let reply = OfMessage::FeaturesReply {
                        datapath_id: ctx.node().index() as u64,
                        n_buffers: 0,
                        n_tables: 0,
                        ports: ctx
                            .ports()
                            .iter()
                            .map(|p| netco_openflow::PortDesc {
                                port_no: p.number(),
                                hw_addr: netco_net::MacAddr::ZERO,
                                name: format!("g{}", p.number()),
                            })
                            .collect(),
                    };
                    ctx.send_control(c, wire::encode(&reply, xid));
                }
            }
            // A packet-in is no decision.
            _ => self.stats.invalid_msgs += 1,
        }
    }
}

impl Device for GuardSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(host) = &mut self.embedded {
            host.start(ctx);
            ctx.schedule_timer(host.sweep_interval(), EMBEDDED_SWEEP_TIMER);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != EMBEDDED_SWEEP_TIMER {
            return;
        }
        if let Some(host) = &mut self.embedded {
            let interval = host.sweep_interval();
            let actions = host.sweep(ctx.now());
            let (stats, blocked) = (&mut self.stats, &mut self.blocked);
            Self::apply_embedded(ctx, actions, self.cfg.host_port, stats, blocked);
            ctx.schedule_timer(interval, EMBEDDED_SWEEP_TIMER);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        let now = ctx.now();
        if port == self.cfg.host_port {
            // Lifecycle: a flight is tagged only if a compare will judge
            // it — never in Dup mode, and only the screened packets of a
            // sampled deployment.
            if ctx.telemetry().is_enabled()
                && self.cfg.compare != CompareAttachment::None
                && self.sampled(&frame)
            {
                ctx.telemetry()
                    .lifecycle_hub_ingress(frame.fp128(), now.as_nanos());
            }
            // Hub: duplicate toward every replica, moving the frame into
            // the final send (k-1 refcount bumps instead of k).
            if let Some((&last, rest)) = self.cfg.replica_ports.split_last() {
                self.stats.hubbed += rest.len() as u64 + 1;
                for &rp in rest {
                    ctx.send_frame(rp, frame.clone());
                }
                ctx.send_frame(last, frame);
            }
            return;
        }
        if self.cfg.compare == CompareAttachment::DataPort(port) {
            self.handle_compare_msg(ctx, &frame, None);
            return;
        }
        if self.cfg.replica_ports.contains(&port) {
            if self.is_port_blocked(port, now) {
                self.stats.blocked_drops += 1;
                return;
            }
            // Lifecycle: a replica's copy leaves the untrusted segment
            // here; only combining deployments close these flights, so
            // dup-mode copies are not tagged.
            if self.cfg.compare != CompareAttachment::None && ctx.telemetry().is_enabled() {
                ctx.telemetry()
                    .lifecycle_replica_egress(frame.fp128(), now.as_nanos());
            }
            match self.cfg.compare {
                CompareAttachment::None => {
                    // Dup mode: deliver every copy.
                    self.stats.direct += 1;
                    ctx.send_frame(self.cfg.host_port, frame);
                }
                CompareAttachment::Embedded(_) => {
                    self.stats.to_compare += 1;
                    if let Some(host) = &mut self.embedded {
                        let actions = host.observe(0, port.number(), frame, now);
                        let (stats, blocked) = (&mut self.stats, &mut self.blocked);
                        Self::apply_embedded(ctx, actions, self.cfg.host_port, stats, blocked);
                    }
                }
                _ if self.cfg.sampling.is_some() => {
                    // Sampling extension: the primary replica's copy is
                    // delivered directly; a consistent subset of copies
                    // additionally goes to the compare for detection.
                    let primary = self.cfg.replica_ports[0];
                    let sampled = self.sampled(&frame);
                    if port == primary {
                        self.stats.direct += 1;
                        if sampled {
                            ctx.send_frame(self.cfg.host_port, frame.clone());
                            self.forward_to_compare(ctx, port, frame);
                        } else {
                            // Unsampled primary copy: delivered without a
                            // detour, no clone needed.
                            ctx.send_frame(self.cfg.host_port, frame);
                        }
                    } else if sampled {
                        self.forward_to_compare(ctx, port, frame);
                    } else {
                        self.stats.sample_skipped += 1;
                    }
                }
                _ => {
                    self.forward_to_compare(ctx, port, frame);
                }
            }
            return;
        }
        // Unknown port: ignore.
        self.stats.invalid_msgs += 1;
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        if self.cfg.compare == CompareAttachment::Controller(from) {
            self.handle_compare_msg(ctx, &msg, Some(from));
        }
    }
}

impl std::fmt::Debug for GuardSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardSwitch")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}
