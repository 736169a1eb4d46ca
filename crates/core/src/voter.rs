//! Byzantine-resilient replicated control plane: the control voter.
//!
//! [`ControlVoter`] puts `k` replicated controllers behind one logical
//! controller endpoint. Toward the guard it *is* the controller
//! ([`CompareAttachment::Controller`](crate::CompareAttachment) points at
//! the voter node); toward the controller replicas it *is* the switch
//! (it answers their handshake). Every packet-in the
//! guard raises is relayed **verbatim** to all `k` replicas, so honest
//! replicas see bit-identical input streams and — in a deterministic
//! world — emit bit-identical decisions. The flow-mods and packet-outs
//! they emit are projected onto canonical wire form
//! ([`netco_openflow::canonical`]) and majority-voted through an embedded
//! [`CompareHost`]: the control plane reuses the data plane's combiner
//! wholesale, one lane, with controller `i` as "replica port" `i + 1`.
//!
//! Canonicalization is what makes the vote well-defined: transaction ids
//! are per-connection counters that drift permanently after a single
//! divergent send, so voting raw bytes would lock a once-Byzantine
//! replica out of shadow agreement forever. Voting — and *releasing* —
//! the canonical bytes keeps equivocation detectable and re-admission
//! reachable.
//!
//! The vote observes each canonical [`Frame`] itself, and the compare
//! cache keeps one copy per canonical message, the first. A majority
//! releases that copy to the guard, and its entry's first-seen time
//! stamps the vote latency. A canonical packet-out is a wrap around the
//! data frame the controller sent back, so the guard reads the frame it
//! raised the packet-in for, memo included.
//!
//! Degradation mirrors the data plane: with a
//! [`SupervisorConfig`](crate::SupervisorConfig) attached, a disagreeing
//! or silent controller accrues strikes, is quarantined (its outputs are
//! shadow-voted but excluded from the quorum), and the lane degrades from
//! Prevent to Detect semantics below three healthy controllers; agreeing
//! shadow votes past the probation gate re-admit it.

use std::vec::Drain;

use netco_net::{Ctx, Device, Frame, NodeId, PortId};
use netco_openflow::canonical::{canonicalize, Canonical};
use netco_openflow::wire::{self, FrameMessage, SplitHead};
use netco_openflow::OfMessage;
use netco_sim::{mix64, EventLog, SimTime};
use netco_telemetry::{Counter, Histogram};

use crate::compare::{CompareAction, CompareHost, LaneInfo};
use crate::config::CompareConfig;
use crate::events::SecurityEvent;
use crate::supervisor::SupervisorConfig;

const SWEEP_TIMER: u64 = 1;

/// The single lane every controller vote runs on.
const VOTE_LANE: u16 = 0;

/// Tunables of a [`ControlVoter`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlVoterConfig {
    /// Consecutive released votes a controller may miss before it is
    /// suspected down (and struck).
    pub miss_alarm_threshold: u32,
    /// Self-healing supervisor (quarantine, adaptive quorum, probation).
    /// `None` keeps alarm-only behaviour.
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for ControlVoterConfig {
    fn default() -> ControlVoterConfig {
        ControlVoterConfig {
            miss_alarm_threshold: 64,
            supervisor: None,
        }
    }
}

impl ControlVoterConfig {
    /// Builder: sets the consecutive-miss alarm threshold.
    pub fn with_miss_alarm_threshold(mut self, misses: u32) -> ControlVoterConfig {
        self.miss_alarm_threshold = misses;
        self
    }

    /// Builder: attaches a self-healing supervisor.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> ControlVoterConfig {
        self.supervisor = Some(supervisor);
        self
    }
}

/// Vote-plane counters (a façade over the live telemetry cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlVoterStats {
    /// Votable controller outputs (flow-mods / packet-outs) observed.
    pub sent: u64,
    /// Majority decisions released to the guard.
    pub voted: u64,
    /// Vote entries that expired without reaching a quorum.
    pub rejected: u64,
    /// Packet-ins relayed to each controller (total over all replicas).
    pub relayed: u64,
    /// Per-controller disagreement counts (outputs that lost the vote).
    pub disagreements: Vec<u64>,
    /// Controller messages that did not decode as OpenFlow.
    pub invalid: u64,
    /// Order-sensitive digest over `(time, bytes)` of every artifact
    /// released to the guard — the byte-identity witness the pinned
    /// constants in `tests/byzantine_controller.rs` check.
    pub release_digest: u64,
}

/// The replicated-control-plane voter device. See the module docs.
pub struct ControlVoter {
    host: CompareHost,
    controllers: Vec<NodeId>,
    guard: Option<NodeId>,
    sent: Counter,
    voted: Counter,
    rejected: Counter,
    relayed: Counter,
    invalid: Counter,
    disagreements: Vec<Counter>,
    vote_latency: Histogram,
    release_digest: u64,
}

impl ControlVoter {
    /// Creates a voter over `controllers` (index `i` votes as replica port
    /// `i + 1`). Attach the guard with [`ControlVoter::set_guard`] before
    /// the run starts.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 3 controllers — a control-plane majority
    /// needs at least 3 voters (use a single controller without a voter
    /// otherwise).
    pub fn new(cfg: ControlVoterConfig, controllers: Vec<NodeId>) -> ControlVoter {
        let k = controllers.len();
        assert!(k >= 3, "control voting needs at least 3 controllers");
        // The vote cache keeps the compare's defaults: a controller output
        // waits 20 ms for a majority, in a cache of 4096 entries.
        let mut compare_cfg = CompareConfig::prevent(k);
        compare_cfg.miss_alarm_threshold = cfg.miss_alarm_threshold;
        compare_cfg.supervisor = cfg.supervisor;
        let mut host = CompareHost::new(compare_cfg);
        host.attach_lane(
            VOTE_LANE,
            LaneInfo {
                replica_ports: (1..=k as u16).collect(),
                // The voter has no data ports; releases travel the control
                // channel to the guard, so the lane's host port is unused.
                host_port: 0,
            },
        );
        ControlVoter {
            host,
            disagreements: (0..k).map(|_| Counter::detached()).collect(),
            controllers,
            guard: None,
            sent: Counter::detached(),
            voted: Counter::detached(),
            rejected: Counter::detached(),
            relayed: Counter::detached(),
            invalid: Counter::detached(),
            vote_latency: Histogram::detached(),
            release_digest: 0,
        }
    }

    /// Registers the guard this voter fronts the control plane for.
    pub fn set_guard(&mut self, guard: NodeId) {
        self.guard = Some(guard);
    }

    /// Vote-plane counters.
    pub fn stats(&self) -> ControlVoterStats {
        ControlVoterStats {
            sent: self.sent.get(),
            voted: self.voted.get(),
            rejected: self.rejected.get(),
            relayed: self.relayed.get(),
            disagreements: self.disagreements.iter().map(|c| c.get()).collect(),
            invalid: self.invalid.get(),
            release_digest: self.release_digest,
        }
    }

    /// The security event log (quarantine lifecycle, disagreements).
    pub fn events(&self) -> &EventLog<SecurityEvent> {
        self.host.events()
    }

    /// Indices of currently quarantined controllers.
    pub fn quarantined_controllers(&self) -> Vec<usize> {
        self.host
            .core()
            .quarantined_ports(VOTE_LANE)
            .into_iter()
            .map(|p| p as usize - 1)
            .collect()
    }

    fn controller_index(&self, node: NodeId) -> Option<usize> {
        self.controllers.iter().position(|&c| c == node)
    }

    /// Runs one `observe` / `sweep` call on the host and carries out its
    /// decisions. The log tail the call appended is what it raised: each
    /// expired entry there is a lost vote.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: impl for<'h> FnOnce(&'h mut CompareHost, SimTime) -> Drain<'h, CompareAction>,
    ) {
        let now = ctx.now();
        let logged = self.host.events().iter().len();
        for action in call(&mut self.host, now) {
            match action {
                CompareAction::Release {
                    frame, first_seen, ..
                } => {
                    self.voted.inc();
                    self.vote_latency
                        .record(now.saturating_since(first_seen).as_nanos());
                    self.release_digest = mix64(self.release_digest ^ now.as_nanos());
                    self.release_digest = mix64(self.release_digest ^ frame.fnv1a());
                    if let Some(guard) = self.guard {
                        ctx.send_control(guard, frame);
                    }
                }
                CompareAction::BlockReplicaPort { .. } => {
                    // Control channels cannot be blocked mid-session; the
                    // durable remediation is the supervisor's quarantine,
                    // which the DoS strike already feeds.
                }
                // Vote bookkeeping cost is covered by the voter node's CPU
                // model; events are counted from the log below.
                CompareAction::Stall { .. } | CompareAction::Event(_) => {}
            }
        }

        for e in self.host.events().iter().skip(logged) {
            if let SecurityEvent::SinglePathPacket { suspect_ports, .. } = &e.record {
                self.rejected.inc();
                for &port in suspect_ports {
                    if let Some(cell) = self.disagreements.get(port as usize - 1) {
                        cell.inc();
                    }
                }
            }
        }
    }

    /// A controller replica spoke: answer protocol plumbing ourselves,
    /// vote everything votable.
    fn on_controller_msg(&mut self, ctx: &mut Ctx<'_>, index: usize, msg: &Frame) {
        match canonicalize(msg) {
            Canonical::Votable(canon) => {
                self.sent.inc();
                self.drive(ctx, |host, now| {
                    host.observe(VOTE_LANE, index as u16 + 1, canon, now)
                });
            }
            Canonical::Opaque(message, xid) => match *message {
                OfMessage::Hello => {}
                OfMessage::FeaturesRequest => {
                    let reply = OfMessage::FeaturesReply {
                        datapath_id: ctx.node().index() as u64,
                        n_buffers: 0,
                        n_tables: 1,
                        ports: vec![],
                    };
                    let from = self.controllers[index];
                    ctx.send_control(from, wire::encode(&reply, xid));
                }
                // Stats requests and anything else a controller might
                // send: silently absorbed. The voter poses as a minimal
                // switch; only votable outputs move the world.
                _ => {}
            },
            Canonical::Invalid => {
                self.invalid.inc();
            }
        }
    }
}

impl Device for ControlVoter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.start(ctx);
        let sink = ctx.telemetry().clone();
        let scope = ctx.node_name(ctx.node()).to_string();
        sink.adopt_counter(&format!("ctlvote.{scope}.sent"), &mut self.sent);
        sink.adopt_counter(&format!("ctlvote.{scope}.voted"), &mut self.voted);
        sink.adopt_counter(&format!("ctlvote.{scope}.rejected"), &mut self.rejected);
        sink.adopt_counter(&format!("ctlvote.{scope}.relayed"), &mut self.relayed);
        sink.adopt_counter(&format!("ctlvote.{scope}.invalid"), &mut self.invalid);
        for (i, cell) in self.disagreements.iter_mut().enumerate() {
            sink.adopt_counter(&format!("ctlvote.{scope}.disagreements.c{i}"), cell);
        }
        sink.adopt_histogram(
            &format!("ctlvote.{scope}.vote_latency_ns"),
            &mut self.vote_latency,
        );
        ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: Frame) {
        // The voter lives purely on the control plane.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != SWEEP_TIMER {
            return;
        }
        self.drive(ctx, CompareHost::sweep);
        ctx.schedule_timer(self.host.sweep_interval(), SWEEP_TIMER);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
        if self.guard == Some(from) {
            // Guard side: relay packet-ins verbatim so every replica sees
            // a bit-identical input stream (same bytes, same xid), each
            // sharing the one frame the guard sent.
            if matches!(
                wire::read_frame(&[], &msg),
                Some((FrameMessage::Payload(SplitHead::PacketIn { .. }, _), _))
            ) {
                for &c in &self.controllers {
                    self.relayed.inc();
                    ctx.send_control(c, msg.clone());
                }
            }
            return;
        }
        if let Some(index) = self.controller_index(from) {
            self.on_controller_msg(ctx, index, &msg);
        }
    }
}

impl std::fmt::Debug for ControlVoter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlVoter")
            .field("controllers", &self.controllers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netco_net::{CpuModel, World};
    use netco_openflow::{Action, OfPort, PacketInReason};
    use netco_sim::SimDuration;

    /// Records control messages it receives; sends nothing.
    #[derive(Default)]
    struct ControlCollector {
        msgs: Vec<(SimTime, NodeId, Bytes)>,
    }

    impl Device for ControlCollector {
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: Frame) {}
        fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Frame) {
            self.msgs.push((ctx.now(), from, msg.into_bytes()));
        }
    }

    /// Sends scripted control messages at fixed times; collects replies.
    struct Script {
        to: NodeId,
        msgs: Vec<(SimDuration, Bytes)>,
        received: Vec<Bytes>,
    }

    impl Script {
        fn new(to: NodeId, msgs: Vec<(SimDuration, Bytes)>) -> Script {
            Script {
                to,
                msgs,
                received: Vec::new(),
            }
        }
    }

    impl Device for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (at, _)) in self.msgs.iter().enumerate() {
                ctx.schedule_timer(*at, i as u64);
            }
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: Frame) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let msg = self.msgs[token as usize].1.clone();
            ctx.send_control(self.to, msg);
        }
        fn on_control(&mut self, _: &mut Ctx<'_>, _: NodeId, msg: Frame) {
            self.received.push(msg.into_bytes());
        }
    }

    fn packet_out(payload: &[u8], xid: u32) -> Bytes {
        wire::encode(
            &OfMessage::PacketOut {
                buffer_id: None,
                in_port: OfPort::None.to_u16(),
                actions: vec![Action::Output(OfPort::Physical(0))],
                data: Bytes::copy_from_slice(payload),
            },
            xid,
        )
    }

    /// guard(collector) ← voter ← 3 scripted "controllers". Node ids are
    /// sequential, so the voter's id (added last) is known in advance.
    fn world_with(
        scripts: [Vec<(SimDuration, Bytes)>; 3],
        cfg: ControlVoterConfig,
    ) -> (World, NodeId, NodeId, [NodeId; 3]) {
        let mut w = World::new(11);
        let v = NodeId::from_index(4);
        let guard = w.add_node("guard", ControlCollector::default(), CpuModel::default());
        let [s0, s1, s2] = scripts;
        let c0 = w.add_node("c0", Script::new(v, s0), CpuModel::default());
        let c1 = w.add_node("c1", Script::new(v, s1), CpuModel::default());
        let c2 = w.add_node("c2", Script::new(v, s2), CpuModel::default());
        let mut voter = ControlVoter::new(cfg, vec![c0, c1, c2]);
        voter.set_guard(guard);
        assert_eq!(w.add_node("voter", voter, CpuModel::default()), v);
        for node in [c0, c1, c2] {
            w.connect_control(node, v, Default::default());
        }
        w.connect_control(guard, v, Default::default());
        (w, guard, v, [c0, c1, c2])
    }

    /// Same decision, three different xids; c2 equivocates, and speaks
    /// first: its output opens a cache entry of its own, never released.
    #[test]
    fn majority_vote_releases_canonical_bytes_once() {
        let t = SimDuration::from_millis(1);
        let (mut w, guard, v, _) = world_with(
            [
                vec![(t, packet_out(b"decision", 10))],
                vec![(t, packet_out(b"decision", 77))],
                vec![(t / 2, packet_out(b"EVIL!!!!", 3))],
            ],
            ControlVoterConfig::default(),
        );
        w.run_for(SimDuration::from_millis(100));
        let msgs = &w.device::<ControlCollector>(guard).unwrap().msgs;
        assert_eq!(msgs.len(), 1, "exactly one majority release");
        let (decoded, xid) = wire::decode_shared(&msgs[0].2).unwrap();
        assert_eq!(xid, 0, "released artifact is the canonical form");
        assert!(
            matches!(decoded, OfMessage::PacketOut { data, .. } if data == Bytes::from_static(b"decision"))
        );
        let voter = w.device::<ControlVoter>(v).unwrap();
        assert_eq!(voter.stats().sent, 3);
        assert_eq!(voter.stats().voted, 1);
        assert_eq!(voter.stats().rejected, 1, "the equivocator's entry expired");
        assert_eq!(voter.stats().disagreements, vec![0, 0, 1]);
    }

    #[test]
    fn handshake_probes_are_answered() {
        let t = SimDuration::from_millis(1);
        let (mut w, _guard, v, [c0, _, _]) = world_with(
            [
                vec![
                    (t, wire::encode(&OfMessage::Hello, 0)),
                    (t, wire::encode(&OfMessage::FeaturesRequest, 5)),
                ],
                vec![],
                vec![],
            ],
            ControlVoterConfig::default(),
        );
        w.run_for(SimDuration::from_millis(50));
        let replies: Vec<(OfMessage, u32)> = w
            .device::<Script>(c0)
            .unwrap()
            .received
            .iter()
            .map(|m| wire::decode_shared(m).unwrap())
            .collect();
        assert_eq!(replies.len(), 1, "Hello is absorbed, the probe answered");
        assert!(
            matches!(
                &replies[0],
                (OfMessage::FeaturesReply { n_tables: 1, .. }, 5)
            ),
            "features reply echoes the probe xid: {replies:?}"
        );
        let voter = w.device::<ControlVoter>(v).unwrap();
        assert_eq!(voter.stats().invalid, 0);
        assert_eq!(voter.stats().sent, 0, "plumbing is not voted on");
    }

    #[test]
    fn packet_ins_are_relayed_verbatim_to_all_controllers() {
        let mut w = World::new(3);
        let c0 = w.add_node("c0", ControlCollector::default(), CpuModel::default());
        let c1 = w.add_node("c1", ControlCollector::default(), CpuModel::default());
        let c2 = w.add_node("c2", ControlCollector::default(), CpuModel::default());
        let mut voter = ControlVoter::new(ControlVoterConfig::default(), vec![c0, c1, c2]);
        let pi = wire::encode(
            &OfMessage::PacketIn {
                buffer_id: None,
                in_port: 2,
                reason: PacketInReason::NoMatch,
                data: Bytes::from_static(b"copy"),
            },
            42,
        );
        let v_pi = pi.clone();
        let guard = w.add_node(
            "guard",
            Script::new(
                NodeId::from_index(4),
                vec![(SimDuration::from_millis(1), v_pi)],
            ),
            CpuModel::default(),
        );
        voter.set_guard(guard);
        let v = w.add_node("voter", voter, CpuModel::default());
        assert_eq!(v, NodeId::from_index(4), "script target must be the voter");
        for c in [c0, c1, c2] {
            w.connect_control(c, v, Default::default());
        }
        w.connect_control(guard, v, Default::default());
        w.run_for(SimDuration::from_millis(20));
        for c in [c0, c1, c2] {
            let msgs = &w.device::<ControlCollector>(c).unwrap().msgs;
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0].2, pi, "relay must be byte-identical, xid included");
        }
        assert_eq!(w.device::<ControlVoter>(v).unwrap().stats().relayed, 3);
    }

    /// Two decisions, one equivocation on the first: the released bytes,
    /// times and counters are pinned to what the retired full-copy vote
    /// (every canonical encoding through the compare core) released on
    /// commit 009b717 — recorded there, never re-recorded from this code.
    #[test]
    fn fingerprint_vote_releases_the_pinned_canonical_bytes() {
        let t = SimDuration::from_millis(1);
        let (mut w, guard, v, _) = world_with(
            [
                vec![
                    (t, packet_out(b"decision", 10)),
                    (t + t, packet_out(b"second", 4)),
                ],
                vec![
                    (t, packet_out(b"decision", 77)),
                    (t + t, packet_out(b"second", 8)),
                ],
                vec![
                    (t, packet_out(b"EVIL!!!!", 3)),
                    (t + t, packet_out(b"second", 2)),
                ],
            ],
            ControlVoterConfig::default(),
        );
        w.run_for(SimDuration::from_millis(100));
        // ofp_header (v1, PACKET_OUT, length, xid 0), buffer_id none,
        // in_port none, one 8-byte output action, then the payload.
        const HEAD: [u8; 24] = [
            0x01, 0x0d, 0x00, 0x00, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x08,
            0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0xff, 0xff,
        ];
        let pinned = |at_ms: u64, payload: &[u8]| {
            let mut bytes = HEAD.to_vec();
            bytes[3] = (HEAD.len() + payload.len()) as u8;
            bytes.extend_from_slice(payload);
            (
                SimTime::ZERO + SimDuration::from_millis(at_ms),
                v,
                Bytes::from(bytes),
            )
        };
        assert_eq!(
            w.device::<ControlCollector>(guard).unwrap().msgs,
            vec![pinned(2, b"decision"), pinned(3, b"second")],
            "each decision released exactly once, byte for byte"
        );
        let stats = w.device::<ControlVoter>(v).unwrap().stats();
        assert_eq!(stats.release_digest, 6282946802178625419);
        assert_eq!((stats.sent, stats.voted, stats.rejected), (6, 2, 1));
        assert_eq!(stats.disagreements, vec![0, 0, 1]);
    }

    /// A decision whose first copy expired unreleased and that a majority
    /// sends again within twice the hold time: the vote latency is timed
    /// from the live entry's first copy (2 ms), not from the expired one
    /// (31 ms, what the retired side table, kept until twice the hold
    /// time, stamped). The released bytes, xid 0, are the same either way.
    #[test]
    fn a_vote_seen_again_after_expiry_is_timed_from_its_live_entry() {
        let ms = SimDuration::from_millis;
        let (mut w, guard, v, _) = world_with(
            [
                vec![(ms(1), packet_out(b"decision", 10))],
                vec![(ms(30), packet_out(b"decision", 77))],
                vec![(ms(32), packet_out(b"decision", 3))],
            ],
            ControlVoterConfig::default(),
        );
        w.run_for(ms(100));
        // Each copy crosses a 0.5 ms channel: c0's reaches the voter at
        // 1.5 ms and expires unreleased on the 25 ms sweep; c1's opens a
        // new entry at 30.5 ms and c2's releases it at 32.5 ms.
        assert_eq!(
            w.device::<ControlCollector>(guard).unwrap().msgs,
            vec![(SimTime::ZERO + ms(33), v, packet_out(b"decision", 0))]
        );
        let voter = w.device::<ControlVoter>(v).unwrap();
        let latency = voter.vote_latency.snapshot();
        assert_eq!((latency.count, latency.sum), (1, 2_000_000));
        // The side table's code gave the same digest and counters.
        let stats = voter.stats();
        assert_eq!(stats.release_digest, 7496869734990081066);
        assert_eq!((stats.sent, stats.voted, stats.rejected), (3, 1, 1));
        assert_eq!(stats.disagreements, vec![1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least 3 controllers")]
    fn voter_requires_three_controllers() {
        let _ = ControlVoter::new(
            ControlVoterConfig::default(),
            vec![NodeId::from_index(0), NodeId::from_index(1)],
        );
    }
}
