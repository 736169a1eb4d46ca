//! A Byzantine-fault harness wrapping an honest controller app.
//!
//! [`ByzantineApp`] interposes on every message its inner app emits (via
//! [`ControllerCtx::begin_capture`]) and, while its activation window is
//! open, misbehaves in a chosen, fully deterministic way: corrupting
//! votable outputs (equivocation — the replica's vote differs from its
//! honest peers'), suppressing them (a silent controller), or holding
//! them back (a slow controller). Handshake traffic always
//! passes through unmodified, so the replica looks *alive* while lying —
//! the failure mode majority voting exists to catch.
//!
//! Determinism: behaviors trigger off message counters and the simulated
//! clock only — no RNG — so two runs of the same world misbehave on
//! bit-identical messages at bit-identical times.

use std::collections::HashMap;

use bytes::Bytes;
use netco_net::{Frame, NodeId};
use netco_openflow::wire::{self, FrameMessage, SplitHead};
use netco_openflow::OfMessage;
use netco_sim::{ActivationWindow, SimDuration};

use crate::app::{ControllerApp, ControllerCtx};

/// How the wrapped replica misbehaves while the window is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Corrupts every `every_nth`-th votable output (1 = every one): the
    /// message is decoded, semantically mutated, and re-encoded, so it is
    /// well-formed OpenFlow that disagrees with the honest majority.
    Equivocate {
        /// Corrupt one votable output out of every this many (≥ 1).
        every_nth: u64,
    },
    /// Suppresses every votable output (flow-mods and packet-outs vanish).
    Mute,
    /// Delivers every votable output late by `by`.
    Delay {
        /// How long each votable output is held back.
        by: SimDuration,
    },
}

/// Wrapper tokens start here so they can never collide with app timers the
/// inner app schedules for itself.
const STASH_TOKEN_BASE: u64 = 1 << 48;

/// Wraps `A`, replaying its behavior faithfully outside the activation
/// window and misbehaving deterministically inside it.
pub struct ByzantineApp<A> {
    inner: A,
    behavior: ByzantineBehavior,
    window: ActivationWindow,
    /// Votable outputs emitted while the window was open.
    votable_seen: u64,
    stash: HashMap<u64, (NodeId, Frame)>,
    next_token: u64,
}

impl<A: ControllerApp> ByzantineApp<A> {
    /// Wraps `inner`, misbehaving per `behavior` whenever `window` is open.
    pub fn new(inner: A, behavior: ByzantineBehavior, window: ActivationWindow) -> ByzantineApp<A> {
        ByzantineApp {
            inner,
            behavior,
            window,
            votable_seen: 0,
            stash: HashMap::new(),
            next_token: 0,
        }
    }

    /// Mutable access to the wrapped app (post-construction wiring).
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Runs one inner-app callback under capture, then routes everything
    /// it tried to send through the behavior filter.
    fn drive(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        f: impl FnOnce(&mut A, &mut ControllerCtx<'_, '_>),
    ) {
        cx.begin_capture();
        f(&mut self.inner, cx);
        for (switch, msg) in cx.end_capture() {
            self.emit(cx, switch, msg);
        }
    }

    fn emit(&mut self, cx: &mut ControllerCtx<'_, '_>, switch: NodeId, msg: Frame) {
        let votable = matches!(
            wire::read_frame(&[], &msg),
            Some((
                FrameMessage::Payload(SplitHead::PacketOut { .. }, _)
                    | FrameMessage::Other(OfMessage::FlowMod { .. }),
                _
            ))
        );
        if !votable || !self.window.contains(cx.now()) {
            cx.send_raw(switch, msg);
            return;
        }
        self.votable_seen += 1;
        match self.behavior {
            ByzantineBehavior::Equivocate { every_nth } => {
                let nth = every_nth.max(1);
                if self.votable_seen.is_multiple_of(nth) {
                    cx.send_raw(switch, corrupt(msg.bytes()).into());
                } else {
                    cx.send_raw(switch, msg);
                }
            }
            // Suppressed: the output is never sent.
            ByzantineBehavior::Mute => {}
            ByzantineBehavior::Delay { by } => {
                let token = STASH_TOKEN_BASE + self.next_token;
                self.next_token += 1;
                self.stash.insert(token, (switch, msg));
                cx.schedule_app_timer(by, token);
            }
        }
    }
}

/// Decodes, semantically mutates, and re-encodes a votable message. The
/// result is valid OpenFlow carrying a *different decision* — a flipped
/// flow-mod priority or a flipped payload byte — so it survives the
/// voter's codec checks and loses only at the vote.
fn corrupt(bytes: &Bytes) -> Bytes {
    let Ok((msg, xid)) = wire::decode_shared(bytes) else {
        return bytes.clone();
    };
    let mutated = match msg {
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
        } => OfMessage::FlowMod {
            command,
            matcher,
            priority: priority ^ 1,
            idle_timeout_s,
            hard_timeout_s,
            cookie,
            notify_when_removed,
            actions,
            buffer_id,
        },
        OfMessage::PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        } => {
            let mut payload = data.to_vec();
            match payload.last_mut() {
                Some(last) => *last ^= 0x01,
                None => payload.push(0xFF),
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data: Bytes::from(payload),
            }
        }
        other => other,
    };
    wire::encode(&mutated, xid)
}

impl<A: ControllerApp> ControllerApp for ByzantineApp<A> {
    fn on_start(&mut self, cx: &mut ControllerCtx<'_, '_>) {
        self.drive(cx, |app, cx| app.on_start(cx));
    }

    fn on_switch_up(&mut self, cx: &mut ControllerCtx<'_, '_>, switch: NodeId) {
        self.drive(cx, |app, cx| app.on_switch_up(cx, switch));
    }

    fn on_packet_in(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        buffer_id: Option<u32>,
        in_port: u16,
        data: Frame,
    ) {
        self.drive(cx, |app, cx| {
            app.on_packet_in(cx, switch, buffer_id, in_port, data)
        });
    }

    fn on_flow_stats(
        &mut self,
        cx: &mut ControllerCtx<'_, '_>,
        switch: NodeId,
        flows: Vec<netco_openflow::FlowStats>,
    ) {
        self.drive(cx, |app, cx| app.on_flow_stats(cx, switch, flows));
    }

    fn tick(&mut self, cx: &mut ControllerCtx<'_, '_>) {
        self.drive(cx, |app, cx| app.tick(cx));
    }

    fn on_app_timer(&mut self, cx: &mut ControllerCtx<'_, '_>, token: u64) {
        if token >= STASH_TOKEN_BASE {
            if let Some((switch, msg)) = self.stash.remove(&token) {
                cx.send_raw(switch, msg);
            }
            return;
        }
        self.drive(cx, |app, cx| app.on_app_timer(cx, token));
    }
}

impl<A> std::fmt::Debug for ByzantineApp<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzantineApp")
            .field("behavior", &self.behavior)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_openflow::{Action, FlowMatch, OfPort};

    fn packet_out(data: &'static [u8]) -> Bytes {
        wire::encode(
            &OfMessage::PacketOut {
                buffer_id: None,
                in_port: 1,
                actions: vec![Action::Output(OfPort::Physical(2))],
                data: Bytes::from_static(data),
            },
            7,
        )
    }

    #[test]
    fn corrupt_preserves_wellformedness_and_changes_decision() {
        let original = packet_out(b"payload");
        let mutated = corrupt(&original);
        assert_ne!(original, mutated);
        let (msg, xid) = wire::decode_shared(&mutated).expect("corrupt output must decode");
        assert_eq!(xid, 7, "corruption must not disturb the xid");
        let OfMessage::PacketOut { data, .. } = msg else {
            panic!("variant must be preserved");
        };
        assert_eq!(&data[..data.len() - 1], b"payloa");
        assert_eq!(data[data.len() - 1], b'd' ^ 0x01);
    }

    #[test]
    fn corrupt_flow_mod_flips_priority_only() {
        let original = wire::encode(&OfMessage::add_flow(40, FlowMatch::any(), vec![]), 3);
        let (msg, _) = wire::decode_shared(&corrupt(&original)).unwrap();
        let OfMessage::FlowMod {
            priority, actions, ..
        } = msg
        else {
            panic!("variant must be preserved");
        };
        assert_eq!(priority, 41);
        assert!(actions.is_empty());
    }

    #[test]
    fn corrupt_is_deterministic() {
        let original = packet_out(b"same input");
        assert_eq!(corrupt(&original), corrupt(&original));
    }
}
