//! Canonical wire forms for control-plane voting.
//!
//! The Byzantine-resilient control plane (see `netco_core::ControlVoter`)
//! replicates the controller k ways and majority-votes the flow-mods and
//! packet-outs the replicas emit. Honest replicas compute identical
//! *decisions*, but their wire bytes legitimately differ in fields that
//! carry no forwarding semantics:
//!
//! * the transaction id (`xid`) — a per-connection counter that drifts the
//!   moment one replica ever sent a different number of messages,
//! * the buffer id — a per-switch buffer handle no voted message may rely
//!   on (the voter always relays full packet data),
//! * the action-list order, for action lists whose effect is
//!   order-insensitive in our deployments (a single output, or the empty
//!   drop list).
//!
//! [`canonicalize`] projects a votable message onto a canonical wire form:
//! xid forced to 0, `buffer_id` forced to `NO_BUFFER`, actions sorted by
//! their encoded bytes. Two replicas agree exactly when their canonical
//! bytes are bit-identical, so the canonical form both *keys* the vote
//! (via `fp128` over the canonical bytes) and *is* the released artifact.
//!
//! Note the deliberate trade: sorting makes the key stable under
//! permutation, which re-admits a once-diverged-but-now-honest replica
//! whose emission order differs cosmetically. Action lists where order
//! changes semantics (rewrite-then-output vs output-then-rewrite) would
//! canonicalize to the same key; every controller app in this repo emits
//! single-action or empty lists, where the projection is lossless.

use bytes::Bytes;

use crate::messages::OfMessage;
use crate::wire;

/// What [`canonicalize`] saw in a controller-emitted message.
#[derive(Debug, Clone, PartialEq)]
pub enum Canonical {
    /// A votable output (flow-mod or packet-out) in canonical wire form.
    Votable(Bytes),
    /// A well-formed message that is not voted on (handshake, liveness,
    /// stats plumbing); the decoded message and original xid are returned
    /// so the caller can answer or relay it.
    Opaque(Box<OfMessage>, u32),
    /// Bytes that do not decode as OpenFlow 1.0.
    Invalid,
}

/// Decodes `bytes` and, for votable messages, re-encodes them canonically.
pub fn canonicalize(bytes: &Bytes) -> Canonical {
    let Ok((msg, xid)) = wire::decode_shared(bytes) else {
        return Canonical::Invalid;
    };
    match msg {
        OfMessage::FlowMod { .. } | OfMessage::PacketOut { .. } => {
            Canonical::Votable(canonical_bytes(msg))
        }
        other => Canonical::Opaque(Box::new(other), xid),
    }
}

/// Re-encodes a votable message in canonical form (xid 0, no buffer id,
/// actions sorted by encoded bytes). Non-votable messages are encoded
/// with xid 0 but otherwise untouched.
pub fn canonical_bytes(msg: OfMessage) -> Bytes {
    let msg = match msg {
        OfMessage::FlowMod {
            command,
            matcher,
            priority,
            idle_timeout_s,
            hard_timeout_s,
            cookie,
            notify_when_removed,
            mut actions,
            buffer_id: _,
        } => {
            sort_actions(&mut actions);
            OfMessage::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout_s,
                hard_timeout_s,
                cookie,
                notify_when_removed,
                actions,
                buffer_id: None,
            }
        }
        OfMessage::PacketOut {
            buffer_id: _,
            in_port,
            mut actions,
            data,
        } => {
            sort_actions(&mut actions);
            OfMessage::PacketOut {
                buffer_id: None,
                in_port,
                actions,
                data,
            }
        }
        other => other,
    };
    wire::encode(&msg, 0)
}

/// Sorts an action list by each action's encoded wire bytes — a total,
/// codec-defined order with no reliance on `Action`'s in-memory layout.
fn sort_actions(actions: &mut [crate::Action]) {
    if actions.len() > 1 {
        actions.sort_by_cached_key(wire::encode_one_action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, FlowMatch, FlowModCommand, OfPort, PacketInReason};

    fn flow_mod(actions: Vec<Action>, buffer_id: Option<u32>) -> OfMessage {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: FlowMatch::any().with_in_port(3),
            priority: 10,
            idle_timeout_s: 0,
            hard_timeout_s: 5,
            cookie: 7,
            notify_when_removed: false,
            actions,
            buffer_id,
        }
    }

    #[test]
    fn xid_buffer_and_action_order_normalize_away() {
        let a = Action::Output(OfPort::Physical(1));
        let b = Action::SetVlanVid(9);
        let x = wire::encode(&flow_mod(vec![a.clone(), b.clone()], Some(4)), 17);
        let y = wire::encode(&flow_mod(vec![b, a], None), 9000);
        let (cx, cy) = (canonicalize(&x), canonicalize(&y));
        assert_eq!(cx, cy);
        assert!(matches!(cx, Canonical::Votable(_)));
    }

    #[test]
    fn canonical_form_is_a_fixpoint_and_stays_decodable() {
        let msg = flow_mod(
            vec![
                Action::SetVlanVid(2),
                Action::Output(OfPort::Physical(1)),
                Action::StripVlan,
            ],
            Some(99),
        );
        let Canonical::Votable(c1) = canonicalize(&wire::encode(&msg, 5)) else {
            panic!("flow-mod must be votable");
        };
        let Canonical::Votable(c2) = canonicalize(&c1) else {
            panic!("canonical bytes must stay votable");
        };
        assert_eq!(c1, c2, "canonicalization must be idempotent");
        let (decoded, xid) = wire::decode_shared(&c1).unwrap();
        assert_eq!(xid, 0);
        assert!(matches!(
            decoded,
            OfMessage::FlowMod {
                buffer_id: None,
                ..
            }
        ));
    }

    #[test]
    fn different_decisions_stay_distinct() {
        let x = wire::encode(&flow_mod(vec![], None), 1);
        let mut other = flow_mod(vec![], None);
        if let OfMessage::FlowMod { priority, .. } = &mut other {
            *priority = 11;
        }
        let y = wire::encode(&other, 1);
        assert_ne!(canonicalize(&x), canonicalize(&y));
    }

    #[test]
    fn non_votable_messages_are_opaque_with_xid() {
        let bytes = wire::encode(&OfMessage::FeaturesRequest, 42);
        match canonicalize(&bytes) {
            Canonical::Opaque(msg, xid) => {
                assert_eq!(*msg, OfMessage::FeaturesRequest);
                assert_eq!(xid, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        let pi = wire::encode(
            &OfMessage::PacketIn {
                buffer_id: None,
                in_port: 1,
                reason: PacketInReason::NoMatch,
                data: Bytes::from_static(b"pkt"),
            },
            3,
        );
        assert!(matches!(canonicalize(&pi), Canonical::Opaque(..)));
    }

    #[test]
    fn garbage_is_invalid() {
        assert_eq!(
            canonicalize(&Bytes::from_static(b"nonsense")),
            Canonical::Invalid
        );
    }
}
