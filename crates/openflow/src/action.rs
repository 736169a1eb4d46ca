//! OpenFlow 1.0 actions and their application to wire bytes.

use std::fmt;

use bytes::Bytes;

use netco_net::packet::{EthernetFrame, VlanTag};
use netco_net::{Frame, MacAddr};

use crate::ports::OfPort;

/// An OpenFlow 1.0 action: the output, and the Ethernet rewrites the
/// adversary and the §VII steering use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Forward to a port (`OFPAT_OUTPUT`).
    Output(OfPort),
    /// Rewrite the Ethernet destination (`OFPAT_SET_DL_DST`).
    SetDlDst(MacAddr),
    /// Set (or add) the VLAN id (`OFPAT_SET_VLAN_VID`).
    SetVlanVid(u16),
    /// Remove the VLAN tag (`OFPAT_STRIP_VLAN`).
    StripVlan,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst:{m}"),
            Action::SetVlanVid(v) => write!(f, "set_vlan_vid:{v}"),
            Action::StripVlan => write!(f, "strip_vlan"),
        }
    }
}

/// Applies an action list to a frame, OF-style: rewrites take effect in
/// order, and each `Output` emits the frame *as rewritten so far*.
///
/// Hands `emit` each `(port, frame)` an `Output` action emits, in order;
/// nothing is collected, so a table hit allocates nothing here. The last
/// `Output` gets `frame` itself, moved, so a one-output list clones
/// nothing. An empty action list (or one without any `Output`) therefore
/// drops the packet, exactly as in OpenFlow 1.0; rewrites after the last
/// `Output` are not carried out, since no output would see them.
///
/// A rewrite of a frame whose Ethernet header does not decode is skipped
/// — a real ASIC would have rewritten garbage; skipping keeps behaviour
/// deterministic and observable via the unchanged bytes.
pub fn apply_actions(mut frame: Frame, actions: &[Action], mut emit: impl FnMut(OfPort, Frame)) {
    let Some(last) = actions.iter().rposition(|a| matches!(a, Action::Output(_))) else {
        return;
    };
    for action in &actions[..last] {
        match action {
            Action::Output(port) => emit(*port, frame.clone()),
            other => {
                if let Some(rewritten) = rewrite(frame.bytes(), other) {
                    // Rewritten bytes are new content: fresh memo.
                    frame = Frame::new(rewritten);
                }
            }
        }
    }
    if let Action::Output(port) = actions[last] {
        emit(port, frame);
    }
}

/// Applies only the rewrite (non-`Output`) actions in `actions` to a frame,
/// returning the final bytes. Rewrites that cannot apply (unparseable
/// Ethernet header) are skipped, exactly as in [`apply_actions`].
pub fn apply_rewrites(frame: &Bytes, actions: &[Action]) -> Bytes {
    let mut current = frame.clone();
    for action in actions {
        if let Some(rewritten) = rewrite(&current, action) {
            current = rewritten;
        }
    }
    current
}

/// The frame `wire` with the rewrite `action` applied; `None` for an
/// `Output` or a frame whose Ethernet header does not decode.
fn rewrite(wire: &Bytes, action: &Action) -> Option<Bytes> {
    let mut eth = EthernetFrame::decode(wire).ok()?;
    match action {
        Action::Output(_) => return None,
        Action::SetDlDst(mac) => eth.dst = *mac,
        Action::SetVlanVid(vid) => {
            let mut tag = eth.vlan.unwrap_or(VlanTag::new(0));
            tag.vid = vid & 0x0fff;
            eth.vlan = Some(tag);
        }
        Action::StripVlan => eth.vlan = None,
    }
    Some(eth.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::packet::{builder, FrameView, L4View};
    use std::net::Ipv4Addr;

    /// The `(port, frame)` pairs `apply_actions` emits, collected.
    fn outputs(frame: &Frame, actions: &[Action]) -> Vec<(OfPort, Frame)> {
        let mut out = Vec::new();
        apply_actions(frame.clone(), actions, |port, f| out.push((port, f)));
        out
    }

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn udp() -> Frame {
        builder::udp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            A,
            B,
            100,
            200,
            Bytes::from_static(b"payload"),
            None,
        )
        .into()
    }

    #[test]
    fn empty_actions_drop() {
        assert!(outputs(&udp(), &[]).is_empty());
    }

    #[test]
    fn output_passes_frame_through_unchanged() {
        let frame = udp();
        let out = outputs(&frame, &[Action::Output(OfPort::Physical(4))]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, OfPort::Physical(4));
        assert_eq!(out[0].1, frame);
    }

    #[test]
    fn rewrite_then_output_emits_rewritten() {
        let out = outputs(
            &udp(),
            &[
                Action::SetDlDst(MacAddr::local(9)),
                Action::Output(OfPort::Physical(1)),
            ],
        );
        let view = FrameView::parse(out[0].1.bytes()).unwrap();
        assert_eq!(view.eth.dst, MacAddr::local(9));
    }

    #[test]
    fn output_before_rewrite_emits_original() {
        let frame = udp();
        let out = outputs(
            &frame,
            &[
                Action::Output(OfPort::Physical(1)),
                Action::SetDlDst(MacAddr::local(9)),
                Action::Output(OfPort::Physical(2)),
            ],
        );
        assert_eq!(out[0].1, frame);
        assert_ne!(out[1].1, frame);
    }

    #[test]
    fn vlan_set_and_strip() {
        let out = outputs(
            &udp(),
            &[Action::SetVlanVid(77), Action::Output(OfPort::Physical(1))],
        );
        let v = FrameView::parse(out[0].1.bytes()).unwrap();
        assert_eq!(v.eth.vlan.unwrap().vid, 77);
        // And the L4 checksum still verifies (VLAN does not affect it).
        assert!(matches!(v.l4().unwrap(), Some(L4View::Udp(_))));

        let out2 = outputs(
            &out[0].1,
            &[Action::StripVlan, Action::Output(OfPort::Physical(1))],
        );
        let v2 = FrameView::parse(out2[0].1.bytes()).unwrap();
        assert!(v2.eth.vlan.is_none());
    }

    #[test]
    fn rewrite_of_an_undecodable_frame_is_skipped() {
        let runt = Frame::from(b"runt" as &'static [u8]);
        let out = outputs(
            &runt,
            &[
                Action::SetDlDst(MacAddr::local(9)),
                Action::Output(OfPort::Physical(1)),
            ],
        );
        assert_eq!(out[0].1, runt, "frame must pass through unchanged");
    }

    #[test]
    fn multiple_outputs_duplicate() {
        let out = outputs(
            &udp(),
            &[
                Action::Output(OfPort::Physical(1)),
                Action::Output(OfPort::Physical(2)),
                Action::Output(OfPort::Physical(3)),
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, f)| *f == out[0].1));
    }
}
