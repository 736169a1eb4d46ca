//! OpenFlow 1.0 actions and their application to wire bytes.

use std::fmt;
use std::net::Ipv4Addr;

use bytes::Bytes;

use netco_net::packet::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram, VlanTag,
};
use netco_net::{Frame, MacAddr};

use crate::ports::OfPort;

/// An OpenFlow 1.0 action (the subset this reproduction uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Forward to a port (`OFPAT_OUTPUT`).
    Output(OfPort),
    /// Rewrite the Ethernet source (`OFPAT_SET_DL_SRC`).
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination (`OFPAT_SET_DL_DST`).
    SetDlDst(MacAddr),
    /// Set (or add) the VLAN id (`OFPAT_SET_VLAN_VID`).
    SetVlanVid(u16),
    /// Remove the VLAN tag (`OFPAT_STRIP_VLAN`).
    StripVlan,
    /// Rewrite the IPv4 source (`OFPAT_SET_NW_SRC`); fixes checksums.
    SetNwSrc(Ipv4Addr),
    /// Rewrite the IPv4 destination (`OFPAT_SET_NW_DST`); fixes checksums.
    SetNwDst(Ipv4Addr),
    /// Rewrite the L4 source port (`OFPAT_SET_TP_SRC`); fixes checksums.
    SetTpSrc(u16),
    /// Rewrite the L4 destination port (`OFPAT_SET_TP_DST`); fixes checksums.
    SetTpDst(u16),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::SetDlSrc(m) => write!(f, "set_dl_src:{m}"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst:{m}"),
            Action::SetVlanVid(v) => write!(f, "set_vlan_vid:{v}"),
            Action::StripVlan => write!(f, "strip_vlan"),
            Action::SetNwSrc(ip) => write!(f, "set_nw_src:{ip}"),
            Action::SetNwDst(ip) => write!(f, "set_nw_dst:{ip}"),
            Action::SetTpSrc(p) => write!(f, "set_tp_src:{p}"),
            Action::SetTpDst(p) => write!(f, "set_tp_dst:{p}"),
        }
    }
}

/// Applies an action list to a frame, OF-style: rewrites take effect in
/// order, and each `Output` emits the frame *as rewritten so far*.
///
/// Returns the `(port, frame)` pairs emitted by `Output` actions. An empty
/// action list (or one without any `Output`) therefore drops the packet,
/// exactly as in OpenFlow 1.0.
///
/// Rewrites that need a parseable layer (IPv4/L4 setters on a frame whose
/// recognized layers fail to decode) are skipped — a real ASIC would have
/// rewritten garbage; skipping keeps behaviour deterministic and
/// observable via the unchanged bytes.
pub fn apply_actions(frame: &Frame, actions: &[Action]) -> Vec<(OfPort, Frame)> {
    let mut current = frame.clone();
    let mut out = Vec::new();
    for action in actions {
        match action {
            Action::Output(port) => out.push((*port, current.clone())),
            other => {
                if let Some(rewritten) = rewrite(current.bytes(), other) {
                    // Rewritten bytes are new content: fresh memo.
                    current = Frame::new(rewritten);
                }
            }
        }
    }
    out
}

/// Applies only the rewrite (non-`Output`) actions in `actions` to a frame,
/// returning the final bytes. Rewrites that cannot apply (unparseable
/// layer) are skipped, exactly as in [`apply_actions`].
pub fn apply_rewrites(frame: &Bytes, actions: &[Action]) -> Bytes {
    let mut current = frame.clone();
    for action in actions {
        if matches!(action, Action::Output(_)) {
            continue;
        }
        if let Some(rewritten) = rewrite(&current, action) {
            current = rewritten;
        }
    }
    current
}

fn rewrite(wire: &Bytes, action: &Action) -> Option<Bytes> {
    let mut eth = EthernetFrame::decode(wire).ok()?;
    match action {
        Action::SetDlSrc(mac) => {
            eth.src = *mac;
            return Some(eth.encode());
        }
        Action::SetDlDst(mac) => {
            eth.dst = *mac;
            return Some(eth.encode());
        }
        Action::SetVlanVid(vid) => {
            let mut tag = eth.vlan.unwrap_or(VlanTag::new(0));
            tag.vid = vid & 0x0fff;
            eth.vlan = Some(tag);
            return Some(eth.encode());
        }
        Action::StripVlan => {
            eth.vlan = None;
            return Some(eth.encode());
        }
        _ => {}
    }
    // The remaining actions need parseable IPv4 (and possibly L4).
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let mut ip = Ipv4Packet::decode(&eth.payload).ok()?;
    match action {
        Action::SetNwSrc(addr) | Action::SetNwDst(addr) => {
            let (new_src, new_dst) = match action {
                Action::SetNwSrc(_) => (*addr, ip.dst),
                _ => (ip.src, *addr),
            };
            // L4 checksums cover the pseudo-header, so re-encode L4 too.
            ip.payload = reencode_l4(&ip.payload, ip.protocol, ip.src, ip.dst, new_src, new_dst)?;
            ip.src = new_src;
            ip.dst = new_dst;
        }
        Action::SetTpSrc(port) | Action::SetTpDst(port) => match ip.protocol {
            IpProtocol::Udp => {
                let mut udp = UdpDatagram::decode(&ip.payload, ip.src, ip.dst).ok()?;
                match action {
                    Action::SetTpSrc(_) => udp.src_port = *port,
                    _ => udp.dst_port = *port,
                }
                ip.payload = udp.encode(ip.src, ip.dst);
            }
            IpProtocol::Tcp => {
                let mut tcp = TcpSegment::decode(&ip.payload, ip.src, ip.dst).ok()?;
                match action {
                    Action::SetTpSrc(_) => tcp.src_port = *port,
                    _ => tcp.dst_port = *port,
                }
                ip.payload = tcp.encode(ip.src, ip.dst);
            }
            _ => return None,
        },
        _ => unreachable!("handled above"),
    }
    eth.payload = ip.encode();
    Some(eth.encode())
}

fn reencode_l4(
    l4: &Bytes,
    proto: IpProtocol,
    old_src: Ipv4Addr,
    old_dst: Ipv4Addr,
    new_src: Ipv4Addr,
    new_dst: Ipv4Addr,
) -> Option<Bytes> {
    match proto {
        IpProtocol::Udp => {
            let d = UdpDatagram::decode(l4, old_src, old_dst).ok()?;
            Some(d.encode(new_src, new_dst))
        }
        IpProtocol::Tcp => {
            let s = TcpSegment::decode(l4, old_src, old_dst).ok()?;
            Some(s.encode(new_src, new_dst))
        }
        // ICMP checksums do not cover the pseudo-header.
        _ => Some(l4.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netco_net::packet::{builder, FrameView, L4View};

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

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
        assert!(apply_actions(&udp(), &[]).is_empty());
    }

    #[test]
    fn output_passes_frame_through_unchanged() {
        let frame = udp();
        let out = apply_actions(&frame, &[Action::Output(OfPort::Physical(4))]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, OfPort::Physical(4));
        assert_eq!(out[0].1, frame);
    }

    #[test]
    fn rewrite_then_output_emits_rewritten() {
        let out = apply_actions(
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
        let out = apply_actions(
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
        let out = apply_actions(
            &udp(),
            &[Action::SetVlanVid(77), Action::Output(OfPort::Physical(1))],
        );
        let v = FrameView::parse(out[0].1.bytes()).unwrap();
        assert_eq!(v.eth.vlan.unwrap().vid, 77);
        // And the L4 checksum still verifies (VLAN does not affect it).
        assert!(matches!(v.l4().unwrap(), Some(L4View::Udp(_))));

        let out2 = apply_actions(
            &out[0].1,
            &[Action::StripVlan, Action::Output(OfPort::Physical(1))],
        );
        let v2 = FrameView::parse(out2[0].1.bytes()).unwrap();
        assert!(v2.eth.vlan.is_none());
    }

    #[test]
    fn nw_rewrite_fixes_all_checksums() {
        let out = apply_actions(
            &udp(),
            &[Action::SetNwDst(C), Action::Output(OfPort::Physical(1))],
        );
        let v = FrameView::parse(out[0].1.bytes()).expect("ip checksum must verify");
        assert_eq!(v.ipv4().unwrap().dst, C);
        match v.l4().expect("udp checksum must verify").unwrap() {
            L4View::Udp(u) => assert_eq!(u.payload, Bytes::from_static(b"payload")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tp_rewrite_udp_and_tcp() {
        let out = apply_actions(
            &udp(),
            &[Action::SetTpDst(999), Action::Output(OfPort::Physical(1))],
        );
        let v = FrameView::parse(out[0].1.bytes()).unwrap();
        match v.l4().unwrap().unwrap() {
            L4View::Udp(u) => assert_eq!(u.dst_port, 999),
            other => panic!("unexpected {other:?}"),
        }

        use netco_net::packet::TcpFlags;
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 10,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 1000,
            payload: Bytes::from_static(b"t"),
        };
        let tcp_frame = Frame::from(builder::tcp_frame(
            MacAddr::local(1),
            MacAddr::local(2),
            A,
            B,
            &seg,
            None,
        ));
        let out = apply_actions(
            &tcp_frame,
            &[Action::SetTpSrc(4242), Action::Output(OfPort::Physical(1))],
        );
        let v = FrameView::parse(out[0].1.bytes()).unwrap();
        match v.l4().unwrap().unwrap() {
            L4View::Tcp(t) => assert_eq!(t.src_port, 4242),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn l3_rewrite_on_non_ip_is_skipped() {
        let eth = Frame::from(
            EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                vlan: None,
                ethertype: EtherType::Other(0x1234),
                payload: Bytes::from_static(b"opaque"),
            }
            .encode(),
        );
        let out = apply_actions(
            &eth,
            &[Action::SetNwDst(C), Action::Output(OfPort::Physical(1))],
        );
        assert_eq!(out[0].1, eth, "frame must pass through unchanged");
    }

    #[test]
    fn multiple_outputs_duplicate() {
        let out = apply_actions(
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
