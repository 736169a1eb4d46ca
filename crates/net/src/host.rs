//! Host-side helpers: a NIC identity and a static neighbor table.
//!
//! The simulator does not run ARP; topology builders pre-populate each
//! host's [`NeighborTable`] (exactly like Mininet's `--arp` static mode the
//! paper relied on).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use netco_sim::fxhash::FxBuildHasher;

use bytes::Bytes;

use crate::device::Ctx;
use crate::frame::Frame;
use crate::id::{MacAddr, PortId};
use crate::packet::{ArpOperation, ArpPacket, EtherType, EthernetFrame, Ipv4Packet, L4View};

/// A static IPv4 → MAC mapping.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    entries: HashMap<Ipv4Addr, MacAddr, FxBuildHasher>,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> NeighborTable {
        NeighborTable::default()
    }

    /// Adds (or replaces) a mapping.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.entries.insert(ip, mac);
    }

    /// Looks up the MAC for `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(Ipv4Addr, MacAddr)> for NeighborTable {
    fn from_iter<I: IntoIterator<Item = (Ipv4Addr, MacAddr)>>(iter: I) -> Self {
        NeighborTable {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Ipv4Addr, MacAddr)> for NeighborTable {
    fn extend<I: IntoIterator<Item = (Ipv4Addr, MacAddr)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// The L2/L3 identity of a host interface, plus its neighbor table.
///
/// Traffic applications (in `netco-traffic`) embed a `HostNic` to build
/// outgoing frames and read incoming ones through [`HostNic::receive`].
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use netco_net::{HostNic, MacAddr};
///
/// let mut nic = HostNic::new(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
/// nic.neighbors.insert(Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(2));
/// assert_eq!(nic.resolve(Ipv4Addr::new(10, 0, 0, 2)), Some(MacAddr::local(2)));
/// ```
#[derive(Debug, Clone)]
pub struct HostNic {
    /// The interface MAC address.
    pub mac: MacAddr,
    /// The interface IPv4 address.
    pub ip: Ipv4Addr,
    /// Static ARP entries.
    pub neighbors: NeighborTable,
}

impl HostNic {
    /// Creates a NIC with an empty neighbor table.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> HostNic {
        HostNic {
            mac,
            ip,
            neighbors: NeighborTable::new(),
        }
    }

    /// Resolves a destination IP to a MAC via the neighbor table.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.neighbors.lookup(ip)
    }

    /// Builds a broadcast ARP who-has request for `target`.
    pub fn make_arp_request(&self, target: Ipv4Addr) -> Bytes {
        EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: self.mac,
            vlan: None,
            ethertype: EtherType::Arp,
            payload: ArpPacket::request(self.mac, self.ip, target).encode(),
        }
        .encode()
    }

    /// The host receive step: reads `frame` (arrived on `port`) through its
    /// memoised parse, [`Frame::views`], so a content is parsed and
    /// checksum-verified once however many clones of it arrive.
    ///
    /// Frames not addressed to this interface at L2 (unicast match or
    /// broadcast) are `None`. An ARP frame teaches the sender's mapping and,
    /// when it asks for this interface's address, is answered on `port`; it
    /// is `None` too. Anything else is its IPv4 and L4 layers when it is
    /// addressed to this interface at L3 as well, and `None` otherwise —
    /// including malformed frames, which a real NIC would have discarded on
    /// checksum grounds.
    pub fn receive<'f>(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: &'f Frame,
    ) -> Option<(&'f Ipv4Packet, &'f L4View)> {
        let (view, l4) = frame.views()?;
        if view.eth.dst != self.mac && !view.eth.dst.is_broadcast() {
            return None;
        }
        if view.eth.ethertype == EtherType::Arp {
            let arp = ArpPacket::decode(&view.eth.payload).ok()?;
            // Learn the sender (both requests and replies carry it).
            self.neighbors.insert(arp.sender_ip, arp.sender_mac);
            if arp.operation == ArpOperation::Request && arp.target_ip == self.ip {
                let reply = EthernetFrame {
                    dst: arp.sender_mac,
                    src: self.mac,
                    vlan: None,
                    ethertype: EtherType::Arp,
                    payload: ArpPacket::reply_to(&arp, self.mac).encode(),
                };
                ctx.send_frame(port, reply.encode());
            }
            return None;
        }
        let ip = view.ipv4().filter(|ip| ip.dst == self.ip)?;
        Some((ip, l4.as_ref()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::packet::builder;
    use crate::testutil::CollectorDevice;
    use crate::{CpuModel, LinkSpec, World};
    use netco_sim::SimDuration;

    /// A host that keeps the L4 layer of everything `receive` hands it.
    #[derive(Debug)]
    struct Receiver {
        nic: HostNic,
        got: Vec<L4View>,
    }

    impl Device for Receiver {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
            if let Some((_, l4)) = self.nic.receive(ctx, port, &frame) {
                self.got.push(l4.clone());
            }
        }
    }

    /// Hands `frames` to a host on `nic`; returns the NIC afterwards, the L4
    /// layers `receive` handed up and the frames the host sent.
    fn receive_all(nic: HostNic, frames: Vec<Bytes>) -> (HostNic, Vec<L4View>, Vec<Bytes>) {
        let mut w = World::new(1);
        let host = w.add_node(
            "host",
            Receiver {
                nic,
                got: Vec::new(),
            },
            CpuModel::default(),
        );
        let wire = w.add_node("wire", CollectorDevice::default(), CpuModel::default());
        w.connect(host, PortId(0), wire, PortId(0), LinkSpec::ideal());
        for f in frames {
            w.inject_frame(host, PortId(0), f);
        }
        w.run_for(SimDuration::from_millis(1));
        let sent = w.device::<CollectorDevice>(wire).unwrap().frames.iter();
        let sent = sent.map(|(_, f)| f.clone()).collect();
        let host = w.device_mut::<Receiver>(host).unwrap();
        (host.nic.clone(), std::mem::take(&mut host.got), sent)
    }

    fn nic() -> HostNic {
        let mut nic = HostNic::new(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
        nic.neighbors
            .insert(Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(2));
        nic
    }

    fn frame_to(dst_mac: MacAddr, dst_ip: Ipv4Addr) -> Bytes {
        builder::udp_frame(
            MacAddr::local(2),
            dst_mac,
            Ipv4Addr::new(10, 0, 0, 2),
            dst_ip,
            1,
            2,
            Bytes::from_static(b"x"),
            None,
        )
    }

    #[test]
    fn receives_frames_addressed_at_l2_and_l3() {
        let nic = nic();
        let frames = vec![
            frame_to(nic.mac, nic.ip),
            frame_to(MacAddr::BROADCAST, nic.ip),
            frame_to(MacAddr::local(9), nic.ip),
            frame_to(nic.mac, Ipv4Addr::new(10, 0, 0, 9)),
            Bytes::from_static(b"shrt"),
        ];
        let (_, got, sent) = receive_all(nic, frames);
        assert_eq!(got.len(), 2, "unicast and broadcast only");
        assert!(got
            .iter()
            .all(|l4| matches!(l4, L4View::Udp(u) if u.dst_port == 2)));
        assert!(sent.is_empty());
    }

    #[test]
    fn corrupted_l4_is_not_received() {
        let nic = nic();
        let mut wire = frame_to(nic.mac, nic.ip).to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        let (_, got, _) = receive_all(nic, vec![wire.into()]);
        assert!(got.is_empty());
    }

    #[test]
    fn arp_request_learns_and_replies_on_the_arrival_port() {
        let a = HostNic::new(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
        let b = HostNic::new(MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 2));
        // a asks who-has b; b learns a and replies; a learns b.
        let req = a.make_arp_request(b.ip);
        let (b, got, sent) = receive_all(b, vec![req]);
        assert!(got.is_empty(), "ARP is answered, not handed up");
        assert_eq!(b.resolve(a.ip), Some(a.mac), "b learned the requester");
        assert_eq!(sent.len(), 1, "b must answer");
        let (a, _, sent) = receive_all(a, sent);
        assert!(sent.is_empty(), "replies produce no reply");
        assert_eq!(a.resolve(b.ip), Some(b.mac), "a learned the answer");
    }

    #[test]
    fn arp_for_someone_else_learns_but_stays_silent() {
        let a = HostNic::new(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
        let c = HostNic::new(MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3));
        let req = a.make_arp_request(Ipv4Addr::new(10, 0, 0, 2));
        let (c, _, sent) = receive_all(c, vec![req]);
        assert!(sent.is_empty());
        assert_eq!(c.resolve(a.ip), Some(a.mac));
    }

    #[test]
    fn neighbor_table_basics() {
        let mut t = NeighborTable::new();
        assert!(t.is_empty());
        t.insert(Ipv4Addr::new(1, 2, 3, 4), MacAddr::local(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Ipv4Addr::new(1, 2, 3, 4)), Some(MacAddr::local(5)));
        assert_eq!(t.lookup(Ipv4Addr::new(4, 3, 2, 1)), None);
        let t2: NeighborTable = [(Ipv4Addr::new(9, 9, 9, 9), MacAddr::local(9))]
            .into_iter()
            .collect();
        assert_eq!(t2.len(), 1);
    }
}
