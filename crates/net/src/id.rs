//! Identifier newtypes for nodes, ports, links and MAC addresses.

use std::fmt;
use std::str::FromStr;

/// Identifies a node (host, switch, hub, compare, controller) in a
/// [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a raw index.
    ///
    /// Only useful for tests and serialization; `World::add_node` is the
    /// normal source of ids.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a port (interface) on a node. Ports are dense small integers,
/// mirroring OpenFlow port numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u16);

impl PortId {
    /// The raw port number.
    pub fn number(self) -> u16 {
        self.0
    }
}

impl From<u16> for PortId {
    fn from(n: u16) -> Self {
        PortId(n)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a (bidirectional) link between two node ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A 48-bit Ethernet MAC address.
///
/// # Example
///
/// ```
/// use netco_net::MacAddr;
/// let mac: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
/// assert_eq!(mac, MacAddr::local(42));
/// assert!(!mac.is_broadcast());
/// assert!(MacAddr::BROADCAST.is_broadcast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address (never assigned to a real interface).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// A locally-administered unicast address derived from `index`
    /// (`02:00:xx:xx:xx:xx`); used by topology builders to hand out
    /// deterministic addresses.
    pub const fn local(index: u32) -> MacAddr {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// `true` for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// The raw octets.
    pub fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error parsing a [`MacAddr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let p = parts.next().ok_or(ParseMacError)?;
            if p.len() != 2 {
                return Err(ParseMacError);
            }
            *slot = u8::from_str_radix(p, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let mac = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let s = mac.to_string();
        assert_eq!(s, "de:ad:be:ef:00:01");
        assert_eq!(s.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("0g:11:22:33:44:55".parse::<MacAddr>().is_err());
        assert!("001:1:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn multicast_and_broadcast_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::local(3).is_broadcast());
        let mcast = MacAddr([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(!mcast.is_broadcast());
    }

    #[test]
    fn local_addresses_are_unique() {
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        assert_ne!(a, b);
    }

    #[test]
    fn port_and_node_display() {
        assert_eq!(PortId::from(3).to_string(), "p3");
        assert_eq!(NodeId::from_index(7).to_string(), "n7");
        assert_eq!(NodeId::from_index(7).index(), 7);
    }
}
