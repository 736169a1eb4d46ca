//! OpenFlow 1.0 port numbers, including the reserved virtual ports.

use std::fmt;

use netco_net::PortId;

/// An OpenFlow port reference: either a physical port or one of the
/// reserved virtual ports some world sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfPort {
    /// A physical switch port.
    Physical(u16),
    /// All physical ports except the ingress port (`OFPP_FLOOD`, 0xfffb).
    Flood,
    /// No port — drops the packet (`OFPP_NONE`, 0xffff).
    None,
}

impl OfPort {
    const FLOOD: u16 = 0xfffb;
    const NONE: u16 = 0xffff;
    /// Highest valid physical port number in OF 1.0 (`OFPP_MAX`).
    pub(crate) const MAX_PHYSICAL: u16 = 0xff00;

    /// The wire encoding of this port.
    pub fn to_u16(self) -> u16 {
        match self {
            OfPort::Physical(p) => p,
            OfPort::Flood => OfPort::FLOOD,
            OfPort::None => OfPort::NONE,
        }
    }

    /// Interprets a wire value. Unknown reserved values map to
    /// [`OfPort::None`] (the safe, drop-everything reading).
    pub(crate) fn from_u16(v: u16) -> OfPort {
        match v {
            OfPort::FLOOD => OfPort::Flood,
            p if p <= OfPort::MAX_PHYSICAL => OfPort::Physical(p),
            _ => OfPort::None,
        }
    }
}

impl From<PortId> for OfPort {
    fn from(p: PortId) -> OfPort {
        OfPort::Physical(p.0)
    }
}

impl fmt::Display for OfPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfPort::Physical(p) => write!(f, "{p}"),
            OfPort::Flood => write!(f, "FLOOD"),
            OfPort::None => write!(f, "NONE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        for p in [
            OfPort::Physical(0),
            OfPort::Physical(42),
            OfPort::Flood,
            OfPort::None,
        ] {
            assert_eq!(OfPort::from_u16(p.to_u16()), p);
        }
    }

    #[test]
    fn unknown_reserved_is_none() {
        // OFPP_IN_PORT, OFPP_NORMAL, OFPP_ALL and OFPP_CONTROLLER: no world
        // sends them.
        for v in [0xfff8, 0xfffa, 0xfffc, 0xfffd] {
            assert_eq!(OfPort::from_u16(v), OfPort::None);
        }
    }

    #[test]
    fn physical_conversion() {
        assert_eq!(OfPort::from(PortId(3)), OfPort::Physical(3));
    }

    #[test]
    fn display() {
        assert_eq!(OfPort::Physical(3).to_string(), "3");
        assert_eq!(OfPort::Flood.to_string(), "FLOOD");
    }
}
