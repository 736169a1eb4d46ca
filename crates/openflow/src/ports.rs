//! OpenFlow 1.0 port numbers, including the reserved virtual ports.

use std::fmt;

use netco_net::PortId;

/// An OpenFlow port reference: either a physical port or one of the
/// reserved virtual ports this subset supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfPort {
    /// A physical switch port.
    Physical(u16),
    /// Send back out the ingress port (`OFPP_IN_PORT`, 0xfff8).
    InPort,
    /// All physical ports except the ingress port (`OFPP_FLOOD`, 0xfffb).
    Flood,
    /// All physical ports including the ingress port (`OFPP_ALL`, 0xfffc).
    All,
    /// The controller (`OFPP_CONTROLLER`, 0xfffd).
    Controller,
    /// No port — drops the packet (`OFPP_NONE`, 0xffff).
    None,
}

impl OfPort {
    const IN_PORT: u16 = 0xfff8;
    const FLOOD: u16 = 0xfffb;
    const ALL: u16 = 0xfffc;
    const CONTROLLER: u16 = 0xfffd;
    const NONE: u16 = 0xffff;
    /// Highest valid physical port number in OF 1.0 (`OFPP_MAX`).
    pub(crate) const MAX_PHYSICAL: u16 = 0xff00;

    /// The wire encoding of this port.
    pub fn to_u16(self) -> u16 {
        match self {
            OfPort::Physical(p) => p,
            OfPort::InPort => OfPort::IN_PORT,
            OfPort::Flood => OfPort::FLOOD,
            OfPort::All => OfPort::ALL,
            OfPort::Controller => OfPort::CONTROLLER,
            OfPort::None => OfPort::NONE,
        }
    }

    /// Interprets a wire value. Unknown reserved values map to
    /// [`OfPort::None`] (the safe, drop-everything reading).
    pub(crate) fn from_u16(v: u16) -> OfPort {
        match v {
            OfPort::IN_PORT => OfPort::InPort,
            OfPort::FLOOD => OfPort::Flood,
            OfPort::ALL => OfPort::All,
            OfPort::CONTROLLER => OfPort::Controller,
            OfPort::NONE => OfPort::None,
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
            OfPort::InPort => write!(f, "IN_PORT"),
            OfPort::Flood => write!(f, "FLOOD"),
            OfPort::All => write!(f, "ALL"),
            OfPort::Controller => write!(f, "CONTROLLER"),
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
            OfPort::InPort,
            OfPort::Flood,
            OfPort::All,
            OfPort::Controller,
            OfPort::None,
        ] {
            assert_eq!(OfPort::from_u16(p.to_u16()), p);
        }
    }

    #[test]
    fn unknown_reserved_is_none() {
        assert_eq!(OfPort::from_u16(0xfffa), OfPort::None); // OFPP_NORMAL unsupported
    }

    #[test]
    fn physical_conversion() {
        assert_eq!(OfPort::from(PortId(3)), OfPort::Physical(3));
    }

    #[test]
    fn display() {
        assert_eq!(OfPort::Physical(3).to_string(), "3");
        assert_eq!(OfPort::Controller.to_string(), "CONTROLLER");
    }
}
