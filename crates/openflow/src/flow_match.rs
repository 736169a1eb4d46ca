//! The OpenFlow 1.0 flow match (12-tuple with per-field wildcards).

use std::fmt;
use std::net::Ipv4Addr;

use netco_net::MacAddr;

use netco_net::packet::PacketFields;

/// An OF 1.0 match: each field is either a concrete value or wildcarded
/// (`None`).
///
/// This subset wildcards `nw_src`/`nw_dst` all-or-nothing (no CIDR
/// prefixes); the paper's prototype matches only on `dl_dst`, so prefix
/// masks are not needed (documented limitation).
///
/// # Example
///
/// ```
/// use netco_net::MacAddr;
/// use netco_openflow::{FlowMatch, PacketFields};
///
/// let m = FlowMatch::default().with_dl_dst(MacAddr::local(9));
/// let mut f = PacketFields::default();
/// assert!(!m.matches(&f));
/// f.dl_dst = MacAddr::local(9);
/// assert!(m.matches(&f));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<u16>,
    /// Ethernet source.
    pub dl_src: Option<MacAddr>,
    /// Ethernet destination.
    pub dl_dst: Option<MacAddr>,
    /// VLAN id ([`crate::OFP_VLAN_NONE`] matches untagged frames).
    pub dl_vlan: Option<u16>,
    /// VLAN priority.
    pub dl_vlan_pcp: Option<u8>,
    /// EtherType.
    pub dl_type: Option<u16>,
    /// IP ToS (DSCP).
    pub nw_tos: Option<u8>,
    /// IP protocol.
    pub nw_proto: Option<u8>,
    /// IPv4 source (exact).
    pub nw_src: Option<Ipv4Addr>,
    /// IPv4 destination (exact).
    pub nw_dst: Option<Ipv4Addr>,
    /// L4 source port / ICMP type.
    pub tp_src: Option<u16>,
    /// L4 destination port / ICMP code.
    pub tp_dst: Option<u16>,
}

impl FlowMatch {
    /// The fully wildcarded match (matches everything).
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// Builder: match on ingress port.
    pub fn with_in_port(mut self, port: u16) -> FlowMatch {
        self.in_port = Some(port);
        self
    }

    /// Builder: match on Ethernet source.
    pub fn with_dl_src(mut self, mac: MacAddr) -> FlowMatch {
        self.dl_src = Some(mac);
        self
    }

    /// Builder: match on Ethernet destination.
    pub fn with_dl_dst(mut self, mac: MacAddr) -> FlowMatch {
        self.dl_dst = Some(mac);
        self
    }

    /// Builder: match on VLAN id.
    pub fn with_dl_vlan(mut self, vlan: u16) -> FlowMatch {
        self.dl_vlan = Some(vlan);
        self
    }

    /// Builder: match on EtherType.
    pub fn with_dl_type(mut self, ethertype: u16) -> FlowMatch {
        self.dl_type = Some(ethertype);
        self
    }

    /// Builder: match on IP protocol.
    pub fn with_nw_proto(mut self, proto: u8) -> FlowMatch {
        self.nw_proto = Some(proto);
        self
    }

    /// Builder: match on IPv4 source.
    pub fn with_nw_src(mut self, ip: Ipv4Addr) -> FlowMatch {
        self.nw_src = Some(ip);
        self
    }

    /// Builder: match on IPv4 destination.
    pub fn with_nw_dst(mut self, ip: Ipv4Addr) -> FlowMatch {
        self.nw_dst = Some(ip);
        self
    }

    /// Builder: match on L4 source port.
    pub fn with_tp_src(mut self, port: u16) -> FlowMatch {
        self.tp_src = Some(port);
        self
    }

    /// Builder: match on L4 destination port.
    pub fn with_tp_dst(mut self, port: u16) -> FlowMatch {
        self.tp_dst = Some(port);
        self
    }

    /// `true` when `fields` satisfies every concrete field of this match.
    pub fn matches(&self, fields: &PacketFields) -> bool {
        fn ok<T: PartialEq>(m: &Option<T>, v: &T) -> bool {
            m.as_ref().is_none_or(|x| x == v)
        }
        ok(&self.in_port, &fields.in_port)
            && ok(&self.dl_src, &fields.dl_src)
            && ok(&self.dl_dst, &fields.dl_dst)
            && ok(&self.dl_vlan, &fields.dl_vlan)
            && ok(&self.dl_vlan_pcp, &fields.dl_vlan_pcp)
            && ok(&self.dl_type, &fields.dl_type)
            && ok(&self.nw_tos, &fields.nw_tos)
            && ok(&self.nw_proto, &fields.nw_proto)
            && ok(&self.nw_src, &fields.nw_src)
            && ok(&self.nw_dst, &fields.nw_dst)
            && ok(&self.tp_src, &fields.tp_src)
            && ok(&self.tp_dst, &fields.tp_dst)
    }

    /// `true` when this match is at least as general as `other` (every
    /// packet matched by `other` is matched by `self`). Used for
    /// non-strict flow deletion.
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        fn sub<T: PartialEq>(general: &Option<T>, specific: &Option<T>) -> bool {
            match (general, specific) {
                (None, _) => true,
                (Some(g), Some(s)) => g == s,
                (Some(_), None) => false,
            }
        }
        sub(&self.in_port, &other.in_port)
            && sub(&self.dl_src, &other.dl_src)
            && sub(&self.dl_dst, &other.dl_dst)
            && sub(&self.dl_vlan, &other.dl_vlan)
            && sub(&self.dl_vlan_pcp, &other.dl_vlan_pcp)
            && sub(&self.dl_type, &other.dl_type)
            && sub(&self.nw_tos, &other.nw_tos)
            && sub(&self.nw_proto, &other.nw_proto)
            && sub(&self.nw_src, &other.nw_src)
            && sub(&self.nw_dst, &other.nw_dst)
            && sub(&self.tp_src, &other.tp_src)
            && sub(&self.tp_dst, &other.tp_dst)
    }

    /// When this match is wildcard-free (all 12 fields concrete), the one
    /// [`PacketFields`] value it matches — the key of the flow table's
    /// exact-match index. `None` as soon as any field is wildcarded.
    pub fn exact_key(&self) -> Option<PacketFields> {
        Some(PacketFields {
            in_port: self.in_port?,
            dl_src: self.dl_src?,
            dl_dst: self.dl_dst?,
            dl_vlan: self.dl_vlan?,
            dl_vlan_pcp: self.dl_vlan_pcp?,
            dl_type: self.dl_type?,
            nw_tos: self.nw_tos?,
            nw_proto: self.nw_proto?,
            nw_src: self.nw_src?,
            nw_dst: self.nw_dst?,
            tp_src: self.tp_src?,
            tp_dst: self.tp_dst?,
        })
    }

    /// Builds the wildcard-free match for exactly `fields` (the inverse of
    /// [`FlowMatch::exact_key`]) — what a microflow rule installs.
    pub fn exact(fields: &PacketFields) -> FlowMatch {
        FlowMatch {
            in_port: Some(fields.in_port),
            dl_src: Some(fields.dl_src),
            dl_dst: Some(fields.dl_dst),
            dl_vlan: Some(fields.dl_vlan),
            dl_vlan_pcp: Some(fields.dl_vlan_pcp),
            dl_type: Some(fields.dl_type),
            nw_tos: Some(fields.nw_tos),
            nw_proto: Some(fields.nw_proto),
            nw_src: Some(fields.nw_src),
            nw_dst: Some(fields.nw_dst),
            tp_src: Some(fields.tp_src),
            tp_dst: Some(fields.tp_dst),
        }
    }

    /// Number of concrete (non-wildcarded) fields.
    pub fn specificity(&self) -> u32 {
        self.in_port.is_some() as u32
            + self.dl_src.is_some() as u32
            + self.dl_dst.is_some() as u32
            + self.dl_vlan.is_some() as u32
            + self.dl_vlan_pcp.is_some() as u32
            + self.dl_type.is_some() as u32
            + self.nw_tos.is_some() as u32
            + self.nw_proto.is_some() as u32
            + self.nw_src.is_some() as u32
            + self.nw_dst.is_some() as u32
            + self.tp_src.is_some() as u32
            + self.tp_dst.is_some() as u32
    }
}

impl fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        macro_rules! field {
            ($name:literal, $v:expr) => {
                if let Some(v) = &$v {
                    if wrote {
                        write!(f, ",")?;
                    }
                    write!(f, concat!($name, "={}"), v)?;
                    wrote = true;
                }
            };
        }
        field!("in_port", self.in_port);
        field!("dl_src", self.dl_src);
        field!("dl_dst", self.dl_dst);
        field!("dl_vlan", self.dl_vlan);
        field!("dl_type", self.dl_type);
        field!("nw_proto", self.nw_proto);
        field!("nw_src", self.nw_src);
        field!("nw_dst", self.nw_dst);
        field!("tp_src", self.tp_src);
        field!("tp_dst", self.tp_dst);
        if !wrote {
            write!(f, "*")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> PacketFields {
        PacketFields {
            in_port: 1,
            dl_src: MacAddr::local(1),
            dl_dst: MacAddr::local(2),
            dl_type: 0x0800,
            nw_proto: 17,
            nw_src: Ipv4Addr::new(10, 0, 0, 1),
            nw_dst: Ipv4Addr::new(10, 0, 0, 2),
            tp_src: 5000,
            tp_dst: 6000,
            ..PacketFields::default()
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(FlowMatch::any().matches(&fields()));
        assert!(FlowMatch::any().matches(&PacketFields::default()));
    }

    #[test]
    fn each_field_filters() {
        let f = fields();
        assert!(FlowMatch::any().with_in_port(1).matches(&f));
        assert!(!FlowMatch::any().with_in_port(2).matches(&f));
        assert!(FlowMatch::any().with_dl_dst(MacAddr::local(2)).matches(&f));
        assert!(!FlowMatch::any().with_dl_dst(MacAddr::local(3)).matches(&f));
        assert!(FlowMatch::any().with_nw_proto(17).matches(&f));
        assert!(!FlowMatch::any().with_nw_proto(6).matches(&f));
        assert!(FlowMatch::any().with_tp_dst(6000).matches(&f));
        assert!(!FlowMatch::any().with_tp_dst(6001).matches(&f));
    }

    #[test]
    fn conjunction_of_fields() {
        let m = FlowMatch::any()
            .with_dl_type(0x0800)
            .with_nw_dst(Ipv4Addr::new(10, 0, 0, 2))
            .with_tp_dst(6000);
        assert!(m.matches(&fields()));
        let mut f2 = fields();
        f2.tp_dst = 1;
        assert!(!m.matches(&f2));
    }

    #[test]
    fn subsumption() {
        let general = FlowMatch::any().with_dl_type(0x0800);
        let specific = FlowMatch::any().with_dl_type(0x0800).with_nw_proto(6);
        assert!(FlowMatch::any().subsumes(&general));
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        assert!(general.subsumes(&general));
        let other = FlowMatch::any().with_dl_type(0x0806);
        assert!(!general.subsumes(&other));
    }

    #[test]
    fn specificity_counts() {
        assert_eq!(FlowMatch::any().specificity(), 0);
        assert_eq!(
            FlowMatch::any()
                .with_in_port(1)
                .with_tp_src(2)
                .specificity(),
            2
        );
    }

    #[test]
    fn exact_key_roundtrips() {
        let f = fields();
        let m = FlowMatch::exact(&f);
        assert_eq!(m.specificity(), 12);
        assert_eq!(m.exact_key().as_ref(), Some(&f));
        assert!(m.matches(&f));
        let mut other = f.clone();
        other.tp_dst ^= 1;
        assert!(!m.matches(&other));
    }

    #[test]
    fn any_wildcard_defeats_exact_key() {
        let f = fields();
        let mut m = FlowMatch::exact(&f);
        m.nw_tos = None;
        assert_eq!(m.exact_key(), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(FlowMatch::any().to_string(), "*");
        let m = FlowMatch::any()
            .with_in_port(3)
            .with_dl_dst(MacAddr::local(1));
        assert_eq!(m.to_string(), "in_port=3,dl_dst=02:00:00:00:00:01");
    }
}
