//! OpenFlow match patterns (exact-match and wildcard rules).
//!
//! A pattern matches on a subset of the packet header fields plus the switch
//! input port. Fields left as `None` are wildcarded ("don't care" in the
//! paper's terminology). Network addresses additionally support prefix
//! wildcards, which is what the load-balancer application of Section 8.2 uses
//! to split client traffic.

use crate::fingerprint::{Fingerprint, Hasher64};
use crate::packet::{EthType, IpProto, Packet};
use crate::types::{MacAddr, NwAddr, PortId};
use std::cmp::Ordering;
use std::fmt;

/// A network-address prefix match (`address/len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixMatch {
    /// The prefix value; bits beyond `len` are ignored.
    pub prefix: NwAddr,
    /// Prefix length in bits (0..=32).
    pub len: u8,
}

impl PrefixMatch {
    /// An exact host match (`/32`).
    pub fn exact(addr: NwAddr) -> Self {
        PrefixMatch {
            prefix: addr,
            len: 32,
        }
    }

    /// A prefix match.
    pub fn prefix(prefix: NwAddr, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be at most 32");
        PrefixMatch { prefix, len }
    }

    /// True if `addr` falls inside this prefix.
    pub fn matches(&self, addr: NwAddr) -> bool {
        addr.in_prefix(self.prefix, self.len)
    }

    /// True if every address matched by `other` is also matched by `self`.
    pub fn subsumes(&self, other: &PrefixMatch) -> bool {
        self.len <= other.len && other.prefix.in_prefix(self.prefix, self.len)
    }

    /// True if the two prefixes share at least one address.
    pub fn overlaps(&self, other: &PrefixMatch) -> bool {
        let len = self.len.min(other.len);
        self.prefix.in_prefix(other.prefix, len)
    }
}

impl fmt::Display for PrefixMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.prefix, self.len)
    }
}

/// An OpenFlow 1.0-style match pattern. `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MatchPattern {
    /// Switch input port.
    pub in_port: Option<PortId>,
    /// Ethernet source address.
    pub dl_src: Option<MacAddr>,
    /// Ethernet destination address.
    pub dl_dst: Option<MacAddr>,
    /// Ethernet frame type.
    pub dl_type: Option<EthType>,
    /// IPv4 source address (possibly a prefix).
    pub nw_src: Option<PrefixMatch>,
    /// IPv4 destination address (possibly a prefix).
    pub nw_dst: Option<PrefixMatch>,
    /// IP protocol.
    pub nw_proto: Option<IpProto>,
    /// Transport source port.
    pub tp_src: Option<u16>,
    /// Transport destination port.
    pub tp_dst: Option<u16>,
}

impl MatchPattern {
    /// The fully-wildcarded pattern that matches every packet.
    pub fn any() -> Self {
        MatchPattern::default()
    }

    /// An exact "microflow" match on every modelled header field of `pkt`
    /// arriving on `in_port`.
    pub fn microflow(pkt: &Packet, in_port: PortId) -> Self {
        MatchPattern {
            in_port: Some(in_port),
            dl_src: Some(pkt.src_mac),
            dl_dst: Some(pkt.dst_mac),
            dl_type: Some(pkt.eth_type),
            nw_src: Some(PrefixMatch::exact(pkt.src_ip)),
            nw_dst: Some(PrefixMatch::exact(pkt.dst_ip)),
            nw_proto: Some(pkt.nw_proto),
            tp_src: Some(pkt.src_port),
            tp_dst: Some(pkt.dst_port),
        }
    }

    /// The match pattern installed by the MAC-learning application
    /// (Figure 3, line 11): `DL_SRC`, `DL_DST`, `DL_TYPE` and `IN_PORT`.
    pub fn l2_flow(pkt: &Packet, in_port: PortId) -> Self {
        MatchPattern {
            in_port: Some(in_port),
            dl_src: Some(pkt.src_mac),
            dl_dst: Some(pkt.dst_mac),
            dl_type: Some(pkt.eth_type),
            ..MatchPattern::default()
        }
    }

    /// A destination-only layer-2 match (used to illustrate the NO-DELAY
    /// discussion in Section 4: learning applications that match only on the
    /// destination MAC hide new sources from the controller).
    pub fn l2_dst_only(dst: MacAddr) -> Self {
        MatchPattern {
            dl_dst: Some(dst),
            ..MatchPattern::default()
        }
    }

    /// A wildcard match on a source-IP prefix towards a given destination IP,
    /// the rule shape used by the load balancer of Section 8.2.
    pub fn ip_src_prefix(prefix: PrefixMatch, dst_ip: NwAddr) -> Self {
        MatchPattern {
            dl_type: Some(EthType::Ipv4),
            nw_src: Some(prefix),
            nw_dst: Some(PrefixMatch::exact(dst_ip)),
            ..MatchPattern::default()
        }
    }

    /// True if the pattern matches `pkt` arriving on `in_port`.
    pub fn matches(&self, pkt: &Packet, in_port: PortId) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(m) = self.dl_src {
            if m != pkt.src_mac {
                return false;
            }
        }
        if let Some(m) = self.dl_dst {
            if m != pkt.dst_mac {
                return false;
            }
        }
        if let Some(t) = self.dl_type {
            if t != pkt.eth_type {
                return false;
            }
        }
        if let Some(p) = self.nw_src {
            if !p.matches(pkt.src_ip) {
                return false;
            }
        }
        if let Some(p) = self.nw_dst {
            if !p.matches(pkt.dst_ip) {
                return false;
            }
        }
        if let Some(p) = self.nw_proto {
            if p != pkt.nw_proto {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if p != pkt.src_port {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if p != pkt.dst_port {
                return false;
            }
        }
        true
    }

    /// Number of non-wildcarded fields; used as a tiebreaker when ordering
    /// rules canonically (more specific patterns first).
    pub fn specificity(&self) -> u32 {
        let mut n = 0;
        n += self.in_port.is_some() as u32;
        n += self.dl_src.is_some() as u32;
        n += self.dl_dst.is_some() as u32;
        n += self.dl_type.is_some() as u32;
        n += self.nw_src.map_or(0, |p| 1 + p.len as u32);
        n += self.nw_dst.map_or(0, |p| 1 + p.len as u32);
        n += self.nw_proto.is_some() as u32;
        n += self.tp_src.is_some() as u32;
        n += self.tp_dst.is_some() as u32;
        n
    }

    /// True if this pattern is a full microflow (no wildcarded fields).
    pub fn is_exact(&self) -> bool {
        self.in_port.is_some()
            && self.dl_src.is_some()
            && self.dl_dst.is_some()
            && self.dl_type.is_some()
            && self.nw_src.is_some_and(|p| p.len == 32)
            && self.nw_dst.is_some_and(|p| p.len == 32)
            && self.nw_proto.is_some()
            && self.tp_src.is_some()
            && self.tp_dst.is_some()
    }

    /// Conservative overlap test: returns `true` when some packet could match
    /// both patterns. Used when deriving the canonical rule order (only the
    /// relative order of *overlapping* rules with equal priority matters).
    pub fn overlaps(&self, other: &MatchPattern) -> bool {
        fn both_eq<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
        }
        if !both_eq(self.in_port, other.in_port) {
            return false;
        }
        if !both_eq(self.dl_src, other.dl_src) {
            return false;
        }
        if !both_eq(self.dl_dst, other.dl_dst) {
            return false;
        }
        if !both_eq(self.dl_type, other.dl_type) {
            return false;
        }
        if let (Some(a), Some(b)) = (self.nw_src, other.nw_src) {
            if !a.overlaps(&b) {
                return false;
            }
        }
        if let (Some(a), Some(b)) = (self.nw_dst, other.nw_dst) {
            if !a.overlaps(&b) {
                return false;
            }
        }
        if !both_eq(self.nw_proto, other.nw_proto) {
            return false;
        }
        if !both_eq(self.tp_src, other.tp_src) {
            return false;
        }
        if !both_eq(self.tp_dst, other.tp_dst) {
            return false;
        }
        true
    }

    /// A total, deterministic ordering over patterns used to canonicalise the
    /// flow table. The specific order is irrelevant as long as it is stable.
    pub fn canonical_cmp(&self, other: &MatchPattern) -> Ordering {
        #[allow(clippy::type_complexity)]
        fn key_of(
            p: &MatchPattern,
        ) -> (
            Option<u16>,
            Option<u64>,
            Option<u64>,
            Option<u16>,
            Option<(u32, u8)>,
            Option<(u32, u8)>,
            Option<u8>,
            Option<u16>,
            Option<u16>,
        ) {
            (
                p.in_port.map(|v| v.0),
                p.dl_src.map(|v| v.0),
                p.dl_dst.map(|v| v.0),
                p.dl_type.map(|v| v.value()),
                p.nw_src.map(|v| (v.prefix.0, v.len)),
                p.nw_dst.map(|v| (v.prefix.0, v.len)),
                p.nw_proto.map(|v| v.value()),
                p.tp_src,
                p.tp_dst,
            )
        }
        key_of(self).cmp(&key_of(other))
    }
}

impl fmt::Display for MatchPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in_port={}", p));
        }
        if let Some(m) = self.dl_src {
            parts.push(format!("dl_src={}", m));
        }
        if let Some(m) = self.dl_dst {
            parts.push(format!("dl_dst={}", m));
        }
        if let Some(t) = self.dl_type {
            parts.push(format!("dl_type=0x{:04x}", t.value()));
        }
        if let Some(p) = self.nw_src {
            parts.push(format!("nw_src={}", p));
        }
        if let Some(p) = self.nw_dst {
            parts.push(format!("nw_dst={}", p));
        }
        if let Some(p) = self.nw_proto {
            parts.push(format!("nw_proto={}", p.value()));
        }
        if let Some(p) = self.tp_src {
            parts.push(format!("tp_src={}", p));
        }
        if let Some(p) = self.tp_dst {
            parts.push(format!("tp_dst={}", p));
        }
        if parts.is_empty() {
            write!(f, "*")
        } else {
            write!(f, "{}", parts.join(","))
        }
    }
}

impl Fingerprint for PrefixMatch {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.prefix.fingerprint(hasher);
        hasher.write_u8(self.len);
    }
}

impl Fingerprint for MatchPattern {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.in_port.fingerprint(hasher);
        self.dl_src.fingerprint(hasher);
        self.dl_dst.fingerprint(hasher);
        match self.dl_type {
            None => hasher.write_u8(0),
            Some(t) => {
                hasher.write_u8(1);
                hasher.write_u16(t.value());
            }
        }
        self.nw_src.fingerprint(hasher);
        self.nw_dst.fingerprint(hasher);
        match self.nw_proto {
            None => hasher.write_u8(0),
            Some(p) => {
                hasher.write_u8(1);
                hasher.write_u8(p.value());
            }
        }
        self.tp_src.fingerprint(hasher);
        self.tp_dst.fingerprint(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MacAddr, NwAddr, PortId};

    fn sample_packet() -> Packet {
        Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
            1000,
            80,
            crate::packet::TcpFlags::SYN,
            0,
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        let pkt = sample_packet();
        assert!(MatchPattern::any().matches(&pkt, PortId(1)));
        assert!(MatchPattern::any().matches(&pkt, PortId(99)));
    }

    #[test]
    fn microflow_matches_only_same_packet_and_port() {
        let pkt = sample_packet();
        let m = MatchPattern::microflow(&pkt, PortId(1));
        assert!(m.matches(&pkt, PortId(1)));
        assert!(!m.matches(&pkt, PortId(2)));
        let mut other = pkt;
        other.dst_port = 81;
        assert!(!m.matches(&other, PortId(1)));
        assert!(m.is_exact());
    }

    #[test]
    fn l2_flow_ignores_l3() {
        let pkt = sample_packet();
        let m = MatchPattern::l2_flow(&pkt, PortId(1));
        let mut other = pkt;
        other.dst_port = 8080;
        other.src_ip = NwAddr::for_host(77);
        assert!(m.matches(&other, PortId(1)));
        assert!(!m.is_exact());
    }

    #[test]
    fn prefix_match_behaviour() {
        let p = PrefixMatch::prefix(NwAddr::from_octets(10, 0, 0, 0), 24);
        assert!(p.matches(NwAddr::from_octets(10, 0, 0, 200)));
        assert!(!p.matches(NwAddr::from_octets(10, 0, 1, 1)));
        assert!(p.subsumes(&PrefixMatch::exact(NwAddr::from_octets(10, 0, 0, 9))));
        assert!(!PrefixMatch::exact(NwAddr::from_octets(10, 0, 0, 9)).subsumes(&p));
        assert!(p.overlaps(&PrefixMatch::prefix(NwAddr::from_octets(10, 0, 0, 128), 25)));
        assert!(!p.overlaps(&PrefixMatch::prefix(NwAddr::from_octets(10, 0, 1, 0), 24)));
    }

    #[test]
    fn ip_src_prefix_rule_matches_by_client_prefix() {
        let vip = NwAddr::from_octets(10, 0, 0, 100);
        let m = MatchPattern::ip_src_prefix(PrefixMatch::prefix(NwAddr(0x8000_0000), 1), vip);
        let mut pkt = sample_packet();
        pkt.dst_ip = vip;
        pkt.src_ip = NwAddr(0x9000_0000);
        assert!(m.matches(&pkt, PortId(1)));
        pkt.src_ip = NwAddr(0x1000_0000);
        assert!(!m.matches(&pkt, PortId(1)));
    }

    #[test]
    fn specificity_orders_wildcards_below_exact() {
        let pkt = sample_packet();
        let exact = MatchPattern::microflow(&pkt, PortId(1));
        let l2 = MatchPattern::l2_flow(&pkt, PortId(1));
        let any = MatchPattern::any();
        assert!(exact.specificity() > l2.specificity());
        assert!(l2.specificity() > any.specificity());
    }

    #[test]
    fn overlap_detection() {
        let pkt = sample_packet();
        let exact = MatchPattern::microflow(&pkt, PortId(1));
        let l2 = MatchPattern::l2_flow(&pkt, PortId(1));
        let any = MatchPattern::any();
        assert!(exact.overlaps(&l2));
        assert!(l2.overlaps(&exact));
        assert!(any.overlaps(&exact));
        let mut other = pkt;
        other.src_mac = MacAddr::for_host(9);
        let disjoint = MatchPattern::l2_flow(&other, PortId(1));
        assert!(!disjoint.overlaps(&exact));
    }

    #[test]
    fn canonical_cmp_is_total_and_antisymmetric() {
        let pkt = sample_packet();
        let a = MatchPattern::microflow(&pkt, PortId(1));
        let b = MatchPattern::l2_flow(&pkt, PortId(2));
        assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        if a.canonical_cmp(&b) == Ordering::Less {
            assert_eq!(b.canonical_cmp(&a), Ordering::Greater);
        } else {
            assert_eq!(b.canonical_cmp(&a), Ordering::Less);
        }
    }

    #[test]
    fn display_is_star_for_wildcard() {
        assert_eq!(MatchPattern::any().to_string(), "*");
        let pkt = sample_packet();
        let s = MatchPattern::l2_flow(&pkt, PortId(1)).to_string();
        assert!(s.contains("dl_src"));
        assert!(s.contains("in_port"));
    }
}
