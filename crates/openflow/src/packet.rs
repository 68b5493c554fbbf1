//! The concrete packet model.
//!
//! A packet is the composition of the header fields that OpenFlow 1.0
//! switches can match on (Section 1.2 of the paper: source and destination
//! MAC addresses, IP addresses, transport ports and the switch input port),
//! plus the fields the evaluated applications inspect on the controller
//! (EtherType, ARP opcode, TCP flags). Payloads are abstracted to a small
//! integer tag, which is all the modelled end hosts need to correlate
//! requests and replies.

use crate::fingerprint::{Fingerprint, Hasher64};
use crate::types::{MacAddr, NwAddr};
use std::fmt;

/// Ethernet frame types used by the modelled applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EthType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// A "layer-2 ping" payload type used by the performance-evaluation
    /// workload of Section 7 (an arbitrary experimental EtherType).
    L2Ping,
    /// Any other EtherType, carried verbatim.
    Other(u16),
}

impl EthType {
    /// The numeric EtherType value.
    pub fn value(self) -> u16 {
        match self {
            EthType::Ipv4 => 0x0800,
            EthType::Arp => 0x0806,
            EthType::L2Ping => 0x88b5,
            EthType::Other(v) => v,
        }
    }

    /// Builds an [`EthType`] from its numeric value.
    pub fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EthType::Ipv4,
            0x0806 => EthType::Arp,
            0x88b5 => EthType::L2Ping,
            other => EthType::Other(other),
        }
    }
}

/// IP protocol numbers used by the modelled applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1).
    Icmp,
    /// Any other protocol, carried verbatim.
    Other(u8),
}

impl IpProto {
    /// The numeric protocol number.
    pub fn value(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Icmp => 1,
            IpProto::Other(v) => v,
        }
    }

    /// Builds an [`IpProto`] from its numeric value.
    pub fn from_value(v: u8) -> Self {
        match v {
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            1 => IpProto::Icmp,
            other => IpProto::Other(other),
        }
    }
}

/// TCP flag bits (only the ones the evaluated applications look at).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// The SYN bit.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// The ACK bit.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// The FIN bit.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);

    /// True if the SYN bit is set.
    pub fn is_syn(self) -> bool {
        self.0 & Self::SYN.0 != 0
    }

    /// True if the ACK bit is set.
    pub fn is_ack(self) -> bool {
        self.0 & Self::ACK.0 != 0
    }

    /// True if the FIN bit is set.
    pub fn is_fin(self) -> bool {
        self.0 & Self::FIN.0 != 0
    }

    /// Combines two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

/// A unique identifier for each packet *injected* into the network.
///
/// Copies created by flooding keep the id of the original packet, so
/// correctness properties (for instance `NoBlackHoles`) can account for every
/// copy derived from a single injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// A concrete network packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packet {
    /// Provenance identifier (stable across copies made by the network).
    pub id: PacketId,
    /// Source MAC address.
    pub src_mac: MacAddr,
    /// Destination MAC address.
    pub dst_mac: MacAddr,
    /// Ethernet frame type.
    pub eth_type: EthType,
    /// IPv4 source address (meaningful when `eth_type` is IPv4/ARP).
    pub src_ip: NwAddr,
    /// IPv4 destination address (meaningful when `eth_type` is IPv4/ARP).
    pub dst_ip: NwAddr,
    /// IP protocol.
    pub nw_proto: IpProto,
    /// Transport-layer source port.
    pub src_port: u16,
    /// Transport-layer destination port.
    pub dst_port: u16,
    /// TCP flags.
    pub tcp_flags: TcpFlags,
    /// ARP opcode: 1 = request, 2 = reply, 0 = not ARP.
    pub arp_op: u8,
    /// Abstract payload tag (e.g. a sequence number used by the modelled
    /// end hosts to pair pings and replies).
    pub payload: u32,
}

impl Packet {
    /// Creates a minimal "layer-2 ping" packet between two MAC addresses, the
    /// workload the paper uses for its performance evaluation (Section 7).
    pub fn l2_ping(id: u64, src_mac: MacAddr, dst_mac: MacAddr, payload: u32) -> Self {
        Packet {
            id: PacketId(id),
            src_mac,
            dst_mac,
            eth_type: EthType::L2Ping,
            src_ip: NwAddr(0),
            dst_ip: NwAddr(0),
            nw_proto: IpProto::Other(0),
            src_port: 0,
            dst_port: 0,
            tcp_flags: TcpFlags::default(),
            arp_op: 0,
            payload,
        }
    }

    /// Creates a TCP packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        id: u64,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: NwAddr,
        dst_ip: NwAddr,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        payload: u32,
    ) -> Self {
        Packet {
            id: PacketId(id),
            src_mac,
            dst_mac,
            eth_type: EthType::Ipv4,
            src_ip,
            dst_ip,
            nw_proto: IpProto::Tcp,
            src_port,
            dst_port,
            tcp_flags: flags,
            arp_op: 0,
            payload,
        }
    }

    /// Creates an ARP request asking "who has `target_ip`".
    pub fn arp_request(id: u64, src_mac: MacAddr, src_ip: NwAddr, target_ip: NwAddr) -> Self {
        Packet {
            id: PacketId(id),
            src_mac,
            dst_mac: MacAddr::BROADCAST,
            eth_type: EthType::Arp,
            src_ip,
            dst_ip: target_ip,
            nw_proto: IpProto::Other(0),
            src_port: 0,
            dst_port: 0,
            tcp_flags: TcpFlags::default(),
            arp_op: 1,
            payload: 0,
        }
    }

    /// Creates an ARP reply answering an [`Packet::arp_request`].
    pub fn arp_reply(
        id: u64,
        src_mac: MacAddr,
        src_ip: NwAddr,
        dst_mac: MacAddr,
        dst_ip: NwAddr,
    ) -> Self {
        Packet {
            id: PacketId(id),
            src_mac,
            dst_mac,
            eth_type: EthType::Arp,
            src_ip,
            dst_ip,
            nw_proto: IpProto::Other(0),
            src_port: 0,
            dst_port: 0,
            tcp_flags: TcpFlags::default(),
            arp_op: 2,
            payload: 0,
        }
    }

    /// Returns a copy of the packet that swaps source and destination
    /// addressing at every layer — the shape of a reply generated by the
    /// modelled server/echo hosts.
    pub fn reply_template(&self, new_id: u64) -> Packet {
        Packet {
            id: PacketId(new_id),
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            eth_type: self.eth_type,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            nw_proto: self.nw_proto,
            src_port: self.dst_port,
            dst_port: self.src_port,
            tcp_flags: self.tcp_flags,
            arp_op: self.arp_op,
            payload: self.payload,
        }
    }

    /// True if this is an ARP packet.
    pub fn is_arp(&self) -> bool {
        self.eth_type == EthType::Arp
    }

    /// True if this is a TCP/IPv4 packet.
    pub fn is_tcp(&self) -> bool {
        self.eth_type == EthType::Ipv4 && self.nw_proto == IpProto::Tcp
    }

    /// The abstract "size" of the packet in bytes, used for byte counters.
    /// Header-only packets count 64 bytes plus the abstract payload size.
    pub fn byte_size(&self) -> u64 {
        64 + (self.payload as u64 & 0xff)
    }

    /// A short human-readable description used in execution traces.
    pub fn describe(&self) -> String {
        match self.eth_type {
            EthType::Arp => format!(
                "ARP[{}] {}->{} ({}->{})",
                if self.arp_op == 1 { "req" } else { "rep" },
                self.src_mac,
                self.dst_mac,
                self.src_ip,
                self.dst_ip
            ),
            EthType::Ipv4 => format!(
                "IP {}->{} {}:{}->{}:{}{}",
                self.src_mac,
                self.dst_mac,
                self.src_ip,
                self.src_port,
                self.dst_ip,
                self.dst_port,
                if self.tcp_flags.is_syn() { " SYN" } else { "" }
            ),
            _ => format!(
                "L2 {}->{} type=0x{:04x} payload={}",
                self.src_mac,
                self.dst_mac,
                self.eth_type.value(),
                self.payload
            ),
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{} {}", self.id.0, self.describe())
    }
}

impl Fingerprint for EthType {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u16(self.value());
    }
}

impl Fingerprint for IpProto {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u8(self.value());
    }
}

impl Fingerprint for TcpFlags {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u8(self.0);
    }
}

impl Fingerprint for PacketId {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u64(self.0);
    }
}

impl Fingerprint for Packet {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        // The provenance id is deliberately left out: it is bookkeeping for
        // correctness properties, not part of the semantic network state.
        // Including it would make interleavings that produce identical
        // network contents hash differently, artificially inflating the
        // explored state count.
        self.src_mac.fingerprint(hasher);
        self.dst_mac.fingerprint(hasher);
        self.eth_type.fingerprint(hasher);
        self.src_ip.fingerprint(hasher);
        self.dst_ip.fingerprint(hasher);
        self.nw_proto.fingerprint(hasher);
        hasher.write_u16(self.src_port);
        hasher.write_u16(self.dst_port);
        self.tcp_flags.fingerprint(hasher);
        hasher.write_u8(self.arp_op);
        hasher.write_u32(self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;

    #[test]
    fn eth_type_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x88b5, 0x1234] {
            assert_eq!(EthType::from_value(v).value(), v);
        }
    }

    #[test]
    fn ip_proto_roundtrip() {
        for v in [6u8, 17, 1, 99] {
            assert_eq!(IpProto::from_value(v).value(), v);
        }
    }

    #[test]
    fn tcp_flag_queries() {
        assert!(TcpFlags::SYN.is_syn());
        assert!(!TcpFlags::SYN.is_ack());
        assert!(TcpFlags::SYN_ACK.is_syn());
        assert!(TcpFlags::SYN_ACK.is_ack());
        assert!(TcpFlags::FIN.is_fin());
        assert!(TcpFlags::SYN.union(TcpFlags::ACK).is_ack());
    }

    #[test]
    fn l2_ping_has_unicast_macs_by_construction() {
        let p = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 7);
        assert!(!p.src_mac.is_group());
        assert!(!p.dst_mac.is_group());
        assert_eq!(p.payload, 7);
        assert_eq!(p.eth_type, EthType::L2Ping);
    }

    #[test]
    fn reply_template_swaps_addressing() {
        let p = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
            1234,
            80,
            TcpFlags::SYN,
            0,
        );
        let r = p.reply_template(2);
        assert_eq!(r.src_mac, p.dst_mac);
        assert_eq!(r.dst_mac, p.src_mac);
        assert_eq!(r.src_ip, p.dst_ip);
        assert_eq!(r.dst_ip, p.src_ip);
        assert_eq!(r.src_port, p.dst_port);
        assert_eq!(r.dst_port, p.src_port);
        assert_eq!(r.id, PacketId(2));
    }

    #[test]
    fn arp_request_is_broadcast() {
        let p = Packet::arp_request(
            3,
            MacAddr::for_host(1),
            NwAddr::for_host(1),
            NwAddr::for_host(9),
        );
        assert!(p.dst_mac.is_broadcast());
        assert!(p.is_arp());
        assert_eq!(p.arp_op, 1);
    }

    #[test]
    fn arp_reply_targets_requester() {
        let p = Packet::arp_reply(
            4,
            MacAddr::for_host(9),
            NwAddr::for_host(9),
            MacAddr::for_host(1),
            NwAddr::for_host(1),
        );
        assert_eq!(p.dst_mac, MacAddr::for_host(1));
        assert_eq!(p.arp_op, 2);
    }

    #[test]
    fn fingerprint_distinguishes_fields() {
        let a = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let mut b = a;
        b.payload = 1;
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
        let mut c = a;
        c.dst_mac = MacAddr::for_host(3);
        assert_ne!(fingerprint_of(&a), fingerprint_of(&c));
        assert_eq!(fingerprint_of(&a), fingerprint_of(&a.clone()));
    }

    #[test]
    fn fingerprint_ignores_provenance_id() {
        let a = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let mut b = a;
        b.id = PacketId(999);
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn byte_size_is_positive_and_payload_sensitive() {
        let a = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let b = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 10);
        assert!(a.byte_size() >= 64);
        assert!(b.byte_size() > a.byte_size());
    }

    #[test]
    fn describe_mentions_protocol() {
        let syn = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
            1234,
            80,
            TcpFlags::SYN,
            0,
        );
        assert!(syn.describe().contains("SYN"));
        let arp = Packet::arp_request(
            2,
            MacAddr::for_host(1),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
        );
        assert!(arp.describe().contains("ARP"));
    }
}
