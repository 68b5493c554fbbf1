//! Fundamental identifier and address types shared by the whole system model.

use crate::fingerprint::{Fingerprint, Hasher64};
use std::fmt;

/// Identifier of an OpenFlow switch (datapath id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

/// Identifier of an end host in the modelled topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// A switch port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

/// The pseudo output port meaning "flood out of every port except the input
/// port" (OFPP_FLOOD in the OpenFlow specification).
pub const FLOOD_PORT: PortId = PortId(0xfffb);

/// The pseudo output port meaning "send to the controller"
/// (OFPP_CONTROLLER in the OpenFlow specification).
pub const OFPP_CONTROLLER: PortId = PortId(0xfffd);

/// A 48-bit Ethernet MAC address stored in the low bits of a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub u64);

/// A 32-bit IPv4 network address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NwAddr(pub u32);

impl SwitchId {
    /// Returns the numeric value of the datapath id.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl HostId {
    /// Returns the numeric value of the host id.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl PortId {
    /// Returns the numeric port number.
    pub fn value(self) -> u16 {
        self.0
    }
}

impl MacAddr {
    /// The Ethernet broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr(0xffff_ffff_ffff);

    /// Builds a MAC address from six octets.
    pub fn from_octets(o: [u8; 6]) -> Self {
        let mut v: u64 = 0;
        for b in o {
            v = (v << 8) | b as u64;
        }
        MacAddr(v)
    }

    /// Returns the six octets of the address, most significant first.
    pub fn octets(self) -> [u8; 6] {
        let v = self.0;
        [
            ((v >> 40) & 0xff) as u8,
            ((v >> 32) & 0xff) as u8,
            ((v >> 24) & 0xff) as u8,
            ((v >> 16) & 0xff) as u8,
            ((v >> 8) & 0xff) as u8,
            (v & 0xff) as u8,
        ]
    }

    /// Returns the first (most significant) octet; the pyswitch pseudo-code
    /// tests `pkt.src[0] & 1` to detect group (broadcast/multicast)
    /// addresses.
    pub fn first_octet(self) -> u8 {
        self.octets()[0]
    }

    /// True if the group bit (least-significant bit of the first octet) is
    /// set, i.e. the address is a broadcast or multicast address.
    pub fn is_group(self) -> bool {
        self.first_octet() & 1 == 1
    }

    /// True if this is exactly the all-ones broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// A compact deterministic MAC for the `n`-th modelled host:
    /// `02:00:00:00:00:<n>` (locally administered, unicast).
    pub fn for_host(n: u32) -> Self {
        MacAddr(0x0200_0000_0000 | n as u64)
    }

    /// Returns the raw 48-bit value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl NwAddr {
    /// Builds an address from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        NwAddr(u32::from_be_bytes([a, b, c, d]))
    }

    /// A deterministic address for the `n`-th modelled host: `10.0.0.<n>`.
    pub fn for_host(n: u32) -> Self {
        NwAddr(0x0a00_0000 | (n & 0xff))
    }

    /// Returns the raw 32-bit value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// True if `self` falls inside the prefix `prefix/len`.
    pub fn in_prefix(self, prefix: NwAddr, len: u8) -> bool {
        if len == 0 {
            return true;
        }
        if len >= 32 {
            return self == prefix;
        }
        let mask = u32::MAX << (32 - len);
        (self.0 & mask) == (prefix.0 & mask)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FLOOD_PORT {
            write!(f, "FLOOD")
        } else if *self == OFPP_CONTROLLER {
            write!(f, "CONTROLLER")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Display for NwAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

macro_rules! impl_fingerprint_newtype {
    ($ty:ty, $write:ident) => {
        impl Fingerprint for $ty {
            fn fingerprint(&self, hasher: &mut Hasher64) {
                hasher.$write(self.0);
            }
        }
    };
}

impl_fingerprint_newtype!(SwitchId, write_u32);
impl_fingerprint_newtype!(HostId, write_u32);
impl_fingerprint_newtype!(PortId, write_u16);
impl_fingerprint_newtype!(MacAddr, write_u64);
impl_fingerprint_newtype!(NwAddr, write_u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_octet_roundtrip() {
        let mac = MacAddr::from_octets([0x02, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert_eq!(mac.octets(), [0x02, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert_eq!(mac.first_octet(), 0x02);
        assert!(!mac.is_group());
    }

    #[test]
    fn broadcast_is_group() {
        assert!(MacAddr::BROADCAST.is_group());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(MacAddr::BROADCAST.first_octet(), 0xff);
    }

    #[test]
    fn host_mac_is_unicast_and_unique() {
        let a = MacAddr::for_host(1);
        let b = MacAddr::for_host(2);
        assert_ne!(a, b);
        assert!(!a.is_group());
        assert!(!b.is_group());
    }

    #[test]
    fn nw_addr_display_and_prefix() {
        let a = NwAddr::from_octets(10, 0, 0, 7);
        assert_eq!(a.to_string(), "10.0.0.7");
        assert!(a.in_prefix(NwAddr::from_octets(10, 0, 0, 0), 24));
        assert!(a.in_prefix(NwAddr::from_octets(10, 0, 0, 0), 8));
        assert!(!a.in_prefix(NwAddr::from_octets(192, 168, 0, 0), 16));
        assert!(a.in_prefix(NwAddr::from_octets(0, 0, 0, 0), 0));
        assert!(a.in_prefix(a, 32));
        assert!(!NwAddr::from_octets(10, 0, 0, 8).in_prefix(a, 32));
    }

    #[test]
    fn prefix_halves_split_address_space() {
        // The load balancer splits clients on the top bit of the address.
        let low = NwAddr(0x3fff_ffff);
        let high = NwAddr(0xc000_0000);
        let zero = NwAddr(0);
        assert!(low.in_prefix(zero, 1));
        assert!(!high.in_prefix(zero, 1));
        assert!(high.in_prefix(NwAddr(0x8000_0000), 1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId(3).to_string(), "s3");
        assert_eq!(HostId(2).to_string(), "h2");
        assert_eq!(PortId(9).to_string(), "p9");
        assert_eq!(FLOOD_PORT.to_string(), "FLOOD");
        assert_eq!(OFPP_CONTROLLER.to_string(), "CONTROLLER");
        assert_eq!(
            MacAddr::for_host(5).to_string(),
            "02:00:00:00:00:05".to_string()
        );
    }

    #[test]
    fn fingerprints_differ_by_value() {
        use crate::fingerprint::fingerprint_of;
        assert_ne!(fingerprint_of(&SwitchId(1)), fingerprint_of(&SwitchId(2)));
        assert_ne!(fingerprint_of(&MacAddr(1)), fingerprint_of(&MacAddr(2)));
    }
}
