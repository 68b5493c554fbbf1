//! Traffic statistics reported by switches.
//!
//! The energy-efficient traffic-engineering application of Section 8.3 learns
//! link utilisation by querying switches for port statistics; the statistics
//! handler is also a symbolic-execution target (`discover_stats` in Figure 5),
//! so the values carried here are plain integers that can be marked symbolic
//! by the `nice-sym` crate.

use crate::fingerprint::{Fingerprint, Hasher64};
use crate::types::PortId;

/// Per-port transmit/receive counters, the payload of a port-stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortStatsEntry {
    /// Port the counters belong to.
    pub port: PortId,
    /// Packets received on the port.
    pub rx_packets: u64,
    /// Packets transmitted out of the port.
    pub tx_packets: u64,
    /// Bytes received on the port.
    pub rx_bytes: u64,
    /// Bytes transmitted out of the port.
    pub tx_bytes: u64,
}

impl Default for PortStatsEntry {
    fn default() -> Self {
        Self::zero(PortId(0))
    }
}

impl PortStatsEntry {
    /// Creates an entry with all counters zero.
    pub fn zero(port: PortId) -> Self {
        PortStatsEntry {
            port,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        }
    }

    /// Total bytes in either direction, the quantity the TE application uses
    /// as its utilisation signal.
    pub fn total_bytes(&self) -> u64 {
        self.rx_bytes + self.tx_bytes
    }
}

/// Per-rule counters, the payload of a flow-stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct FlowStatsEntry {
    /// Index of the rule in the canonical flow-table order.
    pub rule_index: usize,
    /// Packets that matched the rule.
    pub packets: u64,
    /// Bytes that matched the rule.
    pub bytes: u64,
}

impl Fingerprint for PortStatsEntry {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.port.fingerprint(hasher);
        hasher.write_u64(self.rx_packets);
        hasher.write_u64(self.tx_packets);
        hasher.write_u64(self.rx_bytes);
        hasher.write_u64(self.tx_bytes);
    }
}

impl Fingerprint for FlowStatsEntry {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.rule_index);
        hasher.write_u64(self.packets);
        hasher.write_u64(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;

    #[test]
    fn zero_entry_has_no_traffic() {
        let e = PortStatsEntry::zero(PortId(1));
        assert_eq!(e.total_bytes(), 0);
        assert_eq!(e.port, PortId(1));
    }

    #[test]
    fn total_bytes_sums_both_directions() {
        let e = PortStatsEntry {
            port: PortId(1),
            rx_bytes: 10,
            tx_bytes: 32,
            ..Default::default()
        };
        assert_eq!(e.total_bytes(), 42);
    }

    #[test]
    fn fingerprints_differ_by_counters() {
        let a = PortStatsEntry::zero(PortId(1));
        let mut b = a;
        b.rx_packets = 1;
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
        let fa = FlowStatsEntry {
            rule_index: 0,
            packets: 1,
            bytes: 64,
        };
        let fb = FlowStatsEntry {
            rule_index: 0,
            packets: 2,
            bytes: 128,
        };
        assert_ne!(fingerprint_of(&fa), fingerprint_of(&fb));
    }
}
