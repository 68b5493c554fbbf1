//! Actions attached to flow rules and `packet_out` messages, and the
//! forwarding decisions produced when a switch applies them.

use crate::fingerprint::{Fingerprint, Hasher64};
use crate::packet::Packet;
use crate::types::PortId;
use std::fmt;

/// An OpenFlow action.
///
/// Only the actions used by the paper's applications are modelled; adding
/// more (header rewriting, enqueue, ...) only requires extending this enum
/// and [`crate::switch::Switch::apply_actions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Forward the packet out of the given port.
    Output(PortId),
    /// Forward the packet out of every port except the one it arrived on.
    Flood,
    /// Drop the packet.
    Drop,
    /// Send the packet to the controller as a `packet_in` message.
    ToController,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{}", p),
            Action::Flood => write!(f, "flood"),
            Action::Drop => write!(f, "drop"),
            Action::ToController => write!(f, "controller"),
        }
    }
}

impl Fingerprint for Action {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        match self {
            Action::Output(p) => {
                hasher.write_u8(0);
                p.fingerprint(hasher);
            }
            Action::Flood => hasher.write_u8(1),
            Action::Drop => hasher.write_u8(2),
            Action::ToController => hasher.write_u8(3),
        }
    }
}

/// The outcome of a switch processing one packet: where copies of the packet
/// must now be delivered. The model checker turns these into channel
/// enqueue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardingDecision {
    /// Deliver `packet` out of local port `port`.
    Forward {
        /// Output port.
        port: PortId,
        /// The packet copy to deliver.
        packet: Packet,
    },
    /// Deliver a copy of `packet` out of every port except `in_port`.
    FloodExcept {
        /// The port the packet arrived on (no copy is sent back out of it).
        in_port: PortId,
        /// The packet to copy.
        packet: Packet,
    },
    /// The packet was handed to the controller as a `packet_in`; it now sits
    /// in the switch buffer under `buffer_id`.
    SentToController {
        /// Buffer slot holding the packet at the switch.
        buffer_id: crate::switch::BufferId,
        /// The buffered packet.
        packet: Packet,
        /// Why the packet went to the controller.
        reason: crate::messages::PacketInReason,
    },
    /// The packet was dropped (explicit drop rule or empty action list).
    Dropped {
        /// The dropped packet.
        packet: Packet,
    },
}

impl ForwardingDecision {
    /// The packet this decision concerns.
    pub fn packet(&self) -> &Packet {
        match self {
            ForwardingDecision::Forward { packet, .. }
            | ForwardingDecision::FloodExcept { packet, .. }
            | ForwardingDecision::SentToController { packet, .. }
            | ForwardingDecision::Dropped { packet } => packet,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;
    use crate::types::MacAddr;

    #[test]
    fn display_forms() {
        assert_eq!(Action::Output(PortId(3)).to_string(), "output:p3");
        assert_eq!(Action::Flood.to_string(), "flood");
        assert_eq!(Action::Drop.to_string(), "drop");
        assert_eq!(Action::ToController.to_string(), "controller");
    }

    #[test]
    fn fingerprints_distinguish_variants() {
        let variants = [
            Action::Output(PortId(1)),
            Action::Output(PortId(2)),
            Action::Flood,
            Action::Drop,
            Action::ToController,
        ];
        for (i, a) in variants.iter().enumerate() {
            for (j, b) in variants.iter().enumerate() {
                if i != j {
                    assert_ne!(fingerprint_of(a), fingerprint_of(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn decision_packet_accessor() {
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let d = ForwardingDecision::Forward {
            port: PortId(1),
            packet: pkt,
        };
        assert_eq!(d.packet().id, pkt.id);
        let d = ForwardingDecision::Dropped { packet: pkt };
        assert_eq!(d.packet().id, pkt.id);
    }
}
