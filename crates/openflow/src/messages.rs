//! OpenFlow protocol messages exchanged between switches and the controller.
//!
//! The channel with the controller offers reliable, in-order delivery
//! (Section 2.2.2); these messages are therefore plain values moved through
//! [`crate::channel::FifoChannel`]s — no TCP/SSL framing is modelled,
//! matching the paper's simplification.

use crate::flowtable::{FlowRule, Timeouts};
use crate::matchfields::MatchPattern;
use crate::packet::Packet;
use crate::stats::{FlowStatsEntry, PortStatsEntry};
use crate::switch::BufferId;
use crate::types::{PortId, SwitchId};
use crate::Action;
use std::fmt;

/// Why a switch handed a packet to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketInReason {
    /// No rule in the flow table matched the packet.
    NoMatch,
    /// A rule with an explicit `ToController` action matched.
    Action,
}

/// Flow-mod subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModCommand {
    /// Install (or replace) a rule.
    Add,
    /// Remove rules whose pattern exactly equals the given pattern/priority.
    DeleteStrict,
    /// Remove rules overlapping the given pattern.
    Delete,
}

/// The kind of statistics requested from a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatsKind {
    /// Per-port counters.
    Port,
    /// Per-rule counters.
    Flow,
}

/// An OpenFlow message. Controller-to-switch and switch-to-controller
/// messages share one enum because both travel over the same modelled
/// channel pair and appear in execution traces.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum OfMessage {
    /// Switch → controller: a packet arrived and was buffered for a decision.
    PacketIn {
        /// Switch that buffered the packet.
        switch: SwitchId,
        /// Port the packet arrived on.
        in_port: PortId,
        /// A copy of the packet (the paper sends the header; we carry the
        /// whole modelled packet, which is only headers plus a tag anyway).
        packet: Packet,
        /// Buffer slot where the original packet waits at the switch.
        buffer_id: BufferId,
        /// Why the packet was sent up.
        reason: PacketInReason,
    },
    /// Controller → switch: install or remove a rule.
    FlowMod {
        /// The subcommand.
        command: FlowModCommand,
        /// Pattern the command applies to.
        pattern: MatchPattern,
        /// Priority (for `Add` and `DeleteStrict`).
        priority: u16,
        /// Actions (for `Add`).
        actions: Vec<Action>,
        /// Timeouts (for `Add`).
        timeouts: Timeouts,
        /// Cookie recorded on the installed rule.
        cookie: u64,
    },
    /// Controller → switch: release (or inject) a packet with explicit
    /// actions.
    PacketOut {
        /// Buffered packet to release, if any.
        buffer_id: Option<BufferId>,
        /// Packet carried inline when no buffer is referenced.
        packet: Option<Packet>,
        /// The input port context used when the action list floods.
        in_port: PortId,
        /// Actions to apply.
        actions: Vec<Action>,
    },
    /// Controller → switch: request statistics.
    StatsRequest {
        /// Which statistics to report.
        kind: StatsKind,
        /// An opaque id echoed in the reply so the controller can correlate.
        request_id: u64,
    },
    /// Switch → controller: port statistics reply.
    PortStatsReply {
        /// Switch reporting.
        switch: SwitchId,
        /// Echoed request id.
        request_id: u64,
        /// One entry per port, in port order.
        entries: Vec<PortStatsEntry>,
    },
    /// Switch → controller: flow statistics reply.
    FlowStatsReply {
        /// Switch reporting.
        switch: SwitchId,
        /// Echoed request id.
        request_id: u64,
        /// One entry per rule, in canonical rule order.
        entries: Vec<FlowStatsEntry>,
    },
    /// Controller → switch: barrier request. The switch replies once every
    /// preceding message has been processed; BUG-IX's correct fix uses this.
    BarrierRequest {
        /// Opaque id echoed in the reply.
        request_id: u64,
    },
    /// Switch → controller: barrier reply.
    BarrierReply {
        /// Switch replying.
        switch: SwitchId,
        /// Echoed request id.
        request_id: u64,
    },
    /// Switch → controller: the switch joined the network (sent once when the
    /// control channel comes up).
    SwitchJoin {
        /// The joining switch.
        switch: SwitchId,
        /// The switch's ports.
        ports: Vec<PortId>,
    },
    /// Switch → controller: the switch left the network.
    SwitchLeave {
        /// The leaving switch.
        switch: SwitchId,
    },
    /// Switch → controller: a port changed state (link up/down).
    PortStatus {
        /// Switch reporting the change.
        switch: SwitchId,
        /// Port affected.
        port: PortId,
        /// True if the link is now up.
        link_up: bool,
    },
}

impl OfMessage {
    /// Convenience constructor for a rule installation.
    pub fn add_rule(rule: &FlowRule) -> Self {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            pattern: rule.pattern,
            priority: rule.priority,
            actions: rule.actions.clone(),
            timeouts: rule.timeouts,
            cookie: rule.cookie,
        }
    }

    /// A short tag naming the message type, used in traces and transition
    /// labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OfMessage::PacketIn { .. } => "packet_in",
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                ..
            } => "flow_mod_add",
            OfMessage::FlowMod {
                command: FlowModCommand::Delete,
                ..
            } => "flow_mod_del",
            OfMessage::FlowMod {
                command: FlowModCommand::DeleteStrict,
                ..
            } => "flow_mod_del_strict",
            OfMessage::PacketOut { .. } => "packet_out",
            OfMessage::StatsRequest { .. } => "stats_request",
            OfMessage::PortStatsReply { .. } => "port_stats_reply",
            OfMessage::FlowStatsReply { .. } => "flow_stats_reply",
            OfMessage::BarrierRequest { .. } => "barrier_request",
            OfMessage::BarrierReply { .. } => "barrier_reply",
            OfMessage::SwitchJoin { .. } => "switch_join",
            OfMessage::SwitchLeave { .. } => "switch_leave",
            OfMessage::PortStatus { .. } => "port_status",
        }
    }

    /// True for messages travelling from a switch to the controller.
    pub fn is_switch_to_controller(&self) -> bool {
        matches!(
            self,
            OfMessage::PacketIn { .. }
                | OfMessage::PortStatsReply { .. }
                | OfMessage::FlowStatsReply { .. }
                | OfMessage::BarrierReply { .. }
                | OfMessage::SwitchJoin { .. }
                | OfMessage::SwitchLeave { .. }
                | OfMessage::PortStatus { .. }
        )
    }
}

impl fmt::Display for OfMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfMessage::PacketIn {
                switch,
                in_port,
                packet,
                buffer_id,
                reason,
            } => write!(
                f,
                "packet_in(sw={switch}, port={in_port}, buf={}, reason={:?}, {packet})",
                buffer_id.0, reason
            ),
            OfMessage::FlowMod {
                command,
                pattern,
                priority,
                actions,
                ..
            } => {
                let acts: Vec<String> = actions.iter().map(|a| a.to_string()).collect();
                write!(
                    f,
                    "flow_mod({:?}, prio={priority}, match[{pattern}], actions[{}])",
                    command,
                    acts.join(",")
                )
            }
            OfMessage::PacketOut {
                buffer_id,
                packet,
                actions,
                ..
            } => {
                let acts: Vec<String> = actions.iter().map(|a| a.to_string()).collect();
                write!(
                    f,
                    "packet_out(buf={:?}, inline={}, actions[{}])",
                    buffer_id.map(|b| b.0),
                    packet.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                    acts.join(",")
                )
            }
            OfMessage::StatsRequest { kind, request_id } => {
                write!(f, "stats_request({kind:?}, id={request_id})")
            }
            OfMessage::PortStatsReply {
                switch,
                request_id,
                entries,
            } => {
                write!(
                    f,
                    "port_stats_reply(sw={switch}, id={request_id}, {} ports)",
                    entries.len()
                )
            }
            OfMessage::FlowStatsReply {
                switch,
                request_id,
                entries,
            } => {
                write!(
                    f,
                    "flow_stats_reply(sw={switch}, id={request_id}, {} rules)",
                    entries.len()
                )
            }
            OfMessage::BarrierRequest { request_id } => {
                write!(f, "barrier_request(id={request_id})")
            }
            OfMessage::BarrierReply { switch, request_id } => {
                write!(f, "barrier_reply(sw={switch}, id={request_id})")
            }
            OfMessage::SwitchJoin { switch, ports } => {
                write!(f, "switch_join(sw={switch}, {} ports)", ports.len())
            }
            OfMessage::SwitchLeave { switch } => write!(f, "switch_leave(sw={switch})"),
            OfMessage::PortStatus {
                switch,
                port,
                link_up,
            } => {
                write!(f, "port_status(sw={switch}, port={port}, up={link_up})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;
    use crate::types::MacAddr;

    fn packet_in() -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
            buffer_id: BufferId(5),
            reason: PacketInReason::NoMatch,
        }
    }

    #[test]
    fn kind_names_and_direction() {
        assert_eq!(packet_in().kind_name(), "packet_in");
        assert!(packet_in().is_switch_to_controller());
        let fm = OfMessage::FlowMod {
            command: FlowModCommand::Add,
            pattern: MatchPattern::any(),
            priority: 1,
            actions: vec![Action::Flood],
            timeouts: Timeouts::PERMANENT,
            cookie: 0,
        };
        assert_eq!(fm.kind_name(), "flow_mod_add");
        assert!(!fm.is_switch_to_controller());
        assert_eq!(
            OfMessage::BarrierRequest { request_id: 1 }.kind_name(),
            "barrier_request"
        );
    }

    #[test]
    fn add_rule_constructor_copies_rule_fields() {
        let rule = FlowRule::new(MatchPattern::any(), 7, vec![Action::Drop]).with_cookie(9);
        match OfMessage::add_rule(&rule) {
            OfMessage::FlowMod {
                command,
                priority,
                actions,
                cookie,
                ..
            } => {
                assert_eq!(command, FlowModCommand::Add);
                assert_eq!(priority, 7);
                assert_eq!(actions, vec![Action::Drop]);
                assert_eq!(cookie, 9);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn fingerprints_differ_between_message_kinds() {
        let a = packet_in();
        let b = OfMessage::BarrierRequest { request_id: 0 };
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn fingerprints_differ_by_reason() {
        let a = packet_in();
        let mut b = packet_in();
        if let OfMessage::PacketIn { reason, .. } = &mut b {
            *reason = PacketInReason::Action;
        }
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn display_is_informative() {
        assert!(packet_in().to_string().contains("packet_in"));
        let po = OfMessage::PacketOut {
            buffer_id: Some(BufferId(3)),
            packet: None,
            in_port: PortId(1),
            actions: vec![Action::Flood],
        };
        assert!(po.to_string().contains("flood"));
    }
}
