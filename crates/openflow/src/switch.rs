//! The simplified OpenFlow switch model (Section 2.2.2).
//!
//! A switch is a flow table, a packet buffer for packets awaiting a
//! controller decision, and per-port counters. It exposes exactly two kinds
//! of processing: handling a data packet ([`Switch::process_packet`], the
//! `process_pkt` transition) and handling an OpenFlow message
//! ([`Switch::apply_of_message`], the `process_of` transition). The channels
//! that feed these transitions live in the model-checker state, not here, so
//! the switch itself is a pure deterministic state machine — given the same
//! inputs it always produces the same outputs, which is what makes replay-
//! based state restoration possible.

use crate::action::{Action, ForwardingDecision};
use crate::fingerprint::{Fingerprint, Fnv64};
use crate::flowtable::{FlowRule, FlowTable, TableLookup};
use crate::messages::{FlowModCommand, OfMessage, PacketInReason, StatsKind};
use crate::packet::Packet;
use crate::stats::PortStatsEntry;
use crate::types::{PortId, SwitchId};
use std::collections::BTreeMap;

/// Identifies a packet buffered at a switch while the controller decides what
/// to do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

/// A packet parked in the switch buffer together with its arrival port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedPacket {
    /// The buffered packet.
    pub packet: Packet,
    /// The port it arrived on.
    pub in_port: PortId,
}

/// Static switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Enable the canonical flow-table representation (Section 2.2.2).
    /// Disabling it reproduces the NO-SWITCH-REDUCTION baseline.
    pub canonical_flow_table: bool,
    /// Maximum number of packets the switch can buffer while awaiting
    /// controller instructions. When the buffer is full further no-match
    /// packets are dropped, which is how the "forgotten packets eventually
    /// exhaust the buffer" failure mode of BUG-IV manifests.
    pub buffer_capacity: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            canonical_flow_table: true,
            buffer_capacity: 64,
        }
    }
}

/// Everything produced by one switch transition: messages destined for the
/// controller and data-plane forwarding decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwitchOutput {
    /// OpenFlow messages to enqueue on the switch→controller channel.
    pub to_controller: Vec<OfMessage>,
    /// Packets to deliver on the data plane.
    pub decisions: Vec<ForwardingDecision>,
}

impl SwitchOutput {
    fn merge(&mut self, other: SwitchOutput) {
        self.to_controller.extend(other.to_controller);
        self.decisions.extend(other.decisions);
    }
}

/// The state of one modelled OpenFlow switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Datapath identifier.
    pub id: SwitchId,
    /// The switch's ports, in ascending order.
    pub ports: Vec<PortId>,
    /// The flow table.
    pub flow_table: FlowTable,
    /// Packets awaiting a controller decision, keyed by buffer id.
    buffered: BTreeMap<u64, BufferedPacket>,
    /// Per-port statistics.
    port_stats: BTreeMap<PortId, PortStatsEntry>,
    /// Next buffer id to allocate.
    next_buffer_id: u64,
    /// Count of packets dropped because the buffer was full.
    pub buffer_overflow_drops: u64,
    /// Configuration.
    config: SwitchConfig,
}

impl Switch {
    /// Creates a switch with the given ports and default configuration.
    pub fn new(id: SwitchId, ports: Vec<PortId>) -> Self {
        Self::with_config(id, ports, SwitchConfig::default())
    }

    /// Creates a switch with an explicit configuration.
    pub fn with_config(id: SwitchId, mut ports: Vec<PortId>, config: SwitchConfig) -> Self {
        ports.sort();
        ports.dedup();
        let flow_table = if config.canonical_flow_table {
            FlowTable::new()
        } else {
            FlowTable::new_without_reduction()
        };
        let port_stats = ports
            .iter()
            .map(|&p| (p, PortStatsEntry::zero(p)))
            .collect();
        Switch {
            id,
            ports,
            flow_table,
            buffered: BTreeMap::new(),
            port_stats,
            next_buffer_id: 1,
            buffer_overflow_drops: 0,
            config,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> SwitchConfig {
        self.config
    }

    /// The `switch_join` message this switch announces itself with.
    pub fn join_message(&self) -> OfMessage {
        OfMessage::SwitchJoin {
            switch: self.id,
            ports: self.ports.clone(),
        }
    }

    /// Number of packets currently parked in the buffer.
    pub fn buffered_count(&self) -> usize {
        self.buffered.len()
    }

    /// Iterates over buffered packets in buffer-id order.
    pub fn buffered_packets(&self) -> impl Iterator<Item = (BufferId, &BufferedPacket)> {
        self.buffered.iter().map(|(&id, bp)| (BufferId(id), bp))
    }

    /// Returns the buffered packet stored under `id`, if any.
    pub fn buffered_packet(&self, id: BufferId) -> Option<&BufferedPacket> {
        self.buffered.get(&id.0)
    }

    /// Per-port statistics in port order.
    pub fn port_stats(&self) -> Vec<PortStatsEntry> {
        self.port_stats.values().copied().collect()
    }

    /// Predicts, without mutating or allocating anything, what
    /// [`Switch::process_packet`] would do with `packet` arriving on
    /// `in_port` in the switch's current state: `emit` is called with every
    /// port the packet would be emitted on (a flood expanded over the
    /// switch's ports; a port named by two actions is visited twice), and
    /// the result says whether a message would be sent to the controller.
    ///
    /// Used by the model checker's partial-order reduction to compute
    /// transition footprints, so it must stay in lock step with
    /// [`Switch::process_packet`] / [`Switch::apply_actions`]. It may
    /// over-approximate (e.g. it reports the controller even when the
    /// buffer is full and the packet would actually be dropped) but must
    /// never under-approximate the set of components the real execution can
    /// touch.
    pub fn predict_packet_fate(
        &self,
        packet: &Packet,
        in_port: PortId,
        emit: impl FnMut(PortId),
    ) -> bool {
        match self.flow_table.matching_actions(packet, in_port) {
            Some(actions) => self.predict_actions_fate(actions, in_port, emit),
            None => true,
        }
    }

    /// Predicts the fate of applying an explicit action list (the
    /// `packet_out` path) — see [`Switch::predict_packet_fate`].
    pub fn predict_actions_fate(
        &self,
        actions: &[Action],
        in_port: PortId,
        mut emit: impl FnMut(PortId),
    ) -> bool {
        let mut to_controller = false;
        for action in actions {
            match action {
                Action::Output(port) => emit(*port),
                Action::Flood => (self.ports.iter())
                    .filter(|&&port| port != in_port)
                    .for_each(|&port| emit(port)),
                Action::Drop => {}
                Action::ToController => to_controller = true,
            }
        }
        to_controller
    }

    /// Processes one data packet arriving on `in_port` — the `process_pkt`
    /// transition of the simplified switch model.
    pub fn process_packet(&mut self, packet: Packet, in_port: PortId) -> SwitchOutput {
        self.count_rx(in_port, &packet);
        match self.flow_table.process(&packet, in_port) {
            TableLookup::Match { actions, .. } => self.apply_actions(&packet, in_port, &actions),
            TableLookup::Miss => {
                // No rule matched: buffer the packet and ask the controller.
                self.send_to_controller(packet, in_port, PacketInReason::NoMatch)
            }
        }
    }

    /// Applies an explicit action list to a packet (used both for matched
    /// rules and for `packet_out` messages).
    pub fn apply_actions(
        &mut self,
        packet: &Packet,
        in_port: PortId,
        actions: &[Action],
    ) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        if actions.is_empty() {
            out.decisions
                .push(ForwardingDecision::Dropped { packet: *packet });
            return out;
        }
        for action in actions {
            match action {
                Action::Output(port) => {
                    self.count_tx(*port, packet);
                    out.decisions.push(ForwardingDecision::Forward {
                        port: *port,
                        packet: *packet,
                    });
                }
                Action::Flood => {
                    let ports: Vec<PortId> = self.ports.clone();
                    for port in ports {
                        if port != in_port {
                            self.count_tx(port, packet);
                        }
                    }
                    out.decisions.push(ForwardingDecision::FloodExcept {
                        in_port,
                        packet: *packet,
                    });
                }
                Action::Drop => {
                    out.decisions
                        .push(ForwardingDecision::Dropped { packet: *packet });
                }
                Action::ToController => {
                    out.merge(self.send_to_controller(*packet, in_port, PacketInReason::Action));
                }
            }
        }
        out
    }

    /// Processes one OpenFlow message from the controller — the `process_of`
    /// transition of the simplified switch model.
    pub fn apply_of_message(&mut self, msg: OfMessage) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        match msg {
            OfMessage::FlowMod {
                command,
                pattern,
                priority,
                actions,
                timeouts,
                cookie,
            } => match command {
                FlowModCommand::Add => {
                    let rule = FlowRule::new(pattern, priority, actions)
                        .with_timeouts(timeouts)
                        .with_cookie(cookie);
                    self.flow_table.add_rule(rule);
                }
                FlowModCommand::DeleteStrict => {
                    self.flow_table.delete_strict(&pattern, priority);
                }
                FlowModCommand::Delete => {
                    self.flow_table.delete_matching(&pattern);
                }
            },
            OfMessage::PacketOut {
                buffer_id,
                packet,
                in_port,
                actions,
            } => {
                let resolved = match buffer_id {
                    Some(id) => self
                        .buffered
                        .remove(&id.0)
                        .map(|bp| (bp.packet, bp.in_port)),
                    None => packet.map(|p| (p, in_port)),
                };
                if let Some((pkt, origin_port)) = resolved {
                    out.merge(self.apply_actions(&pkt, origin_port, &actions));
                }
                // A packet_out naming an unknown/already-released buffer id is
                // silently ignored, as a real switch would.
            }
            OfMessage::StatsRequest { kind, request_id } => match kind {
                StatsKind::Port => {
                    out.to_controller.push(OfMessage::PortStatsReply {
                        switch: self.id,
                        request_id,
                        entries: self.port_stats(),
                    });
                }
                StatsKind::Flow => {
                    out.to_controller.push(OfMessage::FlowStatsReply {
                        switch: self.id,
                        request_id,
                        entries: self.flow_table.flow_stats(),
                    });
                }
            },
            OfMessage::BarrierRequest { request_id } => {
                out.to_controller.push(OfMessage::BarrierReply {
                    switch: self.id,
                    request_id,
                });
            }
            // Switch-to-controller messages never arrive here; ignore
            // defensively so a buggy test harness cannot wedge the model.
            other => {
                debug_assert!(
                    !other.is_switch_to_controller(),
                    "switch received a switch-to-controller message: {other}"
                );
            }
        }
        out
    }

    fn send_to_controller(
        &mut self,
        packet: Packet,
        in_port: PortId,
        reason: PacketInReason,
    ) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        if self.buffered.len() >= self.config.buffer_capacity {
            // Buffer exhausted: the packet is lost. This is the long-run
            // consequence of "forgotten packets" the paper describes.
            self.buffer_overflow_drops += 1;
            out.decisions.push(ForwardingDecision::Dropped { packet });
            return out;
        }
        let buffer_id = BufferId(self.next_buffer_id);
        self.next_buffer_id += 1;
        self.buffered
            .insert(buffer_id.0, BufferedPacket { packet, in_port });
        out.to_controller.push(OfMessage::PacketIn {
            switch: self.id,
            in_port,
            packet,
            buffer_id,
            reason,
        });
        out.decisions.push(ForwardingDecision::SentToController {
            buffer_id,
            packet,
            reason,
        });
        out
    }

    fn count_rx(&mut self, port: PortId, packet: &Packet) {
        let entry = self
            .port_stats
            .entry(port)
            .or_insert_with(|| PortStatsEntry::zero(port));
        entry.rx_packets += 1;
        entry.rx_bytes += packet.byte_size();
    }

    fn count_tx(&mut self, port: PortId, packet: &Packet) {
        let entry = self
            .port_stats
            .entry(port)
            .or_insert_with(|| PortStatsEntry::zero(port));
        entry.tx_packets += 1;
        entry.tx_bytes += packet.byte_size();
    }
}

impl Fingerprint for BufferedPacket {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        self.packet.fingerprint(hasher);
        self.in_port.fingerprint(hasher);
    }
}

impl Fingerprint for Switch {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        self.id.fingerprint(hasher);
        self.flow_table.fingerprint(hasher);
        hasher.write_usize(self.buffered.len());
        for (id, bp) in &self.buffered {
            hasher.write_u64(*id);
            bp.fingerprint(hasher);
        }
        for stats in self.port_stats.values() {
            stats.fingerprint(hasher);
        }
        hasher.write_u64(self.buffer_overflow_drops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::Timeouts;
    use crate::matchfields::MatchPattern;
    use crate::types::MacAddr;

    fn ping() -> Packet {
        Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0)
    }

    fn switch() -> Switch {
        Switch::new(SwitchId(1), vec![PortId(1), PortId(2), PortId(3)])
    }

    #[test]
    fn miss_buffers_packet_and_notifies_controller() {
        let mut sw = switch();
        let out = sw.process_packet(ping(), PortId(1));
        assert_eq!(out.to_controller.len(), 1);
        assert_eq!(sw.buffered_count(), 1);
        match &out.to_controller[0] {
            OfMessage::PacketIn {
                reason, in_port, ..
            } => {
                assert_eq!(*reason, PacketInReason::NoMatch);
                assert_eq!(*in_port, PortId(1));
            }
            other => panic!("unexpected message {other}"),
        }
        assert!(matches!(
            out.decisions[0],
            ForwardingDecision::SentToController { .. }
        ));
    }

    #[test]
    fn matched_rule_forwards_without_controller() {
        let mut sw = switch();
        let pkt = ping();
        sw.flow_table.add_rule(FlowRule::new(
            MatchPattern::l2_flow(&pkt, PortId(1)),
            100,
            vec![Action::Output(PortId(2))],
        ));
        let out = sw.process_packet(pkt, PortId(1));
        assert!(out.to_controller.is_empty());
        assert_eq!(
            out.decisions,
            vec![ForwardingDecision::Forward {
                port: PortId(2),
                packet: pkt
            }]
        );
        assert_eq!(sw.buffered_count(), 0);
    }

    #[test]
    fn the_predicted_fate_covers_what_processing_does() {
        let pkt = ping();
        let action_lists = [
            vec![],
            vec![Action::Drop],
            vec![Action::Output(PortId(2)), Action::Output(PortId(2))],
            vec![Action::Flood, Action::Output(PortId(3))],
            vec![Action::ToController, Action::Output(PortId(1))],
        ];
        // A miss first, then one matching rule per action list.
        for actions in std::iter::once(None).chain(action_lists.into_iter().map(Some)) {
            let mut sw = switch();
            if let Some(actions) = &actions {
                let pattern = MatchPattern::l2_flow(&pkt, PortId(1));
                sw.flow_table
                    .add_rule(FlowRule::new(pattern, 100, actions.clone()));
            }
            let mut predicted = Vec::new();
            let to_controller = sw.predict_packet_fate(&pkt, PortId(1), |p| predicted.push(p));
            let out = sw.process_packet(pkt, PortId(1));
            let mut emitted = Vec::new();
            for decision in &out.decisions {
                match decision {
                    ForwardingDecision::Forward { port, .. } => emitted.push(*port),
                    ForwardingDecision::FloodExcept { in_port, .. } => {
                        emitted.extend(sw.ports.iter().filter(|p| *p != in_port))
                    }
                    ForwardingDecision::SentToController { .. }
                    | ForwardingDecision::Dropped { .. } => {}
                }
            }
            assert_eq!(predicted, emitted, "{actions:?}");
            assert_eq!(to_controller, !out.to_controller.is_empty(), "{actions:?}");
        }
    }

    #[test]
    fn flood_action_produces_flood_decision_and_counts_tx() {
        let mut sw = switch();
        let pkt = ping();
        let out = sw.apply_actions(&pkt, PortId(1), &[Action::Flood]);
        assert_eq!(
            out.decisions,
            vec![ForwardingDecision::FloodExcept {
                in_port: PortId(1),
                packet: pkt
            }]
        );
        let stats = sw.port_stats();
        let tx_ports: Vec<_> = stats
            .iter()
            .filter(|s| s.tx_packets > 0)
            .map(|s| s.port)
            .collect();
        assert_eq!(tx_ports, vec![PortId(2), PortId(3)]);
    }

    #[test]
    fn empty_action_list_drops() {
        let mut sw = switch();
        let out = sw.apply_actions(&ping(), PortId(1), &[]);
        assert!(matches!(
            out.decisions[0],
            ForwardingDecision::Dropped { .. }
        ));
    }

    #[test]
    fn flow_mod_add_then_packet_out_releases_buffer() {
        let mut sw = switch();
        let pkt = ping();
        let out = sw.process_packet(pkt, PortId(1));
        let buffer_id = match &out.to_controller[0] {
            OfMessage::PacketIn { buffer_id, .. } => *buffer_id,
            other => panic!("unexpected {other}"),
        };
        // Controller installs a rule then releases the buffered packet.
        sw.apply_of_message(OfMessage::FlowMod {
            command: FlowModCommand::Add,
            pattern: MatchPattern::l2_flow(&pkt, PortId(1)),
            priority: 100,
            actions: vec![Action::Output(PortId(2))],
            timeouts: Timeouts::PERMANENT,
            cookie: 0,
        });
        assert_eq!(sw.flow_table.len(), 1);
        let out = sw.apply_of_message(OfMessage::PacketOut {
            buffer_id: Some(buffer_id),
            packet: None,
            in_port: PortId(1),
            actions: vec![Action::Output(PortId(2))],
        });
        assert_eq!(sw.buffered_count(), 0);
        assert_eq!(
            out.decisions,
            vec![ForwardingDecision::Forward {
                port: PortId(2),
                packet: pkt
            }]
        );
    }

    #[test]
    fn packet_out_with_unknown_buffer_is_ignored() {
        let mut sw = switch();
        let out = sw.apply_of_message(OfMessage::PacketOut {
            buffer_id: Some(BufferId(99)),
            packet: None,
            in_port: PortId(1),
            actions: vec![Action::Flood],
        });
        assert!(out.decisions.is_empty());
        assert!(out.to_controller.is_empty());
    }

    #[test]
    fn packet_out_with_inline_packet_floods() {
        let mut sw = switch();
        let pkt = ping();
        let out = sw.apply_of_message(OfMessage::PacketOut {
            buffer_id: None,
            packet: Some(pkt),
            in_port: PortId(1),
            actions: vec![Action::Flood],
        });
        assert_eq!(
            out.decisions,
            vec![ForwardingDecision::FloodExcept {
                in_port: PortId(1),
                packet: pkt
            }]
        );
    }

    #[test]
    fn stats_requests_are_answered() {
        let mut sw = switch();
        sw.process_packet(ping(), PortId(1));
        let out = sw.apply_of_message(OfMessage::StatsRequest {
            kind: StatsKind::Port,
            request_id: 7,
        });
        match &out.to_controller[0] {
            OfMessage::PortStatsReply {
                request_id,
                entries,
                ..
            } => {
                assert_eq!(*request_id, 7);
                assert_eq!(entries.len(), 3);
                assert!(entries.iter().any(|e| e.rx_packets == 1));
            }
            other => panic!("unexpected {other}"),
        }
        let out = sw.apply_of_message(OfMessage::StatsRequest {
            kind: StatsKind::Flow,
            request_id: 8,
        });
        assert!(matches!(
            &out.to_controller[0],
            OfMessage::FlowStatsReply { request_id: 8, .. }
        ));
    }

    #[test]
    fn barrier_is_acknowledged() {
        let mut sw = switch();
        let out = sw.apply_of_message(OfMessage::BarrierRequest { request_id: 3 });
        assert_eq!(
            out.to_controller,
            vec![OfMessage::BarrierReply {
                switch: SwitchId(1),
                request_id: 3
            }]
        );
    }

    #[test]
    fn buffer_capacity_limits_pending_packets() {
        let mut sw = Switch::with_config(
            SwitchId(1),
            vec![PortId(1), PortId(2)],
            SwitchConfig {
                canonical_flow_table: true,
                buffer_capacity: 2,
            },
        );
        for i in 0..3 {
            let pkt = Packet::l2_ping(i, MacAddr::for_host(1), MacAddr::for_host(2), i as u32);
            sw.process_packet(pkt, PortId(1));
        }
        assert_eq!(sw.buffered_count(), 2);
        assert_eq!(sw.buffer_overflow_drops, 1);
    }

    #[test]
    fn join_message_lists_ports() {
        let sw = switch();
        match sw.join_message() {
            OfMessage::SwitchJoin { switch, ports } => {
                assert_eq!(switch, SwitchId(1));
                assert_eq!(ports, vec![PortId(1), PortId(2), PortId(3)]);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn fingerprint_changes_with_buffered_packets_and_rules() {
        use crate::fingerprint::fingerprint_of;
        let mut a = switch();
        let b = switch();
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
        a.process_packet(ping(), PortId(1));
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }
}
