//! The MAC-learning switch (`pyswitch`) of Figure 3 and Section 8.1.
//!
//! The application learns the `<source MAC, ingress port>` association of
//! every non-broadcast packet and, when the destination MAC is already known,
//! installs a forwarding rule and releases the packet along it; otherwise it
//! floods. This is a faithful port of the pseudo-code in Figure 3 — including
//! its bugs:
//!
//! * **BUG-I** (host unreachable after moving): the installed rule has a soft
//!   timeout that never expires while traffic keeps flowing, so after the
//!   destination host moves, packets are forwarded into a dead end
//!   (`NoBlackHoles`).
//! * **BUG-II** (delayed direct path): a rule is installed only for the
//!   direction of the packet being handled, so the third packet of a
//!   ping/pong exchange still goes to the controller
//!   (`StrictDirectPaths`).
//! * **BUG-III** (excess flooding): no spanning tree is constructed, so
//!   flooding loops on cyclic topologies (`NoForwardingLoops`).
//!
//! The [`PySwitchVariant`] selects between the original behaviour, the naive
//! BUG-II fix the paper warns about (installing the reverse rule *after*
//! releasing the packet, which re-introduces a race), and the correct fix
//! (install the reverse rule first).

use crate::util::{l2_match, l2_match_reverse};
use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
use nice_openflow::{Action, Fingerprint, Hasher64, Packet, PortId, SwitchId, Timeouts};
use nice_sym::{Env, SymMap, SymPacket};
use std::collections::{BTreeMap, VecDeque};

/// Which variant of the MAC-learning switch to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PySwitchVariant {
    /// The pseudo-code of Figure 3 exactly as published (contains BUG-I,
    /// BUG-II and BUG-III).
    #[default]
    Original,
    /// The naive BUG-II fix: also install the reverse rule, but *after*
    /// releasing the packet — the ordering the paper points out can let the
    /// reply overtake the reverse rule.
    NaiveTwoWayInstall,
    /// The correct BUG-II fix: install the reverse rule first, then the
    /// forward rule, then release the packet (satisfies StrictDirectPaths).
    FixedTwoWayInstall,
    /// A crash-resilient variant for fault-injection scenarios: behaves like
    /// [`PySwitchVariant::Original`] on the happy path, but remembers every
    /// released packet until a barrier reply confirms the switch processed
    /// the release, and re-sends the unconfirmed ones when the switch
    /// reconnects after a crash (satisfies `NoAbandonedPackets` under switch
    /// crashes).
    CrashResilient,
}

/// The MAC-learning controller application.
#[derive(Debug, Clone, Default)]
pub struct PySwitchApp {
    variant: PySwitchVariant,
    /// Per-switch MAC table: MAC address → port (the `ctrl_state` hashtable
    /// of Figure 3). A [`SymMap`] so symbolic execution sees the lookup
    /// constraints.
    tables: BTreeMap<SwitchId, SymMap<u16>>,
    /// Packets released towards a switch whose processing has not yet been
    /// confirmed by a barrier reply, in release order: the original ingress
    /// port, the release actions, and the packet itself. Only populated by
    /// [`PySwitchVariant::CrashResilient`].
    unconfirmed: BTreeMap<SwitchId, VecDeque<(PortId, Vec<Action>, Packet)>>,
}

impl PySwitchApp {
    /// Creates the application in the given variant.
    pub fn new(variant: PySwitchVariant) -> Self {
        PySwitchApp {
            variant,
            tables: BTreeMap::new(),
            unconfirmed: BTreeMap::new(),
        }
    }

    /// The variant in use.
    pub fn variant(&self) -> PySwitchVariant {
        self.variant
    }

    /// The number of `<MAC, port>` entries learned at `switch`.
    pub fn learned_entries(&self, switch: SwitchId) -> usize {
        self.tables.get(&switch).map(|t| t.len()).unwrap_or(0)
    }

    /// The number of released-but-unconfirmed packets tracked for `switch`
    /// (always zero outside [`PySwitchVariant::CrashResilient`]).
    pub fn unconfirmed_releases(&self, switch: SwitchId) -> usize {
        self.unconfirmed.get(&switch).map(|q| q.len()).unwrap_or(0)
    }

    /// Releases a buffered packet with `actions` and, in the crash-resilient
    /// variant, remembers it until a trailing barrier confirms the switch
    /// processed the release.
    fn release(
        &mut self,
        ops: &mut dyn ControllerOps,
        ctx: PacketInContext,
        packet: &SymPacket,
        actions: Vec<Action>,
    ) {
        ops.send_packet_out(ctx.switch, ctx.buffer_id, ctx.in_port, actions.clone());
        if self.variant == PySwitchVariant::CrashResilient {
            // Symbolic discovery runs on scratch clones with fully symbolic
            // packets; only concretely-executed releases need the receipt.
            if let Some(concrete) = packet.concrete_origin() {
                self.unconfirmed.entry(ctx.switch).or_default().push_back((
                    ctx.in_port,
                    actions,
                    *concrete,
                ));
                ops.send_barrier(ctx.switch);
            }
        }
    }
}

impl ControllerApp for PySwitchApp {
    fn name(&self) -> &str {
        match self.variant {
            PySwitchVariant::Original => "pyswitch",
            PySwitchVariant::NaiveTwoWayInstall => "pyswitch-naive-fix",
            PySwitchVariant::FixedTwoWayInstall => "pyswitch-fixed",
            PySwitchVariant::CrashResilient => "pyswitch-resilient",
        }
    }

    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        // Figure 3, line 3: the per-switch MAC table (switch_join already
        // initialised the controller's per-switch state; a defensive entry
        // here mirrors `ctrl_state[sw_id]`).
        let table = self.tables.entry(ctx.switch).or_default();

        // Lines 4-7: learn the source port for non-group source addresses.
        let is_bcast_src = env.branch(&packet.src_mac_is_group());
        let is_bcast_dst = env.branch(&packet.dst_mac_is_group());
        if !is_bcast_src {
            table.insert(packet.src_mac.clone(), ctx.in_port.value());
        }

        // Lines 8-15: if the destination is known on a different port,
        // install a forwarding rule and release the packet along it.
        if !is_bcast_dst {
            if let Some(outport) = table.get(&packet.dst_mac, env) {
                let outport = PortId(outport);
                if outport != ctx.in_port {
                    let forward = RuleSpec::new(
                        l2_match(env, packet, ctx.in_port),
                        vec![Action::Output(outport)],
                    )
                    .with_timeouts(Timeouts::SOFT_5)
                    .with_cookie(1);

                    match self.variant {
                        PySwitchVariant::Original => {
                            ops.install_rule(ctx.switch, forward);
                            ops.send_packet_out(
                                ctx.switch,
                                ctx.buffer_id,
                                ctx.in_port,
                                vec![Action::Output(outport)],
                            );
                        }
                        PySwitchVariant::CrashResilient => {
                            // Same messages as `Original`, but the release is
                            // tracked until the trailing barrier confirms it.
                            ops.install_rule(ctx.switch, forward);
                            self.release(ops, ctx, packet, vec![Action::Output(outport)]);
                        }
                        PySwitchVariant::NaiveTwoWayInstall => {
                            // The "easy" fix the paper warns about: the
                            // reverse rule is installed *after* the packet is
                            // released, so the reply can race it.
                            ops.install_rule(ctx.switch, forward);
                            ops.send_packet_out(
                                ctx.switch,
                                ctx.buffer_id,
                                ctx.in_port,
                                vec![Action::Output(outport)],
                            );
                            let reverse = RuleSpec::new(
                                l2_match_reverse(env, packet, outport),
                                vec![Action::Output(ctx.in_port)],
                            )
                            .with_timeouts(Timeouts::SOFT_5)
                            .with_cookie(2);
                            ops.install_rule(ctx.switch, reverse);
                        }
                        PySwitchVariant::FixedTwoWayInstall => {
                            // Correct fix: reverse rule first, then forward
                            // rule, then release the packet.
                            let reverse = RuleSpec::new(
                                l2_match_reverse(env, packet, outport),
                                vec![Action::Output(ctx.in_port)],
                            )
                            .with_timeouts(Timeouts::SOFT_5)
                            .with_cookie(2);
                            ops.install_rule(ctx.switch, reverse);
                            ops.install_rule(ctx.switch, forward);
                            ops.send_packet_out(
                                ctx.switch,
                                ctx.buffer_id,
                                ctx.in_port,
                                vec![Action::Output(outport)],
                            );
                        }
                    }
                    return;
                }
            }
        }

        // Line 16: flood (tracked like any other release in the
        // crash-resilient variant).
        self.release(ops, ctx, packet, vec![Action::Flood]);
    }

    fn switch_join(&mut self, ops: &mut dyn ControllerOps, switch: SwitchId, _ports: &[PortId]) {
        // Lines 17-19.
        self.tables.entry(switch).or_default();
        // Crash recovery: a rejoining switch lost everything that was in
        // flight, so re-send every unconfirmed release inline (the original
        // switch buffer is gone) and track it again behind a fresh barrier.
        if self.variant == PySwitchVariant::CrashResilient {
            let pending: Vec<(PortId, Vec<Action>, Packet)> = self
                .unconfirmed
                .get_mut(&switch)
                .map(|q| q.drain(..).collect())
                .unwrap_or_default();
            for (in_port, actions, pkt) in pending {
                ops.send_packet(switch, pkt, in_port, actions.clone());
                self.unconfirmed
                    .entry(switch)
                    .or_default()
                    .push_back((in_port, actions, pkt));
                ops.send_barrier(switch);
            }
        }
    }

    fn barrier_reply(&mut self, _ops: &mut dyn ControllerOps, switch: SwitchId, _request_id: u64) {
        // A barrier reply confirms everything released before it was
        // processed; the control channel is reliable and in-order, so the
        // oldest unconfirmed release is the one being acknowledged.
        if let Some(q) = self.unconfirmed.get_mut(&switch) {
            q.pop_front();
            if q.is_empty() {
                self.unconfirmed.remove(&switch);
            }
        }
    }

    fn switch_leave(&mut self, _ops: &mut dyn ControllerOps, switch: SwitchId) {
        // Lines 20-22.
        self.tables.remove(&switch);
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_usize(self.tables.len());
        for (switch, table) in &self.tables {
            switch.fingerprint(hasher);
            table.fingerprint(hasher);
        }
        hasher.write_usize(self.unconfirmed.len());
        for (switch, queue) in &self.unconfirmed {
            switch.fingerprint(hasher);
            hasher.write_usize(queue.len());
            for (port, actions, packet) in queue {
                port.fingerprint(hasher);
                hasher.write_usize(actions.len());
                for action in actions {
                    action.fingerprint(hasher);
                }
                packet.fingerprint(hasher);
            }
        }
    }

    fn held_packets(&self) -> Vec<nice_openflow::PacketId> {
        self.unconfirmed
            .values()
            .flat_map(|queue| queue.iter().map(|(_, _, packet)| packet.id))
            .collect()
    }

    fn is_same_flow(&self, a: &nice_openflow::Packet, b: &nice_openflow::Packet) -> bool {
        // The MAC-learning switch treats traffic between different MAC pairs
        // independently (the FLOW-IR example from Section 4).
        let pair = |p: &nice_openflow::Packet| {
            let (x, y) = (p.src_mac.value(), p.dst_mac.value());
            if x <= y {
                (x, y)
            } else {
                (y, x)
            }
        };
        pair(a) == pair(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_controller::ControllerRuntime;
    use nice_openflow::{BufferId, MacAddr, OfMessage, Packet, PacketInReason};

    fn packet_in(src: u32, dst: u32, switch: u32, port: u16, buffer: u64) -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(switch),
            in_port: PortId(port),
            packet: Packet::l2_ping(buffer, MacAddr::for_host(src), MacAddr::for_host(dst), 0),
            buffer_id: BufferId(buffer),
            reason: PacketInReason::NoMatch,
        }
    }

    #[test]
    fn unknown_destination_floods() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        let out = rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            OfMessage::PacketOut { actions, .. } => assert_eq!(actions, &vec![Action::Flood]),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn known_destination_installs_rule_and_forwards() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        // Learn host 1 on port 1.
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        // Reply from host 2 on port 2: host 1 is known → install + forward.
        let out = rt.handle_message(&packet_in(2, 1, 1, 2, 2));
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, OfMessage::FlowMod { .. }));
        match &out[1].1 {
            OfMessage::PacketOut { actions, .. } => {
                assert_eq!(actions, &vec![Action::Output(PortId(1))]);
            }
            other => panic!("unexpected {other}"),
        }
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.learned_entries(SwitchId(1)), 2);
    }

    #[test]
    fn original_variant_installs_only_one_direction() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        let out = rt.handle_message(&packet_in(2, 1, 1, 2, 2));
        let flow_mods = out
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
            .count();
        assert_eq!(
            flow_mods, 1,
            "BUG-II: only the handled direction gets a rule"
        );
    }

    #[test]
    fn fixed_variant_installs_reverse_rule_first() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(
            PySwitchVariant::FixedTwoWayInstall,
        )));
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        let out = rt.handle_message(&packet_in(2, 1, 1, 2, 2));
        assert_eq!(out.len(), 3);
        // Reverse rule, forward rule, then packet release — in that order.
        assert!(matches!(&out[0].1, OfMessage::FlowMod { cookie: 2, .. }));
        assert!(matches!(&out[1].1, OfMessage::FlowMod { cookie: 1, .. }));
        assert!(matches!(&out[2].1, OfMessage::PacketOut { .. }));
    }

    #[test]
    fn naive_variant_installs_reverse_rule_after_release() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(
            PySwitchVariant::NaiveTwoWayInstall,
        )));
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        let out = rt.handle_message(&packet_in(2, 1, 1, 2, 2));
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0].1, OfMessage::FlowMod { cookie: 1, .. }));
        assert!(matches!(&out[1].1, OfMessage::PacketOut { .. }));
        assert!(matches!(&out[2].1, OfMessage::FlowMod { cookie: 2, .. }));
    }

    #[test]
    fn broadcast_source_is_not_learned() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        let bcast = OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::l2_ping(1, MacAddr::BROADCAST, MacAddr::for_host(2), 0),
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        };
        rt.handle_message(&bcast);
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.learned_entries(SwitchId(1)), 0);
    }

    #[test]
    fn same_port_destination_floods_instead_of_hairpinning() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        // Learn host 1 on port 1, then handle a packet towards host 1 that
        // also arrives on port 1: outport == inport → flood, no rule.
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        let out = rt.handle_message(&packet_in(3, 1, 1, 1, 2));
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            OfMessage::PacketOut { actions, .. } => assert_eq!(actions, &vec![Action::Flood]),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn switch_leave_forgets_state() {
        let mut rt = ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::Original)));
        rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        rt.handle_message(&OfMessage::SwitchLeave {
            switch: SwitchId(1),
        });
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.learned_entries(SwitchId(1)), 0);
    }

    #[test]
    fn flow_independence_oracle_groups_by_mac_pair() {
        let app = PySwitchApp::new(PySwitchVariant::Original);
        let a = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let b = Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        let c = Packet::l2_ping(3, MacAddr::for_host(1), MacAddr::for_host(3), 0);
        assert!(
            app.is_same_flow(&a, &b),
            "both directions of a pair are one flow"
        );
        assert!(
            !app.is_same_flow(&a, &c),
            "different destinations are independent"
        );
    }

    #[test]
    fn resilient_variant_tracks_and_resends_unconfirmed_releases() {
        let mut rt =
            ControllerRuntime::new(Box::new(PySwitchApp::new(PySwitchVariant::CrashResilient)));
        // A flood release is tracked and followed by a barrier.
        let out = rt.handle_message(&packet_in(1, 2, 1, 1, 1));
        assert!(matches!(out[0].1, OfMessage::PacketOut { .. }));
        assert!(matches!(out[1].1, OfMessage::BarrierRequest { .. }));
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.unconfirmed_releases(SwitchId(1)), 1);

        // The barrier reply confirms the release.
        let request_id = match out[1].1 {
            OfMessage::BarrierRequest { request_id, .. } => request_id,
            _ => unreachable!(),
        };
        rt.handle_message(&OfMessage::BarrierReply {
            switch: SwitchId(1),
            request_id,
        });
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.unconfirmed_releases(SwitchId(1)), 0);

        // An unconfirmed release is re-sent inline when the switch rejoins
        // (crash recovery), and tracked again behind a fresh barrier.
        rt.handle_message(&packet_in(3, 4, 1, 2, 2));
        let out = rt.handle_message(&OfMessage::SwitchJoin {
            switch: SwitchId(1),
            ports: vec![PortId(1), PortId(2)],
        });
        assert_eq!(out.len(), 2);
        match &out[0].1 {
            OfMessage::PacketOut {
                buffer_id, packet, ..
            } => {
                assert!(buffer_id.is_none(), "re-sends carry the packet inline");
                assert!(packet.is_some());
            }
            other => panic!("unexpected {other}"),
        }
        assert!(matches!(out[1].1, OfMessage::BarrierRequest { .. }));
        let app: &PySwitchApp = rt.app_as().unwrap();
        assert_eq!(app.unconfirmed_releases(SwitchId(1)), 1);
    }

    #[test]
    fn variant_names_differ() {
        assert_eq!(
            PySwitchApp::new(PySwitchVariant::Original).name(),
            "pyswitch"
        );
        assert_eq!(
            PySwitchApp::new(PySwitchVariant::FixedTwoWayInstall).name(),
            "pyswitch-fixed"
        );
        assert_eq!(
            PySwitchApp::new(PySwitchVariant::NaiveTwoWayInstall).name(),
            "pyswitch-naive-fix"
        );
    }
}
