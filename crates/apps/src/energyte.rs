//! The energy-efficient traffic-engineering application of Section 8.3.
//!
//! Modelled on REsPoNse: the application pre-computes two routing tables —
//! an *always-on* table able to carry the base load and an *on-demand* table
//! that adds capacity under high load — and selects one for each new flow. It
//! learns the network load by querying switches for port statistics.
//!
//! Bug flags reproduce the paper's findings:
//!
//! * **BUG-VIII** (`bug_forget_packet_out`): the handler installs the path
//!   but never releases the triggering packet (`NoForgottenPackets`).
//! * **BUG-IX** (`bug_ignore_intermediate`): packets reaching an intermediate
//!   switch before its rule is installed are ignored
//!   (`NoForgottenPackets`; only manifests under rule-installation delays).
//! * **BUG-X** (`bug_single_table_pointer`): the statistics handler keeps a
//!   single "current table" pointer, so under high load every new flow uses
//!   the on-demand table instead of splitting (`UseCorrectRoutingTable`).
//! * **BUG-XI** (`bug_ignore_after_scale_down`): after the load drops the
//!   application recomputes the set of always-on switches and ignores
//!   packets arriving from switches outside it (`NoForgottenPackets`).

use crate::util::dst_match;
use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
use nice_mc::properties::{Event, Property};
use nice_mc::state::SystemState;
use nice_openflow::{Action, Fingerprint, Hasher64, MacAddr, PortId, StatsKind, SwitchId};
use nice_sym::{Env, SymPacket, SymStats, SymValue};
use std::collections::{BTreeMap, BTreeSet};

/// An explicit path: at each listed switch, forward matching packets out of
/// the listed port. The first entry is the ingress switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// `(switch, output port)` hops in ingress-to-egress order.
    pub hops: Vec<(SwitchId, PortId)>,
}

impl PathSpec {
    /// The output port this path uses at `switch`, if the switch is on the
    /// path.
    pub fn port_at(&self, switch: SwitchId) -> Option<PortId> {
        self.hops
            .iter()
            .find(|(s, _)| *s == switch)
            .map(|(_, p)| *p)
    }

    /// The switches on this path.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.hops.iter().map(|(s, _)| *s)
    }
}

/// Static configuration: the pre-computed routing tables and bug flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyTeConfig {
    /// The always-on routing table: destination MAC → path.
    pub always_on: BTreeMap<u64, PathSpec>,
    /// The on-demand routing table: destination MAC → path.
    pub on_demand: BTreeMap<u64, PathSpec>,
    /// The switch where new flows enter the network.
    pub ingress_switch: SwitchId,
    /// The switch whose port statistics drive the energy state.
    pub monitored_switch: SwitchId,
    /// The port whose utilisation is compared against the threshold.
    pub monitored_port: PortId,
    /// Bytes above which the network is considered highly loaded.
    pub utilization_threshold: u64,
    /// How many times the application re-issues its statistics query after a
    /// reply (1 = query once at switch join and never again). BUG-XI needs at
    /// least one re-poll so the load can rise and then fall.
    pub stats_polls: u32,
    /// BUG-VIII.
    pub bug_forget_packet_out: bool,
    /// BUG-IX.
    pub bug_ignore_intermediate: bool,
    /// BUG-X.
    pub bug_single_table_pointer: bool,
    /// BUG-XI.
    pub bug_ignore_after_scale_down: bool,
}

impl EnergyTeConfig {
    /// The triangle topology of Section 8.3 (and
    /// [`nice_openflow::Topology::triangle`]): sender at switch 1, two
    /// receivers at switch 2, switch 3 on the on-demand path. All bug flags
    /// off.
    pub fn triangle_default() -> Self {
        let mut always_on = BTreeMap::new();
        let mut on_demand = BTreeMap::new();
        for (host, egress_port) in [(2u32, PortId(1)), (3u32, PortId(4))] {
            let mac = MacAddr::for_host(host).value();
            always_on.insert(
                mac,
                PathSpec {
                    hops: vec![(SwitchId(1), PortId(2)), (SwitchId(2), egress_port)],
                },
            );
            on_demand.insert(
                mac,
                PathSpec {
                    hops: vec![
                        (SwitchId(1), PortId(3)),
                        (SwitchId(3), PortId(2)),
                        (SwitchId(2), egress_port),
                    ],
                },
            );
        }
        EnergyTeConfig {
            always_on,
            on_demand,
            ingress_switch: SwitchId(1),
            monitored_switch: SwitchId(1),
            monitored_port: PortId(2),
            utilization_threshold: 1_000,
            stats_polls: 1,
            bug_forget_packet_out: false,
            bug_ignore_intermediate: false,
            bug_single_table_pointer: false,
            bug_ignore_after_scale_down: false,
        }
    }
}

/// One routing decision, recorded for the `UseCorrectRoutingTable` property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingDecision {
    /// The destination MAC of the flow.
    pub dst_mac: u64,
    /// True if the on-demand table was used.
    pub used_on_demand: bool,
    /// The energy state at decision time.
    pub high_load: bool,
}

/// The traffic-engineering controller application.
#[derive(Debug, Clone)]
pub struct EnergyTeApp {
    config: EnergyTeConfig,
    high_load: bool,
    flows_routed: u32,
    decisions: Vec<RoutingDecision>,
    /// Switches considered active (on always-on paths) after a scale-down;
    /// initially every switch is active.
    active_switches: BTreeSet<SwitchId>,
    scaled_down: bool,
    /// Remaining statistics re-polls.
    polls_remaining: u32,
}

impl EnergyTeApp {
    /// Creates the application.
    pub fn new(config: EnergyTeConfig) -> Self {
        let mut active: BTreeSet<SwitchId> = BTreeSet::new();
        for path in config.always_on.values().chain(config.on_demand.values()) {
            active.extend(path.switches());
        }
        let polls_remaining = config.stats_polls.saturating_sub(1);
        EnergyTeApp {
            config,
            high_load: false,
            flows_routed: 0,
            decisions: Vec::new(),
            active_switches: active,
            scaled_down: false,
            polls_remaining,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EnergyTeConfig {
        &self.config
    }

    /// The routing decisions made so far (for the correctness property).
    pub fn decisions(&self) -> &[RoutingDecision] {
        &self.decisions
    }

    /// The current energy state.
    pub fn high_load(&self) -> bool {
        self.high_load
    }

    fn current_path(&self, dst_mac: u64, on_demand: bool) -> Option<&PathSpec> {
        if on_demand {
            self.config.on_demand.get(&dst_mac)
        } else {
            self.config.always_on.get(&dst_mac)
        }
    }

    fn handle_at_intermediate(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        if self.config.bug_ignore_intermediate {
            // BUG-IX: the handler implicitly assumes intermediate switches
            // never send packets up, so this packet is forgotten.
            return;
        }
        if self.config.bug_ignore_after_scale_down
            && self.scaled_down
            && !self.active_switches.contains(&ctx.switch)
        {
            // BUG-XI: after scaling down, switches outside the recomputed
            // always-on paths are not found in any list and their packets are
            // ignored.
            return;
        }
        // Correct behaviour: forward along whichever of the two tables routes
        // this destination through this switch.
        let dst = env.concretize(&packet.dst_mac);
        for on_demand in [false, true] {
            if let Some(port) = self
                .current_path(dst, on_demand)
                .and_then(|p| p.port_at(ctx.switch))
            {
                ops.send_packet_out(
                    ctx.switch,
                    ctx.buffer_id,
                    ctx.in_port,
                    vec![Action::Output(port)],
                );
                return;
            }
        }
        ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
    }
}

impl ControllerApp for EnergyTeApp {
    fn name(&self) -> &str {
        "energy-te"
    }

    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        if ctx.switch != self.config.ingress_switch {
            self.handle_at_intermediate(ops, env, ctx, packet);
            return;
        }

        let dst = env.concretize(&packet.dst_mac);
        // Choose the routing table for this new flow.
        let use_on_demand = if self.high_load {
            if self.config.bug_single_table_pointer {
                // BUG-X: a single table pointer updated by the statistics
                // handler sends every new flow over on-demand routes.
                true
            } else {
                // Fixed behaviour: split flows evenly over the two tables.
                self.flows_routed % 2 == 1
            }
        } else {
            false
        };
        self.flows_routed += 1;
        self.decisions.push(RoutingDecision {
            dst_mac: dst,
            used_on_demand: use_on_demand,
            high_load: self.high_load,
        });

        let path = match self.current_path(dst, use_on_demand) {
            Some(path) => path.clone(),
            None => {
                ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
                return;
            }
        };
        // Install a rule at every hop of the chosen path.
        for (switch, port) in &path.hops {
            ops.install_rule(
                *switch,
                RuleSpec::new(dst_match(env, packet), vec![Action::Output(*port)])
                    .with_cookie(if use_on_demand { 2 } else { 1 }),
            );
        }
        if !self.config.bug_forget_packet_out {
            // The fix for BUG-VIII: release the triggering packet along the
            // first hop.
            let first_hop = path.hops[0].1;
            ops.send_packet_out(
                ctx.switch,
                ctx.buffer_id,
                ctx.in_port,
                vec![Action::Output(first_hop)],
            );
        }
    }

    fn switch_join(&mut self, ops: &mut dyn ControllerOps, switch: SwitchId, _ports: &[PortId]) {
        if switch == self.config.monitored_switch {
            ops.request_stats(switch, StatsKind::Port);
        }
    }

    fn port_stats_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        switch: SwitchId,
        stats: &SymStats,
    ) {
        if switch != self.config.monitored_switch {
            return;
        }
        // Keep monitoring while the poll budget lasts (the real application
        // polls periodically; the budget keeps the model finite).
        if self.polls_remaining > 0 {
            self.polls_remaining -= 1;
            ops.request_stats(switch, StatsKind::Port);
        }
        let load = match stats.total_bytes_for(self.config.monitored_port) {
            Some(load) => load.clone(),
            None => return,
        };
        let threshold = SymValue::concrete(self.config.utilization_threshold);
        let high = env.branch(&threshold.lt(&load));
        if high != self.high_load {
            self.high_load = high;
            if !high {
                // Load reduced: recompute the active (always-on) switch set.
                self.scaled_down = true;
                self.active_switches = self
                    .config
                    .always_on
                    .values()
                    .flat_map(|p| p.switches())
                    .collect();
            }
        }
    }

    fn uses_stats(&self) -> bool {
        true
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_bool(self.high_load);
        hasher.write_u32(self.flows_routed);
        hasher.write_bool(self.scaled_down);
        hasher.write_u32(self.polls_remaining);
        hasher.write_usize(self.decisions.len());
        for d in &self.decisions {
            hasher.write_u64(d.dst_mac);
            hasher.write_bool(d.used_on_demand);
            hasher.write_bool(d.high_load);
        }
        hasher.write_usize(self.active_switches.len());
        for s in &self.active_switches {
            s.fingerprint(hasher);
        }
    }

    fn is_same_flow(&self, a: &nice_openflow::Packet, b: &nice_openflow::Packet) -> bool {
        a.dst_mac == b.dst_mac
    }
}

/// The application-specific correctness property of Section 8.3: the
/// controller must install rules according to the routing table appropriate
/// for the current network load — always-on paths under low load, and an even
/// split between the two tables under high load.
#[derive(Debug, Clone, Default)]
pub struct UseCorrectRoutingTable;

impl UseCorrectRoutingTable {
    /// Creates the property.
    pub fn new() -> Self {
        Self
    }
}

impl Property for UseCorrectRoutingTable {
    fn name(&self) -> &str {
        "UseCorrectRoutingTable"
    }

    fn on_event(&mut self, _event: &Event, _state: &SystemState) {}

    fn check(&self, state: &SystemState) -> Option<String> {
        let app: &EnergyTeApp = state.controller().app_as()?;
        let decisions = app.decisions();
        for d in decisions {
            if !d.high_load && d.used_on_demand {
                return Some(format!(
                    "flow to {} routed over an on-demand path while the network load was low",
                    MacAddr(d.dst_mac)
                ));
            }
        }
        let high: Vec<_> = decisions.iter().filter(|d| d.high_load).collect();
        if high.len() >= 2 && high.iter().all(|d| d.used_on_demand) {
            return Some(format!(
                "all {} flows routed under high load used on-demand paths; traffic must split over both tables",
                high.len()
            ));
        }
        None
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_controller::ControllerRuntime;
    use nice_openflow::{BufferId, OfMessage, Packet, PacketInReason, PortStatsEntry};

    fn packet_in(switch: u32, port: u16, dst: u32, buffer: u64) -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(switch),
            in_port: PortId(port),
            packet: Packet::l2_ping(buffer, MacAddr::for_host(1), MacAddr::for_host(dst), 0),
            buffer_id: BufferId(buffer),
            reason: PacketInReason::NoMatch,
        }
    }

    fn stats_reply(bytes: u64) -> OfMessage {
        OfMessage::PortStatsReply {
            switch: SwitchId(1),
            request_id: 1,
            entries: vec![PortStatsEntry {
                port: PortId(2),
                rx_packets: 0,
                tx_packets: 0,
                rx_bytes: 0,
                tx_bytes: bytes,
            }],
        }
    }

    #[test]
    fn low_load_uses_always_on_path() {
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(
            EnergyTeConfig::triangle_default(),
        )));
        let out = rt.handle_message(&packet_in(1, 1, 2, 1));
        // Two hops on the always-on path + packet_out.
        assert_eq!(out.len(), 3);
        let targets: Vec<SwitchId> = out.iter().map(|(sw, _)| *sw).collect();
        assert_eq!(targets[0], SwitchId(1));
        assert_eq!(targets[1], SwitchId(2));
        assert!(matches!(out[2].1, OfMessage::PacketOut { .. }));
        let app: &EnergyTeApp = rt.app_as().unwrap();
        assert_eq!(app.decisions().len(), 1);
        assert!(!app.decisions()[0].used_on_demand);
    }

    #[test]
    fn high_load_splits_flows_between_tables() {
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(
            EnergyTeConfig::triangle_default(),
        )));
        rt.handle_message(&stats_reply(10_000));
        rt.handle_message(&packet_in(1, 1, 2, 1));
        rt.handle_message(&packet_in(1, 1, 3, 2));
        let app: &EnergyTeApp = rt.app_as().unwrap();
        assert!(app.high_load());
        let on_demand: Vec<bool> = app.decisions().iter().map(|d| d.used_on_demand).collect();
        assert_eq!(
            on_demand,
            vec![false, true],
            "flows alternate between the two tables"
        );
        assert!(UseCorrectRoutingTable::new()
            .name()
            .contains("RoutingTable"));
    }

    #[test]
    fn bug_x_routes_everything_on_demand_under_high_load() {
        let mut config = EnergyTeConfig::triangle_default();
        config.bug_single_table_pointer = true;
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(config)));
        rt.handle_message(&stats_reply(10_000));
        rt.handle_message(&packet_in(1, 1, 2, 1));
        rt.handle_message(&packet_in(1, 1, 3, 2));
        let app: &EnergyTeApp = rt.app_as().unwrap();
        assert!(app.decisions().iter().all(|d| d.used_on_demand));
    }

    #[test]
    fn bug_viii_forgets_the_first_packet() {
        let mut config = EnergyTeConfig::triangle_default();
        config.bug_forget_packet_out = true;
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(config)));
        let out = rt.handle_message(&packet_in(1, 1, 2, 1));
        assert_eq!(out.len(), 2, "rules only, no packet_out");
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, OfMessage::FlowMod { .. })));
    }

    #[test]
    fn intermediate_switch_packets_are_forwarded_when_fixed_and_ignored_when_buggy() {
        // Fixed behaviour: packet at switch 2 towards host 2 is released out
        // of the egress port.
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(
            EnergyTeConfig::triangle_default(),
        )));
        let out = rt.handle_message(&packet_in(2, 2, 2, 1));
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortId(1))]));

        // BUG-IX: the same packet is ignored.
        let mut config = EnergyTeConfig::triangle_default();
        config.bug_ignore_intermediate = true;
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(config)));
        assert!(rt.handle_message(&packet_in(2, 2, 2, 1)).is_empty());
    }

    #[test]
    fn bug_xi_ignores_non_active_switches_after_scale_down() {
        let mut config = EnergyTeConfig::triangle_default();
        config.bug_ignore_after_scale_down = true;
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(config)));
        // Go to high load, then back to low load (scale down).
        rt.handle_message(&stats_reply(10_000));
        rt.handle_message(&stats_reply(0));
        // A packet arriving from switch 3 (not on any always-on path) is
        // ignored.
        let out = rt.handle_message(&packet_in(3, 1, 2, 1));
        assert!(out.is_empty());
        // Without the bug it is forwarded along the on-demand path hop.
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(
            EnergyTeConfig::triangle_default(),
        )));
        rt.handle_message(&stats_reply(10_000));
        rt.handle_message(&stats_reply(0));
        let out = rt.handle_message(&packet_in(3, 1, 2, 1));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn switch_join_requests_stats_only_for_monitored_switch() {
        let mut rt = ControllerRuntime::new(Box::new(EnergyTeApp::new(
            EnergyTeConfig::triangle_default(),
        )));
        let out = rt.handle_message(&OfMessage::SwitchJoin {
            switch: SwitchId(1),
            ports: vec![PortId(1)],
        });
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, OfMessage::StatsRequest { .. }));
        let out = rt.handle_message(&OfMessage::SwitchJoin {
            switch: SwitchId(3),
            ports: vec![PortId(1)],
        });
        assert!(out.is_empty());
    }

    #[test]
    fn path_spec_lookup() {
        let config = EnergyTeConfig::triangle_default();
        let path = config.on_demand.get(&MacAddr::for_host(2).value()).unwrap();
        assert_eq!(path.port_at(SwitchId(3)), Some(PortId(2)));
        assert_eq!(path.port_at(SwitchId(9)), None);
        assert_eq!(path.switches().count(), 3);
    }
}
