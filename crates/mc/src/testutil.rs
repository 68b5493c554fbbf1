//! Tiny controller applications and canned scenarios used by unit tests,
//! examples and benchmarks of the model checker itself.
//!
//! The real applications evaluated in the paper (pyswitch, the load balancer,
//! the traffic-engineering application) live in the `nice-apps` crate; the
//! ones here exist so this crate's own tests do not depend on it.

use crate::properties::default_properties;
use crate::scenario::Scenario;
use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
use nice_hosts::{ClientHost, HostModel, SendBudget};
use nice_openflow::{
    Action, Fingerprint, Hasher64, HostId, MacAddr, MatchPattern, Packet, PortId, Topology,
};
use nice_sym::{Env, SymMap, SymPacket};

/// A controller application that floods every packet (a "hub"). It never
/// installs rules, so every packet goes to the controller — useful for
/// exercising the checker plumbing with predictable behaviour.
#[derive(Debug, Clone, Default)]
pub struct HubApp {
    /// Number of packets handled.
    pub packets_handled: u64,
}

impl ControllerApp for HubApp {
    fn name(&self) -> &str {
        "hub"
    }

    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        _env: &mut dyn Env,
        ctx: PacketInContext,
        _packet: &SymPacket,
    ) {
        self.packets_handled += 1;
        ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u64(self.packets_handled);
    }
}

/// A deliberately broken application that accepts the `packet_in` but never
/// tells the switch what to do with the buffered packet — the canonical
/// NoForgottenPackets violation.
#[derive(Debug, Clone, Default)]
pub struct ForgetfulApp;

impl ControllerApp for ForgetfulApp {
    fn name(&self) -> &str {
        "forgetful"
    }

    fn packet_in(
        &mut self,
        _ops: &mut dyn ControllerOps,
        _env: &mut dyn Env,
        _ctx: PacketInContext,
        _packet: &SymPacket,
    ) {
        // Deliberately does nothing: the buffered packet is forgotten.
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, _hasher: &mut Hasher64) {}
}

/// A minimal destination-MAC learning application that installs forwarding
/// rules matching only the destination address — the example Section 4 uses
/// to motivate NO-DELAY (installing such a rule hides new sources from the
/// controller). Used by strategy tests. Its MAC table is a [`SymMap`], so
/// symbolic execution discovers the "destination known" / "destination
/// unknown" / "destination aliases the just-learned source" packet classes.
#[derive(Debug, Clone, Default)]
pub struct DstOnlyLearningApp {
    table: SymMap<u16>,
}

impl ControllerApp for DstOnlyLearningApp {
    fn name(&self) -> &str {
        "dst-only-learning"
    }

    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        self.table
            .insert(packet.src_mac.clone(), ctx.in_port.value());
        match self.table.get(&packet.dst_mac, env) {
            Some(port) => {
                let dst = env.concretize(&packet.dst_mac);
                ops.install_rule(
                    ctx.switch,
                    RuleSpec::new(
                        MatchPattern::l2_dst_only(MacAddr(dst)),
                        vec![Action::Output(PortId(port))],
                    ),
                );
                ops.send_packet_out(
                    ctx.switch,
                    ctx.buffer_id,
                    ctx.in_port,
                    vec![Action::Output(PortId(port))],
                );
            }
            None => {
                ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
            }
        }
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        self.table.fingerprint(hasher);
    }
}

/// The layer-2 ping workload of Section 7 on the Figure 1 topology (host A —
/// switch 1 — switch 2 — host B) with the [`HubApp`] controller: host 1 sends
/// `pings` ping packets, host 2 echoes each of them.
pub fn hub_ping_scenario(pings: u32) -> Scenario {
    ping_scenario_with_app(Box::new(HubApp::default()), pings)
}

/// Same workload as [`hub_ping_scenario`] but with an arbitrary application.
pub fn ping_scenario_with_app(app: Box<dyn ControllerApp>, pings: u32) -> Scenario {
    let topology = Topology::linear_two_switches();
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();

    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(host_a, SendBudget::sends(pings))),
        Box::new(ClientHost::new(host_b, SendBudget::SILENT).with_echo()),
    ];

    let pings_script: Vec<Packet> = (0..pings)
        .map(|i| Packet::l2_ping(i as u64 + 1, host_a.mac, host_b.mac, i))
        .collect();

    Scenario::builder("hub-ping")
        .topology(topology)
        .app(app)
        .hosts(hosts)
        .scripted_sends([(HostId(1), pings_script)])
        .properties(default_properties())
        .build()
}

/// A single-switch scenario driven by symbolic packet discovery instead of a
/// script, used to exercise the `discover_packets` machinery end to end.
pub fn discovery_scenario(app: Box<dyn ControllerApp>, sends: u32) -> Scenario {
    let topology = Topology::single_switch(2);
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(host_a, SendBudget::sends(sends))),
        Box::new(ClientHost::new(host_b, SendBudget::SILENT).with_echo()),
    ];
    Scenario::builder("discovery")
        .topology(topology)
        .app(app)
        .hosts(hosts)
        .properties(default_properties())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SendPolicy;
    use nice_controller::ControllerRuntime;
    use nice_openflow::{BufferId, OfMessage, PacketInReason, SwitchId};

    #[test]
    fn hub_scenario_shape() {
        let s = hub_ping_scenario(3);
        assert_eq!(s.hosts.len(), 2);
        assert_eq!(s.topology.switch_count(), 2);
        match &s.send_policy {
            SendPolicy::Scripted(map) => assert_eq!(map.get(&HostId(1)).unwrap().len(), 3),
            SendPolicy::Discover => panic!("expected scripted policy"),
        }
        assert_eq!(s.properties.len(), 3);
    }

    #[test]
    fn hub_app_floods() {
        let mut rt = ControllerRuntime::new(Box::new(HubApp::default()));
        let out = rt.handle_message(&OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        });
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, OfMessage::PacketOut { .. }));
    }

    #[test]
    fn forgetful_app_produces_no_messages() {
        let mut rt = ControllerRuntime::new(Box::new(ForgetfulApp));
        let out = rt.handle_message(&OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn dst_only_learning_installs_rule_once_destination_known() {
        let mut rt = ControllerRuntime::new(Box::new(DstOnlyLearningApp::default()));
        let a_to_b = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let b_to_a = Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        // First packet: destination unknown → flood only.
        let out = rt.handle_message(&OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: a_to_b,
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        });
        assert_eq!(out.len(), 1);
        // Reply: destination (host 1) now known → install + packet_out.
        let out = rt.handle_message(&OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(2),
            packet: b_to_a,
            buffer_id: BufferId(2),
            reason: PacketInReason::NoMatch,
        });
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, OfMessage::FlowMod { .. }));
    }

    #[test]
    fn discovery_scenario_uses_discover_policy() {
        let s = discovery_scenario(Box::new(HubApp::default()), 1);
        assert!(s.send_policy.is_discover());
        assert_eq!(s.topology.switch_count(), 1);
    }
}
