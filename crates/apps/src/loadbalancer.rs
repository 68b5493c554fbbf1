//! The web-server load balancer of Section 8.2.
//!
//! The application (modelled on "OpenFlow-Based Server Load Balancing Gone
//! Wild", Wang et al.) spreads client TCP connections addressed to a virtual
//! IP over a set of server replicas, answers ARP requests for the virtual IP
//! on the replicas' behalf, and can change its load-balancing policy at run
//! time; connections started before a policy change must keep their replica
//! (FlowAffinity), which the application approximates by treating a SYN seen
//! during the transition as the start of a new connection.
//!
//! Each bug the paper found is behind a configuration flag so that the model
//! checker can demonstrate both the violation and the fix:
//!
//! * **BUG-IV** (`bug_forget_packet_out`): the handler installs the
//!   per-connection rule but never releases the buffered packet that
//!   triggered it (`NoForgottenPackets`).
//! * **BUG-V** (`bug_ignore_unexpected_reason`): during a policy transition
//!   the handler ignores packets whose `packet_in` reason code is not the one
//!   it expects, leaving them in the switch buffer (`NoForgottenPackets`).
//! * **BUG-VI** (`bug_forget_arp_buffer`): the handler answers ARP requests
//!   for the virtual IP but never discards the buffered request
//!   (`NoForgottenPackets`).
//! * **BUG-VII** (inherent to the SYN heuristic): a duplicate SYN arriving
//!   during a policy transition re-assigns an existing connection to the new
//!   replica (`FlowAffinity`).

use crate::util::{connection_key, tcp_microflow_match};
use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
use nice_openflow::{
    Action, Fingerprint, Hasher64, MacAddr, NwAddr, Packet, PacketInReason, PortId,
};
use nice_sym::{Env, SymMap, SymPacket};

/// One server replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replica {
    /// The replica's MAC address.
    pub mac: MacAddr,
    /// The replica's real IP address.
    pub ip: NwAddr,
    /// The switch port the replica is attached to.
    pub port: PortId,
}

/// Static configuration of the load balancer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadBalancerConfig {
    /// The virtual IP clients connect to.
    pub vip: NwAddr,
    /// The virtual MAC answered in ARP replies for the VIP.
    pub vmac: MacAddr,
    /// The switch port the client is attached to (reply traffic is sent
    /// there).
    pub client_port: PortId,
    /// The server replicas, in policy order.
    pub replicas: Vec<Replica>,
    /// After this many handled TCP packets the policy flips from replica 0 to
    /// replica 1 and the application enters its transition phase (0 = never
    /// reconfigure).
    pub reconfigure_after: u32,
    /// BUG-IV: do not release the buffered packet after installing the rule.
    pub bug_forget_packet_out: bool,
    /// BUG-V: during a transition, ignore packets whose reason code is not
    /// the expected one.
    pub bug_ignore_unexpected_reason: bool,
    /// BUG-VI: do not discard buffered ARP requests after answering them.
    pub bug_forget_arp_buffer: bool,
}

impl LoadBalancerConfig {
    /// A correct (all fixes applied) configuration for the single-switch
    /// topology used in the paper's evaluation: client on port 1, two
    /// replicas on ports 2 and 3.
    pub fn correct(vip: NwAddr) -> Self {
        LoadBalancerConfig {
            vip,
            vmac: MacAddr(0x0200_0000_0100),
            client_port: PortId(1),
            replicas: vec![
                Replica {
                    mac: MacAddr::for_host(2),
                    ip: NwAddr::for_host(2),
                    port: PortId(2),
                },
                Replica {
                    mac: MacAddr::for_host(3),
                    ip: NwAddr::for_host(3),
                    port: PortId(3),
                },
            ],
            reconfigure_after: 0,
            bug_forget_packet_out: false,
            bug_ignore_unexpected_reason: false,
            bug_forget_arp_buffer: false,
        }
    }

    /// Enables a policy change after `n` handled TCP packets (builder style).
    pub fn with_reconfiguration_after(mut self, n: u32) -> Self {
        self.reconfigure_after = n;
        self
    }
}

/// The load-balancer controller application.
#[derive(Debug, Clone)]
pub struct LoadBalancerApp {
    config: LoadBalancerConfig,
    /// Handled TCP packets (drives the scripted policy change).
    packets_handled: u32,
    /// True once the policy change has started.
    in_transition: bool,
    /// Index of the replica new connections are assigned to.
    policy: u16,
    /// Connection → replica assignment, keyed by `(src_ip << 16) | src_port`.
    connections: SymMap<u16>,
}

impl LoadBalancerApp {
    /// Creates the application.
    pub fn new(config: LoadBalancerConfig) -> Self {
        LoadBalancerApp {
            config,
            packets_handled: 0,
            in_transition: false,
            policy: 0,
            connections: SymMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LoadBalancerConfig {
        &self.config
    }

    /// True once the application has entered its policy transition.
    pub fn in_transition(&self) -> bool {
        self.in_transition
    }

    /// Number of connections with a replica assignment.
    pub fn known_connections(&self) -> usize {
        self.connections.len()
    }

    fn handle_arp(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        let is_request_for_vip = packet
            .arp_op
            .eq_const(1)
            .and(&packet.dst_ip.eq_const(self.config.vip.value() as u64));
        if env.branch(&is_request_for_vip) {
            // Answer on behalf of the VIP.
            let requester_mac = MacAddr(env.concretize(&packet.src_mac));
            let requester_ip = NwAddr(env.concretize(&packet.src_ip) as u32);
            let reply = Packet::arp_reply(
                0,
                self.config.vmac,
                self.config.vip,
                requester_mac,
                requester_ip,
            );
            ops.send_packet(
                ctx.switch,
                reply,
                ctx.in_port,
                vec![Action::Output(ctx.in_port)],
            );
            if !self.config.bug_forget_arp_buffer {
                // Discard the buffered request (the fix for BUG-VI): an empty
                // action list tells the switch to drop it.
                ops.send_packet_out(ctx.switch, ctx.buffer_id, ctx.in_port, Vec::new());
            }
        } else {
            // Other ARP traffic (e.g. server-generated requests) is flooded.
            ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
        }
    }

    fn handle_tcp_to_vip(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        self.packets_handled += 1;
        if self.config.reconfigure_after > 0
            && !self.in_transition
            && self.packets_handled > self.config.reconfigure_after
        {
            self.in_transition = true;
            self.policy = 1 % self.config.replicas.len() as u16;
        }

        if self.in_transition
            && self.config.bug_ignore_unexpected_reason
            && ctx.reason == PacketInReason::NoMatch
        {
            // BUG-V: during the transition the application expects its
            // redirect rules to send packets up with reason=Action; a
            // NO_MATCH packet is "unexpected" and silently ignored, so the
            // buffered packet is never released.
            return;
        }

        let key = connection_key(packet);
        let existing = self.connections.get(&key, env);
        let is_syn = env.branch(&packet.is_syn());
        let replica_index = match existing {
            // BUG-VII: during a transition a SYN is assumed to start a new
            // connection and is re-assigned under the new policy, even if the
            // connection already has a replica.
            Some(index) if !(self.in_transition && is_syn) => index,
            _ => {
                let index = self.policy;
                self.connections.insert(key, index);
                index
            }
        };
        let replica = self.config.replicas[replica_index as usize];

        ops.install_rule(
            ctx.switch,
            RuleSpec::new(
                tcp_microflow_match(env, packet),
                vec![Action::Output(replica.port)],
            )
            .with_priority(200)
            .with_cookie(10 + replica_index as u64),
        );
        if !self.config.bug_forget_packet_out {
            // The fix for BUG-IV: also release the triggering packet.
            ops.send_packet_out(
                ctx.switch,
                ctx.buffer_id,
                ctx.in_port,
                vec![Action::Output(replica.port)],
            );
        }
    }
}

impl ControllerApp for LoadBalancerApp {
    fn name(&self) -> &str {
        "load-balancer"
    }

    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) {
        if env.branch(&packet.is_arp()) {
            self.handle_arp(ops, env, ctx, packet);
            return;
        }
        let tcp_to_vip = packet
            .is_tcp()
            .and(&packet.dst_ip.eq_const(self.config.vip.value() as u64));
        if env.branch(&tcp_to_vip) {
            self.handle_tcp_to_vip(ops, env, ctx, packet);
            return;
        }
        // Return traffic from the replicas (sourced from the VIP) goes back
        // to the client port.
        if env.branch(&packet.src_ip.eq_const(self.config.vip.value() as u64)) {
            ops.send_packet_out(
                ctx.switch,
                ctx.buffer_id,
                ctx.in_port,
                vec![Action::Output(self.config.client_port)],
            );
            return;
        }
        // Anything else is flooded.
        ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
    }

    fn clone_app(&self) -> Box<dyn ControllerApp> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_u32(self.packets_handled);
        hasher.write_bool(self.in_transition);
        hasher.write_u16(self.policy);
        self.connections.fingerprint(hasher);
    }

    fn is_same_flow(&self, a: &Packet, b: &Packet) -> bool {
        // Packets of the same TCP connection belong to the same flow, except
        // that (like the application itself) a SYN is treated as the start of
        // a new, independent flow — this is exactly why the FLOW-IR strategy
        // misses BUG-VII in the paper.
        let key = |p: &Packet| (p.src_ip, p.src_port, p.dst_ip, p.dst_port);
        key(a) == key(b) && a.tcp_flags.is_syn() == b.tcp_flags.is_syn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_controller::ControllerRuntime;
    use nice_openflow::{BufferId, OfMessage, SwitchId, TcpFlags};

    fn vip() -> NwAddr {
        NwAddr::from_octets(10, 0, 0, 100)
    }

    fn tcp_packet_in(src_port: u16, flags: TcpFlags, buffer: u64) -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::tcp(
                buffer,
                MacAddr::for_host(1),
                MacAddr(0x0200_0000_0100),
                NwAddr::for_host(1),
                vip(),
                src_port,
                80,
                flags,
                0,
            ),
            buffer_id: BufferId(buffer),
            reason: PacketInReason::NoMatch,
        }
    }

    fn arp_packet_in(buffer: u64) -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::arp_request(buffer, MacAddr::for_host(1), NwAddr::for_host(1), vip()),
            buffer_id: BufferId(buffer),
            reason: PacketInReason::NoMatch,
        }
    }

    #[test]
    fn tcp_connection_gets_rule_and_packet_out() {
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(
            LoadBalancerConfig::correct(vip()),
        )));
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 1));
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, OfMessage::FlowMod { .. }));
        match &out[1].1 {
            OfMessage::PacketOut { actions, .. } => {
                assert_eq!(
                    actions,
                    &vec![Action::Output(PortId(2))],
                    "policy 0 → replica on port 2"
                );
            }
            other => panic!("unexpected {other}"),
        }
        let app: &LoadBalancerApp = rt.app_as().unwrap();
        assert_eq!(app.known_connections(), 1);
    }

    #[test]
    fn bug_iv_forgets_the_triggering_packet() {
        let mut config = LoadBalancerConfig::correct(vip());
        config.bug_forget_packet_out = true;
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(config)));
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 1));
        assert_eq!(out.len(), 1, "only the flow_mod, no packet_out");
        assert!(matches!(out[0].1, OfMessage::FlowMod { .. }));
    }

    #[test]
    fn arp_request_for_vip_is_answered_and_buffer_discarded() {
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(
            LoadBalancerConfig::correct(vip()),
        )));
        let out = rt.handle_message(&arp_packet_in(1));
        assert_eq!(out.len(), 2);
        match &out[0].1 {
            OfMessage::PacketOut {
                packet: Some(reply),
                ..
            } => {
                assert_eq!(reply.arp_op, 2);
                assert_eq!(reply.src_ip, vip());
                assert_eq!(reply.dst_mac, MacAddr::for_host(1));
            }
            other => panic!("unexpected {other}"),
        }
        match &out[1].1 {
            OfMessage::PacketOut {
                buffer_id: Some(_),
                actions,
                ..
            } => {
                assert!(actions.is_empty(), "the buffered request is dropped");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn bug_vi_forgets_the_arp_buffer() {
        let mut config = LoadBalancerConfig::correct(vip());
        config.bug_forget_arp_buffer = true;
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(config)));
        let out = rt.handle_message(&arp_packet_in(1));
        assert_eq!(
            out.len(),
            1,
            "the reply is sent but the buffer is never released"
        );
    }

    #[test]
    fn bug_v_ignores_unexpected_reason_during_transition() {
        let mut config = LoadBalancerConfig::correct(vip()).with_reconfiguration_after(1);
        config.bug_ignore_unexpected_reason = true;
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(config)));
        // First packet: steady state, handled normally.
        assert_eq!(
            rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 1))
                .len(),
            2
        );
        // Second packet starts the transition and is then ignored because its
        // reason code is NO_MATCH.
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::ACK, 2));
        assert!(out.is_empty(), "BUG-V: the packet is silently ignored");
        let app: &LoadBalancerApp = rt.app_as().unwrap();
        assert!(app.in_transition());
    }

    #[test]
    fn bug_vii_duplicate_syn_reassigns_connection_during_transition() {
        let config = LoadBalancerConfig::correct(vip()).with_reconfiguration_after(1);
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(config)));
        // SYN before the transition: assigned to replica 0 (port 2).
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 1));
        assert!(matches!(&out[1].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortId(2))]));
        // Duplicate SYN after the transition threshold: re-assigned to
        // replica 1 (port 3) — the FlowAffinity violation the checker later
        // observes in the data plane.
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 2));
        assert!(matches!(&out[1].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortId(3))]));
        // A non-SYN packet of the same connection keeps its assignment even
        // during the transition.
        let config = LoadBalancerConfig::correct(vip()).with_reconfiguration_after(1);
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(config)));
        rt.handle_message(&tcp_packet_in(1000, TcpFlags::SYN, 1));
        let out = rt.handle_message(&tcp_packet_in(1000, TcpFlags::ACK, 2));
        assert!(matches!(&out[1].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortId(2))]));
    }

    #[test]
    fn replica_return_traffic_goes_to_the_client_port() {
        let mut rt = ControllerRuntime::new(Box::new(LoadBalancerApp::new(
            LoadBalancerConfig::correct(vip()),
        )));
        let reply = Packet::tcp(
            5,
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            vip(),
            NwAddr::for_host(1),
            80,
            1000,
            TcpFlags::SYN_ACK,
            0,
        );
        let out = rt.handle_message(&OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(2),
            packet: reply,
            buffer_id: BufferId(5),
            reason: PacketInReason::NoMatch,
        });
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0].1, OfMessage::PacketOut { actions, .. }
            if actions == &vec![Action::Output(PortId(1))]));
    }

    #[test]
    fn flow_independence_oracle() {
        let app = LoadBalancerApp::new(LoadBalancerConfig::correct(vip()));
        let syn = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            vip(),
            1000,
            80,
            TcpFlags::SYN,
            0,
        );
        let mut data = syn;
        data.tcp_flags = TcpFlags::ACK;
        let mut other_conn = syn;
        other_conn.src_port = 2000;
        assert!(app.is_same_flow(&syn, &syn));
        assert!(app.is_same_flow(&data, &data));
        assert!(
            !app.is_same_flow(&syn, &data),
            "a SYN starts an independent flow"
        );
        assert!(!app.is_same_flow(&syn, &other_conn));
    }
}
