//! The controller-application trait.
//!
//! Applications implement the same event handlers a NOX Python program
//! defines (Figure 3): `packet_in`, `switch_join`, `switch_leave`, plus the
//! statistics, barrier and port-status handlers used by the load balancer and
//! traffic-engineering applications. Handlers execute atomically (one handler
//! invocation is one model-checker transition) and interact with the network
//! only through [`crate::ops::ControllerOps`].
//!
//! Handlers receive their data-dependent inputs as possibly-symbolic values
//! and route any branching on them through [`nice_sym::Env`]. The model
//! checker calls them with concrete inputs and a [`nice_sym::ConcreteEnv`];
//! the `discover_packets` / `discover_stats` transitions call the *same
//! handler code* with symbolic inputs and a [`nice_sym::SymExecEnv`] — the
//! Rust equivalent of NICE testing unmodified applications.

use crate::ops::ControllerOps;
use nice_openflow::{BufferId, Hasher64, PacketInReason, PortId, SwitchId};
use nice_sym::{Env, SymPacket, SymStats};

/// The context of a `packet_in` event: where the packet showed up and which
/// switch buffer holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInContext {
    /// The switch that sent the packet to the controller.
    pub switch: SwitchId,
    /// The port the packet arrived on.
    pub in_port: PortId,
    /// The buffer slot holding the packet at the switch.
    pub buffer_id: BufferId,
    /// Why the switch sent the packet up (table miss or an explicit
    /// send-to-controller action). The load balancer of Section 8.2 branches
    /// on this "reason code", which is exactly what BUG-V gets wrong.
    pub reason: PacketInReason,
}

/// A controller application (the system under test).
///
/// `Send + Sync` is required because system states (which own a clone of the
/// application) migrate between the worker threads of the parallel search.
/// Applications are plain data — the bound is satisfied automatically unless
/// an implementation reaches for `Rc`/`RefCell`.
pub trait ControllerApp: Send + Sync {
    /// A short name used in traces and reports.
    fn name(&self) -> &str;

    /// Handles a packet arriving at the controller.
    fn packet_in(
        &mut self,
        ops: &mut dyn ControllerOps,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    );

    /// Handles a switch joining the network.
    fn switch_join(&mut self, _ops: &mut dyn ControllerOps, _switch: SwitchId, _ports: &[PortId]) {}

    /// Handles a switch leaving the network.
    fn switch_leave(&mut self, _ops: &mut dyn ControllerOps, _switch: SwitchId) {}

    /// Handles a port-statistics reply.
    fn port_stats_in(
        &mut self,
        _ops: &mut dyn ControllerOps,
        _env: &mut dyn Env,
        _switch: SwitchId,
        _stats: &SymStats,
    ) {
    }

    /// Handles a barrier reply.
    fn barrier_reply(&mut self, _ops: &mut dyn ControllerOps, _switch: SwitchId, _request_id: u64) {
    }

    /// Handles a port status change (link up/down).
    fn port_status(
        &mut self,
        _ops: &mut dyn ControllerOps,
        _switch: SwitchId,
        _port: PortId,
        _link_up: bool,
    ) {
    }

    /// Clones the application, including all controller state. The model
    /// checker clones applications when storing states on the search frontier
    /// and before every symbolic handler execution.
    fn clone_app(&self) -> Box<dyn ControllerApp>;

    /// Type-erased access to the concrete application, used by
    /// application-specific correctness properties (the Python-snippet
    /// properties of Section 5.1) to inspect controller state.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Absorbs the controller's global state into the system fingerprint.
    /// This is the `state(ctrl)` serialisation of Figure 5.
    fn fingerprint(&self, hasher: &mut Hasher64);

    /// True if the application issues statistics requests and therefore wants
    /// the model checker to explore symbolic statistics replies
    /// (`discover_stats`).
    fn uses_stats(&self) -> bool {
        false
    }

    /// Provenance ids of packets the application itself is holding for later
    /// re-delivery (for example a crash-recovery buffer of unconfirmed
    /// packet-outs). Liveness-style properties treat held packets as still in
    /// flight: the application can — and has promised to — resend them.
    fn held_packets(&self) -> Vec<nice_openflow::PacketId> {
        Vec::new()
    }

    /// Optional flow-independence oracle used by the FLOW-IR search strategy
    /// (Section 4): returns `true` if the two packets belong to the same
    /// logical flow, i.e. their relative ordering matters. Applications that
    /// do not care can keep the default (every pair is considered dependent,
    /// which makes FLOW-IR a no-op for them).
    fn is_same_flow(&self, _a: &nice_openflow::Packet, _b: &nice_openflow::Packet) -> bool {
        true
    }
}

impl Clone for Box<dyn ControllerApp> {
    fn clone(&self) -> Self {
        self.clone_app()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MessageSink;
    use nice_openflow::{MacAddr, Packet};
    use nice_sym::ConcreteEnv;

    /// A trivial hub application used to exercise the trait plumbing.
    #[derive(Debug, Clone, Default)]
    struct Hub {
        packets_seen: u64,
    }

    impl ControllerApp for Hub {
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
            self.packets_seen += 1;
            ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
        }

        fn clone_app(&self) -> Box<dyn ControllerApp> {
            Box::new(self.clone())
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn fingerprint(&self, hasher: &mut Hasher64) {
            hasher.write_u64(self.packets_seen);
        }
    }

    #[test]
    fn hub_floods_every_packet_and_default_handlers_are_noops() {
        let mut app = Hub::default();
        let mut sink = MessageSink::new(0);
        let mut env = ConcreteEnv::new();
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let ctx = PacketInContext {
            switch: SwitchId(1),
            in_port: PortId(1),
            buffer_id: BufferId(3),
            reason: PacketInReason::NoMatch,
        };
        app.packet_in(&mut sink, &mut env, ctx, &SymPacket::from_concrete(&pkt));
        assert_eq!(sink.messages().len(), 1);
        assert_eq!(app.packets_seen, 1);

        // Default handlers do nothing.
        app.switch_join(&mut sink, SwitchId(1), &[PortId(1)]);
        app.switch_leave(&mut sink, SwitchId(1));
        app.barrier_reply(&mut sink, SwitchId(1), 0);
        app.port_status(&mut sink, SwitchId(1), PortId(1), false);
        assert_eq!(sink.messages().len(), 1);
        assert!(!app.uses_stats());
        assert!(app.is_same_flow(&pkt, &pkt));
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut app = Hub { packets_seen: 9 };
        let boxed: Box<dyn ControllerApp> = app.clone_app();
        let cloned = boxed.clone();
        let mut h1 = Hasher64::new();
        let mut h2 = Hasher64::new();
        app.fingerprint(&mut h1);
        cloned.fingerprint(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        // Mutating the original does not affect the clone.
        app.packets_seen += 1;
        let mut h3 = Hasher64::new();
        app.fingerprint(&mut h3);
        assert_ne!(h2.finish(), h3.finish());
    }
}
