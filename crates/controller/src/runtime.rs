//! The controller runtime: owns the application, dispatches OpenFlow
//! messages to its handlers, and exposes the state fingerprint used for
//! state matching.

use crate::app::{ControllerApp, PacketInContext};
use crate::ops::MessageSink;
use nice_openflow::{Fingerprint, Hasher64, OfMessage, PortId, SwitchId};
use nice_sym::{ConcreteEnv, Env, SymPacket, SymStats};

/// The controller side of the modelled system.
///
/// One call to [`ControllerRuntime::handle_message`] is one atomic handler
/// execution (one `ctrl` transition in the model checker); the messages it
/// returns are then queued on the controller→switch channels by the caller.
pub struct ControllerRuntime {
    app: Box<dyn ControllerApp>,
    next_request_id: u64,
    /// Number of handler invocations executed so far (diagnostic only, not
    /// part of the semantic state, but included in the fingerprint to stay
    /// faithful to hashing "the controller program's global variables plus
    /// its execution history" — two states that differ only here have
    /// necessarily processed different message sequences).
    handled_events: u64,
}

impl Clone for ControllerRuntime {
    fn clone(&self) -> Self {
        ControllerRuntime {
            app: self.app.clone_app(),
            next_request_id: self.next_request_id,
            handled_events: self.handled_events,
        }
    }
}

impl std::fmt::Debug for ControllerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerRuntime")
            .field("app", &self.app.name())
            .field("next_request_id", &self.next_request_id)
            .field("handled_events", &self.handled_events)
            .finish()
    }
}

impl ControllerRuntime {
    /// Creates a runtime around an application.
    pub fn new(app: Box<dyn ControllerApp>) -> Self {
        ControllerRuntime {
            app,
            next_request_id: 1,
            handled_events: 0,
        }
    }

    /// The application's name.
    pub fn app_name(&self) -> &str {
        self.app.name()
    }

    /// Read-only access to the application (used by correctness properties
    /// that need application-specific state, and by FLOW-IR's
    /// `is_same_flow`).
    pub fn app(&self) -> &dyn ControllerApp {
        self.app.as_ref()
    }

    /// Downcasts the application to a concrete type; application-specific
    /// correctness properties use this to inspect controller state.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Number of handler invocations executed so far.
    pub fn handled_events(&self) -> u64 {
        self.handled_events
    }

    /// True if the application uses statistics (enables `discover_stats`).
    pub fn uses_stats(&self) -> bool {
        self.app.uses_stats()
    }

    /// Dispatches one switch-to-controller message to the appropriate handler
    /// with concrete inputs. Returns the OpenFlow messages the handler
    /// produced, in call order.
    pub fn handle_message(&mut self, msg: &OfMessage) -> Vec<(SwitchId, OfMessage)> {
        let mut sink = MessageSink::new(self.next_request_id);
        let mut env = ConcreteEnv::new();
        self.dispatch(msg, &mut sink, &mut env);
        self.handled_events += 1;
        let (messages, next_id) = sink.into_parts();
        self.next_request_id = next_id;
        messages
    }

    /// Runs the `packet_in` handler with an explicitly-provided (possibly
    /// symbolic) packet and environment, without recording the invocation in
    /// the runtime's counters. The `discover_packets` transition clones the
    /// runtime and calls this once per concolic execution.
    pub fn run_packet_in_symbolic(
        &mut self,
        env: &mut dyn Env,
        ctx: PacketInContext,
        packet: &SymPacket,
    ) -> Vec<(SwitchId, OfMessage)> {
        let mut sink = MessageSink::new(self.next_request_id);
        self.app.packet_in(&mut sink, env, ctx, packet);
        let (messages, _) = sink.into_parts();
        messages
    }

    /// Runs the statistics handler with explicitly-provided (possibly
    /// symbolic) statistics; used both by `discover_stats` and by the model
    /// checker when delivering a synthesised statistics reply.
    pub fn run_stats_in(
        &mut self,
        env: &mut dyn Env,
        switch: SwitchId,
        stats: &SymStats,
    ) -> Vec<(SwitchId, OfMessage)> {
        let mut sink = MessageSink::new(self.next_request_id);
        self.app.port_stats_in(&mut sink, env, switch, stats);
        self.handled_events += 1;
        let (messages, next_id) = sink.into_parts();
        self.next_request_id = next_id;
        messages
    }

    fn dispatch(&mut self, msg: &OfMessage, sink: &mut MessageSink, env: &mut dyn Env) {
        match msg {
            OfMessage::PacketIn {
                switch,
                in_port,
                packet,
                buffer_id,
                reason,
            } => {
                let ctx = PacketInContext {
                    switch: *switch,
                    in_port: *in_port,
                    buffer_id: *buffer_id,
                    reason: *reason,
                };
                let sym = SymPacket::from_concrete(packet);
                self.app.packet_in(sink, env, ctx, &sym);
            }
            OfMessage::SwitchJoin { switch, ports } => {
                self.app.switch_join(sink, *switch, ports);
            }
            OfMessage::SwitchLeave { switch } => {
                self.app.switch_leave(sink, *switch);
            }
            OfMessage::PortStatsReply {
                switch, entries, ..
            } => {
                let stats = SymStats::from_concrete(entries);
                self.app.port_stats_in(sink, env, *switch, &stats);
            }
            OfMessage::FlowStatsReply { switch, .. } => {
                // Flow-stats replies are delivered as an empty port-stats set;
                // none of the modelled applications distinguish them. Kept as
                // an explicit arm so extending it later is a local change.
                let stats = SymStats::from_concrete(&[]);
                self.app.port_stats_in(sink, env, *switch, &stats);
            }
            OfMessage::BarrierReply { switch, request_id } => {
                self.app.barrier_reply(sink, *switch, *request_id);
            }
            OfMessage::PortStatus {
                switch,
                port,
                link_up,
            } => {
                self.app.port_status(sink, *switch, *port, *link_up);
            }
            other => {
                debug_assert!(
                    other.is_switch_to_controller(),
                    "controller received a controller-to-switch message: {other}"
                );
            }
        }
    }

    /// Notifies the application of a port-status change directly (used by the
    /// model checker's link-failure transitions).
    pub fn notify_port_status(
        &mut self,
        switch: SwitchId,
        port: PortId,
        link_up: bool,
    ) -> Vec<(SwitchId, OfMessage)> {
        let mut sink = MessageSink::new(self.next_request_id);
        self.app.port_status(&mut sink, switch, port, link_up);
        self.handled_events += 1;
        let (messages, next_id) = sink.into_parts();
        self.next_request_id = next_id;
        messages
    }
}

impl Fingerprint for ControllerRuntime {
    fn fingerprint(&self, hasher: &mut Hasher64) {
        hasher.write_str(self.app.name());
        self.app.fingerprint(hasher);
        hasher.write_u64(self.next_request_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ControllerApp;
    use crate::ops::{ControllerOps, RuleSpec};
    use nice_openflow::{
        fingerprint_of, Action, BufferId, MacAddr, MatchPattern, Packet, PacketInReason,
        PortStatsEntry, StatsKind,
    };

    /// Minimal learning-style app used to exercise dispatch.
    #[derive(Debug, Clone, Default)]
    struct Recorder {
        packet_ins: u64,
        joins: u64,
        leaves: u64,
        stats: u64,
        barriers: u64,
        port_events: u64,
    }

    impl ControllerApp for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn packet_in(
            &mut self,
            ops: &mut dyn ControllerOps,
            _env: &mut dyn Env,
            ctx: PacketInContext,
            _packet: &SymPacket,
        ) {
            self.packet_ins += 1;
            ops.install_rule(
                ctx.switch,
                RuleSpec::new(MatchPattern::any(), vec![Action::Flood]),
            );
            ops.request_stats(ctx.switch, StatsKind::Port);
        }
        fn switch_join(
            &mut self,
            _ops: &mut dyn ControllerOps,
            _switch: SwitchId,
            _ports: &[PortId],
        ) {
            self.joins += 1;
        }
        fn switch_leave(&mut self, _ops: &mut dyn ControllerOps, _switch: SwitchId) {
            self.leaves += 1;
        }
        fn port_stats_in(
            &mut self,
            _ops: &mut dyn ControllerOps,
            _env: &mut dyn Env,
            _switch: SwitchId,
            _stats: &SymStats,
        ) {
            self.stats += 1;
        }
        fn barrier_reply(
            &mut self,
            _ops: &mut dyn ControllerOps,
            _switch: SwitchId,
            _request_id: u64,
        ) {
            self.barriers += 1;
        }
        fn port_status(
            &mut self,
            _ops: &mut dyn ControllerOps,
            _switch: SwitchId,
            _port: PortId,
            _link_up: bool,
        ) {
            self.port_events += 1;
        }
        fn clone_app(&self) -> Box<dyn ControllerApp> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn fingerprint(&self, hasher: &mut Hasher64) {
            hasher.write_u64(self.packet_ins);
            hasher.write_u64(self.joins);
            hasher.write_u64(self.leaves);
            hasher.write_u64(self.stats);
            hasher.write_u64(self.barriers);
            hasher.write_u64(self.port_events);
        }
        fn uses_stats(&self) -> bool {
            true
        }
    }

    fn packet_in_msg() -> OfMessage {
        OfMessage::PacketIn {
            switch: SwitchId(1),
            in_port: PortId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        }
    }

    #[test]
    fn dispatch_routes_messages_to_handlers() {
        let mut rt = ControllerRuntime::new(Box::new(Recorder::default()));
        assert_eq!(rt.app_name(), "recorder");
        assert!(rt.uses_stats());

        let out = rt.handle_message(&packet_in_msg());
        assert_eq!(out.len(), 2, "install + stats request");
        rt.handle_message(&OfMessage::SwitchJoin {
            switch: SwitchId(1),
            ports: vec![PortId(1)],
        });
        rt.handle_message(&OfMessage::SwitchLeave {
            switch: SwitchId(1),
        });
        rt.handle_message(&OfMessage::PortStatsReply {
            switch: SwitchId(1),
            request_id: 1,
            entries: vec![PortStatsEntry::zero(PortId(1))],
        });
        rt.handle_message(&OfMessage::FlowStatsReply {
            switch: SwitchId(1),
            request_id: 2,
            entries: vec![],
        });
        rt.handle_message(&OfMessage::BarrierReply {
            switch: SwitchId(1),
            request_id: 3,
        });
        rt.handle_message(&OfMessage::PortStatus {
            switch: SwitchId(1),
            port: PortId(1),
            link_up: false,
        });
        assert_eq!(rt.handled_events(), 7);
    }

    #[test]
    fn request_ids_persist_across_handler_invocations() {
        let mut rt = ControllerRuntime::new(Box::new(Recorder::default()));
        let first = rt.handle_message(&packet_in_msg());
        let second = rt.handle_message(&packet_in_msg());
        let id_of = |msgs: &[(SwitchId, OfMessage)]| {
            msgs.iter()
                .find_map(|(_, m)| match m {
                    OfMessage::StatsRequest { request_id, .. } => Some(*request_id),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(id_of(&first), id_of(&second));
    }

    #[test]
    fn clone_is_independent_and_fingerprint_tracks_state() {
        let mut rt = ControllerRuntime::new(Box::new(Recorder::default()));
        let baseline = fingerprint_of(&rt);
        let clone = rt.clone();
        assert_eq!(baseline, fingerprint_of(&clone));
        rt.handle_message(&packet_in_msg());
        assert_ne!(fingerprint_of(&rt), fingerprint_of(&clone));
        // The clone did not observe the event.
        assert_eq!(fingerprint_of(&clone), baseline);
    }

    #[test]
    fn symbolic_packet_in_does_not_mutate_counters() {
        let rt = ControllerRuntime::new(Box::new(Recorder::default()));
        let mut clone = rt.clone();
        let mut env = ConcreteEnv::new();
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let ctx = PacketInContext {
            switch: SwitchId(1),
            in_port: PortId(1),
            buffer_id: BufferId(1),
            reason: PacketInReason::NoMatch,
        };
        let msgs = clone.run_packet_in_symbolic(&mut env, ctx, &SymPacket::from_concrete(&pkt));
        assert_eq!(msgs.len(), 2);
        // The original runtime is untouched; the clone recorded no "handled
        // event" because symbolic exploration is not a system transition.
        assert_eq!(rt.handled_events(), 0);
        assert_eq!(clone.handled_events(), 0);
    }

    #[test]
    fn stats_and_port_status_direct_entry_points() {
        let mut rt = ControllerRuntime::new(Box::new(Recorder::default()));
        let mut env = ConcreteEnv::new();
        let stats = SymStats::from_concrete(&[PortStatsEntry::zero(PortId(1))]);
        rt.run_stats_in(&mut env, SwitchId(1), &stats);
        rt.notify_port_status(SwitchId(1), PortId(2), true);
        assert_eq!(rt.handled_events(), 2);
    }
}
