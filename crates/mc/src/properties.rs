//! Correctness properties (Section 5).
//!
//! A property observes the events produced while transitions execute, may
//! keep local state, and is asked after every transition whether the current
//! system state violates it ([`Property::check`]); liveness-flavoured
//! properties that only make sense once the (finite) execution has run to
//! completion are additionally asked at terminal states
//! ([`Property::check_final`]).
//!
//! The library mirrors Section 5.2: [`NoForwardingLoops`], [`NoBlackHoles`],
//! [`DirectPaths`], [`StrictDirectPaths`] and [`NoForgottenPackets`], plus
//! the application-specific [`FlowAffinity`] property used for the load
//! balancer (Section 8.2). Application-specific properties like
//! `UseCorrectRoutingTable` live next to their application in `nice-apps`,
//! implemented against the same trait — the equivalent of the "Python code
//! snippets" the paper lets programmers register.
//!
//! The definitions are written to be robust to controller/switch
//! communication delays, as the paper warns: packets that were already in
//! flight when a path became established must not trigger `DirectPaths` /
//! `StrictDirectPaths` violations, so these properties only watch packets
//! *injected after* the relevant condition became true.

use crate::state::SystemState;
use nice_openflow::{HostId, Location, MatchPattern, Packet, PacketId, PortId, SwitchId};
use std::collections::{BTreeMap, BTreeSet};

/// An observable event produced while executing one transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A host injected a packet into the network (a `send` transition).
    PacketInjected {
        /// The sending host.
        host: HostId,
        /// The injected packet.
        packet: Packet,
    },
    /// A packet was handed to a host (the host's `receive` ran).
    PacketDeliveredToHost {
        /// The receiving host.
        host: HostId,
        /// The delivered packet.
        packet: Packet,
    },
    /// A switch dequeued a packet from one of its ingress channels.
    PacketArrivedAtSwitch {
        /// The processing switch.
        switch: SwitchId,
        /// The ingress port.
        port: PortId,
        /// The packet.
        packet: Packet,
    },
    /// A switch buffered a packet and sent a `packet_in` to the controller.
    PacketSentToController {
        /// The switch.
        switch: SwitchId,
        /// The packet.
        packet: Packet,
    },
    /// The controller executed its `packet_in` handler for a packet.
    ControllerHandledPacketIn {
        /// The switch the packet came from.
        switch: SwitchId,
        /// The ingress port at that switch.
        in_port: PortId,
        /// The packet.
        packet: Packet,
    },
    /// A packet was forwarded out of a port with nothing attached — a black
    /// hole.
    PacketLost {
        /// The switch that forwarded it.
        switch: SwitchId,
        /// The dead-end port.
        port: PortId,
        /// The packet.
        packet: Packet,
    },
    /// A packet was dropped by a flow rule (or an empty action list) in the
    /// data plane.
    PacketDroppedByRule {
        /// The switch.
        switch: SwitchId,
        /// The packet.
        packet: Packet,
    },
    /// A buffered packet was explicitly discarded on controller instruction
    /// (consumed by the controller — not a black hole).
    PacketDroppedByController {
        /// The switch.
        switch: SwitchId,
        /// The packet.
        packet: Packet,
    },
    /// A packet was flooded into `copies` directions.
    PacketFlooded {
        /// The flooding switch.
        switch: SwitchId,
        /// Number of copies created.
        copies: usize,
        /// The packet.
        packet: Packet,
    },
    /// A switch dropped a packet because its await-controller buffer was
    /// full.
    PacketBufferOverflow {
        /// The switch.
        switch: SwitchId,
        /// The packet.
        packet: Packet,
    },
    /// A rule was installed at a switch.
    RuleInstalled {
        /// The switch.
        switch: SwitchId,
        /// The rule's pattern.
        pattern: MatchPattern,
        /// The rule's priority.
        priority: u16,
    },
    /// Rules matching a pattern were removed at a switch.
    RuleDeleted {
        /// The switch.
        switch: SwitchId,
        /// The delete pattern.
        pattern: MatchPattern,
    },
    /// A mobile host moved.
    HostMoved {
        /// The host.
        host: HostId,
        /// Where it was.
        from: Location,
        /// Where it is now.
        to: Location,
    },
    /// A statistics reply (real or synthesised) reached the controller.
    StatsDeliveredToController {
        /// The switch the statistics describe.
        switch: SwitchId,
    },
}

/// A correctness property.
///
/// `Send + Sync` is required because property state is cloned alongside each
/// frontier state and checked on whichever worker thread expands the state.
pub trait Property: Send + Sync {
    /// The property's name, used in violation reports.
    fn name(&self) -> &str;

    /// Observes one event (called in order while a transition executes).
    fn on_event(&mut self, event: &Event, state: &SystemState);

    /// Checked after every transition; returns a violation message if the
    /// property is violated in `state`.
    fn check(&self, state: &SystemState) -> Option<String>;

    /// Checked at terminal states (no enabled transitions remain). Liveness
    /// and end-of-execution properties (e.g. `NoForgottenPackets`) implement
    /// this; safety properties can rely on the default.
    fn check_final(&self, _state: &SystemState) -> Option<String> {
        None
    }

    /// Clones the property together with its local state (the checker clones
    /// property state alongside each stored system state).
    fn clone_property(&self) -> Box<dyn Property>;
}

impl Clone for Box<dyn Property> {
    fn clone(&self) -> Self {
        self.clone_property()
    }
}

/// A key identifying one "flow" for the per-flow properties: the full
/// addressing five-tuple plus MAC addresses.
pub type FlowKey = (u64, u64, u32, u32, u8, u16, u16);

/// Derives the flow key of a packet.
pub fn flow_key(packet: &Packet) -> FlowKey {
    (
        packet.src_mac.value(),
        packet.dst_mac.value(),
        packet.src_ip.value(),
        packet.dst_ip.value(),
        packet.nw_proto.value(),
        packet.src_port,
        packet.dst_port,
    )
}

/// The flow key of the reverse direction of `key`.
pub fn reverse_flow_key(key: &FlowKey) -> FlowKey {
    (key.1, key.0, key.3, key.2, key.4, key.6, key.5)
}

// ---------------------------------------------------------------------------
// NoForwardingLoops
// ---------------------------------------------------------------------------

/// Asserts that no packet traverses the same `<switch, input port>` pair
/// twice.
#[derive(Debug, Clone, Default)]
pub struct NoForwardingLoops {
    seen: BTreeSet<(PacketId, SwitchId, PortId)>,
    violation: Option<String>,
}

impl NoForwardingLoops {
    /// Creates the property.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Property for NoForwardingLoops {
    fn name(&self) -> &str {
        "NoForwardingLoops"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if self.violation.is_some() {
            return;
        }
        if let Event::PacketArrivedAtSwitch {
            switch,
            port,
            packet,
        } = event
        {
            if !self.seen.insert((packet.id, *switch, *port)) {
                self.violation = Some(format!(
                    "packet {packet} traversed {switch}:{port} more than once (forwarding loop)"
                ));
            }
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        self.violation.clone()
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// NoBlackHoles
// ---------------------------------------------------------------------------

/// Asserts that no packet is silently lost inside the network: forwarding to
/// a dead-end port, dropping in the data plane, and buffer exhaustion are all
/// violations. Packets explicitly discarded on controller instruction count
/// as "consumed by the controller" and are allowed.
#[derive(Debug, Clone, Default)]
pub struct NoBlackHoles {
    violation: Option<String>,
}

impl NoBlackHoles {
    /// Creates the property.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Property for NoBlackHoles {
    fn name(&self) -> &str {
        "NoBlackHoles"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if self.violation.is_some() {
            return;
        }
        match event {
            Event::PacketLost {
                switch,
                port,
                packet,
            } => {
                self.violation = Some(format!(
                    "packet {packet} forwarded to dead-end port {switch}:{port} (black hole)"
                ));
            }
            Event::PacketDroppedByRule { switch, packet } => {
                self.violation = Some(format!(
                    "packet {packet} dropped by a flow rule at {switch}"
                ));
            }
            Event::PacketBufferOverflow { switch, packet } => {
                self.violation = Some(format!(
                    "packet {packet} dropped at {switch}: controller-await buffer exhausted"
                ));
            }
            _ => {}
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        self.violation.clone()
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// DirectPaths
// ---------------------------------------------------------------------------

/// Asserts that once a packet of a flow has been delivered, later packets of
/// the same flow do not go to the controller (the controller installed a
/// working path with the first packet).
#[derive(Debug, Clone, Default)]
pub struct DirectPaths {
    delivered_flows: BTreeSet<FlowKey>,
    watched_packets: BTreeSet<PacketId>,
    violation: Option<String>,
}

impl DirectPaths {
    /// Creates the property.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Property for DirectPaths {
    fn name(&self) -> &str {
        "DirectPaths"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if self.violation.is_some() {
            return;
        }
        match event {
            Event::PacketDeliveredToHost { packet, .. } => {
                self.delivered_flows.insert(flow_key(packet));
            }
            Event::PacketInjected { host, packet } => {
                // Only packets sent after the flow worked end-to-end are
                // required to stay on the fast path — this makes the property
                // robust to packets already in flight (Section 5.2). Spoofed
                // packets (source address not owned by the sender, which
                // symbolic discovery is free to generate) are not part of the
                // flow and are ignored.
                let legitimate = _state
                    .host(*host)
                    .map(|h| h.spec().mac == packet.src_mac)
                    .unwrap_or(false);
                if legitimate && self.delivered_flows.contains(&flow_key(packet)) {
                    self.watched_packets.insert(packet.id);
                }
            }
            Event::ControllerHandledPacketIn { packet, switch, .. }
                if self.watched_packets.contains(&packet.id) =>
            {
                self.violation = Some(format!(
                        "packet {packet} of an already-established flow reached the controller via {switch}"
                    ));
            }
            _ => {}
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        self.violation.clone()
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// StrictDirectPaths
// ---------------------------------------------------------------------------

/// Asserts that after two hosts have delivered at least one packet in each
/// direction, no later packet between them reaches the controller.
#[derive(Debug, Clone, Default)]
pub struct StrictDirectPaths {
    delivered_directions: BTreeSet<(u64, u64)>,
    established_pairs: BTreeSet<(u64, u64)>,
    watched_packets: BTreeSet<PacketId>,
    violation: Option<String>,
}

impl StrictDirectPaths {
    /// Creates the property.
    pub fn new() -> Self {
        Self::default()
    }

    fn pair_of(a: u64, b: u64) -> (u64, u64) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

impl Property for StrictDirectPaths {
    fn name(&self) -> &str {
        "StrictDirectPaths"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if self.violation.is_some() {
            return;
        }
        match event {
            Event::PacketDeliveredToHost { packet, .. } => {
                let fwd = (packet.src_mac.value(), packet.dst_mac.value());
                let rev = (fwd.1, fwd.0);
                self.delivered_directions.insert(fwd);
                if self.delivered_directions.contains(&rev) {
                    self.established_pairs.insert(Self::pair_of(fwd.0, fwd.1));
                }
            }
            Event::PacketInjected { host, packet } => {
                // As for DirectPaths: only legitimately-sourced packets are
                // held to the established-path requirement.
                let legitimate = _state
                    .host(*host)
                    .map(|h| h.spec().mac == packet.src_mac)
                    .unwrap_or(false);
                let pair = Self::pair_of(packet.src_mac.value(), packet.dst_mac.value());
                if legitimate && self.established_pairs.contains(&pair) {
                    self.watched_packets.insert(packet.id);
                }
            }
            Event::ControllerHandledPacketIn { packet, switch, .. }
                if self.watched_packets.contains(&packet.id) =>
            {
                self.violation = Some(format!(
                        "packet {packet} between hosts with established two-way paths reached the controller via {switch}"
                    ));
            }
            _ => {}
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        self.violation.clone()
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// NoForgottenPackets
// ---------------------------------------------------------------------------

/// Asserts that at the end of the execution every switch buffer is empty: a
/// program that neglects to tell a switch what to do with a buffered packet
/// violates this.
#[derive(Debug, Clone, Default)]
pub struct NoForgottenPackets;

impl NoForgottenPackets {
    /// Creates the property.
    pub fn new() -> Self {
        Self
    }
}

impl Property for NoForgottenPackets {
    fn name(&self) -> &str {
        "NoForgottenPackets"
    }

    fn on_event(&mut self, _event: &Event, _state: &SystemState) {}

    fn check(&self, _state: &SystemState) -> Option<String> {
        None
    }

    fn check_final(&self, state: &SystemState) -> Option<String> {
        for (id, switch) in state.switches() {
            let count = switch.buffered_count();
            if count > 0 {
                let sample = switch
                    .buffered_packets()
                    .next()
                    .map(|(_, bp)| bp.packet.to_string())
                    .unwrap_or_default();
                return Some(format!(
                    "{count} packet(s) forgotten in the buffer of {id} at the end of execution (e.g. {sample})"
                ));
            }
        }
        None
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// NoAbandonedPackets
// ---------------------------------------------------------------------------

/// Asserts that every packet the controller took charge of (by executing its
/// `packet_in` handler) is eventually delivered to some host or explicitly
/// discarded on controller instruction.
///
/// This is the end-to-end delivery obligation that fault injection stresses:
/// without faults, a correct controller satisfies it trivially, but a switch
/// crash can wipe a `packet_out` (or the buffered packet it refers to) after
/// the controller has already acknowledged the packet — a controller that
/// does not re-send on reconnect silently loses it.
#[derive(Debug, Clone, Default)]
pub struct NoAbandonedPackets {
    pending: BTreeMap<PacketId, String>,
}

impl NoAbandonedPackets {
    /// Creates the property.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Property for NoAbandonedPackets {
    fn name(&self) -> &str {
        "NoAbandonedPackets"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        match event {
            Event::ControllerHandledPacketIn { packet, switch, .. } => {
                self.pending
                    .insert(packet.id, format!("{packet} acknowledged via {switch}"));
            }
            Event::PacketDeliveredToHost { packet, .. }
            | Event::PacketDroppedByController { packet, .. } => {
                self.pending.remove(&packet.id);
            }
            _ => {}
        }
    }

    fn check(&self, state: &SystemState) -> Option<String> {
        // Detect the exact transition that *loses* an acknowledged packet:
        // once it is traceable nowhere (no channel, no switch buffer, no host
        // inbox, not held by the application for re-delivery), no later
        // transition can deliver it. Checking at every step — rather than only
        // in final states — matters for soundness: the checker deduplicates on
        // the system fingerprint, which does not include property history, so
        // a lossy branch may converge with a benign one before termination.
        self.pending.iter().find_map(|(id, sample)| {
            (!state.is_packet_in_flight(*id))
                .then(|| format!("controller-acknowledged packet lost: {sample}"))
        })
    }

    fn check_final(&self, _state: &SystemState) -> Option<String> {
        // Backstop for packets that stay traceable forever without being
        // delivered (e.g. an application that holds a packet but never
        // re-sends it).
        let (_, sample) = self.pending.first_key_value()?;
        Some(format!(
            "{} controller-acknowledged packet(s) never reached a host (e.g. {sample})",
            self.pending.len()
        ))
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// FlowAffinity (application-specific, load balancer)
// ---------------------------------------------------------------------------

/// Asserts that every packet of a single TCP connection is delivered to the
/// same server replica (the load-balancer property of Section 8.2).
#[derive(Debug, Clone)]
pub struct FlowAffinity {
    servers: BTreeSet<HostId>,
    assignment: BTreeMap<(u32, u16), HostId>,
    violation: Option<String>,
}

impl FlowAffinity {
    /// Creates the property; `servers` are the replica hosts.
    pub fn new(servers: impl IntoIterator<Item = HostId>) -> Self {
        FlowAffinity {
            servers: servers.into_iter().collect(),
            assignment: BTreeMap::new(),
            violation: None,
        }
    }
}

impl Property for FlowAffinity {
    fn name(&self) -> &str {
        "FlowAffinity"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if self.violation.is_some() {
            return;
        }
        if let Event::PacketDeliveredToHost { host, packet } = event {
            if !self.servers.contains(host) || !packet.is_tcp() {
                return;
            }
            let conn = (packet.src_ip.value(), packet.src_port);
            match self.assignment.get(&conn) {
                None => {
                    self.assignment.insert(conn, *host);
                }
                Some(existing) if existing != host => {
                    self.violation = Some(format!(
                        "connection {}:{} split across replicas {existing} and {host} (packet {packet})",
                        packet.src_ip, packet.src_port
                    ));
                }
                Some(_) => {}
            }
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        self.violation.clone()
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

/// The default property set applied when the user does not pick specific
/// properties: the safety properties that make sense for any application.
pub fn default_properties() -> Vec<Box<dyn Property>> {
    vec![
        Box::new(NoForwardingLoops::new()),
        Box::new(NoBlackHoles::new()),
        Box::new(NoForgottenPackets::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_openflow::{MacAddr, NwAddr, TcpFlags};

    fn empty_state() -> SystemState {
        // A minimal state for property unit tests (no traffic).
        let scenario = crate::testutil::hub_ping_scenario(1);
        SystemState::initial(&scenario)
    }

    fn ping(id: u64, src: u32, dst: u32) -> Packet {
        Packet::l2_ping(id, MacAddr::for_host(src), MacAddr::for_host(dst), 0)
    }

    #[test]
    fn no_forwarding_loops_detects_repeated_traversal() {
        let state = empty_state();
        let mut p = NoForwardingLoops::new();
        let pkt = ping(1, 1, 2);
        let ev = Event::PacketArrivedAtSwitch {
            switch: SwitchId(1),
            port: PortId(2),
            packet: pkt,
        };
        p.on_event(&ev, &state);
        assert!(p.check(&state).is_none());
        // Same packet, different port: fine.
        p.on_event(
            &Event::PacketArrivedAtSwitch {
                switch: SwitchId(1),
                port: PortId(3),
                packet: pkt,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // Same (switch, port) again: loop.
        p.on_event(&ev, &state);
        let msg = p.check(&state).expect("violation");
        assert!(msg.contains("loop"));
    }

    #[test]
    fn no_black_holes_flags_losses_but_not_controller_drops() {
        let state = empty_state();
        let pkt = ping(1, 1, 2);
        let mut p = NoBlackHoles::new();
        p.on_event(
            &Event::PacketDroppedByController {
                switch: SwitchId(1),
                packet: pkt,
            },
            &state,
        );
        assert!(
            p.check(&state).is_none(),
            "controller-instructed drops are allowed"
        );
        p.on_event(
            &Event::PacketLost {
                switch: SwitchId(2),
                port: PortId(1),
                packet: pkt,
            },
            &state,
        );
        assert!(p.check(&state).unwrap().contains("black hole"));

        let mut p = NoBlackHoles::new();
        p.on_event(
            &Event::PacketDroppedByRule {
                switch: SwitchId(1),
                packet: pkt,
            },
            &state,
        );
        assert!(p.check(&state).is_some());

        let mut p = NoBlackHoles::new();
        p.on_event(
            &Event::PacketBufferOverflow {
                switch: SwitchId(1),
                packet: pkt,
            },
            &state,
        );
        assert!(p.check(&state).unwrap().contains("buffer"));
    }

    #[test]
    fn direct_paths_ignores_in_flight_packets() {
        let state = empty_state();
        let mut p = DirectPaths::new();
        let first = ping(1, 1, 2);
        // The first packet of the flow reaches the controller: fine.
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(1),
                in_port: PortId(1),
                packet: first,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // Flow becomes established.
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: first,
            },
            &state,
        );
        // A packet that was injected *before* establishment (never marked as
        // watched) hitting the controller is not a violation.
        let inflight = ping(2, 1, 2);
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(2),
                in_port: PortId(2),
                packet: inflight,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // A packet injected after establishment must not reach the controller.
        let later = ping(3, 1, 2);
        p.on_event(
            &Event::PacketInjected {
                host: HostId(1),
                packet: later,
            },
            &state,
        );
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(1),
                in_port: PortId(1),
                packet: later,
            },
            &state,
        );
        assert!(p.check(&state).is_some());
    }

    #[test]
    fn strict_direct_paths_requires_both_directions() {
        let state = empty_state();
        let mut p = StrictDirectPaths::new();
        let fwd = ping(1, 1, 2);
        let rev = ping(2, 2, 1);
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: fwd,
            },
            &state,
        );
        // Only one direction delivered: a later packet may still go to the
        // controller.
        let next = ping(3, 1, 2);
        p.on_event(
            &Event::PacketInjected {
                host: HostId(1),
                packet: next,
            },
            &state,
        );
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(1),
                in_port: PortId(1),
                packet: next,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // Second direction delivered: pair established.
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(1),
                packet: rev,
            },
            &state,
        );
        let later = ping(4, 2, 1);
        p.on_event(
            &Event::PacketInjected {
                host: HostId(2),
                packet: later,
            },
            &state,
        );
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(2),
                in_port: PortId(1),
                packet: later,
            },
            &state,
        );
        assert!(p.check(&state).is_some());
    }

    #[test]
    fn no_forgotten_packets_checks_terminal_buffers() {
        let scenario = crate::testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let p = NoForgottenPackets::new();
        assert!(p.check_final(&state).is_none());
        // Park a packet in a switch buffer by processing it with no rules.
        let pkt = ping(1, 1, 2);
        state
            .switch_mut(SwitchId(1))
            .unwrap()
            .process_packet(pkt, PortId(1));
        assert!(p.check_final(&state).unwrap().contains("forgotten"));
        assert!(
            p.check(&state).is_none(),
            "only terminal states are checked"
        );
    }

    #[test]
    fn no_abandoned_packets_demands_delivery_after_controller_ack() {
        let mut state = empty_state();
        let mut p = NoAbandonedPackets::new();
        let pkt = ping(1, 1, 2);
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(1),
                in_port: PortId(1),
                packet: pkt,
            },
            &state,
        );
        // While the packet is still traceable (here: in a host inbox) the
        // obligation is open but not violated.
        state.enqueue_host(HostId(2), pkt);
        assert!(
            p.check(&state).is_none(),
            "a traceable packet can still be delivered"
        );
        assert!(
            p.check_final(&state).unwrap().contains("never reached"),
            "an acknowledged but undelivered packet violates at the end"
        );
        // Once the packet is traceable nowhere, the loss is flagged at the
        // very transition that dropped it.
        state.host_inbox_mut(HostId(2)).pop();
        assert!(
            p.check(&state).unwrap().contains("lost"),
            "an untraceable acknowledged packet is flagged mid-run"
        );
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: pkt,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        assert!(p.check_final(&state).is_none());

        // An explicit controller drop also discharges the obligation.
        let dropped = ping(2, 1, 2);
        p.on_event(
            &Event::ControllerHandledPacketIn {
                switch: SwitchId(1),
                in_port: PortId(1),
                packet: dropped,
            },
            &state,
        );
        p.on_event(
            &Event::PacketDroppedByController {
                switch: SwitchId(1),
                packet: dropped,
            },
            &state,
        );
        assert!(p.check_final(&state).is_none());
    }

    #[test]
    fn flow_affinity_tracks_connection_to_replica_mapping() {
        let state = empty_state();
        let mut p = FlowAffinity::new([HostId(2), HostId(3)]);
        let vip = NwAddr::from_octets(10, 0, 0, 100);
        let syn = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            vip,
            1234,
            80,
            TcpFlags::SYN,
            0,
        );
        let data = Packet::tcp(
            2,
            MacAddr::for_host(1),
            MacAddr::for_host(3),
            NwAddr::for_host(1),
            vip,
            1234,
            80,
            TcpFlags::ACK,
            1,
        );
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: syn,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // Same connection delivered to the same replica: fine.
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: data,
            },
            &state,
        );
        assert!(p.check(&state).is_none());
        // Same connection delivered to the other replica: violation.
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(3),
                packet: data,
            },
            &state,
        );
        assert!(p.check(&state).unwrap().contains("split"));

        // Deliveries to non-server hosts or non-TCP packets are ignored.
        let mut p = FlowAffinity::new([HostId(2)]);
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(9),
                packet: data,
            },
            &state,
        );
        p.on_event(
            &Event::PacketDeliveredToHost {
                host: HostId(2),
                packet: ping(5, 1, 2),
            },
            &state,
        );
        assert!(p.check(&state).is_none());
    }

    #[test]
    fn flow_key_reversal() {
        let pkt = Packet::tcp(
            1,
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            NwAddr::for_host(1),
            NwAddr::for_host(2),
            10,
            20,
            TcpFlags::SYN,
            0,
        );
        let key = flow_key(&pkt);
        let rev = reverse_flow_key(&key);
        assert_eq!(reverse_flow_key(&rev), key);
        assert_eq!(rev.0, key.1);
        assert_eq!(rev.5, key.6);
    }

    #[test]
    fn default_properties_cover_generic_safety() {
        let props = default_properties();
        let names: Vec<&str> = props.iter().map(|p| p.name()).collect();
        assert!(names.contains(&"NoForwardingLoops"));
        assert!(names.contains(&"NoBlackHoles"));
        assert!(names.contains(&"NoForgottenPackets"));
        // Cloning preserves names.
        let cloned: Vec<Box<dyn Property>> = props.clone();
        assert_eq!(cloned.len(), props.len());
    }
}
