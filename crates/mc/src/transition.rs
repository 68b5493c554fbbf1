//! System transitions: what can happen in a state and what happens when it
//! does.
//!
//! The transitions mirror Section 2.2 and Figure 5: host `send` / `receive` /
//! `move`, the switch `process_pkt` and `process_of` transitions, controller
//! handler executions, and the special `discover_packets` / `discover_stats`
//! transitions that run the concolic engine to uncover new relevant inputs.

use crate::properties::Event;
use crate::scenario::{CheckerConfig, Scenario, SendPolicy};
use crate::state::SystemState;
use nice_controller::PacketInContext;
use nice_openflow::{
    BufferId, ChannelFault, FifoChannel, ForwardingDecision, HostId, Location, OfMessage, Packet,
    PacketId, PortId, PortStatsEntry, SwitchId, SwitchOutput, Topology,
};
use nice_sym::{ConcreteEnv, ExploreConfig, PathExplorer, Solver, SymPacket, SymStats};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A single system transition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Transition {
    /// A host injects a packet (one of its scripted or discovered packets).
    HostSend {
        /// The sending host.
        host: HostId,
        /// The packet to inject (its provenance id is reassigned on
        /// execution).
        packet: Packet,
    },
    /// A host consumes the packet at the head of its inbox.
    HostReceive {
        /// The receiving host.
        host: HostId,
    },
    /// A mobile host relocates.
    HostMove {
        /// The moving host.
        host: HostId,
        /// Its new attachment point.
        to: Location,
    },
    /// A switch processes the packet at the head of every busy ingress
    /// channel (the paper's `process_pkt` transition).
    ProcessPacket {
        /// The switch.
        switch: SwitchId,
    },
    /// A switch processes the next OpenFlow message from the controller
    /// (`process_of`).
    ProcessOf {
        /// The switch.
        switch: SwitchId,
    },
    /// The controller handles the next message from a switch (one atomic
    /// handler execution).
    ControllerHandle {
        /// The switch whose channel is serviced.
        switch: SwitchId,
    },
    /// Symbolically execute the `packet_in` handler to discover the relevant
    /// packets a host can send in the current controller state.
    DiscoverPackets {
        /// The client host.
        host: HostId,
    },
    /// Symbolically execute the statistics handler to discover relevant
    /// statistics replies.
    DiscoverStats {
        /// The switch whose statistics are awaited.
        switch: SwitchId,
    },
    /// Deliver one discovered statistics reply to the controller
    /// (`process_stats` with a symbolic-execution-derived input).
    InjectStats {
        /// The switch the statistics describe.
        switch: SwitchId,
        /// The concrete statistics values.
        stats: Vec<PortStatsEntry>,
    },
    /// Inject a channel fault (drop / duplicate / reorder the head, or fail
    /// the link) on a fault-enabled ingress channel. Consumes one unit of
    /// the fault budget.
    ChannelFault {
        /// The switch owning the ingress channel.
        switch: SwitchId,
        /// The ingress port.
        port: PortId,
        /// The fault to apply.
        fault: ChannelFault,
    },
    /// A switch crashes: flow table and buffers wiped, in-flight channels
    /// lost, control channel down until a reconnect. Consumes one unit of
    /// the fault budget.
    SwitchCrash {
        /// The crashing switch.
        switch: SwitchId,
    },
    /// A crashed switch reconnects and re-handshakes with the controller
    /// (queues its `switch_join`). Recovery, not a fault: budget-free.
    SwitchReconnect {
        /// The reconnecting switch.
        switch: SwitchId,
    },
}

impl Transition {
    /// A short label naming the transition kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Transition::HostSend { .. } => "host_send",
            Transition::HostReceive { .. } => "host_receive",
            Transition::HostMove { .. } => "host_move",
            Transition::ProcessPacket { .. } => "process_pkt",
            Transition::ProcessOf { .. } => "process_of",
            Transition::ControllerHandle { .. } => "ctrl_handle",
            Transition::DiscoverPackets { .. } => "discover_packets",
            Transition::DiscoverStats { .. } => "discover_stats",
            Transition::InjectStats { .. } => "process_stats",
            Transition::ChannelFault { .. } => "channel_fault",
            Transition::SwitchCrash { .. } => "switch_crash",
            Transition::SwitchReconnect { .. } => "switch_reconnect",
        }
    }

    /// Index of the per-kind injected-fault counter this transition bumps
    /// (see [`FaultStats`](crate::checker::FaultStats)), or `None` for
    /// ordinary transitions.
    pub fn fault_counter_index(&self) -> Option<usize> {
        match self {
            Transition::ChannelFault { fault, .. } => Some(match fault {
                ChannelFault::DropHead => 0,
                ChannelFault::DuplicateHead => 1,
                ChannelFault::ReorderHead => 2,
                ChannelFault::FailLink => 3,
            }),
            Transition::SwitchCrash { .. } => Some(4),
            Transition::SwitchReconnect { .. } => Some(5),
            _ => None,
        }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transition::HostSend { host, packet } => write!(f, "{host} send {packet}"),
            Transition::HostReceive { host } => write!(f, "{host} receive"),
            Transition::HostMove { host, to } => write!(f, "{host} move to {to}"),
            Transition::ProcessPacket { switch } => write!(f, "{switch} process_pkt"),
            Transition::ProcessOf { switch } => write!(f, "{switch} process_of"),
            Transition::ControllerHandle { switch } => write!(f, "ctrl handle msg from {switch}"),
            Transition::DiscoverPackets { host } => write!(f, "discover_packets({host})"),
            Transition::DiscoverStats { switch } => write!(f, "discover_stats({switch})"),
            Transition::InjectStats { switch, stats } => {
                write!(f, "process_stats({switch}, {} ports)", stats.len())
            }
            Transition::ChannelFault {
                switch,
                port,
                fault,
            } => write!(f, "inject {fault:?} on {switch}:{port}"),
            Transition::SwitchCrash { switch } => write!(f, "{switch} crash"),
            Transition::SwitchReconnect { switch } => write!(f, "{switch} reconnect"),
        }
    }
}

/// What symbolic execution found, keyed by what it depends on: the
/// controller state (by fingerprint) plus the port a packet arrives on or
/// the switch whose statistics are read.
#[derive(Debug, Default)]
struct Discoveries {
    packets: BTreeMap<(u64, SwitchId, PortId), Vec<Packet>>,
    stats: BTreeMap<(u64, SwitchId), Vec<Vec<PortStatsEntry>>>,
}

/// Memoises the results of symbolic execution, so that reaching the same
/// controller state again — on another branch, in another worker, in
/// another replay — does not re-run the concolic engine.
///
/// The results live in one lock-protected cache the memo holds by `Arc`.
/// A search hands every worker a memo sharing one cache (`sharing`),
/// and so do `minimize` and `bisect` for every replay and branch they run;
/// a memo made by [`Default`] starts a cache of its own. Each memo counts
/// its own cache misses. Two workers racing on the same key can both run
/// the concolic engine once (the race is benign — both compute the same
/// deterministic result), so `symbolic_executions` totals are
/// schedule-dependent under `workers > 1`.
#[derive(Debug, Default)]
pub struct DiscoveryMemo {
    cache: Arc<Mutex<Discoveries>>,
    /// Number of concolic explorations this memo actually executed (cache
    /// misses).
    pub symbolic_executions: u64,
}

impl DiscoveryMemo {
    /// A memo over this memo's cache, with a count of its own.
    pub(crate) fn sharing(&self) -> DiscoveryMemo {
        DiscoveryMemo {
            cache: Arc::clone(&self.cache),
            symbolic_executions: 0,
        }
    }

    /// Locks the cache, recovering it from a panicked holder: every entry
    /// is inserted whole.
    fn cache(&self) -> MutexGuard<'_, Discoveries> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Computes the transitions enabled in `state`.
pub fn enabled_transitions(
    state: &SystemState,
    scenario: &Scenario,
    config: &CheckerConfig,
) -> Vec<Transition> {
    let mut out = Vec::new();
    enabled_transitions_into(state, scenario, config, &mut out);
    out
}

/// [`enabled_transitions`] in place of `out`'s contents (a reused buffer).
pub(crate) fn enabled_transitions_into(
    state: &SystemState,
    scenario: &Scenario,
    config: &CheckerConfig,
    out: &mut Vec<Transition>,
) {
    out.clear();
    let ctrl_fp = state.controller_fingerprint();

    // Host transitions.
    for (host_id, host) in state.hosts() {
        if host.can_send() {
            match &scenario.send_policy {
                SendPolicy::Scripted(scripts) => {
                    if let Some(script) = scripts.get(&host_id) {
                        let next = host.sent_count() as usize;
                        if next < script.len() {
                            out.push(Transition::HostSend {
                                host: host_id,
                                packet: script[next],
                            });
                        }
                    }
                }
                SendPolicy::Discover => match state.relevant_packets(host_id, ctrl_fp) {
                    Some(packets) => {
                        for packet in packets {
                            out.push(Transition::HostSend {
                                host: host_id,
                                packet: *packet,
                            });
                        }
                    }
                    None => out.push(Transition::DiscoverPackets { host: host_id }),
                },
            }
        }
        if state.host_inbox(host_id).is_some_and(|ch| !ch.is_empty()) {
            out.push(Transition::HostReceive { host: host_id });
        }
        for target in host.move_targets() {
            out.push(Transition::HostMove {
                host: host_id,
                to: target,
            });
        }
    }

    // Switch and controller transitions.
    for (switch_id, _) in state.switches() {
        if state.busy_ingress_ports(switch_id).next().is_some() {
            out.push(Transition::ProcessPacket { switch: switch_id });
        }
        if state.ctrl_to_sw(switch_id).is_some_and(|ch| !ch.is_empty()) {
            out.push(Transition::ProcessOf { switch: switch_id });
        }
        if state.sw_to_ctrl(switch_id).is_some_and(|ch| !ch.is_empty()) {
            out.push(Transition::ControllerHandle { switch: switch_id });
        }
        if state.controller().uses_stats() && state.stats_pending(switch_id) {
            match state.discovered_stats(switch_id, ctrl_fp) {
                Some(replies) => {
                    for stats in replies {
                        out.push(Transition::InjectStats {
                            switch: switch_id,
                            stats: stats.clone(),
                        });
                    }
                }
                None => out.push(Transition::DiscoverStats { switch: switch_id }),
            }
        }
    }

    // Fault transitions: generated only when the checker opts in and the
    // scenario plans at least one fault class. With faults off this block
    // costs nothing, keeping the search bit-identical to a fault-unaware
    // checker.
    let plan = &scenario.fault_plan;
    if config.inject_faults && plan.any_enabled() {
        let budget_left = state.fault_budget() > 0;
        let model = plan.channel_model();
        let idle = FifoChannel::new();
        for (switch_id, switch) in state.switches() {
            if state.is_crashed(switch_id) {
                // A crashed switch can only come back; recovery is
                // budget-free so a crash can never strand the system.
                out.push(Transition::SwitchReconnect { switch: switch_id });
                continue;
            }
            if !budget_left {
                continue;
            }
            if plan.switch_crash {
                out.push(Transition::SwitchCrash { switch: switch_id });
            }
            // The plan, not the channel, says which faults a link allows; a
            // port with no channel in the state has an idle one, whose link
            // can fail.
            if model.any_enabled() {
                for &port in switch.ports.iter() {
                    let channel = state.ingress(switch_id, port).unwrap_or(&idle);
                    out.extend(channel.enabled_faults(model).map(|fault| {
                        Transition::ChannelFault {
                            switch: switch_id,
                            port,
                            fault,
                        }
                    }));
                }
            }
        }
    }
}

/// Executes one transition, mutating `state` and appending the observable
/// events to `events`. What a transition does no longer depends on the
/// search configuration; the parameter stays because `benchmark/`'s probe
/// binds this signature.
pub fn execute(
    state: &mut SystemState,
    transition: &Transition,
    scenario: &Scenario,
    _config: &CheckerConfig,
    memo: &mut DiscoveryMemo,
    events: &mut Vec<Event>,
) {
    match transition {
        Transition::HostSend { host, packet } => {
            let id = state.alloc_packet_id();
            let mut packet = *packet;
            packet.id = PacketId(id);
            let location = {
                let h = state.host_mut(*host).expect("unknown host in transition");
                h.note_sent(&packet);
                h.location()
            };
            events.push(Event::PacketInjected {
                host: *host,
                packet,
            });
            state.enqueue_ingress(location.switch, location.port, packet);
        }

        Transition::HostReceive { host } => {
            let packet = state
                .pop_host_inbox(*host)
                .expect("host_receive with empty inbox");
            events.push(Event::PacketDeliveredToHost {
                host: *host,
                packet,
            });
            // The host model assigns placeholder reply ids; real provenance
            // ids are allocated from the system state below (the borrow
            // checker will not let the host borrow overlap the allocator).
            let replies = {
                let h = state.host_mut(*host).expect("unknown host");
                let mut placeholder = 0u64;
                h.receive(&packet, &mut || {
                    placeholder += 1;
                    placeholder
                })
            };
            let location = state.host(*host).expect("unknown host").location();
            for mut reply in replies {
                let id = state.alloc_packet_id();
                reply.id = PacketId(id);
                events.push(Event::PacketInjected {
                    host: *host,
                    packet: reply,
                });
                state.enqueue_ingress(location.switch, location.port, reply);
            }
        }

        Transition::HostMove { host, to } => {
            let from = state.host(*host).expect("unknown host").location();
            state.host_mut(*host).expect("unknown host").apply_move(*to);
            events.push(Event::HostMoved {
                host: *host,
                from,
                to: *to,
            });
        }

        Transition::ProcessPacket { switch } => {
            let ports: Vec<PortId> = state.busy_ingress_ports(*switch).collect();
            for port in ports {
                process_one_ingress(state, &scenario.topology, *switch, port, events);
            }
        }

        Transition::ProcessOf { switch } => {
            let msg = state
                .pop_to_switch(*switch)
                .expect("process_of with empty channel");
            if let OfMessage::FlowMod {
                command,
                pattern,
                priority,
                ..
            } = &msg
            {
                match command {
                    nice_openflow::FlowModCommand::Add => events.push(Event::RuleInstalled {
                        switch: *switch,
                        pattern: *pattern,
                        priority: *priority,
                    }),
                    _ => events.push(Event::RuleDeleted {
                        switch: *switch,
                        pattern: *pattern,
                    }),
                }
            }
            let output = state
                .switch_mut(*switch)
                .expect("unknown switch")
                .apply_of_message(msg);
            handle_switch_output(
                state,
                &scenario.topology,
                *switch,
                output,
                DecisionOrigin::Controller,
                events,
            );
        }

        Transition::ControllerHandle { switch } => {
            let msg = state
                .pop_to_controller(*switch)
                .expect("ctrl_handle with empty channel");
            match &msg {
                OfMessage::PacketIn {
                    in_port, packet, ..
                } => {
                    events.push(Event::ControllerHandledPacketIn {
                        switch: *switch,
                        in_port: *in_port,
                        packet: *packet,
                    });
                }
                OfMessage::PortStatsReply { .. } | OfMessage::FlowStatsReply { .. } => {
                    state.clear_stats_pending(*switch);
                    events.push(Event::StatsDeliveredToController { switch: *switch });
                }
                _ => {}
            }
            let produced = state.controller_mut().handle_message(&msg);
            for (target, m) in produced {
                state.enqueue_to_switch(target, m);
            }
        }

        Transition::DiscoverPackets { host } => {
            discover_packets(state, *host, scenario, memo);
        }

        Transition::DiscoverStats { switch } => {
            discover_stats(state, *switch, scenario, memo);
        }

        Transition::InjectStats { switch, stats } => {
            state.clear_stats_pending(*switch);
            events.push(Event::StatsDeliveredToController { switch: *switch });
            let sym = SymStats::from_concrete(stats);
            let mut env = ConcreteEnv::new();
            let produced = state.controller_mut().run_stats_in(&mut env, *switch, &sym);
            for (target, m) in produced {
                state.enqueue_to_switch(target, m);
            }
        }

        Transition::ChannelFault {
            switch,
            port,
            fault,
        } => {
            state.consume_fault_budget();
            let model = scenario.fault_plan.channel_model();
            state.ingress_mut(*switch, *port).apply_fault(*fault, model);
        }

        Transition::SwitchCrash { switch } => {
            state.consume_fault_budget();
            state.crash_switch(*switch);
        }

        Transition::SwitchReconnect { switch } => {
            state.reconnect_switch(*switch);
        }
    }
}

/// Drains the control plane to quiescence within the current transition —
/// the NO-DELAY strategy's "lock step" semantics (Section 4).
pub fn drain_control_plane(
    state: &mut SystemState,
    scenario: &Scenario,
    config: &CheckerConfig,
    memo: &mut DiscoveryMemo,
    events: &mut Vec<Event>,
) {
    // Bounded defensively: a controller that endlessly sends itself messages
    // would otherwise spin forever. The bound is far above anything the
    // modelled applications produce.
    for _ in 0..10_000 {
        let mut progressed = false;
        let switches: Vec<SwitchId> = state.switches().map(|(id, _)| id).collect();
        for switch in switches {
            if state.sw_to_ctrl(switch).is_some_and(|ch| !ch.is_empty()) {
                execute(
                    state,
                    &Transition::ControllerHandle { switch },
                    scenario,
                    config,
                    memo,
                    events,
                );
                progressed = true;
            }
            if state.ctrl_to_sw(switch).is_some_and(|ch| !ch.is_empty()) {
                execute(
                    state,
                    &Transition::ProcessOf { switch },
                    scenario,
                    config,
                    memo,
                    events,
                );
                progressed = true;
            }
        }
        if !progressed {
            return;
        }
    }
    panic!("control plane failed to quiesce under NO-DELAY");
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecisionOrigin {
    /// The packet was being processed in the data plane (flow-table rules).
    DataPlane,
    /// The packet was released on explicit controller instruction
    /// (`packet_out`).
    Controller,
}

fn process_one_ingress(
    state: &mut SystemState,
    topology: &Topology,
    switch: SwitchId,
    port: PortId,
    events: &mut Vec<Event>,
) {
    let packet = match state.pop_ingress(switch, port) {
        Some(p) => p,
        None => return,
    };
    events.push(Event::PacketArrivedAtSwitch {
        switch,
        port,
        packet,
    });
    let overflow_before = state
        .switch(switch)
        .map(|s| s.buffer_overflow_drops)
        .unwrap_or(0);
    let output = state
        .switch_mut(switch)
        .expect("unknown switch")
        .process_packet(packet, port);
    let overflow_after = state
        .switch(switch)
        .map(|s| s.buffer_overflow_drops)
        .unwrap_or(0);
    if overflow_after > overflow_before {
        events.push(Event::PacketBufferOverflow { switch, packet });
    }
    handle_switch_output(
        state,
        topology,
        switch,
        output,
        DecisionOrigin::DataPlane,
        events,
    );
}

fn handle_switch_output(
    state: &mut SystemState,
    topology: &Topology,
    switch: SwitchId,
    output: SwitchOutput,
    origin: DecisionOrigin,
    events: &mut Vec<Event>,
) {
    for msg in output.to_controller {
        state.enqueue_to_controller(switch, msg);
    }
    for decision in output.decisions {
        match decision {
            ForwardingDecision::Forward { port, packet } => {
                deliver(state, topology, switch, port, packet, events);
            }
            ForwardingDecision::FloodExcept { in_port, packet } => {
                let ports: Vec<PortId> = (state.switch(switch))
                    .map_or(&[][..], |s| &s.ports)
                    .iter()
                    .copied()
                    .filter(|&p| p != in_port)
                    .filter(|&p| has_receiver(state, topology, switch, p))
                    .collect();
                events.push(Event::PacketFlooded {
                    switch,
                    copies: ports.len(),
                    packet,
                });
                for port in ports {
                    deliver(state, topology, switch, port, packet, events);
                }
            }
            ForwardingDecision::SentToController { packet, reason, .. } => {
                // `reason` is carried in the PacketIn message already queued.
                let _ = reason;
                events.push(Event::PacketSentToController { switch, packet });
            }
            ForwardingDecision::Dropped { packet } => match origin {
                DecisionOrigin::DataPlane => {
                    // Buffer-overflow drops are reported separately by the
                    // caller; a Dropped decision from the data plane here is a
                    // drop action (or empty action list) in an installed rule.
                    events.push(Event::PacketDroppedByRule { switch, packet });
                }
                DecisionOrigin::Controller => {
                    events.push(Event::PacketDroppedByController { switch, packet });
                }
            },
        }
    }
}

fn has_receiver(state: &SystemState, topology: &Topology, switch: SwitchId, port: PortId) -> bool {
    state.host_at(switch, port).is_some() || topology.switch_peer(switch, port).is_some()
}

fn deliver(
    state: &mut SystemState,
    topology: &Topology,
    switch: SwitchId,
    port: PortId,
    packet: Packet,
    events: &mut Vec<Event>,
) {
    if let Some(host) = state.host_at(switch, port) {
        state.enqueue_host(host, packet);
    } else if let Some(peer) = topology.switch_peer(switch, port) {
        state.enqueue_ingress(peer.switch, peer.port, packet);
    } else {
        events.push(Event::PacketLost {
            switch,
            port,
            packet,
        });
    }
}

fn discover_packets(
    state: &mut SystemState,
    host: HostId,
    scenario: &Scenario,
    memo: &mut DiscoveryMemo,
) {
    let ctrl_fp = state.controller_fingerprint();
    let location = state.host(host).expect("unknown host").location();
    let key = (ctrl_fp, location.switch, location.port);

    let cached = memo.cache().packets.get(&key).cloned();
    if let Some(cached) = cached {
        state.set_relevant_packets(host, ctrl_fp, cached);
        return;
    }

    let domains = scenario.effective_packet_domains();
    let mut solver = Solver::new();
    let (sym_packet, vars) = SymPacket::symbolic(&mut solver, &domains);
    let ctx = PacketInContext {
        switch: location.switch,
        in_port: location.port,
        buffer_id: BufferId(0),
        reason: nice_openflow::PacketInReason::NoMatch,
    };
    let snapshot = state.controller().clone();
    let explorer = PathExplorer::new(ExploreConfig::default());
    let outcome = explorer.explore(&mut solver, |env| {
        let mut controller = snapshot.clone();
        let _ = controller.run_packet_in_symbolic(env, ctx, &sym_packet);
    });
    memo.symbolic_executions += 1;

    let mut packets: Vec<Packet> = outcome
        .paths
        .iter()
        .map(|path| vars.packet_from(&path.assignment, 0))
        .collect();
    // Two different paths can concretise to the same representative if the
    // distinguishing branch did not involve packet fields; keep one copy.
    packets.sort_by_key(|p| {
        (
            p.src_mac.value(),
            p.dst_mac.value(),
            p.eth_type.value(),
            p.src_ip.value(),
            p.dst_ip.value(),
            p.nw_proto.value(),
            p.src_port,
            p.dst_port,
            p.tcp_flags.0,
            p.arp_op,
            p.payload,
        )
    });
    packets.dedup_by(|a, b| {
        let mut a2 = *a;
        let mut b2 = *b;
        a2.id = PacketId(0);
        b2.id = PacketId(0);
        a2 == b2
    });

    (memo.cache().packets)
        .entry(key)
        .or_insert_with(|| packets.clone());
    state.set_relevant_packets(host, ctrl_fp, packets);
}

fn discover_stats(
    state: &mut SystemState,
    switch: SwitchId,
    scenario: &Scenario,
    memo: &mut DiscoveryMemo,
) {
    let ctrl_fp = state.controller_fingerprint();
    let key = (ctrl_fp, switch);
    let cached = memo.cache().stats.get(&key).cloned();
    if let Some(cached) = cached {
        state.set_discovered_stats(switch, ctrl_fp, cached);
        return;
    }

    let ports: Vec<PortId> = (state.switch(switch)).map_or_else(Vec::new, |s| s.ports.to_vec());
    let mut solver = Solver::new();
    let sym_stats = SymStats::symbolic(&mut solver, &ports, &scenario.stats_domains);
    let snapshot = state.controller().clone();
    let explorer = PathExplorer::new(ExploreConfig::default());
    let outcome = explorer.explore(&mut solver, |env| {
        let mut controller = snapshot.clone();
        let _ = controller.run_stats_in(env, switch, &sym_stats);
    });
    memo.symbolic_executions += 1;

    let mut replies: Vec<Vec<PortStatsEntry>> = outcome
        .paths
        .iter()
        .map(|path| sym_stats.concretize(&path.assignment))
        .collect();
    let reply_key = |reply: &Vec<PortStatsEntry>| -> Vec<(u16, u64, u64, u64, u64)> {
        reply
            .iter()
            .map(|e| {
                (
                    e.port.value(),
                    e.rx_packets,
                    e.tx_packets,
                    e.rx_bytes,
                    e.tx_bytes,
                )
            })
            .collect()
    };
    replies.sort_by_key(|a| reply_key(a));
    replies.dedup();

    (memo.cache().stats)
        .entry(key)
        .or_insert_with(|| replies.clone());
    state.set_discovered_stats(switch, ctrl_fp, replies);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use nice_openflow::MacAddr;

    fn memo() -> DiscoveryMemo {
        DiscoveryMemo::default()
    }

    #[test]
    fn initial_hub_scenario_enables_only_host_sends() {
        let scenario = testutil::hub_ping_scenario(2);
        let config = CheckerConfig::default();
        let state = SystemState::initial(&scenario);
        let enabled = enabled_transitions(&state, &scenario, &config);
        assert_eq!(
            enabled.len(),
            1,
            "only host 1's first ping is enabled: {enabled:?}"
        );
        assert!(matches!(
            enabled[0],
            Transition::HostSend {
                host: HostId(1),
                ..
            }
        ));
    }

    #[test]
    fn ping_travels_through_the_hub_network() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();

        // Drive the single enabled transition until the system quiesces; the
        // hub floods, so the ping reaches host B and the echo reaches host A.
        let mut steps = 0;
        loop {
            let enabled = enabled_transitions(&state, &scenario, &config);
            if enabled.is_empty() {
                break;
            }
            execute(
                &mut state,
                &enabled[0],
                &scenario,
                &config,
                &mut m,
                &mut events,
            );
            steps += 1;
            assert!(steps < 200, "hub ping-pong failed to quiesce");
        }

        let delivered_to_b = events.iter().any(|e| {
            matches!(
                e,
                Event::PacketDeliveredToHost {
                    host: HostId(2),
                    ..
                }
            )
        });
        let delivered_to_a = events.iter().any(|e| {
            matches!(
                e,
                Event::PacketDeliveredToHost {
                    host: HostId(1),
                    ..
                }
            )
        });
        assert!(delivered_to_b, "ping must reach host B");
        assert!(delivered_to_a, "echo must reach host A");
        // The hub never installs rules, so both the ping and the echo visited
        // the controller.
        let controller_hits = events
            .iter()
            .filter(|e| matches!(e, Event::ControllerHandledPacketIn { .. }))
            .count();
        assert!(
            controller_hits >= 2,
            "expected at least two packet_ins, saw {controller_hits}"
        );
        // No packets were lost and no buffers left over.
        assert!(!events.iter().any(|e| matches!(e, Event::PacketLost { .. })));
        assert_eq!(state.total_buffered_packets(), 0);
        assert_eq!(state.total_queued_messages(), 0);
    }

    #[test]
    fn forgetful_app_leaves_buffered_packets() {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();
        loop {
            let enabled = enabled_transitions(&state, &scenario, &config);
            if enabled.is_empty() {
                break;
            }
            execute(
                &mut state,
                &enabled[0],
                &scenario,
                &config,
                &mut m,
                &mut events,
            );
        }
        assert!(
            state.total_buffered_packets() > 0,
            "the forgetful app must forget the packet"
        );
    }

    #[test]
    fn coarse_process_packet_services_every_busy_port() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();
        let pkt1 = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let pkt2 = Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt1);
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt2);
        let process_pkt = enabled_transitions(&state, &scenario, &config)
            .iter()
            .filter(|t| matches!(t, Transition::ProcessPacket { .. }))
            .count();
        assert_eq!(
            process_pkt, 1,
            "one process_pkt however many ports are busy"
        );
        execute(
            &mut state,
            &Transition::ProcessPacket {
                switch: SwitchId(1),
            },
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        assert_eq!(state.busy_ingress_ports(SwitchId(1)).count(), 0);
        let arrivals = events
            .iter()
            .filter(|e| matches!(e, Event::PacketArrivedAtSwitch { .. }))
            .count();
        assert_eq!(arrivals, 2);
    }

    #[test]
    fn discover_packets_populates_relevant_packets() {
        let scenario = testutil::discovery_scenario(Box::new(testutil::HubApp::default()), 1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();

        let enabled = enabled_transitions(&state, &scenario, &config);
        assert!(enabled
            .iter()
            .any(|t| matches!(t, Transition::DiscoverPackets { host: HostId(1) })));
        execute(
            &mut state,
            &Transition::DiscoverPackets { host: HostId(1) },
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        let ctrl_fp = state.controller_fingerprint();
        let packets = state
            .relevant_packets(HostId(1), ctrl_fp)
            .expect("discovery ran");
        // The hub's handler has no data-dependent branches, so a single
        // equivalence class (one relevant packet) is expected.
        assert_eq!(packets.len(), 1);
        assert_eq!(m.symbolic_executions, 1);

        // After discovery the host's send transitions appear.
        let enabled = enabled_transitions(&state, &scenario, &config);
        assert!(enabled.iter().any(|t| matches!(
            t,
            Transition::HostSend {
                host: HostId(1),
                ..
            }
        )));

        // A second discovery for the same controller state hits the memo.
        execute(
            &mut state,
            &Transition::DiscoverPackets { host: HostId(1) },
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        assert_eq!(
            m.symbolic_executions, 1,
            "memoised discovery must not re-run"
        );
    }

    #[test]
    fn discovery_with_learning_app_finds_multiple_classes() {
        let scenario =
            testutil::discovery_scenario(Box::new(testutil::DstOnlyLearningApp::default()), 1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();
        execute(
            &mut state,
            &Transition::DiscoverPackets { host: HostId(1) },
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        let ctrl_fp = state.controller_fingerprint();
        let packets = state.relevant_packets(HostId(1), ctrl_fp).unwrap();
        // The learning app branches on whether the destination is known
        // (it never is initially) and implicitly on src==dst via the map
        // overlay, so at least two classes must be discovered.
        assert!(
            packets.len() >= 2,
            "expected several equivalence classes, got {packets:?}"
        );
    }

    #[test]
    fn no_delay_drains_control_plane() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        let mut m = memo();
        let mut events = Vec::new();

        // Send the ping and let switch 1 forward it to the controller.
        let enabled = enabled_transitions(&state, &scenario, &config);
        execute(
            &mut state,
            &enabled[0],
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        execute(
            &mut state,
            &Transition::ProcessPacket {
                switch: SwitchId(1),
            },
            &scenario,
            &config,
            &mut m,
            &mut events,
        );
        assert!(state.control_plane_busy());
        drain_control_plane(&mut state, &scenario, &config, &mut m, &mut events);
        assert!(!state.control_plane_busy());
        // The buffered packet was released (flooded) by the drained
        // packet_out.
        assert_eq!(state.total_buffered_packets(), 0);
    }

    #[test]
    fn transition_display_and_kinds() {
        let t = Transition::HostSend {
            host: HostId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
        };
        assert_eq!(t.kind(), "host_send");
        assert!(t.to_string().contains("send"));
        assert_eq!(
            Transition::ProcessOf {
                switch: SwitchId(1)
            }
            .kind(),
            "process_of"
        );
        assert_eq!(
            Transition::DiscoverPackets { host: HostId(1) }.kind(),
            "discover_packets"
        );
        assert_eq!(
            Transition::InjectStats {
                switch: SwitchId(1),
                stats: vec![]
            }
            .to_string(),
            "process_stats(s1, 0 ports)"
        );
    }
}
