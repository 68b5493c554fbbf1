//! Partial-order reduction: static independence of transitions.
//!
//! The canonical NICE-MC search enumerates every interleaving of the enabled
//! transitions and only collapses equivalent interleavings *after* execution,
//! when two orders happen to produce the same state fingerprint. But many
//! pairs of transitions are *independent* by construction — `process_pkt` at
//! two switches whose packets cannot reach each other, sends by two
//! different hosts, a pure receive and anything else — and executing them in
//! either order provably yields the same state. This module provides the
//! machinery to recognise such pairs **before** execution:
//!
//! * [`Transition::footprint`] — the set of system components (switches,
//!   channels, hosts, the controller runtime) a transition reads and writes,
//!   over-approximated conservatively from the current state. Channel
//!   resources distinguish the *head* (consumer side) from the *tail*
//!   (producer side), so pushing onto a non-empty FIFO commutes with popping
//!   its head.
//! * [`independent`] — two transitions are independent when their footprints
//!   are disjoint (no write/write or read/write overlap). The controller
//!   runtime is itself a resource: handler executions, symbolic discovery
//!   and statistics injection all read *and* write it, so any two of them
//!   conflict, and so does anything whose enabledness depends on the
//!   controller state (discovery-mode sends read it). A handler execution
//!   and unrelated data-plane activity, by contrast, genuinely commute —
//!   the handler's channel writes are conservatively spread over *every*
//!   controller→switch tail, so reordering it past a `process_of` or a
//!   packet delivery is only permitted when the FIFO head/tail split proves
//!   the pair commutes.
//!
//! Soundness argument, in brief: a transition's footprint is computed in the
//! current state `s` and over-approximates every component the execution can
//! touch. If `t1` and `t2` are independent in `s`, then executing `t1`
//! cannot change anything `t2` reads (so `t2` stays enabled and behaves
//! identically) and vice versa, and their writes land in disjoint
//! components — hence `t1;t2` and `t2;t1` reach the same state. The packet
//! provenance-id allocator is deliberately excluded from footprints: ids are
//! bookkeeping for violation traces and are excluded from all state
//! fingerprints (see `Packet`'s `Fingerprint` impl), so id-allocation order
//! does not distinguish states.
//!
//! The sleep-set search built on this relation lives in
//! [`crate::checker`]; the composable [`Reduction`](crate::strategy::Reduction)
//! layer in [`crate::strategy`].

use crate::scenario::Scenario;
use crate::state::SystemState;
use crate::transition::Transition;
use nice_openflow::{
    ChannelFault, Fingerprint, Fnv64, HostId, OfMessage, PacketFate, PortId, SwitchId,
};

/// Abstract resource identifiers, encoded as `u64`s so footprints are flat
/// sorted vectors with cheap disjointness checks.
mod res {
    use super::{HostId, PortId, SwitchId};

    const fn encode(tag: u64, a: u64, b: u64) -> u64 {
        (tag << 48) | (a << 16) | b
    }

    /// The controller runtime, including the symbolic-discovery caches and
    /// the pending-statistics bookkeeping it owns.
    pub const CONTROLLER: u64 = encode(1, 0, 0);
    /// The global host-attachment map consulted by packet delivery
    /// (`host_at`), written by host moves.
    pub const LOCATIONS: u64 = encode(2, 0, 0);

    /// A switch's own state: flow table, packet buffer, counters.
    pub fn switch(s: SwitchId) -> u64 {
        encode(3, s.0 as u64, 0)
    }
    /// Consumer side of the switch→controller channel.
    pub fn sw2c_head(s: SwitchId) -> u64 {
        encode(4, s.0 as u64, 0)
    }
    /// Producer side of the switch→controller channel.
    pub fn sw2c_tail(s: SwitchId) -> u64 {
        encode(5, s.0 as u64, 0)
    }
    /// Consumer side of the controller→switch channel.
    pub fn c2s_head(s: SwitchId) -> u64 {
        encode(6, s.0 as u64, 0)
    }
    /// Producer side of the controller→switch channel.
    pub fn c2s_tail(s: SwitchId) -> u64 {
        encode(7, s.0 as u64, 0)
    }
    /// Consumer side of a switch ingress channel.
    pub fn ingress_head(s: SwitchId, p: PortId) -> u64 {
        encode(8, s.0 as u64, p.0 as u64)
    }
    /// Producer side of a switch ingress channel.
    pub fn ingress_tail(s: SwitchId, p: PortId) -> u64 {
        encode(9, s.0 as u64, p.0 as u64)
    }
    /// A host's sending state (budget, burst credit, script position).
    pub fn host_tx(h: HostId) -> u64 {
        encode(10, h.0 as u64, 0)
    }
    /// A host's receiving state (delivery counters).
    pub fn host_rx(h: HostId) -> u64 {
        encode(11, h.0 as u64, 0)
    }
    /// A host's attachment point (read by its own sends/replies, written by
    /// moves).
    pub fn host_loc(h: HostId) -> u64 {
        encode(12, h.0 as u64, 0)
    }
    /// Consumer side of a host inbox.
    pub fn inbox_head(h: HostId) -> u64 {
        encode(13, h.0 as u64, 0)
    }
    /// Producer side of a host inbox.
    pub fn inbox_tail(h: HostId) -> u64 {
        encode(14, h.0 as u64, 0)
    }
    /// The shared fault budget. Every budget-consuming fault injection both
    /// reads it (enabledness requires a non-zero budget) and writes it (the
    /// injection decrements it), so any two injections are mutually
    /// dependent — which is exactly what soundness needs, because with one
    /// unit of budget left either injection disables the other.
    pub const BUDGET: u64 = encode(15, 0, 0);
}

/// The components a transition reads and writes, plus whether it involves
/// the controller runtime (which makes it dependent on everything).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    reads: Vec<u64>,
    writes: Vec<u64>,
    controller: bool,
}

impl Footprint {
    fn read(&mut self, r: u64) {
        self.reads.push(r);
    }

    fn write(&mut self, r: u64) {
        self.writes.push(r);
    }

    fn touch(&mut self, r: u64) {
        self.reads.push(r);
        self.writes.push(r);
    }

    fn involve_controller(&mut self) {
        self.controller = true;
        self.reads.push(res::CONTROLLER);
        self.writes.push(res::CONTROLLER);
    }

    fn normalize(mut self) -> Self {
        self.reads.sort_unstable();
        self.reads.dedup();
        self.writes.sort_unstable();
        self.writes.dedup();
        self
    }

    /// The resources this transition may read, sorted.
    pub fn reads(&self) -> &[u64] {
        &self.reads
    }

    /// The resources this transition may write, sorted.
    pub fn writes(&self) -> &[u64] {
        &self.writes
    }

    /// True if the transition executes controller code or mutates
    /// controller-owned state (discovery caches, pending statistics).
    pub fn involves_controller(&self) -> bool {
        self.controller
    }

    /// True if the two footprints permit commuting the transitions: no
    /// write/write or read/write overlap between them (read/read sharing is
    /// harmless).
    ///
    /// The controller runtime needs no special-casing beyond its resource:
    /// every transition that executes controller code both reads and writes
    /// [`res::CONTROLLER`], so two controller-involving transitions always
    /// conflict, and anything whose enabledness or effect depends on the
    /// controller state (e.g. discovery-mode sends) conflicts with them via
    /// its `CONTROLLER` read. A controller handler and, say, a remote
    /// `process_pkt` genuinely commute: the handler consumes the head of one
    /// switch→controller channel and appends to controller→switch channels,
    /// while the packet processing appends to the *tail* of its own
    /// switch→controller channel — FIFO pushes and pops on disjoint ends
    /// commute.
    pub fn independent_of(&self, other: &Footprint) -> bool {
        !sorted_overlap(&self.writes, &other.writes)
            && !sorted_overlap(&self.writes, &other.reads)
            && !sorted_overlap(&self.reads, &other.writes)
    }
}

/// True if two sorted slices share an element (merge walk, no allocation).
fn sorted_overlap(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Two transitions commute in `state`: executing them in either order yields
/// the same successor, and neither disables the other.
pub fn independent(
    a: &Transition,
    b: &Transition,
    state: &SystemState,
    scenario: &Scenario,
) -> bool {
    a.footprint(state, scenario)
        .independent_of(&b.footprint(state, scenario))
}

/// The ports `switch` declares (none if the state has no such switch).
fn ports_of(state: &SystemState, switch: SwitchId) -> &[PortId] {
    state.switch(switch).map_or(&[], |sw| &sw.ports)
}

/// Appends the delivery resources for a copy emitted by `switch` on `port`:
/// the inbox of the attached host, or the ingress of the peer switch, or
/// nothing (the copy is lost). Mirrors `deliver` in [`crate::transition`].
fn delivery_writes(fp: &mut Footprint, state: &SystemState, switch: SwitchId, port: PortId) {
    if let Some(host) = state.host_at(switch, port) {
        fp.write(res::inbox_tail(host));
    } else if let Some(peer) = state.topology().switch_peer(switch, port) {
        fp.write(res::ingress_tail(peer.switch, peer.port));
    }
}

/// Folds a predicted packet fate into a footprint: deliveries (which consult
/// the global attachment map) and the optional controller notification.
fn fate_writes(fp: &mut Footprint, state: &SystemState, switch: SwitchId, fate: &PacketFate) {
    if fate.to_controller {
        fp.write(res::sw2c_tail(switch));
    }
    if !fate.out_ports.is_empty() {
        // `deliver` / `has_receiver` consult every host's current location.
        fp.read(res::LOCATIONS);
        for &port in &fate.out_ports {
            delivery_writes(fp, state, switch, port);
        }
    }
}

/// Worst-case footprint of a packet-emitting transition at `switch`: it may
/// flood out of every port and notify the controller. Used when the concrete
/// input (head message) cannot be inspected.
fn worst_case_emission(fp: &mut Footprint, state: &SystemState, switch: SwitchId) {
    fp.write(res::sw2c_tail(switch));
    fp.read(res::LOCATIONS);
    for &port in ports_of(state, switch) {
        delivery_writes(fp, state, switch, port);
    }
}

/// Folds in what processing the packet at the head of `(switch, port)` may
/// emit: its predicted fate, or the worst case if the head cannot be seen.
fn head_packet_writes(fp: &mut Footprint, state: &SystemState, switch: SwitchId, port: PortId) {
    match state.ingress(switch, port).and_then(|ch| ch.peek()) {
        Some(packet) => {
            if let Some(sw) = state.switch(switch) {
                fate_writes(fp, state, switch, &sw.predict_packet_fate(packet, port));
            }
        }
        None => worst_case_emission(fp, state, switch),
    }
}

impl Transition {
    /// The component footprint of this transition in `state`: which parts of
    /// the system it may read and write when executed, over-approximated
    /// conservatively (see the module docs for the soundness argument).
    pub fn footprint(&self, state: &SystemState, scenario: &Scenario) -> Footprint {
        let mut fp = Footprint::default();
        match self {
            Transition::HostSend { host, .. } => {
                fp.touch(res::host_tx(*host));
                fp.read(res::host_loc(*host));
                if scenario.send_policy.is_discover() {
                    // Which packets are relevant (and hence which send
                    // transitions exist) depends on the controller state.
                    fp.read(res::CONTROLLER);
                }
                if let Some(h) = state.host(*host) {
                    let loc = h.location();
                    fp.write(res::ingress_tail(loc.switch, loc.port));
                }
            }

            Transition::HostReceive { host } => {
                fp.touch(res::host_rx(*host));
                fp.touch(res::inbox_head(*host));
                if let Some(h) = state.host(*host) {
                    if h.receive_replenishes_sends() {
                        fp.write(res::host_tx(*host));
                    }
                    if h.may_reply() {
                        fp.read(res::host_loc(*host));
                        let loc = h.location();
                        fp.write(res::ingress_tail(loc.switch, loc.port));
                    }
                }
            }

            Transition::HostMove { host, .. } => {
                fp.touch(res::host_loc(*host));
                fp.write(res::LOCATIONS);
            }

            Transition::ProcessPacket { switch } => {
                fp.touch(res::switch(*switch));
                // The switch's ports and its busy ports both come in port
                // order: one walk over each.
                let mut busy = state.busy_ingress_ports(*switch).peekable();
                for &port in ports_of(state, *switch) {
                    // (A busy port the switch does not declare has no
                    // head or tail resource, only what it emits.)
                    while let Some(stray) = busy.next_if(|&b| b < port) {
                        head_packet_writes(&mut fp, state, *switch, stray);
                    }
                    if busy.next_if_eq(&port).is_some() {
                        fp.touch(res::ingress_head(*switch, port));
                        head_packet_writes(&mut fp, state, *switch, port);
                    } else {
                        // The coarse transition services *every* busy port,
                        // so making an idle port busy changes its behaviour:
                        // record an enabling read on the producer side.
                        fp.read(res::ingress_tail(*switch, port));
                    }
                }
                for stray in busy {
                    head_packet_writes(&mut fp, state, *switch, stray);
                }
            }

            Transition::ProcessPacketOn { switch, port } => {
                fp.touch(res::switch(*switch));
                fp.touch(res::ingress_head(*switch, *port));
                head_packet_writes(&mut fp, state, *switch, *port);
            }

            Transition::ProcessOf { switch } => {
                fp.touch(res::c2s_head(*switch));
                match state.ctrl_to_sw(*switch).and_then(|ch| ch.peek()) {
                    Some(OfMessage::FlowMod { .. }) => {
                        fp.write(res::switch(*switch));
                        fp.read(res::switch(*switch));
                    }
                    Some(OfMessage::BarrierRequest { .. }) => {
                        fp.write(res::sw2c_tail(*switch));
                    }
                    Some(OfMessage::StatsRequest { .. }) => {
                        // Stats replies snapshot the counters, which every
                        // packet-processing step mutates.
                        fp.read(res::switch(*switch));
                        fp.write(res::sw2c_tail(*switch));
                    }
                    Some(OfMessage::PacketOut {
                        buffer_id,
                        packet,
                        in_port,
                        actions,
                    }) => {
                        fp.touch(res::switch(*switch));
                        let resolved = match buffer_id {
                            Some(id) => state
                                .switch(*switch)
                                .and_then(|sw| sw.buffered_packet(*id))
                                .map(|bp| bp.in_port),
                            None => packet.as_ref().map(|_| *in_port),
                        };
                        if let (Some(origin), Some(sw)) = (resolved, state.switch(*switch)) {
                            let fate = sw.predict_actions_fate(actions, origin);
                            fate_writes(&mut fp, state, *switch, &fate);
                        }
                    }
                    // An unexpected (or unobservable) head message: assume
                    // the worst.
                    _ => {
                        fp.touch(res::switch(*switch));
                        worst_case_emission(&mut fp, state, *switch);
                    }
                }
            }

            Transition::ControllerHandle { switch } => {
                fp.involve_controller();
                fp.touch(res::sw2c_head(*switch));
                // The handler may enqueue messages towards any switch.
                for (s, _) in state.switches() {
                    fp.write(res::c2s_tail(s));
                }
            }

            Transition::DiscoverPackets { host } => {
                fp.involve_controller();
                fp.read(res::host_loc(*host));
            }

            Transition::DiscoverStats { switch } => {
                fp.involve_controller();
                fp.read(res::switch(*switch));
            }

            Transition::InjectStats { switch, .. } => {
                fp.involve_controller();
                fp.read(res::switch(*switch));
                for (s, _) in state.switches() {
                    fp.write(res::c2s_tail(s));
                }
            }

            Transition::ExpireRule { switch, .. } => {
                fp.touch(res::switch(*switch));
            }

            Transition::ChannelFault {
                switch,
                port,
                fault,
            } => {
                fp.touch(res::BUDGET);
                // Drop, duplicate and reorder only rearrange the first one or
                // two messages: they commute with a push onto the tail of the
                // same (non-empty) queue. A link failure additionally clears
                // the queue and discards future pushes, so it conflicts with
                // the producer side too.
                fp.touch(res::ingress_head(*switch, *port));
                if matches!(fault, ChannelFault::FailLink) {
                    fp.touch(res::ingress_tail(*switch, *port));
                }
            }

            Transition::SwitchCrash { switch } => {
                fp.touch(res::BUDGET);
                // The crash wipes the switch, drains every attached channel
                // (both ends: queued messages vanish and, while crashed,
                // deliveries towards the switch are discarded), and clears
                // the controller's pending-statistics bookkeeping for it.
                fp.involve_controller();
                fp.touch(res::switch(*switch));
                fp.touch(res::sw2c_head(*switch));
                fp.touch(res::sw2c_tail(*switch));
                fp.touch(res::c2s_head(*switch));
                fp.touch(res::c2s_tail(*switch));
                for &port in ports_of(state, *switch) {
                    fp.touch(res::ingress_head(*switch, port));
                    fp.touch(res::ingress_tail(*switch, port));
                }
            }

            Transition::SwitchReconnect { switch } => {
                // Recovery is free (no budget), but it flips the crashed
                // flag — which re-enables deliveries to every ingress port —
                // restores the control channel, and enqueues a fresh join
                // towards the controller.
                fp.touch(res::switch(*switch));
                fp.write(res::sw2c_tail(*switch));
                fp.touch(res::c2s_head(*switch));
                fp.touch(res::c2s_tail(*switch));
                for &port in ports_of(state, *switch) {
                    fp.write(res::ingress_tail(*switch, port));
                }
            }

            Transition::ControllerFailover => {
                fp.touch(res::BUDGET);
                // The standby replays (warm) or requests (cold) a join from
                // every live switch, so it reads every switch's state and may
                // append to every control channel in both directions.
                fp.involve_controller();
                for (s, _) in state.switches() {
                    fp.read(res::switch(s));
                    fp.write(res::sw2c_tail(s));
                    fp.write(res::c2s_tail(s));
                }
            }

            Transition::MutateOfHead { switch, .. } => {
                fp.touch(res::BUDGET);
                // The mutation rewrites the head of one controller→switch
                // channel in place; which mutations are enabled also depends
                // on that head message.
                fp.touch(res::c2s_head(*switch));
            }
        }
        fp.normalize()
    }

    /// A 64-bit digest identifying this transition (kind plus every
    /// distinguishing field, packet contents included). Used to store sleep
    /// sets compactly alongside state fingerprints and to match enabled
    /// transitions against inherited sleep-set entries.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::with_seed(0xde_d0c);
        h.write_str(self.kind());
        match self {
            Transition::HostSend { host, packet } => {
                host.fingerprint(&mut h);
                packet.fingerprint(&mut h);
                h.write_u64(packet.id.0);
            }
            Transition::HostReceive { host } => host.fingerprint(&mut h),
            Transition::HostMove { host, to } => {
                host.fingerprint(&mut h);
                to.fingerprint(&mut h);
            }
            Transition::ProcessPacket { switch }
            | Transition::ProcessOf { switch }
            | Transition::ControllerHandle { switch }
            | Transition::DiscoverStats { switch }
            | Transition::SwitchCrash { switch }
            | Transition::SwitchReconnect { switch } => switch.fingerprint(&mut h),
            Transition::ProcessPacketOn { switch, port } => {
                switch.fingerprint(&mut h);
                port.fingerprint(&mut h);
            }
            Transition::DiscoverPackets { host } => host.fingerprint(&mut h),
            Transition::InjectStats { switch, stats } => {
                switch.fingerprint(&mut h);
                h.write_usize(stats.len());
                for entry in stats {
                    entry.fingerprint(&mut h);
                }
            }
            Transition::ExpireRule { switch, rule_index } => {
                switch.fingerprint(&mut h);
                h.write_usize(*rule_index);
            }
            Transition::ChannelFault {
                switch,
                port,
                fault,
            } => {
                switch.fingerprint(&mut h);
                port.fingerprint(&mut h);
                h.write_u64(*fault as u64);
            }
            Transition::ControllerFailover => {}
            Transition::MutateOfHead { switch, mutation } => {
                switch.fingerprint(&mut h);
                h.write_str(mutation.name());
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;
    use crate::transition::enabled_transitions;
    use nice_openflow::{MacAddr, Packet};

    fn chain_state() -> (Scenario, SystemState) {
        let scenario = testutil::hub_ping_scenario(1);
        let state = SystemState::initial(&scenario);
        (scenario, state)
    }

    #[test]
    fn sends_by_different_hosts_are_independent() {
        let (scenario, state) = chain_state();
        let a = Transition::HostSend {
            host: HostId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
        };
        let b = Transition::HostSend {
            host: HostId(2),
            packet: Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0),
        };
        assert!(independent(&a, &b, &state, &scenario));
        assert!(!independent(&a, &a, &state, &scenario));
    }

    #[test]
    fn send_to_an_idle_port_conflicts_with_coarse_processing() {
        let (scenario, mut state) = chain_state();
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        // Port 2 of switch 1 is busy, port 1 (where host 1 sits) is idle: a
        // send by host 1 would make port 1 busy, changing what the coarse
        // process_pkt transition services — they must be dependent.
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        let process = Transition::ProcessPacket {
            switch: SwitchId(1),
        };
        let send = Transition::HostSend {
            host: HostId(1),
            packet: pkt,
        };
        assert!(!independent(&process, &send, &state, &scenario));

        // Pushing onto an already-busy port, by contrast, commutes with
        // popping its head: once port 1 is busy too, the send and the
        // coarse processing are independent.
        let mut busy_both = state.clone();
        busy_both.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        let process_fp = process.footprint(&busy_both, &scenario);
        let send_fp = send.footprint(&busy_both, &scenario);
        assert!(process_fp.independent_of(&send_fp));
    }

    #[test]
    fn controller_involving_transitions_conflict_with_each_other() {
        let (scenario, state) = chain_state();
        let a = Transition::ControllerHandle {
            switch: SwitchId(1),
        };
        let b = Transition::ControllerHandle {
            switch: SwitchId(2),
        };
        assert!(a.footprint(&state, &scenario).involves_controller());
        // Two handler executions race on the controller runtime.
        assert!(!independent(&a, &b, &state, &scenario));
        // Statistics injection also executes controller code, so it races
        // with a handler execution too.
        let inject = Transition::InjectStats {
            switch: SwitchId(2),
            stats: vec![],
        };
        assert!(!independent(&a, &inject, &state, &scenario));
        // But a handler execution commutes with delivering an *older*
        // controller→switch message: the handler appends to channel tails,
        // process_of pops an (already present) head.
        let deliver = Transition::ProcessOf {
            switch: SwitchId(1),
        };
        assert!(independent(&a, &deliver, &state, &scenario));
    }

    #[test]
    fn pure_receive_is_independent_of_remote_processing() {
        // Host 1 in the hub scenario is the non-echo ping sender; its
        // receive transition (consuming an echo) is purely local once its
        // burst-free budget cannot be replenished.
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(3, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        state.enqueue_host(HostId(1), pkt);
        state.enqueue_ingress(SwitchId(2), PortId(2), pkt);
        let receive = Transition::HostReceive { host: HostId(1) };
        let process = Transition::ProcessPacket {
            switch: SwitchId(2),
        };
        let fp = receive.footprint(&state, &scenario);
        assert!(!fp.involves_controller());
        assert!(independent(&receive, &process, &state, &scenario));
    }

    #[test]
    fn footprints_expose_sorted_resource_sets() {
        let (scenario, state) = chain_state();
        let t = Transition::HostSend {
            host: HostId(1),
            packet: Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0),
        };
        let fp = t.footprint(&state, &scenario);
        assert!(!fp.reads().is_empty());
        assert!(!fp.writes().is_empty());
        assert!(fp.reads().windows(2).all(|w| w[0] < w[1]));
        assert!(fp.writes().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn digest_distinguishes_transitions() {
        let a = Transition::HostReceive { host: HostId(1) };
        let b = Transition::HostReceive { host: HostId(2) };
        let c = Transition::ProcessPacket {
            switch: SwitchId(1),
        };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(
            a.digest(),
            Transition::HostReceive { host: HostId(1) }.digest()
        );
    }

    #[test]
    fn fault_injections_conflict_on_the_budget_but_commute_with_remote_work() {
        let (scenario, mut state) = chain_state();
        let drop_head = Transition::ChannelFault {
            switch: SwitchId(1),
            port: PortId(1),
            fault: ChannelFault::DropHead,
        };
        let crash = Transition::SwitchCrash {
            switch: SwitchId(2),
        };
        // Any two budget-consuming injections race on the shared budget.
        assert!(!independent(&drop_head, &crash, &state, &scenario));
        // An ingress fault at switch 1 commutes with packet processing at
        // switch 2...
        let remote = Transition::ProcessPacket {
            switch: SwitchId(2),
        };
        assert!(independent(&drop_head, &remote, &state, &scenario));
        // ...but not with processing on the very queue it corrupts.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        let local = Transition::ProcessPacket {
            switch: SwitchId(1),
        };
        assert!(!independent(&drop_head, &local, &state, &scenario));
        // Recovery is budget-free, so it only conflicts with work at the
        // recovering switch itself.
        let reconnect = Transition::SwitchReconnect {
            switch: SwitchId(2),
        };
        assert!(independent(&reconnect, &local, &state, &scenario));
        assert!(!independent(&reconnect, &remote, &state, &scenario));
    }

    #[test]
    fn fault_digests_distinguish_kind_and_site() {
        let a = Transition::ChannelFault {
            switch: SwitchId(1),
            port: PortId(1),
            fault: ChannelFault::DropHead,
        };
        let b = Transition::ChannelFault {
            switch: SwitchId(1),
            port: PortId(1),
            fault: ChannelFault::DuplicateHead,
        };
        let c = Transition::ChannelFault {
            switch: SwitchId(2),
            port: PortId(1),
            fault: ChannelFault::DropHead,
        };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        let crash = Transition::SwitchCrash {
            switch: SwitchId(1),
        };
        let reconnect = Transition::SwitchReconnect {
            switch: SwitchId(1),
        };
        assert_ne!(crash.digest(), reconnect.digest());
    }

    #[test]
    fn enabled_transitions_all_have_footprints() {
        let scenario = testutil::hub_ping_scenario(2);
        let config = CheckerConfig::default();
        let state = SystemState::initial(&scenario);
        for t in enabled_transitions(&state, &scenario, &config) {
            // Smoke: footprint construction must not panic and must report
            // at least one write for every transition kind.
            let fp = t.footprint(&state, &scenario);
            assert!(!fp.writes().is_empty(), "{t} has an empty write set");
        }
    }
}
