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
//! A footprint is two bit sets — reads, writes — over the resources a
//! scenario has. The `Layout` gives every resource its bit: three global
//! ones, then a run per switch and a run per host, as many 64-bit words as
//! the topology needs. Disjointness is three ANDs per word, and filling a
//! footprint sets bits in a buffer the caller owns: the sleep-set reduction
//! ([`PorReduction`](crate::strategy::PorReduction)) lays the footprints of
//! one expansion side by side in one buffer it keeps, so computing them
//! allocates nothing. Footprints are computed from each state afresh — the
//! lock-step drain of NO-DELAY writes outside the executed transition's
//! footprint, so one cannot be carried from a node to its successors.
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
use nice_openflow::{ChannelFault, Fingerprint, Fnv64, HostId, OfMessage, PortId, SwitchId};

/// An abstract resource a transition may read or write.
#[derive(Debug, Clone, Copy)]
enum Res {
    /// The controller runtime, including the symbolic-discovery caches and
    /// the pending-statistics bookkeeping it owns.
    Controller,
    /// The global host-attachment map consulted by packet delivery
    /// (`host_at`), written by host moves.
    Locations,
    /// The shared fault budget. Every budget-consuming fault injection both
    /// reads it (enabledness requires a non-zero budget) and writes it (the
    /// injection decrements it), so any two injections are mutually
    /// dependent — which is exactly what soundness needs, because with one
    /// unit of budget left either injection disables the other.
    Budget,
    /// A switch's own state: flow table, packet buffer, counters.
    Switch(SwitchId),
    /// Consumer side of the switch→controller channel.
    Sw2cHead(SwitchId),
    /// Producer side of the switch→controller channel.
    Sw2cTail(SwitchId),
    /// Consumer side of the controller→switch channel.
    C2sHead(SwitchId),
    /// Producer side of the controller→switch channel.
    C2sTail(SwitchId),
    /// Consumer side of a switch ingress channel.
    IngressHead(SwitchId, PortId),
    /// Producer side of a switch ingress channel.
    IngressTail(SwitchId, PortId),
    /// A host's sending state (budget, burst credit, script position).
    HostTx(HostId),
    /// A host's receiving state (delivery counters).
    HostRx(HostId),
    /// A host's attachment point (read by its own sends/replies, written by
    /// moves).
    HostLoc(HostId),
    /// Consumer side of a host inbox.
    InboxHead(HostId),
    /// Producer side of a host inbox.
    InboxTail(HostId),
}

/// Where each resource of a scenario sits in a footprint's bit sets: the
/// three global resources, then `5 + 2 * ports` bits per switch (its state,
/// both ends of both control channels, both ends of each ingress port),
/// then five per host.
///
/// A footprint is a dozen lookups here, so the ids sit in arrays of their
/// own and are scanned: over the handful of switches and hosts a scenario
/// has that beats a search tree, and still costs nothing next to the rest
/// of a footprint on a topology of a hundred.
pub(crate) struct Layout {
    /// The switches, by id; `switch_first` and `switch_ports` run parallel.
    switch_ids: Vec<SwitchId>,
    /// Each switch's first bit.
    switch_first: Vec<usize>,
    /// Each switch's ports, sorted.
    switch_ports: Vec<Vec<PortId>>,
    /// The hosts, by id: host `i` has the five bits from
    /// `hosts_first + 5 * i`.
    host_ids: Vec<HostId>,
    hosts_first: usize,
    /// 64-bit words in one bit set.
    words: usize,
}

impl Layout {
    const GLOBALS: usize = 3;
    const PER_SWITCH: usize = 5;
    const PER_HOST: usize = 5;

    pub(crate) fn of(scenario: &Scenario) -> Layout {
        let mut switches: Vec<(SwitchId, Vec<PortId>)> = (scenario.topology.switches())
            .map(|spec| (spec.id, spec.ports.clone()))
            .collect();
        switches.sort_unstable_by_key(|(id, _)| *id);
        let mut next = Self::GLOBALS;
        let mut switch_first = Vec::with_capacity(switches.len());
        for (_, ports) in &mut switches {
            ports.sort_unstable();
            ports.dedup();
            switch_first.push(next);
            next += Self::PER_SWITCH + 2 * ports.len();
        }
        let (switch_ids, switch_ports) = switches.into_iter().unzip();
        let mut host_ids: Vec<HostId> = scenario.hosts.iter().map(|host| host.id()).collect();
        host_ids.sort_unstable();
        let hosts_first = next;
        next += Self::PER_HOST * host_ids.len();
        Layout {
            switch_ids,
            switch_first,
            switch_ports,
            host_ids,
            hosts_first,
            words: next.div_ceil(64),
        }
    }

    /// 64-bit words in one footprint: its read set, then its write set.
    pub(crate) fn footprint_words(&self) -> usize {
        2 * self.words
    }

    fn switch_bit(&self, switch: SwitchId, offset: usize) -> Option<usize> {
        let at = self.switch_ids.iter().position(|&id| id == switch)?;
        Some(self.switch_first[at] + offset)
    }

    fn port_bit(&self, switch: SwitchId, port: PortId, tail: usize) -> Option<usize> {
        let at = self.switch_ids.iter().position(|&id| id == switch)?;
        let index = self.switch_ports[at].iter().position(|&p| p == port)?;
        Some(self.switch_first[at] + Self::PER_SWITCH + 2 * index + tail)
    }

    fn host_bit(&self, host: HostId, offset: usize) -> Option<usize> {
        let at = self.host_ids.iter().position(|&id| id == host)?;
        Some(self.hosts_first + Self::PER_HOST * at + offset)
    }

    /// The bit of `resource`; `None` for a switch, port or host the
    /// scenario does not declare.
    fn bit(&self, resource: Res) -> Option<usize> {
        match resource {
            Res::Controller => Some(0),
            Res::Locations => Some(1),
            Res::Budget => Some(2),
            Res::Switch(s) => self.switch_bit(s, 0),
            Res::Sw2cHead(s) => self.switch_bit(s, 1),
            Res::Sw2cTail(s) => self.switch_bit(s, 2),
            Res::C2sHead(s) => self.switch_bit(s, 3),
            Res::C2sTail(s) => self.switch_bit(s, 4),
            Res::IngressHead(s, p) => self.port_bit(s, p, 0),
            Res::IngressTail(s, p) => self.port_bit(s, p, 1),
            Res::HostTx(h) => self.host_bit(h, 0),
            Res::HostRx(h) => self.host_bit(h, 1),
            Res::HostLoc(h) => self.host_bit(h, 2),
            Res::InboxHead(h) => self.host_bit(h, 3),
            Res::InboxTail(h) => self.host_bit(h, 4),
        }
    }
}

/// True if two footprints laid out as `[reads.., writes..]` permit commuting
/// their transitions: no write/write or read/write overlap between them
/// (read/read sharing is harmless).
pub(crate) fn disjoint(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "footprints of two layouts");
    let (a_reads, a_writes) = a.split_at(a.len() / 2);
    let (b_reads, b_writes) = b.split_at(b.len() / 2);
    (0..a_reads.len()).all(|i| {
        a_writes[i] & b_writes[i] == 0
            && a_writes[i] & b_reads[i] == 0
            && a_reads[i] & b_writes[i] == 0
    })
}

/// A footprint being filled in: the layout that places resources and the
/// two zeroed bit sets they are recorded in.
struct Sink<'a> {
    layout: &'a Layout,
    reads: &'a mut [u64],
    writes: &'a mut [u64],
}

impl Sink<'_> {
    /// The word and mask of `resource`. One the layout cannot place is a
    /// bug in the footprint rules (they name only what the scenario
    /// declares); a release build then records a write to *everything*,
    /// which conflicts with every footprint and so can only cost pruning.
    fn place(&mut self, resource: Res) -> Option<(usize, u64)> {
        let Some(bit) = self.layout.bit(resource) else {
            debug_assert!(false, "{resource:?} has no place in the layout");
            self.writes.fill(u64::MAX);
            return None;
        };
        Some((bit / 64, 1 << (bit % 64)))
    }

    fn read(&mut self, resource: Res) {
        if let Some((word, mask)) = self.place(resource) {
            self.reads[word] |= mask;
        }
    }

    fn write(&mut self, resource: Res) {
        if let Some((word, mask)) = self.place(resource) {
            self.writes[word] |= mask;
        }
    }

    fn touch(&mut self, resource: Res) {
        if let Some((word, mask)) = self.place(resource) {
            self.reads[word] |= mask;
            self.writes[word] |= mask;
        }
    }

    /// Records what a copy emitted by `switch` on `port` touches:
    /// `deliver` / `has_receiver` consult every host's current location,
    /// and the copy lands in the inbox of the attached host, or the ingress
    /// of the peer switch, or nowhere (it is lost). Mirrors `deliver` in
    /// [`crate::transition`].
    fn emit(&mut self, state: &SystemState, switch: SwitchId, port: PortId) {
        self.read(Res::Locations);
        if let Some(host) = state.host_at(switch, port) {
            self.write(Res::InboxTail(host));
        } else if let Some(peer) = state.topology().switch_peer(switch, port) {
            self.write(Res::IngressTail(peer.switch, peer.port));
        }
    }

    /// Worst-case footprint of a packet-emitting transition at `switch`: it
    /// may flood out of every port and notify the controller. Used when the
    /// concrete input (head message) cannot be inspected.
    fn worst_case_emission(&mut self, state: &SystemState, switch: SwitchId) {
        self.write(Res::Sw2cTail(switch));
        self.read(Res::Locations);
        for &port in ports_of(state, switch) {
            self.emit(state, switch, port);
        }
    }

    /// Folds in what processing the packet at the head of `(switch, port)`
    /// may emit: its predicted fate, or the worst case if the head cannot
    /// be seen.
    fn head_packet_writes(&mut self, state: &SystemState, switch: SwitchId, port: PortId) {
        match state.ingress(switch, port).and_then(|ch| ch.peek()) {
            Some(packet) => {
                if let Some(sw) = state.switch(switch) {
                    let emit = |out| self.emit(state, switch, out);
                    if sw.predict_packet_fate(packet, port, emit) {
                        self.write(Res::Sw2cTail(switch));
                    }
                }
            }
            None => self.worst_case_emission(state, switch),
        }
    }
}

/// The components a transition reads and writes, as bit sets over the
/// resources of its scenario (see the module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct Footprint {
    /// The read set, then the write set.
    words: Vec<u64>,
}

/// The indices of the bits set in `words`, ascending.
fn set_bits(words: &[u64]) -> Vec<usize> {
    (0..64 * words.len())
        .filter(|bit| words[bit / 64] >> (bit % 64) & 1 == 1)
        .collect()
}

impl std::fmt::Debug for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Footprint")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .finish()
    }
}

impl Footprint {
    /// The resources this transition may read, as ascending bit positions
    /// in its scenario's layout (for diagnostics; the search never lists a
    /// footprint).
    pub fn reads(&self) -> Vec<usize> {
        set_bits(&self.words[..self.words.len() / 2])
    }

    /// The resources this transition may write, likewise.
    pub fn writes(&self) -> Vec<usize> {
        set_bits(&self.words[self.words.len() / 2..])
    }

    /// True if the transition executes controller code or mutates
    /// controller-owned state (discovery caches, pending statistics).
    pub fn involves_controller(&self) -> bool {
        self.words[self.words.len() / 2] & 1 == 1
    }

    /// True if the two footprints — of transitions of one scenario — permit
    /// commuting the transitions: no write/write or read/write overlap
    /// between them (read/read sharing is harmless).
    ///
    /// The controller runtime needs no special-casing beyond its resource:
    /// every transition that executes controller code both reads and writes
    /// it, so two controller-involving transitions always conflict, and
    /// anything whose enabledness or effect depends on the controller state
    /// (e.g. discovery-mode sends) conflicts with them via its read of it.
    /// A controller handler and, say, a remote `process_pkt` genuinely
    /// commute: the handler consumes the head of one switch→controller
    /// channel and appends to controller→switch channels, while the packet
    /// processing appends to the *tail* of its own switch→controller
    /// channel — FIFO pushes and pops on disjoint ends commute.
    pub fn independent_of(&self, other: &Footprint) -> bool {
        disjoint(&self.words, &other.words)
    }
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

impl Transition {
    /// The component footprint of this transition in `state`: which parts of
    /// the system it may read and write when executed, over-approximated
    /// conservatively (see the module docs for the soundness argument).
    pub fn footprint(&self, state: &SystemState, scenario: &Scenario) -> Footprint {
        let layout = Layout::of(scenario);
        let mut words = vec![0; layout.footprint_words()];
        self.fill_footprint(state, scenario, &layout, &mut words);
        Footprint { words }
    }

    /// Records this transition's footprint in `words`, which is zeroed and
    /// `layout.footprint_words()` long.
    pub(crate) fn fill_footprint(
        &self,
        state: &SystemState,
        scenario: &Scenario,
        layout: &Layout,
        words: &mut [u64],
    ) {
        let (reads, writes) = words.split_at_mut(layout.words);
        let mut fp = Sink {
            layout,
            reads,
            writes,
        };
        match self {
            Transition::HostSend { host, .. } => {
                fp.touch(Res::HostTx(*host));
                fp.read(Res::HostLoc(*host));
                if scenario.send_policy.is_discover() {
                    // Which packets are relevant (and hence which send
                    // transitions exist) depends on the controller state.
                    fp.read(Res::Controller);
                }
                if let Some(h) = state.host(*host) {
                    let loc = h.location();
                    fp.write(Res::IngressTail(loc.switch, loc.port));
                }
            }

            Transition::HostReceive { host } => {
                fp.touch(Res::HostRx(*host));
                fp.touch(Res::InboxHead(*host));
                if let Some(h) = state.host(*host) {
                    if h.receive_replenishes_sends() {
                        fp.write(Res::HostTx(*host));
                    }
                    if h.may_reply() {
                        fp.read(Res::HostLoc(*host));
                        let loc = h.location();
                        fp.write(Res::IngressTail(loc.switch, loc.port));
                    }
                }
            }

            Transition::HostMove { host, .. } => {
                fp.touch(Res::HostLoc(*host));
                fp.write(Res::Locations);
            }

            Transition::ProcessPacket { switch } => {
                fp.touch(Res::Switch(*switch));
                // The switch's ports and its busy ports both come in port
                // order: one walk over each.
                let mut busy = state.busy_ingress_ports(*switch).peekable();
                for &port in ports_of(state, *switch) {
                    // (A busy port the switch does not declare has no
                    // head or tail resource, only what it emits.)
                    while let Some(stray) = busy.next_if(|&b| b < port) {
                        fp.head_packet_writes(state, *switch, stray);
                    }
                    if busy.next_if_eq(&port).is_some() {
                        fp.touch(Res::IngressHead(*switch, port));
                        fp.head_packet_writes(state, *switch, port);
                    } else {
                        // The transition services *every* busy port,
                        // so making an idle port busy changes its behaviour:
                        // record an enabling read on the producer side.
                        fp.read(Res::IngressTail(*switch, port));
                    }
                }
                for stray in busy {
                    fp.head_packet_writes(state, *switch, stray);
                }
            }

            Transition::ProcessOf { switch } => {
                fp.touch(Res::C2sHead(*switch));
                match state.ctrl_to_sw(*switch).and_then(|ch| ch.peek()) {
                    Some(OfMessage::FlowMod { .. }) => {
                        fp.write(Res::Switch(*switch));
                        fp.read(Res::Switch(*switch));
                    }
                    Some(OfMessage::BarrierRequest { .. }) => {
                        fp.write(Res::Sw2cTail(*switch));
                    }
                    Some(OfMessage::StatsRequest { .. }) => {
                        // Stats replies snapshot the counters, which every
                        // packet-processing step mutates.
                        fp.read(Res::Switch(*switch));
                        fp.write(Res::Sw2cTail(*switch));
                    }
                    Some(OfMessage::PacketOut {
                        buffer_id,
                        packet,
                        in_port,
                        actions,
                    }) => {
                        fp.touch(Res::Switch(*switch));
                        let resolved = match buffer_id {
                            Some(id) => state
                                .switch(*switch)
                                .and_then(|sw| sw.buffered_packet(*id))
                                .map(|bp| bp.in_port),
                            None => packet.as_ref().map(|_| *in_port),
                        };
                        if let (Some(origin), Some(sw)) = (resolved, state.switch(*switch)) {
                            let emit = |out| fp.emit(state, *switch, out);
                            if sw.predict_actions_fate(actions, origin, emit) {
                                fp.write(Res::Sw2cTail(*switch));
                            }
                        }
                    }
                    // An unexpected (or unobservable) head message: assume
                    // the worst.
                    _ => {
                        fp.touch(Res::Switch(*switch));
                        fp.worst_case_emission(state, *switch);
                    }
                }
            }

            Transition::ControllerHandle { switch } => {
                fp.touch(Res::Controller);
                fp.touch(Res::Sw2cHead(*switch));
                // The handler may enqueue messages towards any switch.
                for (s, _) in state.switches() {
                    fp.write(Res::C2sTail(s));
                }
            }

            Transition::DiscoverPackets { host } => {
                fp.touch(Res::Controller);
                fp.read(Res::HostLoc(*host));
            }

            Transition::DiscoverStats { switch } => {
                fp.touch(Res::Controller);
                fp.read(Res::Switch(*switch));
            }

            Transition::InjectStats { switch, .. } => {
                fp.touch(Res::Controller);
                fp.read(Res::Switch(*switch));
                for (s, _) in state.switches() {
                    fp.write(Res::C2sTail(s));
                }
            }

            Transition::ChannelFault {
                switch,
                port,
                fault,
            } => {
                fp.touch(Res::Budget);
                // Drop, duplicate and reorder only rearrange the first one or
                // two messages: they commute with a push onto the tail of the
                // same (non-empty) queue. A link failure additionally clears
                // the queue and discards future pushes, so it conflicts with
                // the producer side too.
                fp.touch(Res::IngressHead(*switch, *port));
                if matches!(fault, ChannelFault::FailLink) {
                    fp.touch(Res::IngressTail(*switch, *port));
                }
            }

            Transition::SwitchCrash { switch } => {
                fp.touch(Res::Budget);
                // The crash wipes the switch, drains every attached channel
                // (both ends: queued messages vanish and, while crashed,
                // deliveries towards the switch are discarded), and clears
                // the controller's pending-statistics bookkeeping for it.
                fp.touch(Res::Controller);
                fp.touch(Res::Switch(*switch));
                fp.touch(Res::Sw2cHead(*switch));
                fp.touch(Res::Sw2cTail(*switch));
                fp.touch(Res::C2sHead(*switch));
                fp.touch(Res::C2sTail(*switch));
                for &port in ports_of(state, *switch) {
                    fp.touch(Res::IngressHead(*switch, port));
                    fp.touch(Res::IngressTail(*switch, port));
                }
            }

            Transition::SwitchReconnect { switch } => {
                // Recovery is free (no budget), but it flips the crashed
                // flag — which re-enables deliveries to every ingress port —
                // restores the control channel, and enqueues a fresh join
                // towards the controller.
                fp.touch(Res::Switch(*switch));
                fp.write(Res::Sw2cTail(*switch));
                fp.touch(Res::C2sHead(*switch));
                fp.touch(Res::C2sTail(*switch));
                for &port in ports_of(state, *switch) {
                    fp.write(Res::IngressTail(*switch, port));
                }
            }

            Transition::ControllerFailover => {
                fp.touch(Res::Budget);
                // The standby replays (warm) or requests (cold) a join from
                // every live switch, so it reads every switch's state and may
                // append to every control channel in both directions.
                fp.touch(Res::Controller);
                for (s, _) in state.switches() {
                    fp.read(Res::Switch(s));
                    fp.write(Res::Sw2cTail(s));
                    fp.write(Res::C2sTail(s));
                }
            }

            Transition::MutateOfHead { switch, .. } => {
                fp.touch(Res::Budget);
                // The mutation rewrites the head of one controller→switch
                // channel in place; which mutations are enabled also depends
                // on that head message.
                fp.touch(Res::C2sHead(*switch));
            }
        }
    }

    /// A 64-bit digest identifying this transition (kind plus every
    /// distinguishing field, packet contents included). Used to store sleep
    /// sets compactly alongside state fingerprints and to match enabled
    /// transitions against inherited sleep-set entries.
    pub fn digest(&self) -> u64 {
        #[cfg(test)]
        DIGESTS.with(|calls| calls.set(calls.get() + 1));
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
            Transition::DiscoverPackets { host } => host.fingerprint(&mut h),
            Transition::InjectStats { switch, stats } => {
                switch.fingerprint(&mut h);
                h.write_usize(stats.len());
                for entry in stats {
                    entry.fingerprint(&mut h);
                }
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
thread_local! {
    /// [`Transition::digest`] calls made on this thread: the search is held
    /// to one per sleeper it creates.
    pub(crate) static DIGESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
    fn bit_set_independence_agrees_with_a_set_based_reference() {
        use std::collections::BTreeSet;
        // SplitMix64, seeded.
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        type Sets = (BTreeSet<usize>, BTreeSet<usize>);
        let footprint = |(reads, writes): &Sets, words: usize| {
            let mut fp = Footprint {
                words: vec![0; 2 * words],
            };
            for &bit in reads {
                fp.words[bit / 64] |= 1 << (bit % 64);
            }
            for &bit in writes {
                fp.words[words + bit / 64] |= 1 << (bit % 64);
            }
            fp
        };
        let (mut independent, mut dependent) = (0, 0);
        for case in 0..10_000 {
            // One to three words, and resources drawn from a range narrow
            // enough for overlaps and wide enough to cross a word boundary.
            let words = 1 + case % 3;
            let range = (64 * words).min(8 + next() as usize % 120);
            let mut draw = |most: u64| -> BTreeSet<usize> {
                let drawn = next() % most;
                (0..drawn).map(|_| next() as usize % range).collect()
            };
            let mut sets = || -> Sets { (draw(7), draw(5)) };
            let (a, b) = (sets(), sets());
            let expected = a.1.is_disjoint(&b.1) && a.1.is_disjoint(&b.0) && a.0.is_disjoint(&b.1);
            let (fa, fb) = (footprint(&a, words), footprint(&b, words));
            assert_eq!(
                fa.independent_of(&fb),
                expected,
                "case {case}: {fa:?} / {fb:?}"
            );
            assert_eq!(fb.independent_of(&fa), expected, "case {case}, swapped");
            assert_eq!(fa.reads(), a.0.iter().copied().collect::<Vec<_>>());
            assert_eq!(fa.writes(), a.1.iter().copied().collect::<Vec<_>>());
            if expected {
                independent += 1;
            } else {
                dependent += 1;
            }
        }
        assert!(
            independent > 1_000 && dependent > 1_000,
            "{independent} / {dependent}"
        );
    }

    #[test]
    fn the_layout_gives_every_declared_resource_a_bit_of_its_own() {
        // Two switches of three ports, two hosts.
        let scenario = testutil::hub_ping_scenario(1);
        let layout = Layout::of(&scenario);
        let mut resources = vec![Res::Controller, Res::Locations, Res::Budget];
        for spec in scenario.topology.switches() {
            let s = spec.id;
            resources.extend([
                Res::Switch(s),
                Res::Sw2cHead(s),
                Res::Sw2cTail(s),
                Res::C2sHead(s),
                Res::C2sTail(s),
            ]);
            for &p in &spec.ports {
                resources.extend([Res::IngressHead(s, p), Res::IngressTail(s, p)]);
            }
        }
        for host in &scenario.hosts {
            let h = host.id();
            resources.extend([
                Res::HostTx(h),
                Res::HostRx(h),
                Res::HostLoc(h),
                Res::InboxHead(h),
                Res::InboxTail(h),
            ]);
        }
        let expected = 3 + 2 * (5 + 2 * 3) + 2 * 5;
        assert_eq!(resources.len(), expected);
        let bits: Vec<usize> = (resources.iter())
            .map(|&r| layout.bit(r).unwrap_or_else(|| panic!("{r:?} has no bit")))
            .collect();
        // Dense and in declaration order: no two resources share a bit and
        // no bit is wasted.
        assert_eq!(bits, (0..expected).collect::<Vec<_>>());
        assert_eq!(layout.footprint_words(), 2 * expected.div_ceil(64));
        // What the scenario does not declare has no place.
        for stranger in [
            Res::Switch(SwitchId(9)),
            Res::IngressTail(SwitchId(1), PortId(9)),
            Res::InboxTail(HostId(9)),
        ] {
            assert_eq!(layout.bit(stranger), None, "{stranger:?}");
        }
        // The word count follows the topology, without a cap.
        let wide = nice_openflow::Topology::builder();
        let wide = (1..=40).fold(wide, |t, s| t.switch(SwitchId(s), &[1, 2, 3, 4]));
        let mut scenario = scenario;
        scenario.topology = wide.build();
        assert_eq!(
            Layout::of(&scenario).footprint_words(),
            2 * (3 + 40 * 13 + 10usize).div_ceil(64)
        );
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
