//! The global system state explored by the model checker.
//!
//! Following Section 2.1, the system state is the composition of the
//! component states — the controller program, every switch, every end host —
//! plus the contents of the FIFO channels between them. The state also
//! carries the per-client caches of *relevant packets* (`client.packets` in
//! Figure 5) and of discovered statistics replies, because those determine
//! which transitions are enabled and are therefore part of the client
//! component state.
//!
//! ## Copy-on-write representation
//!
//! Every large component — the controller runtime, each switch (and its flow
//! table), each host model, every FIFO channel, and the discovery memo
//! tables — sits behind an [`Arc`]. Cloning a `SystemState` therefore costs
//! O(number of components), not O(total state size): it bumps reference
//! counts. A component is deep-copied only at the first mutation after a
//! clone, via [`Arc::make_mut`] inside the `*_mut` accessors, so executing a
//! transition pays only for the components that transition actually touches.
//! This is what makes storing full frontier states affordable and what lets
//! checkpoint snapshots (see [`crate::checker`]) be taken essentially for
//! free. `Arc` (not `Rc`) is used throughout so states can move between the
//! worker threads of the parallel search.

use crate::scenario::Scenario;
use nice_controller::ControllerRuntime;
use nice_hosts::HostModel;
use nice_openflow::{
    FifoChannel, Fingerprint, Fnv64, HostId, Location, OfMessage, Packet, PacketId, PortId,
    PortStatsEntry, Switch, SwitchId, Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A component paired with a lazily computed fingerprint digest.
///
/// Because components are copy-on-write, a component that was not written
/// since its digest was computed still has that digest — so the state
/// fingerprint absorbs the cached 64-bit digest instead of re-hashing the
/// component's whole contents. The `*_mut` accessors reset the cache after
/// un-sharing (cloning an un-mutated component keeps the digest, which is
/// exactly right).
#[derive(Clone)]
struct Cached<T> {
    value: T,
    digest: OnceLock<u64>,
}

/// Relevant packets per controller-state fingerprint, per host.
type RelevantPacketsTable = BTreeMap<HostId, BTreeMap<u64, Vec<Packet>>>;
/// Discovered statistics replies per controller-state fingerprint, per
/// switch.
type DiscoveredStatsTable = BTreeMap<SwitchId, BTreeMap<u64, Vec<Vec<PortStatsEntry>>>>;

impl<T: Default> Default for Cached<T> {
    fn default() -> Self {
        Cached::new(T::default())
    }
}

impl<T> Cached<T> {
    fn new(value: T) -> Self {
        Cached {
            value,
            digest: OnceLock::new(),
        }
    }

    /// The component's digest, computing (and caching) it on first use.
    /// `seed` provides domain separation between component types.
    fn digest_with(&self, seed: u64, write: impl FnOnce(&T, &mut Fnv64)) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Fnv64::with_seed(seed);
            write(&self.value, &mut h);
            h.finish()
        })
    }

    /// Mutable access to the component, invalidating the cached digest.
    fn value_mut(&mut self) -> &mut T {
        self.digest = OnceLock::new();
        &mut self.value
    }
}

/// The complete state of the modelled system.
///
/// Cloning is cheap (copy-on-write, see the module docs); mutation goes
/// through the `*_mut` accessors which un-share only the touched component.
#[derive(Clone)]
pub struct SystemState {
    controller: Arc<Cached<ControllerRuntime>>,
    switches: BTreeMap<SwitchId, Arc<Cached<Switch>>>,
    hosts: BTreeMap<HostId, Arc<Cached<Box<dyn HostModel>>>>,
    /// Switch → controller OpenFlow channels (reliable, in order).
    sw_to_ctrl: BTreeMap<SwitchId, Arc<Cached<FifoChannel<OfMessage>>>>,
    /// Controller → switch OpenFlow channels (reliable, in order).
    ctrl_to_sw: BTreeMap<SwitchId, Arc<Cached<FifoChannel<OfMessage>>>>,
    /// Data-plane ingress channels: packets waiting to be processed by a
    /// switch, keyed by the port they will arrive on.
    ingress: BTreeMap<(SwitchId, PortId), Arc<Cached<FifoChannel<Packet>>>>,
    /// Packets in flight towards a host (delivered when the host's `receive`
    /// transition runs).
    host_inbox: BTreeMap<HostId, Arc<Cached<FifoChannel<Packet>>>>,
    /// Switches with an outstanding statistics request from the controller.
    pending_stats: BTreeSet<SwitchId>,
    /// Per-host relevant packets, keyed by controller-state fingerprint
    /// (`client.packets` in Figure 5). Written only by `discover_packets`,
    /// so the whole table shares one copy-on-write allocation.
    relevant_packets: Arc<RelevantPacketsTable>,
    /// Per-switch discovered replies, keyed by controller-state fingerprint.
    discovered_stats: Arc<DiscoveredStatsTable>,
    /// Provenance-id allocator for injected packets.
    next_packet_id: u64,
    /// Monotonic sequence used to remember when each controller→switch
    /// channel last received a message (consumed by the UNUSUAL strategy).
    of_enqueue_seq: u64,
    last_of_enqueue: BTreeMap<SwitchId, u64>,
    /// Remaining fault-injection budget (starts at the scenario's
    /// [`FaultPlan`](crate::faults::FaultPlan) budget; each injected fault
    /// consumes one unit).
    fault_budget: u32,
    /// Switches currently crashed (flow table wiped, channels down) and
    /// awaiting a reconnect.
    crashed: BTreeSet<SwitchId>,
    /// The static topology (shared, not part of the mutable state).
    topology: Arc<Topology>,
}

/// Domain-separation seed of the controller digest (`state(ctrl)` in
/// Figure 5 — also the key of the relevant-packet caches).
const CTRL_FP_SEED: u64 = 0xc0_11;
/// Domain-separation seed of per-switch digests.
const SWITCH_FP_SEED: u64 = 0x5_317c;
/// Domain-separation seed of per-host digests.
const HOST_FP_SEED: u64 = 0x40_57;
/// Domain-separation seed of per-channel digests (the channel's *slot* in
/// the combined fingerprint provides the per-kind separation).
const CHANNEL_FP_SEED: u64 = 0xc4a_221;
/// Domain-separation seed of the fault-state digest (remaining budget plus
/// the crashed-switch set).
const FAULTS_FP_SEED: u64 = 0xfa_017;

/// Slot tags distinguishing component kinds in the combined fingerprint.
mod slot {
    pub const CONTROLLER: u64 = 1;
    pub const SWITCH: u64 = 2;
    pub const HOST: u64 = 3;
    pub const SW_TO_CTRL: u64 = 4;
    pub const CTRL_TO_SW: u64 = 5;
    pub const INGRESS: u64 = 6;
    pub const HOST_INBOX: u64 = 7;
    pub const PENDING_STATS: u64 = 8;
    pub const RELEVANT_PACKETS: u64 = 9;
    pub const DISCOVERED_STATS: u64 = 10;
    pub const FAULTS: u64 = 11;
}

/// Mixes a component digest with its slot (kind + key) so the combined
/// XOR cannot confuse equal digests sitting in different places.
fn mix(tag: u64, key: u64, digest: u64) -> u64 {
    let mut h = Fnv64::with_seed(tag);
    h.write_u64(key);
    h.write_u64(digest);
    h.finish()
}

/// The cached digest of one channel, recomputed only if the channel was
/// mutated since it was last fingerprinted.
fn channel_digest<T: Fingerprint>(ch: &Cached<FifoChannel<T>>) -> u64 {
    ch.digest_with(CHANNEL_FP_SEED, |c, h| c.fingerprint(h))
}

impl std::fmt::Debug for SystemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemState")
            .field("controller", &self.controller.value)
            .field("switches", &self.switches.keys().collect::<Vec<_>>())
            .field("hosts", &self.hosts.keys().collect::<Vec<_>>())
            .field("pending_stats", &self.pending_stats)
            .finish()
    }
}

impl SystemState {
    /// Builds the initial state of a scenario: switches and hosts at their
    /// topology-declared attachments, empty channels, and the controller
    /// having already processed every switch's `switch_join` (switches are
    /// connected before testing starts, as in the paper's experiments).
    pub fn initial(scenario: &Scenario) -> SystemState {
        let topology = Arc::new(scenario.topology.clone());
        let mut controller = ControllerRuntime::new(scenario.app.clone_app());

        let mut switches = BTreeMap::new();
        let mut sw_to_ctrl = BTreeMap::new();
        let mut ctrl_to_sw = BTreeMap::new();
        let mut ingress = BTreeMap::new();
        for spec in topology.switches() {
            let switch = Switch::with_config(spec.id, spec.ports.clone(), scenario.switch_config);
            for &port in &spec.ports {
                ingress.insert(
                    (spec.id, port),
                    Arc::new(Cached::new(FifoChannel::with_faults(
                        scenario.fault_plan.channel_model_for(spec.id),
                    ))),
                );
            }
            sw_to_ctrl.insert(spec.id, Arc::new(Cached::new(FifoChannel::reliable())));
            ctrl_to_sw.insert(spec.id, Arc::new(Cached::new(FifoChannel::reliable())));
            switches.insert(spec.id, Arc::new(Cached::new(switch)));
        }

        let mut state = SystemState {
            controller: Arc::new(Cached::new(ControllerRuntime::new(
                scenario.app.clone_app(),
            ))),
            switches,
            hosts: BTreeMap::new(),
            sw_to_ctrl,
            ctrl_to_sw,
            ingress,
            host_inbox: BTreeMap::new(),
            pending_stats: BTreeSet::new(),
            relevant_packets: Arc::new(BTreeMap::new()),
            discovered_stats: Arc::new(BTreeMap::new()),
            next_packet_id: 1,
            of_enqueue_seq: 0,
            last_of_enqueue: BTreeMap::new(),
            fault_budget: scenario.fault_plan.budget,
            crashed: BTreeSet::new(),
            topology,
        };

        // Deliver switch_join events synchronously during initialisation so
        // the controller starts with its per-switch state set up.
        let join_messages: Vec<OfMessage> = state
            .switches
            .values()
            .map(|sw| sw.value.join_message())
            .collect();
        for msg in join_messages {
            let produced = controller.handle_message(&msg);
            for (target, m) in produced {
                state.enqueue_to_switch(target, m);
            }
        }
        state.controller = Arc::new(Cached::new(controller));

        for host in &scenario.hosts {
            let id = host.id();
            state
                .host_inbox
                .insert(id, Arc::new(Cached::new(FifoChannel::reliable())));
            state
                .hosts
                .insert(id, Arc::new(Cached::new(host.clone_host())));
        }

        state
    }

    // ----- Component access -----

    /// The controller runtime.
    pub fn controller(&self) -> &ControllerRuntime {
        &self.controller.value
    }

    /// Mutable access to the controller runtime (un-shares it if the
    /// allocation is shared with other states).
    pub fn controller_mut(&mut self) -> &mut ControllerRuntime {
        Arc::make_mut(&mut self.controller).value_mut()
    }

    /// The switches, in id order.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchId, &Switch)> {
        self.switches.iter().map(|(&id, sw)| (id, &sw.value))
    }

    /// One switch.
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switches.get(&id).map(|sw| &sw.value)
    }

    /// Mutable access to one switch (un-shares only that switch).
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        self.switches
            .get_mut(&id)
            .map(|sw| Arc::make_mut(sw).value_mut())
    }

    /// The hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &dyn HostModel)> {
        self.hosts.iter().map(|(&id, h)| (id, h.value.as_ref()))
    }

    /// One host.
    pub fn host(&self, id: HostId) -> Option<&dyn HostModel> {
        self.hosts.get(&id).map(|h| h.value.as_ref())
    }

    /// Mutable access to one host (un-shares only that host).
    pub fn host_mut(&mut self, id: HostId) -> Option<&mut Box<dyn HostModel>> {
        self.hosts
            .get_mut(&id)
            .map(|h| Arc::make_mut(h).value_mut())
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The host currently attached at `(switch, port)`, taking mobility into
    /// account.
    pub fn host_at(&self, switch: SwitchId, port: PortId) -> Option<HostId> {
        self.hosts
            .iter()
            .find(|(_, h)| h.value.location() == Location { switch, port })
            .map(|(&id, _)| id)
    }

    // ----- Channels -----

    /// Enqueues an OpenFlow message from the controller towards a switch.
    pub fn enqueue_to_switch(&mut self, switch: SwitchId, msg: OfMessage) {
        if let OfMessage::StatsRequest { .. } = &msg {
            self.pending_stats.insert(switch);
        }
        self.of_enqueue_seq += 1;
        self.last_of_enqueue.insert(switch, self.of_enqueue_seq);
        Arc::make_mut(self.ctrl_to_sw.entry(switch).or_default())
            .value_mut()
            .push(msg);
    }

    /// Enqueues an OpenFlow message from a switch towards the controller.
    pub fn enqueue_to_controller(&mut self, switch: SwitchId, msg: OfMessage) {
        Arc::make_mut(self.sw_to_ctrl.entry(switch).or_default())
            .value_mut()
            .push(msg);
    }

    /// Enqueues a data packet on a switch ingress port. Packets towards a
    /// crashed switch are silently discarded — its links are down.
    pub fn enqueue_ingress(&mut self, switch: SwitchId, port: PortId, packet: Packet) {
        if self.crashed.contains(&switch) {
            return;
        }
        Arc::make_mut(self.ingress.entry((switch, port)).or_default())
            .value_mut()
            .push(packet);
    }

    /// Enqueues a packet for delivery to a host.
    pub fn enqueue_host(&mut self, host: HostId, packet: Packet) {
        Arc::make_mut(self.host_inbox.entry(host).or_default())
            .value_mut()
            .push(packet);
    }

    /// The controller→switch channel of a switch.
    pub fn ctrl_to_sw(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.ctrl_to_sw.get(&switch).map(|ch| &ch.value)
    }

    /// Mutable controller→switch channel (un-shares only that channel).
    pub fn ctrl_to_sw_mut(&mut self, switch: SwitchId) -> Option<&mut FifoChannel<OfMessage>> {
        self.ctrl_to_sw
            .get_mut(&switch)
            .map(|ch| Arc::make_mut(ch).value_mut())
    }

    /// The switch→controller channel of a switch.
    pub fn sw_to_ctrl(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.sw_to_ctrl.get(&switch).map(|ch| &ch.value)
    }

    /// Mutable switch→controller channel (un-shares only that channel).
    pub fn sw_to_ctrl_mut(&mut self, switch: SwitchId) -> Option<&mut FifoChannel<OfMessage>> {
        self.sw_to_ctrl
            .get_mut(&switch)
            .map(|ch| Arc::make_mut(ch).value_mut())
    }

    /// The ingress channel of `(switch, port)`.
    pub fn ingress(&self, switch: SwitchId, port: PortId) -> Option<&FifoChannel<Packet>> {
        self.ingress.get(&(switch, port)).map(|ch| &ch.value)
    }

    /// Mutable ingress channel (un-shares only that channel).
    pub fn ingress_mut(
        &mut self,
        switch: SwitchId,
        port: PortId,
    ) -> Option<&mut FifoChannel<Packet>> {
        self.ingress
            .get_mut(&(switch, port))
            .map(|ch| Arc::make_mut(ch).value_mut())
    }

    /// Ports of `switch` whose ingress channel currently holds packets.
    pub fn busy_ingress_ports(&self, switch: SwitchId) -> Vec<PortId> {
        self.ingress
            .iter()
            .filter(|((s, _), ch)| *s == switch && !ch.value.is_empty())
            .map(|((_, p), _)| *p)
            .collect()
    }

    /// The inbox channel of a host.
    pub fn host_inbox(&self, host: HostId) -> Option<&FifoChannel<Packet>> {
        self.host_inbox.get(&host).map(|ch| &ch.value)
    }

    /// Mutable inbox channel of a host (un-shares only that channel).
    pub fn host_inbox_mut(&mut self, host: HostId) -> Option<&mut FifoChannel<Packet>> {
        self.host_inbox
            .get_mut(&host)
            .map(|ch| Arc::make_mut(ch).value_mut())
    }

    /// True if any switch↔controller channel holds messages (used to drain
    /// the control plane under NO-DELAY).
    pub fn control_plane_busy(&self) -> bool {
        self.sw_to_ctrl.values().any(|c| !c.value.is_empty())
            || self.ctrl_to_sw.values().any(|c| !c.value.is_empty())
    }

    /// Switches whose controller→switch channel is non-empty, with the
    /// sequence number of the most recent enqueue (used by UNUSUAL).
    pub fn of_backlog(&self) -> Vec<(SwitchId, u64)> {
        self.ctrl_to_sw
            .iter()
            .filter(|(_, ch)| !ch.value.is_empty())
            .map(|(&sw, _)| (sw, self.last_of_enqueue.get(&sw).copied().unwrap_or(0)))
            .collect()
    }

    // ----- Discovery caches and statistics bookkeeping -----

    /// Allocates a fresh provenance id for an injected packet.
    pub fn alloc_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Fingerprint of the controller state alone — the key of the
    /// relevant-packet cache (`state(ctrl)` in Figure 5). Cached until the
    /// controller is next mutated.
    pub fn controller_fingerprint(&self) -> u64 {
        self.controller
            .digest_with(CTRL_FP_SEED, |c, h| c.fingerprint(h))
    }

    /// The relevant packets cached for `host` in the current controller
    /// state, if discovery has run.
    pub fn relevant_packets(&self, host: HostId, ctrl_fp: u64) -> Option<&Vec<Packet>> {
        self.relevant_packets
            .get(&host)
            .and_then(|m| m.get(&ctrl_fp))
    }

    /// Stores the relevant packets for `host` under the given controller
    /// state.
    pub fn set_relevant_packets(&mut self, host: HostId, ctrl_fp: u64, packets: Vec<Packet>) {
        Arc::make_mut(&mut self.relevant_packets)
            .entry(host)
            .or_default()
            .insert(ctrl_fp, packets);
    }

    /// Discovered statistics replies for `switch` in the current controller
    /// state.
    pub fn discovered_stats(
        &self,
        switch: SwitchId,
        ctrl_fp: u64,
    ) -> Option<&Vec<Vec<PortStatsEntry>>> {
        self.discovered_stats
            .get(&switch)
            .and_then(|m| m.get(&ctrl_fp))
    }

    /// Stores discovered statistics replies.
    pub fn set_discovered_stats(
        &mut self,
        switch: SwitchId,
        ctrl_fp: u64,
        stats: Vec<Vec<PortStatsEntry>>,
    ) {
        Arc::make_mut(&mut self.discovered_stats)
            .entry(switch)
            .or_default()
            .insert(ctrl_fp, stats);
    }

    /// True if `switch` has an outstanding statistics request.
    pub fn stats_pending(&self, switch: SwitchId) -> bool {
        self.pending_stats.contains(&switch)
    }

    /// Clears the outstanding-statistics flag (a reply reached the
    /// controller).
    pub fn clear_stats_pending(&mut self, switch: SwitchId) {
        self.pending_stats.remove(&switch);
    }

    /// Switches with outstanding statistics requests.
    pub fn switches_awaiting_stats(&self) -> Vec<SwitchId> {
        self.pending_stats.iter().copied().collect()
    }

    // ----- Fault injection -----

    /// Remaining fault-injection budget.
    pub fn fault_budget(&self) -> u32 {
        self.fault_budget
    }

    /// Consumes one unit of the fault budget. Panics if the budget is
    /// exhausted — the checker only schedules fault transitions while the
    /// budget is positive.
    pub fn consume_fault_budget(&mut self) {
        assert!(self.fault_budget > 0, "fault budget exhausted");
        self.fault_budget -= 1;
    }

    /// True if `switch` is currently crashed.
    pub fn is_crashed(&self, switch: SwitchId) -> bool {
        self.crashed.contains(&switch)
    }

    /// Switches currently crashed, in id order.
    pub fn crashed_switches(&self) -> Vec<SwitchId> {
        self.crashed.iter().copied().collect()
    }

    /// Crashes a switch: the flow table and packet buffers are wiped (the
    /// switch restarts from factory state), every queued ingress packet is
    /// lost, the control channels go down (queued OpenFlow messages in both
    /// directions are lost), and a `switch_leave` is queued so the
    /// controller eventually observes the disconnect. The switch stays
    /// inert until [`SystemState::reconnect_switch`].
    pub fn crash_switch(&mut self, switch: SwitchId) {
        self.crashed.insert(switch);
        if let Some(sw) = self.switches.get_mut(&switch) {
            let fresh = Switch::with_config(switch, sw.value.ports.clone(), sw.value.config());
            *Arc::make_mut(sw).value_mut() = fresh;
        }
        let busy: Vec<PortId> = self.busy_ingress_ports(switch);
        for port in busy {
            if let Some(ch) = self.ingress_mut(switch, port) {
                while ch.pop().is_some() {}
            }
        }
        if let Some(ch) = self.sw_to_ctrl_mut(switch) {
            while ch.pop().is_some() {}
        }
        // An in-flight statistics request died with the channels.
        self.pending_stats.remove(&switch);
        if let Some(ch) = self.ctrl_to_sw_mut(switch) {
            ch.fail();
        }
        let leave = OfMessage::SwitchLeave { switch };
        self.enqueue_to_controller(switch, leave);
    }

    /// Reconnects a crashed switch: the control channel comes back up and
    /// the switch re-handshakes by queueing its `switch_join` — delivered
    /// asynchronously, so the checker explores every interleaving of the
    /// re-handshake with ordinary traffic.
    pub fn reconnect_switch(&mut self, switch: SwitchId) {
        self.crashed.remove(&switch);
        if let Some(ch) = self.ctrl_to_sw_mut(switch) {
            ch.restore();
        }
        if let Some(join) = self.switch(switch).map(|sw| sw.join_message()) {
            self.enqueue_to_controller(switch, join);
        }
    }

    /// Replaces the controller runtime (failover to a standby).
    pub fn replace_controller(&mut self, runtime: ControllerRuntime) {
        self.controller = Arc::new(Cached::new(runtime));
    }

    // ----- Fingerprinting -----

    /// The canonical 64-bit fingerprint of this state, used for the explored
    /// set (Section 6: hashes instead of full states).
    ///
    /// Computed *incrementally* as an order-independent XOR over the cached
    /// per-component digests: every copy-on-write component — the
    /// controller, each switch, each host, and since the incremental
    /// fingerprinting rework **each FIFO channel** — carries a lazily
    /// recomputed digest ([`Cached`]) that survives as long as the component
    /// is not mutated. Each digest is mixed with its slot (component kind +
    /// key, Zobrist style) before being XORed into the accumulator, so equal
    /// digests in different positions cannot cancel. A transition therefore
    /// pays only for re-hashing the handful of components it actually
    /// touched plus an O(#components) walk over cached 64-bit values —
    /// instead of re-walking every packet in every channel map as the
    /// pre-incremental implementation did. The small bookkeeping sets
    /// (pending statistics, the discovery-cache rows of the *current*
    /// controller state) are folded the same way; they are tiny.
    ///
    /// Golden-value tests in this module pin the per-channel digests to the
    /// exact FNV-1a hash of the channel contents and the combined value to
    /// an independent reference implementation, so the incremental path
    /// cannot silently drift.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        acc ^= mix(slot::CONTROLLER, 0, self.controller_fingerprint());
        for (id, sw) in &self.switches {
            acc ^= mix(
                slot::SWITCH,
                id.0 as u64,
                sw.digest_with(SWITCH_FP_SEED, |s, h| s.fingerprint(h)),
            );
        }
        for (id, host) in &self.hosts {
            acc ^= mix(
                slot::HOST,
                id.0 as u64,
                host.digest_with(HOST_FP_SEED, |x, h| x.fingerprint(h)),
            );
        }
        for (id, ch) in &self.sw_to_ctrl {
            acc ^= mix(slot::SW_TO_CTRL, id.0 as u64, channel_digest(ch));
        }
        for (id, ch) in &self.ctrl_to_sw {
            acc ^= mix(slot::CTRL_TO_SW, id.0 as u64, channel_digest(ch));
        }
        for ((sw, port), ch) in &self.ingress {
            let key = ((sw.0 as u64) << 16) | port.0 as u64;
            acc ^= mix(slot::INGRESS, key, channel_digest(ch));
        }
        for (id, ch) in &self.host_inbox {
            acc ^= mix(slot::HOST_INBOX, id.0 as u64, channel_digest(ch));
        }
        for sw in &self.pending_stats {
            acc ^= mix(slot::PENDING_STATS, sw.0 as u64, 1);
        }
        // The fault slot is folded only when fault state exists, so a
        // faults-off search (and a fault search that has spent its whole
        // budget with every switch recovered) fingerprints bit-identically
        // to a fault-unaware checker.
        if self.fault_budget != 0 || !self.crashed.is_empty() {
            let mut h = Fnv64::with_seed(FAULTS_FP_SEED);
            h.write_u64(self.fault_budget as u64);
            h.write_usize(self.crashed.len());
            for sw in &self.crashed {
                sw.fingerprint(&mut h);
            }
            acc ^= mix(slot::FAULTS, 0, h.finish());
        }
        // Only the discovery-cache entries for the *current* controller state
        // matter for enabledness; including the full history would make
        // states that differ only in stale cache entries look distinct.
        let ctrl_fp = self.controller_fingerprint();
        for (host, cache) in self.relevant_packets.iter() {
            if let Some(packets) = cache.get(&ctrl_fp) {
                let mut h = Fnv64::with_seed(ctrl_fp);
                packets.fingerprint(&mut h);
                acc ^= mix(slot::RELEVANT_PACKETS, host.0 as u64, h.finish());
            }
        }
        for (switch, cache) in self.discovered_stats.iter() {
            if let Some(entries) = cache.get(&ctrl_fp) {
                let mut h = Fnv64::with_seed(ctrl_fp);
                h.write_usize(entries.len());
                for reply in entries {
                    reply.fingerprint(&mut h);
                }
                acc ^= mix(slot::DISCOVERED_STATS, switch.0 as u64, h.finish());
            }
        }
        acc
    }

    /// Total number of packets currently buffered at switches awaiting a
    /// controller decision (used in reports).
    pub fn total_buffered_packets(&self) -> usize {
        self.switches
            .values()
            .map(|s| s.value.buffered_count())
            .sum()
    }

    /// True if a packet with the given provenance id is still traceable
    /// somewhere in the system: queued on an ingress channel or a host inbox,
    /// riding inside an OpenFlow message (a `PacketIn` copy or an inline
    /// `PacketOut`), buffered at a switch, or held by the controller
    /// application for re-delivery ([`ControllerApp::held_packets`]).
    ///
    /// Liveness-style properties (e.g.
    /// [`NoAbandonedPackets`](crate::properties::NoAbandonedPackets)) use this
    /// to detect the exact transition that *loses* a packet — once a packet is
    /// untraceable, no later transition can deliver it.
    ///
    /// [`ControllerApp::held_packets`]: nice_controller::ControllerApp::held_packets
    pub fn is_packet_in_flight(&self, id: PacketId) -> bool {
        let of_carries = |msg: &OfMessage| match msg {
            OfMessage::PacketIn { packet, .. } => packet.id == id,
            OfMessage::PacketOut {
                packet: Some(packet),
                ..
            } => packet.id == id,
            _ => false,
        };
        self.ingress
            .values()
            .chain(self.host_inbox.values())
            .any(|ch| ch.value.iter().any(|p| p.id == id))
            || self
                .sw_to_ctrl
                .values()
                .chain(self.ctrl_to_sw.values())
                .any(|ch| ch.value.iter().any(of_carries))
            || self
                .switches
                .values()
                .any(|s| s.value.buffered_packets().any(|(_, bp)| bp.packet.id == id))
            || self.controller.value.app().held_packets().contains(&id)
    }

    /// Total number of messages currently queued on any channel.
    pub fn total_queued_messages(&self) -> usize {
        self.sw_to_ctrl
            .values()
            .map(|c| c.value.len())
            .sum::<usize>()
            + self
                .ctrl_to_sw
                .values()
                .map(|c| c.value.len())
                .sum::<usize>()
            + self.ingress.values().map(|c| c.value.len()).sum::<usize>()
            + self
                .host_inbox
                .values()
                .map(|c| c.value.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use nice_openflow::MacAddr;

    #[test]
    fn initial_state_has_components_and_empty_channels() {
        let scenario = testutil::hub_ping_scenario(1);
        let state = SystemState::initial(&scenario);
        assert_eq!(state.switches().count(), 2);
        assert_eq!(state.hosts().count(), 2);
        assert_eq!(state.total_queued_messages(), 0);
        assert_eq!(state.total_buffered_packets(), 0);
        assert!(!state.control_plane_busy());
        assert!(state.host_at(SwitchId(1), PortId(1)).is_some());
        assert!(state.host_at(SwitchId(1), PortId(3)).is_none());
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let scenario = testutil::hub_ping_scenario(1);
        let a = SystemState::initial(&scenario);
        let b = SystemState::initial(&scenario);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = a.clone();
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        c.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn clone_is_deep_for_switches_and_hosts() {
        let scenario = testutil::hub_ping_scenario(1);
        let a = SystemState::initial(&scenario);
        let mut b = a.clone();
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        b.switch_mut(SwitchId(1))
            .unwrap()
            .process_packet(pkt, PortId(1));
        assert_eq!(a.switch(SwitchId(1)).unwrap().buffered_count(), 0);
        assert_eq!(b.switch(SwitchId(1)).unwrap().buffered_count(), 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn enqueue_to_switch_tracks_stats_requests_and_order() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        assert!(!state.stats_pending(SwitchId(1)));
        state.enqueue_to_switch(
            SwitchId(1),
            OfMessage::StatsRequest {
                kind: nice_openflow::StatsKind::Port,
                request_id: 1,
            },
        );
        assert!(state.stats_pending(SwitchId(1)));
        assert_eq!(state.switches_awaiting_stats(), vec![SwitchId(1)]);
        state.clear_stats_pending(SwitchId(1));
        assert!(!state.stats_pending(SwitchId(1)));

        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 });
        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 2 });
        let backlog = state.of_backlog();
        assert_eq!(backlog.len(), 2);
        // Switch 2 received the most recent message.
        let newest = backlog.iter().max_by_key(|(_, seq)| *seq).unwrap().0;
        assert_eq!(newest, SwitchId(2));
        assert!(state.control_plane_busy());
    }

    #[test]
    fn relevant_packet_cache_is_keyed_by_controller_state() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let fp = state.controller_fingerprint();
        assert!(state.relevant_packets(HostId(1), fp).is_none());
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let before = state.fingerprint();
        state.set_relevant_packets(HostId(1), fp, vec![pkt]);
        assert_eq!(state.relevant_packets(HostId(1), fp).unwrap().len(), 1);
        // Discovering packets changes the state fingerprint (it enables new
        // transitions), so the checker will explore the post-discovery state.
        assert_ne!(before, state.fingerprint());
        // An entry for a different controller state is invisible.
        assert!(state.relevant_packets(HostId(1), fp ^ 1).is_none());
    }

    #[test]
    fn clone_shares_components_until_written() {
        let scenario = testutil::hub_ping_scenario(1);
        let a = SystemState::initial(&scenario);
        let mut b = a.clone();
        // A fresh clone shares every component allocation.
        assert!(Arc::ptr_eq(&a.controller, &b.controller));
        assert!(Arc::ptr_eq(
            &a.switches[&SwitchId(1)],
            &b.switches[&SwitchId(1)]
        ));
        assert!(Arc::ptr_eq(&a.relevant_packets, &b.relevant_packets));

        // Writing one switch un-shares only that switch.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        b.switch_mut(SwitchId(1))
            .unwrap()
            .process_packet(pkt, PortId(1));
        assert!(!Arc::ptr_eq(
            &a.switches[&SwitchId(1)],
            &b.switches[&SwitchId(1)]
        ));
        assert!(Arc::ptr_eq(
            &a.switches[&SwitchId(2)],
            &b.switches[&SwitchId(2)]
        ));
        assert!(Arc::ptr_eq(&a.controller, &b.controller));
    }

    /// Recomputes the combined fingerprint from scratch, bypassing every
    /// digest cache: the independent reference the incremental path is
    /// pinned against.
    fn reference_fingerprint(state: &SystemState) -> u64 {
        let fresh = |write: &dyn Fn(&mut Fnv64), seed: u64| -> u64 {
            let mut h = Fnv64::with_seed(seed);
            write(&mut h);
            h.finish()
        };
        let mut acc = 0u64;
        acc ^= mix(
            slot::CONTROLLER,
            0,
            fresh(&|h| state.controller.value.fingerprint(h), CTRL_FP_SEED),
        );
        for (id, sw) in &state.switches {
            acc ^= mix(
                slot::SWITCH,
                id.0 as u64,
                fresh(&|h| sw.value.fingerprint(h), SWITCH_FP_SEED),
            );
        }
        for (id, host) in &state.hosts {
            acc ^= mix(
                slot::HOST,
                id.0 as u64,
                fresh(&|h| host.value.fingerprint(h), HOST_FP_SEED),
            );
        }
        for (id, ch) in &state.sw_to_ctrl {
            acc ^= mix(
                slot::SW_TO_CTRL,
                id.0 as u64,
                fresh(&|h| ch.value.fingerprint(h), CHANNEL_FP_SEED),
            );
        }
        for (id, ch) in &state.ctrl_to_sw {
            acc ^= mix(
                slot::CTRL_TO_SW,
                id.0 as u64,
                fresh(&|h| ch.value.fingerprint(h), CHANNEL_FP_SEED),
            );
        }
        for ((sw, port), ch) in &state.ingress {
            let key = ((sw.0 as u64) << 16) | port.0 as u64;
            acc ^= mix(
                slot::INGRESS,
                key,
                fresh(&|h| ch.value.fingerprint(h), CHANNEL_FP_SEED),
            );
        }
        for (id, ch) in &state.host_inbox {
            acc ^= mix(
                slot::HOST_INBOX,
                id.0 as u64,
                fresh(&|h| ch.value.fingerprint(h), CHANNEL_FP_SEED),
            );
        }
        for sw in &state.pending_stats {
            acc ^= mix(slot::PENDING_STATS, sw.0 as u64, 1);
        }
        if state.fault_budget != 0 || !state.crashed.is_empty() {
            let mut h = Fnv64::with_seed(FAULTS_FP_SEED);
            h.write_u64(state.fault_budget as u64);
            h.write_usize(state.crashed.len());
            for sw in &state.crashed {
                sw.fingerprint(&mut h);
            }
            acc ^= mix(slot::FAULTS, 0, h.finish());
        }
        let ctrl_fp = state.controller_fingerprint();
        for (host, cache) in state.relevant_packets.iter() {
            if let Some(packets) = cache.get(&ctrl_fp) {
                let mut h = Fnv64::with_seed(ctrl_fp);
                packets.fingerprint(&mut h);
                acc ^= mix(slot::RELEVANT_PACKETS, host.0 as u64, h.finish());
            }
        }
        for (switch, cache) in state.discovered_stats.iter() {
            if let Some(entries) = cache.get(&ctrl_fp) {
                let mut h = Fnv64::with_seed(ctrl_fp);
                h.write_usize(entries.len());
                for reply in entries {
                    reply.fingerprint(&mut h);
                }
                acc ^= mix(slot::DISCOVERED_STATS, switch.0 as u64, h.finish());
            }
        }
        acc
    }

    #[test]
    fn incremental_fingerprint_matches_uncached_reference() {
        let scenario = testutil::hub_ping_scenario(2);
        let mut state = SystemState::initial(&scenario);
        assert_eq!(state.fingerprint(), reference_fingerprint(&state));

        // Drive a few mutations through the cached accessors and re-check
        // after every step: the caches must never go stale.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_eq!(state.fingerprint(), reference_fingerprint(&state));

        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 7 });
        assert_eq!(state.fingerprint(), reference_fingerprint(&state));

        // Fingerprint once (filling every cache), mutate a single channel,
        // and verify only correct values come back out.
        let _ = state.fingerprint();
        state.ctrl_to_sw_mut(SwitchId(2)).unwrap().pop();
        assert_eq!(state.fingerprint(), reference_fingerprint(&state));

        state.enqueue_host(HostId(2), pkt);
        let cloned = state.clone();
        assert_eq!(cloned.fingerprint(), reference_fingerprint(&state));
    }

    #[test]
    fn channel_digest_is_cached_and_invalidated() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);

        let ch = &state.ingress[&(SwitchId(1), PortId(1))];
        let direct = {
            let mut h = Fnv64::with_seed(CHANNEL_FP_SEED);
            ch.value.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(channel_digest(ch), direct);
        // Cached on the OnceLock now.
        assert_eq!(ch.digest.get().copied(), Some(direct));

        // Mutation through the accessor drops the cache...
        state.ingress_mut(SwitchId(1), PortId(1)).unwrap().pop();
        let ch = &state.ingress[&(SwitchId(1), PortId(1))];
        assert_eq!(ch.digest.get(), None);
        // ...and the recomputed digest reflects the new contents.
        let direct_after = {
            let mut h = Fnv64::with_seed(CHANNEL_FP_SEED);
            ch.value.fingerprint(&mut h);
            h.finish()
        };
        assert_ne!(direct, direct_after);
        assert_eq!(channel_digest(ch), direct_after);
    }

    #[test]
    fn golden_mix_values_are_stable() {
        // Pins the slot-mix function (and thereby the whole combined
        // fingerprint scheme) so refactors cannot silently change explored-
        // set semantics or replay files.
        assert_eq!(mix(slot::CONTROLLER, 0, 0), 0x5b2a969b42d238a4);
        assert_eq!(mix(slot::SWITCH, 1, 0xdead_beef), 0xe06616201829fc28);
        assert_eq!(mix(slot::PENDING_STATS, 3, 1), 0x25086686098fd86f);
    }

    #[test]
    fn packet_id_allocation_is_monotonic() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let a = state.alloc_packet_id();
        let b = state.alloc_packet_id();
        assert!(b > a);
    }

    #[test]
    fn crash_wipes_and_reconnect_rehandshakes() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 });
        state.enqueue_to_controller(
            SwitchId(1),
            OfMessage::BarrierReply {
                switch: SwitchId(1),
                request_id: 1,
            },
        );

        state.crash_switch(SwitchId(1));
        assert!(state.is_crashed(SwitchId(1)));
        assert_eq!(state.crashed_switches(), vec![SwitchId(1)]);
        assert!(state.ingress(SwitchId(1), PortId(1)).unwrap().is_empty());
        assert!(state.ctrl_to_sw(SwitchId(1)).unwrap().is_failed());
        // Everything queued died; only the switch_leave notification is left.
        let sw2c = state.sw_to_ctrl(SwitchId(1)).unwrap();
        assert_eq!(sw2c.len(), 1);
        assert!(matches!(
            sw2c.peek(),
            Some(OfMessage::SwitchLeave { switch }) if *switch == SwitchId(1)
        ));
        // Messages towards the crashed switch are discarded.
        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 2 });
        assert!(state.ctrl_to_sw(SwitchId(1)).unwrap().is_empty());

        state.reconnect_switch(SwitchId(1));
        assert!(!state.is_crashed(SwitchId(1)));
        assert!(!state.ctrl_to_sw(SwitchId(1)).unwrap().is_failed());
        let kinds: Vec<&str> = state
            .sw_to_ctrl(SwitchId(1))
            .unwrap()
            .iter()
            .map(|m| m.kind_name())
            .collect();
        assert_eq!(kinds, vec!["switch_leave", "switch_join"]);
        assert_eq!(state.fingerprint(), reference_fingerprint(&state));
    }

    #[test]
    fn fault_state_folds_into_the_fingerprint_only_when_present() {
        let scenario = testutil::hub_ping_scenario(1);
        let plain = SystemState::initial(&scenario);
        let mut budgeted = SystemState::initial(&scenario);
        assert_eq!(budgeted.fault_budget(), 0);
        budgeted.fault_budget = 2;
        assert_ne!(plain.fingerprint(), budgeted.fingerprint());
        assert_eq!(budgeted.fingerprint(), reference_fingerprint(&budgeted));
        budgeted.consume_fault_budget();
        let one_left = budgeted.fingerprint();
        budgeted.consume_fault_budget();
        // Budget spent, nothing crashed: the slot disappears and the state
        // merges with the fault-free space.
        assert_ne!(one_left, budgeted.fingerprint());
        assert_eq!(plain.fingerprint(), budgeted.fingerprint());
    }

    #[test]
    #[should_panic(expected = "fault budget exhausted")]
    fn consuming_an_empty_budget_panics() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        state.consume_fault_budget();
    }

    #[test]
    fn busy_ingress_ports_reports_queued_packets() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        assert!(state.busy_ingress_ports(SwitchId(1)).is_empty());
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        assert_eq!(state.busy_ingress_ports(SwitchId(1)), vec![PortId(2)]);
        assert!(state.busy_ingress_ports(SwitchId(2)).is_empty());
    }
}
