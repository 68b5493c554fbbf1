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
//!
//! ## Incremental fingerprint
//!
//! The state fingerprint is an XOR of one value per component *slot* (the
//! controller, each switch, each host, each channel): the component's
//! digest mixed with the slot's kind and key. The state carries that XOR
//! with it instead of recomputing it. The invariant, kept by the only code
//! that hands out mutable access to a component (`Accumulator::write`):
//!
//! > a slot that is not in the dirty list has its digest cached and its
//! > mixed digest is in the accumulator.
//!
//! The first write to a slot XORs its old mixed digest out and lists it as
//! dirty; [`SystemState::fingerprint`] folds the dirty slots' current digests
//! over the accumulator, and settling folds them *in* and empties the list.
//! A clone is born settled, and the search settles a node's state before
//! cloning it for each successor, so a successor's list holds one
//! transition's writes: two to four slots of the fifty a mid-sized scenario
//! has, and that is what its fingerprint costs. Digests stay lazy: a slot
//! written again and again between two fingerprints (a replay) is digested
//! once, when it is next read.

use crate::scenario::Scenario;
use nice_controller::ControllerRuntime;
use nice_hosts::HostModel;
use nice_openflow::{
    FifoChannel, Fingerprint, Fnv64, HostId, Location, OfMessage, Packet, PacketId, PortId,
    PortStatsEntry, Switch, SwitchId, Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// What the fingerprint needs from a copy-on-write component: the seed that
/// separates its kind's digests from every other kind's, and its contents.
trait Component {
    /// Domain-separation seed of the component kind's digest.
    const SEED: u64;

    /// Feeds the component's fingerprint-relevant contents to `h`.
    fn write(&self, h: &mut Fnv64);
}

impl Component for ControllerRuntime {
    /// `state(ctrl)` in Figure 5 — also the key of the relevant-packet
    /// caches.
    const SEED: u64 = 0xc0_11;

    fn write(&self, h: &mut Fnv64) {
        self.fingerprint(h);
    }
}

impl Component for Switch {
    const SEED: u64 = 0x5_317c;

    fn write(&self, h: &mut Fnv64) {
        self.fingerprint(h);
    }
}

impl Component for Box<dyn HostModel> {
    const SEED: u64 = 0x40_57;

    fn write(&self, h: &mut Fnv64) {
        self.fingerprint(h);
    }
}

impl<T: Fingerprint> Component for FifoChannel<T> {
    /// One seed for all four channel kinds: the channel's *slot* in the
    /// combined fingerprint provides the per-kind separation.
    const SEED: u64 = 0xc4a_221;

    fn write(&self, h: &mut Fnv64) {
        self.fingerprint(h);
    }
}

/// A component paired with a lazily computed fingerprint digest.
///
/// Because components are copy-on-write, a component that was not written
/// since its digest was computed still has that digest — so the state
/// fingerprint absorbs the cached 64-bit digest instead of re-hashing the
/// component's whole contents. `Accumulator::write` resets the cache after
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
}

/// The digest of a component's current contents.
fn rehash<T: Component>(component: &T) -> u64 {
    let mut h = Fnv64::with_seed(T::SEED);
    component.write(&mut h);
    h.finish()
}

impl<T: Component> Cached<T> {
    /// The component's digest, computing (and caching) it on first use.
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| rehash(&self.value))
    }
}

/// One place a copy-on-write component sits in the state: its kind and key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Controller,
    Switch(SwitchId),
    Host(HostId),
    SwToCtrl(SwitchId),
    CtrlToSw(SwitchId),
    Ingress(SwitchId, PortId),
    HostInbox(HostId),
}

impl Slot {
    /// The value this slot contributes to the state fingerprint while its
    /// component digests to `digest`.
    fn mix(self, digest: u64) -> u64 {
        let (tag, key) = match self {
            Slot::Controller => (slot::CONTROLLER, 0),
            Slot::Switch(id) => (slot::SWITCH, id.0 as u64),
            Slot::Host(id) => (slot::HOST, id.0 as u64),
            Slot::SwToCtrl(id) => (slot::SW_TO_CTRL, id.0 as u64),
            Slot::CtrlToSw(id) => (slot::CTRL_TO_SW, id.0 as u64),
            Slot::Ingress(sw, port) => (slot::INGRESS, ((sw.0 as u64) << 16) | port.0 as u64),
            Slot::HostInbox(id) => (slot::HOST_INBOX, id.0 as u64),
        };
        mix(tag, key, digest)
    }
}

/// The running XOR of the component slots' contributions to the state
/// fingerprint (module docs, "Incremental fingerprint").
#[derive(Default)]
struct Accumulator {
    /// XOR of [`Slot::mix`] over every slot that is not in `dirty`.
    folded: u64,
    /// Slots written since the state was last settled, each once.
    dirty: Vec<Slot>,
}

impl Accumulator {
    /// Announces a write to the component in `cell`: on the first one since
    /// the last settle the slot's contribution leaves the accumulator and
    /// the slot turns dirty.
    fn retire<T: Component>(&mut self, slot: Slot, cell: &Cached<T>) {
        if !self.dirty.contains(&slot) {
            self.folded ^= slot.mix(cell.digest());
            self.dirty.push(slot);
        }
    }

    /// Mutable access to the component in `cell`, un-sharing it and dropping
    /// its cached digest.
    fn write<'a, T: Component + Clone>(
        &mut self,
        slot: Slot,
        cell: &'a mut Arc<Cached<T>>,
    ) -> &'a mut T {
        self.retire(slot, cell);
        let cell = Arc::make_mut(cell);
        cell.digest = OnceLock::new();
        &mut cell.value
    }

    /// The channel at `key`, for queueing on. [`SystemState::initial`]
    /// creates every channel the topology implies, so a missing one means a
    /// message for a switch, port or host the topology does not know; it
    /// starts empty and folded in, like every other clean slot.
    fn channel_mut<'a, K: Ord, T: Fingerprint + Clone>(
        &mut self,
        slot: Slot,
        channels: &'a mut BTreeMap<K, Arc<Cached<FifoChannel<T>>>>,
        key: K,
    ) -> &'a mut FifoChannel<T> {
        let cell = channels.entry(key).or_insert_with(|| {
            let cell = Arc::<Cached<FifoChannel<T>>>::default();
            self.folded ^= slot.mix(cell.digest());
            cell
        });
        self.write(slot, cell)
    }
}

/// The complete state of the modelled system.
///
/// Cloning is cheap (copy-on-write, see the module docs); mutation goes
/// through the `*_mut` accessors which un-share only the touched component.
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
    /// The component slots' share of the fingerprint, kept up to date by
    /// every write.
    acc: Accumulator,
}

impl Clone for SystemState {
    /// Bumps the components' reference counts and settles the copy, whose
    /// fingerprint then costs what is written to *it*. The states the
    /// search clones are settled already, so there the fold is empty.
    fn clone(&self) -> Self {
        SystemState {
            controller: self.controller.clone(),
            switches: self.switches.clone(),
            hosts: self.hosts.clone(),
            sw_to_ctrl: self.sw_to_ctrl.clone(),
            ctrl_to_sw: self.ctrl_to_sw.clone(),
            ingress: self.ingress.clone(),
            host_inbox: self.host_inbox.clone(),
            pending_stats: self.pending_stats.clone(),
            relevant_packets: self.relevant_packets.clone(),
            discovered_stats: self.discovered_stats.clone(),
            next_packet_id: self.next_packet_id,
            of_enqueue_seq: self.of_enqueue_seq,
            last_of_enqueue: self.last_of_enqueue.clone(),
            fault_budget: self.fault_budget,
            crashed: self.crashed.clone(),
            topology: self.topology.clone(),
            acc: Accumulator {
                folded: self.slots_share(),
                dirty: Vec::new(),
            },
        }
    }
}

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

        let mut hosts = BTreeMap::new();
        let mut host_inbox = BTreeMap::new();
        for host in &scenario.hosts {
            host_inbox.insert(host.id(), Arc::new(Cached::new(FifoChannel::reliable())));
            hosts.insert(host.id(), Arc::new(Cached::new(host.clone_host())));
        }

        // Deliver switch_join events synchronously during initialisation so
        // the controller starts with its per-switch state set up.
        let produced: Vec<(SwitchId, OfMessage)> = switches
            .values()
            .flat_map(|sw| controller.handle_message(&sw.value.join_message()))
            .collect();

        let mut state = SystemState {
            controller: Arc::new(Cached::new(controller)),
            switches,
            hosts,
            sw_to_ctrl,
            ctrl_to_sw,
            ingress,
            host_inbox,
            pending_stats: BTreeSet::new(),
            relevant_packets: Arc::new(BTreeMap::new()),
            discovered_stats: Arc::new(BTreeMap::new()),
            next_packet_id: 1,
            of_enqueue_seq: 0,
            last_of_enqueue: BTreeMap::new(),
            fault_budget: scenario.fault_plan.budget,
            crashed: BTreeSet::new(),
            topology,
            acc: Accumulator::default(),
        };
        // Nothing is folded yet, so every slot starts dirty; settling is
        // then the one full walk over the slots, and every later
        // fingerprint starts from the accumulator it seeds.
        state.acc.dirty = state.slots().collect();
        for (target, msg) in produced {
            state.enqueue_to_switch(target, msg);
        }
        state.settle();
        state
    }

    /// Every component slot of this state.
    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        std::iter::once(Slot::Controller)
            .chain(self.switches.keys().map(|&id| Slot::Switch(id)))
            .chain(self.hosts.keys().map(|&id| Slot::Host(id)))
            .chain(self.sw_to_ctrl.keys().map(|&id| Slot::SwToCtrl(id)))
            .chain(self.ctrl_to_sw.keys().map(|&id| Slot::CtrlToSw(id)))
            .chain(
                self.ingress
                    .keys()
                    .map(|&(sw, port)| Slot::Ingress(sw, port)),
            )
            .chain(self.host_inbox.keys().map(|&id| Slot::HostInbox(id)))
    }

    /// What `slot` contributes to the fingerprint right now (caching the
    /// component's digest if it was not).
    fn contribution(&self, slot: Slot) -> u64 {
        slot.mix(match slot {
            Slot::Controller => self.controller.digest(),
            Slot::Switch(id) => self.switches[&id].digest(),
            Slot::Host(id) => self.hosts[&id].digest(),
            Slot::SwToCtrl(id) => self.sw_to_ctrl[&id].digest(),
            Slot::CtrlToSw(id) => self.ctrl_to_sw[&id].digest(),
            Slot::Ingress(sw, port) => self.ingress[&(sw, port)].digest(),
            Slot::HostInbox(id) => self.host_inbox[&id].digest(),
        })
    }

    /// The component slots' share of the fingerprint: the accumulator with
    /// the dirty slots' current contributions folded over it.
    fn slots_share(&self) -> u64 {
        self.acc
            .dirty
            .iter()
            .fold(self.acc.folded, |acc, &slot| acc ^ self.contribution(slot))
    }

    /// Folds the dirty slots back into the accumulator, so that neither
    /// [`fingerprint`](Self::fingerprint) nor a clone has to. The search
    /// calls this once per expanded node (`Node::materialize`).
    pub(crate) fn settle(&mut self) {
        self.acc.folded = self.slots_share();
        self.acc.dirty.clear();
    }

    // ----- Component access -----

    /// The controller runtime.
    pub fn controller(&self) -> &ControllerRuntime {
        &self.controller.value
    }

    /// Mutable access to the controller runtime (un-shares it if the
    /// allocation is shared with other states).
    pub fn controller_mut(&mut self) -> &mut ControllerRuntime {
        self.acc.write(Slot::Controller, &mut self.controller)
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
        let cell = self.switches.get_mut(&id)?;
        Some(self.acc.write(Slot::Switch(id), cell))
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
        let cell = self.hosts.get_mut(&id)?;
        Some(self.acc.write(Slot::Host(id), cell))
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
        self.acc
            .channel_mut(Slot::CtrlToSw(switch), &mut self.ctrl_to_sw, switch)
            .push(msg);
    }

    /// Enqueues an OpenFlow message from a switch towards the controller.
    pub fn enqueue_to_controller(&mut self, switch: SwitchId, msg: OfMessage) {
        self.acc
            .channel_mut(Slot::SwToCtrl(switch), &mut self.sw_to_ctrl, switch)
            .push(msg);
    }

    /// Enqueues a data packet on a switch ingress port. Packets towards a
    /// crashed switch are silently discarded — its links are down.
    pub fn enqueue_ingress(&mut self, switch: SwitchId, port: PortId, packet: Packet) {
        if self.crashed.contains(&switch) {
            return;
        }
        let slot = Slot::Ingress(switch, port);
        self.acc
            .channel_mut(slot, &mut self.ingress, (switch, port))
            .push(packet);
    }

    /// Enqueues a packet for delivery to a host.
    pub fn enqueue_host(&mut self, host: HostId, packet: Packet) {
        self.acc
            .channel_mut(Slot::HostInbox(host), &mut self.host_inbox, host)
            .push(packet);
    }

    /// The controller→switch channel of a switch.
    pub fn ctrl_to_sw(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.ctrl_to_sw.get(&switch).map(|ch| &ch.value)
    }

    /// Mutable controller→switch channel (un-shares only that channel).
    pub fn ctrl_to_sw_mut(&mut self, switch: SwitchId) -> Option<&mut FifoChannel<OfMessage>> {
        let cell = self.ctrl_to_sw.get_mut(&switch)?;
        Some(self.acc.write(Slot::CtrlToSw(switch), cell))
    }

    /// The switch→controller channel of a switch.
    pub fn sw_to_ctrl(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.sw_to_ctrl.get(&switch).map(|ch| &ch.value)
    }

    /// Mutable switch→controller channel (un-shares only that channel).
    pub fn sw_to_ctrl_mut(&mut self, switch: SwitchId) -> Option<&mut FifoChannel<OfMessage>> {
        let cell = self.sw_to_ctrl.get_mut(&switch)?;
        Some(self.acc.write(Slot::SwToCtrl(switch), cell))
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
        let cell = self.ingress.get_mut(&(switch, port))?;
        Some(self.acc.write(Slot::Ingress(switch, port), cell))
    }

    /// Ports of `switch` whose ingress channel currently holds packets, in
    /// port order.
    pub fn busy_ingress_ports(&self, switch: SwitchId) -> impl Iterator<Item = PortId> + '_ {
        self.ingress
            .range((switch, PortId(0))..=(switch, PortId(u16::MAX)))
            .filter(|(_, ch)| !ch.value.is_empty())
            .map(|(&(_, port), _)| port)
    }

    /// The inbox channel of a host.
    pub fn host_inbox(&self, host: HostId) -> Option<&FifoChannel<Packet>> {
        self.host_inbox.get(&host).map(|ch| &ch.value)
    }

    /// Mutable inbox channel of a host (un-shares only that channel).
    pub fn host_inbox_mut(&mut self, host: HostId) -> Option<&mut FifoChannel<Packet>> {
        let cell = self.host_inbox.get_mut(&host)?;
        Some(self.acc.write(Slot::HostInbox(host), cell))
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
        self.controller.digest()
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
        if let Some(sw) = self.switch_mut(switch) {
            *sw = Switch::with_config(switch, sw.ports.clone(), sw.config());
        }
        let busy: Vec<PortId> = self.busy_ingress_ports(switch).collect();
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
        self.acc.retire(Slot::Controller, &self.controller);
        self.controller = Arc::new(Cached::new(runtime));
    }

    // ----- Fingerprinting -----

    /// The canonical 64-bit fingerprint of this state, used for the explored
    /// set (Section 6: hashes instead of full states).
    ///
    /// An order-independent XOR of one value per component slot — the
    /// component's digest mixed with the slot's kind and key, Zobrist style,
    /// so equal digests in different positions cannot cancel — and of the
    /// small bookkeeping sets. The slots' share is not recomputed here: it
    /// is the accumulator the state carries (module docs, "Incremental
    /// fingerprint") with the slots written since the last settle folded
    /// over it, so a call costs one component re-hash and one mix per
    /// written slot — not a walk over every slot. The bookkeeping (pending
    /// statistics, the fault slot, the discovery-cache rows of the *current*
    /// controller state) is folded afresh each call; it is tiny.
    ///
    /// Golden-value tests in this module pin the per-channel digests to the
    /// exact FNV-1a hash of the channel contents, and
    /// [`reference_fingerprint`](Self::reference_fingerprint) re-hashes
    /// everything from scratch; `tests/fingerprint_walk.rs` holds the two
    /// equal after every transition of a random walk over every shipped
    /// scenario, so the accumulator cannot silently drift.
    pub fn fingerprint(&self) -> u64 {
        self.slots_share() ^ self.bookkeeping_share(self.controller_fingerprint())
    }

    /// The share of the fingerprint that has no cache to go stale and is
    /// folded afresh on every call: pending statistics requests, the fault
    /// state, and the discovery-cache rows of the controller state that
    /// digests to `ctrl_fp`.
    fn bookkeeping_share(&self, ctrl_fp: u64) -> u64 {
        let mut acc = 0u64;
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

    /// The reference the tests hold [`fingerprint`](Self::fingerprint) to: a
    /// full re-hash of every component, map by map, that reads neither a
    /// cached digest nor the accumulator. Nothing in the checker calls it.
    #[doc(hidden)]
    pub fn reference_fingerprint(&self) -> u64 {
        let ctrl_fp = rehash(&self.controller.value);
        let mut acc = mix(slot::CONTROLLER, 0, ctrl_fp);
        for (id, sw) in &self.switches {
            acc ^= mix(slot::SWITCH, id.0 as u64, rehash(&sw.value));
        }
        for (id, host) in &self.hosts {
            acc ^= mix(slot::HOST, id.0 as u64, rehash(&host.value));
        }
        for (id, ch) in &self.sw_to_ctrl {
            acc ^= mix(slot::SW_TO_CTRL, id.0 as u64, rehash(&ch.value));
        }
        for (id, ch) in &self.ctrl_to_sw {
            acc ^= mix(slot::CTRL_TO_SW, id.0 as u64, rehash(&ch.value));
        }
        for ((sw, port), ch) in &self.ingress {
            let key = ((sw.0 as u64) << 16) | port.0 as u64;
            acc ^= mix(slot::INGRESS, key, rehash(&ch.value));
        }
        for (id, ch) in &self.host_inbox {
            acc ^= mix(slot::HOST_INBOX, id.0 as u64, rehash(&ch.value));
        }
        acc ^ self.bookkeeping_share(ctrl_fp)
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

    #[test]
    fn incremental_fingerprint_matches_uncached_reference() {
        let scenario = testutil::hub_ping_scenario(2);
        let mut state = SystemState::initial(&scenario);
        assert_eq!(state.fingerprint(), state.reference_fingerprint());

        // Drive a few mutations through the cached accessors and re-check
        // after every step: the caches must never go stale.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_eq!(state.fingerprint(), state.reference_fingerprint());

        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 7 });
        assert_eq!(state.fingerprint(), state.reference_fingerprint());

        // Fingerprint once (filling every cache), mutate a single channel,
        // and verify only correct values come back out.
        let _ = state.fingerprint();
        state.ctrl_to_sw_mut(SwitchId(2)).unwrap().pop();
        assert_eq!(state.fingerprint(), state.reference_fingerprint());

        state.enqueue_host(HostId(2), pkt);
        let cloned = state.clone();
        assert_eq!(cloned.fingerprint(), state.reference_fingerprint());
    }

    #[test]
    fn channel_digest_is_cached_and_invalidated() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);

        let ch = &state.ingress[&(SwitchId(1), PortId(1))];
        let direct = {
            let mut h = Fnv64::with_seed(FifoChannel::<Packet>::SEED);
            ch.value.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(ch.digest(), direct);
        // Cached on the OnceLock now.
        assert_eq!(ch.digest.get().copied(), Some(direct));

        // Mutation through the accessor drops the cache...
        state.ingress_mut(SwitchId(1), PortId(1)).unwrap().pop();
        let ch = &state.ingress[&(SwitchId(1), PortId(1))];
        assert_eq!(ch.digest.get(), None);
        // ...and the recomputed digest reflects the new contents.
        let direct_after = {
            let mut h = Fnv64::with_seed(FifoChannel::<Packet>::SEED);
            ch.value.fingerprint(&mut h);
            h.finish()
        };
        assert_ne!(direct, direct_after);
        assert_eq!(ch.digest(), direct_after);
    }

    #[test]
    fn a_written_slot_is_dirty_once_until_the_state_settles() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        assert!(state.acc.dirty.is_empty(), "initial states are settled");
        let clean = state.acc.folded;

        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        state.ingress_mut(SwitchId(1), PortId(1)).unwrap().pop();
        state.controller_mut();
        let ingress = Slot::Ingress(SwitchId(1), PortId(1));
        assert_eq!(state.acc.dirty, [ingress, Slot::Controller]);
        // Both contributions left the accumulator with the first write.
        let empty = Arc::<Cached<FifoChannel<Packet>>>::default().digest();
        assert_eq!(
            state.acc.folded,
            clean ^ ingress.mix(empty) ^ Slot::Controller.mix(state.controller_fingerprint())
        );
        let dirty_fingerprint = state.fingerprint();
        assert_eq!(dirty_fingerprint, state.reference_fingerprint());

        // A clone is born settled; settling the original changes what the
        // accumulator holds, not the fingerprint.
        let clone = state.clone();
        assert!(clone.acc.dirty.is_empty());
        assert_eq!(clone.fingerprint(), dirty_fingerprint);
        state.settle();
        assert!(state.acc.dirty.is_empty());
        assert_eq!(state.acc.folded, clone.acc.folded);
        assert_eq!(state.fingerprint(), dirty_fingerprint);
    }

    #[test]
    fn queueing_on_a_channel_the_topology_lacks_keeps_the_accumulator_exact() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let nowhere = SwitchId(9);
        let barrier = OfMessage::BarrierRequest { request_id: 1 };
        let queue: [&dyn Fn(&mut SystemState); 4] = [
            &|s| s.enqueue_to_switch(nowhere, barrier.clone()),
            &|s| s.enqueue_to_controller(nowhere, OfMessage::SwitchLeave { switch: nowhere }),
            &|s| s.enqueue_ingress(nowhere, PortId(4), pkt),
            &|s| s.enqueue_host(HostId(9), pkt),
        ];
        for (queued, enqueue) in queue.iter().enumerate() {
            let before = state.fingerprint();
            enqueue(&mut state);
            assert_ne!(state.fingerprint(), before, "channel {queued}");
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
            assert_eq!(state.clone().fingerprint(), state.reference_fingerprint());
            // Once more on the now-known (and, every other time, settled)
            // channel.
            if queued % 2 == 0 {
                state.settle();
            }
            enqueue(&mut state);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        assert_eq!(state.total_queued_messages(), 8);
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
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
    }

    #[test]
    fn fault_state_folds_into_the_fingerprint_only_when_present() {
        let scenario = testutil::hub_ping_scenario(1);
        let plain = SystemState::initial(&scenario);
        let mut budgeted = SystemState::initial(&scenario);
        assert_eq!(budgeted.fault_budget(), 0);
        budgeted.fault_budget = 2;
        assert_ne!(plain.fingerprint(), budgeted.fingerprint());
        assert_eq!(budgeted.fingerprint(), budgeted.reference_fingerprint());
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
        let busy = |state: &SystemState, switch| -> Vec<PortId> {
            state.busy_ingress_ports(SwitchId(switch)).collect()
        };
        assert!(busy(&state, 1).is_empty());
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_eq!(busy(&state, 1), vec![PortId(1), PortId(2)]);
        assert!(busy(&state, 2).is_empty());
    }
}
