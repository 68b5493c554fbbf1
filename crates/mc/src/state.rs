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
//! ## Copy-on-write cells, and only for what is there
//!
//! Every large component — the controller runtime, each switch (and its flow
//! table), each host model, each FIFO channel *that holds something* — sits
//! in a cell behind an [`Arc`], and the cells of one kind sit in one small
//! vector sorted by id (`Sorted`). The two discovery tables, which only the
//! two discover transitions write, share one more `Arc`. Cloning a
//! `SystemState` therefore copies a handful of short vectors and bumps one
//! reference count per cell; a component is deep-copied only at the first
//! mutation after a clone, via [`Arc::make_mut`] inside the `*_mut`
//! accessors, so executing a transition pays only for the components it
//! touches. This is what makes it affordable for every frontier node to
//! own its state (see [`crate::checker`]). `Arc` (not `Rc`) is used throughout so states can
//! move between the worker threads of the parallel search.
//!
//! **A channel has a cell iff it holds a message or its link has failed.**
//! An absent channel *is* the empty channel whose link is up, for every
//! reader: the accessors return `None` for it and every caller reads `None`
//! as "nothing queued". Most channels a topology implies are in that state
//! most of the time (an 8-switch chain implies 42 of them, and with two
//! pings in flight a handful hold anything), and a cell per channel would
//! be cloned and dropped with every successor state without ever being
//! read. The `*_mut` accessors create the cell they are asked for — a push,
//! or `fail()` on a crash, must land somewhere — and the cell of a channel
//! that has gone back to empty and un-failed is dropped when the state is
//! settled (see below) and is never copied into a clone. So a settled state
//! and every clone hold no cell for an idle channel; between two settles a
//! written state may hold a few. The initial state of `chain:8:2` holds 11
//! cells (controller, 8 switches, 2 hosts) plus one per queued
//! `switch_join` reply, where a cell per channel made it 53.
//!
//! ## Incremental fingerprint
//!
//! The state fingerprint is an XOR of one value per component *slot* (the
//! controller, each switch, each host, each channel): the component's
//! digest mixed with the slot's kind and key. The state carries that XOR
//! with it instead of recomputing it. The invariant, kept by the only code
//! that hands out mutable access to a component (`Accumulator::write` and
//! `Accumulator::channel_mut`):
//!
//! > a slot that is not in the dirty list has its share in the accumulator
//! > (and, if it has a cell, its digest cached).
//!
//! The first write to a slot XORs its old share out and lists it as dirty;
//! [`SystemState::fingerprint`] folds the dirty slots' current shares over
//! the accumulator, and settling folds them *in* and empties the list. A
//! clone is born settled, and the search settles a successor where it
//! fingerprints it — one fold for both — before the node that owns it
//! clones it for each of its own successors, so a successor's list holds one
//! transition's writes: two to four slots of the fifty a mid-sized scenario
//! has, and that is what its fingerprint costs. Digests stay lazy: a slot
//! written again and again between two fingerprints (a replay) is digested
//! once, when it is next read.
//!
//! An absent channel still has a share: a channel the scenario implies (the
//! control channels and ingress ports of its switches, the inboxes of its
//! hosts) contributes the idle channel's digest mixed with its slot, cell
//! or no cell — [`SystemState::initial`] folds that in once per implied
//! channel — so fingerprints are exactly what they were when every implied
//! channel had a cell, and so are shard assignments, counts and witness
//! traces. A channel the scenario does not imply (a message for a port no
//! switch declares) contributes while it holds something and nothing once
//! it is idle again. The fault *model* of a channel is scenario
//! configuration and was never hashed.

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

/// One seed for all four channel kinds: the channel's *slot* in the combined
/// fingerprint provides the per-kind separation.
const CHANNEL_SEED: u64 = 0xc4a_221;

impl<T: Fingerprint> Component for FifoChannel<T> {
    const SEED: u64 = CHANNEL_SEED;

    fn write(&self, h: &mut Fnv64) {
        self.fingerprint(h);
    }
}

/// The digest of an idle channel — nothing queued, link up — of any message
/// type: what a channel without a cell digests to.
const IDLE_CHANNEL: u64 = {
    let mut h = Fnv64::with_seed(CHANNEL_SEED);
    h.write_bool(false);
    h.write_usize(0);
    h.finish()
};

/// True if `channel` is in the state an absent channel stands for.
fn is_idle<T>(channel: &FifoChannel<T>) -> bool {
    channel.is_empty() && !channel.is_failed()
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

/// A small map kept as a vector sorted by key. A state holds a dozen
/// entries of a kind at most, so a lookup is a binary search over one cache
/// line or two and a clone is one allocation and a walk — where a
/// `BTreeMap` clone builds a tree node by node.
#[derive(Clone)]
struct Sorted<K, V>(Vec<(K, V)>);

/// The copy-on-write cells of one kind of component, by id.
type Cells<K, T> = Sorted<K, Arc<Cached<T>>>;

impl<K, V> Default for Sorted<K, V> {
    fn default() -> Self {
        Sorted(Vec::new())
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for Sorted<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut sorted = Sorted::default();
        for (key, value) in entries {
            sorted.insert(key, value);
        }
        sorted
    }
}

impl<K: Ord + Copy, V> Sorted<K, V> {
    /// Where `key` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, key: K) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |&(k, _)| k)
    }

    fn get(&self, key: K) -> Option<&V> {
        self.position(key).ok().map(|at| &self.0[at].1)
    }

    fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.position(key).ok().map(|at| &mut self.0[at].1)
    }

    /// Sets the value at `key`.
    fn insert(&mut self, key: K, value: V) {
        match self.position(key) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.0.insert(at, (key, value)),
        }
    }

    /// The value at `key`, which is `absent()` if there was none.
    fn entry(&mut self, key: K, absent: impl FnOnce() -> V) -> &mut V {
        let at = self.position(key).unwrap_or_else(|at| {
            self.0.insert(at, (key, absent()));
            at
        });
        &mut self.0[at].1
    }

    /// Removes the entry at `key` if it is there and `condemned` says so.
    fn remove_if(&mut self, key: K, condemned: impl FnOnce(&V) -> bool) {
        if let Ok(at) = self.position(key) {
            if condemned(&self.0[at].1) {
                self.0.remove(at);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.0.iter().map(|(key, value)| (*key, value))
    }

    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.0.iter().map(|&(key, _)| key)
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, value)| value)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// One row of a discovery table next to what it contributes to the
/// fingerprint (its digest mixed with its table and key): rows are written
/// once, by a discover transition, and then folded into the fingerprint of
/// every state that carries them, so the share is taken when the row goes
/// in.
#[derive(Clone)]
struct Row<T> {
    value: T,
    share: u64,
}

/// Relevant packets per controller-state fingerprint, per host.
type RelevantPacketsTable = BTreeMap<HostId, BTreeMap<u64, Row<Vec<Packet>>>>;
/// Discovered statistics replies per controller-state fingerprint, per
/// switch.
type DiscoveredStatsTable = BTreeMap<SwitchId, BTreeMap<u64, Row<Vec<Vec<PortStatsEntry>>>>>;

/// What the relevant packets discovered for `host` under the controller
/// state that digests to `ctrl_fp` contribute to the fingerprint.
fn packets_row_share(host: HostId, ctrl_fp: u64, packets: &[Packet]) -> u64 {
    let mut h = Fnv64::with_seed(ctrl_fp);
    packets.fingerprint(&mut h);
    mix(slot::RELEVANT_PACKETS, host.0 as u64, h.finish())
}

/// What the statistics replies discovered for `switch` under the controller
/// state that digests to `ctrl_fp` contribute to the fingerprint.
fn stats_row_share(switch: SwitchId, ctrl_fp: u64, replies: &[Vec<PortStatsEntry>]) -> u64 {
    let mut h = Fnv64::with_seed(ctrl_fp);
    replies.fingerprint(&mut h);
    mix(slot::DISCOVERED_STATS, switch.0 as u64, h.finish())
}

/// What the fault state contributes to the fingerprint. Nothing when no
/// fault state exists, so a faults-off search (and a fault search that has
/// spent its whole budget with every switch recovered) fingerprints
/// bit-identically to a fault-unaware checker.
fn fault_share(budget: u32, crashed: &BTreeSet<SwitchId>) -> u64 {
    if budget == 0 && crashed.is_empty() {
        return 0;
    }
    let mut h = Fnv64::with_seed(FAULTS_FP_SEED);
    h.write_u64(budget as u64);
    crashed.fingerprint(&mut h);
    mix(slot::FAULTS, 0, h.finish())
}

/// What symbolic execution has discovered so far. Written only by
/// `discover_packets` and `discover_stats` (never on a scripted workload),
/// so both tables share one copy-on-write allocation.
#[derive(Clone, Default)]
struct Discovered {
    /// Per-host relevant packets (`client.packets` in Figure 5).
    packets: RelevantPacketsTable,
    /// Per-switch statistics replies.
    stats: DiscoveredStatsTable,
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

    /// What this channel slot contributes while its channel is idle: the
    /// idle digest if the scenario implies the channel — it has one whether
    /// or not anything was ever queued on it — and nothing otherwise.
    fn idle_share(
        self,
        switches: &Cells<SwitchId, Switch>,
        hosts: &Cells<HostId, Box<dyn HostModel>>,
    ) -> u64 {
        let implied = match self {
            Slot::SwToCtrl(id) | Slot::CtrlToSw(id) => switches.get(id).is_some(),
            Slot::Ingress(id, port) => switches
                .get(id)
                .is_some_and(|sw| sw.value.ports.binary_search(&port).is_ok()),
            Slot::HostInbox(id) => hosts.get(id).is_some(),
            Slot::Controller | Slot::Switch(_) | Slot::Host(_) => {
                unreachable!("{self:?} is not a channel")
            }
        };
        if implied {
            self.mix(IDLE_CHANNEL)
        } else {
            0
        }
    }
}

/// The running XOR of the component slots' contributions to the state
/// fingerprint (module docs, "Incremental fingerprint").
#[derive(Default)]
struct Accumulator {
    /// XOR of every slot's share but those of the slots in `dirty`.
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

    /// Mutable access to the channel at `key`, whose cell is created if the
    /// channel was idle; `idle_share` is then what leaves the accumulator.
    /// (A cell that exists and is not dirty holds something: idle cells are
    /// dropped whenever the dirty list is emptied.)
    fn channel_mut<'a, K: Ord + Copy, T: Fingerprint + Clone>(
        &mut self,
        slot: Slot,
        channels: &'a mut Cells<K, FifoChannel<T>>,
        key: K,
        idle_share: impl FnOnce() -> u64,
    ) -> &'a mut FifoChannel<T> {
        let cell = channels.entry(key, || {
            debug_assert!(
                !self.dirty.contains(&slot),
                "{slot:?}: dirty without a cell"
            );
            self.folded ^= idle_share();
            self.dirty.push(slot);
            Arc::default()
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
    switches: Cells<SwitchId, Switch>,
    hosts: Cells<HostId, Box<dyn HostModel>>,
    /// Switch → controller OpenFlow channels (reliable, in order). Like the
    /// three stores below it holds the channels that are not idle.
    sw_to_ctrl: Cells<SwitchId, FifoChannel<OfMessage>>,
    /// Controller → switch OpenFlow channels (reliable, in order).
    ctrl_to_sw: Cells<SwitchId, FifoChannel<OfMessage>>,
    /// Data-plane ingress channels: packets waiting to be processed by a
    /// switch, keyed by the port they will arrive on.
    ingress: Cells<(SwitchId, PortId), FifoChannel<Packet>>,
    /// Packets in flight towards a host (delivered when the host's `receive`
    /// transition runs).
    host_inbox: Cells<HostId, FifoChannel<Packet>>,
    /// Switches with an outstanding statistics request from the controller.
    pending_stats: BTreeSet<SwitchId>,
    /// The discovery caches, keyed by controller-state fingerprint.
    discovered: Arc<Discovered>,
    /// Provenance-id allocator for injected packets.
    next_packet_id: u64,
    /// Monotonic sequence used to remember when each controller→switch
    /// channel last received a message (consumed by the UNUSUAL strategy).
    of_enqueue_seq: u64,
    last_of_enqueue: Sorted<SwitchId, u64>,
    /// Remaining fault-injection budget (starts at the scenario's
    /// [`FaultPlan`](crate::faults::FaultPlan) budget; each injected fault
    /// consumes one unit).
    fault_budget: u32,
    /// Switches currently crashed (flow table wiped, channels down) and
    /// awaiting a reconnect.
    crashed: BTreeSet<SwitchId>,
    /// [`fault_share`] of the two fields above, refreshed by everything
    /// that writes either.
    fault_share: u64,
    /// The static topology (shared, not part of the mutable state).
    topology: Arc<Topology>,
    /// The component slots' share of the fingerprint, kept up to date by
    /// every write.
    acc: Accumulator,
}

impl Clone for SystemState {
    /// Bumps the cells' reference counts and settles the copy: its
    /// fingerprint then costs what is written to *it*, and it holds no cell
    /// for an idle channel. The states the search clones are settled
    /// already, so there the fold is empty and there is nothing to leave
    /// behind.
    fn clone(&self) -> Self {
        let mut copy = SystemState {
            controller: self.controller.clone(),
            switches: self.switches.clone(),
            hosts: self.hosts.clone(),
            sw_to_ctrl: self.sw_to_ctrl.clone(),
            ctrl_to_sw: self.ctrl_to_sw.clone(),
            ingress: self.ingress.clone(),
            host_inbox: self.host_inbox.clone(),
            pending_stats: self.pending_stats.clone(),
            discovered: self.discovered.clone(),
            next_packet_id: self.next_packet_id,
            of_enqueue_seq: self.of_enqueue_seq,
            last_of_enqueue: self.last_of_enqueue.clone(),
            fault_budget: self.fault_budget,
            crashed: self.crashed.clone(),
            fault_share: self.fault_share,
            topology: self.topology.clone(),
            acc: Accumulator {
                folded: self.slots_share(),
                dirty: Vec::new(),
            },
        };
        for &slot in &self.acc.dirty {
            copy.drop_idle_cell(slot);
        }
        copy
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
    /// topology-declared attachments, every channel idle, and the controller
    /// having already processed every switch's `switch_join` (switches are
    /// connected before testing starts, as in the paper's experiments).
    pub fn initial(scenario: &Scenario) -> SystemState {
        let topology = Arc::new(scenario.topology.clone());
        let mut controller = ControllerRuntime::new(scenario.app.clone_app());

        let switches: Cells<SwitchId, Switch> = (topology.switches())
            .map(|spec| {
                let switch =
                    Switch::with_config(spec.id, spec.ports.clone(), scenario.switch_config);
                (spec.id, Arc::new(Cached::new(switch)))
            })
            .collect();
        let hosts: Cells<HostId, Box<dyn HostModel>> = (scenario.hosts.iter())
            .map(|host| (host.id(), Arc::new(Cached::new(host.clone_host()))))
            .collect();

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
            sw_to_ctrl: Cells::default(),
            ctrl_to_sw: Cells::default(),
            ingress: Cells::default(),
            host_inbox: Cells::default(),
            pending_stats: BTreeSet::new(),
            discovered: Arc::default(),
            next_packet_id: 1,
            of_enqueue_seq: 0,
            last_of_enqueue: Sorted::default(),
            fault_budget: scenario.fault_plan.budget,
            crashed: BTreeSet::new(),
            fault_share: fault_share(scenario.fault_plan.budget, &BTreeSet::new()),
            topology,
            acc: Accumulator::default(),
        };
        // Nothing is folded yet. The channels the scenario implies have no
        // cell to digest and share the idle channel's; the components start
        // dirty, so settling is the one full walk over them, and every
        // later fingerprint starts from the accumulator this seeds.
        let mut implied: Vec<Slot> = state.hosts.keys().map(Slot::HostInbox).collect();
        for (id, sw) in state.switches.iter() {
            implied.extend([Slot::SwToCtrl(id), Slot::CtrlToSw(id)]);
            implied.extend(sw.value.ports.iter().map(|&port| Slot::Ingress(id, port)));
        }
        state.acc.folded = (implied.iter()).fold(0, |acc, slot| acc ^ slot.mix(IDLE_CHANNEL));
        state.acc.dirty = std::iter::once(Slot::Controller)
            .chain(state.switches.keys().map(Slot::Switch))
            .chain(state.hosts.keys().map(Slot::Host))
            .collect();
        for (target, msg) in produced {
            state.enqueue_to_switch(target, msg);
        }
        state.settle();
        state
    }

    /// What `slot` contributes to the fingerprint right now (caching the
    /// component's digest if it was not).
    fn contribution(&self, slot: Slot) -> u64 {
        const CELL: &str = "a component the scenario declared has a cell";
        match slot {
            Slot::Controller => slot.mix(self.controller.digest()),
            Slot::Switch(id) => slot.mix(self.switches.get(id).expect(CELL).digest()),
            Slot::Host(id) => slot.mix(self.hosts.get(id).expect(CELL).digest()),
            Slot::SwToCtrl(id) => self.channel_share(slot, self.sw_to_ctrl.get(id)),
            Slot::CtrlToSw(id) => self.channel_share(slot, self.ctrl_to_sw.get(id)),
            Slot::Ingress(sw, port) => self.channel_share(slot, self.ingress.get((sw, port))),
            Slot::HostInbox(id) => self.channel_share(slot, self.host_inbox.get(id)),
        }
    }

    /// What the channel at `slot` contributes: its digest if it holds
    /// something, an idle channel's share with or without a cell.
    fn channel_share<T: Fingerprint>(
        &self,
        slot: Slot,
        cell: Option<&Arc<Cached<FifoChannel<T>>>>,
    ) -> u64 {
        match cell {
            Some(cell) if !is_idle(&cell.value) => slot.mix(cell.digest()),
            _ => slot.idle_share(&self.switches, &self.hosts),
        }
    }

    /// The component slots' share of the fingerprint: the accumulator with
    /// the dirty slots' current contributions folded over it.
    fn slots_share(&self) -> u64 {
        self.acc
            .dirty
            .iter()
            .fold(self.acc.folded, |acc, &slot| acc ^ self.contribution(slot))
    }

    /// Drops the cell of the channel at `slot` if the channel is idle.
    fn drop_idle_cell(&mut self, slot: Slot) {
        match slot {
            Slot::Controller | Slot::Switch(_) | Slot::Host(_) => {}
            Slot::SwToCtrl(id) => self.sw_to_ctrl.remove_if(id, |c| is_idle(&c.value)),
            Slot::CtrlToSw(id) => self.ctrl_to_sw.remove_if(id, |c| is_idle(&c.value)),
            Slot::Ingress(sw, port) => self.ingress.remove_if((sw, port), |c| is_idle(&c.value)),
            Slot::HostInbox(id) => self.host_inbox.remove_if(id, |c| is_idle(&c.value)),
        }
    }

    /// Folds the dirty slots back into the accumulator, so that neither
    /// [`fingerprint`](Self::fingerprint) nor a clone has to, and drops the
    /// cells of the channels that went idle since the last settle — only a
    /// written channel can have, so the dirty list names them all. The
    /// search calls this once per successor, right before it fingerprints
    /// it (`Worker::expand`), and once per state it rebuilt by replay.
    pub(crate) fn settle(&mut self) {
        self.acc.folded = self.slots_share();
        let mut dirty = std::mem::take(&mut self.acc.dirty);
        for slot in dirty.drain(..) {
            self.drop_idle_cell(slot);
        }
        self.acc.dirty = dirty;
    }

    /// How many copy-on-write cells this state holds: one for the
    /// controller and for each switch and host, one per channel that is not
    /// idle (and, between two settles, per channel written since). Tests
    /// hold the layout to it; nothing else reads it.
    #[doc(hidden)]
    pub fn cell_count(&self) -> usize {
        1 + self.switches.len()
            + self.hosts.len()
            + self.sw_to_ctrl.len()
            + self.ctrl_to_sw.len()
            + self.ingress.len()
            + self.host_inbox.len()
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
        self.switches.iter().map(|(id, sw)| (id, &sw.value))
    }

    /// One switch.
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switches.get(id).map(|sw| &sw.value)
    }

    /// Mutable access to one switch (un-shares only that switch).
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        let cell = self.switches.get_mut(id)?;
        Some(self.acc.write(Slot::Switch(id), cell))
    }

    /// The hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &dyn HostModel)> {
        self.hosts.iter().map(|(id, h)| (id, h.value.as_ref()))
    }

    /// One host.
    pub fn host(&self, id: HostId) -> Option<&dyn HostModel> {
        self.hosts.get(id).map(|h| h.value.as_ref())
    }

    /// Mutable access to one host (un-shares only that host).
    pub fn host_mut(&mut self, id: HostId) -> Option<&mut Box<dyn HostModel>> {
        let cell = self.hosts.get_mut(id)?;
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
            .map(|(id, _)| id)
    }

    // ----- Channels -----
    //
    // A reader returns `None` for an idle channel: nothing queued, link up.
    // A `*_mut` accessor returns the channel whatever its state, creating
    // its cell if it was idle, so that no write is ever lost on `None`.

    /// Enqueues an OpenFlow message from the controller towards a switch.
    pub fn enqueue_to_switch(&mut self, switch: SwitchId, msg: OfMessage) {
        if let OfMessage::StatsRequest { .. } = &msg {
            self.pending_stats.insert(switch);
        }
        self.of_enqueue_seq += 1;
        self.last_of_enqueue.insert(switch, self.of_enqueue_seq);
        self.ctrl_to_sw_mut(switch).push(msg);
    }

    /// Enqueues an OpenFlow message from a switch towards the controller.
    pub fn enqueue_to_controller(&mut self, switch: SwitchId, msg: OfMessage) {
        self.sw_to_ctrl_mut(switch).push(msg);
    }

    /// Enqueues a data packet on a switch ingress port. Packets towards a
    /// crashed switch are silently discarded — its links are down.
    pub fn enqueue_ingress(&mut self, switch: SwitchId, port: PortId, packet: Packet) {
        if !self.crashed.contains(&switch) {
            self.ingress_mut(switch, port).push(packet);
        }
    }

    /// Enqueues a packet for delivery to a host.
    pub fn enqueue_host(&mut self, host: HostId, packet: Packet) {
        self.host_inbox_mut(host).push(packet);
    }

    /// The controller→switch channel of a switch, unless it is idle.
    pub fn ctrl_to_sw(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.ctrl_to_sw.get(switch).map(|ch| &ch.value)
    }

    /// Mutable controller→switch channel (un-shares only that channel).
    pub fn ctrl_to_sw_mut(&mut self, switch: SwitchId) -> &mut FifoChannel<OfMessage> {
        let slot = Slot::CtrlToSw(switch);
        let idle_share = || slot.idle_share(&self.switches, &self.hosts);
        (self.acc).channel_mut(slot, &mut self.ctrl_to_sw, switch, idle_share)
    }

    /// The switch→controller channel of a switch, unless it is idle.
    pub fn sw_to_ctrl(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.sw_to_ctrl.get(switch).map(|ch| &ch.value)
    }

    /// Mutable switch→controller channel (un-shares only that channel).
    pub fn sw_to_ctrl_mut(&mut self, switch: SwitchId) -> &mut FifoChannel<OfMessage> {
        let slot = Slot::SwToCtrl(switch);
        let idle_share = || slot.idle_share(&self.switches, &self.hosts);
        (self.acc).channel_mut(slot, &mut self.sw_to_ctrl, switch, idle_share)
    }

    /// The ingress channel of `(switch, port)`, unless it is idle.
    pub fn ingress(&self, switch: SwitchId, port: PortId) -> Option<&FifoChannel<Packet>> {
        self.ingress.get((switch, port)).map(|ch| &ch.value)
    }

    /// Mutable ingress channel (un-shares only that channel).
    pub fn ingress_mut(&mut self, switch: SwitchId, port: PortId) -> &mut FifoChannel<Packet> {
        let slot = Slot::Ingress(switch, port);
        let idle_share = || slot.idle_share(&self.switches, &self.hosts);
        (self.acc).channel_mut(slot, &mut self.ingress, (switch, port), idle_share)
    }

    /// Ports of `switch` whose ingress channel currently holds packets, in
    /// port order.
    pub fn busy_ingress_ports(&self, switch: SwitchId) -> impl Iterator<Item = PortId> + '_ {
        let cells = &self.ingress.0;
        let first = cells.partition_point(|&((sw, _), _)| sw < switch);
        cells[first..]
            .iter()
            .take_while(move |((sw, _), _)| *sw == switch)
            .filter(|(_, ch)| !ch.value.is_empty())
            .map(|&((_, port), _)| port)
    }

    /// The inbox channel of a host, unless it is idle.
    pub fn host_inbox(&self, host: HostId) -> Option<&FifoChannel<Packet>> {
        self.host_inbox.get(host).map(|ch| &ch.value)
    }

    /// Mutable inbox channel of a host (un-shares only that channel).
    pub fn host_inbox_mut(&mut self, host: HostId) -> &mut FifoChannel<Packet> {
        let slot = Slot::HostInbox(host);
        let idle_share = || slot.idle_share(&self.switches, &self.hosts);
        (self.acc).channel_mut(slot, &mut self.host_inbox, host, idle_share)
    }

    /// True if any switch↔controller channel holds messages (used to drain
    /// the control plane under NO-DELAY).
    pub fn control_plane_busy(&self) -> bool {
        (self.sw_to_ctrl.values())
            .chain(self.ctrl_to_sw.values())
            .any(|c| !c.value.is_empty())
    }

    /// Switches whose controller→switch channel is non-empty, with the
    /// sequence number of the most recent enqueue (used by UNUSUAL).
    pub fn of_backlog(&self) -> Vec<(SwitchId, u64)> {
        self.ctrl_to_sw
            .iter()
            .filter(|(_, ch)| !ch.value.is_empty())
            .map(|(sw, _)| (sw, self.last_of_enqueue.get(sw).copied().unwrap_or(0)))
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
        let row = (self.discovered.packets.get(&host)).and_then(|m| m.get(&ctrl_fp))?;
        Some(&row.value)
    }

    /// Stores the relevant packets for `host` under the given controller
    /// state.
    pub fn set_relevant_packets(&mut self, host: HostId, ctrl_fp: u64, packets: Vec<Packet>) {
        let row = Row {
            share: packets_row_share(host, ctrl_fp, &packets),
            value: packets,
        };
        Arc::make_mut(&mut self.discovered)
            .packets
            .entry(host)
            .or_default()
            .insert(ctrl_fp, row);
    }

    /// Discovered statistics replies for `switch` in the current controller
    /// state.
    pub fn discovered_stats(
        &self,
        switch: SwitchId,
        ctrl_fp: u64,
    ) -> Option<&Vec<Vec<PortStatsEntry>>> {
        let row = (self.discovered.stats.get(&switch)).and_then(|m| m.get(&ctrl_fp))?;
        Some(&row.value)
    }

    /// Stores discovered statistics replies.
    pub fn set_discovered_stats(
        &mut self,
        switch: SwitchId,
        ctrl_fp: u64,
        stats: Vec<Vec<PortStatsEntry>>,
    ) {
        let row = Row {
            share: stats_row_share(switch, ctrl_fp, &stats),
            value: stats,
        };
        Arc::make_mut(&mut self.discovered)
            .stats
            .entry(switch)
            .or_default()
            .insert(ctrl_fp, row);
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
        self.fault_share = fault_share(self.fault_budget, &self.crashed);
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
        self.fault_share = fault_share(self.fault_budget, &self.crashed);
        if let Some(sw) = self.switch_mut(switch) {
            *sw = Switch::with_config(switch, sw.ports.clone(), sw.config());
        }
        let busy: Vec<PortId> = self.busy_ingress_ports(switch).collect();
        for port in busy {
            let ch = self.ingress_mut(switch, port);
            while ch.pop().is_some() {}
        }
        // An in-flight statistics request died with the channels.
        self.pending_stats.remove(&switch);
        // The link is down whether or not anything was queued on it: a
        // channel that had no cell gets one, to hold the failure.
        self.ctrl_to_sw_mut(switch).fail();
        let ch = self.sw_to_ctrl_mut(switch);
        while ch.pop().is_some() {}
        ch.push(OfMessage::SwitchLeave { switch });
    }

    /// Reconnects a crashed switch: the control channel comes back up and
    /// the switch re-handshakes by queueing its `switch_join` — delivered
    /// asynchronously, so the checker explores every interleaving of the
    /// re-handshake with ordinary traffic.
    pub fn reconnect_switch(&mut self, switch: SwitchId) {
        self.crashed.remove(&switch);
        self.fault_share = fault_share(self.fault_budget, &self.crashed);
        self.ctrl_to_sw_mut(switch).restore();
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
    /// controller state) is folded from digests taken where each was
    /// written: a few map lookups and mixes.
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

    /// The share of the fingerprint that is not a component slot: pending
    /// statistics requests, the fault state, and the discovery-cache rows
    /// of the controller state that digests to `ctrl_fp`. Every share it
    /// folds but the pending requests' was taken where the thing was written.
    fn bookkeeping_share(&self, ctrl_fp: u64) -> u64 {
        let mut acc = self.fault_share;
        for sw in &self.pending_stats {
            acc ^= mix(slot::PENDING_STATS, sw.0 as u64, 1);
        }
        // Only the discovery-cache entries for the *current* controller state
        // matter for enabledness; including the full history would make
        // states that differ only in stale cache entries look distinct.
        for cache in self.discovered.packets.values() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= row.share;
            }
        }
        for cache in self.discovered.stats.values() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= row.share;
            }
        }
        acc
    }

    /// [`bookkeeping_share`](Self::bookkeeping_share) with every share
    /// taken afresh from what it digests, for
    /// [`reference_fingerprint`](Self::reference_fingerprint).
    fn reference_bookkeeping_share(&self, ctrl_fp: u64) -> u64 {
        let mut acc = fault_share(self.fault_budget, &self.crashed);
        for sw in &self.pending_stats {
            acc ^= mix(slot::PENDING_STATS, sw.0 as u64, 1);
        }
        for (host, cache) in self.discovered.packets.iter() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= packets_row_share(*host, ctrl_fp, &row.value);
            }
        }
        for (switch, cache) in self.discovered.stats.iter() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= stats_row_share(*switch, ctrl_fp, &row.value);
            }
        }
        acc
    }

    /// The reference the tests hold [`fingerprint`](Self::fingerprint) to: a
    /// full re-hash of every component that reads neither a cached digest
    /// nor the accumulator, and that takes the channels to hash from the
    /// topology and the host list, not from the cells that happen to exist.
    /// Nothing in the checker calls it.
    #[doc(hidden)]
    pub fn reference_fingerprint(&self) -> u64 {
        let ctrl_fp = rehash(&self.controller.value);
        let mut acc = mix(slot::CONTROLLER, 0, ctrl_fp);
        for (id, sw) in self.switches.iter() {
            acc ^= mix(slot::SWITCH, id.0 as u64, rehash(&sw.value));
        }
        for (id, host) in self.hosts.iter() {
            acc ^= mix(slot::HOST, id.0 as u64, rehash(&host.value));
        }

        // Digest by slot tag and key. Every channel the scenario implies is
        // there, idle until a cell says otherwise; any other channel is
        // there while it holds something.
        let ingress_key = |sw: SwitchId, port: PortId| ((sw.0 as u64) << 16) | port.0 as u64;
        let idle = rehash(&FifoChannel::<Packet>::new());
        let mut channels = BTreeMap::new();
        for spec in self.topology.switches() {
            channels.insert((slot::SW_TO_CTRL, spec.id.0 as u64), idle);
            channels.insert((slot::CTRL_TO_SW, spec.id.0 as u64), idle);
            for &port in &spec.ports {
                channels.insert((slot::INGRESS, ingress_key(spec.id, port)), idle);
            }
        }
        for id in self.hosts.keys() {
            channels.insert((slot::HOST_INBOX, id.0 as u64), idle);
        }
        fn busy<T: Fingerprint>(cell: &Cached<FifoChannel<T>>) -> Option<u64> {
            (!is_idle(&cell.value)).then(|| rehash(&cell.value))
        }
        let cells = (self.sw_to_ctrl.iter())
            .map(|(id, cell)| (slot::SW_TO_CTRL, id.0 as u64, busy(cell)))
            .chain((self.ctrl_to_sw.iter()).map(|(id, c)| (slot::CTRL_TO_SW, id.0 as u64, busy(c))))
            .chain(
                (self.ingress.iter())
                    .map(|((sw, p), c)| (slot::INGRESS, ingress_key(sw, p), busy(c))),
            )
            .chain(
                (self.host_inbox.iter()).map(|(id, c)| (slot::HOST_INBOX, id.0 as u64, busy(c))),
            );
        for (tag, key, digest) in cells {
            if let Some(digest) = digest {
                channels.insert((tag, key), digest);
            }
        }
        for ((tag, key), digest) in channels {
            acc ^= mix(tag, key, digest);
        }
        acc ^ self.reference_bookkeeping_share(ctrl_fp)
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
        (self.ingress.values())
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
            a.switches.get(SwitchId(1)).unwrap(),
            b.switches.get(SwitchId(1)).unwrap()
        ));
        assert!(Arc::ptr_eq(&a.discovered, &b.discovered));

        // Writing one switch un-shares only that switch.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        b.switch_mut(SwitchId(1))
            .unwrap()
            .process_packet(pkt, PortId(1));
        assert!(!Arc::ptr_eq(
            a.switches.get(SwitchId(1)).unwrap(),
            b.switches.get(SwitchId(1)).unwrap()
        ));
        assert!(Arc::ptr_eq(
            a.switches.get(SwitchId(2)).unwrap(),
            b.switches.get(SwitchId(2)).unwrap()
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
        state.ctrl_to_sw_mut(SwitchId(2)).pop();
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

        let ch = state.ingress.get((SwitchId(1), PortId(1))).unwrap();
        let direct = {
            let mut h = Fnv64::with_seed(FifoChannel::<Packet>::SEED);
            ch.value.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(ch.digest(), direct);
        // Cached on the OnceLock now.
        assert_eq!(ch.digest.get().copied(), Some(direct));

        // Mutation through the accessor drops the cache...
        state.ingress_mut(SwitchId(1), PortId(1)).pop();
        let ch = state.ingress.get((SwitchId(1), PortId(1))).unwrap();
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
        state.ingress_mut(SwitchId(1), PortId(1)).pop();
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

    /// The four channel stores' cells, as `(sw→ctrl, ctrl→sw, ingress, inbox)`.
    fn channel_cells(state: &SystemState) -> (usize, usize, usize, usize) {
        (
            state.sw_to_ctrl.len(),
            state.ctrl_to_sw.len(),
            state.ingress.len(),
            state.host_inbox.len(),
        )
    }

    #[test]
    fn the_idle_channel_constant_is_an_idle_channels_digest() {
        assert_eq!(IDLE_CHANNEL, rehash(&FifoChannel::<Packet>::new()));
        assert_eq!(IDLE_CHANNEL, rehash(&FifoChannel::<OfMessage>::new()));
        let mut restored = FifoChannel::<Packet>::new();
        restored.fail();
        assert_ne!(IDLE_CHANNEL, rehash(&restored));
        restored.restore();
        assert_eq!(IDLE_CHANNEL, rehash(&restored));
    }

    #[test]
    fn a_settled_state_and_every_clone_hold_no_cell_for_an_idle_channel() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        // Two switches, two hosts, the controller — and not one of the
        // 2 x 2 control channels, 2 x 3 ingress ports and 2 inboxes.
        assert_eq!(state.cell_count(), 5);
        assert_eq!(channel_cells(&state), (0, 0, 0, 0));
        let settled = (state.acc.folded, state.fingerprint());

        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_to_controller(
            SwitchId(1),
            OfMessage::SwitchLeave {
                switch: SwitchId(1),
            },
        );
        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 1 });
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        state.enqueue_host(HostId(2), pkt);
        assert_eq!(channel_cells(&state), (1, 1, 1, 1));
        state.settle();
        assert_eq!(channel_cells(&state), (1, 1, 1, 1), "busy channels stay");

        // Drained, every channel is idle again. The written state keeps the
        // cells until it settles (readers see an empty channel either
        // way); a clone never gets them.
        state.sw_to_ctrl_mut(SwitchId(1)).pop();
        state.ctrl_to_sw_mut(SwitchId(2)).pop();
        state.ingress_mut(SwitchId(1), PortId(2)).pop();
        state.host_inbox_mut(HostId(2)).pop();
        assert_eq!(channel_cells(&state), (1, 1, 1, 1));
        assert!(state.ingress(SwitchId(1), PortId(2)).unwrap().is_empty());
        assert_eq!(state.total_queued_messages(), 0);
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        let clone = state.clone();
        assert_eq!(channel_cells(&clone), (0, 0, 0, 0));
        assert!(clone.ingress(SwitchId(1), PortId(2)).is_none());
        state.settle();
        assert_eq!(channel_cells(&state), (0, 0, 0, 0));
        // Both are the state it started as.
        for state in [&state, &clone] {
            assert_eq!((state.acc.folded, state.fingerprint()), settled);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }

        // Popping a channel that has no cell is popping an empty channel.
        assert_eq!(state.host_inbox_mut(HostId(1)).pop(), None);
        assert_eq!(state.fingerprint(), settled.1);
        state.settle();
        assert_eq!(state.cell_count(), 5);
    }

    #[test]
    fn a_crash_fails_a_control_channel_that_had_no_cell() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let sw = SwitchId(1);
        assert!(state.ctrl_to_sw(sw).is_none() && state.sw_to_ctrl(sw).is_none());
        let flow_mod = || {
            OfMessage::add_rule(&nice_openflow::FlowRule::new(
                nice_openflow::MatchPattern::any(),
                1,
                vec![nice_openflow::Action::Drop],
            ))
        };

        state.crash_switch(sw);
        assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_failed()));
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        // What the controller sends a crashed switch is lost...
        state.enqueue_to_switch(sw, flow_mod());
        assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_empty()));
        // ...also once the state has settled and in its clones: the failed
        // channel is empty, and keeps its cell.
        state.settle();
        let mut clone = state.clone();
        for state in [&mut state, &mut clone] {
            assert_eq!(
                channel_cells(state),
                (1, 1, 0, 0),
                "switch_leave, down link"
            );
            assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_failed()));
            state.enqueue_to_switch(sw, flow_mod());
            assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_empty()));
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }

        // Restored, the channel is idle: its cell goes with the next
        // settle, and a message sent after the reconnect arrives.
        state.reconnect_switch(sw);
        assert!(state.ctrl_to_sw(sw).is_some_and(|ch| !ch.is_failed()));
        assert!(state.clone().ctrl_to_sw(sw).is_none());
        state.settle();
        assert!(state.ctrl_to_sw(sw).is_none());
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        state.enqueue_to_switch(sw, flow_mod());
        let queued = state.ctrl_to_sw(sw).expect("a busy channel has a cell");
        assert_eq!(queued.len(), 1);
        assert_eq!(
            queued.peek().map(OfMessage::kind_name),
            Some("flow_mod_add")
        );
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
    }

    #[test]
    fn a_crash_with_packets_on_two_ingress_ports_leaves_no_ingress_cell() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        state.enqueue_ingress(SwitchId(1), PortId(2), pkt);
        state.enqueue_ingress(SwitchId(2), PortId(1), pkt);
        state.settle();
        assert_eq!(state.ingress.len(), 3);

        state.crash_switch(SwitchId(1));
        assert_eq!(state.busy_ingress_ports(SwitchId(1)).count(), 0);
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        let clone = state.clone();
        state.settle();
        for state in [&state, &clone] {
            let left: Vec<_> = state.ingress.keys().collect();
            assert_eq!(left, [(SwitchId(2), PortId(1))]);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        // A packet towards the crashed switch is dropped on the floor, not
        // on a new cell.
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_eq!(state.ingress.len(), 1);
    }

    #[test]
    fn a_drained_channel_the_topology_lacks_leaves_the_accumulator_as_it_found_it() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let found = (state.acc.folded, state.fingerprint(), state.cell_count());
        // Switch 1 exists, its port 9 does not; switch 9 does not exist.
        for (sw, port) in [(SwitchId(1), PortId(9)), (SwitchId(9), PortId(1))] {
            state.enqueue_ingress(sw, port, pkt);
            assert_ne!(state.fingerprint(), found.1);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
            state.settle();
            assert_eq!(state.cell_count(), found.2 + 1);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());

            // Drained, it counts for nothing: settled or not, cloned or not.
            assert_eq!(state.ingress_mut(sw, port).pop(), Some(pkt));
            assert_eq!(state.fingerprint(), found.1);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
            let clone = state.clone();
            state.settle();
            for state in [&state, &clone] {
                let now = (state.acc.folded, state.fingerprint(), state.cell_count());
                assert_eq!(now, found);
            }
        }
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
        budgeted.fault_share = fault_share(2, &budgeted.crashed);
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
    fn stored_bookkeeping_digests_are_fresh_after_every_write() {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        let ctrl_fp = state.controller_fingerprint();
        let ping =
            |payload| Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), payload);
        let reply = |port, rx_packets| PortStatsEntry {
            rx_packets,
            ..PortStatsEntry::zero(PortId(port))
        };

        // A discovery row's share is taken when the row goes in — also
        // when it replaces the row already at its key.
        for packets in [vec![ping(0)], vec![ping(1), ping(2)], vec![]] {
            state.set_relevant_packets(HostId(1), ctrl_fp, packets.clone());
            let row = &state.discovered.packets[&HostId(1)][&ctrl_fp];
            assert_eq!(row.value, packets);
            assert_eq!(row.share, packets_row_share(HostId(1), ctrl_fp, &packets));
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        for stats in [vec![vec![reply(1, 3)]], vec![vec![reply(1, 4)], vec![]]] {
            state.set_discovered_stats(SwitchId(2), ctrl_fp, stats.clone());
            let row = &state.discovered.stats[&SwitchId(2)][&ctrl_fp];
            assert_eq!(row.value, stats);
            assert_eq!(row.share, stats_row_share(SwitchId(2), ctrl_fp, &stats));
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        assert_eq!(state.discovered.packets[&HostId(1)].len(), 1);
        assert_eq!(state.discovered.stats[&SwitchId(2)].len(), 1);

        // The fault slot follows the budget and the crashed set through
        // every writer of either, and vanishes with the last of them.
        state.fault_budget = 2;
        state.fault_share = fault_share(2, &state.crashed);
        let fresh = |state: &SystemState| fault_share(state.fault_budget, &state.crashed);
        let no_faults = state.fingerprint() ^ state.fault_share;
        state.crash_switch(SwitchId(1));
        assert_eq!(state.fault_share, fresh(&state));
        state.consume_fault_budget();
        assert_eq!(state.fault_share, fresh(&state));
        let crashed = state.fault_share;
        state.reconnect_switch(SwitchId(1));
        assert_eq!(state.fault_share, fresh(&state));
        assert_ne!(state.fault_share, crashed);
        assert_ne!(state.fault_share, 0);
        assert_eq!(state.clone().fault_share, state.fault_share);
        state.consume_fault_budget();
        assert_eq!((state.fault_budget(), state.fault_share), (0, 0));
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        // With the slot gone, what is left is what the crash and the
        // reconnect did to the components — not a trace of the budget.
        let mut unbudgeted = SystemState::initial(&scenario);
        unbudgeted.set_relevant_packets(HostId(1), ctrl_fp, vec![]);
        unbudgeted.set_discovered_stats(SwitchId(2), ctrl_fp, vec![vec![reply(1, 4)], vec![]]);
        assert_eq!(no_faults, unbudgeted.fingerprint());
        unbudgeted.crash_switch(SwitchId(1));
        unbudgeted.reconnect_switch(SwitchId(1));
        assert_eq!(state.fingerprint(), unbudgeted.fingerprint());
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
