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
//! in a cell behind an [`Arc`]. The controller's cell is a field; every
//! other cell sits in one table sorted by its `Slot` — its kind, then its
//! key — so switches, hosts and each kind of channel are contiguous runs of
//! it. The two discovery tables, which only the two discover transitions
//! write, share one more `Arc`, which a state holds only once such a
//! transition has written a row. The static topology is not in the state:
//! whoever needs it reads the scenario's. Cloning a settled `SystemState`
//! therefore makes one allocation, the table, and bumps one reference count
//! per cell; a component is deep-copied only at the first mutation after a
//! clone, via [`Arc::make_mut`] inside the `*_mut` accessors, so executing a
//! transition pays only for the components it touches. This is what makes it
//! affordable for every frontier node to own its state (see
//! [`crate::checker`]). `Arc` (not `Rc`) is used throughout so states can
//! move between the worker threads of the parallel search.
//!
//! **A channel has a cell iff it holds a message or its link has failed** —
//! in a settled state and in every clone; between two settles a written
//! state may hold a few cells of idle channels. An absent channel *is* the
//! empty channel whose link is up, for every reader: the accessors return
//! `None` for it and every caller reads `None` as "nothing queued". Most
//! channels a topology implies are in that state most of the time (an
//! 8-switch chain implies 42 of them, and with two pings in flight a handful
//! hold anything), and a cell per channel would be cloned and dropped with
//! every successor state without ever being read. The `*_mut` accessors
//! create the cell they are asked for — a push, or `fail()` on a crash, must
//! land somewhere — and the cell of a channel that has gone back to empty
//! and un-failed is dropped when the state is settled (see below) and is
//! never copied into a clone. A pop that empties a channel whose link is up
//! (`pop_ingress` and its three siblings, the pops of the transitions) drops
//! the cell there and then: it takes the message out of a cell only this
//! state holds, or copies the one message out of a shared cell — where an
//! un-sharing pop would copy the cell, its queue and the message, to throw
//! the copy away at the next settle. The initial state of `chain:8:2` holds
//! 11 cells (controller, 8 switches, 2 hosts) plus one per queued
//! `switch_join` reply, where a cell per channel made it 53.
//!
//! ## Incremental fingerprint
//!
//! The state fingerprint is an XOR of one value per component *slot* (the
//! controller, each switch, each host, each channel): the component's
//! digest mixed with the slot's kind and key. The state carries that XOR
//! with it instead of recomputing it. The invariant, kept by the only code
//! that hands out mutable access to a component or drops a busy cell
//! (`Accumulator::write`, `Accumulator::channel_cell` and the pops):
//!
//! > a slot that is not in the dirty list has its share in the accumulator
//! > (and, if it has a cell, its digest cached).
//!
//! The first write to a slot XORs its old share out and lists it as dirty;
//! [`SystemState::fingerprint`] folds the dirty slots' current shares over
//! the accumulator, and settling folds them *in* and empties the list. So a
//! dirty slot may have a cell or not — a pop may have dropped it — and its
//! current share is read from whatever is there; a clean slot without a cell
//! is an idle channel whose share is in the accumulator. A clone is born
//! settled, and the search settles a successor where it fingerprints it —
//! one fold for both — before the node that owns it clones it for each of
//! its own successors, so a successor's list holds one transition's writes:
//! two to four slots of the fifty a mid-sized scenario has, and that is what
//! its fingerprint costs. The first few fit in the state itself, so a
//! clone's first writes do not allocate a list. Digests stay lazy: a slot
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
    FifoChannel, Hasher64, HostId, Location, OfMessage, Packet, PacketId, PortId, PortStatsEntry,
    Switch, SwitchId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the fingerprint needs from a copy-on-write component: the seed that
/// separates its kind's digests from every other kind's, and its contents.
trait Component {
    /// Domain-separation seed of the component kind's digest.
    const SEED: u64;

    /// Feeds the component's contents to `h`: its `Hash`, or a host's
    /// object-safe hook.
    fn write(&self, h: &mut Hasher64);
}

impl Component for ControllerRuntime {
    /// `state(ctrl)` in Figure 5 — also the key of the relevant-packet
    /// caches.
    const SEED: u64 = 0xc0_11;

    fn write(&self, h: &mut Hasher64) {
        self.hash(h);
    }
}

impl Component for Switch {
    const SEED: u64 = 0x5_317c;

    fn write(&self, h: &mut Hasher64) {
        self.hash(h);
    }
}

impl Component for Box<dyn HostModel> {
    const SEED: u64 = 0x40_57;

    fn write(&self, h: &mut Hasher64) {
        self.fingerprint(h);
    }
}

/// One seed for all four channel kinds: the channel's *slot* in the combined
/// fingerprint provides the per-kind separation.
const CHANNEL_SEED: u64 = 0xc4a_221;

impl<T: Hash> Component for FifoChannel<T> {
    const SEED: u64 = CHANNEL_SEED;

    fn write(&self, h: &mut Hasher64) {
        self.hash(h);
    }
}

/// The digest of an idle channel — nothing queued, link up — of any message
/// type: what a channel without a cell digests to. It makes the writes of
/// `FifoChannel`'s derived `Hash`, one word each: the queue's length, then
/// `failed`.
const IDLE_CHANNEL: u64 = {
    let mut h = Hasher64::with_seed(CHANNEL_SEED);
    h.write_u64(0);
    h.write_u64(false as u64);
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
/// component's whole contents. The cache is a relaxed atomic in which 0
/// means "not computed": reading it takes no lock, and threads that digest
/// one shared cell at once store the same value. A component whose digest
/// really is 0 is re-hashed on every read — slower, never wrong.
/// `Accumulator::write` clears the cache on the copy it un-shared (cloning
/// an un-mutated component keeps the digest, which is exactly right).
struct Cached<T> {
    value: T,
    digest: AtomicU64,
}

/// The digest cache's "not computed".
const UNDIGESTED: u64 = 0;

impl<T: Clone> Clone for Cached<T> {
    fn clone(&self) -> Self {
        Cached {
            value: self.value.clone(),
            digest: AtomicU64::new(self.digest.load(Ordering::Relaxed)),
        }
    }
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
            digest: AtomicU64::new(UNDIGESTED),
        }
    }
}

/// The digest of a component's current contents.
fn rehash<T: Component>(component: &T) -> u64 {
    let mut h = Hasher64::with_seed(T::SEED);
    component.write(&mut h);
    h.finish()
}

impl<T: Component> Cached<T> {
    /// The component's digest, computing (and caching) it on first use.
    fn digest(&self) -> u64 {
        match self.digest.load(Ordering::Relaxed) {
            UNDIGESTED => {
                let digest = rehash(&self.value);
                self.digest.store(digest, Ordering::Relaxed);
                digest
            }
            digest => digest,
        }
    }
}

/// The kinds of slot with cells in the [`Table`]: all but the controller.
const KINDS: usize = 6;

/// Where the kind of `slot` is in the [`Table`]'s order of runs.
fn kind_of(slot: Slot) -> usize {
    debug_assert!(slot != Slot::CONTROLLER, "the controller has no run");
    (slot.tag() - slot::SWITCH) as usize
}

/// The cells of the switches, the hosts and the channels that have one, by
/// [`Slot`]: one vector sorted by an integer, so a clone is one
/// allocation and a walk. Each kind is one run of it, and the table keeps
/// where each run ends, so a lookup searches its own kind's run only —
/// most channel runs are empty or a cell or two long — and a walk over a
/// kind is a slice. The lookups are `#[inline]`: enumerating a state's
/// transitions makes a few per switch, from another codegen unit.
#[derive(Clone, Default)]
struct Table {
    cells: Vec<(Slot, Cell)>,
    /// Where the run of each kind starts, in [`kind_of`] order, and where
    /// the last one ends.
    bounds: [u32; KINDS + 1],
}

impl Table {
    /// The table of `switches` and `hosts`, and no channel.
    fn new(
        switches: impl IntoIterator<Item = (SwitchId, Switch)>,
        hosts: impl IntoIterator<Item = (HostId, Box<dyn HostModel>)>,
    ) -> Table {
        let switches = (switches.into_iter()).map(|(id, switch)| {
            (
                Slot::switch(id),
                Cell::Switch(Arc::new(Cached::new(switch))),
            )
        });
        let hosts = (hosts.into_iter())
            .map(|(id, host)| (Slot::host(id), Cell::Host(Arc::new(Cached::new(host)))));
        let mut table = Table::default();
        for (slot, cell) in switches.chain(hosts) {
            let at = table.position(slot).expect_err("one cell per slot");
            table.insert(at, slot, cell);
        }
        table
    }

    /// Where the run of `slot`'s kind starts and ends.
    #[inline]
    fn run(&self, slot: Slot) -> (usize, usize) {
        let kind = kind_of(slot);
        (self.bounds[kind] as usize, self.bounds[kind + 1] as usize)
    }

    /// The cells of `slot`'s kind.
    #[inline]
    fn run_of(&self, slot: Slot) -> &[(Slot, Cell)] {
        let (start, end) = self.run(slot);
        &self.cells[start..end]
    }

    /// Where the cell at `slot` is (`Ok`) or would be inserted (`Err`).
    #[inline]
    fn position(&self, slot: Slot) -> Result<usize, usize> {
        let (start, end) = self.run(slot);
        match self.cells[start..end].binary_search_by_key(&slot, |&(at, _)| at) {
            Ok(at) => Ok(start + at),
            Err(at) => Err(start + at),
        }
    }

    #[inline]
    fn get(&self, slot: Slot) -> Option<&Cell> {
        self.position(slot).ok().map(|at| &self.cells[at].1)
    }

    #[inline]
    fn get_mut(&mut self, slot: Slot) -> Option<&mut Cell> {
        self.position(slot).ok().map(|at| &mut self.cells[at].1)
    }

    /// Puts `cell` at `slot`, which has none, where `position` says.
    fn insert(&mut self, at: usize, slot: Slot, cell: Cell) {
        self.cells.insert(at, (slot, cell));
        self.bounds[kind_of(slot) + 1..]
            .iter_mut()
            .for_each(|bound| *bound += 1);
    }

    /// Removes the cell at `slot` if it holds an idle channel.
    fn remove_if_idle(&mut self, slot: Slot) {
        if let Ok(at) = self.position(slot) {
            if self.cells[at].1.is_idle_channel() {
                self.remove(at, slot);
            }
        }
    }

    /// Removes the cell at `slot`, which is at `at`.
    fn remove(&mut self, at: usize, slot: Slot) {
        self.cells.remove(at);
        self.bounds[kind_of(slot) + 1..]
            .iter_mut()
            .for_each(|bound| *bound -= 1);
    }

    fn iter(&self) -> impl Iterator<Item = (Slot, &Cell)> {
        self.cells.iter().map(|(slot, cell)| (*slot, cell))
    }

    fn len(&self) -> usize {
        self.cells.len()
    }
}

/// The copy-on-write cell of one switch, host or channel, in the cell table
/// under its [`Slot`]: the variant follows from the slot's kind.
#[derive(Clone)]
enum Cell {
    Switch(Arc<Cached<Switch>>),
    Host(Arc<Cached<Box<dyn HostModel>>>),
    /// A control channel, and on a controller→switch one the sequence
    /// number of the last enqueue on it (the UNUSUAL strategy orders the
    /// busy ones by it; 0 on a switch→controller channel).
    Messages(Arc<Cached<FifoChannel<OfMessage>>>, u64),
    /// An ingress channel or a host inbox.
    Packets(Arc<Cached<FifoChannel<Packet>>>),
}

impl Cell {
    /// The cell of an idle channel at `slot`.
    fn idle_channel(slot: Slot) -> Cell {
        match slot.tag() {
            slot::SW_TO_CTRL | slot::CTRL_TO_SW => Cell::Messages(Arc::default(), 0),
            slot::INGRESS | slot::HOST_INBOX => Cell::Packets(Arc::default()),
            _ => unreachable!("{slot:?} is not a channel"),
        }
    }

    /// True if the cell holds a channel an absent cell would stand for.
    fn is_idle_channel(&self) -> bool {
        match self {
            Cell::Switch(_) | Cell::Host(_) => false,
            Cell::Messages(channel, _) => is_idle(&channel.value),
            Cell::Packets(channel) => is_idle(&channel.value),
        }
    }

    /// The digest of what the cell holds — through the cache, or re-hashed
    /// if `fresh` — or `None` for an idle channel, whose share is its
    /// slot's idle share.
    fn busy_digest(&self, fresh: bool) -> Option<u64> {
        fn digest<T: Component>(cell: &Cached<T>, fresh: bool) -> u64 {
            if fresh {
                rehash(&cell.value)
            } else {
                cell.digest()
            }
        }
        if self.is_idle_channel() {
            return None;
        }
        Some(match self {
            Cell::Switch(sw) => digest(sw, fresh),
            Cell::Host(host) => digest(host, fresh),
            Cell::Messages(channel, _) => digest(channel, fresh),
            Cell::Packets(channel) => digest(channel, fresh),
        })
    }

    /// The number of messages queued in the cell (0 for a switch or host).
    fn queued(&self) -> usize {
        match self {
            Cell::Switch(_) | Cell::Host(_) => 0,
            Cell::Messages(channel, _) => channel.value.len(),
            Cell::Packets(channel) => channel.value.len(),
        }
    }
}

/// A kind of component that sits in a [`Cell`]: how to find it there.
trait InCell: Component + Clone {
    fn of(cell: &Cell) -> &Arc<Cached<Self>>;
    fn of_mut(cell: &mut Cell) -> &mut Arc<Cached<Self>>;
}

/// Implements [`InCell`] for a component kind held by one `Cell` variant.
macro_rules! in_cell {
    ($kind:ty, $variant:ident $(, $seq:tt)?) => {
        impl InCell for $kind {
            fn of(cell: &Cell) -> &Arc<Cached<Self>> {
                match cell {
                    Cell::$variant(held $(, $seq)?) => held,
                    _ => unreachable!("a cell holds its slot's kind"),
                }
            }

            fn of_mut(cell: &mut Cell) -> &mut Arc<Cached<Self>> {
                match cell {
                    Cell::$variant(held $(, $seq)?) => held,
                    _ => unreachable!("a cell holds its slot's kind"),
                }
            }
        }
    };
}

in_cell!(Switch, Switch);
in_cell!(Box<dyn HostModel>, Host);
in_cell!(FifoChannel<OfMessage>, Messages, _);
in_cell!(FifoChannel<Packet>, Packets);

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
    let mut h = Hasher64::with_seed(ctrl_fp);
    packets.hash(&mut h);
    mix(slot::RELEVANT_PACKETS, host.0 as u64, h.finish())
}

/// What the statistics replies discovered for `switch` under the controller
/// state that digests to `ctrl_fp` contribute to the fingerprint.
fn stats_row_share(switch: SwitchId, ctrl_fp: u64, replies: &[Vec<PortStatsEntry>]) -> u64 {
    let mut h = Hasher64::with_seed(ctrl_fp);
    replies.hash(&mut h);
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
    let mut h = Hasher64::with_seed(FAULTS_FP_SEED);
    (budget, crashed).hash(&mut h);
    mix(slot::FAULTS, 0, h.finish())
}

/// What symbolic execution has discovered so far. Written only by
/// `discover_packets` and `discover_stats` (never on a scripted workload),
/// so both tables share one copy-on-write allocation, made on the first
/// row.
#[derive(Clone, Default)]
struct Discovered {
    /// Per-host relevant packets (`client.packets` in Figure 5).
    packets: RelevantPacketsTable,
    /// Per-switch statistics replies.
    stats: DiscoveredStatsTable,
}

/// What a state that never ran a discover transition has discovered.
static NOTHING_DISCOVERED: Discovered = Discovered {
    packets: BTreeMap::new(),
    stats: BTreeMap::new(),
};

/// Where a slot's tag sits in a [`Slot`]: above the widest key, an ingress
/// port's 32-bit switch and 16-bit port.
const TAG_SHIFT: u32 = 48;

/// One place a copy-on-write component sits in the state, as one integer,
/// never 0: the tag of its kind (`slot::*`) above [`TAG_SHIFT`], its key
/// within the kind below — a switch or host id, an ingress port's switch
/// and port. Ordered by it, each kind is one run, ordered by id (an ingress
/// port by switch, then port).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot(u64);

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot(tag {}, key {:#x})", self.tag(), self.key())
    }
}

impl Slot {
    const CONTROLLER: Slot = Slot::new(slot::CONTROLLER, 0);

    const fn new(tag: u64, key: u64) -> Slot {
        Slot((tag << TAG_SHIFT) | key)
    }

    fn switch(id: SwitchId) -> Slot {
        Slot::new(slot::SWITCH, id.0 as u64)
    }

    fn host(id: HostId) -> Slot {
        Slot::new(slot::HOST, id.0 as u64)
    }

    fn sw_to_ctrl(switch: SwitchId) -> Slot {
        Slot::new(slot::SW_TO_CTRL, switch.0 as u64)
    }

    fn ctrl_to_sw(switch: SwitchId) -> Slot {
        Slot::new(slot::CTRL_TO_SW, switch.0 as u64)
    }

    fn ingress(switch: SwitchId, port: PortId) -> Slot {
        Slot::new(slot::INGRESS, ((switch.0 as u64) << 16) | port.0 as u64)
    }

    fn host_inbox(host: HostId) -> Slot {
        Slot::new(slot::HOST_INBOX, host.0 as u64)
    }

    fn tag(self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    fn key(self) -> u64 {
        self.0 & ((1 << TAG_SHIFT) - 1)
    }

    /// The switch of a switch, control channel or ingress slot; the host of
    /// a host or inbox slot.
    fn id(self) -> u32 {
        match self.tag() {
            slot::INGRESS => (self.key() >> 16) as u32,
            _ => self.key() as u32,
        }
    }

    /// The port of an ingress slot.
    fn port(self) -> PortId {
        PortId(self.key() as u16)
    }

    fn is_channel(self) -> bool {
        self.tag() >= slot::SW_TO_CTRL
    }

    /// The value this slot contributes to the state fingerprint while its
    /// component digests to `digest`.
    fn mix(self, digest: u64) -> u64 {
        mix(self.tag(), self.key(), digest)
    }

    /// What this channel slot contributes while its channel is idle: the
    /// idle digest if the scenario implies the channel — it has one whether
    /// or not anything was ever queued on it — and nothing otherwise.
    fn idle_share(self, cells: &Table) -> u64 {
        let switch = || cells.get(Slot::switch(SwitchId(self.id())));
        let implied = match self.tag() {
            slot::SW_TO_CTRL | slot::CTRL_TO_SW => switch().is_some(),
            slot::INGRESS => switch().is_some_and(|sw| {
                Switch::of(sw)
                    .value
                    .ports
                    .binary_search(&self.port())
                    .is_ok()
            }),
            slot::HOST_INBOX => cells.get(Slot::host(HostId(self.id()))).is_some(),
            _ => unreachable!("{self:?} is not a channel"),
        };
        if implied {
            self.mix(IDLE_CHANNEL)
        } else {
            0
        }
    }
}

/// How many dirty slots a state holds without allocating. A transition
/// writes two to four slots (module docs); a crash, or a flood over a wide
/// switch, writes more and lists the rest on the heap.
const DIRTY_INLINE: usize = 8;

/// The slots written since the state was last settled, each once: the
/// first [`DIRTY_INLINE`] in the state itself (`Slot(0)` marks a free
/// place), any further ones on the heap.
struct Dirty {
    inline: [Slot; DIRTY_INLINE],
    more: Vec<Slot>,
}

/// A free place in [`Dirty::inline`]: no slot is 0.
const FREE: Slot = Slot(0);

impl Default for Dirty {
    fn default() -> Self {
        Dirty {
            inline: [FREE; DIRTY_INLINE],
            more: Vec::new(),
        }
    }
}

impl Dirty {
    fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        (self.inline.iter().take_while(|&&slot| slot != FREE))
            .chain(&self.more)
            .copied()
    }

    fn contains(&self, slot: Slot) -> bool {
        self.inline.contains(&slot) || self.more.contains(&slot)
    }

    fn push(&mut self, slot: Slot) {
        match self.inline.iter_mut().find(|free| **free == FREE) {
            Some(free) => *free = slot,
            None => self.more.push(slot),
        }
    }

    fn clear(&mut self) {
        self.inline = [FREE; DIRTY_INLINE];
        self.more.clear();
    }
}

/// The running XOR of the component slots' contributions to the state
/// fingerprint (module docs, "Incremental fingerprint").
#[derive(Default)]
struct Accumulator {
    /// XOR of every slot's share but those of the slots in `dirty`.
    folded: u64,
    /// Slots written since the state was last settled, each once.
    dirty: Dirty,
}

impl Accumulator {
    /// Announces a write to the component in `cell`: on the first one since
    /// the last settle the slot's contribution leaves the accumulator and
    /// the slot turns dirty. (A clean slot's cell is not an idle channel,
    /// so its contribution is its digest's.)
    fn retire<T: Component>(&mut self, slot: Slot, cell: &Cached<T>) {
        if !self.dirty.contains(slot) {
            self.folded ^= slot.mix(cell.digest());
            self.dirty.push(slot);
        }
    }

    /// Mutable access to the component in `cell`, un-sharing it and
    /// clearing its cached digest.
    fn write<'a, T: Component + Clone>(
        &mut self,
        slot: Slot,
        cell: &'a mut Arc<Cached<T>>,
    ) -> &'a mut T {
        self.retire(slot, cell);
        let cell = Arc::make_mut(cell);
        *cell.digest.get_mut() = UNDIGESTED;
        &mut cell.value
    }

    /// Where the cell of the channel at `slot` is in `cells`, creating it if
    /// the channel had none. A clean slot without a cell is an idle
    /// channel, whose idle share then leaves the accumulator; a dirty slot
    /// without one had its cell dropped by a pop, and its share left with
    /// the first write.
    fn channel_cell(&mut self, slot: Slot, cells: &mut Table) -> usize {
        cells.position(slot).unwrap_or_else(|at| {
            if !self.dirty.contains(slot) {
                self.folded ^= slot.idle_share(cells);
                self.dirty.push(slot);
            }
            cells.insert(at, slot, Cell::idle_channel(slot));
            at
        })
    }

    /// Mutable access to the channel at `slot`, whose cell is created if
    /// there was none (see [`channel_cell`](Self::channel_cell)).
    fn channel_mut<'a, T>(&mut self, slot: Slot, cells: &'a mut Table) -> &'a mut T
    where
        T: InCell,
    {
        let at = self.channel_cell(slot, cells);
        self.write(slot, T::of_mut(&mut cells.cells[at].1))
    }
}

/// The complete state of the modelled system.
///
/// Cloning is cheap (copy-on-write, see the module docs); mutation goes
/// through the `*_mut` accessors which un-share only the touched component.
pub struct SystemState {
    controller: Arc<Cached<ControllerRuntime>>,
    /// Every switch, every host and every channel that is not idle, by
    /// slot. A control channel is reliable and in order; an ingress channel
    /// holds the packets waiting to be processed by a switch, keyed by the
    /// port they will arrive on; a host inbox the packets in flight towards
    /// a host (delivered when the host's `receive` transition runs).
    cells: Table,
    /// Switches with an outstanding statistics request from the controller.
    pending_stats: BTreeSet<SwitchId>,
    /// The discovery caches, keyed by controller-state fingerprint: none
    /// until a discover transition writes a row.
    discovered: Option<Arc<Discovered>>,
    /// Provenance-id allocator for injected packets.
    next_packet_id: u64,
    /// Monotonic sequence used to remember when each controller→switch
    /// channel last received a message (consumed by the UNUSUAL strategy;
    /// the channel's cell holds its last number).
    of_enqueue_seq: u64,
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
    /// The component slots' share of the fingerprint, kept up to date by
    /// every write.
    acc: Accumulator,
}

impl Clone for SystemState {
    /// Copies the cell table, bumping the cells' reference counts, and
    /// settles the copy: its fingerprint then costs what is written to
    /// *it*, and it holds no cell for an idle channel. The states the
    /// search clones are settled already, so there the fold is empty, there
    /// is nothing to leave behind, and the table is the one allocation.
    fn clone(&self) -> Self {
        let mut copy = SystemState {
            controller: self.controller.clone(),
            cells: self.cells.clone(),
            pending_stats: self.pending_stats.clone(),
            discovered: self.discovered.clone(),
            next_packet_id: self.next_packet_id,
            of_enqueue_seq: self.of_enqueue_seq,
            fault_budget: self.fault_budget,
            crashed: self.crashed.clone(),
            fault_share: self.fault_share,
            acc: Accumulator {
                folded: self.slots_share(),
                dirty: Dirty::default(),
            },
        };
        for slot in self.acc.dirty.iter() {
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
    let mut h = Hasher64::with_seed(tag);
    h.write_u64(key);
    h.write_u64(digest);
    h.finish()
}

impl std::fmt::Debug for SystemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemState")
            .field("controller", &self.controller.value)
            .field(
                "switches",
                &self.switches().map(|(id, _)| id).collect::<Vec<_>>(),
            )
            .field("hosts", &self.hosts().map(|(id, _)| id).collect::<Vec<_>>())
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
        let mut controller = ControllerRuntime::new(scenario.app.clone_app());

        let switches = (scenario.topology.switches()).map(|spec| {
            let switch = Switch::with_config(spec.id, spec.ports.clone(), scenario.switch_config);
            (spec.id, switch)
        });
        let hosts = (scenario.hosts.iter()).map(|host| (host.id(), host.clone_host()));
        let cells = Table::new(switches, hosts);

        // Deliver switch_join events synchronously during initialisation so
        // the controller starts with its per-switch state set up.
        let produced: Vec<(SwitchId, OfMessage)> = (cells.iter())
            .filter_map(|(_, cell)| match cell {
                Cell::Switch(sw) => Some(sw.value.join_message()),
                _ => None,
            })
            .flat_map(|join| controller.handle_message(&join))
            .collect();

        let mut state = SystemState {
            controller: Arc::new(Cached::new(controller)),
            cells,
            pending_stats: BTreeSet::new(),
            discovered: None,
            next_packet_id: 1,
            of_enqueue_seq: 0,
            fault_budget: scenario.fault_plan.budget,
            crashed: BTreeSet::new(),
            fault_share: fault_share(scenario.fault_plan.budget, &BTreeSet::new()),
            acc: Accumulator::default(),
        };

        // Nothing is folded yet. The channels the scenario implies have no
        // cell to digest and share the idle channel's; the components start
        // dirty, so settling is the one full walk over them, and every
        // later fingerprint starts from the accumulator this seeds.
        let mut implied: Vec<Slot> = state.hosts().map(|(id, _)| Slot::host_inbox(id)).collect();
        for (id, sw) in state.switches() {
            implied.extend([Slot::sw_to_ctrl(id), Slot::ctrl_to_sw(id)]);
            implied.extend(sw.ports.iter().map(|&port| Slot::ingress(id, port)));
        }
        state.acc.folded = (implied.iter()).fold(0, |acc, slot| acc ^ slot.mix(IDLE_CHANNEL));
        state.acc.dirty.push(Slot::CONTROLLER);
        for (slot, _) in state.cells.iter() {
            state.acc.dirty.push(slot);
        }
        for (target, msg) in produced {
            state.enqueue_to_switch(target, msg);
        }
        state.settle();
        state
    }

    /// What `slot` contributes to the fingerprint right now (caching the
    /// component's digest if it was not): its digest's share if it holds
    /// something, an idle channel's share with or without a cell.
    fn contribution(&self, slot: Slot) -> u64 {
        if slot == Slot::CONTROLLER {
            return slot.mix(self.controller.digest());
        }
        match self
            .cells
            .get(slot)
            .and_then(|cell| cell.busy_digest(false))
        {
            Some(digest) => slot.mix(digest),
            None => slot.idle_share(&self.cells),
        }
    }

    /// The component slots' share of the fingerprint: the accumulator with
    /// the dirty slots' current contributions folded over it.
    fn slots_share(&self) -> u64 {
        self.acc
            .dirty
            .iter()
            .fold(self.acc.folded, |acc, slot| acc ^ self.contribution(slot))
    }

    /// Drops the cell at `slot` if it holds an idle channel.
    fn drop_idle_cell(&mut self, slot: Slot) {
        if slot.is_channel() {
            self.cells.remove_if_idle(slot);
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
        let dirty = std::mem::take(&mut self.acc.dirty);
        for slot in dirty.iter() {
            self.drop_idle_cell(slot);
        }
        self.acc.dirty = dirty;
        self.acc.dirty.clear();
    }

    /// How many copy-on-write cells this state holds: one for the
    /// controller and for each switch and host, one per channel that is not
    /// idle (and, between two settles, per channel written since). Tests
    /// hold the layout to it; nothing else reads it.
    #[doc(hidden)]
    pub fn cell_count(&self) -> usize {
        1 + self.cells.len()
    }

    // ----- Component access -----

    /// The controller runtime.
    pub fn controller(&self) -> &ControllerRuntime {
        &self.controller.value
    }

    /// Mutable access to the controller runtime (un-shares it if the
    /// allocation is shared with other states).
    pub fn controller_mut(&mut self) -> &mut ControllerRuntime {
        self.acc.write(Slot::CONTROLLER, &mut self.controller)
    }

    /// The switches, in id order.
    #[inline]
    pub fn switches(&self) -> impl Iterator<Item = (SwitchId, &Switch)> {
        (self.cells.run_of(Slot::switch(SwitchId(0))).iter())
            .map(|(slot, cell)| (SwitchId(slot.id()), &Switch::of(cell).value))
    }

    /// One switch.
    #[inline]
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        let cell = self.cells.get(Slot::switch(id))?;
        Some(&Switch::of(cell).value)
    }

    /// Mutable access to one switch (un-shares only that switch).
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        let cell = self.cells.get_mut(Slot::switch(id))?;
        Some(self.acc.write(Slot::switch(id), Switch::of_mut(cell)))
    }

    /// The hosts, in id order.
    #[inline]
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &dyn HostModel)> {
        (self.cells.run_of(Slot::host(HostId(0))).iter()).map(|(slot, cell)| {
            let host = <Box<dyn HostModel>>::of(cell);
            (HostId(slot.id()), host.value.as_ref())
        })
    }

    /// One host.
    #[inline]
    pub fn host(&self, id: HostId) -> Option<&dyn HostModel> {
        let cell = self.cells.get(Slot::host(id))?;
        Some(<Box<dyn HostModel>>::of(cell).value.as_ref())
    }

    /// Mutable access to one host (un-shares only that host).
    pub fn host_mut(&mut self, id: HostId) -> Option<&mut Box<dyn HostModel>> {
        let cell = self.cells.get_mut(Slot::host(id))?;
        Some(
            self.acc
                .write(Slot::host(id), <Box<dyn HostModel>>::of_mut(cell)),
        )
    }

    /// The host currently attached at `(switch, port)`, taking mobility into
    /// account.
    pub fn host_at(&self, switch: SwitchId, port: PortId) -> Option<HostId> {
        self.hosts()
            .find(|(_, h)| h.location() == Location { switch, port })
            .map(|(id, _)| id)
    }

    // ----- Channels -----
    //
    // A reader returns `None` for an idle channel: nothing queued, link up.
    // A `*_mut` accessor returns the channel whatever its state, creating
    // its cell if it was idle, so that no write is ever lost on `None`.

    /// The channel at `slot`, unless it is idle.
    #[inline]
    fn channel<T: InCell>(&self, slot: Slot) -> Option<&T> {
        self.cells.get(slot).map(|cell| &T::of(cell).value)
    }

    /// Takes the message at the head of the channel at `slot` — what
    /// `channel_mut(slot).pop()` would, without un-sharing the channel when
    /// that empties it (module docs): the cell is dropped and the message
    /// taken out of it, or copied if another state shares the cell.
    fn pop<T: Hash + Clone>(&mut self, slot: Slot) -> Option<T>
    where
        FifoChannel<T>: InCell,
    {
        let at = self.cells.position(slot).ok()?;
        let cell = FifoChannel::<T>::of_mut(&mut self.cells.cells[at].1);
        if cell.value.is_empty() {
            return None;
        }
        if cell.value.len() > 1 || cell.value.is_failed() {
            return self.acc.write(slot, cell).pop();
        }
        self.acc.retire(slot, cell);
        let head = match Arc::get_mut(cell) {
            Some(owned) => owned.value.pop(),
            None => cell.value.peek().cloned(),
        };
        self.cells.remove(at, slot);
        head
    }

    /// Enqueues an OpenFlow message from the controller towards a switch.
    pub fn enqueue_to_switch(&mut self, switch: SwitchId, msg: OfMessage) {
        if let OfMessage::StatsRequest { .. } = &msg {
            self.pending_stats.insert(switch);
        }
        self.of_enqueue_seq += 1;
        let slot = Slot::ctrl_to_sw(switch);
        let at = self.acc.channel_cell(slot, &mut self.cells);
        let Cell::Messages(channel, last_enqueue) = &mut self.cells.cells[at].1 else {
            unreachable!("a control channel's cell holds messages")
        };
        *last_enqueue = self.of_enqueue_seq;
        self.acc.write(slot, channel).push(msg);
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
    #[inline]
    pub fn ctrl_to_sw(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.channel(Slot::ctrl_to_sw(switch))
    }

    /// Mutable controller→switch channel (un-shares only that channel).
    pub fn ctrl_to_sw_mut(&mut self, switch: SwitchId) -> &mut FifoChannel<OfMessage> {
        (self.acc).channel_mut(Slot::ctrl_to_sw(switch), &mut self.cells)
    }

    /// Takes the next message off the controller→switch channel of a
    /// switch (`None` if nothing is queued).
    pub fn pop_to_switch(&mut self, switch: SwitchId) -> Option<OfMessage> {
        self.pop(Slot::ctrl_to_sw(switch))
    }

    /// The switch→controller channel of a switch, unless it is idle.
    #[inline]
    pub fn sw_to_ctrl(&self, switch: SwitchId) -> Option<&FifoChannel<OfMessage>> {
        self.channel(Slot::sw_to_ctrl(switch))
    }

    /// Mutable switch→controller channel (un-shares only that channel).
    pub fn sw_to_ctrl_mut(&mut self, switch: SwitchId) -> &mut FifoChannel<OfMessage> {
        (self.acc).channel_mut(Slot::sw_to_ctrl(switch), &mut self.cells)
    }

    /// Takes the next message off the switch→controller channel of a
    /// switch (`None` if nothing is queued).
    pub fn pop_to_controller(&mut self, switch: SwitchId) -> Option<OfMessage> {
        self.pop(Slot::sw_to_ctrl(switch))
    }

    /// The ingress channel of `(switch, port)`, unless it is idle.
    #[inline]
    pub fn ingress(&self, switch: SwitchId, port: PortId) -> Option<&FifoChannel<Packet>> {
        self.channel(Slot::ingress(switch, port))
    }

    /// Mutable ingress channel (un-shares only that channel).
    pub fn ingress_mut(&mut self, switch: SwitchId, port: PortId) -> &mut FifoChannel<Packet> {
        (self.acc).channel_mut(Slot::ingress(switch, port), &mut self.cells)
    }

    /// Takes the next packet off the ingress channel of `(switch, port)`
    /// (`None` if nothing is queued).
    pub fn pop_ingress(&mut self, switch: SwitchId, port: PortId) -> Option<Packet> {
        self.pop(Slot::ingress(switch, port))
    }

    /// Ports of `switch` whose ingress channel currently holds packets, in
    /// port order.
    #[inline]
    pub fn busy_ingress_ports(&self, switch: SwitchId) -> impl Iterator<Item = PortId> + '_ {
        let first = Slot::ingress(switch, PortId(0));
        let run = self.cells.run_of(first);
        let from = run.partition_point(|&(slot, _)| slot < first);
        (run[from..].iter())
            .take_while(move |(slot, _)| slot.id() == switch.0)
            .filter(|(_, cell)| !FifoChannel::<Packet>::of(cell).value.is_empty())
            .map(|(slot, _)| slot.port())
    }

    /// The inbox channel of a host, unless it is idle.
    #[inline]
    pub fn host_inbox(&self, host: HostId) -> Option<&FifoChannel<Packet>> {
        self.channel(Slot::host_inbox(host))
    }

    /// Mutable inbox channel of a host (un-shares only that channel).
    pub fn host_inbox_mut(&mut self, host: HostId) -> &mut FifoChannel<Packet> {
        (self.acc).channel_mut(Slot::host_inbox(host), &mut self.cells)
    }

    /// Takes the next packet off the inbox of a host (`None` if nothing is
    /// queued).
    pub fn pop_host_inbox(&mut self, host: HostId) -> Option<Packet> {
        self.pop(Slot::host_inbox(host))
    }

    /// True if any switch↔controller channel holds messages (used to drain
    /// the control plane under NO-DELAY).
    pub fn control_plane_busy(&self) -> bool {
        let to_controller = self.cells.run_of(Slot::sw_to_ctrl(SwitchId(0)));
        let to_switches = self.cells.run_of(Slot::ctrl_to_sw(SwitchId(0)));
        (to_controller.iter().chain(to_switches))
            .any(|(_, cell)| !FifoChannel::<OfMessage>::of(cell).value.is_empty())
    }

    /// Switches whose controller→switch channel is non-empty, with the
    /// sequence number of the most recent enqueue (used by UNUSUAL).
    pub fn of_backlog(&self) -> Vec<(SwitchId, u64)> {
        (self.cells.run_of(Slot::ctrl_to_sw(SwitchId(0))).iter())
            .filter_map(|(slot, cell)| match cell {
                Cell::Messages(channel, last_enqueue) if !channel.value.is_empty() => {
                    Some((SwitchId(slot.id()), *last_enqueue))
                }
                _ => None,
            })
            .collect()
    }

    // ----- Discovery caches and statistics bookkeeping -----

    /// Allocates a fresh provenance id for an injected packet.
    pub fn alloc_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// The fingerprint of the controller state alone — the key of the
    /// relevant-packet cache (`state(ctrl)` in Figure 5). Cached until the
    /// controller is next mutated.
    pub fn controller_fingerprint(&self) -> u64 {
        self.controller.digest()
    }

    /// The discovery caches (empty until a discover transition writes a
    /// row).
    fn discovered(&self) -> &Discovered {
        self.discovered.as_deref().unwrap_or(&NOTHING_DISCOVERED)
    }

    /// The discovery caches to write a row into (un-shared, or created on
    /// the first row).
    fn discovered_mut(&mut self) -> &mut Discovered {
        Arc::make_mut(self.discovered.get_or_insert_default())
    }

    /// The relevant packets cached for `host` in the current controller
    /// state, if discovery has run.
    pub fn relevant_packets(&self, host: HostId, ctrl_fp: u64) -> Option<&Vec<Packet>> {
        let row = (self.discovered().packets.get(&host)).and_then(|m| m.get(&ctrl_fp))?;
        Some(&row.value)
    }

    /// Stores the relevant packets for `host` under the given controller
    /// state.
    pub fn set_relevant_packets(&mut self, host: HostId, ctrl_fp: u64, packets: Vec<Packet>) {
        let row = Row {
            share: packets_row_share(host, ctrl_fp, &packets),
            value: packets,
        };
        self.discovered_mut()
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
        let row = (self.discovered().stats.get(&switch)).and_then(|m| m.get(&ctrl_fp))?;
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
        self.discovered_mut()
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
            *sw = sw.restarted();
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
    /// Tests in this module pin each channel's digest to a
    /// [`Hasher64`] digest of the channel contents and the slot mix to
    /// golden values, and
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
        for cache in self.discovered().packets.values() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= row.share;
            }
        }
        for cache in self.discovered().stats.values() {
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
        for (host, cache) in self.discovered().packets.iter() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= packets_row_share(*host, ctrl_fp, &row.value);
            }
        }
        for (switch, cache) in self.discovered().stats.iter() {
            if let Some(row) = cache.get(&ctrl_fp) {
                acc ^= stats_row_share(*switch, ctrl_fp, &row.value);
            }
        }
        acc
    }

    /// The reference the tests hold [`fingerprint`](Self::fingerprint) to: a
    /// full re-hash of every component that reads neither a cached digest
    /// nor the accumulator, and that takes the channels to hash from the
    /// switches' port lists and the host list, not from the cells that
    /// happen to exist.
    /// Nothing in the checker calls it.
    #[doc(hidden)]
    pub fn reference_fingerprint(&self) -> u64 {
        let ctrl_fp = rehash(&self.controller.value);
        let mut acc = mix(slot::CONTROLLER, 0, ctrl_fp);

        // Digest by slot. Every switch and host is there, and every channel
        // the scenario implies, idle until a cell says otherwise; any other
        // channel is there while it holds something.
        let idle = rehash(&FifoChannel::<Packet>::new());
        let mut digests = BTreeMap::new();
        for (id, sw) in self.switches() {
            digests.insert(Slot::sw_to_ctrl(id), idle);
            digests.insert(Slot::ctrl_to_sw(id), idle);
            for &port in sw.ports.iter() {
                digests.insert(Slot::ingress(id, port), idle);
            }
        }
        for (id, _) in self.hosts() {
            digests.insert(Slot::host_inbox(id), idle);
        }
        for (slot, cell) in self.cells.iter() {
            if let Some(digest) = cell.busy_digest(true) {
                digests.insert(slot, digest);
            }
        }
        for (slot, digest) in digests {
            acc ^= slot.mix(digest);
        }
        acc ^ self.reference_bookkeeping_share(ctrl_fp)
    }

    /// Total number of packets currently buffered at switches awaiting a
    /// controller decision (used in reports).
    pub fn total_buffered_packets(&self) -> usize {
        self.switches().map(|(_, s)| s.buffered_count()).sum()
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
        let carries = |(_, cell): (Slot, &Cell)| match cell {
            Cell::Switch(sw) => (sw.value.buffered_packets()).any(|(_, bp)| bp.packet.id == id),
            Cell::Host(_) => false,
            Cell::Messages(channel, _) => channel.value.iter().any(of_carries),
            Cell::Packets(channel) => channel.value.iter().any(|p| p.id == id),
        };
        self.cells.iter().any(carries) || self.controller.value.app().held_packets().contains(&id)
    }

    /// Total number of messages currently queued on any channel.
    pub fn total_queued_messages(&self) -> usize {
        self.cells.iter().map(|(_, cell)| cell.queued()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use nice_openflow::MacAddr;

    impl Dirty {
        fn is_empty(&self) -> bool {
            self.inline[0] == FREE
        }
    }

    /// The cell of a switch.
    fn switch_cell(state: &SystemState, id: SwitchId) -> &Arc<Cached<Switch>> {
        Switch::of(state.cells.get(Slot::switch(id)).expect("a switch"))
    }

    /// The cell of an ingress channel.
    fn ingress_cell(
        state: &SystemState,
        at: (SwitchId, PortId),
    ) -> &Arc<Cached<FifoChannel<Packet>>> {
        FifoChannel::of(state.cells.get(Slot::ingress(at.0, at.1)).expect("a cell"))
    }

    /// The ingress channels that have a cell, in slot order.
    fn ingress_slots(state: &SystemState) -> Vec<(SwitchId, PortId)> {
        (state.cells.iter())
            .filter(|(slot, _)| slot.tag() == slot::INGRESS)
            .map(|(slot, _)| (SwitchId(slot.id()), slot.port()))
            .collect()
    }

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
            switch_cell(&a, SwitchId(1)),
            switch_cell(&b, SwitchId(1))
        ));
        // Nothing is discovered yet, so there is no cache to share.
        assert!(a.discovered.is_none() && b.discovered.is_none());

        // Writing one switch un-shares only that switch.
        let pkt = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        b.switch_mut(SwitchId(1))
            .unwrap()
            .process_packet(pkt, PortId(1));
        assert!(!Arc::ptr_eq(
            switch_cell(&a, SwitchId(1)),
            switch_cell(&b, SwitchId(1))
        ));
        assert!(Arc::ptr_eq(
            switch_cell(&a, SwitchId(2)),
            switch_cell(&b, SwitchId(2))
        ));
        assert!(Arc::ptr_eq(&a.controller, &b.controller));

        // The first row creates the cache; a clone then shares it, and a
        // row written to one state leaves the other's alone.
        let ctrl_fp = b.controller_fingerprint();
        b.set_relevant_packets(HostId(1), ctrl_fp, vec![pkt]);
        let mut c = b.clone();
        let shared = |x: &SystemState, y: &SystemState| match (&x.discovered, &y.discovered) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(shared(&b, &c));
        c.set_relevant_packets(HostId(2), ctrl_fp, vec![]);
        assert!(!shared(&b, &c));
        assert!(b.relevant_packets(HostId(2), ctrl_fp).is_none());
        assert!(a.discovered.is_none());
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

        // Take a fingerprint (filling every cache), mutate a single channel,
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

        let ch = ingress_cell(&state, (SwitchId(1), PortId(1)));
        let direct = {
            let mut h = Hasher64::with_seed(FifoChannel::<Packet>::SEED);
            ch.value.hash(&mut h);
            h.finish()
        };
        assert_eq!(ch.digest(), direct);
        // Cached now.
        assert_eq!(ch.digest.load(Ordering::Relaxed), direct);

        // Mutation through the accessor drops the cache...
        state.ingress_mut(SwitchId(1), PortId(1)).pop();
        let ch = ingress_cell(&state, (SwitchId(1), PortId(1)));
        assert_eq!(ch.digest.load(Ordering::Relaxed), UNDIGESTED);
        // ...and the recomputed digest reflects the new contents.
        let direct_after = {
            let mut h = Hasher64::with_seed(FifoChannel::<Packet>::SEED);
            ch.value.hash(&mut h);
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
        let ingress = Slot::ingress(SwitchId(1), PortId(1));
        let dirty: Vec<Slot> = state.acc.dirty.iter().collect();
        assert_eq!(dirty, [ingress, Slot::CONTROLLER]);
        // Both contributions left the accumulator with the first write.
        let empty = Arc::<Cached<FifoChannel<Packet>>>::default().digest();
        assert_eq!(
            state.acc.folded,
            clean ^ ingress.mix(empty) ^ Slot::CONTROLLER.mix(state.controller_fingerprint())
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

    /// The channel cells of each kind, as `(sw→ctrl, ctrl→sw, ingress,
    /// inbox)`.
    fn channel_cells(state: &SystemState) -> (usize, usize, usize, usize) {
        let mut cells = (0, 0, 0, 0);
        for (slot, _) in state.cells.iter() {
            match slot.tag() {
                slot::SW_TO_CTRL => cells.0 += 1,
                slot::CTRL_TO_SW => cells.1 += 1,
                slot::INGRESS => cells.2 += 1,
                slot::HOST_INBOX => cells.3 += 1,
                _ => {}
            }
        }
        cells
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

    /// One channel of each kind, to queue its message on, pop it off and
    /// read the length of.
    type Channel = (
        &'static str,
        fn(&mut SystemState),
        fn(&mut SystemState) -> bool,
        fn(&SystemState) -> Option<usize>,
    );

    const CHANNELS: [Channel; 4] = [
        (
            "sw→ctrl",
            |s| s.enqueue_to_controller(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 }),
            |s| s.pop_to_controller(SwitchId(1)).is_some(),
            |s| s.sw_to_ctrl(SwitchId(1)).map(FifoChannel::len),
        ),
        (
            "ctrl→sw",
            |s| s.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 2 }),
            |s| s.pop_to_switch(SwitchId(2)).is_some(),
            |s| s.ctrl_to_sw(SwitchId(2)).map(FifoChannel::len),
        ),
        (
            "ingress",
            |s| s.enqueue_ingress(SwitchId(1), PortId(2), ping()),
            |s| s.pop_ingress(SwitchId(1), PortId(2)) == Some(ping()),
            |s| s.ingress(SwitchId(1), PortId(2)).map(FifoChannel::len),
        ),
        (
            "inbox",
            |s| s.enqueue_host(HostId(2), ping()),
            |s| s.pop_host_inbox(HostId(2)) == Some(ping()),
            |s| s.host_inbox(HostId(2)).map(FifoChannel::len),
        ),
    ];

    fn ping() -> Packet {
        Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0)
    }

    #[test]
    fn a_pop_that_empties_a_shared_channel_drops_its_cell() {
        let scenario = testutil::hub_ping_scenario(1);
        for (kind, enqueue, pop, len) in CHANNELS {
            let mut settled = SystemState::initial(&scenario);
            enqueue(&mut settled);
            settled.settle();
            let (cells, fingerprint) = (settled.cell_count(), settled.fingerprint());

            // The copy pops the lone message of a cell it shares with the
            // settled state: the cell goes, nothing is un-shared.
            let mut copy = settled.clone();
            assert!(pop(&mut copy), "{kind}: the message comes off");
            assert_eq!(len(&copy), None, "{kind}: an idle channel");
            assert_eq!(copy.cell_count(), cells - 1, "{kind}: dropped, not copied");
            assert_eq!(copy.fingerprint(), copy.reference_fingerprint(), "{kind}");
            assert_ne!(copy.fingerprint(), fingerprint, "{kind}");
            assert!(!pop(&mut copy), "{kind}: nothing is left to pop");

            // Queued again before a settle: the slot is dirty without a
            // cell, so only the new cell's share may move the accumulator.
            enqueue(&mut copy);
            assert_eq!(copy.fingerprint(), copy.reference_fingerprint(), "{kind}");
            assert_eq!(copy.fingerprint(), fingerprint, "{kind}");
            assert_eq!(
                len(&settled),
                Some(1),
                "{kind}: the other copy still reads it"
            );
            copy.settle();
            assert_eq!(copy.cell_count(), cells, "{kind}");
            assert_eq!(copy.fingerprint(), copy.reference_fingerprint(), "{kind}");

            // A cell only this state holds gives its message up the same way.
            assert!(pop(&mut copy), "{kind}");
            assert_eq!(copy.cell_count(), cells - 1, "{kind}");
            copy.settle();
            assert_eq!(copy.fingerprint(), copy.reference_fingerprint(), "{kind}");
            assert_eq!(len(&settled), Some(1), "{kind}");
            assert_eq!(settled.fingerprint(), fingerprint, "{kind}");
        }
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
        assert_eq!(ingress_slots(&state).len(), 3);

        state.crash_switch(SwitchId(1));
        assert_eq!(state.busy_ingress_ports(SwitchId(1)).count(), 0);
        assert_eq!(state.fingerprint(), state.reference_fingerprint());
        let clone = state.clone();
        state.settle();
        for state in [&state, &clone] {
            let left = ingress_slots(state);
            assert_eq!(left, [(SwitchId(2), PortId(1))]);
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        // A packet towards the crashed switch is dropped on the floor, not
        // on a new cell.
        state.enqueue_ingress(SwitchId(1), PortId(1), pkt);
        assert_eq!(ingress_slots(&state).len(), 1);
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
        // set semantics, shard assignments or store placement.
        assert_eq!(mix(slot::CONTROLLER, 0, 0), 0xdcdd_1f64_0003_6e7a);
        assert_eq!(mix(slot::SWITCH, 1, 0xdead_beef), 0xbff2_18b6_f8ce_409e);
        assert_eq!(mix(slot::PENDING_STATS, 3, 1), 0x089e_9ab9_2385_d42f);
    }

    /// A slot's share is the last thing the state fingerprint does to a
    /// component digest, so it has to spread every digest bit over the
    /// whole word: flipping any one bit of `digest` flips 24 to 40 of the
    /// 64 output bits on average (32 is ideal).
    #[test]
    fn mix_avalanches_every_digest_bit() {
        const SAMPLES: u32 = 512;
        let mut z = 0u64;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let y = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let y = (y ^ (y >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            y ^ (y >> 31)
        };
        for (tag, key) in [(slot::CONTROLLER, 0), (slot::INGRESS, (3 << 16) | 2)] {
            for bit in 0..64 {
                let flipped: u32 = (0..SAMPLES)
                    .map(|_| {
                        let digest = next();
                        (mix(tag, key, digest) ^ mix(tag, key, digest ^ (1 << bit))).count_ones()
                    })
                    .sum();
                let mean = f64::from(flipped) / f64::from(SAMPLES);
                assert!(
                    (24.0..=40.0).contains(&mean),
                    "tag {tag}, digest bit {bit}: {mean:.1} output bits flip"
                );
            }
        }
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
            let row = &state.discovered().packets[&HostId(1)][&ctrl_fp];
            assert_eq!(row.value, packets);
            assert_eq!(row.share, packets_row_share(HostId(1), ctrl_fp, &packets));
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        for stats in [vec![vec![reply(1, 3)]], vec![vec![reply(1, 4)], vec![]]] {
            state.set_discovered_stats(SwitchId(2), ctrl_fp, stats.clone());
            let row = &state.discovered().stats[&SwitchId(2)][&ctrl_fp];
            assert_eq!(row.value, stats);
            assert_eq!(row.share, stats_row_share(SwitchId(2), ctrl_fp, &stats));
            assert_eq!(state.fingerprint(), state.reference_fingerprint());
        }
        assert_eq!(state.discovered().packets[&HostId(1)].len(), 1);
        assert_eq!(state.discovered().stats[&SwitchId(2)].len(), 1);

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
