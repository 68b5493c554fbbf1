//! The state fingerprint is kept incrementally: an accumulator inside
//! `SystemState` that every write to a component updates (see the
//! `nice_mc::state` module docs). This suite fails if that accumulator ever
//! drifts from what a full re-hash of the state yields.
//!
//! Seeded random walks over every scenario NICE ships, plus the chain
//! workload under its fault plan, with fault injection on. After *every* transition, on the stepped state and on a clone that
//! then takes a different transition, `fingerprint()` must equal
//! `reference_fingerprint()`, which reads no cached digest and no
//! accumulator. The walks step states that were never settled (writes pile
//! up across steps) as well as fresh clones (settled), so both ways of
//! arriving at a fingerprint are held to the reference.
//!
//! The reference moves with the layout it re-hashes and the hash function
//! it calls, so the same walks are also held to how they split states
//! *before* either changed: [`PARENT_PARTITIONS`], taken with the seven-map
//! layout and the byte-at-a-time Fowler–Noll–Vo hash, pins which of the
//! states each walk visits are equal — not the values they hash to. The walks also hold the bits
//! each consumer of a fingerprint reads to a χ² bound, and the layout to its
//! invariant: an initial state and every clone carry a cell per component
//! and per channel that holds something, and no other. A property test
//! then rearranges chain states the way an XOR of per-slot shares could
//! miss: contents swapped between two slots, or moved between two channels.

use nice::apps::workloads::resolve;
use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice::mc::{SystemState, Transition};
use nice::openflow::{FifoChannel, FlowRule};
use nice::prelude::*;
use nice::scenarios::registry;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;

/// SplitMix64's increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function: a bijective mixer that owes nothing to the
/// fingerprint hasher.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a seeded stream of choices without a dependency.
struct Choices(u64);

impl Choices {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(GAMMA);
        (splitmix(self.0) % n as u64) as usize
    }
}

/// Which of the fingerprints a walk saw are equal, in the order it saw
/// them: each fingerprint becomes the index of its first occurrence, and
/// the indices are folded by [`splitmix`]. Two hash functions that split the
/// walked states alike give the same signature, whatever values they hash
/// to; one that merges two states the other keeps apart, or the other way
/// round, changes it.
#[derive(Default)]
struct Partition {
    first_seen: HashMap<u64, u64>,
    signature: u64,
}

impl Partition {
    fn record(&mut self, fingerprint: u64) {
        let fresh = self.first_seen.len() as u64;
        let index = *self.first_seen.entry(fingerprint).or_insert(fresh);
        self.signature = splitmix(self.signature.wrapping_add(GAMMA) ^ index);
    }
}

#[track_caller]
fn assert_exact(state: &SystemState, what: &str, scenario: &str, step: usize, t: &Transition) {
    assert_eq!(
        state.fingerprint(),
        state.reference_fingerprint(),
        "{scenario}: {what} drifted at step {step}, after {t}"
    );
}

/// Asserts that `state` — settled: an initial state or a clone — holds one
/// cell for the controller and for each switch and host, one for each
/// channel that is not idle, and none for a channel that is.
#[track_caller]
fn assert_no_idle_cell(state: &SystemState, scenario: &str) {
    fn live<T>(channel: Option<&FifoChannel<T>>, scenario: &str) -> usize {
        let idle = channel.is_some_and(|ch| ch.is_empty() && !ch.is_failed());
        assert!(!idle, "{scenario}: a cell for an idle channel");
        channel.is_some() as usize
    }
    let mut cells = 1;
    for (id, switch) in state.switches() {
        cells += 1 + live(state.sw_to_ctrl(id), scenario) + live(state.ctrl_to_sw(id), scenario);
        for &port in switch.ports.iter() {
            cells += live(state.ingress(id, port), scenario);
        }
    }
    for (id, _) in state.hosts() {
        cells += 1 + live(state.host_inbox(id), scenario);
    }
    assert_eq!(state.cell_count(), cells, "{scenario}: cells nothing reads");
}

/// Walks `scenario` `walks` times for at most `max_steps` transitions,
/// checking every state reached, and records which transition kinds ran.
/// Returns how the walks partitioned the fingerprints they saw.
fn walk(
    scenario: &Scenario,
    seed: u64,
    walks: u32,
    max_steps: usize,
    kinds: &mut BTreeSet<&'static str>,
) -> Partition {
    let mut partition = Partition::default();
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut choices = Choices(seed);
    let mut memo = DiscoveryMemo::default();
    let mut events = Vec::new();
    let name = scenario.name.as_str();
    for _ in 0..walks {
        let mut state = SystemState::initial(scenario);
        assert_eq!(state.fingerprint(), state.reference_fingerprint(), "{name}");
        assert_no_idle_cell(&state, name);
        partition.record(state.fingerprint());
        for step in 0..max_steps {
            let enabled = enabled_transitions(&state, scenario, &config);
            if enabled.is_empty() {
                break;
            }
            // Half the steps continue on a clone, which starts settled; the
            // others keep piling writes onto the unsettled state.
            if choices.below(2) == 0 {
                state = state.clone();
            }
            let mut fork = state.clone();

            let taken = &enabled[choices.below(enabled.len())];
            events.clear();
            execute(&mut state, taken, scenario, &config, &mut memo, &mut events);
            kinds.insert(taken.kind());
            assert_exact(&state, "the stepped state", name, step, taken);
            let clone = state.clone();
            assert_eq!(clone.fingerprint(), state.fingerprint(), "{name}");
            assert_no_idle_cell(&clone, name);

            // The clone diverges; what it writes must not reach the state it
            // was cloned from, and the other way round.
            let other = &enabled[choices.below(enabled.len())];
            events.clear();
            execute(&mut fork, other, scenario, &config, &mut memo, &mut events);
            assert_exact(&fork, "the diverging clone", name, step, other);
            assert_exact(&state, "the state cloned from", name, step, other);
            partition.record(state.fingerprint());
            partition.record(fork.fingerprint());
        }
    }
    partition
}

/// The [`Partition`] signature of each walk below, taken at the commit
/// before this hash function (Fowler–Noll–Vo 1a over the same writes) — whose
/// fingerprints were those of the commit before absent-when-empty channels
/// (`00f7951`, one cell per channel the topology could use, in seven
/// `BTreeMap`s). These hold today's layout and hasher to the states that
/// layout told apart, and not to a reference that moved with them; a later
/// change of hash function needs no new constants.
const PARENT_PARTITIONS: [(&str, u64); 19] = [
    ("bug-i-host-unreachable-after-moving", 0x3bdcd2da9e777cc3),
    ("bug-ii-delayed-direct-path", 0x8deec62ae64bd137),
    ("bug-ii-fixed", 0x59106a2ff7da25d9),
    ("bug-iii-excess-flooding", 0x3ef625d27f126415),
    ("bug-iv-next-packet-dropped", 0x81b1381600e1d52f),
    ("bug-iv-fixed", 0x142d0ecea03b07c1),
    ("bug-v-packets-dropped-in-transition", 0xf09c22cd3d486b4b),
    ("bug-vi-arp-packets-forgotten", 0xdbc3d333a9f96b01),
    ("bug-vi-fixed", 0x08d515a434b5f634),
    ("bug-vii-duplicate-syn", 0xd49f7078c8694541),
    ("bug-viii-first-packet-dropped", 0x0b7ad0baae9583f9),
    ("bug-viii-fixed", 0xe2e07a41f393b802),
    (
        "bug-ix-intermediate-switch-packets-dropped",
        0xac8eda1090181862,
    ),
    ("bug-x-only-on-demand-routes", 0x460812e70bacbb2f),
    ("bug-x-fixed", 0x1f7f2ac1b7842098),
    ("bug-xi-packets-dropped-on-scale-down", 0x08c92431ec6e0a72),
    ("bug-xii-packet-lost-on-switch-crash", 0xd376b5db1b221ab1),
    ("bug-xii-fixed", 0x9c1e411147bba7ce),
    ("chain-faults:3:1", 0xa7f3e084afa3bfc0),
];

/// What the walks of every shipped scenario saw, walked once for the tests
/// that read it.
struct Walks {
    /// Each walk's name and [`Partition`] signature, in walk order.
    signatures: Vec<(String, u64)>,
    /// The transition kinds the walks executed.
    kinds: BTreeSet<&'static str>,
    /// Every distinct fingerprint the walks saw.
    fingerprints: HashSet<u64>,
}

fn walks() -> &'static Walks {
    static WALKS: OnceLock<Walks> = OnceLock::new();
    WALKS.get_or_init(|| {
        let mut kinds = BTreeSet::new();
        let mut partitions = Vec::new();
        for (index, entry) in registry().iter().enumerate() {
            let partition = walk(&entry.build(), index as u64, 3, 300, &mut kinds);
            partitions.push((entry.name.clone(), partition));
        }

        let chain = resolve("chain-faults:3:1").expect("a chain workload spec");
        let partition = walk(&chain, 100, 12, 300, &mut kinds);
        partitions.push(("chain-faults:3:1".to_string(), partition));
        let fingerprints = (partitions.iter())
            .flat_map(|(_, partition)| partition.first_seen.keys().copied())
            .collect();
        let signatures = (partitions.into_iter())
            .map(|(name, partition)| (name, partition.signature))
            .collect();
        Walks {
            signatures,
            kinds,
            fingerprints,
        }
    })
}

#[test]
fn the_accumulator_never_drifts_from_a_full_rehash() {
    let walks = walks();
    for ((name, signature), (pinned_name, pinned)) in walks.signatures.iter().zip(PARENT_PARTITIONS)
    {
        assert_eq!(name, pinned_name, "the walks run in the pinned order");
        assert_eq!(
            *signature, pinned,
            "{name}: the states split unlike the seven-map layout's ({signature:#018x})"
        );
    }
    assert_eq!(walks.signatures.len(), PARENT_PARTITIONS.len());

    // The walks must have exercised what this suite exists for: every
    // write path into the accumulator, faults and discovery included.
    for kind in [
        "host_send",
        "host_receive",
        "host_move",
        "process_pkt",
        "process_of",
        "ctrl_handle",
        "discover_packets",
        "discover_stats",
        "process_stats",
        "channel_fault",
        "switch_crash",
        "switch_reconnect",
    ] {
        let kinds = &walks.kinds;
        assert!(kinds.contains(kind), "no walk executed a {kind}: {kinds:?}");
    }
}

/// The value a χ² statistic with `dof` degrees of freedom exceeds with
/// probability 0.001 (the Wilson–Hilferty approximation).
fn chi_squared_bound(dof: f64) -> f64 {
    const Z_999: f64 = 3.090_232;
    let t = 2.0 / (9.0 * dof);
    dof * (1.0 - t + Z_999 * t.sqrt()).powi(3)
}

/// Hash compaction assumes uniform fingerprints, and three consumers read
/// three different bytes of them: the explored store's open-addressed
/// table probes on the low bits, its lock shards on bits 48..=55, and the
/// distributed search routes on the top byte.
#[test]
fn every_byte_a_consumer_reads_is_uniform_over_the_walked_states() {
    let fingerprints = &walks().fingerprints;
    let expected = fingerprints.len() as f64 / 256.0;
    assert!(expected >= 5.0, "{} states are too few", fingerprints.len());
    let bound = chi_squared_bound(255.0);
    for (consumer, shift) in [
        ("PackedTable's low byte", 0),
        ("store_shard's bits 48..=55", 48),
        ("shard_of's top byte", 56),
    ] {
        let mut bins = [0u32; 256];
        for fp in fingerprints {
            bins[(fp >> shift) as usize & 0xff] += 1;
        }
        let chi_squared: f64 = (bins.iter())
            .map(|&observed| (observed as f64 - expected).powi(2) / expected)
            .sum();
        assert!(
            chi_squared < bound,
            "{consumer}: χ² {chi_squared:.1} over {} states exceeds {bound:.1}",
            fingerprints.len()
        );
    }
}

/// The property the layout exists for: an 8-switch chain implies 42
/// channels, and its initial state holds a cell for none of them but the
/// ones the controller's `switch_join` replies are queued on.
#[test]
fn an_initial_chain_state_holds_cells_for_its_components_only() {
    let chain = resolve("chain:8:2").expect("a chain workload spec");
    let state = SystemState::initial(&chain);
    assert_no_idle_cell(&state, "chain:8:2");
    assert_eq!(state.cell_count(), 1 + 8 + 2 + state.of_backlog().len());
    assert!(
        state.cell_count() < 53,
        "one cell per implied channel is back"
    );
}

/// A state of `chain:<switches>:2` at most `steps` seeded random
/// transitions from its initial state.
fn chain_state(switches: usize, seed: u64, steps: usize) -> SystemState {
    let scenario = resolve(&format!("chain:{switches}:2")).expect("a chain workload spec");
    let config = CheckerConfig::default();
    let mut state = SystemState::initial(&scenario);
    let mut choices = Choices(seed);
    let (mut memo, mut events) = (DiscoveryMemo::default(), Vec::new());
    for _ in 0..steps {
        let enabled = enabled_transitions(&state, &scenario, &config);
        if enabled.is_empty() {
            break;
        }
        let taken = &enabled[choices.below(enabled.len())];
        execute(
            &mut state,
            taken,
            &scenario,
            &config,
            &mut memo,
            &mut events,
        );
        events.clear();
    }
    state
}

/// `after` is `before` rearranged into a different state: its fingerprint
/// must differ, and be what a full re-hash says.
fn rearranged(what: &str, before: &SystemState, after: &SystemState) -> Result<(), String> {
    prop_assert!(
        after.fingerprint() != before.fingerprint(),
        "{what}: the fingerprint did not change"
    );
    prop_assert!(
        after.fingerprint() == after.reference_fingerprint(),
        "{what}: the accumulator drifted"
    );
    Ok(())
}

/// Empties the ingress channel `at`, returning what it held.
fn drain(state: &mut SystemState, at: (SwitchId, PortId)) -> Vec<Packet> {
    std::iter::from_fn(|| state.ingress_mut(at.0, at.1).pop()).collect()
}

/// Queues `packets` on the ingress channel `at`.
fn fill(state: &mut SystemState, at: (SwitchId, PortId), packets: Vec<Packet>) {
    for packet in packets {
        state.enqueue_ingress(at.0, at.1, packet);
    }
}

proptest! {
    /// The fingerprint XORs one share per slot, so a rearrangement that
    /// keeps the multiset of component digests — two channels swapping
    /// queues, a packet moving between two idle channels, two switches
    /// swapping flow tables — changes it only through each share's mix of
    /// slot and digest.
    #[test]
    fn moving_contents_between_slots_changes_the_fingerprint(
        switches in 2usize..5,
        seed in 0u64..1_000_000,
        steps in 0usize..40,
        pick in any::<u64>(),
    ) {
        let state = chain_state(switches, seed, steps);
        let mut choices = Choices(pick);
        let mut two = |n: usize| {
            let a = choices.below(n);
            (a, (a + 1 + choices.below(n - 1)) % n)
        };
        // A packet no chain host sends, so no queue already equals it.
        let stray = Packet::l2_ping(0, MacAddr::for_host(90), MacAddr::for_host(91), 7);
        let ports: Vec<(SwitchId, PortId)> = (state.switches())
            .flat_map(|(id, sw)| sw.ports.iter().map(move |&port| (id, port)))
            .collect();

        // Two ingress channels swap queues; the stray packet makes them
        // differ.
        let (a, b) = two(ports.len());
        let (a, b) = (ports[a], ports[b]);
        let mut before = state.clone();
        before.enqueue_ingress(a.0, a.1, stray);
        let mut after = before.clone();
        let (queue_a, queue_b) = (drain(&mut after, a), drain(&mut after, b));
        fill(&mut after, a, queue_b);
        fill(&mut after, b, queue_a);
        rearranged("swapped ingress queues", &before, &after)?;

        // The stray packet moves between two idle channels.
        let idle: Vec<_> = (ports.iter().copied())
            .filter(|&(sw, port)| state.ingress(sw, port).is_none())
            .collect();
        if idle.len() >= 2 {
            let (a, b) = two(idle.len());
            let (a, b) = (idle[a], idle[b]);
            let mut before = state.clone();
            before.enqueue_ingress(a.0, a.1, stray);
            let mut after = before.clone();
            let moved = drain(&mut after, a);
            fill(&mut after, b, moved);
            rearranged("a packet moved between idle channels", &before, &after)?;
        }

        // Two switches swap flow tables; a rule no chain controller
        // installs makes them differ.
        let ids: Vec<SwitchId> = state.switches().map(|(id, _)| id).collect();
        let (a, b) = two(ids.len());
        let (a, b) = (ids[a], ids[b]);
        let mut before = state.clone();
        let rule = FlowRule::new(MatchPattern::any(), 7, vec![Action::Drop]);
        before.switch_mut(a).expect("a chain switch").flow_table.add_rule(rule);
        let mut after = before.clone();
        let table_a = after.switch(a).expect("a chain switch").flow_table.clone();
        let table_b = after.switch(b).expect("a chain switch").flow_table.clone();
        after.switch_mut(a).expect("a chain switch").flow_table = table_b;
        after.switch_mut(b).expect("a chain switch").flow_table = table_a;
        rearranged("swapped flow tables", &before, &after)?;
    }
}
