//! The state fingerprint is kept incrementally: an accumulator inside
//! `SystemState` that every write to a component updates (see the
//! `nice_mc::state` module docs). This suite fails if that accumulator ever
//! drifts from what a full re-hash of the state yields.
//!
//! Seeded random walks over every scenario NICE ships, plus the chain
//! workload under its fault plan and under a wider one, with fault injection
//! on. After *every* transition, on the stepped state and on a clone that
//! then takes a different transition, `fingerprint()` must equal
//! `reference_fingerprint()`, which reads no cached digest and no
//! accumulator. The walks step states that were never settled (writes pile
//! up across steps) as well as fresh clones (settled), so both ways of
//! arriving at a fingerprint are held to the reference.
//!
//! The reference was rewritten together with the layout it re-hashes (a
//! channel that is idle has no cell, and still a share of the fingerprint),
//! so the same walks are also held to what they produced *before* that:
//! [`PARENT_STREAMS`]. And they hold the layout itself to its invariant: an
//! initial state and every clone carry a cell per component and per channel
//! that holds something, and no other.

use nice::apps::workloads::resolve;
use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice::mc::{FailoverStaleness, FaultPlan, SystemState, Transition};
use nice::openflow::{FifoChannel, Fnv64};
use nice::prelude::*;
use nice::scenarios::registry;
use std::collections::BTreeSet;

/// SplitMix64: a seeded stream of choices without a dependency.
struct Choices(u64);

impl Choices {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
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
        for &port in &switch.ports {
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
/// Returns a digest of every fingerprint the walks saw, in order.
fn walk(
    scenario: &Scenario,
    seed: u64,
    walks: u32,
    max_steps: usize,
    kinds: &mut BTreeSet<&'static str>,
) -> u64 {
    let mut stream = Fnv64::new();
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut choices = Choices(seed);
    let mut memo = DiscoveryMemo::default();
    let mut events = Vec::new();
    let name = scenario.name.as_str();
    for _ in 0..walks {
        let mut state = SystemState::initial(scenario);
        assert_eq!(state.fingerprint(), state.reference_fingerprint(), "{name}");
        assert_no_idle_cell(&state, name);
        stream.write_u64(state.fingerprint());
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
            stream.write_u64(state.fingerprint());
            stream.write_u64(fork.fingerprint());
        }
    }
    stream.finish()
}

/// What [`walk`] returned for each walk of the test below at the commit
/// before absent-when-empty channels (`00f7951`, one cell per channel the
/// topology could use, in seven `BTreeMap`s): the reference there re-hashed
/// the cells that layout held, so these hold today's layout to that one's
/// values and not to a reference that moved with it.
const PARENT_STREAMS: [(&str, u64); 21] = [
    ("bug-i-host-unreachable-after-moving", 0x6f8db9d1df1b9da3),
    ("bug-ii-delayed-direct-path", 0x5e1d013968004e9c),
    ("bug-ii-fixed", 0xcf0abf6446b0f4b6),
    ("bug-iii-excess-flooding", 0x4995a90180082198),
    ("bug-iv-next-packet-dropped", 0x2a30a743bf21558b),
    ("bug-iv-fixed", 0xccce3ee4052cacbd),
    ("bug-v-packets-dropped-in-transition", 0xa58c2ecaa0cad39e),
    ("bug-vi-arp-packets-forgotten", 0xa12ce79b9ae210d0),
    ("bug-vi-fixed", 0x354fa181ed104ea5),
    ("bug-vii-duplicate-syn", 0x0211718665f31458),
    ("bug-viii-first-packet-dropped", 0x35f03a53b7dec76a),
    ("bug-viii-fixed", 0xfaec09f58f17d5fb),
    (
        "bug-ix-intermediate-switch-packets-dropped",
        0x4d88cc201622d41c,
    ),
    ("bug-x-only-on-demand-routes", 0x8cffa3d6bd5cccb9),
    ("bug-x-fixed", 0xfb6bebe3baade978),
    ("bug-xi-packets-dropped-on-scale-down", 0x6aae393412b661a8),
    ("bug-xii-packet-lost-on-switch-crash", 0xa053279d29cb6aaa),
    ("bug-xii-fixed", 0xe1930d97abdbcccf),
    ("chain-faults:3:1", 0x0edcfb6d29d8c3e2),
    ("chain:3:1 of_mutations Cold", 0x48f1413149d41633),
    ("chain:3:1 of_mutations Warm", 0x0cb5b8f65cc03819),
];

#[test]
fn the_accumulator_never_drifts_from_a_full_rehash() {
    let mut kinds = BTreeSet::new();
    let mut streams = Vec::new();
    for (index, entry) in registry().iter().enumerate() {
        let stream = walk(&entry.build(), index as u64, 3, 300, &mut kinds);
        streams.push((entry.name.clone(), stream));
    }

    let chain = resolve("chain-faults:3:1").expect("a chain workload spec");
    let stream = walk(&chain, 100, 12, 300, &mut kinds);
    streams.push(("chain-faults:3:1".to_string(), stream));
    // The shipped plan has no controller failover and no OpenFlow message
    // mutation; a second plan runs those.
    for (seed, staleness) in [
        (200, FailoverStaleness::Cold),
        (300, FailoverStaleness::Warm),
    ] {
        let plan = FaultPlan::of_mutations(3).with_failover(staleness);
        let scenario = chain.clone().with_fault_plan(plan);
        let stream = walk(&scenario, seed, 12, 300, &mut kinds);
        streams.push((format!("chain:3:1 of_mutations {staleness:?}"), stream));
    }
    for ((name, stream), (pinned_name, pinned)) in streams.iter().zip(PARENT_STREAMS) {
        assert_eq!(name, pinned_name, "the walks run in the pinned order");
        assert_eq!(
            *stream, pinned,
            "{name}: the fingerprints differ from the seven-map layout's ({stream:#018x})"
        );
    }
    assert_eq!(streams.len(), PARENT_STREAMS.len());

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
        "ctrl_failover",
        "mutate_of",
    ] {
        assert!(kinds.contains(kind), "no walk executed a {kind}: {kinds:?}");
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
