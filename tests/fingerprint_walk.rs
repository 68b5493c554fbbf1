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

use nice::apps::workloads::resolve;
use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice::mc::{FailoverStaleness, FaultPlan, SystemState, Transition};
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

/// Walks `scenario` `walks` times for at most `max_steps` transitions,
/// checking every state reached, and records which transition kinds ran.
fn walk(
    scenario: &Scenario,
    seed: u64,
    walks: u32,
    max_steps: usize,
    kinds: &mut BTreeSet<&'static str>,
) {
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut choices = Choices(seed);
    let mut memo = DiscoveryMemo::default();
    let mut events = Vec::new();
    let name = scenario.name.as_str();
    for _ in 0..walks {
        let mut state = SystemState::initial(scenario);
        assert_eq!(state.fingerprint(), state.reference_fingerprint(), "{name}");
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
            assert_eq!(state.clone().fingerprint(), state.fingerprint(), "{name}");

            // The clone diverges; what it writes must not reach the state it
            // was cloned from, and the other way round.
            let other = &enabled[choices.below(enabled.len())];
            events.clear();
            execute(&mut fork, other, scenario, &config, &mut memo, &mut events);
            assert_exact(&fork, "the diverging clone", name, step, other);
            assert_exact(&state, "the state cloned from", name, step, other);
        }
    }
}

#[test]
fn the_accumulator_never_drifts_from_a_full_rehash() {
    let mut kinds = BTreeSet::new();
    for (index, entry) in registry().iter().enumerate() {
        walk(&entry.build(), index as u64, 3, 300, &mut kinds);
    }

    let chain = resolve("chain-faults:3:1").expect("a chain workload spec");
    walk(&chain, 100, 12, 300, &mut kinds);
    // The shipped plan has no controller failover and no OpenFlow message
    // mutation; a second plan runs those.
    for (seed, staleness) in [
        (200, FailoverStaleness::Cold),
        (300, FailoverStaleness::Warm),
    ] {
        let plan = FaultPlan::of_mutations(3).with_failover(staleness);
        let scenario = chain.clone().with_fault_plan(plan);
        walk(&scenario, seed, 12, 300, &mut kinds);
    }

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
