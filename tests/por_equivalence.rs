//! Equivalence of the reduced and unreduced searches, exercised through the
//! public API on the bundled application scenarios.
//!
//! The partial-order reduction must be *transparent*: FullDfs+POR explores a
//! subset of the transitions of FullDfs alone, but reports the same verdict,
//! the same set of violated properties, and a shortest violation trace of
//! the same length (pruned interleavings are commutations, so they cannot
//! shorten a witness). The suite runs every scenario under 1 worker and
//! under `NICE_TEST_WORKERS` (default 4) workers, so CI exercises the sleep
//! sets both in the deterministic sequential engine and in the racy parallel
//! one.

use nice::prelude::*;
use nice::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::chain_ping_workload;

/// Worker count for the parallel legs (CI sets `NICE_TEST_WORKERS=4`).
fn test_workers() -> usize {
    std::env::var("NICE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The pyswitch ping workload stretched over a chain of switches — the
/// exploration-engine benchmark scenario, shared with `benchmark/`.
fn chain_ping_scenario(switches: u32, pings: u32) -> Scenario {
    chain_ping_workload(switches, pings)
}

/// Violated property names, sorted and deduplicated.
fn violated_properties(report: &CheckReport) -> Vec<String> {
    let mut names: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.property.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Length of the shortest violation trace per property.
fn shortest_traces(report: &CheckReport) -> Vec<(String, usize)> {
    let mut out: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for v in &report.violations {
        let entry = out.entry(v.property.clone()).or_insert(usize::MAX);
        *entry = (*entry).min(v.trace.len());
    }
    out.into_iter().collect()
}

fn run(scenario: Scenario, reduction: ReductionKind, workers: usize) -> CheckReport {
    let config = CheckerConfig::default()
        .with_stop_at_first(false)
        .with_reduction(reduction)
        .with_workers(workers);
    ModelChecker::new(scenario, config).run()
}

/// The core equivalence assertion: FullDfs+POR vs FullDfs on one scenario
/// under one worker count. Returns the two reports, unreduced first.
fn assert_equivalent(
    make: impl Fn() -> Scenario,
    workers: usize,
    label: &str,
) -> (CheckReport, CheckReport) {
    let full = run(make(), ReductionKind::None, workers);
    let por = run(make(), ReductionKind::Por, workers);
    assert!(
        !full.stats.truncated && !por.stats.truncated,
        "{label}: equivalence requires exhaustive searches"
    );
    assert_eq!(full.passed(), por.passed(), "{label}: verdicts differ");
    assert_eq!(
        violated_properties(&full),
        violated_properties(&por),
        "{label}: violated property sets differ"
    );
    // Witness lengths are only comparable on the deterministic sequential
    // engine: parallel workers race to claim each state's fingerprint, so
    // the trace recorded for a violating state is whichever path won — a
    // scheduling accident, not the true shortest witness.
    if workers == 1 {
        assert_eq!(
            shortest_traces(&full),
            shortest_traces(&por),
            "{label}: shortest witnesses differ"
        );
    }
    assert!(
        por.stats.transitions <= full.stats.transitions,
        "{label}: POR explored more transitions ({}) than the full search ({})",
        por.stats.transitions,
        full.stats.transitions
    );
    assert_eq!(
        full.stats.terminal_states, por.stats.terminal_states,
        "{label}: terminal coverage differs"
    );
    (full, por)
}

/// (unique states, transitions) of a search.
fn counts(report: &CheckReport) -> (u64, u64) {
    (report.stats.unique_states, report.stats.transitions)
}

/// [`assert_equivalent`] under 1 worker and under [`test_workers`], and the
/// parallel searches against the sequential ones. Unreduced, the counts are
/// a function of the state space. Under POR, parallel workers race to store
/// a state's sleep set and whoever loses re-expands it under the
/// intersection, so the transition count follows the schedule; the states
/// found do not. Returns the sequential reports.
fn assert_equivalent_under_one_and_many_workers(
    make: impl Fn() -> Scenario,
    label: &str,
) -> (CheckReport, CheckReport) {
    let (full, por) = assert_equivalent(&make, 1, &format!("{label} x1"));
    let workers = test_workers();
    let (parallel_full, parallel_por) =
        assert_equivalent(&make, workers, &format!("{label} x{workers}"));
    assert_eq!(
        counts(&parallel_full),
        counts(&full),
        "{label}: {workers} workers and one explore different spaces"
    );
    assert_eq!(
        parallel_por.stats.unique_states, por.stats.unique_states,
        "{label}: POR under {workers} workers and sequential POR find different states"
    );
    (full, por)
}

#[test]
fn pyswitch_chain_equivalence_under_one_and_many_workers() {
    assert_equivalent_under_one_and_many_workers(|| chain_ping_scenario(5, 2), "pyswitch-chain");
}

#[test]
fn pyswitch_chain_reduction_meets_the_thirty_percent_bar() {
    let full = run(chain_ping_scenario(5, 2), ReductionKind::None, 1);
    let por = run(chain_ping_scenario(5, 2), ReductionKind::Por, 1);
    assert_eq!(full.stats.transitions, 11044, "baseline moved; update docs");
    let reduction = 1.0 - por.stats.transitions as f64 / full.stats.transitions as f64;
    assert!(
        reduction >= 0.30,
        "POR must prune >=30% of the chain transitions, got {:.1}% ({} vs {})",
        reduction * 100.0,
        por.stats.transitions,
        full.stats.transitions
    );
    assert!(por.stats.pruned_by_por > 0);
}

#[test]
fn load_balancer_bug_v_equivalence() {
    let (full, por) =
        assert_equivalent_under_one_and_many_workers(|| bug_scenario(BugId::BugV), "bug-v");
    assert_eq!(counts(&full), (1367, 2569), "unreduced BUG-V moved");
    assert_eq!(counts(&por), (1367, 1975), "BUG-V under POR moved");
}

#[test]
fn energyte_equivalence() {
    assert_equivalent_under_one_and_many_workers(|| bug_scenario(BugId::BugXI), "energyte-bug-xi");
}

#[test]
fn por_composes_with_heuristic_strategies() {
    // The heuristic strategies are themselves unsound-by-design filters, so
    // POR on top is only required to stay within each strategy's space and
    // keep its verdict on the bundled pass/fail scenarios.
    for strategy in [
        StrategyKind::NoDelay,
        StrategyKind::FlowIr,
        StrategyKind::Unusual,
    ] {
        let config = CheckerConfig::default()
            .with_stop_at_first(false)
            .with_strategy(strategy);
        let base = ModelChecker::new(chain_ping_scenario(4, 2), config.clone()).run();
        let reduced = ModelChecker::new(
            chain_ping_scenario(4, 2),
            config.with_reduction(ReductionKind::Por),
        )
        .run();
        assert_eq!(base.passed(), reduced.passed(), "{strategy:?}");
        assert!(
            reduced.stats.transitions <= base.stats.transitions,
            "{strategy:?}: {} vs {}",
            reduced.stats.transitions,
            base.stats.transitions
        );
    }
}

/// Every resource a footprint names has a bit in its scenario's layout: a
/// footprint rule that reached outside it (a port the topology lacks, a host
/// nobody declared) would panic a debug build (`debug_assert!` in
/// `nice_mc::por`) and saturate the write set in a release build, where it
/// costs pruning instead of soundness. Walks every shipped scenario, a long
/// chain and the chain under its fault plan with fault injection on, and
/// takes the footprint of *every* enabled transition of every state on the
/// way.
#[test]
fn every_footprint_along_a_random_walk_lands_inside_the_layout() {
    use nice::apps::workloads::resolve;
    use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
    use nice::mc::SystemState;
    use nice::scenarios::registry;
    use std::collections::BTreeSet;

    let mut scenarios: Vec<Scenario> = registry().iter().map(|entry| entry.build()).collect();
    assert!(scenarios.iter().any(|s| s.name.starts_with("bug-xii")));
    for spec in ["chain:8:2", "chain-faults:3:1"] {
        scenarios.push(resolve(spec).expect("a chain workload spec"));
    }
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut kinds = BTreeSet::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        // SplitMix64, seeded per scenario.
        let mut seed = index as u64;
        let mut below = move |n: usize| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut memo = DiscoveryMemo::default();
        let mut events = Vec::new();
        let mut state = SystemState::initial(scenario);
        for step in 0..2_000 {
            let enabled = enabled_transitions(&state, scenario, &config);
            if enabled.is_empty() {
                state = SystemState::initial(scenario);
                continue;
            }
            for t in &enabled {
                let fp = t.footprint(&state, scenario);
                let written = fp.writes().len();
                assert!(
                    (1..64).contains(&written),
                    "{}, step {step}: {t} writes {written} resources: {fp:?}",
                    scenario.name
                );
                kinds.insert(t.kind());
            }
            let taken = &enabled[below(enabled.len())];
            events.clear();
            execute(&mut state, taken, scenario, &config, &mut memo, &mut events);
        }
    }
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
        assert!(kinds.contains(kind), "no walk enabled a {kind}: {kinds:?}");
    }
}
