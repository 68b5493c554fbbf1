//! Determinism guarantees of the exploration engine, exercised through the
//! public API on real application scenarios:
//!
//! (a) repeated runs of the same configuration agree bit-for-bit, and
//! (b) the parallel engine visits the same state space as the sequential
//!     one and finds the same set of violated properties (order-insensitive;
//!     traces may differ because workers race to discover states).

use nice::prelude::*;
use nice::scenarios::{bug_scenario, BugId};

fn violated_properties(report: &CheckReport) -> Vec<String> {
    let mut names: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.property.clone())
        .collect();
    names.sort();
    names
}

#[test]
fn repeated_runs_are_identical() {
    let run = || {
        let config = CheckerConfig::default().with_max_transitions(100_000);
        ModelChecker::new(bug_scenario(BugId::BugVIII), config).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.transitions, b.stats.transitions);
    assert_eq!(a.stats.unique_states, b.stats.unique_states);
    assert_eq!(a.stats.max_depth, b.stats.max_depth);
    assert_eq!(
        a.first_violation().map(|v| v.trace.clone()),
        b.first_violation().map(|v| v.trace.clone())
    );
}

/// CI pins NICE_TEST_WORKERS=4 to exercise the parallel engine there.
fn test_workers() -> usize {
    std::env::var("NICE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn random_walk_is_pinned_on_bug_v() {
    // Recorded before the walker, the search and the replayer were moved
    // onto one shared step: sharing it must change nothing.
    let config = CheckerConfig::default().with_stop_at_first(false);
    let report = ModelChecker::new(bug_scenario(BugId::BugV), config).run_random_walk(42, 20, 80);
    assert_eq!(report.stats.transitions, 277);
    assert_eq!(report.stats.unique_states, 192);
    assert_eq!(report.stats.terminal_states, 20);
    assert_eq!(report.stats.max_depth, 18);
    assert_eq!(violated_properties(&report), ["NoForgottenPackets"]);
    let violation = report.first_violation().unwrap();
    assert_eq!(violation.transitions_explored, 277);
    assert_eq!(violation.unique_states, 192);
    let syn =
        "h1 send pkt#0 IP 02:00:00:00:00:01->02:00:00:00:00:01 10.0.0.1:1000->10.0.0.100:1000 SYN";
    assert_eq!(
        violation.trace.labels(),
        [
            "discover_packets(h1)",
            syn,
            syn,
            "s1 process_pkt",
            "s1 process_pkt",
            "ctrl handle msg from s1",
            "s1 process_of",
            "ctrl handle msg from s1",
            "s1 process_of",
            "h2 receive",
            "s1 process_pkt",
            "ctrl handle msg from s1",
            "s1 process_of",
            "h1 receive",
        ]
    );
}

#[test]
fn single_worker_parallel_config_is_the_sequential_engine() {
    // workers = 1 runs the canonical sequential code path: identical
    // statistics and identical violation traces, by construction.
    let config = CheckerConfig::default().with_max_transitions(100_000);
    let sequential = ModelChecker::new(bug_scenario(BugId::BugVIII), config.clone()).run();
    let one_worker = ModelChecker::new(bug_scenario(BugId::BugVIII), config.with_workers(1)).run();
    assert_eq!(sequential.stats.transitions, one_worker.stats.transitions);
    assert_eq!(
        sequential.stats.unique_states,
        one_worker.stats.unique_states
    );
    assert_eq!(
        sequential.first_violation().map(|v| v.trace.clone()),
        one_worker.first_violation().map(|v| v.trace.clone())
    );
}

#[test]
fn parallel_workers_agree_with_sequential_on_a_passing_scenario() {
    // Exhaustive search of a scenario with no violations: state and
    // transition counts must match exactly for any worker count.
    let scenario = || {
        use nice::apps::pyswitch::{PySwitchApp, PySwitchVariant};
        use nice::mc::testutil::ping_scenario_with_app;
        ping_scenario_with_app(Box::new(PySwitchApp::new(PySwitchVariant::Original)), 2)
    };
    let every_violation = CheckerConfig::default().with_stop_at_first(false);
    let sequential = ModelChecker::new(scenario(), every_violation.clone()).run();
    assert!(sequential.passed());
    for workers in [2, 4] {
        let config = every_violation.clone().with_workers(workers);
        let parallel = ModelChecker::new(scenario(), config).run();
        assert!(parallel.passed(), "{workers} workers");
        assert_eq!(
            sequential.stats.unique_states, parallel.stats.unique_states,
            "{workers} workers"
        );
        assert_eq!(
            sequential.stats.transitions, parallel.stats.transitions,
            "{workers} workers"
        );
    }
}

#[test]
fn parallel_workers_find_the_same_violations_order_insensitive() {
    // Collect-all search of a buggy scenario: the set of violated properties
    // is a function of the reachable state space, not the schedule.
    let run = |workers: usize| {
        let config = CheckerConfig::default()
            .with_stop_at_first(false)
            .with_workers(workers)
            .with_max_transitions(100_000);
        ModelChecker::new(bug_scenario(BugId::BugIX), config).run()
    };
    let sequential = run(1);
    let parallel = run(test_workers());
    assert!(!sequential.passed());
    assert!(!parallel.passed());
    assert_eq!(
        violated_properties(&sequential),
        violated_properties(&parallel)
    );
    assert_eq!(sequential.stats.unique_states, parallel.stats.unique_states);
    assert_eq!(sequential.stats.transitions, parallel.stats.transitions);
}
