//! Cross-crate integration tests: the full pipeline (topology → controller
//! application → symbolic discovery → model checking → violation traces)
//! exercised through the public `nice` API.

use nice::prelude::*;
use nice::scenarios::{bug_scenario, fixed_scenario, BugId};

#[test]
fn quickstart_pipeline_finds_bug_ii_and_fix_passes() {
    let config = CheckerConfig::default().with_max_transitions(300_000);
    let report = ModelChecker::new(bug_scenario(BugId::BugII), config.clone()).run();
    assert!(!report.violations.is_empty());
    let violation = report.first_violation().unwrap();
    assert_eq!(violation.property, "StrictDirectPaths");
    assert!(violation.trace.len() >= 3, "a meaningful trace is reported");

    let fixed = ModelChecker::new(fixed_scenario(BugId::BugII).unwrap(), config).run();
    assert!(fixed.passed(), "{fixed}");
}

#[test]
fn violation_traces_replay_deterministically() {
    // Running the same configuration twice yields identical statistics and
    // identical traces — the determinism the paper relies on to reproduce
    // violations.
    let run = || {
        let config = CheckerConfig::default().with_max_transitions(100_000);
        ModelChecker::new(bug_scenario(BugId::BugVIII), config).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.transitions, b.stats.transitions);
    assert_eq!(a.stats.unique_states, b.stats.unique_states);
    assert_eq!(
        a.first_violation().map(|v| v.trace.clone()),
        b.first_violation().map(|v| v.trace.clone())
    );
}

#[test]
fn strategies_shrink_the_ping_workload_state_space() {
    // Build the Section 7 ping workload through the public API and verify the
    // headline claim: the heuristic strategies explore no more transitions
    // than the full search.
    use nice::apps::pyswitch::{PySwitchApp, PySwitchVariant};
    use nice::mc::testutil::ping_scenario_with_app;

    let scenario = || {
        let mut s =
            ping_scenario_with_app(Box::new(PySwitchApp::new(PySwitchVariant::Original)), 2);
        s.properties.clear(); // pure state-space measurement
        s
    };
    let every_violation = CheckerConfig::default().with_stop_at_first(false);
    let full = ModelChecker::new(scenario(), every_violation.clone()).run();
    for strategy in [
        StrategyKind::NoDelay,
        StrategyKind::FlowIr,
        StrategyKind::Unusual,
    ] {
        let config = every_violation.clone().with_strategy(strategy);
        let reduced = ModelChecker::new(scenario(), config).run();
        assert!(
            reduced.stats.transitions <= full.stats.transitions,
            "{strategy:?}: {} > {}",
            reduced.stats.transitions,
            full.stats.transitions
        );
    }
}

#[test]
fn symbolic_discovery_feeds_the_search_through_the_public_api() {
    // The load-balancer scenarios rely on discover_packets to generate ARP
    // and TCP packet classes; a successful BUG-VI detection implies the
    // whole MC + SE pipeline worked.
    let config = CheckerConfig::default().with_max_transitions(200_000);
    let report = ModelChecker::new(bug_scenario(BugId::BugVI), config).run();
    assert!(!report.violations.is_empty());
    assert_eq!(
        report.first_violation().unwrap().property,
        "NoForgottenPackets"
    );
    assert!(report.stats.symbolic_executions >= 1);
}
