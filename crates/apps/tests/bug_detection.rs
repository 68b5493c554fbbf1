//! Integration tests: every Table 2 bug is detected by at least the full
//! (PKT-SEQ) search within a modest transition budget, the violated property
//! matches the paper, and the available fixes eliminate the violations.

use nice_apps::scenarios::{bug_scenario, fixed_scenario, registry, BugId, ScenarioKind};
use nice_mc::{CheckerConfig, ModelChecker, StrategyKind};

fn detect(bug: BugId, strategy: StrategyKind, budget: u64) -> Option<String> {
    let report = ModelChecker::new(
        bug_scenario(bug),
        CheckerConfig::default()
            .with_strategy(strategy)
            .with_max_transitions(budget),
    )
    .run();
    report.first_violation().map(|v| v.property.clone())
}

#[test]
fn cheap_bugs_are_detected_with_the_expected_property() {
    // The quick-to-find bugs (small traces in Table 2).
    for bug in [
        BugId::BugIII,
        BugId::BugIV,
        BugId::BugVI,
        BugId::BugVIII,
        BugId::BugIX,
    ] {
        let property = detect(bug, StrategyKind::FullDfs, 200_000)
            .unwrap_or_else(|| panic!("{bug:?} was not detected"));
        assert_eq!(property, bug.property_name(), "{bug:?}");
    }
}

#[test]
fn bug_ii_violates_strict_direct_paths() {
    let property = detect(BugId::BugII, StrategyKind::FullDfs, 500_000).expect("BUG-II not found");
    assert_eq!(property, "StrictDirectPaths");
}

#[test]
fn bug_v_and_vii_are_found_in_the_load_balancer() {
    let property = detect(BugId::BugV, StrategyKind::FullDfs, 500_000).expect("BUG-V not found");
    assert_eq!(property, "NoForgottenPackets");
    let property =
        detect(BugId::BugVII, StrategyKind::FullDfs, 500_000).expect("BUG-VII not found");
    assert_eq!(property, "FlowAffinity");
}

#[test]
fn bug_x_violates_use_correct_routing_table() {
    let property = detect(BugId::BugX, StrategyKind::FullDfs, 500_000).expect("BUG-X not found");
    assert_eq!(property, "UseCorrectRoutingTable");
}

#[test]
fn unusual_strategy_finds_the_race_condition_bugs() {
    for bug in [BugId::BugIX, BugId::BugXI] {
        let property = detect(bug, StrategyKind::Unusual, 500_000)
            .unwrap_or_else(|| panic!("{bug:?} was not detected by UNUSUAL"));
        assert_eq!(property, bug.property_name(), "{bug:?}");
    }
}

#[test]
fn no_delay_misses_the_rule_installation_race() {
    // NO-DELAY treats rule installation as atomic, so BUG-IX (a packet
    // overtaking its rule at an intermediate switch) cannot manifest — the
    // false-negative behaviour the paper reports for this class of bugs.
    assert_eq!(detect(BugId::BugIX, StrategyKind::NoDelay, 200_000), None);
}

#[test]
fn fixed_variants_pass() {
    // Driven by the registry rather than a hand-kept list, so a new fixed
    // scenario is automatically covered (and `fixed_scenario` stays in sync
    // with the registry's Fixed entries).
    let fixed: Vec<_> = registry()
        .into_iter()
        .filter(|e| e.kind == ScenarioKind::Fixed)
        .collect();
    assert!(fixed.len() >= 5, "the five published fixes are registered");
    for entry in fixed {
        assert!(fixed_scenario(entry.bug).is_some(), "{:?}", entry.bug);
        let report = ModelChecker::new(
            entry.build(),
            CheckerConfig::default().with_max_transitions(500_000),
        )
        .run();
        assert!(
            report.passed(),
            "fix '{}' still violates {}: {report}",
            entry.name,
            entry.property()
        );
        assert!(
            !report.stats.truncated,
            "{}: the budget must suffice",
            entry.name
        );
    }
}

#[test]
fn registry_bug_entries_detect_their_expected_violation_via_sessions() {
    // The registry's cheap bug entries, checked through the session API:
    // the streamed ViolationFound events and the final report agree, and
    // the violated property is the one the entry advertises.
    use nice_mc::{CheckEvent, CheckObserver};

    #[derive(Default)]
    struct FirstViolation(Option<String>);
    impl CheckObserver for FirstViolation {
        fn on_event(&mut self, event: &CheckEvent) {
            if let CheckEvent::ViolationFound(v) = event {
                self.0.get_or_insert_with(|| v.property.clone());
            }
        }
    }

    for bug in [BugId::BugIV, BugId::BugVIII] {
        let entry = registry()
            .into_iter()
            .find(|e| e.bug == bug && e.kind == ScenarioKind::Buggy)
            .expect("every bug has a registry entry");
        let checker = ModelChecker::new(
            entry.build(),
            CheckerConfig::default().with_max_transitions(200_000),
        );
        let mut observer = FirstViolation::default();
        let report = checker.session().run_with(&mut observer);
        assert!(!report.violations.is_empty(), "{bug:?}");
        assert_eq!(
            observer.0.as_deref(),
            entry.expected_violation,
            "{bug:?}: streamed violation matches the registry expectation"
        );
    }
}
