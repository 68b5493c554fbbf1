//! The session-based checking API, exercised end to end through the public
//! `nice` crate on the bench workloads (the pyswitch chain and the
//! load-balancer BUG-V scenario):
//!
//! (a) `ModelChecker::run()` is a thin wrapper over a session with a no-op
//!     observer — reports agree bit-for-bit under 1 worker, and on every
//!     deterministic metric under many workers;
//! (b) sessions stream `Started`/`Progress`/`ViolationFound`/`Finished`
//!     events consistent with the final report;
//! (c) a `CancelToken` fired mid-search stops every worker and yields
//!     `Outcome::Interrupted` with the partial statistics gathered so far;
//! (d) a deadline of zero interrupts immediately — no worker hangs.

use nice::prelude::*;
use nice::scenarios::{find_scenario, registry};
use nice_apps::workloads::chain_ping_workload;
use std::time::{Duration, Instant};

/// Worker count for the parallel legs (CI sets `NICE_TEST_WORKERS=4`).
fn test_workers() -> usize {
    std::env::var("NICE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn chain_scenario() -> Scenario {
    chain_ping_workload(5, 2)
}

fn bug_v_scenario() -> Scenario {
    find_scenario("bug-v-packets-dropped-in-transition")
        .expect("BUG-V is registered")
        .build()
}

fn checker(scenario: Scenario, workers: usize) -> ModelChecker {
    let config = CheckerConfig::default()
        .with_stop_at_first(false)
        .with_workers(workers);
    ModelChecker::new(scenario, config)
}

/// (property, trace) pairs, sorted — the full violation identity.
fn violation_set(report: &CheckReport) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = report
        .violations
        .iter()
        .map(|v| (v.property.clone(), v.trace.labels()))
        .collect();
    out.sort();
    out
}

#[test]
fn run_is_bit_identical_to_a_noop_session_sequentially() {
    for scenario in [chain_scenario, bug_v_scenario] {
        let direct = checker(scenario(), 1).run();
        let session = checker(scenario(), 1).session().run_with(&mut NoopObserver);
        assert_eq!(direct.stats.transitions, session.stats.transitions);
        assert_eq!(direct.stats.unique_states, session.stats.unique_states);
        assert_eq!(direct.stats.terminal_states, session.stats.terminal_states);
        assert_eq!(direct.stats.max_depth, session.stats.max_depth);
        assert_eq!(
            direct.stats.pruned_by_strategy,
            session.stats.pruned_by_strategy
        );
        assert_eq!(direct.stats.pruned_by_por, session.stats.pruned_by_por);
        assert_eq!(direct.stats.dedup_hits, session.stats.dedup_hits);
        assert_eq!(direct.stats.truncated, session.stats.truncated);
        assert_eq!(violation_set(&direct), violation_set(&session));
        assert_eq!(direct.outcome, Outcome::Completed);
        assert_eq!(session.outcome, Outcome::Completed);
    }
}

#[test]
fn run_matches_a_noop_session_under_many_workers() {
    // The parallel engine is deterministic in its fingerprint counts and
    // violated-property sets (traces race), so those are what the wrapper
    // must preserve.
    let workers = test_workers();
    for scenario in [chain_scenario, bug_v_scenario] {
        let direct = checker(scenario(), workers).run();
        let session = checker(scenario(), workers)
            .session()
            .run_with(&mut NoopObserver);
        assert_eq!(direct.stats.transitions, session.stats.transitions);
        assert_eq!(direct.stats.unique_states, session.stats.unique_states);
        assert_eq!(direct.stats.terminal_states, session.stats.terminal_states);
        assert_eq!(direct.stats.dedup_hits, session.stats.dedup_hits);
        let properties = |r: &CheckReport| {
            let mut names: Vec<String> = r.violations.iter().map(|v| v.property.clone()).collect();
            names.sort();
            names
        };
        assert_eq!(properties(&direct), properties(&session));
        assert_eq!(session.outcome, Outcome::Completed);
    }
}

#[test]
fn session_events_are_consistent_with_the_final_report() {
    struct Recorder {
        started: u32,
        finished: u32,
        progress: u32,
        violations: Vec<String>,
        last_transitions: u64,
    }
    impl CheckObserver for Recorder {
        fn on_event(&mut self, event: &CheckEvent) {
            match event {
                CheckEvent::Started {
                    scenario, workers, ..
                } => {
                    assert!(scenario.starts_with("bug-v"));
                    assert_eq!(*workers, 1);
                    self.started += 1;
                }
                CheckEvent::Progress {
                    transitions, rate, ..
                } => {
                    assert!(*transitions >= self.last_transitions);
                    assert!(*rate >= 0.0);
                    self.last_transitions = *transitions;
                    self.progress += 1;
                }
                CheckEvent::ViolationFound(v) => self.violations.push(v.property.clone()),
                CheckEvent::Finished(report) => {
                    self.finished += 1;
                    assert_eq!(report.violations.len(), self.violations.len());
                }
            }
        }
    }

    let mut recorder = Recorder {
        started: 0,
        finished: 0,
        progress: 0,
        violations: Vec::new(),
        last_transitions: 0,
    };
    let report = checker(bug_v_scenario(), 1)
        .session()
        .with_progress_every(100)
        .run_with(&mut recorder);
    assert_eq!(recorder.started, 1);
    assert_eq!(recorder.finished, 1);
    assert!(recorder.progress >= 1, "BUG-V explores >100 transitions");
    assert_eq!(recorder.violations.len(), report.violations.len());
    assert!(!report.violations.is_empty());
}

#[test]
fn cancel_token_stops_all_workers_with_partial_stats() {
    let full = checker(chain_scenario(), 1).run();
    for workers in [1, test_workers()] {
        let mc = checker(chain_scenario(), workers);
        let session = mc.session().with_progress_every(50);
        let token = session.cancel_token();
        let report = session.run_with(&mut move |event: &CheckEvent| {
            // Fire mid-search, from inside the event stream: the first
            // progress report arrives ~50 transitions in, well before the
            // chain's >10k-transition space is exhausted.
            if matches!(event, CheckEvent::Progress { .. }) {
                token.cancel();
            }
        });
        assert_eq!(
            report.outcome,
            Outcome::Interrupted(InterruptReason::Cancelled),
            "{workers} workers"
        );
        assert!(
            report.stats.transitions > 0,
            "{workers} workers: partial stats are reported"
        );
        assert!(
            report.stats.transitions < full.stats.transitions,
            "{workers} workers: cancellation must cut the search short \
             ({} vs {})",
            report.stats.transitions,
            full.stats.transitions
        );
    }
}

#[test]
fn zero_deadline_interrupts_without_hanging_any_worker() {
    for workers in [1, test_workers()] {
        let start = Instant::now();
        let report = checker(chain_scenario(), workers)
            .session()
            .with_time_budget(Duration::ZERO)
            .run();
        assert_eq!(
            report.outcome,
            Outcome::Interrupted(InterruptReason::DeadlineExceeded),
            "{workers} workers"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{workers} workers: the zero-deadline run must return promptly"
        );
        // Nothing violated, but nothing decided either: not a PASS.
        assert!(report.violations.is_empty(), "{workers} workers");
        assert_eq!(report.verdict(), Verdict::Inconclusive, "{workers} workers");
        assert!(!report.passed(), "{workers} workers");
    }
}

#[test]
fn deadline_in_the_far_future_changes_nothing() {
    let plain = checker(bug_v_scenario(), 1).run();
    let bounded = checker(bug_v_scenario(), 1)
        .session()
        .with_deadline(Instant::now() + Duration::from_secs(3600))
        .run();
    assert_eq!(plain.stats.transitions, bounded.stats.transitions);
    assert_eq!(plain.stats.unique_states, bounded.stats.unique_states);
    assert_eq!(violation_set(&plain), violation_set(&bounded));
    assert_eq!(bounded.outcome, Outcome::Completed);
}

#[test]
fn report_text_distinguishes_outcomes() {
    // Exhausted search.
    let report = checker(bug_v_scenario(), 1).run();
    assert!(report.to_string().contains("outcome: exhausted"));
    // Budget-truncated search (completed, but cut by max_transitions).
    let config = CheckerConfig::default().with_max_transitions(5);
    let truncated = ModelChecker::new(chain_scenario(), config).run();
    assert!(truncated.stats.truncated);
    assert!(truncated.to_string().contains("outcome: budget-truncated"));
    // Interrupted search.
    let interrupted = checker(chain_scenario(), 1)
        .session()
        .with_time_budget(Duration::ZERO)
        .run();
    assert!(interrupted
        .to_string()
        .contains("outcome: interrupted-by-deadline"));
}

#[test]
fn registry_is_reachable_through_the_public_api() {
    let entries = registry();
    assert!(entries.len() >= 16, "11 bugs + 5 fixes");
    for entry in &entries {
        assert_eq!(
            find_scenario(&entry.name).map(|e| e.name),
            Some(entry.name.clone())
        );
    }
}
