//! The counterexample debugging toolkit, end to end through the public
//! `nice` crate on the Table 2 scenarios:
//!
//! (a) typed traces round-trip through the `nice-trace-v1` JSON schema, and
//!     replay of the re-parsed trace reproduces the identical violating
//!     fingerprint and verdict (a poor man's property test: every witness
//!     the registry's buggy scenarios produce is a generated case);
//! (b) replay of an emitted trace is bit-deterministic across repeated
//!     runs;
//! (c) `minimize` is sound (same property still violated under replay),
//!     idempotent, never grows, and shrinks the sloppy random-walk
//!     witnesses of BUG-V and fault-dependent BUG-XII by ≥ 40%;
//! (d) `bisect` pins the commitment frontier on BUG-V and BUG-XII, and on
//!     BUG-XII the committing transition is the injected switch crash.

use nice::prelude::*;
use nice::scenarios::find_scenario;

fn checker_for(name: &str, faults: bool) -> ModelChecker {
    let entry = find_scenario(name).expect("scenario is registered");
    ModelChecker::new(
        entry.build(),
        CheckerConfig::default().with_fault_injection(faults),
    )
}

/// The checker used for the sloppy-witness legs: random walks with fault
/// injection on, collecting every violation so the longest (most
/// redundant) witness is available.
fn walk_checker(name: &str) -> ModelChecker {
    let entry = find_scenario(name).expect("scenario is registered");
    ModelChecker::new(
        entry.build(),
        CheckerConfig::default()
            .with_stop_at_first(false)
            .with_fault_injection(true),
    )
}

/// The longest violation trace a seeded random-walk batch produces — the
/// canonical "sloppy witness": valid, violating, and full of steps a human
/// debugger does not care about.
fn sloppy_witness(checker: &ModelChecker) -> Trace {
    let report = checker.run_random_walk(3, 200, 200);
    report
        .violations
        .iter()
        .max_by_key(|v| v.trace.len())
        .expect("the walks find a violation")
        .trace
        .clone()
}

#[test]
fn traces_round_trip_through_json_and_replay_identically() {
    // Every buggy scenario that yields a witness quickly is one test case;
    // BUG-XII runs under fault injection so its crash transition is part of
    // the serialized trace.
    for (name, faults) in [
        ("bug-i-host-unreachable-after-moving", false),
        ("bug-v-packets-dropped-in-transition", false),
        ("bug-v-packets-dropped-in-transition", true),
        ("bug-viii-first-packet-dropped", false),
        ("bug-xii-packet-lost-on-switch-crash", true),
    ] {
        let checker = checker_for(name, faults);
        let report = checker.run();
        let violation = report
            .first_violation()
            .unwrap_or_else(|| panic!("{name} (faults={faults}) must produce a witness"));
        let trace = &violation.trace;

        // JSON round-trip is the identity on the typed representation...
        let json = trace.to_json();
        let parsed = Trace::from_json(&json).expect("emitted JSON parses");
        assert_eq!(&parsed, trace, "{name}: JSON round-trip must be lossless");
        // ...and canonical: serializing again is byte-identical.
        assert_eq!(parsed.to_json(), json, "{name}: to_json must be canonical");

        // Replay of the re-parsed trace reproduces the identical violating
        // fingerprint and verdict.
        let direct = checker.replay(trace);
        let reparsed = checker.replay(&parsed);
        assert!(direct.completed(), "{name}: witness replays cleanly");
        assert!(
            direct.reproduces(trace),
            "{name}: replay reproduces the recorded violation: {direct}"
        );
        assert_eq!(
            direct.final_fingerprint, reparsed.final_fingerprint,
            "{name}"
        );
        assert_eq!(direct.violations, reparsed.violations, "{name}");
        assert_eq!(direct.steps_executed, reparsed.steps_executed, "{name}");
    }
}

#[test]
fn replay_is_bit_deterministic_across_repeated_runs() {
    let checker = checker_for("bug-xii-packet-lost-on-switch-crash", true);
    let report = checker.run();
    let trace = &report.first_violation().expect("witness").trace;
    let json = trace.to_json();
    let baseline = checker.replay(trace);
    for _ in 0..3 {
        let again = checker.replay(&Trace::from_json(&json).expect("parses"));
        assert_eq!(again.final_fingerprint, baseline.final_fingerprint);
        assert_eq!(again.steps_executed, baseline.steps_executed);
        assert_eq!(again.violations, baseline.violations);
        assert_eq!(again.terminal, baseline.terminal);
    }
}

#[test]
fn minimize_shrinks_the_bug_v_walk_witness_by_40_percent() {
    let checker = walk_checker("bug-v-packets-dropped-in-transition");
    let witness = sloppy_witness(&checker);
    let report = checker.minimize(&witness).expect("minimize");

    assert!(report.minimized.len() <= witness.len(), "never grows");
    assert!(
        report.reduction_percent() >= 40.0,
        "expected ≥40% reduction, got {:.0}% ({} -> {})",
        report.reduction_percent(),
        witness.len(),
        report.minimized.len()
    );
    // Soundness: the minimized trace still violates the same property
    // under replay.
    assert_eq!(report.property, "NoForgottenPackets");
    let replay = checker.replay(&report.minimized);
    assert!(replay.completed(), "{replay}");
    assert!(replay.reproduced(&report.property), "{replay}");
    // Idempotence: minimizing the minimum is the identity.
    let again = checker.minimize(&report.minimized).expect("minimize again");
    assert_eq!(again.minimized.steps, report.minimized.steps);
}

#[test]
fn minimize_shrinks_the_bug_xii_fault_witness_by_40_percent() {
    let checker = walk_checker("bug-xii-packet-lost-on-switch-crash");
    let witness = sloppy_witness(&checker);
    let report = checker.minimize(&witness).expect("minimize");

    assert!(report.minimized.len() <= witness.len(), "never grows");
    assert!(
        report.reduction_percent() >= 40.0,
        "expected ≥40% reduction, got {:.0}% ({} -> {})",
        report.reduction_percent(),
        witness.len(),
        report.minimized.len()
    );
    assert_eq!(report.property, "NoAbandonedPackets");
    let replay = checker.replay(&report.minimized);
    assert!(replay.completed(), "{replay}");
    assert!(replay.reproduced(&report.property), "{replay}");
    // The fault transition survives minimization: without the crash there
    // is no violation to keep.
    assert!(
        report
            .minimized
            .steps
            .iter()
            .any(|t| t.fault_counter_index().is_some()),
        "the crash must remain in the minimized trace:\n{}",
        report.minimized
    );
}

#[test]
fn bisect_pins_the_frontier_on_bug_v() {
    let checker = checker_for("bug-v-packets-dropped-in-transition", false);
    let report = checker.run();
    let trace = &report.first_violation().expect("witness").trace;
    let bisect = checker.bisect(trace, 0).expect("bisect");
    assert!(bisect.decided, "unbounded probes must decide");
    let k = bisect.first_unavoidable.expect("frontier");
    assert!(k >= 1, "BUG-V is not doomed from the initial state");
    assert!(k <= trace.len());
    assert!(bisect.culprit.is_some());
    // The frontier is stable across repeated runs (replay determinism).
    let again = checker.bisect(trace, 0).expect("bisect again");
    assert_eq!(again.first_unavoidable, bisect.first_unavoidable);
}

#[test]
fn bisect_blames_the_switch_crash_on_bug_xii() {
    let checker = checker_for("bug-xii-packet-lost-on-switch-crash", true);
    let report = checker.run();
    let trace = &report.first_violation().expect("witness").trace;
    let bisect = checker.bisect(trace, 0).expect("bisect");
    assert!(bisect.decided);
    let k = bisect.first_unavoidable.expect("frontier");
    assert!(k >= 1);
    let culprit = bisect.culprit.expect("culprit");
    assert!(
        culprit.fault_counter_index().is_some(),
        "the committing transition must be the injected fault, got '{culprit}'"
    );
}

#[test]
fn minimized_traces_survive_the_file_round_trip() {
    // What `nice minimize --out` writes is exactly what `nice replay` and
    // `nice timeline` read back.
    let checker = walk_checker("bug-xii-packet-lost-on-switch-crash");
    let witness = sloppy_witness(&checker);
    let minimized = checker.minimize(&witness).expect("minimize").minimized;
    let json = minimized.to_json();
    let parsed = Trace::from_json(&json).expect("parses");
    assert_eq!(parsed, minimized);
    let timeline = render_timeline(&checker, &parsed).expect("timeline");
    assert!(timeline.has_activity(), "lanes must not be empty");
    assert!(
        timeline.violation.is_some(),
        "the violation must be marked:\n{timeline}"
    );
}
