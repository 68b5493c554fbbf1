//! Served-checking equivalence: a job the coordinator runs on its worker
//! process must agree with the in-process sequential engine.
//!
//! The worker runs the job whole, in one `ModelChecker::session()`, so its
//! counters equal the sequential run's *exactly* — not just the verdict —
//! and the stops are the worker's own: its transition budget truncates the
//! search, `stop_at_first_violation` ends it at the sequential engine's
//! first violation, and its deadline interrupts it. The coordinator relays
//! the worker's frames; a served report here is read from the final
//! `job_done` the way `nice submit` reads it. A killed worker is respawned
//! and the job restarted from the root, so every counter stays exact, and
//! two coordinators running side by side do not interfere.
//!
//! Every test serializes on one mutex: the coordinator spawns worker child
//! processes, and the crash test scopes the `NICE_DIST_DIE_AFTER`
//! environment variable, which must not leak into concurrent spawns.

use nice_dist::{Coordinator, Frame, JobSpec, DIE_AFTER_ENV, WORKER_BIN_ENV};
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, ReplayOutcome, Verdict};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::Duration;

/// The worker binary cargo built for this test target.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_nice-dist-worker"))
}

/// One coordinator (and its worker processes) at a time, and a fence around
/// the crash test's environment variable.
static DIST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    DIST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spec exploring the full space: every violation, no budgets.
fn full_spec(scenario: &str, inject_faults: bool) -> JobSpec {
    JobSpec {
        config: CheckerConfig::default()
            .with_fault_injection(inject_faults)
            .with_stop_at_first(false)
            .with_max_transitions(0),
        ..JobSpec::new(scenario)
    }
}

fn sequential(spec: &JobSpec) -> CheckReport {
    let scenario = nice_apps::workloads::resolve(&spec.scenario).expect("known scenario spec");
    ModelChecker::new(scenario, spec.config.clone()).run()
}

/// Runs `spec` on `coordinator`, calling `on_frame` with every frame it
/// relays, and reads the final `job_done` as `nice submit` does. Returns the
/// report and the worker's restart count.
fn run(
    coordinator: &mut Coordinator,
    spec: &JobSpec,
    mut on_frame: impl FnMut(&Frame),
    cancel: Option<&AtomicBool>,
) -> io::Result<(CheckReport, u32)> {
    let mut last = None;
    let restarts = coordinator.run_job(
        1,
        spec,
        |frame| {
            on_frame(&frame);
            last = Some(frame);
        },
        cancel,
    )?;
    match last {
        Some(Frame::JobDone {
            job: 1,
            stats,
            violations,
        }) => Ok((spec.report(stats, violations), restarts)),
        other => panic!("the last frame relayed is not job 1's job_done: {other:?}"),
    }
}

fn served(spec: &JobSpec) -> CheckReport {
    let mut coordinator = Coordinator::new(worker_bin()).expect("spawn the worker");
    let (report, _) = run(&mut coordinator, spec, |_| {}, None).expect("served job completes");
    report
}

/// The sorted, deduplicated `(property, message)` set — the verdict
/// content, independent of discovery order.
fn violation_set(report: &CheckReport) -> Vec<(String, String)> {
    let mut set: Vec<(String, String)> = report
        .violations
        .iter()
        .map(|v| (v.property.clone(), v.message.clone()))
        .collect();
    set.sort();
    set.dedup();
    set
}

fn assert_same_verdict(seq: &CheckReport, dist: &CheckReport, label: &str) {
    assert_eq!(
        seq.passed(),
        dist.passed(),
        "{label}: verdicts disagree (sequential passed={}, served passed={})",
        seq.passed(),
        dist.passed()
    );
    assert_eq!(
        violation_set(seq),
        violation_set(dist),
        "{label}: violation sets disagree"
    );
    assert_eq!(seq.verdict(), dist.verdict(), "{label}: verdict");
}

/// A served job's counters are the sequential engine's exactly.
fn assert_exact_counters(seq: &CheckReport, dist: &CheckReport, label: &str) {
    assert_eq!(
        seq.stats.transitions, dist.stats.transitions,
        "{label}: transitions"
    );
    assert_eq!(
        seq.stats.unique_states, dist.stats.unique_states,
        "{label}: unique states"
    );
    assert_eq!(
        seq.stats.terminal_states, dist.stats.terminal_states,
        "{label}: terminal states"
    );
    assert_eq!(
        seq.stats.dedup_hits, dist.stats.dedup_hits,
        "{label}: dedup hits"
    );
    assert_eq!(
        seq.stats.truncated, dist.stats.truncated,
        "{label}: truncated flag"
    );
}

#[test]
fn single_worker_run_matches_the_sequential_engine_exactly() {
    let _guard = lock();
    let spec = full_spec("chain:3:1", false);
    let seq = sequential(&spec);
    let dist = served(&spec);
    assert_same_verdict(&seq, &dist, "chain:3:1 served");
    assert_exact_counters(&seq, &dist, "chain:3:1 served");
    assert_eq!(
        seq.stats.max_depth, dist.stats.max_depth,
        "chain:3:1 served: the worker runs the sequential search itself"
    );
    assert_eq!(seq.stats.pruned_by_strategy, dist.stats.pruned_by_strategy);
    assert_eq!(seq.stats.pruned_by_por, dist.stats.pruned_by_por);
    assert_eq!(
        seq.stats.symbolic_executions,
        dist.stats.symbolic_executions
    );
}

#[test]
fn a_budget_cut_whole_job_is_truncated_and_inconclusive() {
    let _guard = lock();
    // The worker's own transition budget stops the search: the exhaustive
    // search of the fixed BUG-II takes 131 transitions.
    let spec = JobSpec {
        config: CheckerConfig::default().with_max_transitions(50),
        ..JobSpec::new("bug-ii-fixed")
    };
    let seq = sequential(&spec);
    let dist = served(&spec);
    assert!(
        dist.stats.truncated,
        "the budget truncates the served search"
    );
    assert_eq!(dist.verdict(), Verdict::Inconclusive);
    assert_same_verdict(&seq, &dist, "bug-ii-fixed at 50 transitions");
    assert_exact_counters(&seq, &dist, "bug-ii-fixed at 50 transitions");
}

#[test]
fn a_stop_at_first_job_reports_the_sequential_engines_counters() {
    let _guard = lock();
    // The worker's own `stop_at_first_violation` ends the search at the
    // sequential engine's first violation.
    let spec = JobSpec::new("bug-v-packets-dropped-in-transition");
    assert!(spec.config.stop_at_first_violation);
    let seq = sequential(&spec);
    let dist = served(&spec);
    assert_eq!(dist.violations.len(), 1, "one violation, then the stop");
    let label = "bug-v stop at first";
    assert_same_verdict(&seq, &dist, label);
    assert_exact_counters(&seq, &dist, label);
    assert_eq!(seq.stats.max_depth, dist.stats.max_depth, "{label}");
}

#[test]
fn a_cancel_sent_behind_the_job_stops_the_worker_early() {
    let _guard = lock();
    // The cancel reaches the worker's stdin reader right behind the job,
    // possibly before the job's session (and its token) exists: the worker
    // must keep it either way, not run the job to its end.
    let spec = full_spec("chain:5:2", false);
    let cancelled = AtomicBool::new(true);
    let mut coordinator = Coordinator::new(worker_bin()).expect("spawn the worker");
    let (dist, _) = run(&mut coordinator, &spec, |_| {}, Some(&cancelled))
        .expect("a cancelled job still reports");
    assert!(dist.stats.truncated, "a cancelled job reads as truncated");
    assert_eq!(dist.verdict(), Verdict::Inconclusive);
    let seq = sequential(&spec);
    assert!(
        dist.stats.transitions < seq.stats.transitions,
        "the worker ran all {} transitions",
        seq.stats.transitions
    );
    // The same worker takes its next job as usual, though it has the same
    // job id as the cancelled one.
    let next = full_spec("chain:3:1", false);
    let (dist, _) = run(&mut coordinator, &next, |_| {}, None).expect("the next job completes");
    assert_exact_counters(&sequential(&next), &dist, "chain:3:1 after a cancel");
}

#[test]
fn distributed_violation_traces_replay_in_process() {
    let _guard = lock();
    let spec = full_spec("bug-v-packets-dropped-in-transition", false);
    let dist = served(&spec);
    assert!(!dist.violations.is_empty());
    // The served report's traces must be replayable end to end on the
    // sequential engine — shipping steps over the wire loses nothing.
    let scenario = nice_apps::workloads::resolve(&spec.scenario).unwrap();
    let checker = ModelChecker::new(scenario, spec.config.clone());
    for violation in &dist.violations {
        let replay = checker.replay(&violation.trace);
        assert!(
            matches!(replay.outcome, ReplayOutcome::Completed),
            "trace for '{}' diverged: {:?}",
            violation.property,
            replay.outcome
        );
        assert!(
            replay
                .violations
                .iter()
                .any(|v| v.property == violation.property),
            "replaying the trace for '{}' did not reproduce it",
            violation.property
        );
    }
}

#[test]
fn a_worker_that_always_dies_on_spawn_fails_the_job_instead_of_hanging() {
    let _guard = lock();

    // A stand-in for a stale or broken worker binary: accepts the job
    // frame, then dies without ever producing a frame of its own. Without
    // the coordinator's crash-streak cap this respawns forever and the job
    // never returns (exactly the failure mode of a worker speaking an old
    // protocol version).
    let script = std::env::temp_dir().join(format!("nice-dying-worker-{}.sh", std::process::id()));
    std::fs::write(&script, "#!/bin/sh\nhead -c 1 >/dev/null\nexit 1\n").expect("write script");
    let mut perms = std::fs::metadata(&script)
        .expect("stat script")
        .permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
    std::fs::set_permissions(&script, perms).expect("chmod script");

    // Through the override the installed front-ends honour.
    std::env::set_var(WORKER_BIN_ENV, &script);
    let overridden = nice_dist::worker_bin();
    std::env::remove_var(WORKER_BIN_ENV);
    let mut coordinator = Coordinator::new(overridden.expect("the override names the script"))
        .expect("spawning the worker itself succeeds");
    let spec = full_spec("chain:3:1", false);
    let first = coordinator.run_job(1, &spec, |_| {}, None);
    // The second job finds the worker dead: it must respawn it and give up
    // the same way, not write to a dead pipe and wait forever. A thread
    // and a timeout make a hang fail the test instead of hanging it.
    let (done, second) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let result = coordinator.run_job(2, &spec, |_| {}, None);
        done.send(result).expect("the test waits for the result");
    });
    let second = second.recv_timeout(Duration::from_secs(60));
    let _ = std::fs::remove_file(&script);
    let second = second.expect("the second job hung");
    thread.join().expect("the second job's thread");

    for (nth, result) in [("first", first), ("second", second)] {
        let err = result.expect_err("a worker dying on every spawn must fail the job");
        assert!(
            err.to_string().contains("died 6 times in a row"),
            "{nth} job: the error should name the crash loop, got: {err}"
        );
    }
}

#[test]
fn a_whole_job_worker_killed_mid_job_restarts_to_the_exact_counters() {
    let _guard = lock();
    let spec = full_spec("bug-v-packets-dropped-in-transition", false);
    let seq = sequential(&spec);

    // The worker aborts (no flush, no goodbye — a modelled SIGKILL) after
    // 150 of BUG-V's 2 569 transitions. The variable stays set while the
    // job runs: the respawned worker must not inherit it.
    std::env::set_var(DIE_AFTER_ENV, "150");
    let dist = Coordinator::new(worker_bin())
        .and_then(|mut coordinator| run(&mut coordinator, &spec, |_| {}, None));
    std::env::remove_var(DIE_AFTER_ENV);
    let (dist, restarts) = dist.expect("job completes despite the crash");

    assert_eq!(restarts, 1, "the worker must have died once");
    let label = "bug-v served with worker kill";
    assert_same_verdict(&seq, &dist, label);
    assert_exact_counters(&seq, &dist, label);
}

#[test]
fn two_whole_job_coordinators_run_two_jobs_at_once_exactly() {
    let _guard = lock();
    let specs = [
        full_spec("chain:5:2", false),
        full_spec("bug-xii-packet-lost-on-switch-crash", true),
    ];
    let spawn = || Coordinator::new(worker_bin()).expect("spawn the worker");
    let (mut first, mut second) = (spawn(), spawn());
    // Neither job ends before both workers have relayed a frame.
    let both_started = Barrier::new(2);
    let run_beside = |coordinator: &mut Coordinator, spec| {
        let mut first_frame = true;
        let on_frame = |_: &Frame| {
            if std::mem::take(&mut first_frame) {
                both_started.wait();
            }
        };
        run(coordinator, spec, on_frame, None)
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_beside(&mut first, &specs[0]));
        let b = scope.spawn(|| run_beside(&mut second, &specs[1]));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (spec, dist) in specs.iter().zip([a, b]) {
        let (dist, _) = dist.expect("job completes");
        let label = format!("{} beside another job", spec.scenario);
        let seq = sequential(spec);
        assert_same_verdict(&seq, &dist, &label);
        assert_exact_counters(&seq, &dist, &label);
    }
}

#[test]
fn the_worker_keeps_the_deadline_and_reports_an_interrupted_job_truncated() {
    let _guard = lock();
    // Exhausted, chain:4:3 takes 688 121 transitions; a 50 ms deadline
    // stops it long before, in the worker's own session.
    let spec = JobSpec {
        time_budget_ms: 50,
        ..full_spec("chain:4:3", false)
    };
    let dist = served(&spec);
    assert!(
        dist.stats.truncated,
        "an interrupted job reads as truncated"
    );
    assert_eq!(dist.verdict(), Verdict::Inconclusive);
    assert!(
        dist.stats.transitions < 688_121,
        "the deadline did not stop the search: {} transitions",
        dist.stats.transitions
    );
}
