//! Served-checking equivalence: a job the coordinator runs on its worker
//! process must agree with the in-process sequential engine.
//!
//! The worker runs the job whole, in one `ModelChecker::session()`, so its
//! counters equal the sequential run's *exactly* — not just the verdict —
//! and the stops are the worker's own: its transition budget truncates the
//! search, `stop_at_first_violation` ends it at the sequential engine's
//! first violation, and its deadline interrupts it. The coordinator relays
//! the worker's frames; a served report here is read from its `violation`
//! frames and the final `job_done` the way `nice submit` reads it. A killed
//! worker fails its job, and the next job on the same coordinator runs on a
//! fresh worker to the exact counters; two coordinators running side by
//! side do not interfere.
//!
//! Every test serializes on one mutex: the coordinator spawns worker child
//! processes, and the dying-worker test scopes the `NICE_DIST_WORKER_BIN`
//! environment variable, which must not leak into concurrent spawns.

use nice_dist::{write_frame, Coordinator, Frame, JobSpec, WORKER_BIN_ENV};
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, ReplayOutcome, Verdict};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Receiver;
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::Duration;

/// The worker binary cargo built for this test target.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_nice-dist-worker"))
}

/// One coordinator (and its worker processes) at a time, and a fence around
/// the dying-worker test's environment variable.
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
/// relays, and reads the report as `nice submit` does: the violations of
/// the `violation` frames, the stats of the final `job_done`.
fn run(
    coordinator: &mut Coordinator,
    spec: &JobSpec,
    mut on_frame: impl FnMut(&Frame),
    cancel: Option<&AtomicBool>,
) -> io::Result<CheckReport> {
    let mut violations = Vec::new();
    let mut last = None;
    coordinator.run_job(
        1,
        spec,
        |frame| {
            on_frame(&frame);
            if let Frame::Violation { violation, .. } = &frame {
                violations.push(violation.clone());
            }
            last = Some(frame);
        },
        cancel,
    )?;
    match last {
        Some(Frame::JobDone { job: 1, stats }) => Ok(spec.report(stats, violations)),
        other => panic!("the last frame relayed is not job 1's job_done: {other:?}"),
    }
}

fn served(spec: &JobSpec) -> CheckReport {
    let mut coordinator = Coordinator::new(worker_bin()).expect("spawn the worker");
    run(&mut coordinator, spec, |_| {}, None).expect("served job completes")
}

/// An executable shell script with `body`, standing in for the worker.
fn script(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nice-{name}-{}.sh", std::process::id()));
    std::fs::write(&path, format!("#!/bin/sh\n{body}")).expect("write script");
    let mut perms = std::fs::metadata(&path).expect("stat script").permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
    std::fs::set_permissions(&path, perms).expect("chmod script");
    path
}

/// Runs job `job` of `spec` on a thread, so a test can bound the wait with
/// a timeout and fail instead of hanging. Sends the result and the number
/// of frames the job relayed.
fn run_on_a_thread(
    mut coordinator: Coordinator,
    job: u64,
    spec: JobSpec,
) -> Receiver<(io::Result<()>, usize)> {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut frames = 0;
        let result = coordinator.run_job(job, &spec, |_| frames += 1, None);
        let _ = done.send((result, frames));
    });
    result
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
    let dist = run(&mut coordinator, &spec, |_| {}, Some(&cancelled))
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
    let dist = run(&mut coordinator, &next, |_| {}, None).expect("the next job completes");
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
    // frame, then dies without ever producing a frame of its own.
    let script = script("dying-worker", "head -c 1 >/dev/null\nexit 1\n");
    // Through the override the installed front-ends honour.
    std::env::set_var(WORKER_BIN_ENV, &script);
    let overridden = nice_dist::worker_bin();
    std::env::remove_var(WORKER_BIN_ENV);
    let mut coordinator = Coordinator::new(overridden.expect("the override names the script"))
        .expect("spawning the worker itself succeeds");
    let spec = full_spec("chain:3:1", false);
    let first = coordinator.run_job(1, &spec, |_| {}, None);
    // The second job finds the worker exited: it starts a fresh one, which
    // dies the same way, and must fail the same way rather than write to a
    // dead pipe and wait forever.
    let second = run_on_a_thread(coordinator, 2, spec).recv_timeout(Duration::from_secs(60));
    let _ = std::fs::remove_file(&script);
    let (second, frames) = second.expect("the second job hung");
    assert_eq!(frames, 0);
    for (nth, result) in [("first", first), ("second", second)] {
        let err = result.expect_err("a worker dying on every spawn must fail the job");
        assert!(
            err.to_string().contains("exit status: 1"),
            "{nth} job: the error should name the worker's exit status, got: {err}"
        );
    }
}

#[test]
fn a_worker_that_dies_after_a_progress_frame_fails_the_job_instead_of_restarting_it() {
    let _guard = lock();
    // A worker that gets one job 1 frame out before it dies. A coordinator
    // that counts the frame as a sign of life restarts this job forever.
    let progress = Frame::Progress {
        job: 1,
        transitions: 2048,
        unique_states: 1000,
        depth: 9,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &progress).expect("write the frame");
    let frame_file = std::env::temp_dir().join(format!("nice-progress-{}", std::process::id()));
    std::fs::write(&frame_file, wire).expect("write the frame file");
    let body = format!("head -c 1 >/dev/null\ncat '{}'\n", frame_file.display());
    let script = script("progress-then-exit", &body);
    let coordinator = Coordinator::new(script.clone()).expect("spawn the script");
    let result = run_on_a_thread(coordinator, 1, full_spec("chain:3:1", false))
        .recv_timeout(Duration::from_secs(10));
    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_file(&frame_file);
    let (result, frames) = result.expect("the job hung: its dead worker was restarted");
    assert_eq!(
        frames, 1,
        "the progress frame is relayed, then the job ends"
    );
    let err = result.expect_err("a worker that died mid-job must fail the job");
    assert!(err.to_string().contains("exit status: 0"), "{err}");
}

#[test]
fn a_worker_killed_mid_job_fails_that_job_and_the_next_job_runs_exactly() {
    let _guard = lock();
    let mut coordinator = Coordinator::new(worker_bin()).expect("spawn the worker");
    let pid = coordinator.pid();
    // Exhausted, chain:4:3 takes 688 121 transitions: the kill lands long
    // before its end.
    let spec = full_spec("chain:4:3", false);
    let mut relayed = Vec::new();
    let killed = coordinator.run_job(
        1,
        &spec,
        |frame| {
            if relayed.is_empty() {
                let kill = std::process::Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
                assert!(kill.expect("run kill").success(), "kill {pid}");
            }
            relayed.push(frame);
        },
        None,
    );
    let err = killed.expect_err("a killed worker fails its job");
    assert!(err.to_string().contains("signal: 9"), "{err}");
    assert!(
        relayed.iter().all(|f| matches!(f, Frame::Progress { .. })),
        "no final frame from a killed worker: {relayed:?}"
    );
    // The next job on the same coordinator runs on a fresh worker.
    let next = full_spec("bug-v-packets-dropped-in-transition", false);
    let dist = run(&mut coordinator, &next, |_| {}, None).expect("the next job completes");
    assert_ne!(coordinator.pid(), pid, "the killed worker was replaced");
    let label = "bug-v after a killed worker";
    let seq = sequential(&next);
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
        let dist = dist.expect("job completes");
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
