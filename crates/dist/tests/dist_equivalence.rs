//! Distributed-checking equivalence: the coordinator + sharded worker
//! processes must agree with the in-process sequential engine.
//!
//! The sharding invariant is single ownership: each fingerprint is expanded
//! by exactly one worker (`(fp >> 56) % count`), so in a crash-free run the
//! sums of the shards' counters equal the sequential run *exactly* — not
//! just the verdict, the transition and state counts too. A 1-worker run is
//! the sequential engine by construction. A killed worker is respawned and
//! its shard re-derived from the coordinator's forward log; re-forwarded
//! duplicates dedup at their owners, so only `dedup_hits` may inflate.
//!
//! Every test serializes on one mutex: the coordinator spawns worker child
//! processes, and the crash test scopes the `NICE_DIST_DIE_AFTER`
//! environment variable, which must not leak into concurrent spawns.

use nice_dist::{Coordinator, JobEvent, JobSpec, DIE_AFTER_ENV, WORKER_BIN_ENV};
use nice_mc::{CheckReport, CheckerConfig, ModelChecker, ReplayOutcome};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

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

fn distributed(spec: &JobSpec, workers: usize) -> CheckReport {
    let mut coordinator = Coordinator::new(worker_bin(), workers).expect("spawn worker pool");
    coordinator
        .run_job(spec, |_| {}, None)
        .expect("distributed job completes")
}

/// The sorted, deduplicated `(property, message)` set — the verdict
/// content, independent of discovery order and of which shard found it.
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
        "{label}: verdicts disagree (sequential passed={}, distributed passed={})",
        seq.passed(),
        dist.passed()
    );
    assert_eq!(
        violation_set(seq),
        violation_set(dist),
        "{label}: violation sets disagree"
    );
    assert_eq!(
        seq.outcome.label(false),
        dist.outcome.label(false),
        "{label}: outcome"
    );
}

/// Crash-free sharded runs sum to the sequential counters exactly.
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
    let dist = distributed(&spec, 1);
    assert_same_verdict(&seq, &dist, "chain:3:1 dist-1");
    assert_exact_counters(&seq, &dist, "chain:3:1 dist-1");
    assert_eq!(
        seq.stats.max_depth, dist.stats.max_depth,
        "chain:3:1 dist-1: a solo shard is the sequential search itself"
    );
    assert_eq!(seq.stats.pruned_by_strategy, dist.stats.pruned_by_strategy);
    assert_eq!(seq.stats.pruned_by_por, dist.stats.pruned_by_por);
    assert_eq!(
        seq.stats.symbolic_executions,
        dist.stats.symbolic_executions
    );
}

#[test]
fn sharded_chain_run_matches_sequential_verdict_and_counters() {
    let _guard = lock();
    // The 5-switch pyswitch chain with 2 pings: deterministic, no
    // violations, big enough that all shards do real work.
    let spec = full_spec("chain:5:2", false);
    let seq = sequential(&spec);
    assert!(seq.passed(), "chain:5:2 is violation-free sequentially");
    for workers in [2, 4] {
        let dist = distributed(&spec, workers);
        let label = format!("chain:5:2 dist-{workers}");
        assert_same_verdict(&seq, &dist, &label);
        assert_exact_counters(&seq, &dist, &label);
    }
}

#[test]
fn sharded_bug_v_run_finds_the_same_violations() {
    let _guard = lock();
    // BUG-IX rides along: a second application (energy TE, statistics
    // replies) whose every forwarded state the owner rebuilds by replay.
    for scenario in [
        "bug-v-packets-dropped-in-transition",
        "bug-ix-intermediate-switch-packets-dropped",
    ] {
        let spec = full_spec(scenario, false);
        let seq = sequential(&spec);
        assert!(!seq.passed(), "{scenario} violates sequentially");
        for workers in [2, 4] {
            let dist = distributed(&spec, workers);
            let label = format!("{scenario} dist-{workers}");
            assert_same_verdict(&seq, &dist, &label);
            assert_exact_counters(&seq, &dist, &label);
        }
    }
}

#[test]
fn sharded_bug_xii_run_with_faults_finds_the_same_violations() {
    let _guard = lock();
    let spec = full_spec("bug-xii-packet-lost-on-switch-crash", true);
    let seq = sequential(&spec);
    assert!(!seq.passed(), "BUG-XII violates under fault injection");
    for workers in [2, 4] {
        let dist = distributed(&spec, workers);
        let label = format!("bug-xii dist-{workers}");
        assert_same_verdict(&seq, &dist, &label);
        assert_exact_counters(&seq, &dist, &label);
    }
}

#[test]
fn distributed_violation_traces_replay_in_process() {
    let _guard = lock();
    let spec = full_spec("bug-v-packets-dropped-in-transition", false);
    let dist = distributed(&spec, 2);
    assert!(!dist.passed());
    // The merged report's traces must be replayable end to end on the
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
fn a_worker_killed_mid_job_neither_hangs_nor_changes_the_verdict() {
    let _guard = lock();
    let spec = full_spec("bug-v-packets-dropped-in-transition", false);
    let seq = sequential(&spec);

    // Worker 1 aborts (no flush, no goodbye — a modelled SIGKILL) after 150
    // transitions; BUG-V gives each of 2 shards ~1200, so it dies mid-job.
    std::env::set_var(DIE_AFTER_ENV, "1:150");
    let mut restarts = 0usize;
    let mut coordinator = Coordinator::new(worker_bin(), 2).expect("spawn worker pool");
    let dist = coordinator.run_job(
        &spec,
        |event| {
            if let JobEvent::WorkerRestarted { .. } = event {
                restarts += 1;
            }
        },
        None,
    );
    std::env::remove_var(DIE_AFTER_ENV);
    let dist = dist.expect("job completes despite the crash");

    assert!(restarts >= 1, "the victim worker must actually have died");
    assert_same_verdict(&seq, &dist, "bug-v dist-2 with worker kill");
    // Re-deriving the dead shard replays the forward log; the re-explored
    // states re-forward to shards that already own them, so `dedup_hits`
    // may inflate — every other counter is crash-invariant.
    assert_eq!(
        seq.stats.transitions, dist.stats.transitions,
        "kill: transitions"
    );
    assert_eq!(
        seq.stats.unique_states, dist.stats.unique_states,
        "kill: unique states"
    );
    assert_eq!(
        seq.stats.terminal_states, dist.stats.terminal_states,
        "kill: terminal states"
    );
    assert!(
        dist.stats.dedup_hits >= seq.stats.dedup_hits,
        "kill: replayed forwards can only add dedup hits"
    );
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
    let result = Coordinator::new(overridden.expect("the override names the script"), 1)
        .expect("spawning the pool itself succeeds")
        .run_job(&full_spec("chain:3:1", false), |_| {}, None);
    let _ = std::fs::remove_file(&script);

    let err = result.expect_err("a worker dying on every spawn must fail the job");
    assert!(
        err.to_string().contains("died"),
        "error should name the crash loop, got: {err}"
    );
}
