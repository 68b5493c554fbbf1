//! Equivalence over the real wire for batched, delta-encoded forwards and
//! the sender-side filter: what `dist_equivalence.rs` pins for the service
//! as a whole, held here for the paths that only worker *processes* take.
//!
//! * Under partial-order reduction exports carry sleep sets, which the
//!   sender-side filter must respect; in-process shards are checked in
//!   `nice_mc::shard`, here the same job crosses two pipes.
//! * The exhaustive counters — `dedup_hits` included, part of which the
//!   senders now count on their owners' behalf — sum to the sequential
//!   engine's at 2 and at 3 workers (3 regroups every batch by owner).
//! * A worker killed with exports it has not flushed yet: they were never
//!   logged, so the respawned process has to derive them again.
//!
//! Every test serializes on one mutex, as in `dist_equivalence.rs`: the
//! crash test scopes the `NICE_DIST_DIE_AFTER` environment variable, which
//! must not leak into another coordinator's spawns.

use nice_dist::worker::FORWARD_BATCH;
use nice_dist::{Coordinator, JobEvent, JobSpec, DIE_AFTER_ENV};
use nice_mc::{
    shard_of, CheckReport, CheckerConfig, ModelChecker, ReductionKind, ShardSpec, ShardedSearch,
    StepOutcome, SystemState,
};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

const BUG_V: &str = "bug-v-packets-dropped-in-transition";

static DIST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    DIST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spec exploring the full space: every violation, no budgets.
fn full_spec(scenario: &str) -> JobSpec {
    JobSpec {
        config: CheckerConfig::default()
            .with_stop_at_first(false)
            .with_max_transitions(0),
        ..JobSpec::new(scenario)
    }
}

fn checker(spec: &JobSpec) -> ModelChecker {
    let scenario = nice_apps::workloads::resolve(&spec.scenario).expect("known scenario spec");
    ModelChecker::new(scenario, spec.config.clone())
}

fn distributed(spec: &JobSpec, workers: usize, on_event: impl FnMut(JobEvent)) -> CheckReport {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_nice-dist-worker"));
    let mut coordinator = Coordinator::new(bin, workers).expect("spawn worker pool");
    coordinator
        .run_job(spec, on_event, None)
        .expect("distributed job completes")
}

fn violated_properties(report: &CheckReport) -> Vec<&str> {
    let mut names: Vec<&str> = (report.violations.iter())
        .map(|v| v.property.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn violation_set(report: &CheckReport) -> Vec<(&str, &str)> {
    let mut set: Vec<(&str, &str)> = (report.violations.iter())
        .map(|v| (v.property.as_str(), v.message.as_str()))
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

#[test]
fn a_por_job_over_two_processes_finds_the_sequential_violations() {
    let _guard = lock();
    let mut spec = full_spec(BUG_V);
    spec.config.reduction = ReductionKind::Por;
    let seq = checker(&spec).run();
    assert!(!seq.passed(), "BUG-V violates under POR too");
    assert!(seq.stats.pruned_by_por > 0);
    let dist = distributed(&spec, 2, |_| {});
    assert_eq!(violated_properties(&dist), violated_properties(&seq));
    assert!(dist.stats.pruned_by_por > 0, "the workers ran unreduced");
    // Every witness the service reports replays in process.
    for violation in &dist.violations {
        let replay = checker(&spec).replay(&violation.trace);
        let mut reproduced = replay.violations.iter();
        assert!(
            reproduced.any(|v| v.property == violation.property),
            "the trace for '{}' does not reproduce it: {:?}",
            violation.property,
            replay.outcome
        );
    }
}

#[test]
fn batched_and_filtered_forwards_sum_to_the_sequential_counters() {
    let _guard = lock();
    let spec = full_spec("chain:5:2");
    let seq = checker(&spec).run();
    assert!(seq.passed() && seq.stats.dedup_hits > 0);
    for workers in [2, 3] {
        let dist = distributed(&spec, workers, |_| {});
        let counters = |r: &CheckReport| {
            let s = &r.stats;
            (
                s.transitions,
                s.unique_states,
                s.terminal_states,
                s.dedup_hits,
            )
        };
        assert_eq!(counters(&dist), counters(&seq), "{workers} workers");
        assert!(dist.passed(), "{workers} workers");
    }
}

/// The shard owning the initial state, stepped alone as its process runs
/// until it writes its first `forward` frame (a full batch, or a drained
/// frontier): the transitions executed and the exports pending after every
/// step. Nothing has been injected by then, so the process does the same.
fn until_the_first_flush(spec: &JobSpec, owner: u32) -> Vec<(u64, usize)> {
    let checker = checker(spec);
    let shard = ShardSpec {
        index: owner,
        count: 2,
    };
    let mut search = ShardedSearch::new(&checker, shard);
    let mut steps = Vec::new();
    loop {
        let outcome = search.step();
        steps.push((search.stats().transitions, search.forwards_pending()));
        if search.forwards_pending() >= FORWARD_BATCH || outcome != StepOutcome::Expanded {
            return steps;
        }
    }
}

#[test]
fn a_worker_killed_with_unflushed_exports_changes_neither_verdict_nor_counts() {
    let _guard = lock();
    // The first flush of the shard owning the root, and the last step
    // before it that took a transition: the exports pending there were
    // never written. Where the hash function puts a root decides whether
    // its owner flushes on its very first step, so take the first scenario
    // whose owner does not.
    let (spec, owner, (unflushed_at, unflushed), (flushed_at, flushed)) = [BUG_V, "chain:5:2"]
        .into_iter()
        .find_map(|name| {
            let spec = full_spec(name);
            let scenario = nice_apps::workloads::resolve(name).expect("known scenario spec");
            let owner = shard_of(SystemState::initial(&scenario).fingerprint(), 2);
            let steps = until_the_first_flush(&spec, owner);
            let &flush = steps.last()?;
            let &earlier = steps.iter().rev().find(|(at, _)| *at < flush.0)?;
            Some((spec, owner, earlier, flush))
        })
        .expect("a scenario whose root's owner steps before its first flush");
    assert!(
        unflushed > 0 && flushed > 0,
        "{unflushed} then {flushed} exports"
    );
    let seq = checker(&spec).run();

    // Dead short of its first flush, everything the victim exported dies
    // with it and the log is empty; dead a few steps past it, one batch is
    // logged and the next is lost on the way.
    for die_after in [unflushed_at, flushed_at + 4] {
        std::env::set_var(DIE_AFTER_ENV, format!("{owner}:{die_after}"));
        let mut restarts = 0;
        let dist = distributed(&spec, 2, |event| {
            restarts += usize::from(matches!(event, JobEvent::WorkerRestarted { .. }));
        });
        std::env::remove_var(DIE_AFTER_ENV);
        let label = format!("killed after {die_after} transitions");
        assert_eq!(restarts, 1, "{label}");
        assert_eq!(dist.passed(), seq.passed(), "{label}");
        assert_eq!(violation_set(&dist), violation_set(&seq), "{label}");
        let counters = |r: &CheckReport| {
            let s = &r.stats;
            (s.transitions, s.unique_states, s.terminal_states)
        };
        assert_eq!(counters(&dist), counters(&seq), "{label}");
        assert!(dist.stats.dedup_hits >= seq.stats.dedup_hits, "{label}");
    }
}
