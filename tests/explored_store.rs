//! Explored-set equivalence: `tiered` is `mem` with a memory limit, and
//! spilling to disk is invisible in every result.
//!
//! With any memory budget — including a 1-byte budget that forces every
//! shard cold immediately — the tiered store reports the same verdict and
//! violation set as the in-memory store on the chain workload, BUG-V and
//! BUG-XII-under-faults, across 1 and 4 workers and with POR on or off.
//! The counts match *exactly* on the 1-worker legs, and at 4 workers on
//! the violation-free chain without POR: spilling changes where
//! fingerprints live, not which states get expanded.

use nice::prelude::*;

/// The matrix scenarios: spec string + whether its fault plan is armed.
const SCENARIOS: &[(&str, bool)] = &[
    ("chain:5:2", false),
    ("bug-v-packets-dropped-in-transition", false),
    ("bug-xii-packet-lost-on-switch-crash", true),
];

fn scenario(spec: &str) -> Scenario {
    nice_apps::workloads::resolve(spec).expect("known scenario spec")
}

/// A full-space config: every violation, no budgets.
fn full_config(inject_faults: bool) -> CheckerConfig {
    CheckerConfig {
        stop_at_first_violation: false,
        max_transitions: 0,
        inject_faults,
        ..CheckerConfig::default()
    }
}

fn run(spec: &str, config: CheckerConfig) -> CheckReport {
    ModelChecker::new(scenario(spec), config).run()
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

fn assert_same_verdict(exact: &CheckReport, other: &CheckReport, label: &str) {
    assert_eq!(
        exact.passed(),
        other.passed(),
        "{label}: verdicts disagree (exact passed={}, other passed={})",
        exact.passed(),
        other.passed()
    );
    assert_eq!(
        violation_set(exact),
        violation_set(other),
        "{label}: violation sets disagree"
    );
}

/// Tiered ≡ mem across the scenario × workers × POR matrix; exact counter
/// equality wherever the search is deterministic in what it visits.
#[test]
fn tiered_store_is_equivalent_to_in_memory() {
    for &(spec, faults) in SCENARIOS {
        for reduction in [ReductionKind::None, ReductionKind::Por] {
            for workers in [1usize, 4] {
                let base = full_config(faults)
                    .with_reduction(reduction)
                    .with_workers(workers);
                let mem = run(spec, base.clone().with_explored(ExploredMode::Mem));
                // A 1-byte budget makes every shard over-budget from the
                // first insert: the run exercises spill, bloom rebuild and
                // disk probes, not the in-memory fast path.
                let tiered = run(
                    spec,
                    base.with_explored(ExploredMode::Tiered).with_mem_limit(1),
                );
                let label = format!("{spec} workers={workers} reduction={reduction:?}");
                assert_same_verdict(&mem, &tiered, &label);
                let counts = |report: &CheckReport| {
                    let stats = &report.stats;
                    (
                        stats.unique_states,
                        stats.transitions,
                        stats.terminal_states,
                    )
                };
                // A violation-free search without POR has no path-dependent
                // pruning, so 4 workers visit exactly what 1 does, spills
                // racing across shard locks included.
                if workers == 1 || (spec == "chain:5:2" && reduction == ReductionKind::None) {
                    assert_eq!(counts(&tiered), counts(&mem), "{label}");
                }
                if workers == 1 {
                    assert_eq!(
                        mem.stats.dedup_hits, tiered.stats.dedup_hits,
                        "{label}: dedup hits"
                    );
                }
            }
        }
    }
}

/// The forced-spill chain run actually takes the disk path and reports it.
#[test]
fn tiered_run_past_the_memory_limit_reports_spill_counters() {
    let report = run(
        "chain:5:2",
        full_config(false)
            .with_explored(ExploredMode::Tiered)
            .with_mem_limit(1),
    );
    assert!(report.passed(), "chain:5:2 is violation-free");
    assert!(
        report.stats.spilled_shards > 0,
        "a 1-byte budget must force cold-shard spills (got {})",
        report.stats.spilled_shards
    );
    assert!(
        report.stats.peak_explored_bytes > 0,
        "the store's high-water mark must be recorded"
    );
    assert!(
        report.stats.filter_hits + report.stats.disk_probes > 0,
        "revisits of spilled shards must consult the bloom filter or disk"
    );

    // The in-memory store reports a peak but never spills.
    let mem = run("chain:5:2", full_config(false));
    assert!(mem.stats.peak_explored_bytes > 0);
    assert_eq!(mem.stats.spilled_shards, 0);
    assert_eq!(mem.stats.disk_probes, 0);
    let counts = (mem.stats.unique_states, mem.stats.transitions);
    assert_eq!(counts, (6941, 11044));
}
