//! Tiered explored-set equivalence: the spill-to-disk store must be a pure
//! performance artifact, invisible in every verdict.
//!
//! Two invariants are pinned here:
//!
//! 1. **Tiered is exact.** With any memory budget — including a 1-byte
//!    budget that forces every shard cold immediately — the tiered store
//!    reports the same verdict and violation set as the in-memory store on
//!    the chain workload, BUG-V, and BUG-XII-under-faults, across 1 and 4
//!    workers and with POR on or off. At 1 worker the transition and state
//!    counts match *exactly*: spilling changes where fingerprints live, not
//!    which states get expanded.
//! 2. **Bitstate is sound-for-violations.** Lossy hashing may *miss* states
//!    (so a PASS is weaker, flagged via `CheckReport::lossy`) but never
//!    invents them: on a violation-free workload it finds nothing at any
//!    budget, and on a buggy workload every violation it reports is in the
//!    exact store's violation set. Checked with proptest over random
//!    memory budgets.

use nice::prelude::*;
use proptest::prelude::*;

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
/// equality on the deterministic 1-worker legs.
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
                assert!(!mem.lossy, "{label}: mem store is exact");
                assert!(!tiered.lossy, "{label}: tiered store is exact");
                if workers == 1 {
                    assert_eq!(
                        mem.stats.transitions, tiered.stats.transitions,
                        "{label}: transitions"
                    );
                    assert_eq!(
                        mem.stats.unique_states, tiered.stats.unique_states,
                        "{label}: unique states"
                    );
                    assert_eq!(
                        mem.stats.terminal_states, tiered.stats.terminal_states,
                        "{label}: terminal states"
                    );
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

    // At its default size the bitstate filter has no collision on this
    // workload: it finds every state the exact store does.
    let bitstate = run(
        "chain:5:2",
        full_config(false).with_explored(ExploredMode::Bitstate),
    );
    assert!(bitstate.lossy);
    let counts = |report: &CheckReport| (report.stats.unique_states, report.stats.transitions);
    assert_eq!(counts(&mem), (6941, 11044));
    assert_eq!(counts(&bitstate), counts(&mem));
}

proptest! {
    /// Bitstate never invents a violation: on the violation-free chain it
    /// passes at every memory budget, and the report is flagged lossy.
    #[test]
    fn bitstate_never_reports_spurious_violations(mem_limit in 1u64..(1 << 16)) {
        let report = run(
            "chain:3:1",
            full_config(false)
                .with_explored(ExploredMode::Bitstate)
                .with_mem_limit(mem_limit),
        );
        prop_assert!(
            report.passed(),
            "bitstate invented a violation at mem_limit={}: {:?}",
            mem_limit,
            violation_set(&report)
        );
        prop_assert!(report.lossy, "bitstate reports must carry the lossy flag");
    }

    /// On a buggy workload, every violation bitstate reports is one the
    /// exact store also reports — lossy hashing can only miss, never add.
    #[test]
    fn bitstate_violations_are_a_subset_of_the_exact_set(mem_limit in 1u64..(1 << 16)) {
        // The exact reference search is deterministic: run it once, share it
        // across all generated cases.
        static EXACT: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
        let exact_set = EXACT.get_or_init(|| {
            violation_set(&run("bug-v-packets-dropped-in-transition", full_config(false)))
        });
        let lossy = run(
            "bug-v-packets-dropped-in-transition",
            full_config(false)
                .with_explored(ExploredMode::Bitstate)
                .with_mem_limit(mem_limit),
        );
        prop_assert!(lossy.lossy);
        for v in violation_set(&lossy) {
            prop_assert!(
                exact_set.contains(&v),
                "bitstate reported a violation the exact search never saw: {:?}",
                v
            );
        }
    }
}
