//! # nice-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 7 and Section 8):
//!
//! * [`table1`] — exhaustive search, NICE-MC vs NO-SWITCH-REDUCTION
//!   (Table 1), including the state-space-reduction metric ρ.
//! * [`figure6`] — relative reduction of the NO-DELAY and FLOW-IR search
//!   strategies vs the full search (Figure 6).
//! * [`comparison`] — NICE vs a generic model checker baseline with no
//!   domain-specific reductions (the SPIN/JPF comparison of Section 7).
//! * [`table2`] — transitions / time to the first violation for each of the
//!   eleven bugs under the four search strategies (Table 2).
//! * [`ablation`] — the design-choice ablations (canonical flow tables,
//!   coarse vs fine-grained packet processing).
//!
//! Binaries under `src/bin/` print the rows in the same shape as the paper;
//! speed is measured by the repo benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nice_apps::scenarios::{bug_scenario, BugId};
use nice_mc::{
    CheckObserver, CheckerConfig, ExploredMode, ModelChecker, NoopObserver, ReductionKind,
    Scenario, SearchStats, StrategyKind,
};
use std::time::Duration;

// The benchmark workloads moved into `nice_apps::workloads` so the
// `nice-dist` worker processes can rebuild job scenarios by spec without
// depending on this harness; the bench surface is unchanged.
pub use nice_apps::workloads::{
    chain_fault_workload, chain_ping_workload, load_balancer_workload, ping_workload,
};

/// The engine matrix the CI bench gate profiles: the default engine (the
/// first row, which the others' rates are normalised against), the parallel
/// engine, the POR legs, and the tiered / bitstate explored-set legs.
pub fn engine_configs(workers: usize) -> Vec<(String, CheckerConfig)> {
    vec![
        ("cow-snapshot".into(), CheckerConfig::default()),
        (
            format!("parallel ({workers} workers)"),
            CheckerConfig::default().with_workers(workers),
        ),
        (
            "por (sleep sets)".into(),
            CheckerConfig::default().with_reduction(ReductionKind::Por),
        ),
        (
            format!("por + parallel ({workers} workers)"),
            CheckerConfig::default()
                .with_reduction(ReductionKind::Por)
                .with_workers(workers),
        ),
        (
            // A 1-byte budget forces every shard cold immediately: the leg
            // measures the spill + bloom + disk-probe path, not the cache.
            "tiered explored (forced spill)".into(),
            CheckerConfig::default()
                .with_explored(ExploredMode::Tiered)
                .with_mem_limit(1),
        ),
        (
            "bitstate explored (lossy)".into(),
            CheckerConfig::default().with_explored(ExploredMode::Bitstate),
        ),
    ]
}

/// Runs an exhaustive search (no property checking, no early stop) and
/// returns the search statistics.
pub fn exhaustive(scenario: Scenario, config: CheckerConfig) -> SearchStats {
    exhaustive_with(scenario, config, &mut NoopObserver)
}

/// [`exhaustive`], but driven as a check session streaming events to
/// `observer` — how the bench bins surface live progress.
pub fn exhaustive_with(
    scenario: Scenario,
    config: CheckerConfig,
    observer: &mut dyn CheckObserver,
) -> SearchStats {
    let config = CheckerConfig {
        stop_at_first_violation: false,
        ..config
    };
    ModelChecker::new(scenario, config)
        .session()
        .run_with(observer)
        .stats
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Number of concurrent pings.
    pub pings: u32,
    /// NICE-MC (canonical switch model) statistics.
    pub nice: SearchStats,
    /// NO-SWITCH-REDUCTION statistics.
    pub no_reduction: SearchStats,
}

impl Table1Row {
    /// The state-space-reduction metric ρ of Section 7.
    pub fn rho(&self) -> f64 {
        if self.no_reduction.unique_states == 0 {
            return 0.0;
        }
        (self.no_reduction.unique_states as f64 - self.nice.unique_states as f64)
            / self.no_reduction.unique_states as f64
    }
}

/// Regenerates Table 1 for the given ping counts. `max_transitions` bounds
/// each individual run (0 = unbounded, as in the paper).
pub fn table1(pings: impl IntoIterator<Item = u32>, max_transitions: u64) -> Vec<Table1Row> {
    pings
        .into_iter()
        .map(|n| {
            let config = CheckerConfig::default().with_max_transitions(max_transitions);
            Table1Row {
                pings: n,
                nice: exhaustive(ping_workload(n, true), config.clone()),
                no_reduction: exhaustive(ping_workload(n, false), config),
            }
        })
        .collect()
}

/// One row of Figure 6: the transition and CPU-time reduction of each
/// heuristic strategy relative to the full NICE-MC search.
#[derive(Debug, Clone)]
pub struct Figure6Row {
    /// Number of concurrent pings.
    pub pings: u32,
    /// Full-search statistics (the baseline).
    pub full: SearchStats,
    /// NO-DELAY statistics.
    pub no_delay: SearchStats,
    /// FLOW-IR statistics.
    pub flow_ir: SearchStats,
    /// UNUSUAL statistics (the paper omits it from the figure as "similar";
    /// reported here for completeness).
    pub unusual: SearchStats,
}

impl Figure6Row {
    /// Relative reduction (0..1) of explored transitions for a strategy.
    pub fn transition_reduction(&self, strategy: &SearchStats) -> f64 {
        if self.full.transitions == 0 {
            return 0.0;
        }
        1.0 - strategy.transitions as f64 / self.full.transitions as f64
    }

    /// Relative reduction (0..1) of CPU time for a strategy.
    pub fn time_reduction(&self, strategy: &SearchStats) -> f64 {
        let full = self.full.duration.as_secs_f64();
        if full == 0.0 {
            return 0.0;
        }
        1.0 - strategy.duration.as_secs_f64() / full
    }
}

/// Regenerates Figure 6 for the given ping counts.
pub fn figure6(pings: impl IntoIterator<Item = u32>, max_transitions: u64) -> Vec<Figure6Row> {
    pings
        .into_iter()
        .map(|n| {
            let run = |strategy: StrategyKind| {
                exhaustive(
                    ping_workload(n, true),
                    CheckerConfig::default()
                        .with_strategy(strategy)
                        .with_max_transitions(max_transitions),
                )
            };
            Figure6Row {
                pings: n,
                full: run(StrategyKind::FullDfs),
                no_delay: run(StrategyKind::NoDelay),
                flow_ir: run(StrategyKind::FlowIr),
                unusual: run(StrategyKind::Unusual),
            }
        })
        .collect()
}

/// One row of the Section 7 comparison against a generic model checker
/// baseline (SPIN/JPF stand-in): same workload, but with the coarse packet
/// processing and the canonical switch model disabled.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Number of concurrent pings.
    pub pings: u32,
    /// NICE with its domain-specific model.
    pub nice: SearchStats,
    /// The generic baseline.
    pub generic: SearchStats,
}

impl ComparisonRow {
    /// How many times more transitions the generic baseline explores.
    pub fn transition_ratio(&self) -> f64 {
        if self.nice.transitions == 0 {
            return 0.0;
        }
        self.generic.transitions as f64 / self.nice.transitions as f64
    }
}

/// Regenerates the generic-model-checker comparison.
pub fn comparison(
    pings: impl IntoIterator<Item = u32>,
    max_transitions: u64,
) -> Vec<ComparisonRow> {
    pings
        .into_iter()
        .map(|n| ComparisonRow {
            pings: n,
            nice: exhaustive(
                ping_workload(n, true),
                CheckerConfig::default().with_max_transitions(max_transitions),
            ),
            generic: exhaustive(
                ping_workload(n, false),
                CheckerConfig::generic_baseline().with_max_transitions(max_transitions),
            ),
        })
        .collect()
}

/// The outcome of hunting one bug with one strategy (a cell of Table 2).
#[derive(Debug, Clone)]
pub enum BugHuntOutcome {
    /// The violation was found.
    Found {
        /// Transitions explored up to the first violation.
        transitions: u64,
        /// Wall-clock time to the first violation.
        time: Duration,
        /// The violated property.
        property: String,
    },
    /// The strategy exhausted its budget (or the reduced search space) without
    /// finding the violation — a false negative ("Missed" in Table 2).
    Missed {
        /// Transitions explored before giving up.
        transitions: u64,
        /// Wall-clock time spent.
        time: Duration,
    },
}

impl BugHuntOutcome {
    /// True if the bug was found.
    pub fn found(&self) -> bool {
        matches!(self, BugHuntOutcome::Found { .. })
    }

    /// Formats the cell the way Table 2 does: `transitions / time` or
    /// `Missed`.
    pub fn cell(&self) -> String {
        match self {
            BugHuntOutcome::Found {
                transitions, time, ..
            } => {
                format!("{} / {:.2}s", transitions, time.as_secs_f64())
            }
            BugHuntOutcome::Missed { .. } => "Missed".to_string(),
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The bug.
    pub bug: BugId,
    /// One outcome per strategy, in [`StrategyKind::ALL`] order
    /// (PKT-SEQ only, NO-DELAY, FLOW-IR, UNUSUAL).
    pub outcomes: Vec<(StrategyKind, BugHuntOutcome)>,
}

/// Hunts one bug with one strategy under a transition budget.
pub fn hunt_bug(bug: BugId, strategy: StrategyKind, max_transitions: u64) -> BugHuntOutcome {
    let report = ModelChecker::new(
        bug_scenario(bug),
        CheckerConfig::default()
            .with_strategy(strategy)
            .with_max_transitions(max_transitions),
    )
    .run();
    match report.first_violation() {
        Some(v) => BugHuntOutcome::Found {
            transitions: v.transitions_explored,
            time: report.stats.duration,
            property: v.property.clone(),
        },
        None => BugHuntOutcome::Missed {
            transitions: report.stats.transitions,
            time: report.stats.duration,
        },
    }
}

/// Regenerates Table 2 for the given bugs.
pub fn table2(bugs: impl IntoIterator<Item = BugId>, max_transitions: u64) -> Vec<Table2Row> {
    bugs.into_iter()
        .map(|bug| Table2Row {
            bug,
            outcomes: StrategyKind::ALL
                .iter()
                .map(|&s| (s, hunt_bug(bug, s, max_transitions)))
                .collect(),
        })
        .collect()
}

/// One row of the design-choice ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The configuration label.
    pub label: String,
    /// Search statistics under that configuration.
    pub stats: SearchStats,
}

/// Regenerates the ablation rows for a given ping count: the canonical flow
/// table and the coarse `process_pkt` transition are each toggled
/// independently.
pub fn ablation(pings: u32, max_transitions: u64) -> Vec<AblationRow> {
    let base = CheckerConfig::default().with_max_transitions(max_transitions);
    vec![
        AblationRow {
            label: "baseline (canonical tables, coarse process_pkt)".into(),
            stats: exhaustive(ping_workload(pings, true), base.clone()),
        },
        AblationRow {
            label: "no canonical flow table (NO-SWITCH-REDUCTION)".into(),
            stats: exhaustive(ping_workload(pings, false), base.clone()),
        },
        AblationRow {
            label: "fine-grained packet processing (one port per transition)".into(),
            stats: exhaustive(
                ping_workload(pings, true),
                CheckerConfig {
                    coarse_packet_processing: false,
                    ..base
                },
            ),
        },
    ]
}

/// Renders search statistics as a compact table cell.
pub fn stats_cell(stats: &SearchStats) -> String {
    format!(
        "{} transitions, {} states, {:.2}s{}",
        stats.transitions,
        stats.unique_states,
        stats.duration.as_secs_f64(),
        if stats.truncated { " (truncated)" } else { "" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_workload_shape() {
        let s = ping_workload(2, true);
        assert_eq!(s.hosts.len(), 2);
        assert!(s.switch_config.canonical_flow_table);
        assert!(!ping_workload(2, false).switch_config.canonical_flow_table);
    }

    #[test]
    fn chain_fault_workload_is_dormant_without_injection() {
        let plain = exhaustive(chain_ping_workload(2, 1), CheckerConfig::default());
        let dormant = exhaustive(chain_fault_workload(2, 1), CheckerConfig::default());
        assert_eq!(plain.transitions, dormant.transitions);
        assert_eq!(plain.unique_states, dormant.unique_states);
        // With injection on, the crash/recovery interleavings enlarge the
        // state space.
        let faulty = exhaustive(
            chain_fault_workload(2, 1),
            CheckerConfig::default().with_fault_injection(true),
        );
        assert!(faulty.transitions > plain.transitions);
        assert!(faulty.faults.any(), "faults were injected and counted");
    }

    #[test]
    fn table1_rho_is_positive_for_two_pings() {
        let rows = table1([2], 0);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.nice.transitions > 0);
        assert!(
            row.no_reduction.unique_states >= row.nice.unique_states,
            "canonicalisation must not increase the state count"
        );
        assert!(row.rho() >= 0.0);
    }

    #[test]
    fn figure6_strategies_reduce_transitions() {
        let rows = figure6([2], 0);
        let row = &rows[0];
        assert!(row.no_delay.transitions <= row.full.transitions);
        assert!(row.flow_ir.transitions <= row.full.transitions);
        assert!(row.transition_reduction(&row.no_delay) >= 0.0);
    }

    #[test]
    fn comparison_generic_baseline_explores_more() {
        let rows = comparison([2], 0);
        let row = &rows[0];
        assert!(row.generic.transitions >= row.nice.transitions);
        assert!(row.transition_ratio() >= 1.0);
    }

    #[test]
    fn hunt_bug_finds_and_formats() {
        let outcome = hunt_bug(BugId::BugVIII, StrategyKind::FullDfs, 100_000);
        assert!(outcome.found());
        assert!(outcome.cell().contains('/'));
        let missed = BugHuntOutcome::Missed {
            transitions: 5,
            time: Duration::from_millis(1),
        };
        assert_eq!(missed.cell(), "Missed");
    }

    #[test]
    fn ablation_has_a_row_per_toggle() {
        let rows = ablation(2, 0);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.stats.transitions > 0));
        assert!(stats_cell(&rows[0].stats).contains("transitions"));
    }
}
