//! # nice-bench
//!
//! The harness that regenerates the tables and figures of the paper's
//! evaluation (Section 7 and Section 8):
//!
//! * [`table1`] — exhaustive search, NICE-MC vs NO-SWITCH-REDUCTION
//!   (Table 1), including the state-space-reduction metric ρ.
//! * [`figure6`] — relative reduction of the NO-DELAY and FLOW-IR search
//!   strategies vs the full search (Figure 6).
//! * [`table2`] — transitions / time to the first violation for each of the
//!   twelve bugs under the four search strategies (Table 2).
//!
//! The Section 7 comparison against SPIN and JPF is not reproduced: their
//! models cannot be obtained offline.
//!
//! The `reproduce` binary prints the rows in the same shape as the paper;
//! the tier-1 suites hold the engines' counts and the repo benchmark
//! (`benchmark/`) measures speed, not this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nice_apps::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::ping_workload;
use nice_mc::{CheckerConfig, ModelChecker, Scenario, SearchStats, StrategyKind};
use std::time::Duration;

/// Runs an exhaustive search (no early stop at a violation) and returns the
/// search statistics.
pub fn exhaustive(scenario: Scenario, config: CheckerConfig) -> SearchStats {
    ModelChecker::new(scenario, config.with_stop_at_first(false))
        .run()
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

/// Hunts one bug with one strategy under a transition budget, with fault
/// injection on where the bug needs it (BUG-XII).
pub fn hunt_bug(bug: BugId, strategy: StrategyKind, max_transitions: u64) -> BugHuntOutcome {
    let report = ModelChecker::new(
        bug_scenario(bug),
        CheckerConfig::default()
            .with_strategy(strategy)
            .with_max_transitions(max_transitions)
            .with_fault_injection(bug.requires_faults()),
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
    use nice_apps::workloads::{chain_fault_workload, chain_ping_workload};

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
    fn table1_rho_is_not_negative_for_two_pings() {
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

    /// Table 2's found/missed matrix is the one `benchmark/expected.json`
    /// pins for the `table2_bughunt` workload: one source of truth.
    #[test]
    fn table2_matches_the_benchmark_expectations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/expected.json");
        let text = std::fs::read_to_string(path).expect("benchmark/expected.json");
        let expected = nice_mc::Json::parse(&text).expect("expected.json parses");
        let cells = expected.get("table2_bughunt").and_then(|t| t.arr("cells"));
        let mut pinned = cells.expect("table2_bughunt.cells").iter();
        for row in table2(BugId::ALL, 200_000) {
            for (strategy, outcome) in &row.outcomes {
                let cell = pinned.next().expect("12 x 4 cells");
                assert_eq!(cell.str("bug"), Ok(row.bug.label()));
                assert_eq!(cell.str("strategy"), Ok(strategy.name()));
                let violated = !cell.arr("violated").expect("violated").is_empty();
                let label = row.bug.label();
                assert_eq!(outcome.found(), violated, "BUG-{label} x {strategy:?}");
            }
        }
        assert!(pinned.next().is_none(), "a cell Table 2 does not print");
    }
}
