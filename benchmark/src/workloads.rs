//! How each workload configures the checker — shared by `bench`, which
//! times the operations, and `probe`, which must look into the same
//! searches.
//!
//! Binding surface: like all of `bench`, this file uses only
//! `nice_apps::scenarios::{find_scenario, BugId}`, `CheckerConfig::default()`
//! with its `with_*` builders and the fields of `CheckReport` — the calls a
//! user's own harness would make, and the ones ROADMAP does not plan to
//! remove.

use crate::Rng;
use nice_apps::scenarios::{find_scenario, BugId};
use nice_mc::{CheckReport, CheckerConfig, ReductionKind, Scenario, StrategyKind};
use std::collections::BTreeSet;

/// The workload whose operations go through `nice serve`.
pub const SERVED: &str = "serve_roundtrip";
/// Worker processes of the served workload, and worker threads of the
/// parallel one: this box's `nproc`. More would measure the scheduler of the
/// operating system, not the checker's.
pub const WORKERS: usize = 2;
/// The workload that is a sweep of many small searches.
pub const BUGHUNT: &str = "table2_bughunt";

/// The transition budget of one Table 2 cell, as in the paper's bug hunt:
/// a strategy that has not found the bug by then has missed it.
const HUNT_BUDGET: u64 = 200_000;

/// The configuration every exhaustive leg shares: collect all violations,
/// no transition budget.
pub fn exhaustive() -> CheckerConfig {
    CheckerConfig::default()
        .with_stop_at_first(false)
        .with_max_transitions(0)
}

/// How a single-search workload configures the checker. The served workload
/// is the plain exhaustive search; `nice submit` spells it in flags.
pub fn configure(workload: &str) -> Option<CheckerConfig> {
    match workload {
        "table1_ping4" | "chain8_deep" | SERVED => Some(exhaustive()),
        "lb_faults_por" => Some(
            exhaustive()
                .with_fault_injection(true)
                .with_reduction(ReductionKind::Por),
        ),
        "parallel2_chain" => Some(exhaustive().with_workers(WORKERS)),
        _ => None,
    }
}

/// How many cores a workload keeps busy: the worker threads of the parallel
/// one, the worker processes of the served one, one otherwise. Calibration
/// slices run on as many (see `calibrate`).
pub fn busy_cores(workload: &str) -> usize {
    match workload {
        SERVED => WORKERS,
        _ => configure(workload).map_or(1, |config| config.workers),
    }
}

/// The set of properties a report found violated.
pub fn violated(report: &CheckReport) -> BTreeSet<String> {
    report
        .violations
        .iter()
        .map(|v| v.property.clone())
        .collect()
}

/// The cells of Table 2, every bug under every strategy, in the order
/// `seed` puts them.
pub fn shuffled_cells(seed: u64) -> Vec<(BugId, StrategyKind)> {
    let mut cells: Vec<(BugId, StrategyKind)> = BugId::ALL
        .into_iter()
        .flat_map(|bug| StrategyKind::ALL.into_iter().map(move |s| (bug, s)))
        .collect();
    Rng::new(seed).shuffle(&mut cells);
    cells
}

/// One Table 2 cell: stop at the first violation, within the hunt budget;
/// faults only where the bug needs them (BUG-XII).
pub fn hunt_config(bug: BugId, strategy: StrategyKind) -> CheckerConfig {
    CheckerConfig::default()
        .with_strategy(strategy)
        .with_max_transitions(HUNT_BUDGET)
        .with_fault_injection(bug.requires_faults())
}

/// The registry's `*-fixed` scenarios, in Table 2 order.
pub fn fixed_names() -> impl Iterator<Item = &'static str> {
    BugId::ALL
        .into_iter()
        .filter_map(|bug| bug.fixed_scenario_name())
}

/// A fixed variant and the exhaustive search that must pass on it.
pub fn fixed_search(name: &str) -> Result<(Scenario, CheckerConfig), String> {
    let entry = find_scenario(name).ok_or_else(|| format!("'{name}' left the registry"))?;
    let config = exhaustive().with_fault_injection(entry.requires_faults);
    Ok((entry.build(), config))
}
