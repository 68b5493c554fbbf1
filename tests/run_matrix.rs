//! The run matrix, pinned: every registry scenario × the four strategies ×
//! {no reduction, POR} × {plain, `--faults`}, each searched the way `nice run
//! <name> --all-violations` searches it (one worker, the default budget), and
//! every count held to `tests/run_matrix.golden`. So a count moves only in a
//! diff of that file.
//!
//! BUG-VII under `--faults` runs only to its first violation: exhausted, it
//! finds 275 730 violations and keeps a witness for each, about 1.2 GB.
//!
//! Times are not recorded. On a mismatch the test writes the matrix it saw to
//! `target/tmp/run_matrix.observed` and names the cells that differ; when the
//! change is meant, copy that file over the golden.

use nice::apps::workloads::resolve;
use nice::prelude::*;
use nice::scenarios::registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const GOLDEN: &str = include_str!("run_matrix.golden");

/// The one scenario whose `--faults` cells stop at the first violation.
const FIRST_VIOLATION_ONLY: &str = "bug-vii-duplicate-syn";

/// One cell of the matrix: which search, by name.
struct Cell {
    name: String,
    strategy: StrategyKind,
    reduction: ReductionKind,
    faults: bool,
}

impl Cell {
    /// The cell's key in the golden: `<name> <strategy> <reduction> <plain|faults>`.
    fn key(&self) -> String {
        let faults = if self.faults { "faults" } else { "plain" };
        let (strategy, reduction) = (self.strategy.name(), self.reduction.name());
        format!("{} {strategy} {reduction} {faults}", self.name)
    }

    /// Runs the cell's search and renders its counts as one golden line.
    fn run(&self) -> String {
        let scenario = resolve(&self.name).expect("a registry name resolves");
        let all = !(self.faults && self.name == FIRST_VIOLATION_ONLY);
        let config = CheckerConfig::default()
            .with_strategy(self.strategy)
            .with_reduction(self.reduction)
            .with_fault_injection(self.faults)
            .with_stop_at_first(!all);
        let report = ModelChecker::new(scenario, config).run();
        let stats = &report.stats;
        let mut violated: Vec<&str> = (report.violations.iter())
            .map(|v| v.property.as_str())
            .collect();
        violated.sort_unstable();
        violated.dedup();
        let faults: Vec<String> = (stats.faults.labeled().iter())
            .map(|(kind, count)| format!("{kind}:{count}"))
            .collect();
        format!(
            "{}: {} transitions={} states={} terminal={} dedup_hits={} \
             pruned_by_strategy={} pruned_by_por={} peak_explored_bytes={} max_depth={} \
             faults={} violations={} violated=[{}]",
            self.key(),
            report.outcome.label(stats.truncated),
            stats.transitions,
            stats.unique_states,
            stats.terminal_states,
            stats.dedup_hits,
            stats.pruned_by_strategy,
            stats.pruned_by_por,
            stats.peak_explored_bytes,
            stats.max_depth,
            faults.join(","),
            report.violations.len(),
            violated.join(","),
        )
    }
}

/// The 288 cells, in golden order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for entry in registry() {
        for strategy in StrategyKind::ALL {
            for reduction in ReductionKind::ALL {
                for faults in [false, true] {
                    cells.push(Cell {
                        name: entry.name.clone(),
                        strategy,
                        reduction,
                        faults,
                    });
                }
            }
        }
    }
    cells
}

/// Runs every cell, spread over the test's threads, and returns the lines
/// in cell order.
fn observe(cells: &[Cell]) -> Vec<String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let lines = Mutex::new(vec![String::new(); cells.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(index) else { break };
                let line = cell.run();
                lines.lock().unwrap()[index] = line;
            });
        }
    });
    lines.into_inner().unwrap()
}

/// The golden's lines keyed by cell, comments and blank lines left out.
fn golden_cells(text: &str) -> BTreeMap<&str, &str> {
    (text.lines())
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| (line.split_once(": ").map_or(line, |(key, _)| key), line))
        .collect()
}

#[test]
fn every_cell_of_the_run_matrix_matches_the_golden() {
    let cells = cells();
    assert_eq!(cells.len(), 288, "18 names × 4 strategies × 2 × 2");
    let observed = observe(&cells);
    let golden = golden_cells(GOLDEN);
    let differ: Vec<String> = (cells.iter().zip(&observed))
        .filter(|(cell, line)| golden.get(cell.key().as_str()) != Some(&line.as_str()))
        .map(|(cell, _)| cell.key())
        .collect();
    if differ.is_empty() && golden.len() == cells.len() {
        return;
    }
    let header: String = (GOLDEN.lines())
        .take_while(|line| line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_matrix.observed");
    std::fs::write(&path, header + &observed.join("\n") + "\n").expect("write the observed matrix");
    panic!(
        "{} of {} cells differ from tests/run_matrix.golden ({} golden lines); the observed \
         matrix is in {}:\n  {}",
        differ.len(),
        cells.len(),
        golden.len(),
        path.display(),
        differ.join("\n  "),
    );
}
