//! `nice reproduce [table1|figure6|table2]`: the paper's evaluation on the
//! layer-2 ping workload and the bug registry — Table 1 (NICE-MC vs
//! NO-SWITCH-REDUCTION and the state-space reduction ρ), Figure 6 (the
//! search strategies' reductions against the full search) and Table 2
//! (transitions / time to the first violation of each bug) — then what is
//! not reproduced: the §7 comparison against SPIN and JPF, whose models
//! cannot be obtained offline.
//!
//! Each table computes a row where it prints it. The tier-1 suites hold the
//! engines' counts exactly and `benchmark/` measures speed; this prints the
//! rows in the paper's shape.

use crate::usage_error;
use nice_apps::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::ping_workload;
use nice_mc::{CheckerConfig, ModelChecker, Scenario, SearchStats, StrategyKind};

/// The paper's 5-ping rows take as long as they did in the paper; the
/// tables stop at 4.
const MAX_PINGS: u32 = 4;
/// Transition budget of one Table 2 cell.
const HUNT_BUDGET: u64 = 200_000;

/// The tables by the name that selects one.
const TABLES: [(&str, fn()); 3] = [
    ("table1", print_table1),
    ("figure6", print_figure6),
    ("table2", print_table2),
];

/// Prints the named table (all three without a name), then the §7 line. An
/// unknown name is a usage error, refused before any search runs.
pub(crate) fn cmd_reproduce(args: &[String]) -> i32 {
    let only = match args {
        [] => None,
        [name] if TABLES.iter().any(|(table, _)| table == name) => Some(name.as_str()),
        [name] => return usage_error(&format!("unknown table '{name}' (table1, figure6, table2)")),
        _ => return usage_error("reproduce takes at most one table name"),
    };
    for (name, print) in TABLES {
        if only.is_none_or(|only| only == name) {
            print();
            outln!("");
        }
    }
    outln!(
        "§7 SPIN/JPF comparison: not reproduced — the models cannot be obtained offline; \
         the per-port stand-in read 1.0x and was retracted"
    );
    0
}

/// An exhaustive search of `scenario` under `strategy`: no transition
/// budget, no stop at a violation.
fn exhaustive(scenario: Scenario, strategy: StrategyKind) -> SearchStats {
    let config = (CheckerConfig::default().with_strategy(strategy))
        .with_max_transitions(0)
        .with_stop_at_first(false);
    ModelChecker::new(scenario, config).run().stats
}

fn print_table1() {
    outln!("Table 1: NICE-MC vs NO-SWITCH-REDUCTION (layer-2 ping workload, pyswitch)");
    outln!(
        "{:<6} | {:<45} | {:<45} | {:>6}",
        "Pings",
        "NICE-MC (transitions, states, time)",
        "NO-SWITCH-REDUCTION",
        "rho"
    );
    outln!("{}", "-".repeat(115));
    for pings in 2..=MAX_PINGS {
        outln!("{}", table1_row(pings));
    }
    outln!("");
    outln!("rho = (Unique(NO-SWITCH-REDUCTION) - Unique(NICE-MC)) / Unique(NO-SWITCH-REDUCTION)");
}

/// Table 1's row for `pings` pings: the canonical switch model (NICE-MC)
/// and the plain one, exhaustively, and ρ.
fn table1_row(pings: u32) -> String {
    let nice = exhaustive(ping_workload(pings, true), StrategyKind::FullDfs);
    let plain = exhaustive(ping_workload(pings, false), StrategyKind::FullDfs);
    let rho = match plain.unique_states {
        0 => 0.0,
        all => (all as f64 - nice.unique_states as f64) / all as f64,
    };
    let cell = |stats: &SearchStats| {
        let (transitions, states) = (stats.transitions, stats.unique_states);
        let truncated = if stats.truncated { " (truncated)" } else { "" };
        let secs = stats.duration.as_secs_f64();
        format!("{transitions} transitions, {states} states, {secs:.2}s{truncated}")
    };
    format!(
        "{pings:<6} | {:<45} | {:<45} | {rho:>6.2}",
        cell(&nice),
        cell(&plain)
    )
}

fn print_figure6() {
    outln!(
        "Figure 6: relative reduction vs NICE-MC full search (higher is better; \
         time is wall-clock, one worker)"
    );
    outln!(
        "{:<6} | {:>22} | {:>22} | {:>22} | {:>18} | {:>18}",
        "Pings",
        "NO-DELAY transitions",
        "FLOW-IR transitions",
        "UNUSUAL transitions",
        "NO-DELAY wall time",
        "FLOW-IR wall time"
    );
    outln!("{}", "-".repeat(125));
    let mut baselines = Vec::new();
    for pings in 2..=MAX_PINGS {
        let (row, full) = figure6_row(pings);
        outln!("{row}");
        baselines.push((pings, full));
    }
    outln!("");
    outln!("Baseline (full search) sizes:");
    for (pings, full) in baselines {
        outln!(
            "  {pings} pings: {} transitions, {} unique states",
            full.transitions,
            full.unique_states
        );
    }
}

/// Figure 6's row for `pings` pings — how much NO-DELAY, FLOW-IR and
/// UNUSUAL cut the full search's transitions, and NO-DELAY and FLOW-IR its
/// wall-clock time — and the full search it is relative to.
fn figure6_row(pings: u32) -> (String, SearchStats) {
    let [full, no_delay, flow_ir, unusual] =
        StrategyKind::ALL.map(|strategy| exhaustive(ping_workload(pings, true), strategy));
    // The percentage by which `part` is less than `whole`.
    let cut = |part: f64, whole: f64| {
        if whole == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - part / whole)
    };
    let transitions = |s: &SearchStats| cut(s.transitions as f64, full.transitions as f64);
    let time = |s: &SearchStats| cut(s.duration.as_secs_f64(), full.duration.as_secs_f64());
    let [nd, fi, un] = [&no_delay, &flow_ir, &unusual].map(transitions);
    let (nd_time, fi_time) = (time(&no_delay), time(&flow_ir));
    let row = format!(
        "{pings:<6} | {nd:>21.1}% | {fi:>21.1}% | {un:>21.1}% | {nd_time:>17.1}% | {fi_time:>17.1}%"
    );
    (row, full)
}

fn print_table2() {
    outln!("Table 2: transitions / time to the first violation uncovering each bug");
    outln!("(budget: {HUNT_BUDGET} transitions per cell; 'Missed' = not found within the reduced search space/budget)");
    outln!("");
    let row = |bug: &str, app: &str, property: &str, cells: [String; 4]| {
        let cells = cells.map(|cell| format!("{cell:>16}")).join(" | ");
        outln!("{bug:<5} {app:<14} {property:<24} | {cells}");
    };
    let strategies = ["PKT-SEQ only", "NO-DELAY", "FLOW-IR", "UNUSUAL"];
    row(
        "BUG",
        "application",
        "property",
        strategies.map(String::from),
    );
    outln!("{}", "-".repeat(125));
    for bug in BugId::ALL {
        let cells = StrategyKind::ALL.map(|strategy| hunt_bug(bug, strategy));
        row(bug.label(), bug.application(), bug.property_name(), cells);
    }
}

/// Table 2's cell for `bug` under `strategy`, with fault injection on where
/// the bug needs it (BUG-XII): `transitions / time` to the first violation,
/// or `Missed` when the budget or the reduced search space ran out first.
fn hunt_bug(bug: BugId, strategy: StrategyKind) -> String {
    let config = (CheckerConfig::default().with_strategy(strategy))
        .with_max_transitions(HUNT_BUDGET)
        .with_fault_injection(bug.requires_faults());
    let report = ModelChecker::new(bug_scenario(bug), config).run();
    let secs = report.stats.duration.as_secs_f64();
    match report.first_violation() {
        Some(v) => format!("{} / {secs:.2}s", v.transitions_explored),
        None => "Missed".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `|`-separated columns of a table row, trimmed.
    fn columns(row: &str) -> Vec<&str> {
        row.split('|').map(str::trim).collect()
    }

    /// The count before ` <unit>` in a Table 1 cell.
    fn count(cell: &str, unit: &str) -> u64 {
        let part = cell.split(", ").find(|p| p.ends_with(unit)).expect(unit);
        let number = part.split(' ').next().expect("a count");
        number.parse().expect("a number")
    }

    #[test]
    fn table1_rho_is_not_negative_for_two_pings() {
        let row = table1_row(2);
        let columns = columns(&row);
        assert_eq!(columns[0], "2", "{row}");
        assert!(count(columns[1], "transitions") > 0, "{row}");
        assert!(
            count(columns[2], "states") >= count(columns[1], "states"),
            "canonicalisation must not increase the state count: {row}"
        );
        let rho: f64 = columns[3].parse().expect("rho");
        assert!(rho >= 0.0, "{row}");
    }

    #[test]
    fn figure6_strategies_reduce_transitions() {
        let (row, full) = figure6_row(2);
        assert!(full.transitions > 0);
        // NO-DELAY, FLOW-IR and UNUSUAL each take at most the full
        // search's transitions.
        for column in &columns(&row)[1..4] {
            let cut: f64 = column.trim_end_matches('%').parse().expect("a percentage");
            assert!(cut >= 0.0, "{row}");
        }
    }

    #[test]
    fn hunt_bug_finds_and_formats() {
        let cell = hunt_bug(BugId::BugVIII, StrategyKind::FullDfs);
        let (transitions, time) = cell.split_once(" / ").expect("transitions / time");
        assert!(transitions.parse::<u64>().expect("a count") > 0, "{cell}");
        let seconds = time.strip_suffix('s').expect("seconds");
        assert!(seconds.parse::<f64>().is_ok(), "{cell}");
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
        for bug in BugId::ALL {
            for strategy in StrategyKind::ALL {
                let cell = pinned.next().expect("12 x 4 cells");
                assert_eq!(cell.str("bug"), Ok(bug.label()));
                assert_eq!(cell.str("strategy"), Ok(strategy.name()));
                let violated = !cell.arr("violated").expect("violated").is_empty();
                let found = hunt_bug(bug, strategy) != "Missed";
                assert_eq!(found, violated, "BUG-{} x {strategy:?}", bug.label());
            }
        }
        assert!(pinned.next().is_none(), "a cell Table 2 does not print");
    }

    /// An unknown table name is refused before any table runs: in a debug
    /// build the three tables take far longer than the bound here.
    #[test]
    fn an_unknown_table_exits_2_without_running_a_search() {
        let started = std::time::Instant::now();
        for args in [&["nosuch"][..], &["table1", "table2"]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(cmd_reproduce(&args), 2, "{args:?}");
        }
        assert!(started.elapsed().as_secs() < 2, "{:?}", started.elapsed());
    }
}
