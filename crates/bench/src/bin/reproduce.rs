//! Regenerates the paper's evaluation tables on the layer-2 ping workload
//! and the bug registry: Table 1 (NICE-MC vs NO-SWITCH-REDUCTION), Figure 6
//! (the search strategies' reductions) and Table 2 (transitions / time to
//! the first violation of each bug), then says what is not reproduced.
//!
//! Usage: `reproduce [table1|figure6|table2]` (default: all three)

use nice_apps::scenarios::BugId;
use nice_bench::{figure6, stats_cell, table1, table2};

/// The paper's 5-ping rows take as long as they did in the paper; the
/// tables stop at 4.
const MAX_PINGS: u32 = 4;
/// Transition budget of one Table 2 cell.
const HUNT_BUDGET: u64 = 200_000;

fn main() {
    let only = std::env::args().nth(1);
    let tables: [(&str, fn()); 3] = [
        ("table1", print_table1),
        ("figure6", print_figure6),
        ("table2", print_table2),
    ];
    if let Some(name) = &only {
        if !tables.iter().any(|(table, _)| table == name) {
            eprintln!("unknown table '{name}'; usage: reproduce [table1|figure6|table2]");
            std::process::exit(2);
        }
    }
    for (name, print) in tables {
        if only.as_deref().is_none_or(|only| only == name) {
            print();
            println!();
        }
    }
    println!(
        "§7 SPIN/JPF comparison: not reproduced — the models cannot be obtained offline; \
         the per-port stand-in read 1.0x and was retracted"
    );
}

fn print_table1() {
    println!("Table 1: NICE-MC vs NO-SWITCH-REDUCTION (layer-2 ping workload, pyswitch)");
    println!(
        "{:<6} | {:<45} | {:<45} | {:>6}",
        "Pings", "NICE-MC (transitions, states, time)", "NO-SWITCH-REDUCTION", "rho"
    );
    println!("{}", "-".repeat(115));
    for row in table1(2..=MAX_PINGS, 0) {
        println!(
            "{:<6} | {:<45} | {:<45} | {:>6.2}",
            row.pings,
            stats_cell(&row.nice),
            stats_cell(&row.no_reduction),
            row.rho()
        );
    }
    println!();
    println!("rho = (Unique(NO-SWITCH-REDUCTION) - Unique(NICE-MC)) / Unique(NO-SWITCH-REDUCTION)");
}

fn print_figure6() {
    println!("Figure 6: relative reduction vs NICE-MC full search (higher is better)");
    println!(
        "{:<6} | {:>22} | {:>22} | {:>22} | {:>18} | {:>18}",
        "Pings",
        "NO-DELAY transitions",
        "FLOW-IR transitions",
        "UNUSUAL transitions",
        "NO-DELAY CPU time",
        "FLOW-IR CPU time"
    );
    println!("{}", "-".repeat(125));
    let rows = figure6(2..=MAX_PINGS, 0);
    for row in &rows {
        println!(
            "{:<6} | {:>21.1}% | {:>21.1}% | {:>21.1}% | {:>17.1}% | {:>17.1}%",
            row.pings,
            100.0 * row.transition_reduction(&row.no_delay),
            100.0 * row.transition_reduction(&row.flow_ir),
            100.0 * row.transition_reduction(&row.unusual),
            100.0 * row.time_reduction(&row.no_delay),
            100.0 * row.time_reduction(&row.flow_ir),
        );
    }
    println!();
    println!("Baseline (full search) sizes:");
    for row in &rows {
        println!(
            "  {} pings: {} transitions, {} unique states",
            row.pings, row.full.transitions, row.full.unique_states
        );
    }
}

fn print_table2() {
    println!("Table 2: transitions / time to the first violation uncovering each bug");
    println!("(budget: {HUNT_BUDGET} transitions per cell; 'Missed' = not found within the reduced search space/budget)");
    println!();
    println!(
        "{:<5} {:<14} {:<24} | {:>16} | {:>16} | {:>16} | {:>16}",
        "BUG", "application", "property", "PKT-SEQ only", "NO-DELAY", "FLOW-IR", "UNUSUAL"
    );
    println!("{}", "-".repeat(125));
    for row in table2(BugId::ALL, HUNT_BUDGET) {
        let cells: Vec<String> = row.outcomes.iter().map(|(_, o)| o.cell()).collect();
        println!(
            "{:<5} {:<14} {:<24} | {:>16} | {:>16} | {:>16} | {:>16}",
            row.bug.label(),
            row.bug.application(),
            row.bug.property_name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
}
