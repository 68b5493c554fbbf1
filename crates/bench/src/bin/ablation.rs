//! Ablation of two design choices: canonical flow tables and the coarse
//! `process_pkt` transition.
//!
//! Usage: `ablation [pings] [max_transitions]`

use nice_bench::{ablation, stats_cell};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pings: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let max_transitions: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);

    println!("Design-choice ablation ({pings}-ping workload)");
    println!("{}", "-".repeat(110));
    for row in ablation(pings, max_transitions) {
        println!("{:<68} | {}", row.label, stats_cell(&row.stats));
    }
}
