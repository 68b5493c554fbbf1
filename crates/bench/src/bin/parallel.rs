//! States/sec comparison of the exploration engines on the pyswitch FullDfs
//! chain-ping workload and the load-balancer workload (the BUG-V registry
//! entry): the default engine (the first row, which the speedups are
//! relative to), checkpointed replay, the parallel engine, the POR legs and
//! the explored-set tiers — the shared [`nice_bench::engine_configs`]
//! matrix.
//!
//! Usage: `parallel [switches] [pings] [workers] [--progress]`
//!
//! With `--progress`, each run streams its session's `Progress` events to
//! stderr while it explores.

use nice_bench::{chain_ping_workload, engine_configs, exhaustive_with, load_balancer_workload};
use nice_mc::{CheckEvent, NoopObserver, Scenario, SearchStats};

fn states_per_sec(stats: &SearchStats) -> f64 {
    stats.unique_states as f64 / stats.duration.as_secs_f64()
}

/// Prints `Progress` events to stderr; everything else is ignored.
fn progress_printer(engine: String) -> impl FnMut(&CheckEvent) + Send {
    move |event: &CheckEvent| {
        if let CheckEvent::Progress {
            states,
            transitions,
            rate,
            ..
        } = event
        {
            eprintln!("  [{engine}] {states} states / {transitions} transitions ({rate:.0}/s)");
        }
    }
}

fn run(label: &str, scenario: impl Fn() -> Scenario, workers: usize, progress: bool) {
    println!("{label}");
    println!(
        "{:<32} {:>12} {:>12} {:>12} {:>14}",
        "engine", "states", "transitions", "time", "states/sec"
    );
    println!("{}", "-".repeat(86));
    let mut baseline: Option<f64> = None;
    for (name, config) in engine_configs(workers) {
        let stats = if progress {
            exhaustive_with(scenario(), config, &mut progress_printer(name.clone()))
        } else {
            exhaustive_with(scenario(), config, &mut NoopObserver)
        };
        let rate = states_per_sec(&stats);
        let speedup = baseline.map(|b| rate / b).unwrap_or(1.0);
        baseline.get_or_insert(rate);
        println!(
            "{:<32} {:>12} {:>12} {:>11.2?} {:>11.0} ({speedup:.2}x)",
            name, stats.unique_states, stats.transitions, stats.duration, rate
        );
    }
    println!();
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let progress = args.iter().any(|a| a == "--progress");
    args.retain(|a| a != "--progress");
    let switches: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let pings: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let workers: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);

    run(
        &format!("pyswitch FullDfs chain workload, {switches} switches, {pings} pings"),
        || chain_ping_workload(switches, pings),
        workers,
        progress,
    );
    run(
        "load balancer (BUG-V scenario), FullDfs",
        load_balancer_workload,
        workers,
        progress,
    );
}
