//! Quickstart: test the MAC-learning switch of Figure 3 with NICE.
//!
//! Runs two checks from the scenario registry on the two-switch topology of
//! Figure 1, driving each through an observable check *session*:
//! 1. The published pyswitch violates `StrictDirectPaths` (BUG-II: the
//!    controller only installs rules for one direction at a time) — the
//!    violation is streamed the moment the search finds it.
//! 2. The fixed variant (install the reverse rule first) passes.
//!
//! Run with: `cargo run --release --example quickstart`

use nice::prelude::*;
use nice::scenarios::{find_scenario, ScenarioEntry};

/// Checks one registry entry through the session API, streaming progress
/// and violations as they happen, and returns the final report.
fn check_streaming(entry: &ScenarioEntry) -> CheckReport {
    let config = CheckerConfig::default()
        .with_strategy(StrategyKind::FullDfs)
        .with_max_transitions(200_000);
    ModelChecker::new(entry.build(), config)
        .session()
        .with_progress_every(5_000)
        .run_with(&mut |event: &CheckEvent| match event {
            CheckEvent::Started {
                scenario, strategy, ..
            } => {
                println!("  checking {scenario} with {strategy}...")
            }
            CheckEvent::Progress {
                states,
                transitions,
                rate,
                ..
            } => {
                println!("  ... {states} states / {transitions} transitions ({rate:.0} states/s)")
            }
            CheckEvent::ViolationFound(v) => {
                println!(
                    "  ! {} violated after {} transitions",
                    v.property, v.transitions_explored
                )
            }
            CheckEvent::Finished(_) => {}
        })
}

fn main() {
    println!("NICE quickstart (v{})", nice::VERSION);
    println!("=================================================");

    // 1. Check the original pyswitch (the registry names every scenario;
    //    `nice list` prints the same set).
    let buggy = find_scenario("bug-ii-delayed-direct-path").expect("registered");
    println!("\n[1] pyswitch (as published) vs StrictDirectPaths:");
    let report = check_streaming(&buggy);
    println!("{report}");
    assert!(!report.passed(), "expected to reproduce BUG-II");

    // 2. Check the fixed variant on the same workload.
    let fixed = find_scenario("bug-ii-fixed").expect("registered");
    println!("\n[2] pyswitch (two-way install fix) vs StrictDirectPaths:");
    let report = check_streaming(&fixed);
    println!("{report}");
    assert!(report.passed(), "the fix must satisfy StrictDirectPaths");

    println!("\nDone: the bug is reproduced and the fix verified.");
}
