//! Using NICE as a simulator: random walks over the system state space
//! (Section 1.3: "the programmer can also use NICE as a simulator to perform
//! manually-driven, step-by-step system executions or random walks").
//!
//! Compares how quickly random walks and the systematic search find BUG-VIII
//! in the traffic-engineering application; the systematic leg runs as a
//! session so the moment of detection is streamed live.
//!
//! Run with: `cargo run --release --example random_walk`

use nice::prelude::*;
use nice::scenarios::find_scenario;

fn main() {
    let entry = find_scenario("bug-viii-first-packet-dropped").expect("registered");
    let config = CheckerConfig::default().with_max_transitions(200_000);
    let checker = ModelChecker::new(entry.build(), config);

    println!("Random-walk simulation vs systematic search (BUG-VIII)");
    println!("=======================================================");

    for seed in [1u64, 7, 42] {
        let report = checker.run_random_walk(seed, 20, 200);
        println!(
            "random walks (seed {seed:>2}): {} transitions, {} walks hit a violation: {}",
            report.stats.transitions,
            report.violations.len(),
            if report.violations.is_empty() {
                "none found"
            } else {
                "found"
            }
        );
    }

    let report = checker.session().run_with(&mut |event: &CheckEvent| {
        if let CheckEvent::ViolationFound(v) = event {
            println!(
                "systematic search     : {} found after {} transitions (streamed)",
                v.property, v.transitions_explored
            );
        }
    });
    println!(
        "systematic search     : {} transitions, violation {}",
        report.stats.transitions,
        if report.violations.is_empty() {
            "not found"
        } else {
            "found"
        }
    );
    if let Some(v) = report.first_violation() {
        println!("  shortest trace has {} steps", v.trace.len());
    }
}
