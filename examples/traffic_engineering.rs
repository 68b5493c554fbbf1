//! Testing the energy-efficient traffic-engineering application of
//! Section 8.3 on the triangle topology (always-on path through switches
//! 1–2, on-demand path through switch 3).
//!
//! Reproduces BUG-VIII (first packet of a flow dropped), BUG-X (only
//! on-demand routes used under high load, caught by the application-specific
//! `UseCorrectRoutingTable` property) and shows the fixed variant passing —
//! all resolved by name from the scenario registry and driven as sessions.
//!
//! Run with: `cargo run --release --example traffic_engineering`

use nice::prelude::*;
use nice::scenarios::find_scenario;

fn main() {
    println!("NICE: checking the energy-aware traffic-engineering application");
    println!("===============================================================");

    for (label, name) in [
        (
            "BUG-VIII (first packet dropped)",
            "bug-viii-first-packet-dropped",
        ),
        (
            "BUG-X (only on-demand routes under high load)",
            "bug-x-only-on-demand-routes",
        ),
    ] {
        let entry = find_scenario(name).expect("registered");
        let config = CheckerConfig::default().with_max_transitions(300_000);
        let report = ModelChecker::new(entry.build(), config).session().run_with(
            &mut |event: &CheckEvent| {
                if let CheckEvent::Started { scenario, .. } = event {
                    println!("\n{label} [{scenario}]:");
                }
            },
        );
        match report.first_violation() {
            Some(v) => {
                println!("  violated property : {}", v.property);
                println!("  message           : {}", v.message);
                println!("  shortest trace    :");
                for (i, step) in v.trace.iter().enumerate() {
                    println!("    {:>2}. {step}", i + 1);
                }
            }
            None => println!("  no violation found (unexpected)"),
        }
    }

    let entry = find_scenario("bug-x-fixed").expect("registered");
    let config = CheckerConfig::default().with_max_transitions(300_000);
    let report = ModelChecker::new(entry.build(), config).run();
    println!(
        "\nfixed traffic engineering vs UseCorrectRoutingTable: {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
}
