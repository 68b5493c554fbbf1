//! Testing the web-server load balancer of Section 8.2.
//!
//! Reproduces two findings from the paper, checking registry scenarios
//! through sessions bounded by a wall-clock budget:
//! * BUG-IV — after installing the per-connection rule the controller
//!   forgets to release the buffered packet (`NoForgottenPackets`).
//! * BUG-VII — a duplicate SYN during a policy change splits a TCP
//!   connection across replicas (`FlowAffinity`).
//!
//! Run with: `cargo run --release --example load_balancer`

use nice::prelude::*;
use nice::scenarios::find_scenario;
use std::time::Duration;

fn main() {
    println!("NICE: checking the OpenFlow load balancer");
    println!("=========================================");

    for (label, name) in [
        ("BUG-IV (forgotten packet)", "bug-iv-next-packet-dropped"),
        ("BUG-VII (duplicate SYN)", "bug-vii-duplicate-syn"),
    ] {
        let entry = find_scenario(name).expect("registered");
        // A session with a time budget: even a search that would blow the
        // transition budget ends within a minute, and the report says so
        // (`outcome: interrupted-by-deadline`) instead of silently lying.
        let config = CheckerConfig::default().with_max_transitions(300_000);
        let report = ModelChecker::new(entry.build(), config)
            .session()
            .with_time_budget(Duration::from_secs(60))
            .run();
        println!("\n{label}:");
        if report.outcome.interrupted() {
            println!("  search interrupted by its time budget before a verdict");
        }
        match report.first_violation() {
            Some(v) => {
                println!("  violated property : {}", v.property);
                println!("  message           : {}", v.message);
                println!("  trace length      : {} transitions", v.trace.len());
                println!(
                    "  found after       : {} transitions explored",
                    v.transitions_explored
                );
            }
            None => println!("  no violation found (unexpected)"),
        }
    }

    // The fixed load balancer releases every buffered packet.
    let entry = find_scenario("bug-iv-fixed").expect("registered");
    let config = CheckerConfig::default().with_max_transitions(300_000);
    let report = ModelChecker::new(entry.build(), config).run();
    println!(
        "\nfixed load balancer vs NoForgottenPackets: {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
}
