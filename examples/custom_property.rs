//! Writing a custom, application-specific correctness property — and
//! assembling the whole scenario with the fluent `ScenarioBuilder`.
//!
//! The paper lets programmers express correctness as Python snippets that
//! observe transitions and assert over the global state (Section 5.1). Here
//! the same role is played by implementing the `Property` trait: this example
//! defines "the controller never floods more than a bounded number of times"
//! and checks the MAC-learning switch against it on the Figure 1 topology.
//!
//! Run with: `cargo run --release --example custom_property`

use nice::apps::pyswitch::{PySwitchApp, PySwitchVariant};
use nice::mc::properties::Event;
use nice::mc::state::SystemState;
use nice::openflow::EthType;
use nice::prelude::*;

/// A custom property: flooding is allowed only a bounded number of times per
/// execution (a crude proxy for "the controller eventually learns paths").
#[derive(Debug, Clone)]
struct BoundedFlooding {
    max_floods: usize,
    floods_seen: usize,
}

impl BoundedFlooding {
    fn new(max_floods: usize) -> Self {
        BoundedFlooding {
            max_floods,
            floods_seen: 0,
        }
    }
}

impl Property for BoundedFlooding {
    fn name(&self) -> &str {
        "BoundedFlooding"
    }

    fn on_event(&mut self, event: &Event, _state: &SystemState) {
        if let Event::PacketFlooded { .. } = event {
            self.floods_seen += 1;
        }
    }

    fn check(&self, _state: &SystemState) -> Option<String> {
        (self.floods_seen > self.max_floods).then(|| {
            format!(
                "the controller flooded {} times (allowed: {})",
                self.floods_seen, self.max_floods
            )
        })
    }

    fn clone_property(&self) -> Box<dyn Property> {
        Box::new(self.clone())
    }
}

fn main() {
    // The system under test, assembled from scratch with the builder: the
    // Figure 1 topology, the published pyswitch, a pinging client, an
    // echoing peer, symbolic packet discovery over the layer-2 ping
    // domains, and our custom property.
    let topology = Topology::linear_two_switches();
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let domains = PacketDomains::from_topology(&topology)
        .with_eth_types(vec![EthType::L2Ping.value() as u64])
        .with_ports(vec![0])
        .with_payloads(vec![0]);

    let scenario = Scenario::builder("pyswitch-bounded-flooding")
        .topology(topology)
        .app(Box::new(PySwitchApp::new(PySwitchVariant::Original)))
        .host(Box::new(ClientHost::new(
            host_a,
            SendBudget::sends_with_burst(2, 1),
        )))
        .host(Box::new(
            ClientHost::new(host_b, SendBudget::SILENT).with_echo(),
        ))
        .send_policy(SendPolicy::Discover)
        .packet_domains(domains)
        .property(Box::new(BoundedFlooding::new(2)))
        .build();

    let config = CheckerConfig::default().with_max_transitions(100_000);
    let report = ModelChecker::new(scenario, config).run();
    println!("custom property check: {report}");
    match report.first_violation() {
        Some(v) => println!("violation found as expected: {}", v.message),
        None => println!("no violation found — try lowering the flood budget"),
    }
}
