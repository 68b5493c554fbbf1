//! The benchmark workloads of Section 7, packaged as ready-to-build
//! scenarios so every front-end — the `nice` CLI (`nice reproduce` among
//! its commands) and the `nice-dist` worker processes — constructs
//! bit-identical systems from a name alone.

use crate::pyswitch::{PySwitchApp, PySwitchVariant};
use crate::scenarios::find_scenario;
use nice_hosts::{ClientHost, HostModel, SendBudget};
use nice_mc::{FaultPlan, Scenario};
use nice_openflow::{HostId, Packet, PortId, SwitchConfig, SwitchId, Topology};

/// The layer-2 ping workload of Section 7: host A sends `pings` pings to
/// host B over the Figure 1 topology, host B echoes each one, and the
/// controller runs the MAC-learning switch of Figure 3. Symbolic execution is
/// off (scripted sends), matching Table 1's setup.
pub fn ping_workload(pings: u32, canonical_switch_model: bool) -> Scenario {
    let topology = Topology::linear_two_switches();
    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(host_a, SendBudget::sends(pings))),
        Box::new(ClientHost::new(host_b, SendBudget::SILENT).with_echo()),
    ];
    let script: Vec<Packet> = (0..pings)
        .map(|i| Packet::l2_ping(i as u64 + 1, host_a.mac, host_b.mac, i))
        .collect();
    Scenario::builder(format!("ping-{pings}"))
        .topology(topology)
        .app(Box::new(PySwitchApp::new(PySwitchVariant::Original)))
        .hosts(hosts)
        .scripted_sends([(HostId(1), script)])
        .switch_config(SwitchConfig {
            canonical_flow_table: canonical_switch_model,
            ..SwitchConfig::default()
        })
        .build()
}

/// The ping workload stretched over a chain of `switches` switches: host A
/// at one end of the chain, the echoing host B at the other, pyswitch
/// learning MACs along the way. Used by the exploration-engine benches —
/// the larger the system, the more a full state clone costs and the more
/// copy-on-write snapshots win.
pub fn chain_ping_workload(switches: u32, pings: u32) -> Scenario {
    assert!(switches >= 2, "a chain needs at least two switches");
    // Port plan per switch: 1 = host (ends only), 2 = towards the next
    // switch, 3 = towards the previous switch.
    let mut builder = Topology::builder();
    for s in 1..=switches {
        builder = builder.switch(SwitchId(s), &[1, 2, 3]);
    }
    builder = builder.host(HostId(1), SwitchId(1), PortId(1)).host(
        HostId(2),
        SwitchId(switches),
        PortId(1),
    );
    for s in 1..switches {
        builder = builder.link(SwitchId(s), PortId(2), SwitchId(s + 1), PortId(3));
    }
    let topology = builder.build();

    let host_a = *topology.host(HostId(1)).unwrap();
    let host_b = *topology.host(HostId(2)).unwrap();
    let hosts: Vec<Box<dyn HostModel>> = vec![
        Box::new(ClientHost::new(host_a, SendBudget::sends(pings))),
        Box::new(ClientHost::new(host_b, SendBudget::SILENT).with_echo()),
    ];
    let script: Vec<Packet> = (0..pings)
        .map(|i| Packet::l2_ping(i as u64 + 1, host_a.mac, host_b.mac, i))
        .collect();
    Scenario::builder(format!("chain{switches}-ping-{pings}"))
        .topology(topology)
        .app(Box::new(PySwitchApp::new(PySwitchVariant::Original)))
        .hosts(hosts)
        .scripted_sends([(HostId(1), script)])
        .build()
}

/// The chain ping workload with a fault plan attached: a switch-crash budget
/// plus lossy ingress channels. With fault injection *off* (the default) the
/// plan is dormant and the explored state space is bit-identical to
/// [`chain_ping_workload`] (`tests/fault_equivalence.rs` holds exactly
/// that), while runs with `CheckerConfig::inject_faults` stress the
/// crash/recovery paths of the same topology.
pub fn chain_fault_workload(switches: u32, pings: u32) -> Scenario {
    chain_ping_workload(switches, pings).with_fault_plan(FaultPlan::lossy(1).with_switch_crash())
}

/// Resolves a scenario *spec* to a scenario: either a registry name
/// (`bug-v-packets-dropped-in-transition`, see
/// [`scenarios::registry`](crate::scenarios::registry)) or one of the
/// parameterised bench workloads:
///
/// * `ping:<pings>` — [`ping_workload`] with the canonical switch model,
/// * `chain:<switches>:<pings>` — [`chain_ping_workload`],
/// * `chain-faults:<switches>:<pings>` — [`chain_fault_workload`].
///
/// Worker processes of the `nice-dist` service rebuild their scenario from
/// this spec, so every shard starts from the identical system.
pub fn resolve(spec: &str) -> Option<Scenario> {
    if let Some(entry) = find_scenario(spec) {
        return Some(entry.build());
    }
    let mut parts = spec.split(':');
    let kind = parts.next()?;
    let args: Vec<u32> = parts.map(|p| p.parse().ok()).collect::<Option<_>>()?;
    match (kind, args.as_slice()) {
        ("ping", [pings]) => Some(ping_workload(*pings, true)),
        ("chain", [switches, pings]) if *switches >= 2 => {
            Some(chain_ping_workload(*switches, *pings))
        }
        ("chain-faults", [switches, pings]) if *switches >= 2 => {
            Some(chain_fault_workload(*switches, *pings))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_accepts_registry_names_and_parameterised_specs() {
        assert_eq!(
            resolve("bug-v-packets-dropped-in-transition").unwrap().name,
            find_scenario("bug-v-packets-dropped-in-transition")
                .unwrap()
                .build()
                .name
        );
        assert_eq!(resolve("ping:2").unwrap().name, "ping-2");
        assert_eq!(resolve("chain:5:2").unwrap().name, "chain5-ping-2");
        assert!(resolve("chain-faults:5:2")
            .unwrap()
            .fault_plan
            .any_enabled());
        for bad in ["", "chain:1:2", "chain:x:2", "nope", "ping:2:3"] {
            assert!(resolve(bad).is_none(), "{bad:?} must not resolve");
        }
    }
}
