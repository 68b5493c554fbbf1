//! # nice-apps
//!
//! The three real OpenFlow controller applications the NICE paper evaluates
//! (Section 8), re-implemented against the `nice-controller` platform, each
//! with switches that re-introduce or fix the individual bugs the paper
//! reports:
//!
//! * [`pyswitch`] — the MAC-learning switch of Figure 3 (BUG-I, BUG-II,
//!   BUG-III and the fixed variants).
//! * [`loadbalancer`] — the wildcard-rule web server load balancer of
//!   Section 8.2 (BUG-IV … BUG-VII).
//! * [`energyte`] — the energy-efficient traffic-engineering application of
//!   Section 8.3 (BUG-VIII … BUG-XI), plus its application-specific
//!   `UseCorrectRoutingTable` property.
//! * [`scenarios`] — one ready-to-check [`nice_mc::Scenario`] per bug,
//!   matching the topologies and workloads of Table 2.
//! * [`workloads`] — the Section 7 benchmark workloads (ping, switch
//!   chains, fault chains) plus the spec resolver the `nice-dist` worker
//!   processes rebuild job scenarios from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energyte;
pub mod loadbalancer;
pub mod pyswitch;
pub mod scenarios;
pub mod util;
pub mod workloads;

pub use energyte::{EnergyTeApp, EnergyTeConfig, UseCorrectRoutingTable};
pub use loadbalancer::{LoadBalancerApp, LoadBalancerConfig};
pub use pyswitch::{PySwitchApp, PySwitchVariant};
pub use scenarios::{bug_scenario, BugId};

#[cfg(test)]
mod tests {
    use crate::workloads::{chain_fault_workload, chain_ping_workload, ping_workload};
    use nice_mc::{CheckerConfig, ModelChecker, Scenario, SearchStats};

    fn exhaustive(scenario: Scenario, config: CheckerConfig) -> SearchStats {
        ModelChecker::new(scenario, config.with_stop_at_first(false))
            .run()
            .stats
    }

    #[test]
    fn ping_workload_shape() {
        let s = ping_workload(2, true);
        assert_eq!(s.hosts.len(), 2);
        assert!(s.switch_config.canonical_flow_table);
        assert!(!ping_workload(2, false).switch_config.canonical_flow_table);
    }

    #[test]
    fn chain_fault_workload_is_dormant_without_injection() {
        let plain = exhaustive(chain_ping_workload(2, 1), CheckerConfig::default());
        let dormant = exhaustive(chain_fault_workload(2, 1), CheckerConfig::default());
        assert_eq!(plain.transitions, dormant.transitions);
        assert_eq!(plain.unique_states, dormant.unique_states);
        // With injection on, the crash/recovery interleavings enlarge the
        // state space.
        let faulty = exhaustive(
            chain_fault_workload(2, 1),
            CheckerConfig::default().with_fault_injection(true),
        );
        assert!(faulty.transitions > plain.transitions);
        assert!(faulty.faults.any(), "faults were injected and counted");
    }
}
