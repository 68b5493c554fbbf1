//! # nice
//!
//! Umbrella crate for the NICE reproduction: given an OpenFlow controller
//! program, a network topology and correctness properties, perform a
//! state-space search combining model checking with symbolic execution and
//! report property violations together with the traces that reproduce them
//! (Figure 2 of the paper). It re-exports the sub-crates (the OpenFlow
//! substrate, the symbolic engine, the controller platform, the host models,
//! the model checker and the evaluated applications), owns the [`prelude`],
//! and hosts the runnable examples and the cross-crate integration tests.
//!
//! A check is a [`Scenario`](mc::Scenario) and a
//! [`CheckerConfig`](mc::CheckerConfig) handed to
//! [`ModelChecker`](mc::ModelChecker):
//!
//! ```
//! use nice::prelude::*;
//! use nice::scenarios::{bug_scenario, BugId};
//!
//! // The system under test: the MAC-learning switch on the two-switch
//! // topology of Figure 1, checked against StrictDirectPaths.
//! let config = CheckerConfig::default()
//!     .with_strategy(StrategyKind::FullDfs)
//!     .with_max_transitions(200_000);
//! let report = ModelChecker::new(bug_scenario(BugId::BugII), config).run();
//! assert!(!report.violations.is_empty(), "pyswitch violates StrictDirectPaths (BUG-II)");
//! ```
//!
//! See `README.md` for a tour and for the mapping between the paper and
//! this implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nice_apps as apps;
pub use nice_apps::scenarios;
pub use nice_controller as controller;
pub use nice_hosts as hosts;
pub use nice_mc as mc;
pub use nice_openflow as openflow;
pub use nice_sym as sym;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
    pub use nice_hosts::{ClientHost, HostModel, MobileHost, SendBudget, ServerHost};
    pub use nice_mc::properties::{
        DirectPaths, FlowAffinity, NoAbandonedPackets, NoBlackHoles, NoForgottenPackets,
        NoForwardingLoops, Property, StrictDirectPaths,
    };
    pub use nice_mc::{
        render_timeline, BisectReport, CancelToken, CheckEvent, CheckObserver, CheckReport,
        CheckSession, CheckerConfig, FaultPlan, FaultStats, InterruptReason, MinimizeReport,
        ModelChecker, NoopObserver, Outcome, ReductionKind, ReplayOutcome, ReplayReport,
        ReplayViolation, Scenario, ScenarioBuilder, SendPolicy, StrategyKind, Timeline, Trace,
        TraceEngine, Verdict, Violation, TRACE_SCHEMA,
    };
    pub use nice_openflow::{
        Action, HostId, MacAddr, MatchPattern, NwAddr, Packet, PortId, SwitchId, Topology,
    };
    pub use nice_sym::{Env, PacketDomains, StatsDomains, SymMap, SymPacket, SymValue};
}

/// The crate version (useful for examples printing a banner).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    use super::mc::testutil;
    use super::prelude::*;
    use super::scenarios::{bug_scenario, BugId};

    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }

    #[test]
    fn reexports_are_reachable() {
        let _ = std::any::type_name::<super::mc::ModelChecker>();
        let _ = std::any::type_name::<super::openflow::Packet>();
        let _ = std::any::type_name::<super::sym::SymValue>();
    }

    // The prelude alone is enough to start a check and read its report.

    #[test]
    fn facade_runs_a_passing_scenario() {
        let report =
            ModelChecker::new(testutil::hub_ping_scenario(1), CheckerConfig::default()).run();
        assert!(report.passed());
        assert!(report.stats.transitions > 0);
    }

    #[test]
    fn facade_finds_a_bug_and_reports_a_trace() {
        let config = CheckerConfig::default().with_max_transitions(100_000);
        let report = ModelChecker::new(bug_scenario(BugId::BugVIII), config).run();
        assert!(!report.violations.is_empty());
        let violation = report.first_violation().unwrap();
        assert_eq!(violation.property, "NoForgottenPackets");
        assert!(!violation.trace.is_empty());
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let checker = ModelChecker::new(testutil::hub_ping_scenario(2), CheckerConfig::default());
        let a = checker.run_random_walk(3, 2, 40);
        let b = checker.run_random_walk(3, 2, 40);
        assert_eq!(a.stats.transitions, b.stats.transitions);
    }
}
