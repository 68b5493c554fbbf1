//! # nice-core
//!
//! The NICE facade: given an OpenFlow controller program, a network topology
//! and correctness properties, perform a state-space search combining model
//! checking with symbolic execution and report property violations together
//! with the traces that reproduce them (Figure 2 of the paper).
//!
//! ```
//! use nice_core::prelude::*;
//!
//! // The system under test: the MAC-learning switch on the two-switch
//! // topology of Figure 1, checked against StrictDirectPaths.
//! let scenario = nice_core::scenarios::bug_scenario(nice_core::scenarios::BugId::BugII);
//! let report = Nice::new(scenario)
//!     .with_strategy(StrategyKind::FullDfs)
//!     .with_max_transitions(200_000)
//!     .check();
//! assert!(!report.passed(), "pyswitch violates StrictDirectPaths (BUG-II)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nice_apps as apps;
pub use nice_apps::scenarios;
pub use nice_controller as controller;
pub use nice_hosts as hosts;
pub use nice_mc as mc;
pub use nice_openflow as openflow;
pub use nice_sym as sym;

use nice_mc::{
    CheckObserver, CheckReport, CheckerConfig, ModelChecker, ReductionKind, Scenario, StrategyKind,
};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::Nice;
    pub use nice_controller::{ControllerApp, ControllerOps, PacketInContext, RuleSpec};
    pub use nice_hosts::{ClientHost, HostModel, MobileHost, SendBudget, ServerHost};
    pub use nice_mc::properties::{
        DirectPaths, FlowAffinity, NoAbandonedPackets, NoBlackHoles, NoForgottenPackets,
        NoForwardingLoops, Property, StrictDirectPaths,
    };
    pub use nice_mc::{
        render_timeline, BisectReport, CancelToken, CheckEvent, CheckObserver, CheckReport,
        CheckSession, CheckerConfig, ExploredConfig, ExploredMode, ExploredStats,
        FailoverStaleness, FaultPlan, FaultStats, InterruptReason, MinimizeReport, ModelChecker,
        NoopObserver, Outcome, ReductionKind, ReplayOutcome, ReplayReport, ReplayViolation,
        Scenario, ScenarioBuilder, SendPolicy, StrategyKind, Timeline, Trace, TraceEngine,
        Violation, TRACE_SCHEMA,
    };
    pub use nice_openflow::{
        Action, HostId, MacAddr, MatchPattern, NwAddr, Packet, PortId, SwitchId, Topology,
    };
    pub use nice_sym::{Env, PacketDomains, StatsDomains, SymMap, SymPacket, SymValue};
}

/// The top-level entry point: a scenario plus a checker configuration.
///
/// `Nice` is a thin, ergonomic wrapper around [`nice_mc::ModelChecker`]; the
/// individual crates remain fully usable on their own.
#[derive(Debug, Clone)]
pub struct Nice {
    scenario: Scenario,
    config: CheckerConfig,
}

impl Nice {
    /// Creates a checker for `scenario` with the default configuration
    /// (exhaustive PKT-SEQ search, stop at the first violation).
    pub fn new(scenario: Scenario) -> Self {
        Nice {
            scenario,
            config: CheckerConfig::default(),
        }
    }

    /// Replaces the whole checker configuration (builder style).
    pub fn with_config(mut self, config: CheckerConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the search strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Bounds the number of explored transitions (builder style).
    pub fn with_max_transitions(mut self, max: u64) -> Self {
        self.config.max_transitions = max;
        self
    }

    /// Selects the partial-order reduction layered on top of the strategy
    /// (builder style).
    pub fn with_reduction(mut self, reduction: ReductionKind) -> Self {
        self.config.reduction = reduction;
        self
    }

    /// Sets the number of search worker threads (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Enables injection of the scenario's [`FaultPlan`] — switch crashes,
    /// channel drops/duplicates/reorders, controller failover, Byzantine
    /// message mutations — during the search (builder style). With fault
    /// injection off (the default) the fault plan is inert and the explored
    /// state space is bit-identical to a plan-free scenario.
    ///
    /// [`FaultPlan`]: nice_mc::FaultPlan
    pub fn with_faults(mut self) -> Self {
        self.config.inject_faults = true;
        self
    }

    /// Keeps searching after the first violation (builder style).
    pub fn collect_all_violations(mut self) -> Self {
        self.config.stop_at_first_violation = false;
        self
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The checker configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// Builds the underlying [`ModelChecker`] (cloning the scenario and
    /// configuration). Open a session on it for streaming events,
    /// cancellation or deadlines:
    ///
    /// ```no_run
    /// # use nice_core::prelude::*;
    /// # let scenario = nice_core::scenarios::bug_scenario(nice_core::scenarios::BugId::BugII);
    /// let checker = Nice::new(scenario).checker();
    /// let report = checker
    ///     .session()
    ///     .with_time_budget(std::time::Duration::from_secs(30))
    ///     .run_with(&mut |event: &CheckEvent| {
    ///         if let CheckEvent::Progress { states, rate, .. } = event {
    ///             eprintln!("{states} states ({rate:.0}/s)");
    ///         }
    ///     });
    /// ```
    pub fn checker(&self) -> ModelChecker {
        ModelChecker::new(self.scenario.clone(), self.config.clone())
    }

    /// Runs the systematic state-space search.
    pub fn check(&self) -> CheckReport {
        self.checker().run()
    }

    /// Runs the systematic search as a session, streaming [`CheckEvent`]s
    /// (`Started`, `Progress`, `ViolationFound`, `Finished`) to `observer`.
    /// For cancellation or deadlines, use
    /// [`Nice::checker`]`.session()` directly.
    ///
    /// [`CheckEvent`]: nice_mc::CheckEvent
    pub fn check_with(&self, observer: &mut dyn CheckObserver) -> CheckReport {
        self.checker().session().run_with(observer)
    }

    /// Runs random walks instead of the systematic search (the simulator mode
    /// of Section 1.3).
    pub fn random_walk(&self, seed: u64, walks: u32, max_steps: usize) -> CheckReport {
        ModelChecker::new(self.scenario.clone(), self.config.clone())
            .run_random_walk(seed, walks, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_apps::scenarios::{bug_scenario, BugId};
    use nice_mc::testutil;

    #[test]
    fn facade_runs_a_passing_scenario() {
        let report = Nice::new(testutil::hub_ping_scenario(1)).check();
        assert!(report.passed());
        assert!(report.stats.transitions > 0);
    }

    #[test]
    fn facade_finds_a_bug_and_reports_a_trace() {
        let report = Nice::new(bug_scenario(BugId::BugVIII))
            .with_max_transitions(100_000)
            .check();
        assert!(!report.passed());
        let violation = report.first_violation().unwrap();
        assert_eq!(violation.property, "NoForgottenPackets");
        assert!(!violation.trace.is_empty());
    }

    #[test]
    fn builders_compose() {
        let nice = Nice::new(testutil::hub_ping_scenario(1))
            .with_strategy(StrategyKind::NoDelay)
            .with_max_transitions(123)
            .with_faults()
            .collect_all_violations();
        assert!(nice.config().inject_faults);
        assert_eq!(nice.config().strategy, StrategyKind::NoDelay);
        assert_eq!(nice.config().max_transitions, 123);
        assert!(!nice.config().stop_at_first_violation);
        assert_eq!(nice.scenario().name, "hub-ping");
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let nice = Nice::new(testutil::hub_ping_scenario(2));
        let a = nice.random_walk(3, 2, 40);
        let b = nice.random_walk(3, 2, 40);
        assert_eq!(a.stats.transitions, b.stats.transitions);
    }
}
