//! Fault injection: *what* can go wrong in a scenario.
//!
//! Section 2.2.2 of the paper gives packet channels an optionally-enabled
//! fault model; kimberlite's VOPR platform shows the production version of
//! the same idea — faults are first-class schedulable events, so the model
//! checker explores *when* a loss or crash lands, not just whether it can.
//!
//! A [`FaultPlan`] is attached to a [`Scenario`](crate::scenario::Scenario)
//! and describes which fault classes the checker may schedule:
//!
//! * **channel faults** — drop / duplicate / reorder / fail-link on the
//!   packet ingress channels, through the
//!   [`FaultModel`](nice_openflow::FaultModel) machinery of
//!   [`FifoChannel`](nice_openflow::FifoChannel) so the two mechanisms
//!   cannot drift. The plan holds the model, not the channel: the checker
//!   asks [`FaultPlan::channel_model_for`] where it enumerates and where it
//!   applies a fault, so a port with nothing queued needs no channel in the
//!   state for its link to fail;
//! * **switch crashes** — a crash wipes the flow table, packet buffers and
//!   in-flight channels; a (budget-free) reconnect re-handshakes with the
//!   controller;
//! * **controller failover** — swap to a standby controller runtime with
//!   configurably stale state;
//! * **Byzantine OpenFlow mutations** — bounded mutations of the in-flight
//!   controller-to-switch message at the head of the channel, the
//!   `MessageMutator` pattern.
//!
//! Every injected fault (except the reconnect, which is recovery rather
//! than an adversarial move) consumes one unit of the plan's *budget*, so
//! the faulty state space stays bounded. The empty plan is free: no fault
//! transitions are generated and state fingerprints are bit-identical to a
//! fault-unaware checker.

use nice_openflow::{FaultModel, SwitchId};

/// How stale the standby controller is when a failover lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverStaleness {
    /// The standby starts from scratch: it has seen no switch joins. Live
    /// switches re-handshake *asynchronously* — a `switch_join` message is
    /// queued on each switch-to-controller channel, and the checker
    /// explores every interleaving of the joins with ordinary traffic.
    Cold,
    /// The standby has a warm registry: every live switch's join is
    /// replayed synchronously at failover time, but any application state
    /// learned from traffic (MAC tables, flow assignments) is lost.
    Warm,
}

/// Which fault classes the checker may inject into a scenario, and how
/// many faults it may inject in total along any single execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fault model applied to packet ingress channels (drop / duplicate /
    /// reorder / fail-link). [`FaultModel::RELIABLE`] disables channel
    /// faults entirely.
    pub channel: FaultModel,
    /// Which switches' ingress channels are fault-enabled. Empty means
    /// *all* switches (the common case).
    pub channel_switches: Vec<SwitchId>,
    /// Whether switches may crash (and subsequently reconnect).
    pub switch_crash: bool,
    /// Whether the controller may fail over to a standby runtime, and how
    /// stale that standby is. `None` disables failover.
    pub failover: Option<FailoverStaleness>,
    /// Whether the head of each controller-to-switch channel may be
    /// mutated before delivery (Byzantine OpenFlow mutations).
    pub of_mutations: bool,
    /// Maximum number of injected faults along any single execution path.
    /// A budget of zero disables all fault injection.
    pub budget: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero budget. Costs nothing — the checker
    /// generates no fault transitions and fingerprints are unchanged.
    pub fn none() -> Self {
        FaultPlan {
            channel: FaultModel::RELIABLE,
            channel_switches: Vec::new(),
            switch_crash: false,
            failover: None,
            of_mutations: false,
            budget: 0,
        }
    }

    /// A plan enabling every channel fault class ([`FaultModel::LOSSY`])
    /// on all ingress channels, with the given budget.
    pub fn lossy(budget: u32) -> Self {
        FaultPlan {
            channel: FaultModel::LOSSY,
            budget,
            ..FaultPlan::none()
        }
    }

    /// A plan enabling only message *duplication* on all ingress channels,
    /// with the given budget. Duplication never loses information, so it is
    /// the mildest channel fault: apps must merely be idempotent. Scenarios
    /// use it to give `--faults` runs redundant schedules without making
    /// loss-sensitive properties trivially violable.
    pub fn duplicates(budget: u32) -> Self {
        FaultPlan {
            channel: FaultModel {
                allow_duplicate: true,
                ..FaultModel::RELIABLE
            },
            budget,
            ..FaultPlan::none()
        }
    }

    /// A plan enabling switch crashes (and reconnects) with the given
    /// budget.
    pub fn crashes(budget: u32) -> Self {
        FaultPlan {
            switch_crash: true,
            budget,
            ..FaultPlan::none()
        }
    }

    /// A plan enabling controller failover with the given staleness and
    /// budget.
    pub fn failovers(staleness: FailoverStaleness, budget: u32) -> Self {
        FaultPlan {
            failover: Some(staleness),
            budget,
            ..FaultPlan::none()
        }
    }

    /// A plan enabling Byzantine mutations of in-flight OpenFlow messages
    /// with the given budget.
    pub fn of_mutations(budget: u32) -> Self {
        FaultPlan {
            of_mutations: true,
            budget,
            ..FaultPlan::none()
        }
    }

    /// Restricts channel faults to the ingress channels of the given
    /// switches (default: all switches).
    pub fn on_switches(mut self, switches: impl IntoIterator<Item = SwitchId>) -> Self {
        self.channel_switches = switches.into_iter().collect();
        self
    }

    /// Also enables switch crashes.
    pub fn with_switch_crash(mut self) -> Self {
        self.switch_crash = true;
        self
    }

    /// Also enables controller failover with the given staleness.
    pub fn with_failover(mut self, staleness: FailoverStaleness) -> Self {
        self.failover = Some(staleness);
        self
    }

    /// Also enables Byzantine OpenFlow mutations.
    pub fn with_of_mutations(mut self) -> Self {
        self.of_mutations = true;
        self
    }

    /// Replaces the fault budget.
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }

    /// True if this plan can inject at least one fault: some fault class
    /// is enabled *and* the budget is positive.
    pub fn any_enabled(&self) -> bool {
        self.budget > 0
            && (self.channel.any_enabled()
                || self.switch_crash
                || self.failover.is_some()
                || self.of_mutations)
    }

    /// The fault model for the ingress channels of `switch` under this
    /// plan: the configured channel model if the switch is in scope,
    /// reliable otherwise.
    pub fn channel_model_for(&self, switch: SwitchId) -> FaultModel {
        if self.budget > 0
            && self.channel.any_enabled()
            && (self.channel_switches.is_empty() || self.channel_switches.contains(&switch))
        {
            self.channel
        } else {
            FaultModel::RELIABLE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_enables_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.any_enabled());
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.channel_model_for(SwitchId(1)).any_enabled());
    }

    #[test]
    fn zero_budget_disables_even_configured_faults() {
        let plan = FaultPlan::lossy(0);
        assert!(!plan.any_enabled());
        assert!(!plan.channel_model_for(SwitchId(1)).any_enabled());
    }

    #[test]
    fn lossy_plan_scopes_channels() {
        let plan = FaultPlan::lossy(2).on_switches([SwitchId(1)]);
        assert!(plan.any_enabled());
        assert_eq!(plan.channel_model_for(SwitchId(1)), FaultModel::LOSSY);
        assert_eq!(plan.channel_model_for(SwitchId(2)), FaultModel::RELIABLE);
        // Empty scope means every switch.
        let broad = FaultPlan::lossy(2);
        assert_eq!(broad.channel_model_for(SwitchId(7)), FaultModel::LOSSY);
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::crashes(3)
            .with_failover(FailoverStaleness::Warm)
            .with_of_mutations()
            .with_budget(5);
        assert!(plan.switch_crash);
        assert_eq!(plan.failover, Some(FailoverStaleness::Warm));
        assert!(plan.of_mutations);
        assert_eq!(plan.budget, 5);
        assert!(plan.any_enabled());
        assert!(!plan.channel_model_for(SwitchId(1)).any_enabled());
    }
}
