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
//!   [`FaultModel`] machinery of
//!   [`FifoChannel`](nice_openflow::FifoChannel) so the two mechanisms
//!   cannot drift. The plan holds the model, not the channel: the checker
//!   asks [`FaultPlan::channel_model`] where it enumerates and where it
//!   applies a fault, so a port with nothing queued needs no channel in the
//!   state for its link to fail;
//! * **switch crashes** — a crash wipes the flow table, packet buffers and
//!   in-flight channels; a (budget-free) reconnect re-handshakes with the
//!   controller.
//!
//! These are the classes the registry's scenarios use (BUG-XII needs the
//! crash). Every injected fault (except the reconnect, which is recovery
//! rather than an adversarial move) consumes one unit of the plan's
//! *budget*, so the faulty state space stays bounded. The empty plan is
//! free: no fault transitions are generated and state fingerprints are
//! bit-identical to a fault-unaware checker.

use nice_openflow::FaultModel;

/// Which fault classes the checker may inject into a scenario, and how
/// many faults it may inject in total along any single execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fault model applied to every packet ingress channel (drop /
    /// duplicate / reorder / fail-link). [`FaultModel::RELIABLE`] disables
    /// channel faults entirely.
    pub channel: FaultModel,
    /// Whether switches may crash (and subsequently reconnect).
    pub switch_crash: bool,
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
            switch_crash: false,
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

    /// Also enables switch crashes.
    pub fn with_switch_crash(mut self) -> Self {
        self.switch_crash = true;
        self
    }

    /// True if this plan can inject at least one fault: some fault class
    /// is enabled *and* the budget is positive.
    pub fn any_enabled(&self) -> bool {
        self.budget > 0 && (self.channel.any_enabled() || self.switch_crash)
    }

    /// The fault model for the ingress channels under this plan: the
    /// configured channel model while the budget is positive, reliable
    /// otherwise.
    pub fn channel_model(&self) -> FaultModel {
        if self.budget > 0 && self.channel.any_enabled() {
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
        assert!(!plan.channel_model().any_enabled());
    }

    #[test]
    fn zero_budget_disables_even_configured_faults() {
        let plan = FaultPlan::lossy(0);
        assert!(!plan.any_enabled());
        assert!(!plan.channel_model().any_enabled());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::duplicates(3).with_switch_crash();
        assert!(plan.switch_crash);
        assert_eq!(plan.budget, 3);
        assert!(plan.any_enabled());
        assert!(plan.channel_model().allow_duplicate);
        assert!(!FaultPlan::crashes(3).channel_model().any_enabled());
    }
}
