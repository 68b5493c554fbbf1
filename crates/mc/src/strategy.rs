//! OpenFlow-specific search strategies (Section 4) and the sleep-set
//! partial-order reduction that stacks under them.
//!
//! A strategy is its [`StrategyKind`] — the value of
//! [`CheckerConfig::strategy`] — and restricts which of a state's enabled
//! transitions the checker explores, trading completeness for a (much)
//! smaller space of event orderings biased towards the interleavings that
//! uncover bugs:
//!
//! * [`StrategyKind::FullDfs`] (PKT-SEQ) — NICE-MC: explore everything
//!   (PKT-SEQ bounds on host send budgets still apply; they are part of the
//!   scenario, not the strategy).
//! * [`StrategyKind::NoDelay`] — controller↔switch communication is atomic
//!   ("lock step"): useful early in development, but blind to
//!   rule-installation races.
//! * [`StrategyKind::FlowIr`] — flow independence reduction: explore only
//!   one relative ordering between packets the application declares
//!   independent.
//! * [`StrategyKind::Unusual`] — deliver outstanding controller→switch
//!   messages in the most unusual order (most recently issued first) to
//!   expose races like the Figure 1 example.
//!
//! # How the reduction composes with the NICE strategies
//!
//! The two layers answer different questions and stack cleanly:
//!
//! 1. The **strategy** is a *heuristic* filter: it deliberately gives up
//!    completeness (relative to the full interleaving space) to bias the
//!    search towards bug-revealing orderings. It runs first, on the raw
//!    enabled set of each state.
//! 2. The **reduction** ([`ReductionKind::Por`]) is a *sound* filter
//!    relative to whatever space the strategy left: among the
//!    strategy-selected transitions it prunes interleavings of provably
//!    independent transitions — orders that are guaranteed (via
//!    [`Transition::footprint`]) to reach states the search visits anyway
//!    through a sibling ordering. PKT-SEQ + POR therefore finds exactly the
//!    violations of PKT-SEQ alone while executing strictly fewer
//!    transitions; NO-DELAY/FLOW-IR/UNUSUAL + POR prune the same commuting
//!    orders within each strategy's already-restricted space.
//!
//! Concretely, the reduction contributes two mechanisms:
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
//! The checker reads the reduction off [`CheckerConfig::reduction`]
//! (builder: [`CheckerConfig::with_reduction`]); statistics report the
//! pruned counts as `pruned_by_por`.
//!
//! [`CheckerConfig::strategy`]: crate::scenario::CheckerConfig::strategy
//! [`CheckerConfig::reduction`]: crate::scenario::CheckerConfig::reduction
//! [`CheckerConfig::with_reduction`]: crate::scenario::CheckerConfig::with_reduction
//! [`ReductionKind::Por`]: crate::scenario::ReductionKind::Por

use crate::por::{disjoint, Layout};
use crate::scenario::{Scenario, StrategyKind};
use crate::state::SystemState;
use crate::transition::Transition;
use nice_openflow::Packet;
use std::sync::Arc;

impl StrategyKind {
    /// Restricts the enabled transitions of `state`, in place and in
    /// order, to the ones this strategy wants explored.
    pub(crate) fn select(self, state: &SystemState, enabled: &mut Vec<Transition>) {
        match self {
            // NO-DELAY drains the control-plane channels atomically after
            // every transition, so ControllerHandle/ProcessOf transitions are
            // never enabled on their own; nothing to filter here.
            StrategyKind::FullDfs | StrategyKind::NoDelay => {}
            StrategyKind::FlowIr => flow_ir(state, enabled),
            StrategyKind::Unusual => unusual(state, enabled),
        }
    }

    /// True if controller↔switch communication is drained atomically after
    /// every transition (the NO-DELAY semantics).
    pub(crate) fn lock_step_control_plane(self) -> bool {
        self == StrategyKind::NoDelay
    }
}

/// FLOW-IR: flow independence reduction.
fn flow_ir(state: &SystemState, enabled: &mut Vec<Transition>) {
    // Partition the enabled host-send transitions into flow groups using
    // the application's isSameFlow oracle, then keep only the sends of
    // the first group: the relative ordering between independent groups
    // is explored exactly once (group 1 entirely before group 2, ...).
    // Sends of independent flows are pruned here; they become enabled
    // again once the leader flow has no enabled sends left.
    let mut group_leader: Option<Packet> = None;
    enabled.retain(|t| match t {
        Transition::HostSend { packet, .. } => match &group_leader {
            None => {
                group_leader = Some(*packet);
                true
            }
            Some(leader) => state.controller().app().is_same_flow(leader, packet),
        },
        _ => true,
    });
}

/// UNUSUAL: uncommon delays and reorderings of control messages.
fn unusual(state: &SystemState, enabled: &mut Vec<Transition>) {
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
    enabled.retain(|t| match t {
        Transition::ProcessOf { switch } if multiple_pending => Some(*switch) == newest,
        _ => true,
    });
}

// ---------------------------------------------------------------------------
// The partial-order reduction
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

/// [`ReductionKind::Por`](crate::scenario::ReductionKind::Por): sleep-set
/// partial-order reduction over [`Transition::footprint`]'s static
/// independence relation, plus a persistent-set-style selector for purely
/// local receives. See the module docs.
///
/// Every worker of a POR search owns one and calls [`PorReduction::reduce`]
/// once per expanded node, after the strategy filtered the enabled set; it
/// keeps its footprint buffers between calls.
pub(crate) struct PorReduction {
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
    pub(crate) fn new(scenario: &Scenario) -> PorReduction {
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
    pub(crate) fn reduce(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;
    use crate::transition::enabled_transitions;
    use nice_controller::{ControllerApp, ControllerOps, PacketInContext};
    use nice_openflow::{Hasher64, HostId, MacAddr, OfMessage, SwitchId};
    use nice_sym::{Env, SymPacket};

    fn state_with_backlog() -> SystemState {
        let scenario = testutil::hub_ping_scenario(1);
        let mut state = SystemState::initial(&scenario);
        state.enqueue_to_switch(SwitchId(1), OfMessage::BarrierRequest { request_id: 1 });
        state.enqueue_to_switch(SwitchId(2), OfMessage::BarrierRequest { request_id: 2 });
        state
    }

    #[test]
    fn full_dfs_keeps_everything() {
        let scenario = testutil::hub_ping_scenario(1);
        let config = CheckerConfig::default();
        let state = state_with_backlog();
        let enabled = enabled_transitions(&state, &scenario, &config);
        let mut kept = enabled.clone();
        StrategyKind::FullDfs.select(&state, &mut kept);
        assert_eq!(kept.len(), enabled.len());
        assert!(!StrategyKind::FullDfs.lock_step_control_plane());
    }

    #[test]
    fn no_delay_requests_lock_step() {
        assert!(StrategyKind::NoDelay.lock_step_control_plane());
        let state = state_with_backlog();
        let mut kept = vec![];
        StrategyKind::NoDelay.select(&state, &mut kept);
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
        let mut kept = enabled;
        StrategyKind::Unusual.select(&state, &mut kept);
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
        let mut kept = enabled.clone();
        StrategyKind::Unusual.select(&state, &mut kept);
        assert_eq!(kept.len(), enabled.len());
    }

    /// A hub whose flows are (source MAC, destination MAC) pairs.
    #[derive(Debug, Clone)]
    struct MacPairFlows;

    impl ControllerApp for MacPairFlows {
        fn name(&self) -> &str {
            "mac-pair-flows"
        }

        fn packet_in(
            &mut self,
            ops: &mut dyn ControllerOps,
            _env: &mut dyn Env,
            ctx: PacketInContext,
            _packet: &SymPacket,
        ) {
            ops.flood_packet(ctx.switch, ctx.buffer_id, ctx.in_port);
        }

        fn clone_app(&self) -> Box<dyn ControllerApp> {
            Box::new(self.clone())
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn fingerprint(&self, _hasher: &mut Hasher64) {}

        fn is_same_flow(&self, a: &Packet, b: &Packet) -> bool {
            (a.src_mac, a.dst_mac) == (b.src_mac, b.dst_mac)
        }
    }

    #[test]
    fn flow_ir_restricts_sends_to_one_group() {
        let scenario = testutil::ping_scenario_with_app(Box::new(MacPairFlows), 1);
        let state = SystemState::initial(&scenario);
        let (one, two) = (MacAddr::for_host(1), MacAddr::for_host(2));
        let send = |host, packet| Transition::HostSend {
            host: HostId(host),
            packet,
        };
        let first = send(1, Packet::l2_ping(1, one, two, 0));
        let other_flow = send(2, Packet::l2_ping(2, two, one, 0));
        let first_again = send(1, Packet::l2_ping(3, one, two, 1));
        let process = Transition::ProcessPacket {
            switch: SwitchId(1),
        };
        let enabled = vec![
            first.clone(),
            other_flow,
            process.clone(),
            first_again.clone(),
        ];
        // The first send leads the group: its flow's sends and every
        // non-send survive, the other flow's send waits.
        let mut kept = enabled;
        StrategyKind::FlowIr.select(&state, &mut kept);
        assert_eq!(kept, vec![first, process, first_again]);
    }
}
