//! Equivalence guarantees of the fault-injection layer, exercised through
//! the public API.
//!
//! Two invariants are pinned here:
//!
//! 1. **Faults off is free.** A scenario whose fault plan is empty — or
//!    whose (non-empty) plan is dormant because the checker runs without
//!    `inject_faults` — produces a report bit-identical to today's: the same
//!    transition and state counts, the same verdict, the same violated
//!    properties and witness lengths, across sequential and parallel engines
//!    and with POR on or off.
//! 2. **POR stays sound under faults.** With injection on, FullDfs+POR
//!    reports the same verdict and violated-property set as FullDfs alone
//!    while exploring no more (and on the chain workload strictly fewer)
//!    transitions.
//!
//! And one about the state layout underneath: a channel with nothing queued
//! and its link up has no cell in the state, and the fault layer must not
//! be able to tell — the last two tests.

use nice::mc::transition::{enabled_transitions, execute, DiscoveryMemo};
use nice::mc::{SystemState, Transition};
use nice::openflow::{ChannelFault, FlowRule, OfMessage};
use nice::prelude::*;
use nice::scenarios::{bug_scenario, BugId};
use nice_apps::workloads::{chain_fault_workload, chain_ping_workload};

/// Worker count for the parallel legs (CI sets `NICE_TEST_WORKERS=4`).
fn test_workers() -> usize {
    std::env::var("NICE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Violated property names, sorted and deduplicated.
fn violated_properties(report: &CheckReport) -> Vec<String> {
    let mut names: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.property.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Length of the shortest violation trace per property.
fn shortest_traces(report: &CheckReport) -> Vec<(String, usize)> {
    let mut out: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for v in &report.violations {
        let entry = out.entry(v.property.clone()).or_insert(usize::MAX);
        *entry = (*entry).min(v.trace.len());
    }
    out.into_iter().collect()
}

fn run(scenario: Scenario, config: CheckerConfig) -> CheckReport {
    ModelChecker::new(scenario, config.with_stop_at_first(false)).run()
}

/// Asserts that two exhaustive reports describe the same search: identical
/// counts, verdicts, violated properties, and (sequentially) witnesses.
fn assert_identical_reports(a: &CheckReport, b: &CheckReport, workers: usize, label: &str) {
    assert!(
        !a.stats.truncated && !b.stats.truncated,
        "{label}: equivalence requires exhaustive searches"
    );
    // Transition counts are only comparable on the deterministic sequential
    // engine: parallel workers race to claim fingerprints, so the exact
    // number of executed transitions (and the sleep sets POR builds from
    // them) varies run to run even without faults. State coverage does not.
    if workers == 1 {
        assert_eq!(
            a.stats.transitions, b.stats.transitions,
            "{label}: transition counts differ"
        );
    }
    assert_eq!(
        a.stats.unique_states, b.stats.unique_states,
        "{label}: unique state counts differ"
    );
    assert_eq!(
        a.stats.terminal_states, b.stats.terminal_states,
        "{label}: terminal coverage differs"
    );
    assert_eq!(a.passed(), b.passed(), "{label}: verdicts differ");
    assert_eq!(
        violated_properties(a),
        violated_properties(b),
        "{label}: violated property sets differ"
    );
    if workers == 1 {
        assert_eq!(
            shortest_traces(a),
            shortest_traces(b),
            "{label}: shortest witnesses differ"
        );
    }
}

/// The faults-off matrix: for each workload, each worker count and each
/// reduction, (a) an *empty* plan with injection on and (b) a *non-empty*
/// plan with injection off must both reproduce the plain report exactly.
#[test]
fn dormant_fault_plans_are_bit_identical_to_plain_runs() {
    type Workload = (&'static str, fn() -> Scenario);
    let workloads: [Workload; 2] = [
        ("pyswitch-chain", || chain_ping_workload(3, 1)),
        ("loadbalancer-bug-v", || bug_scenario(BugId::BugV)),
    ];
    for (name, make) in workloads {
        for workers in [1, test_workers()] {
            for reduction in [ReductionKind::None, ReductionKind::Por] {
                let config = CheckerConfig::default()
                    .with_workers(workers)
                    .with_reduction(reduction);
                let label = format!("{name} x{workers} {reduction:?}");
                let plain = run(make(), config.clone());

                let empty_plan_injecting = run(
                    make().with_fault_plan(FaultPlan::none()),
                    config.clone().with_fault_injection(true),
                );
                assert_identical_reports(
                    &plain,
                    &empty_plan_injecting,
                    workers,
                    &format!("{label} (empty plan, injection on)"),
                );
                assert!(
                    !empty_plan_injecting.stats.faults.any(),
                    "{label}: an empty plan injected faults"
                );

                let armed_plan_dormant = run(
                    make().with_fault_plan(FaultPlan::crashes(1)),
                    config.clone(),
                );
                assert_identical_reports(
                    &plain,
                    &armed_plan_dormant,
                    workers,
                    &format!("{label} (armed plan, injection off)"),
                );
                assert!(
                    !armed_plan_dormant.stats.faults.any(),
                    "{label}: a dormant plan injected faults"
                );
            }
        }
    }
}

/// POR under faults: same verdict and violated properties as the full
/// search, never more transitions, and on the chain workload a real
/// reduction — the footprints of the fault transitions keep the sleep sets
/// pruning.
#[test]
fn por_reduces_the_chain_under_faults_without_changing_the_verdict() {
    let faulty = |reduction: ReductionKind| {
        run(
            chain_fault_workload(3, 1),
            CheckerConfig::default()
                .with_reduction(reduction)
                .with_fault_injection(true),
        )
    };
    let full = faulty(ReductionKind::None);
    let por = faulty(ReductionKind::Por);
    assert!(!full.stats.truncated && !por.stats.truncated);
    assert!(
        full.stats.faults.any() && por.stats.faults.any(),
        "fault transitions were explored on both sides"
    );
    assert_eq!(full.passed(), por.passed(), "verdicts differ under faults");
    assert_eq!(
        violated_properties(&full),
        violated_properties(&por),
        "violated property sets differ under faults"
    );
    assert_eq!(
        full.stats.terminal_states, por.stats.terminal_states,
        "terminal coverage differs under faults"
    );
    assert!(
        por.stats.transitions < full.stats.transitions,
        "POR stopped reducing the chain under faults ({} vs {})",
        por.stats.transitions,
        full.stats.transitions
    );
    assert!(por.stats.pruned_by_por > 0);
}

/// The fault-dependent registry bug keeps its violation set with POR on or
/// off, sequentially and in parallel — the acceptance bar for layering new
/// transition kinds under the reduction.
#[test]
fn bug_xii_violations_survive_por_and_parallelism() {
    for workers in [1, test_workers()] {
        let hunt = |reduction: ReductionKind| {
            run(
                bug_scenario(BugId::BugXII),
                CheckerConfig::default()
                    .with_workers(workers)
                    .with_reduction(reduction)
                    .with_fault_injection(true),
            )
        };
        let full = hunt(ReductionKind::None);
        let por = hunt(ReductionKind::Por);
        assert_eq!(
            violated_properties(&full),
            vec!["NoAbandonedPackets".to_string()],
            "x{workers}: the crash bug must be found by the full search"
        );
        assert_eq!(
            violated_properties(&full),
            violated_properties(&por),
            "x{workers}: POR changed the violation set"
        );
        assert!(por.stats.transitions <= full.stats.transitions);
    }
}

/// The channel faults enabled on `(switch, port)` in `state`, in the order
/// the checker schedules them.
fn channel_faults(
    state: &SystemState,
    scenario: &Scenario,
    switch: SwitchId,
    port: PortId,
) -> Vec<ChannelFault> {
    let config = CheckerConfig::default().with_fault_injection(true);
    enabled_transitions(state, scenario, &config)
        .into_iter()
        .filter_map(|t| match t {
            Transition::ChannelFault {
                switch: s,
                port: p,
                fault,
            } if (s, p) == (switch, port) => Some(fault),
            _ => None,
        })
        .collect()
}

/// Which faults a link allows is the plan's to say, not the channel's: an
/// ingress port nothing is queued on has no channel in the state, and its
/// link can fail all the same; the faults that need a message appear with
/// the first and the second one queued.
#[test]
fn a_lossy_plan_fails_links_nothing_is_queued_on() {
    use ChannelFault::{DropHead, DuplicateHead, FailLink, ReorderHead};
    let (sw, port) = (SwitchId(2), PortId(3));
    let scenario = chain_ping_workload(3, 1).with_fault_plan(FaultPlan::lossy(2));
    let mut state = SystemState::initial(&scenario);
    assert!(
        state.ingress(sw, port).is_none(),
        "an idle channel has no cell"
    );
    assert_eq!(channel_faults(&state, &scenario, sw, port), [FailLink]);

    let packet = Packet::l2_ping(1, MacAddr::for_host(1), MacAddr::for_host(2), 0);
    state.enqueue_ingress(sw, port, packet);
    let one_queued = [DropHead, DuplicateHead, FailLink];
    assert_eq!(channel_faults(&state, &scenario, sw, port), one_queued);
    state.enqueue_ingress(sw, port, packet);
    let two_queued = [DropHead, DuplicateHead, ReorderHead, FailLink];
    assert_eq!(channel_faults(&state, &scenario, sw, port), two_queued);
    assert_eq!(
        channel_faults(&state.clone(), &scenario, sw, port),
        two_queued
    );

    // Failing the idle link of another port gives that channel a cell that
    // stays, empty, through clones; a failed link has no faults left.
    let config = CheckerConfig::default().with_fault_injection(true);
    let fail = Transition::ChannelFault {
        switch: sw,
        port: PortId(2),
        fault: FailLink,
    };
    let (mut memo, mut events) = (DiscoveryMemo::default(), Vec::new());
    execute(
        &mut state,
        &fail,
        &scenario,
        &config,
        &mut memo,
        &mut events,
    );
    let state = state.clone();
    assert!(state
        .ingress(sw, PortId(2))
        .is_some_and(|ch| ch.is_failed()));
    assert_eq!(channel_faults(&state, &scenario, sw, PortId(2)), []);
    assert_eq!(state.fault_budget(), 1);
    assert_eq!(channel_faults(&state, &scenario, sw, port), two_queued);

    // Out of budget, nothing is enabled — queued or not.
    let spent = scenario.clone().with_fault_plan(FaultPlan::lossy(0));
    let state = SystemState::initial(&spent);
    assert_eq!(channel_faults(&state, &spent, sw, port), []);
}

/// A switch that crashes while its control channels are idle — no cell to
/// mark — is cut off all the same: a `FlowMod` sent before it reconnects is
/// lost, one sent after is delivered and installed.
#[test]
fn a_crashed_switch_with_idle_control_channels_receives_nothing_until_it_reconnects() {
    let sw = SwitchId(2);
    let scenario = chain_fault_workload(3, 1);
    let config = CheckerConfig::default().with_fault_injection(true);
    let mut state = SystemState::initial(&scenario);
    assert!(state.ctrl_to_sw(sw).is_none() && state.sw_to_ctrl(sw).is_none());
    let (mut memo, mut events) = (DiscoveryMemo::default(), Vec::new());
    let mut step = |state: &mut SystemState, transition: Transition| {
        let enabled = enabled_transitions(state, &scenario, &config);
        assert!(enabled.contains(&transition), "{transition} is not enabled");
        execute(
            state,
            &transition,
            &scenario,
            &config,
            &mut memo,
            &mut events,
        );
    };
    let flow_mod = || {
        let rule = FlowRule::new(MatchPattern::any(), 1, vec![Action::Drop]);
        OfMessage::add_rule(&rule)
    };
    let process_of = Transition::ProcessOf { switch: sw };

    step(&mut state, Transition::SwitchCrash { switch: sw });
    assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_failed()));
    // Through a clone too: the search works on clones of this state.
    let mut state = state.clone();
    state.enqueue_to_switch(sw, flow_mod());
    assert!(state.ctrl_to_sw(sw).is_some_and(|ch| ch.is_empty()));
    assert!(!enabled_transitions(&state, &scenario, &config).contains(&process_of));

    step(&mut state, Transition::SwitchReconnect { switch: sw });
    let mut state = state.clone();
    state.enqueue_to_switch(sw, flow_mod());
    step(&mut state, process_of);
    let table = &state
        .switch(sw)
        .expect("the chain has a switch 2")
        .flow_table;
    assert_eq!(
        table.rules().count(),
        1,
        "sent after the reconnect, installed"
    );
}
