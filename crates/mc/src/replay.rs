//! Deterministic step-by-step re-execution of a recorded [`Trace`].
//!
//! Replay always runs on the sequential 1-worker semantics, regardless of
//! how many workers the producing search used: a trace is a single
//! interleaving, so re-executing it needs no parallelism and must not
//! inherit any scheduling dependence. The trace's own
//! [`TraceEngine`](crate::trace::TraceEngine) supplies the semantics-
//! relevant knobs (strategy, fault injection, coarse packet processing), so
//! a BUG-XII witness recorded under `--faults` replays its fault
//! transitions exactly.
//!
//! Each step is validated against the engine's own enabled-transition
//! computation before executing — a corrupted or hand-edited trace reports
//! [`ReplayOutcome::Diverged`] at the first impossible step instead of
//! silently executing nonsense. Properties are fed every event and checked
//! after every step (plus the final-state checks at a terminal end), so the
//! report pinpoints the exact step each violation fires at.

use crate::checker::{violated, violated_at_end, ModelChecker, Snapshot, Stepper};
use crate::properties::{Event, Property};
use crate::scenario::ReductionKind;
use crate::state::SystemState;
use crate::trace::{Trace, TraceEngine};
use crate::transition::{DiscoveryMemo, Transition};
use std::fmt;

/// How a replay ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Every step executed.
    Completed,
    /// Step `step` (0-based) was not enabled in the state the preceding
    /// steps produced — the trace does not describe a real execution of
    /// this scenario under its recorded engine configuration.
    Diverged {
        /// 0-based index of the impossible step.
        step: usize,
    },
}

/// One property violation observed during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayViolation {
    /// 0-based index of the step after which the violation fired; equal to
    /// the trace length for final-state (`check_final`) violations.
    pub step: usize,
    /// The violated property.
    pub property: String,
    /// The violation message.
    pub message: String,
}

/// The result of replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// How the replay ended.
    pub outcome: ReplayOutcome,
    /// Every violation observed, in step order.
    pub violations: Vec<ReplayViolation>,
    /// Steps actually executed (equals the trace length iff `outcome` is
    /// [`ReplayOutcome::Completed`]).
    pub steps_executed: usize,
    /// Fingerprint of the state after the last executed step — the
    /// bit-determinism witness: two replays of the same trace always agree
    /// on it.
    pub final_fingerprint: u64,
    /// True if the state after the last executed step is terminal (no
    /// enabled transitions), i.e. final-state properties were checked.
    pub terminal: bool,
}

impl ReplayReport {
    /// True if the whole trace executed.
    pub fn completed(&self) -> bool {
        self.outcome == ReplayOutcome::Completed
    }

    /// True if any violation was observed.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// True if a violation of `property` was observed.
    pub fn reproduced(&self, property: &str) -> bool {
        self.violations.iter().any(|v| v.property == property)
    }

    /// True if the replay reproduces the violation the trace claims to
    /// witness (any violation, when the trace names no property).
    pub fn reproduces(&self, trace: &Trace) -> bool {
        match &trace.property {
            Some(p) => self.reproduced(p),
            None => self.violated(),
        }
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            ReplayOutcome::Completed => writeln!(
                f,
                "replayed {} steps | terminal: {} | final fingerprint: {:#018x}",
                self.steps_executed, self.terminal, self.final_fingerprint
            )?,
            ReplayOutcome::Diverged { step } => writeln!(
                f,
                "DIVERGED at step {} (after {} executed steps): transition not enabled",
                step + 1,
                self.steps_executed
            )?,
        }
        if self.violations.is_empty() {
            writeln!(f, "  no violations observed")?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "  violation after step {}: {} — {}",
                v.step + 1,
                v.property,
                v.message
            )?;
        }
        Ok(())
    }
}

/// The result of executing one step through a [`Replayer`].
pub(crate) enum StepResult {
    /// The step executed; any property violations it triggered are listed
    /// as `(property, message)` pairs.
    Executed(Vec<(String, String)>),
    /// The transition was not enabled (per the trace engine's strategy) in
    /// the current state.
    Diverged,
}

/// An incremental trace executor over the deterministic sequential engine —
/// the shared substrate of [`ModelChecker::replay`],
/// [`ModelChecker::minimize`](crate::minimize),
/// [`ModelChecker::bisect`](crate::minimize) and the timeline renderer.
pub(crate) struct Replayer<'a> {
    stepper: Stepper<'a>,
    state: SystemState,
    properties: Vec<Box<dyn Property>>,
    steps_executed: usize,
}

impl<'a> Replayer<'a> {
    /// Starts a replayer at the scenario's initial state, with the
    /// semantics-relevant knobs taken from the trace's engine metadata and
    /// everything normalized to the deterministic 1-worker engine.
    pub(crate) fn new(checker: &'a ModelChecker, engine: &TraceEngine) -> Self {
        let mut config = checker.config().clone();
        config.strategy = engine.strategy;
        config.inject_faults = engine.faults;
        config.workers = 1;
        // Replay follows the recorded sequence; it never prunes.
        config.reduction = ReductionKind::None;
        let scenario = checker.scenario();
        let Snapshot { state, properties } = Snapshot::initial(scenario);
        Replayer {
            stepper: Stepper::new(scenario, config, DiscoveryMemo::default()),
            state,
            properties,
            steps_executed: 0,
        }
    }

    /// The transitions the engine would offer in the current state (after
    /// strategy selection) — the membership oracle for divergence checks
    /// and the deterministic continuation choice for minimization.
    pub(crate) fn selected(&self) -> Vec<Transition> {
        self.stepper.selected(&self.state).0
    }

    /// Executes one transition if it is currently enabled, feeding property
    /// observers and collecting violations — the same semantics as one
    /// search step of the checker.
    pub(crate) fn step(&mut self, transition: &Transition) -> StepResult {
        if !self.selected().iter().any(|t| t == transition) {
            return StepResult::Diverged;
        }
        self.step_unchecked(transition)
    }

    /// Executes a transition the caller already knows is enabled (e.g. one
    /// just returned by [`Replayer::selected`]).
    pub(crate) fn step_unchecked(&mut self, transition: &Transition) -> StepResult {
        self.stepper
            .advance(&mut self.state, &mut self.properties, transition);
        self.steps_executed += 1;
        StepResult::Executed(violated(&self.properties, &self.state))
    }

    /// True if the current state has no enabled transitions.
    pub(crate) fn terminal(&self) -> bool {
        self.selected().is_empty()
    }

    /// Final-state property checks on the current state.
    pub(crate) fn check_final(&self) -> Vec<(String, String)> {
        violated_at_end(&self.properties, &self.state)
    }

    /// Fingerprint of the current state.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }

    /// Steps executed so far.
    pub(crate) fn steps_executed(&self) -> usize {
        self.steps_executed
    }

    /// The events emitted by the most recent step (for the timeline
    /// renderer).
    pub(crate) fn last_events(&self) -> &[Event] {
        &self.stepper.events
    }

    /// The current state (for the timeline renderer's barrier peeking).
    pub(crate) fn state(&self) -> &SystemState {
        &self.state
    }

    /// An independent copy of this replayer at its current state, for
    /// bounded exploration from a replayed prefix (bisection probes).
    pub(crate) fn branch(&self) -> Replayer<'a> {
        Replayer {
            stepper: Stepper::new(
                self.stepper.scenario,
                self.stepper.config.clone(),
                DiscoveryMemo::default(),
            ),
            state: self.state.clone(),
            properties: self.properties.clone(),
            steps_executed: self.steps_executed,
        }
    }
}

impl ModelChecker {
    /// Re-executes a recorded trace step by step on the deterministic
    /// 1-worker engine, checking every property at every step (and the
    /// final-state properties if the trace ends in a terminal state).
    ///
    /// The trace's [`TraceEngine`](crate::trace::TraceEngine) governs the
    /// execution semantics — strategy, fault injection, coarse packet
    /// processing — so traces recorded under `--faults` (BUG-XII) replay
    /// their fault transitions. The checker's own configuration supplies
    /// everything else (e.g. rule-expiry exploration).
    ///
    /// Replay is bit-deterministic: the same trace on the same scenario
    /// always produces the same [`ReplayReport`], including
    /// [`ReplayReport::final_fingerprint`].
    pub fn replay(&self, trace: &Trace) -> ReplayReport {
        let mut replayer = Replayer::new(self, &trace.engine);
        let mut violations = Vec::new();
        for (index, transition) in trace.steps.iter().enumerate() {
            match replayer.step(transition) {
                StepResult::Diverged => {
                    return ReplayReport {
                        outcome: ReplayOutcome::Diverged { step: index },
                        violations,
                        steps_executed: replayer.steps_executed(),
                        final_fingerprint: replayer.fingerprint(),
                        terminal: false,
                    };
                }
                StepResult::Executed(found) => {
                    violations.extend(found.into_iter().map(|(property, message)| {
                        ReplayViolation {
                            step: index,
                            property,
                            message,
                        }
                    }));
                }
            }
        }
        let terminal = replayer.terminal();
        if terminal {
            violations.extend(
                replayer
                    .check_final()
                    .into_iter()
                    .map(|(property, message)| ReplayViolation {
                        step: trace.steps.len(),
                        property,
                        message,
                    }),
            );
        }
        ReplayReport {
            outcome: ReplayOutcome::Completed,
            violations,
            steps_executed: replayer.steps_executed(),
            final_fingerprint: replayer.fingerprint(),
            terminal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CheckerConfig;
    use crate::testutil;

    fn violating_checker() -> ModelChecker {
        let scenario = testutil::ping_scenario_with_app(Box::new(testutil::ForgetfulApp), 1);
        ModelChecker::new(scenario, CheckerConfig::default())
    }

    #[test]
    fn replay_reproduces_a_recorded_violation() {
        let checker = violating_checker();
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let replay = checker.replay(&violation.trace);
        assert!(replay.completed(), "{replay}");
        assert!(
            replay.reproduced(&violation.property),
            "replay must reproduce {}: {replay}",
            violation.property
        );
        assert_eq!(replay.steps_executed, violation.trace.len());
    }

    #[test]
    fn replay_is_bit_deterministic() {
        let checker = violating_checker();
        let report = checker.run();
        let trace = &report.first_violation().expect("violation").trace;
        let a = checker.replay(trace);
        let b = checker.replay(trace);
        assert_eq!(a, b);
        assert_eq!(a.final_fingerprint, b.final_fingerprint);
    }

    #[test]
    fn replay_survives_a_json_round_trip() {
        let checker = violating_checker();
        let report = checker.run();
        let trace = &report.first_violation().expect("violation").trace;
        let parsed = Trace::from_json(&trace.to_json()).expect("round trip");
        assert_eq!(checker.replay(trace), checker.replay(&parsed));
    }

    #[test]
    fn replay_detects_divergence() {
        let checker = violating_checker();
        let report = checker.run();
        let mut trace = report.first_violation().expect("violation").trace.clone();
        // A transition for a switch that does not exist can never be enabled.
        trace.steps.insert(
            0,
            Transition::ProcessOf {
                switch: nice_openflow::SwitchId(999),
            },
        );
        let replay = checker.replay(&trace);
        assert_eq!(replay.outcome, ReplayOutcome::Diverged { step: 0 });
        assert_eq!(replay.steps_executed, 0);
    }

    #[test]
    fn clean_scenario_replays_with_no_violations() {
        let scenario = testutil::hub_ping_scenario(1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        // Record a full run of some passing path via random walk.
        let report = checker.run();
        assert!(report.passed());
        // Build a trace by walking the engine deterministically.
        let mut replayer = Replayer::new(&checker, &crate::trace::TraceEngine::default());
        let mut steps = Vec::new();
        while let Some(t) = replayer.selected().first().cloned() {
            replayer.step_unchecked(&t);
            steps.push(t);
            if steps.len() > 200 {
                break;
            }
        }
        let trace = Trace::from_transitions(
            &checker.scenario().name,
            crate::trace::TraceEngine::default(),
            steps,
        );
        let replay = checker.replay(&trace);
        assert!(replay.completed());
        assert!(replay.terminal);
        assert!(!replay.violated(), "{replay}");
    }
}
