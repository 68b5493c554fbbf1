//! Counterexample minimization (ddmin delta debugging) and bisection.
//!
//! Both tools are replay loops over the deterministic sequential engine —
//! no new search machinery. They normalize scheduling away: whatever
//! engine recorded the witness (the parallel search's choice of shortest
//! trace is scheduling-dependent), candidates are re-executed on the
//! 1-worker semantics, so results are reproducible byte-for-byte.
//!
//! # Minimization
//!
//! [`ModelChecker::minimize`] runs ddmin (Zeller & Hildebrandt) over the
//! trace's transitions with a *completion-based* failure predicate: a
//! candidate subset is replayed step by step, steps no longer enabled are
//! skipped (dropping a prerequisite disables dependents; the rest of the
//! suffix is often still executable), and if the candidate runs out before
//! the target property fails, the execution is extended deterministically
//! (always the engine's first offered transition) up to a length cap. The
//! witness kept is the *executed* sequence — truncated at the step the
//! property fires — so minimized traces always replay verbatim and never
//! grow. Final-state properties (BUG-V's `NoForgottenPackets` fires only
//! in terminal states) are handled by the terminal check at the end of a
//! completed candidate.
//!
//! # Bisection
//!
//! [`ModelChecker::bisect`] finds the first prefix length `k` after which
//! the violation is *unavoidable*: every continuation of the first `k`
//! steps violates the target property. Unavoidability is monotone in `k`
//! (continuations of a longer prefix are a subset of the shorter one's),
//! so a binary search with a bounded exhaustive probe per midpoint finds
//! the frontier in `O(log n)` probes. Each probe replays the prefix and
//! explores every continuation (fingerprint-deduplicated, budget-bounded),
//! looking for one violation-free terminal completion.

use crate::checker::ModelChecker;
use crate::replay::{Replayer, StepResult};
use crate::trace::{Trace, TraceEngine};
use crate::transition::Transition;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Per-candidate transition budget for the completion search in
/// [`ModelChecker::minimize`]'s failure predicate. Small scenarios are
/// covered exhaustively; in large spaces the search degrades gracefully
/// (candidates whose completion is out of reach are rejected).
const EXTEND_BUDGET: u64 = 5_000;

/// The result of minimizing a trace.
#[derive(Debug, Clone)]
pub struct MinimizeReport {
    /// Steps in the trace that was minimized.
    pub original_len: usize,
    /// The minimized trace: replays verbatim on the 1-worker engine and
    /// still violates [`MinimizeReport::property`]. Never longer than the
    /// original.
    pub minimized: Trace,
    /// The property every kept candidate had to keep violating.
    pub property: String,
    /// Replays executed by the ddmin loop.
    pub replays: u64,
}

impl MinimizeReport {
    /// Steps removed relative to the original trace.
    pub fn removed(&self) -> usize {
        self.original_len - self.minimized.len()
    }

    /// Fraction of steps removed, in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.original_len == 0 {
            0.0
        } else {
            self.removed() as f64 * 100.0 / self.original_len as f64
        }
    }
}

impl fmt::Display for MinimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "minimized {} -> {} steps (-{:.0}%) | property: {} | replays: {}",
            self.original_len,
            self.minimized.len(),
            self.reduction_percent(),
            self.property,
            self.replays
        )?;
        write!(f, "{}", self.minimized)
    }
}

/// The result of bisecting a trace.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// Steps in the bisected trace.
    pub len: usize,
    /// The property whose violation was localised.
    pub property: String,
    /// The smallest verified prefix length after which every continuation
    /// violates the property. `Some(0)` means the violation is unavoidable
    /// from the initial state. When [`BisectReport::decided`] is false this
    /// is the best *upper bound* the budget allowed.
    pub first_unavoidable: Option<usize>,
    /// The transition that committed the system — step
    /// `first_unavoidable` of the trace (`None` when that is 0).
    pub culprit: Option<Transition>,
    /// False if the exploration budget ran out before the frontier was
    /// pinned down exactly.
    pub decided: bool,
    /// Bisection probes performed.
    pub probes: u32,
    /// Transitions executed across all probe explorations.
    pub explored: u64,
}

impl fmt::Display for BisectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_unavoidable {
            Some(0) => writeln!(
                f,
                "violation of {} is unavoidable from the initial state",
                self.property
            )?,
            Some(k) => {
                writeln!(
                    f,
                    "violation of {} becomes unavoidable after step {}/{}{}",
                    self.property,
                    k,
                    self.len,
                    if self.decided {
                        ""
                    } else {
                        " (upper bound; probe budget exhausted)"
                    }
                )?;
                if let Some(t) = &self.culprit {
                    writeln!(f, "  committing transition: {t}")?;
                }
            }
            None => writeln!(f, "bisection of {} was inconclusive", self.property)?,
        }
        write!(
            f,
            "  probes: {} | transitions explored: {}",
            self.probes, self.explored
        )
    }
}

/// A reproduced failure: the exactly-executed steps and the message the
/// target property fired with.
struct Witness {
    steps: Vec<Transition>,
    message: String,
}

/// Verdict of one bisection probe.
enum Probe {
    Unavoidable,
    Avoidable,
    Undecided,
}

impl ModelChecker {
    /// Minimizes a violation trace with ddmin delta debugging: repeatedly
    /// drops transition subsets and keeps any shrink after which replay (on
    /// the deterministic 1-worker engine) still violates the same property.
    /// See the [module docs](crate::minimize) for the exact predicate.
    ///
    /// Errors if replay does not reproduce a violation to minimize against.
    pub fn minimize(&self, trace: &Trace) -> Result<MinimizeReport, String> {
        let transitions = &trace.steps;
        let mut engine = trace.engine;
        engine.workers = 1;
        let original_len = transitions.len();
        let mut replays = 0u64;

        let target = match &trace.property {
            Some(p) => p.clone(),
            None => {
                // Untargeted trace: take the first property its replay
                // violates.
                let report = self.replay(trace);
                report
                    .violations
                    .first()
                    .map(|v| v.property.clone())
                    .ok_or("trace violates no property; nothing to minimize against")?
            }
        };

        let mut best = self
            .try_reproduce(&engine, transitions, &target, original_len, &mut replays)
            .ok_or_else(|| {
                format!("replay of the trace does not reproduce a violation of {target}")
            })?;

        // ddmin: split into n chunks; try each chunk alone, then each
        // complement; refine granularity when neither helps.
        let mut n = 2usize;
        while best.steps.len() >= 2 {
            let len = best.steps.len();
            let chunk = len.div_ceil(n);
            let cap = len - 1;
            let mut improved = false;

            for i in 0..n {
                let lo = i * chunk;
                if lo >= len {
                    break;
                }
                let hi = (lo + chunk).min(len);
                let subset = best.steps[lo..hi].to_vec();
                if let Some(w) = self.try_reproduce(&engine, &subset, &target, cap, &mut replays) {
                    best = w;
                    improved = true;
                    break;
                }
            }
            if improved {
                n = 2;
                continue;
            }

            if n > 2 {
                for i in 0..n {
                    let lo = i * chunk;
                    if lo >= len {
                        break;
                    }
                    let hi = (lo + chunk).min(len);
                    let complement: Vec<Transition> = best.steps[..lo]
                        .iter()
                        .chain(&best.steps[hi..])
                        .cloned()
                        .collect();
                    if let Some(w) =
                        self.try_reproduce(&engine, &complement, &target, cap, &mut replays)
                    {
                        best = w;
                        improved = true;
                        break;
                    }
                }
            }
            if improved {
                n = (n - 1).max(2);
                continue;
            }

            if n >= len {
                break;
            }
            n = (2 * n).min(len);
        }

        // Polish: ddmin's chunks live at fixed `i*chunk` offsets, so a
        // removable pair or triple straddling a chunk boundary (a fault
        // step plus its downstream consequence, typically) is never tried
        // as one unit. A sliding-window removal pass covers every offset;
        // iterate it to a fixpoint.
        let mut improved = true;
        while improved && best.steps.len() >= 2 {
            improved = false;
            'windows: for w in [1usize, 2, 3] {
                if best.steps.len() <= w {
                    continue;
                }
                for start in 0..=best.steps.len() - w {
                    let candidate: Vec<Transition> = best.steps[..start]
                        .iter()
                        .chain(&best.steps[start + w..])
                        .cloned()
                        .collect();
                    let cap = best.steps.len() - 1;
                    if let Some(witness) =
                        self.try_reproduce(&engine, &candidate, &target, cap, &mut replays)
                    {
                        best = witness;
                        improved = true;
                        break 'windows;
                    }
                }
            }
        }

        let mut minimized = Trace::from_transitions(&trace.scenario, engine, best.steps);
        minimized.property = Some(target.clone());
        minimized.message = Some(best.message);
        Ok(MinimizeReport {
            original_len,
            minimized,
            property: target,
            replays,
        })
    }

    /// Replays `candidate` (skipping steps that are no longer enabled) and,
    /// if the target property has not fired when the candidate runs out,
    /// searches the continuations breadth-first for the *shortest* violating
    /// completion — bounded by `max_len` total executed steps and
    /// [`EXTEND_BUDGET`] explored transitions. Returns the executed steps —
    /// a verbatim-replayable witness of at most `max_len` steps — iff the
    /// target property fired (mid-trace `check` or terminal `check_final`).
    fn try_reproduce(
        &self,
        engine: &TraceEngine,
        candidate: &[Transition],
        target: &str,
        max_len: usize,
        replays: &mut u64,
    ) -> Option<Witness> {
        *replays += 1;
        let mut replayer = Replayer::new(self, engine);
        let mut executed: Vec<Transition> = Vec::new();
        for transition in candidate {
            if executed.len() >= max_len {
                return None;
            }
            match replayer.step(transition) {
                StepResult::Diverged => continue,
                StepResult::Executed(violations) => {
                    executed.push(transition.clone());
                    if let Some((_, message)) = violations.into_iter().find(|(p, _)| p == target) {
                        return Some(Witness {
                            steps: executed,
                            message,
                        });
                    }
                }
            }
        }
        // Candidate exhausted without the target firing: complete the
        // execution. Breadth-first, so the first violating completion found
        // is also the shortest one — final-state properties (which need a
        // terminal state to fire in) are covered by the terminal check. If
        // the exploration budget runs out (large completion space), fall
        // back to the cheap greedy completion: always the engine's first
        // offered transition.
        let fallback = replayer.branch();
        let start_len = executed.len();
        let mut budget = EXTEND_BUDGET;
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(replayer.fingerprint());
        let mut queue: VecDeque<(Replayer<'_>, Vec<Transition>)> = VecDeque::new();
        queue.push_back((replayer, Vec::new()));
        'bfs: while let Some((node, path)) = queue.pop_front() {
            let selected = node.selected();
            if selected.is_empty() {
                if let Some((_, message)) =
                    node.check_final().into_iter().find(|(p, _)| p == target)
                {
                    let mut steps = executed;
                    steps.extend(path);
                    return Some(Witness { steps, message });
                }
                continue;
            }
            if start_len + path.len() >= max_len {
                continue;
            }
            for transition in selected {
                if budget == 0 {
                    break 'bfs;
                }
                budget -= 1;
                let mut child = node.branch();
                let StepResult::Executed(violations) = child.step_unchecked(&transition) else {
                    unreachable!("selected transitions are enabled by construction");
                };
                if let Some((_, message)) = violations.into_iter().find(|(p, _)| p == target) {
                    let mut steps = executed;
                    steps.extend(path);
                    steps.push(transition);
                    return Some(Witness { steps, message });
                }
                if seen.insert(child.fingerprint()) {
                    let mut longer = path.clone();
                    longer.push(transition);
                    queue.push_back((child, longer));
                }
            }
        }
        if budget > 0 {
            // The BFS exhausted every reachable completion: no violating
            // one exists within the cap.
            return None;
        }
        let mut greedy = fallback;
        loop {
            let Some(next) = greedy.selected().first().cloned() else {
                return greedy
                    .check_final()
                    .into_iter()
                    .find(|(p, _)| p == target)
                    .map(|(_, message)| Witness {
                        steps: executed,
                        message,
                    });
            };
            if executed.len() >= max_len {
                return None;
            }
            let StepResult::Executed(violations) = greedy.step_unchecked(&next) else {
                unreachable!("selected transitions are enabled by construction");
            };
            executed.push(next);
            if let Some((_, message)) = violations.into_iter().find(|(p, _)| p == target) {
                return Some(Witness {
                    steps: executed,
                    message,
                });
            }
        }
    }

    /// Reports the first transition after which the trace's violation
    /// becomes unavoidable — every continuation of the prefix up to and
    /// including that transition violates the target property.
    ///
    /// `max_explored` bounds the total transitions the probe explorations
    /// may execute (0 = unlimited). If the budget runs out the report's
    /// `decided` flag is false and `first_unavoidable` is the best verified
    /// upper bound.
    pub fn bisect(&self, trace: &Trace, max_explored: u64) -> Result<BisectReport, String> {
        let transitions = &trace.steps;
        let mut engine = trace.engine;
        engine.workers = 1;

        // Strict full replay: find the target property and the step its
        // violation fires at.
        let report = self.replay(trace);
        if !report.completed() {
            return Err(format!(
                "trace does not replay cleanly: {:?}",
                report.outcome
            ));
        }
        let violation = match &trace.property {
            Some(p) => report.violations.iter().find(|v| &v.property == p),
            None => report.violations.first(),
        }
        .ok_or("replay of the trace reproduces no violation to bisect")?;
        let target = violation.property.clone();
        // Prefix of length `fire + 1` (or the whole trace for final-state
        // violations, where step == len) already exhibits the violation, so
        // it is trivially unavoidable: the known-bad end of the bracket.
        let mut hi = (violation.step + 1).min(transitions.len());
        let mut probes = 0u32;
        let mut explored = 0u64;

        let mut lo = 0usize; // exclusive known-avoidable bound, once probed
                             // Probe k = 0 first: is the violation unavoidable from the start?
        probes += 1;
        match self.violation_unavoidable(
            &engine,
            &transitions[..0],
            &target,
            max_explored,
            &mut explored,
        ) {
            Probe::Unavoidable => {
                return Ok(BisectReport {
                    len: transitions.len(),
                    property: target,
                    first_unavoidable: Some(0),
                    culprit: None,
                    decided: true,
                    probes,
                    explored,
                });
            }
            Probe::Avoidable => {}
            Probe::Undecided => {
                return Ok(BisectReport {
                    len: transitions.len(),
                    property: target,
                    first_unavoidable: Some(hi),
                    culprit: Some(transitions[hi - 1].clone()),
                    decided: false,
                    probes,
                    explored,
                });
            }
        }

        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match self.violation_unavoidable(
                &engine,
                &transitions[..mid],
                &target,
                max_explored,
                &mut explored,
            ) {
                Probe::Unavoidable => hi = mid,
                Probe::Avoidable => lo = mid,
                Probe::Undecided => {
                    return Ok(BisectReport {
                        len: transitions.len(),
                        property: target,
                        first_unavoidable: Some(hi),
                        culprit: Some(transitions[hi - 1].clone()),
                        decided: false,
                        probes,
                        explored,
                    });
                }
            }
        }

        Ok(BisectReport {
            len: transitions.len(),
            property: target,
            first_unavoidable: Some(hi),
            culprit: Some(transitions[hi - 1].clone()),
            decided: true,
            probes,
            explored,
        })
    }

    /// One bisection probe: replays `prefix`, then exhaustively explores
    /// every continuation (fingerprint-deduplicated, depth- and
    /// budget-bounded) looking for a single completion free of `target`
    /// violations. Finding one proves the violation avoidable; exhausting
    /// the space without one proves it unavoidable; running out of budget
    /// (or hitting the depth bound) is undecided.
    fn violation_unavoidable(
        &self,
        engine: &TraceEngine,
        prefix: &[Transition],
        target: &str,
        max_explored: u64,
        explored: &mut u64,
    ) -> Probe {
        let mut root = Replayer::new(self, engine);
        for transition in prefix {
            match root.step(transition) {
                StepResult::Diverged => return Probe::Undecided,
                StepResult::Executed(violations) => {
                    if violations.iter().any(|(p, _)| p == target) {
                        return Probe::Unavoidable;
                    }
                }
            }
        }

        let max_depth = self.config().max_depth.max(prefix.len() + 1);
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(root.fingerprint());
        let mut stack = vec![root];
        let mut truncated = false;

        while let Some(node) = stack.pop() {
            let selected = node.selected();
            if selected.is_empty() {
                if !node.check_final().iter().any(|(p, _)| p == target) {
                    return Probe::Avoidable;
                }
                continue;
            }
            if node.steps_executed() >= max_depth {
                truncated = true;
                continue;
            }
            for transition in selected {
                if max_explored > 0 && *explored >= max_explored {
                    return Probe::Undecided;
                }
                *explored += 1;
                let mut child = node.branch();
                let StepResult::Executed(violations) = child.step_unchecked(&transition) else {
                    unreachable!("selected transitions are enabled by construction");
                };
                if violations.iter().any(|(p, _)| p == target) {
                    // This continuation violates; it cannot witness
                    // avoidability, and nothing past a violating state
                    // needs exploring (matching the search engine).
                    continue;
                }
                if seen.insert(child.fingerprint()) {
                    stack.push(child);
                }
            }
        }
        if truncated {
            Probe::Undecided
        } else {
            Probe::Unavoidable
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
    fn minimize_keeps_the_violation_and_never_grows() {
        let checker = violating_checker();
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let minimized = checker.minimize(&violation.trace).expect("minimize");
        assert!(minimized.minimized.len() <= violation.trace.len());
        assert_eq!(minimized.property, violation.property);
        let replay = checker.replay(&minimized.minimized);
        assert!(replay.completed());
        assert!(
            replay.reproduced(&minimized.property),
            "minimized trace must still violate {}: {replay}",
            minimized.property
        );
    }

    #[test]
    fn minimize_is_idempotent() {
        let checker = violating_checker();
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let once = checker.minimize(&violation.trace).expect("minimize");
        let twice = checker.minimize(&once.minimized).expect("minimize again");
        assert_eq!(once.minimized.steps, twice.minimized.steps);
    }

    #[test]
    fn minimize_rejects_non_violating_traces() {
        let scenario = testutil::hub_ping_scenario(1);
        let checker = ModelChecker::new(scenario, CheckerConfig::default());
        let trace = Trace::from_transitions("hub", TraceEngine::default(), []);
        assert!(checker.minimize(&trace).is_err());
    }

    #[test]
    fn bisect_localises_the_violation() {
        let checker = violating_checker();
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let bisect = checker.bisect(&violation.trace, 0).expect("bisect");
        assert!(bisect.decided);
        let k = bisect.first_unavoidable.expect("frontier");
        assert!(k <= violation.trace.len());
        // The frontier is meaningful: the violation is not unavoidable
        // before the culprit unless it starts at 0.
        if k > 0 {
            assert!(bisect.culprit.is_some());
        }
    }

    #[test]
    fn bisect_with_tiny_budget_is_undecided_but_bounded() {
        let checker = violating_checker();
        let report = checker.run();
        let violation = report.first_violation().expect("violation");
        let bisect = checker.bisect(&violation.trace, 1).expect("bisect");
        assert!(!bisect.decided);
        assert!(bisect.first_unavoidable.is_some());
    }
}
