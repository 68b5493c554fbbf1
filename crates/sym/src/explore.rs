//! The concolic path explorer.
//!
//! This is the `SymbolicExecution(ctrl, handler, context)` step of Figure 5:
//! given a handler (a closure over a clone of the controller state) and the
//! declared symbolic inputs, it enumerates the handler's feasible code paths
//! and returns one concrete input per path — the *relevant packets* that
//! become new `send` transitions in the model checker.
//!
//! The search is the classic generational ("DART"-style) strategy used by
//! concolic engines: run on a concrete input, record the path constraint,
//! then for every branch along the path ask the solver for an input that
//! follows the same prefix but takes the other side. Inputs that reproduce an
//! already-seen path are discarded, so the result is one representative per
//! equivalence class.

use crate::env::SymExecEnv;
use crate::expr::BoolExpr;
use crate::solver::{Assignment, Solver};
use nice_openflow::Hasher64;
use std::collections::{BTreeSet, VecDeque};
use std::hash::Hash;

/// Limits on the path exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum number of distinct paths to return. Symbolic execution can
    /// produce infinite execution trees (Section 9); this is the explicit
    /// bound the paper applies.
    pub max_paths: usize,
    /// Maximum number of branches along a single path whose negations are
    /// queued (bounds the frontier for pathological handlers).
    pub max_branch_depth: usize,
    /// Maximum number of handler executions (including ones that rediscover
    /// known paths).
    pub max_executions: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_paths: 64,
            max_branch_depth: 64,
            max_executions: 512,
        }
    }
}

/// One discovered feasible path.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// The concrete input that drives execution down this path — the
    /// representative member of the equivalence class.
    pub assignment: Assignment,
    /// The branch conditions encountered, with the direction taken.
    pub path: Vec<(BoolExpr, bool)>,
    /// Stable fingerprint of the path.
    pub signature: u64,
}

/// The outcome of exploring one handler.
#[derive(Debug, Clone, Default)]
pub struct ExploreOutcome {
    /// One entry per discovered equivalence class, in discovery order.
    pub paths: Vec<PathResult>,
    /// True if a configured limit stopped the search before the frontier was
    /// exhausted (a coverage loss the caller may want to report).
    pub truncated: bool,
    /// Number of handler executions performed.
    pub executions: usize,
}

impl ExploreOutcome {
    /// The representative inputs, one per discovered path.
    pub fn representative_inputs(&self) -> impl Iterator<Item = &Assignment> {
        self.paths.iter().map(|p| &p.assignment)
    }
}

/// The concolic explorer.
#[derive(Debug, Clone, Default)]
pub struct PathExplorer {
    config: ExploreConfig,
}

impl PathExplorer {
    /// Creates an explorer with the given limits.
    pub fn new(config: ExploreConfig) -> Self {
        PathExplorer { config }
    }

    /// The configured limits.
    pub fn config(&self) -> ExploreConfig {
        self.config
    }

    /// Explores every feasible path of `run`.
    ///
    /// `solver` must already hold the declared symbolic variables (typically
    /// created through [`crate::packet::SymPacketVars`] or
    /// [`crate::stats::SymStats`]); `run` executes the handler once under the
    /// provided environment. The closure is invoked multiple times with
    /// different concrete inputs — it must behave deterministically given the
    /// environment (e.g. by operating on a fresh clone of the controller
    /// state each time), which is how the model checker's `discover_packets`
    /// transition uses it.
    pub fn explore<F>(&self, solver: &mut Solver, mut run: F) -> ExploreOutcome
    where
        F: FnMut(&mut SymExecEnv),
    {
        let mut outcome = ExploreOutcome::default();
        let mut seen_paths: BTreeSet<u64> = BTreeSet::new();
        let mut attempted_prefixes: BTreeSet<u64> = BTreeSet::new();
        let mut worklist: VecDeque<Assignment> = VecDeque::new();
        worklist.push_back(solver.seed_assignment());

        while let Some(input) = worklist.pop_front() {
            if outcome.paths.len() >= self.config.max_paths
                || outcome.executions >= self.config.max_executions
            {
                outcome.truncated = true;
                break;
            }

            let mut env = SymExecEnv::new(input.clone());
            run(&mut env);
            outcome.executions += 1;

            let signature = env.path_signature();
            if !seen_paths.insert(signature) {
                continue; // This input rediscovered a known equivalence class.
            }
            let path = env.path().to_vec();

            // Generational expansion: negate each decision along the path.
            let depth = path.len().min(self.config.max_branch_depth);
            if path.len() > self.config.max_branch_depth {
                outcome.truncated = true;
            }
            for i in 0..depth {
                let mut constraints: Vec<BoolExpr> = Vec::with_capacity(i + 1);
                for (cond, taken) in &path[..i] {
                    constraints.push(if *taken { cond.clone() } else { cond.negate() });
                }
                let (cond, taken) = &path[i];
                constraints.push(if *taken { cond.negate() } else { cond.clone() });

                let prefix_sig = prefix_signature(&constraints);
                if !attempted_prefixes.insert(prefix_sig) {
                    continue; // Already queued or proven unsatisfiable.
                }
                if let Some(model) = solver.solve_model(&constraints) {
                    worklist.push_back(model);
                }
            }

            outcome.paths.push(PathResult {
                assignment: input,
                path,
                signature,
            });
        }

        outcome
    }
}

fn prefix_signature(constraints: &[BoolExpr]) -> u64 {
    let mut h = Hasher64::with_seed(0x9e_f1);
    constraints.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::expr::Domain;
    use crate::value::SymValue;

    /// A toy handler shaped like the pyswitch packet_in handler: two nested
    /// data-dependent branches produce three feasible paths.
    #[test]
    fn explores_all_paths_of_nested_branches() {
        let mut solver = Solver::new();
        let src = solver.fresh_var(Domain::new([2, 3, 0xffff]));
        let dst = solver.fresh_var(Domain::new([2, 3, 0xffff]));

        let explorer = PathExplorer::new(ExploreConfig::default());
        let outcome = explorer.explore(&mut solver, |env| {
            let src = SymValue::var(src);
            let dst = SymValue::var(dst);
            // if src is "broadcast" (0xffff) -> path A
            if env.branch(&src.eq_const(0xffff)) {
                return;
            }
            // else if dst known (== 2) -> path B else path C
            if env.branch(&dst.eq_const(2)) {}
        });

        assert_eq!(outcome.paths.len(), 3, "three feasible paths expected");
        assert!(!outcome.truncated);
        assert!(outcome.executions >= 3);
        // Each representative input drives a distinct path signature.
        let sigs: BTreeSet<u64> = outcome.paths.iter().map(|p| p.signature).collect();
        assert_eq!(sigs.len(), 3);
    }

    #[test]
    fn unreachable_paths_are_not_reported() {
        let mut solver = Solver::new();
        let v = solver.fresh_var(Domain::new([1, 2]));
        let explorer = PathExplorer::default();
        let outcome = explorer.explore(&mut solver, |env| {
            let x = SymValue::var(v);
            if env.branch(&x.eq_const(1)) {
                // Contradictory nested branch: can never be both 1 and 2.
                if env.branch(&x.eq_const(2)) {
                    unreachable!("infeasible path executed");
                }
            }
        });
        // Feasible paths: v==1 (then inner false), v!=1. The inner-true path
        // is infeasible and must not appear.
        assert_eq!(outcome.paths.len(), 2);
    }

    #[test]
    fn handler_without_branches_has_single_path() {
        let mut solver = Solver::new();
        let _v = solver.fresh_var(Domain::new([1, 2, 3]));
        let explorer = PathExplorer::default();
        let mut calls = 0;
        let outcome = explorer.explore(&mut solver, |_env| {
            calls += 1;
        });
        assert_eq!(outcome.paths.len(), 1);
        assert_eq!(calls, 1);
        assert!(outcome.paths[0].path.is_empty());
    }

    #[test]
    fn max_paths_truncates() {
        let mut solver = Solver::new();
        let a = solver.fresh_var(Domain::new([0, 1]));
        let b = solver.fresh_var(Domain::new([0, 1]));
        let c = solver.fresh_var(Domain::new([0, 1]));
        let explorer = PathExplorer::new(ExploreConfig {
            max_paths: 3,
            ..Default::default()
        });
        let outcome = explorer.explore(&mut solver, |env| {
            // 8 feasible paths.
            env.branch(&SymValue::var(a).eq_const(1));
            env.branch(&SymValue::var(b).eq_const(1));
            env.branch(&SymValue::var(c).eq_const(1));
        });
        assert_eq!(outcome.paths.len(), 3);
        assert!(outcome.truncated);
    }

    #[test]
    fn representative_inputs_cover_both_sides_of_a_branch() {
        let mut solver = Solver::new();
        let v = solver.fresh_var(Domain::new([7, 9]));
        let explorer = PathExplorer::default();
        let outcome = explorer.explore(&mut solver, |env| {
            env.branch(&SymValue::var(v).eq_const(9));
        });
        let inputs: BTreeSet<u64> = outcome
            .representative_inputs()
            .map(|a| a.get(v).unwrap())
            .collect();
        assert_eq!(inputs, BTreeSet::from([7, 9]));
    }

    #[test]
    fn equality_between_two_symbolic_fields_is_explored() {
        // Mirrors the mactable overlay case: a branch comparing two symbolic
        // packet fields (src == dst) must yield both equal and distinct
        // representatives.
        let mut solver = Solver::new();
        let src = solver.fresh_var(Domain::new([2, 3]));
        let dst = solver.fresh_var(Domain::new([2, 3]));
        let explorer = PathExplorer::default();
        let outcome = explorer.explore(&mut solver, |env| {
            let eq = SymValue::var(src).eq(&SymValue::var(dst));
            env.branch(&eq);
        });
        assert_eq!(outcome.paths.len(), 2);
        let mut saw_equal = false;
        let mut saw_distinct = false;
        for a in outcome.representative_inputs() {
            if a.get(src) == a.get(dst) {
                saw_equal = true;
            } else {
                saw_distinct = true;
            }
        }
        assert!(saw_equal && saw_distinct);
    }
}
