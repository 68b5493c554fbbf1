//! Execution environments: the oracle that controller handlers branch
//! through.
//!
//! Handlers never branch directly on symbolic data. Instead they evaluate a
//! comparison to a [`SymBool`] and call [`Env::branch`] — the equivalent of
//! the branch instrumentation NICE injects into the Python AST (Section 6,
//! transformation (iii): "we instrument branches to inform the concolic
//! engine on which branch is taken").
//!
//! * Under [`ConcreteEnv`] every value is concrete, the branch simply
//!   evaluates, and the cost is a single enum match — this is what the model
//!   checker uses on every transition.
//! * Under [`SymExecEnv`] the branch outcome is determined by the current
//!   concrete input (concolic execution runs the code on concrete inputs) and
//!   the symbolic condition is appended to the path constraint so the
//!   explorer can later negate it.

use crate::expr::BoolExpr;
use crate::solver::Assignment;
use crate::value::{SymBool, SymValue};
use nice_openflow::Hasher64;
use std::hash::Hash;

/// The branch/concretisation oracle handlers execute against.
pub trait Env {
    /// Decides a branch whose condition may be symbolic.
    fn branch(&mut self, cond: &SymBool) -> bool;

    /// Resolves a possibly-symbolic value to a concrete integer (under the
    /// current concrete input when executing symbolically).
    fn concretize(&mut self, value: &SymValue) -> u64;

    /// True when running under the concolic engine.
    fn is_symbolic(&self) -> bool {
        false
    }

    /// Convenience: branch on the negation of `cond`.
    fn branch_not(&mut self, cond: &SymBool) -> bool {
        self.branch(&cond.not())
    }
}

/// The concrete environment used during model checking: all data is concrete
/// and symbolic conditions are a logic error.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcreteEnv;

impl ConcreteEnv {
    /// Creates a concrete environment.
    pub fn new() -> Self {
        ConcreteEnv
    }
}

impl Env for ConcreteEnv {
    fn branch(&mut self, cond: &SymBool) -> bool {
        cond.as_concrete()
            .expect("symbolic condition reached concrete execution; was a symbolic packet injected into the model checker?")
    }

    fn concretize(&mut self, value: &SymValue) -> u64 {
        value
            .as_concrete()
            .expect("symbolic value reached concrete execution; was a symbolic packet injected into the model checker?")
    }
}

/// The concolic environment: runs the handler on a concrete input while
/// recording the symbolic path constraint.
#[derive(Debug, Clone)]
pub struct SymExecEnv {
    assignment: Assignment,
    path: Vec<(BoolExpr, bool)>,
}

impl SymExecEnv {
    /// Creates an environment executing under the given concrete input.
    pub fn new(assignment: Assignment) -> Self {
        SymExecEnv {
            assignment,
            path: Vec::new(),
        }
    }

    /// The concrete input driving this execution.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The recorded path: each symbolic branch condition together with the
    /// direction taken.
    pub fn path(&self) -> &[(BoolExpr, bool)] {
        &self.path
    }

    /// The path as a list of constraints that all held on this execution
    /// (taken branches stay as-is, not-taken branches are negated).
    pub fn taken_constraints(&self) -> Vec<BoolExpr> {
        self.path
            .iter()
            .map(|(c, taken)| if *taken { c.clone() } else { c.negate() })
            .collect()
    }

    /// A stable fingerprint of the path, used to recognise when two inputs
    /// exercise the same equivalence class.
    pub fn path_signature(&self) -> u64 {
        let mut h = Hasher64::with_seed(0x5e_c0);
        self.path.len().hash(&mut h);
        for (c, taken) in &self.path {
            (c, taken).hash(&mut h);
        }
        h.finish()
    }

    /// Number of symbolic branches encountered.
    pub fn branch_count(&self) -> usize {
        self.path.len()
    }
}

impl Env for SymExecEnv {
    fn branch(&mut self, cond: &SymBool) -> bool {
        match cond {
            SymBool::Concrete(b) => *b,
            SymBool::Symbolic(expr) => {
                let outcome = self.assignment.eval(expr).expect(
                    "path condition references a variable outside the declared symbolic inputs",
                );
                self.path.push((expr.clone(), outcome));
                outcome
            }
        }
    }

    fn concretize(&mut self, value: &SymValue) -> u64 {
        match value {
            SymValue::Concrete(v) => *v,
            SymValue::Symbolic(expr) => expr.eval_with(&|v| self.assignment.get(v)).expect(
                "symbolic value references a variable outside the declared symbolic inputs",
            ),
        }
    }

    fn is_symbolic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Domain, Expr, VarId};
    use crate::solver::Solver;

    #[test]
    fn concrete_env_evaluates() {
        let mut env = ConcreteEnv::new();
        assert!(env.branch(&SymBool::concrete(true)));
        assert!(!env.branch(&SymBool::concrete(false)));
        assert!(env.branch_not(&SymBool::concrete(false)));
        assert_eq!(env.concretize(&SymValue::concrete(42)), 42);
        assert!(!env.is_symbolic());
    }

    #[test]
    #[should_panic(expected = "symbolic condition reached concrete execution")]
    fn concrete_env_rejects_symbolic_conditions() {
        let mut env = ConcreteEnv::new();
        env.branch(&SymBool::Symbolic(BoolExpr::Eq(
            Expr::Var(VarId(0)),
            Expr::Const(1),
        )));
    }

    #[test]
    fn sym_env_records_path() {
        let mut solver = Solver::new();
        let v = solver.fresh_var(Domain::new([0, 1]));
        let mut env = SymExecEnv::new(solver.seed_assignment());
        let x = SymValue::var(v);
        // Seed value is 0, so the first branch is false and the second true.
        assert!(!env.branch(&x.eq_const(1)));
        assert!(env.branch(&x.eq_const(0)));
        // Concrete conditions are not recorded.
        assert!(env.branch(&SymBool::concrete(true)));
        assert_eq!(env.branch_count(), 2);
        assert!(!env.path()[0].1);
        assert!(env.path()[1].1);
        let constraints = env.taken_constraints();
        // Not-taken branch is negated: v != 1, and taken branch kept: v == 0.
        assert_eq!(constraints[0], BoolExpr::Ne(Expr::Var(v), Expr::Const(1)));
        assert_eq!(constraints[1], BoolExpr::Eq(Expr::Var(v), Expr::Const(0)));
        assert!(env.is_symbolic());
        assert_eq!(env.concretize(&x), 0);
        assert_eq!(env.assignment().get(v), Some(0));
    }

    #[test]
    fn path_signature_distinguishes_paths() {
        let mut solver = Solver::new();
        let v = solver.fresh_var(Domain::new([0, 1]));
        let x = SymValue::var(v);

        let mut env_a = SymExecEnv::new(Assignment::from_pairs([(v, 0)]));
        env_a.branch(&x.eq_const(0));
        let mut env_b = SymExecEnv::new(Assignment::from_pairs([(v, 1)]));
        env_b.branch(&x.eq_const(0));
        assert_ne!(env_a.path_signature(), env_b.path_signature());

        // Same decisions → same signature.
        let mut env_c = SymExecEnv::new(Assignment::from_pairs([(v, 0)]));
        env_c.branch(&x.eq_const(0));
        assert_eq!(env_a.path_signature(), env_c.path_signature());
    }

    #[test]
    fn concretize_evaluates_expressions() {
        let mut solver = Solver::new();
        let v = solver.fresh_var(Domain::new([6]));
        let mut env = SymExecEnv::new(solver.seed_assignment());
        let x = SymValue::var(v).add(&SymValue::concrete(1));
        assert_eq!(env.concretize(&x), 7);
    }
}
