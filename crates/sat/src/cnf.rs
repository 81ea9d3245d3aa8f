//! Formula construction: clause sinks, a standalone [`Formula`] container,
//! and Tseitin gate helpers.
//!
//! The ETCS encoder builds formulas against the [`CnfSink`] trait so the same
//! encoding code can target an inspectable [`Formula`] (for statistics and
//! DIMACS export) or a [`Solver`](crate::Solver) directly.

use crate::model::Model;
use crate::solver::Solver;
use crate::types::{Lit, Var};

/// Anything clauses can be emitted into: a [`Formula`] or a live
/// [`Solver`](crate::Solver).
pub trait CnfSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause (disjunction of literals).
    fn add_clause_from(&mut self, lits: &[Lit]);

    /// Allocates `n` fresh variables.
    fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Emits `a → b`.
    fn implies(&mut self, a: Lit, b: Lit) {
        self.add_clause_from(&[!a, b]);
    }

    /// Emits `(a ∧ b) → c`.
    fn implies2(&mut self, a: Lit, b: Lit, c: Lit) {
        self.add_clause_from(&[!a, !b, c]);
    }

    /// Emits `a → (b₁ ∨ … ∨ bₙ)`.
    fn implies_any(&mut self, a: Lit, bs: &[Lit]) {
        let mut clause = Vec::with_capacity(bs.len() + 1);
        clause.push(!a);
        clause.extend_from_slice(bs);
        self.add_clause_from(&clause);
    }

    /// Emits `a → (b₁ ∧ … ∧ bₙ)` as `n` binary clauses.
    fn implies_all(&mut self, a: Lit, bs: &[Lit]) {
        for &b in bs {
            self.add_clause_from(&[!a, b]);
        }
    }

    /// Emits `a ↔ b`.
    fn iff(&mut self, a: Lit, b: Lit) {
        self.add_clause_from(&[!a, b]);
        self.add_clause_from(&[a, !b]);
    }

    /// Fixes a literal to true.
    fn assert_true(&mut self, l: Lit) {
        self.add_clause_from(&[l]);
    }

    /// Fixes a literal to false.
    fn assert_false(&mut self, l: Lit) {
        self.add_clause_from(&[!l]);
    }

    /// Introduces `y ↔ (i₁ ∧ … ∧ iₙ)` and returns `y`.
    ///
    /// For an empty input list `y` is fixed true (the empty conjunction).
    fn and_gate(&mut self, inputs: &[Lit]) -> Lit {
        let y = self.new_var().positive();
        for &i in inputs {
            self.add_clause_from(&[!y, i]);
        }
        let mut clause: Vec<Lit> = inputs.iter().map(|&i| !i).collect();
        clause.push(y);
        self.add_clause_from(&clause);
        y
    }

    /// Introduces `y ↔ (i₁ ∨ … ∨ iₙ)` and returns `y`.
    ///
    /// For an empty input list `y` is fixed false (the empty disjunction).
    fn or_gate(&mut self, inputs: &[Lit]) -> Lit {
        let y = self.new_var().positive();
        for &i in inputs {
            self.add_clause_from(&[y, !i]);
        }
        let mut clause: Vec<Lit> = inputs.to_vec();
        clause.push(!y);
        self.add_clause_from(&clause);
        y
    }

    /// Emits `l₁ ∨ … ∨ lₙ` (at least one).
    fn at_least_one(&mut self, lits: &[Lit]) {
        self.add_clause_from(lits);
    }

    /// Emits pairwise `¬(lᵢ ∧ lⱼ)` (at most one). Quadratic; fine for the
    /// small groups that arise per train/time step. For large groups use
    /// [`crate::card::at_most_one_sequential`].
    fn at_most_one_pairwise(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause_from(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Emits exactly-one over the literals (pairwise at-most-one).
    fn exactly_one_pairwise(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one_pairwise(lits);
    }
}

impl CnfSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause_from(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits.iter().copied());
    }
}

/// An inspectable CNF container.
///
/// Unlike adding clauses straight to a solver, a `Formula` records the exact
/// clause list, so encodings can be sized (the paper's "Var." column),
/// written to DIMACS, or replayed into several solvers.
///
/// # Examples
///
/// ```
/// use etcs_sat::{Formula, CnfSink, Solver, SatResult};
/// let mut f = Formula::new();
/// let a = f.new_var().positive();
/// let b = f.new_var().positive();
/// f.add_clause_from(&[a, b]);
/// f.assert_false(a);
/// let mut solver = Solver::new();
/// f.load_into(&mut solver);
/// assert!(matches!(solver.solve(), SatResult::Sat(m) if m.lit_is_true(b)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Formula {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Formula {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// A formula over `num_vars` variables and no clauses, in constant
    /// time (unlike `num_vars` calls of [`CnfSink::new_var`]).
    pub(crate) fn with_vars(num_vars: usize) -> Self {
        Formula {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// The clause list.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Loads the formula into a solver, allocating matching variables.
    ///
    /// The solver must be freshly created (its variable space becomes a
    /// superset of the formula's, index-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the solver already has more variables than the formula
    /// (indices would not align).
    pub fn load_into(&self, solver: &mut Solver) {
        assert!(
            solver.num_vars() <= self.num_vars,
            "formula must be loaded into a solver with an index-aligned variable space"
        );
        while solver.num_vars() < self.num_vars {
            solver.new_var();
        }
        for c in &self.clauses {
            solver.add_clause(c.iter().copied());
        }
    }

    /// Evaluates the formula under a model.
    pub fn eval(&self, model: &Model) -> bool {
        self.clauses.iter().all(|c| model.satisfies_clause(c))
    }
}

impl CnfSink for Formula {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause_from(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    fn solve(f: &Formula) -> SatResult {
        let mut s = Solver::new();
        f.load_into(&mut s);
        s.solve()
    }

    #[test]
    fn and_gate_semantics() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let y = f.and_gate(&[a, b]);
        f.assert_true(y);
        match solve(&f) {
            SatResult::Sat(m) => {
                assert!(m.lit_is_true(a) && m.lit_is_true(b));
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn and_gate_forced_false() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let y = f.and_gate(&[a, b]);
        f.assert_false(b);
        f.assert_true(y);
        assert!(solve(&f).is_unsat());
        let _ = a;
    }

    #[test]
    fn or_gate_semantics() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let y = f.or_gate(&[a, b]);
        f.assert_false(a);
        f.assert_false(b);
        f.assert_true(y);
        assert!(solve(&f).is_unsat());
    }

    #[test]
    fn empty_and_gate_is_true_empty_or_gate_is_false() {
        let mut f = Formula::new();
        let t = f.and_gate(&[]);
        let bot = f.or_gate(&[]);
        f.assert_true(t);
        f.assert_false(bot);
        assert!(solve(&f).is_sat());

        let mut g = Formula::new();
        let bot = g.or_gate(&[]);
        g.assert_true(bot);
        assert!(solve(&g).is_unsat());
    }

    #[test]
    fn exactly_one_pairwise_forces_single_true() {
        let mut f = Formula::new();
        let lits: Vec<Lit> = (0..5).map(|_| f.new_var().positive()).collect();
        f.exactly_one_pairwise(&lits);
        match solve(&f) {
            SatResult::Sat(m) => {
                assert_eq!(m.count_true(&lits), 1);
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn exactly_one_two_true_unsat() {
        let mut f = Formula::new();
        let lits: Vec<Lit> = (0..4).map(|_| f.new_var().positive()).collect();
        f.exactly_one_pairwise(&lits);
        f.assert_true(lits[0]);
        f.assert_true(lits[3]);
        assert!(solve(&f).is_unsat());
    }

    #[test]
    fn iff_propagates_both_directions() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.iff(a, b);
        f.assert_true(a);
        match solve(&f) {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn implies_any_and_all() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let bs: Vec<Lit> = (0..3).map(|_| f.new_var().positive()).collect();
        f.implies_all(a, &bs);
        f.assert_true(a);
        match solve(&f) {
            SatResult::Sat(m) => assert_eq!(m.count_true(&bs), 3),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn formula_counts() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause_from(&[a, b]);
        f.add_clause_from(&[!a]);
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.num_literals(), 3);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause_from(&[a, b]);
        let good = Model::from_values(vec![true, false]);
        let bad = Model::from_values(vec![false, false]);
        assert!(f.eval(&good));
        assert!(!f.eval(&bad));
    }

    #[test]
    fn solver_implements_sink() {
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        let b = CnfSink::new_var(&mut s).positive();
        s.implies(a, b);
        s.assert_true(a);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
    }
}
