//! Exact MaxSAT-style minimisation on top of the incremental CDCL solver.
//!
//! The ETCS design tasks need two optimisation modes:
//!
//! * a single linear objective (`min Σ border_v` for layout generation),
//! * a lexicographic pair (`min Σ ¬done^t`, then `min Σ border_v` for
//!   schedule optimisation).
//!
//! Both are solved by iteratively tightening an assumable unary bound built
//! by [`Objective::lower`]: because bounds are passed as *assumptions*, an
//! UNSAT answer at a candidate bound leaves the solver reusable for the next
//! probe and for subsequent objectives.

use crate::model::Model;
use crate::pb::Objective;
use crate::solver::{SatResult, Solver};
use crate::types::Lit;

/// Search strategy for the minimisation loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Start from the first model's cost and repeatedly ask for `cost - 1`.
    /// Each SAT step produces a strictly better model; the final UNSAT step
    /// proves optimality. Usually best when good models are found early.
    #[default]
    LinearSatUnsat,
    /// Binary search between 0 and the first model's cost. Fewer solver
    /// calls on instances whose optimum is far below the first model.
    BinarySearch,
}

/// Result of a successful minimisation.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimumResult {
    /// An optimal model.
    pub model: Model,
    /// The proven optimal cost.
    pub cost: u64,
    /// Number of solver calls spent (including the initial one).
    pub solver_calls: usize,
}

/// Outcome of [`minimize`].
#[derive(Clone, Debug, PartialEq)]
pub enum OptimizeOutcome {
    /// Optimum found and proven.
    Optimal(OptimumResult),
    /// The hard constraints are unsatisfiable.
    Unsat,
    /// The solver's [`Interrupt`](crate::Interrupt) fired; `best` holds the
    /// best model found so far, if any (not proven optimal).
    Unknown {
        /// Best (unproven) result so far.
        best: Option<OptimumResult>,
    },
}

impl OptimizeOutcome {
    /// The optimal result if one was proven.
    pub fn optimal(&self) -> Option<&OptimumResult> {
        match self {
            OptimizeOutcome::Optimal(r) => Some(r),
            _ => None,
        }
    }

    /// `true` if the hard constraints were proven unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        matches!(self, OptimizeOutcome::Unsat)
    }
}

/// Minimises `objective` subject to the clauses already in `solver` and the
/// extra `assumptions` (which are kept active during the whole search).
///
/// `guess` is the caller's estimate of the optimum. With `None` the search
/// solves once, lowers the objective only when that first model costs
/// more than 0, and descends from it. With `Some(g)` the objective is
/// lowered first and the first call asks for a model of cost `≤ g` (no
/// bound when `g` reaches the counter's capacity), so a guess at or just
/// above the optimum skips the descent from an expensive first model. If
/// that call is UNSAT, every cost `≤ g` is excluded and the descent
/// continues from an unbounded model. The proven optimum does not depend
/// on the guess; the models and the number of calls do.
///
/// The solver is left usable afterwards; the optimum is *not* asserted as a
/// hard constraint (use the returned cost with
/// [`Objective::lower`]-derived bounds if you need to pin it, as
/// [`minimize_lex_full`] does).
pub fn minimize(
    solver: &mut Solver,
    objective: &Objective,
    assumptions: &[Lit],
    strategy: Strategy,
    guess: Option<u64>,
) -> OptimizeOutcome {
    let mut calls = 0usize;
    let mut counter = match guess {
        Some(_) if !objective.is_empty() => Some(objective.lower(solver)),
        _ => None,
    };
    // The smallest cost not yet excluded.
    let mut lo = 0u64;
    let mut first = None;
    if let (Some(g), Some(c)) = (guess, &counter) {
        if let Some(bound) = c.at_most(g) {
            calls += 1;
            match solve_bounded(solver, assumptions, bound) {
                SatResult::Sat(m) => first = Some(m),
                SatResult::Unsat { .. } => lo = g + 1,
                SatResult::Unknown => return OptimizeOutcome::Unknown { best: None },
            }
        }
    }
    let first = match first {
        Some(m) => m,
        None => {
            calls += 1;
            match solver.solve_with(assumptions) {
                SatResult::Sat(m) => m,
                SatResult::Unsat { .. } => return OptimizeOutcome::Unsat,
                SatResult::Unknown => return OptimizeOutcome::Unknown { best: None },
            }
        }
    };
    let mut best = OptimumResult {
        cost: objective.eval(&first),
        model: first,
        solver_calls: calls,
    };
    if objective.is_empty() || best.cost == lo {
        return OptimizeOutcome::Optimal(best);
    }

    let counter = counter.get_or_insert_with(|| objective.lower(solver));
    match strategy {
        Strategy::LinearSatUnsat => {
            while best.cost > lo {
                let target = best.cost - 1;
                let bound = counter
                    .at_most(target)
                    .expect("a bound below a witnessed cost always exists");
                calls += 1;
                match solve_bounded(solver, assumptions, bound) {
                    SatResult::Sat(m) => {
                        let cost = objective.eval(&m);
                        debug_assert!(cost <= target, "bounded solve exceeded bound");
                        best = OptimumResult {
                            model: m,
                            cost,
                            solver_calls: calls,
                        };
                    }
                    SatResult::Unsat { .. } => break,
                    SatResult::Unknown => {
                        best.solver_calls = calls;
                        return OptimizeOutcome::Unknown { best: Some(best) };
                    }
                }
            }
        }
        Strategy::BinarySearch => {
            while lo < best.cost {
                let mid = lo + (best.cost - lo) / 2;
                let bound = counter
                    .at_most(mid)
                    .expect("mid < best.cost <= capacity, bound exists");
                calls += 1;
                match solve_bounded(solver, assumptions, bound) {
                    SatResult::Sat(m) => {
                        let cost = objective.eval(&m);
                        debug_assert!(cost <= mid);
                        best = OptimumResult {
                            model: m,
                            cost,
                            solver_calls: calls,
                        };
                    }
                    SatResult::Unsat { .. } => {
                        lo = mid + 1;
                    }
                    SatResult::Unknown => {
                        best.solver_calls = calls;
                        return OptimizeOutcome::Unknown { best: Some(best) };
                    }
                }
            }
        }
    }
    best.solver_calls = calls;
    OptimizeOutcome::Optimal(best)
}

/// One solve under `assumptions` plus the cost bound literal `bound`.
fn solve_bounded(solver: &mut Solver, assumptions: &[Lit], bound: Lit) -> SatResult {
    let mut assume = Vec::with_capacity(assumptions.len() + 1);
    assume.extend_from_slice(assumptions);
    assume.push(bound);
    solver.solve_with(&assume)
}

/// Result of a lexicographic minimisation: one cost per objective.
#[derive(Clone, Debug, PartialEq)]
pub struct LexOptimumResult {
    /// A model optimal for the lexicographic ordering.
    pub model: Model,
    /// Proven optimal cost of each objective, in order.
    pub costs: Vec<u64>,
    /// Total solver calls across all stages.
    pub solver_calls: usize,
}

/// Lexicographically minimises `objectives[0]`, then `objectives[1]` subject
/// to the first being at its optimum, and so on, and reports every stage's
/// optimal cost. `Ok(None)` when the hard constraints are unsatisfiable.
pub fn minimize_lex_full(
    solver: &mut Solver,
    objectives: &[Objective],
    strategy: Strategy,
) -> Result<Option<LexOptimumResult>, BudgetExhausted> {
    let mut pinned: Vec<Lit> = Vec::new();
    let mut costs: Vec<u64> = Vec::new();
    let mut calls = 0usize;
    let mut model: Option<Model> = None;

    for obj in objectives {
        match minimize(solver, obj, &pinned, strategy, None) {
            OptimizeOutcome::Optimal(r) => {
                calls += r.solver_calls;
                costs.push(r.cost);
                model = Some(r.model);
                if !obj.is_empty() && r.cost < obj.max_cost() {
                    let counter = obj.lower(solver);
                    if let Some(b) = counter.at_most(r.cost) {
                        pinned.push(b);
                    }
                }
            }
            OptimizeOutcome::Unsat => return Ok(None),
            OptimizeOutcome::Unknown { .. } => return Err(BudgetExhausted),
        }
    }
    let model = match model {
        Some(m) => m,
        None => match solver.solve() {
            SatResult::Sat(m) => {
                calls += 1;
                m
            }
            SatResult::Unsat { .. } => return Ok(None),
            SatResult::Unknown => return Err(BudgetExhausted),
        },
    };
    Ok(Some(LexOptimumResult {
        model,
        costs,
        solver_calls: calls,
    }))
}

/// The solver's [`Interrupt`](crate::Interrupt) fired before optimality
/// could be proven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted;

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interrupted before proving optimality")
    }
}

impl std::error::Error for BudgetExhausted {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfSink;

    /// min #true over 5 free vars with a hard "at least 2 true" ⇒ optimum 2.
    fn at_least_two_instance() -> (Solver, Objective) {
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..5)
            .map(|_| CnfSink::new_var(&mut s).positive())
            .collect();
        let t = crate::card::Totalizer::build(&mut s, xs.clone());
        let al = t.at_least(2).expect("bound exists");
        s.assert_true(al);
        (s, Objective::count_of(xs))
    }

    #[test]
    fn linear_finds_proven_optimum() {
        let (mut s, obj) = at_least_two_instance();
        match minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None) {
            OptimizeOutcome::Optimal(r) => {
                assert_eq!(r.cost, 2);
                assert_eq!(obj.eval(&r.model), 2);
            }
            other => panic!("expected optimal: {other:?}"),
        }
    }

    #[test]
    fn binary_finds_same_optimum() {
        let (mut s, obj) = at_least_two_instance();
        match minimize(&mut s, &obj, &[], Strategy::BinarySearch, None) {
            OptimizeOutcome::Optimal(r) => assert_eq!(r.cost, 2),
            other => panic!("expected optimal: {other:?}"),
        }
    }

    #[test]
    fn unsat_hard_constraints_reported() {
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        s.assert_true(a);
        s.assert_false(a);
        let obj = Objective::count_of([a]);
        assert!(minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None).is_unsat());
    }

    #[test]
    fn zero_cost_short_circuits() {
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        let b = CnfSink::new_var(&mut s).positive();
        s.add_clause([a, b]); // satisfiable with both cost lits false? no: a∨b
        let obj = Objective::count_of([]); // empty objective
        match minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None) {
            OptimizeOutcome::Optimal(r) => assert_eq!(r.cost, 0),
            other => panic!("expected optimal: {other:?}"),
        }
    }

    #[test]
    fn weighted_objective_minimised() {
        // a ∨ b required; cost(a)=1, cost(b)=10 ⇒ choose a.
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        let b = CnfSink::new_var(&mut s).positive();
        s.add_clause([a, b]);
        let obj = Objective::new(vec![(a, 1), (b, 10)]);
        match minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None) {
            OptimizeOutcome::Optimal(r) => {
                assert_eq!(r.cost, 1);
                assert!(r.model.lit_is_true(a));
                assert!(!r.model.lit_is_true(b));
            }
            other => panic!("expected optimal: {other:?}"),
        }
    }

    #[test]
    fn lexicographic_orders_objectives() {
        // Hard: a ∨ b. Obj1: min (#{a}) ⇒ a false. Obj2: min (#{¬b})
        // subject to a false ⇒ b true (forced anyway), cost2 = 0.
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        let b = CnfSink::new_var(&mut s).positive();
        s.add_clause([a, b]);
        let o1 = Objective::count_of([a]);
        let o2 = Objective::count_of([!b]);
        let r = minimize_lex_full(&mut s, &[o1, o2], Strategy::LinearSatUnsat)
            .expect("no interrupt installed")
            .expect("satisfiable");
        assert_eq!(r.costs, vec![0, 0]);
        assert!(!r.model.lit_is_true(a));
        assert!(r.model.lit_is_true(b));
    }

    #[test]
    fn lexicographic_pins_first_objective() {
        // 3 vars, hard: at least 2 true. Obj1: min count(x0,x1,x2) ⇒ 2.
        // Obj2: min count(x0) ⇒ with cost1 pinned at 2, x0 can be false.
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..3)
            .map(|_| CnfSink::new_var(&mut s).positive())
            .collect();
        let t = crate::card::Totalizer::build(&mut s, xs.clone());
        s.assert_true(t.at_least(2).expect("bound"));
        let o1 = Objective::count_of(xs.clone());
        let o2 = Objective::count_of([xs[0]]);
        let r = minimize_lex_full(&mut s, &[o1, o2], Strategy::LinearSatUnsat)
            .expect("no interrupt installed")
            .expect("satisfiable");
        assert_eq!(r.costs, vec![2, 0]);
        assert!(!r.model.lit_is_true(xs[0]));
        assert_eq!(r.model.count_true(&xs), 2);
    }

    #[test]
    fn lex_unsat_propagates() {
        let mut s = Solver::new();
        let a = CnfSink::new_var(&mut s).positive();
        s.assert_true(a);
        s.assert_false(a);
        let o = Objective::count_of([a]);
        let r = minimize_lex_full(&mut s, &[o], Strategy::LinearSatUnsat);
        assert_eq!(r, Ok(None));
    }

    #[test]
    fn solver_reusable_after_minimize() {
        let (mut s, obj) = at_least_two_instance();
        let _ = minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None);
        // The optimum was probed with assumptions only; the base formula is
        // still satisfiable with any count >= 2.
        assert!(s.solve().is_sat());
    }

    /// Minimises the at-least-two instance (optimum 2, capacity 5) with
    /// `guess` and checks the optimum and that `solver_calls` counts the
    /// solver's calls.
    fn optimum_with_guess(strategy: Strategy, guess: Option<u64>) -> OptimumResult {
        let (mut s, obj) = at_least_two_instance();
        let outcome = minimize(&mut s, &obj, &[], strategy, guess);
        let Some(r) = outcome.optimal().cloned() else {
            panic!("expected optimal under {strategy:?} with {guess:?}: {outcome:?}");
        };
        assert_eq!(r.cost, 2, "{strategy:?} with {guess:?}");
        assert_eq!(obj.eval(&r.model), 2);
        assert_eq!(r.solver_calls as u64, s.stats().solve_calls);
        r
    }

    #[test]
    fn a_guess_at_the_optimum_is_confirmed_in_two_calls() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            // Cost <= 2 is SAT, and the one call below it is UNSAT.
            assert_eq!(optimum_with_guess(strategy, Some(2)).solver_calls, 2);
        }
    }

    #[test]
    fn a_guess_below_the_optimum_is_excluded_then_the_search_resumes() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            for guess in [0, 1] {
                // The bounded call is UNSAT and the unbounded one SAT; with
                // every cost <= guess excluded, a first model of cost 2 is
                // already proven optimal.
                let r = optimum_with_guess(strategy, Some(guess));
                assert!(r.solver_calls >= 2, "{strategy:?} {guess}: {r:?}");
            }
        }
    }

    #[test]
    fn a_guess_above_the_optimum_descends_from_the_bounded_model() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            for guess in [3, 4] {
                let r = optimum_with_guess(strategy, Some(guess));
                assert!(r.solver_calls >= 2, "{strategy:?} {guess}: {r:?}");
            }
        }
    }

    #[test]
    fn a_guess_at_or_past_the_capacity_has_no_bound_literal() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            for guess in [5, 6, u64::MAX] {
                optimum_with_guess(strategy, Some(guess));
            }
        }
    }

    #[test]
    fn a_guess_over_unsatisfiable_hard_constraints_reports_unsat() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            for guess in [0, 1, 2] {
                let mut s = Solver::new();
                let xs: Vec<Lit> = (0..2)
                    .map(|_| CnfSink::new_var(&mut s).positive())
                    .collect();
                s.assert_true(xs[0]);
                s.assert_false(xs[0]);
                let obj = Objective::count_of(xs);
                let outcome = minimize(&mut s, &obj, &[], strategy, Some(guess));
                assert!(outcome.is_unsat(), "{strategy:?} {guess}: {outcome:?}");
            }
        }
    }

    #[test]
    fn a_guess_keeps_the_assumptions_active() {
        // Assuming x0 true on the at-least-two instance still gives 2, and
        // every model returned keeps x0.
        for strategy in [Strategy::LinearSatUnsat, Strategy::BinarySearch] {
            for guess in [0, 1, 2, 3, 5] {
                let (mut s, obj) = at_least_two_instance();
                let x0 = obj.terms()[0].0;
                let outcome = minimize(&mut s, &obj, &[x0], strategy, Some(guess));
                let r = outcome.optimal().expect("satisfiable");
                assert_eq!(r.cost, 2);
                assert!(r.model.lit_is_true(x0));
            }
        }
    }
}
