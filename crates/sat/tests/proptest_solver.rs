//! Property-based tests: the CDCL solver, the cardinality encoders, and the
//! MaxSAT optimiser are cross-checked against brute-force enumeration on
//! randomly generated small instances (deterministic `etcs-testkit` seeds).

use etcs_sat::{
    maxsat, CnfSink, Formula, Model, Objective, SatResult, Solver, Strategy as OptStrategy,
    Totalizer, Var,
};
use etcs_testkit::{cases, Rng};

/// A random CNF over `2..=max_vars` variables as raw signed integers
/// (`±(var + 1)` like DIMACS).
fn random_cnf(rng: &mut Rng, max_vars: usize, max_clauses: usize) -> (usize, Vec<Vec<i32>>) {
    let nv = rng.range(2, max_vars + 1);
    let nc = rng.range(1, max_clauses + 1);
    let clauses = rng.vec(nc, |rng| {
        let len = rng.range(1, 4);
        rng.vec(len, |rng| {
            let v = rng.range(1, nv + 1) as i32;
            if rng.bool() {
                v
            } else {
                -v
            }
        })
    });
    (nv, clauses)
}

fn build_formula(nv: usize, clauses: &[Vec<i32>]) -> Formula {
    let mut f = Formula::new();
    let vars: Vec<Var> = (0..nv).map(|_| f.new_var()).collect();
    for c in clauses {
        let lits: Vec<_> = c
            .iter()
            .map(|&s| vars[(s.unsigned_abs() - 1) as usize].lit(s > 0))
            .collect();
        f.add_clause_from(&lits);
    }
    f
}

fn mask_satisfies(mask: u64, clauses: &[Vec<i32>]) -> bool {
    clauses.iter().all(|c| {
        c.iter().any(|&s| {
            let bit = mask & (1 << (s.unsigned_abs() - 1)) != 0;
            if s > 0 {
                bit
            } else {
                !bit
            }
        })
    })
}

/// Brute-force satisfiability by enumerating all assignments.
fn brute_force_sat(nv: usize, clauses: &[Vec<i32>]) -> bool {
    (0..(1u64 << nv)).any(|mask| mask_satisfies(mask, clauses))
}

/// Brute-force optimum of "minimise #true among `obj_vars`" subject to the
/// clauses; `None` if unsatisfiable.
fn brute_force_min(nv: usize, clauses: &[Vec<i32>], obj_vars: &[usize]) -> Option<u32> {
    (0..(1u64 << nv))
        .filter(|&mask| mask_satisfies(mask, clauses))
        .map(|mask| obj_vars.iter().filter(|&&v| mask & (1 << v) != 0).count() as u32)
        .min()
}

#[test]
fn solver_agrees_with_brute_force() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 10, 40);
        let f = build_formula(nv, &clauses);
        let mut s = Solver::new();
        f.load_into(&mut s);
        let expected = brute_force_sat(nv, &clauses);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(expected, "solver said SAT on an UNSAT instance");
                assert!(f.eval(&m), "returned model violates a clause");
            }
            SatResult::Unsat { .. } => {
                assert!(!expected, "solver said UNSAT on a SAT instance")
            }
            SatResult::Unknown => panic!("no budget was set"),
        }
    });
}

#[test]
fn incremental_assumptions_agree_with_monolithic() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 8, 25);
        let f = build_formula(nv, &clauses);
        let num_assumptions = rng.below(4);
        let assumptions: Vec<_> = rng
            .vec(num_assumptions, |rng| (rng.below(8), rng.bool()))
            .into_iter()
            .filter(|&(v, _)| v < nv)
            .map(|(v, pos)| Var::from_index(v).lit(pos))
            .collect();
        // Assumption-based solve.
        let mut s1 = Solver::new();
        f.load_into(&mut s1);
        let incremental = s1.solve_with(&assumptions).is_sat();
        // Monolithic solve with the assumptions added as unit clauses.
        let mut s2 = Solver::new();
        f.load_into(&mut s2);
        for &a in &assumptions {
            s2.add_clause([a]);
        }
        let monolithic = s2.solve().is_sat();
        assert_eq!(incremental, monolithic);
    });
}

#[test]
fn unsat_core_is_itself_unsat() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 8, 25);
        let f = build_formula(nv, &clauses);
        let num_assumptions = rng.range(1, 6);
        let assumptions: Vec<_> = rng
            .vec(num_assumptions, |rng| (rng.below(8), rng.bool()))
            .into_iter()
            .filter(|&(v, _)| v < nv)
            .map(|(v, pos)| Var::from_index(v).lit(pos))
            .collect();
        let mut s = Solver::new();
        f.load_into(&mut s);
        if let SatResult::Unsat { core } = s.solve_with(&assumptions) {
            // Every core literal must come from the assumptions.
            for l in &core {
                assert!(
                    assumptions.contains(l),
                    "core literal not among assumptions"
                );
            }
            // The core alone must already be inconsistent with the formula.
            let mut s2 = Solver::new();
            f.load_into(&mut s2);
            assert!(
                s2.solve_with(&core).is_unsat(),
                "reported core is satisfiable"
            );
        }
    });
}

#[test]
fn totalizer_counts_exactly() {
    cases(128, |rng| {
        let num_bits = rng.range(1, 10);
        let bits = rng.vec(num_bits, Rng::bool);
        let mut s = Solver::new();
        let lits: Vec<_> = bits
            .iter()
            .map(|_| CnfSink::new_var(&mut s).positive())
            .collect();
        let t = Totalizer::build(&mut s, lits.clone());
        for (l, &b) in lits.iter().zip(&bits) {
            if b {
                s.assert_true(*l)
            } else {
                s.assert_false(*l)
            }
        }
        let SatResult::Sat(m) = s.solve() else {
            panic!("pinned instance must be SAT");
        };
        let count = bits.iter().filter(|&&b| b).count();
        for (i, &o) in t.outputs().iter().enumerate() {
            assert_eq!(
                m.lit_is_true(o),
                i < count,
                "output {i} wrong for count {count}"
            );
        }
    });
}

#[test]
fn maxsat_linear_matches_brute_force() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 7, 20);
        let obj_sel = rng.vec(7, Rng::bool);
        let f = build_formula(nv, &clauses);
        let obj_vars: Vec<usize> = (0..nv).filter(|&v| obj_sel[v]).collect();
        let expected = brute_force_min(nv, &clauses, &obj_vars);
        let mut s = Solver::new();
        f.load_into(&mut s);
        let obj = Objective::count_of(obj_vars.iter().map(|&v| Var::from_index(v).positive()));
        match maxsat::minimize(&mut s, &obj, &[], OptStrategy::LinearSatUnsat, None) {
            maxsat::OptimizeOutcome::Optimal(r) => {
                assert_eq!(Some(r.cost as u32), expected);
                assert!(f.eval(&r.model));
            }
            maxsat::OptimizeOutcome::Unsat => assert_eq!(expected, None),
            maxsat::OptimizeOutcome::Unknown { .. } => panic!("no budget was set"),
        }
    });
}

#[test]
fn maxsat_binary_matches_linear() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 7, 20);
        let obj_sel = rng.vec(7, Rng::bool);
        let f = build_formula(nv, &clauses);
        let obj_vars: Vec<usize> = (0..nv).filter(|&v| obj_sel[v]).collect();
        let obj = Objective::count_of(obj_vars.iter().map(|&v| Var::from_index(v).positive()));
        let run = |strategy: OptStrategy| {
            let mut s = Solver::new();
            f.load_into(&mut s);
            match maxsat::minimize(&mut s, &obj, &[], strategy, None) {
                maxsat::OptimizeOutcome::Optimal(r) => Some(r.cost),
                maxsat::OptimizeOutcome::Unsat => None,
                maxsat::OptimizeOutcome::Unknown { .. } => panic!("no budget was set"),
            }
        };
        assert_eq!(
            run(OptStrategy::LinearSatUnsat),
            run(OptStrategy::BinarySearch)
        );
    });
}

#[test]
fn maxsat_guess_never_changes_the_optimum() {
    cases(256, |rng| {
        let (nv, clauses) = random_cnf(rng, 7, 20);
        let obj_sel = rng.vec(7, Rng::bool);
        let f = build_formula(nv, &clauses);
        let obj_vars: Vec<usize> = (0..nv).filter(|&v| obj_sel[v]).collect();
        let obj = Objective::count_of(obj_vars.iter().map(|&v| Var::from_index(v).positive()));
        // Up to two past the capacity, so some guesses have no bound literal.
        let guess = rng.range(0, obj_vars.len() + 3) as u64;
        let strategy = if rng.bool() {
            OptStrategy::LinearSatUnsat
        } else {
            OptStrategy::BinarySearch
        };
        let run = |guess: Option<u64>| {
            let mut s = Solver::new();
            f.load_into(&mut s);
            match maxsat::minimize(&mut s, &obj, &[], strategy, guess) {
                maxsat::OptimizeOutcome::Optimal(r) => {
                    assert!(f.eval(&r.model), "the optimal model satisfies the formula");
                    assert_eq!(obj.eval(&r.model), r.cost);
                    assert_eq!(r.solver_calls as u64, s.stats().solve_calls);
                    Some(r.cost)
                }
                maxsat::OptimizeOutcome::Unsat => None,
                maxsat::OptimizeOutcome::Unknown { .. } => panic!("no budget was set"),
            }
        };
        assert_eq!(
            run(None),
            run(Some(guess)),
            "{strategy:?} with guess {guess}"
        );
    });
}

#[test]
fn model_completion_is_stable() {
    cases(128, |rng| {
        let len = rng.range(1, 16);
        let values = rng.vec(len, Rng::bool);
        let m = Model::from_values(values.clone());
        for (i, &b) in values.iter().enumerate() {
            assert_eq!(m.var_is_true(Var::from_index(i)), b);
            assert_eq!(m.lit_is_true(Var::from_index(i).positive()), b);
            assert_eq!(m.lit_is_true(Var::from_index(i).negative()), !b);
        }
    });
}
