//! Certified fuzzing: random CNFs of up to 20 variables are solved with
//! DRAT logging enabled and cross-checked against brute-force enumeration.
//! Every SAT answer must come with a model the formula evaluates to true
//! under; every UNSAT answer must come with a proof the independent DRAT
//! checker accepts. This closes the loop the plain differential test
//! leaves open: an UNSAT verdict is never taken on the solver's word.
//!
//! The small instances never fill the learnt-clause database, so one pass
//! first drives the same solver through a hard, selector-guarded random
//! block: thousands of conflicts force learnt-clause reduction and arena
//! compaction mid-search before the small instance is decided on the
//! compacted database, under the same brute-force and DRAT checks.

use etcs_sat::proof::{check_drat, DratProof};
use etcs_sat::{CnfSink, Formula, Lit, SatResult, Solver, Var};
use etcs_testkit::{cases, Rng};
use std::sync::{Arc, Mutex};

/// A random CNF over `2..=max_vars` variables as raw signed integers
/// (`±(var + 1)` like DIMACS). Clause count scales with the variable
/// count so large instances are not trivially satisfiable.
fn random_cnf(rng: &mut Rng, max_vars: usize) -> (usize, Vec<Vec<i32>>) {
    let nv = rng.range(2, max_vars + 1);
    let nc = rng.range(1, 4 * nv + 1);
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

/// Brute-force satisfiability over all `2^nv` assignments. Clauses are
/// precompiled to positive/negative bitmasks so the full 20-variable
/// sweep (about a million assignments) stays cheap even in debug builds.
fn brute_force_sat(nv: usize, clauses: &[Vec<i32>]) -> bool {
    let compiled: Vec<(u32, u32)> = clauses
        .iter()
        .map(|c| {
            let mut pos = 0u32;
            let mut neg = 0u32;
            for &s in c {
                let bit = 1u32 << (s.unsigned_abs() - 1);
                if s > 0 {
                    pos |= bit;
                } else {
                    neg |= bit;
                }
            }
            (pos, neg)
        })
        .collect();
    (0..(1u64 << nv)).any(|mask| {
        let m = mask as u32;
        compiled
            .iter()
            .all(|&(pos, neg)| m & pos != 0 || !m & neg != 0)
    })
}

/// Solves `f` with proof logging; returns the result and the proof.
fn solve_logged(f: &Formula) -> (SatResult, DratProof) {
    let proof = Arc::new(Mutex::new(DratProof::new()));
    let mut s = Solver::new();
    s.set_proof_sink(Box::new(Arc::clone(&proof)));
    f.load_into(&mut s);
    let result = s.solve();
    drop(s);
    let proof = Arc::try_unwrap(proof)
        .expect("solver handle dropped")
        .into_inner()
        .expect("proof lock");
    (result, proof)
}

/// Shared body: solve one random instance and insist every answer is
/// certified — SAT by a checkable model, UNSAT by a checkable proof.
fn check_one(rng: &mut Rng, max_vars: usize) {
    let (nv, clauses) = random_cnf(rng, max_vars);
    let expected = brute_force_sat(nv, &clauses);
    let f = build_formula(nv, &clauses);
    let (result, proof) = solve_logged(&f);
    match result {
        SatResult::Sat(m) => {
            assert!(expected, "solver said SAT on an UNSAT {nv}-var instance");
            assert!(f.eval(&m), "returned model violates a clause");
        }
        SatResult::Unsat { .. } => {
            assert!(!expected, "solver said UNSAT on a SAT {nv}-var instance");
            let outcome = check_drat(f.clauses(), &proof, &[])
                .unwrap_or_else(|e| panic!("UNSAT proof rejected on {nv} vars: {e}"));
            assert!(
                outcome.checked_lemmas >= 1,
                "an UNSAT certificate must derive the empty clause"
            );
        }
        SatResult::Unknown => panic!("no budget was set"),
    }
}

/// Solves a small instance on a solver that has first searched hard
/// random 3-SAT blocks, each guarded by its own selector `s` (every block
/// clause carries `!s`), until the learnt database was reduced; a
/// reduction frees enough of the clause arena to compact it. The small
/// instance is then added and solved on the compacted database, with the
/// blocks' learnt clauses still live. Its answer is checked like any
/// other: SAT by evaluating the model against the full formula, UNSAT by
/// the DRAT checker over every logged step, reductions' deletions
/// included.
fn check_one_after_reductions(rng: &mut Rng, max_vars: usize) {
    let (nv, clauses) = random_cnf(rng, max_vars);
    let expected = brute_force_sat(nv, &clauses);
    let mut f = build_formula(nv, &clauses);
    let small = f.clauses().len();
    let proof = Arc::new(Mutex::new(DratProof::new()));
    let mut s = Solver::new();
    s.set_proof_sink(Box::new(Arc::clone(&proof)));
    s.new_vars(f.num_vars());
    for _ in 0..MAX_BLOCKS {
        let first = f.clauses().len();
        let selector = f.new_var().positive();
        let block_vars: Vec<Var> = (0..BLOCK_VARS).map(|_| f.new_var()).collect();
        for _ in 0..BLOCK_VARS * 43 / 10 {
            let mut clause: Vec<Lit> = vec![!selector];
            for _ in 0..3 {
                let v = *rng.pick(&block_vars);
                clause.push(v.lit(rng.bool()));
            }
            f.add_clause_from(&clause);
        }
        s.new_vars(f.num_vars() - s.num_vars());
        s.add_clauses(f.clauses()[first..].iter().cloned());
        if let SatResult::Sat(m) = s.solve_with(&[selector]) {
            let loaded = &f.clauses()[small..];
            assert!(
                loaded.iter().all(|c| c.iter().any(|&l| m.lit_is_true(l))),
                "guarded model violates a loaded clause"
            );
        }
        if s.stats().deleted_clauses > 0 {
            break;
        }
    }
    assert!(
        s.stats().deleted_clauses > 0,
        "the guarded blocks must force a learnt-clause reduction ({} conflicts)",
        s.stats().conflicts
    );
    s.add_clauses(f.clauses()[..small].iter().cloned());
    let result = s.solve();
    drop(s);
    let proof = Arc::try_unwrap(proof)
        .expect("solver handle dropped")
        .into_inner()
        .expect("proof lock");
    match result {
        SatResult::Sat(m) => {
            assert!(expected, "solver said SAT on an UNSAT {nv}-var instance");
            assert!(f.eval(&m), "returned model violates a clause");
        }
        SatResult::Unsat { .. } => {
            assert!(!expected, "solver said UNSAT on a SAT {nv}-var instance");
            check_drat(f.clauses(), &proof, &[])
                .unwrap_or_else(|e| panic!("UNSAT proof after reductions rejected: {e}"));
        }
        SatResult::Unknown => panic!("no budget was set"),
    }
}

/// Variables of each hard block in [`check_one_after_reductions`].
const BLOCK_VARS: usize = 200;
/// Blocks searched at most before a reduction must have happened.
const MAX_BLOCKS: usize = 12;

#[test]
fn fuzz_after_forced_reductions_and_compaction_certified() {
    cases(6, |rng| check_one_after_reductions(rng, 20));
}

#[test]
fn fuzz_up_to_twenty_vars_certified() {
    cases(48, |rng| check_one(rng, 20));
}

#[test]
fn fuzz_dense_small_instances_certify_unsat() {
    // Small variable counts with the same clause density are frequently
    // UNSAT, so this pass exercises the DRAT path far more often than the
    // wide sweep above.
    cases(96, |rng| check_one(rng, 5));
}
