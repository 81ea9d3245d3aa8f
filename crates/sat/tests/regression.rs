//! Regression and stress tests for the CDCL solver on structured instance
//! families with known answers.

#![allow(clippy::needless_range_loop)]

use etcs_sat::{
    card, maxsat, parse_dimacs, CnfSink, Formula, Lit, Objective, SatResult, Solver, Strategy,
    Totalizer, Var,
};

fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
    (0..n).map(|_| CnfSink::new_var(s).positive()).collect()
}

/// XOR of two literals as CNF: a ⊕ b = c.
fn xor_gate(s: &mut Solver, a: Lit, b: Lit, c: Lit) {
    s.add_clause([!a, !b, !c]);
    s.add_clause([a, b, !c]);
    s.add_clause([a, !b, c]);
    s.add_clause([!a, b, c]);
}

#[test]
fn xor_chain_parity_sat_and_unsat() {
    // x0 ⊕ x1 = y0, y0 ⊕ x2 = y1, …; force final parity.
    for (force, expect_sat) in [(true, true), (false, true)] {
        let mut s = Solver::new();
        let xs = vars(&mut s, 12);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let y = CnfSink::new_var(&mut s).positive();
            xor_gate(&mut s, acc, x, y);
            acc = y;
        }
        if force {
            s.assert_true(acc);
        } else {
            s.assert_false(acc);
        }
        assert_eq!(s.solve().is_sat(), expect_sat);
    }
}

#[test]
fn xor_chain_with_contradictory_parities_is_unsat() {
    // Two parity chains over the same variables forced to differ.
    let mut s = Solver::new();
    let xs = vars(&mut s, 10);
    let build_chain = |s: &mut Solver| {
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let y = CnfSink::new_var(s).positive();
            xor_gate(s, acc, x, y);
            acc = y;
        }
        acc
    };
    let p1 = build_chain(&mut s);
    let p2 = build_chain(&mut s);
    s.assert_true(p1);
    s.assert_false(p2);
    assert!(s.solve().is_unsat());
}

#[test]
fn graph_coloring_cycle() {
    // An odd cycle is not 2-colourable but is 3-colourable.
    fn color_cycle(n: usize, k: usize) -> bool {
        let mut s = Solver::new();
        let c: Vec<Vec<Lit>> = (0..n).map(|_| vars(&mut s, k)).collect();
        for node in &c {
            s.add_clause(node.iter().copied());
            s.at_most_one_pairwise(node);
        }
        for i in 0..n {
            let j = (i + 1) % n;
            #[allow(clippy::needless_range_loop)]
            for col in 0..k {
                s.add_clause([!c[i][col], !c[j][col]]);
            }
        }
        s.solve().is_sat()
    }
    assert!(!color_cycle(7, 2));
    assert!(color_cycle(7, 3));
    assert!(color_cycle(8, 2));
}

#[test]
fn long_implication_chain_with_conflict_at_the_end() {
    let mut s = Solver::new();
    let xs = vars(&mut s, 2000);
    for w in xs.windows(2) {
        s.implies(w[0], w[1]);
    }
    s.assert_true(xs[0]);
    s.assert_false(*xs.last().expect("non-empty"));
    assert!(s.solve().is_unsat());
}

#[test]
fn duplicate_and_subsumed_clauses_are_harmless() {
    let mut s = Solver::new();
    let xs = vars(&mut s, 6);
    for _ in 0..50 {
        s.add_clause([xs[0], xs[1], xs[2]]);
        s.add_clause([xs[0], xs[1]]);
        s.add_clause([!xs[3], xs[4], !xs[5], xs[4]]);
    }
    assert!(s.solve().is_sat());
}

#[test]
fn alternating_sat_unsat_assumption_queries() {
    // Stress incremental state: flip between satisfiable and unsatisfiable
    // assumption sets many times on the same solver.
    let mut s = Solver::new();
    let xs = vars(&mut s, 20);
    for w in xs.windows(2) {
        s.add_clause([!w[0], w[1]]);
    }
    for round in 0..50 {
        let sat = s.solve_with(&[xs[0]]);
        assert!(sat.is_sat(), "round {round}");
        let unsat = s.solve_with(&[xs[0], !xs[19]]);
        assert!(unsat.is_unsat(), "round {round}");
    }
}

#[test]
fn exactly_k_totalizer_both_bounds() {
    for n in 1..=8usize {
        for k in 0..=n {
            let mut s = Solver::new();
            let xs = vars(&mut s, n);
            let t = Totalizer::build(&mut s, xs.clone());
            if let Some(b) = t.at_most(k) {
                s.assert_true(b);
            }
            if k > 0 {
                if let Some(b) = t.at_least(k) {
                    s.assert_true(b);
                }
            }
            match s.solve() {
                SatResult::Sat(m) => {
                    assert_eq!(m.count_true(&xs), k, "n={n} k={k}");
                }
                other => panic!("exactly-{k} of {n} must be satisfiable: {other:?}"),
            }
        }
    }
}

#[test]
fn sequential_encoding_composes_with_assumptions() {
    let mut s = Solver::new();
    let xs = vars(&mut s, 10);
    card::at_most_k_sequential(&mut s, &xs, 3);
    // Assume 3 specific literals true: satisfiable; a 4th: unsatisfiable.
    assert!(s.solve_with(&xs[0..3]).is_sat());
    assert!(s.solve_with(&xs[0..4]).is_unsat());
    assert!(s.solve().is_sat(), "solver remains usable");
}

#[test]
fn weighted_maxsat_prefers_many_cheap_violations() {
    // One weight-5 literal vs five weight-1 literals; hard clause forces
    // either the expensive one or all cheap ones.
    let mut s = Solver::new();
    let expensive = CnfSink::new_var(&mut s).positive();
    let cheap = vars(&mut s, 5);
    // expensive ∨ (all cheap): CNF as (expensive ∨ c_i) for each i.
    for &c in &cheap {
        s.add_clause([expensive, c]);
    }
    let mut terms = vec![(expensive, 5u64)];
    terms.extend(cheap.iter().map(|&c| (c, 1u64)));
    let obj = Objective::new(terms);
    let outcome = maxsat::minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None);
    let opt = outcome.optimal().expect("satisfiable");
    assert_eq!(opt.cost, 5, "both options cost 5; optimum is 5");
}

#[test]
fn dimacs_replay_of_generated_instance() {
    // Build a formula, write DIMACS, re-parse, solve both: same verdict.
    let mut f = Formula::new();
    let xs: Vec<Lit> = (0..15).map(|_| f.new_var().positive()).collect();
    for w in xs.windows(3) {
        f.add_clause_from(&[w[0], !w[1], w[2]]);
        f.add_clause_from(&[!w[0], w[1]]);
    }
    let text = etcs_sat::write_dimacs(&f);
    let g = parse_dimacs(&text).expect("roundtrip");
    let mut s1 = Solver::new();
    f.load_into(&mut s1);
    let mut s2 = Solver::new();
    g.load_into(&mut s2);
    assert_eq!(s1.solve().is_sat(), s2.solve().is_sat());
}

#[test]
fn hundreds_of_variables_unit_cascade() {
    // A large instance solved purely by propagation: no decisions needed.
    let mut s = Solver::new();
    let xs = vars(&mut s, 5000);
    s.assert_true(xs[0]);
    for w in xs.windows(2) {
        s.implies(w[0], w[1]);
    }
    match s.solve() {
        SatResult::Sat(m) => {
            assert!(xs.iter().all(|&x| m.lit_is_true(x)));
        }
        other => panic!("expected sat: {other:?}"),
    }
    assert_eq!(s.stats().conflicts, 0, "pure propagation, no search");
}

#[test]
fn php_unsat_cores_are_accurate_under_selectors() {
    // Pigeonhole with per-pigeon selectors: the core must cover all
    // pigeons (removing any one makes it satisfiable).
    let n = 4usize; // 4 pigeons, 3 holes
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..n).map(|_| vars(&mut s, n - 1)).collect();
    let selectors: Vec<Lit> = (0..n)
        .map(|_| CnfSink::new_var(&mut s).positive())
        .collect();
    for (row, &sel) in p.iter().zip(&selectors) {
        let mut clause = vec![!sel];
        clause.extend(row.iter().copied());
        s.add_clause(clause);
    }
    for h in 0..n - 1 {
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_clause([!p[i][h], !p[j][h]]);
            }
        }
    }
    match s.solve_with(&selectors) {
        SatResult::Unsat { core } => {
            assert_eq!(core.len(), n, "every pigeon participates");
        }
        other => panic!("expected unsat: {other:?}"),
    }
    // Any n-1 pigeons fit.
    assert!(s.solve_with(&selectors[1..]).is_sat());
}

#[test]
fn assumption_literals_do_not_leak_across_calls() {
    // The `solve_with` assumption-scope contract: assumptions hold for one
    // call only. They must not constrain the next call's model, appear in
    // the next call's unsat core, or remain asserted on the trail.
    let mut s = Solver::new();
    let x = CnfSink::new_var(&mut s).positive();

    // 1. Models: a free variable can be forced either way in consecutive
    //    calls — the earlier assumption does not persist as a constraint.
    match s.solve_with(&[x]) {
        SatResult::Sat(m) => assert!(m.lit_is_true(x)),
        other => panic!("expected sat: {other:?}"),
    }
    match s.solve_with(&[!x]) {
        SatResult::Sat(m) => assert!(!m.lit_is_true(x), "previous [x] leaked"),
        other => panic!("expected sat: {other:?}"),
    }
    // An assumption-free solve leaves x unconstrained and succeeds.
    assert!(s.solve().is_sat());

    // 2. Cores: a core mentions only the *current* call's assumptions.
    let [a, b, c, d] = [0; 4].map(|_| CnfSink::new_var(&mut s).positive());
    s.add_clause([!a, !b]);
    s.add_clause([!c, !d]);
    match s.solve_with(&[a, b]) {
        SatResult::Unsat { core } => {
            assert!(core.iter().all(|&l| l == a || l == b));
            assert!(!core.is_empty());
        }
        other => panic!("expected unsat: {other:?}"),
    }
    match s.solve_with(&[c, d]) {
        SatResult::Unsat { core } => {
            assert!(
                core.iter().all(|&l| l == c || l == d),
                "core mentions a previous call's assumptions: {core:?}"
            );
        }
        other => panic!("expected unsat: {other:?}"),
    }

    // 3. Trail: after an unsat-under-assumptions call the solver is back to
    //    a state where the formula minus assumptions is satisfiable, and
    //    each pair is independently assumable again.
    assert!(s.solve_with(&[a, !b]).is_sat());
    assert!(s.solve_with(&[c, !d]).is_sat());
    assert!(s.solve().is_sat());
}

#[test]
fn var_index_stability_across_solving() {
    // Variables allocated after a solve must not alias earlier ones.
    let mut s = Solver::new();
    let a = CnfSink::new_var(&mut s);
    s.assert_true(a.positive());
    assert!(s.solve().is_sat());
    let b = CnfSink::new_var(&mut s);
    assert_ne!(a, b);
    s.assert_false(b.positive());
    match s.solve() {
        SatResult::Sat(m) => {
            assert!(m.var_is_true(a));
            assert!(!m.var_is_true(b));
        }
        other => panic!("expected sat: {other:?}"),
    }
}

#[test]
fn conflicting_totalizer_bounds_unsat() {
    let mut s = Solver::new();
    let xs = vars(&mut s, 6);
    let t = Totalizer::build(&mut s, xs);
    s.assert_true(t.at_least(4).expect("bound"));
    s.assert_true(t.at_most(2).expect("bound"));
    assert!(s.solve().is_unsat());
    let _ = Var::from_index(0);
}
