//! Micro-benchmarks for the SAT substrate (`etcs-sat`), standing in for
//! the Z3 engine the paper used: random 3-SAT around the phase transition,
//! pigeonhole UNSAT proofs, cardinality encodings and MaxSAT optimisation.

use etcs_bench::harness::{BatchSize, Criterion};
use etcs_bench::{criterion_group, criterion_main};
use etcs_sat::{maxsat, CnfSink, Lit, Objective, Solver, Strategy, Totalizer, Var};

/// Deterministic xorshift stream for reproducible instances.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> Solver {
    let mut rng = Rng(seed | 1);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| CnfSink::new_var(&mut s)).collect();
    for _ in 0..num_clauses {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = vars[(rng.next() % num_vars as u64) as usize];
                v.lit(rng.next().is_multiple_of(2))
            })
            .collect();
        s.add_clause(clause);
    }
    s
}

fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..n)
        .map(|_| {
            (0..n - 1)
                .map(|_| CnfSink::new_var(&mut s).positive())
                .collect()
        })
        .collect();
    for row in &p {
        s.add_clause(row.iter().copied());
    }
    #[allow(clippy::needless_range_loop)]
    for h in 0..n - 1 {
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_clause([!p[i][h], !p[j][h]]);
            }
        }
    }
    s
}

fn solver_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);

    group.bench_function("random3sat_sat_100v_380c", |b| {
        b.iter_batched(
            || random_3sat(100, 380, 0xDEAD),
            |mut s| s.solve(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("random3sat_hard_120v_511c", |b| {
        // Clause ratio 4.26: the hardest region.
        b.iter_batched(
            || random_3sat(120, 511, 0xBEEF),
            |mut s| s.solve(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("pigeonhole_8_unsat", |b| {
        b.iter_batched(
            || pigeonhole(8),
            |mut s| {
                let r = s.solve();
                assert!(r.is_unsat());
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("totalizer_build_200", |b| {
        b.iter_batched(
            || {
                let mut s = Solver::new();
                let lits: Vec<Lit> = (0..200)
                    .map(|_| CnfSink::new_var(&mut s).positive())
                    .collect();
                (s, lits)
            },
            |(mut s, lits)| Totalizer::build(&mut s, lits),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("maxsat_linear_60v", |b| {
        b.iter_batched(
            || {
                let mut s = random_3sat(60, 180, 0xCAFE);
                let obj = Objective::count_of((0..30).map(|i| Var::from_index(i).positive()));
                (s.solve().is_sat().then_some(()), s, obj)
            },
            |(_, mut s, obj)| maxsat::minimize(&mut s, &obj, &[], Strategy::LinearSatUnsat, None),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, solver_benches);
criterion_main!(benches);
