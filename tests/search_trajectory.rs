//! Pins the encoder's output size and the CDCL search trajectory.
//!
//! For the paper's running example and one Small instance of every corpus
//! family, each design task records the size of its encoding (solver
//! variables, clauses) and the solver's work counters (conflicts,
//! propagations, decisions, restarts). Clause storage, watch-list layout
//! and encoder loop structure may change freely for speed, but the formula
//! and the whole search must not: any change to clause emission order,
//! literal order, watch order or conflict analysis moves at least one of
//! these counters. A deliberate change to the formula or the search
//! updates this table in the same commit, with the reason.

use etcs::corpus::{Family, InstanceSpec, SizeClass};
use etcs::prelude::*;
use etcs::sat::{Lit, Solver};

/// `(instance, task, solver_vars, clauses, conflicts, propagations,
/// decisions, restarts)`.
type Row = (&'static str, &'static str, usize, usize, u64, u64, u64, u64);
/// A measured [`Row`], owning its instance name.
type Measured = (String, &'static str, usize, usize, u64, u64, u64, u64);

const PINNED: &[Row] = &[
    (
        "running_example",
        "verify_ttd",
        846,
        7733,
        348,
        20150,
        789,
        2,
    ),
    ("running_example", "verify", 846, 7865, 549, 42291, 1680, 3),
    (
        "running_example",
        "generate",
        846,
        8305,
        433,
        30629,
        1931,
        2,
    ),
    (
        "running_example",
        "optimize",
        811,
        7663,
        739,
        62686,
        2450,
        3,
    ),
    (
        "running_example",
        "optimize_incremental",
        1096,
        11359,
        596,
        59453,
        4041,
        3,
    ),
    (
        "grid_ladder",
        "verify_ttd",
        6923,
        68170,
        131,
        24998,
        2597,
        1,
    ),
    ("grid_ladder", "verify", 6923, 62226, 32, 8654, 2177, 0),
    ("grid_ladder", "generate", 6923, 68170, 33, 77694, 22583, 0),
    (
        "grid_ladder",
        "optimize",
        1535,
        9573,
        2359,
        179944,
        10110,
        12,
    ),
    (
        "grid_ladder",
        "optimize_incremental",
        6943,
        68265,
        4298,
        501393,
        47233,
        20,
    ),
    ("convoy_chain", "verify_ttd", 3457, 26558, 0, 3457, 1190, 0),
    ("convoy_chain", "verify", 3457, 24922, 0, 3457, 1194, 0),
    ("convoy_chain", "generate", 3457, 26558, 0, 37827, 13544, 0),
    ("convoy_chain", "optimize", 1102, 5936, 0, 12970, 4263, 0),
    (
        "convoy_chain",
        "optimize_incremental",
        3472,
        26600,
        0,
        33420,
        14828,
        0,
    ),
    ("branched_mesh", "verify_ttd", 2268, 14900, 0, 2268, 789, 0),
    ("branched_mesh", "verify", 2268, 14295, 0, 2268, 794, 0),
    ("branched_mesh", "generate", 2268, 14900, 0, 24988, 9142, 0),
    ("branched_mesh", "optimize", 386, 1406, 3, 4764, 1627, 0),
    (
        "branched_mesh",
        "optimize_incremental",
        2286,
        14934,
        13,
        22862,
        9945,
        0,
    ),
    ("station_throat", "verify_ttd", 1753, 12339, 1, 1763, 603, 0),
    ("station_throat", "verify", 1753, 11961, 0, 1753, 612, 0),
    ("station_throat", "generate", 1753, 12339, 0, 13996, 4572, 0),
    ("station_throat", "optimize", 219, 601, 0, 1949, 277, 0),
    (
        "station_throat",
        "optimize_incremental",
        1773,
        12377,
        4,
        13206,
        5757,
        0,
    ),
    ("moving_block", "verify_ttd", 1967, 25486, 2, 2019, 694, 0),
    ("moving_block", "verify", 1967, 24548, 1, 1987, 681, 0),
    ("moving_block", "generate", 1967, 25486, 1, 19771, 6869, 0),
    ("moving_block", "optimize", 374, 1713, 6, 4267, 1459, 0),
    (
        "moving_block",
        "optimize_incremental",
        1986,
        25522,
        2,
        17095,
        8149,
        0,
    ),
    ("random_3sat_1", "unsat", 200, 5563, 9582, 365690, 11343, 30),
    (
        "random_3sat_2",
        "unsat",
        200,
        2278,
        12532,
        455553,
        14837,
        42,
    ),
    ("random_3sat_3", "unsat", 200, 1833, 4469, 166907, 5272, 17),
];

fn scenarios() -> Vec<(String, Scenario)> {
    let mut out = vec![("running_example".to_owned(), fixtures::running_example())];
    for family in Family::ALL {
        let spec = InstanceSpec::new(family, SizeClass::Small, 1);
        out.push((family.name().to_owned(), spec.build()));
    }
    out
}

fn measure() -> Vec<Measured> {
    let config = EncoderConfig::default();
    let mut rows = Vec::new();
    for (name, scenario) in scenarios() {
        let inst = Instance::new(&scenario).expect("valid scenario");
        let full = VssLayout::full(&inst.net);
        let reports = [
            (
                "verify_ttd",
                verify(&scenario, &VssLayout::pure_ttd(), &config)
                    .expect("well-formed")
                    .1,
            ),
            (
                "verify",
                verify(&scenario, &full, &config).expect("well-formed").1,
            ),
            (
                "generate",
                generate(&scenario, &config).expect("well-formed").1,
            ),
            (
                "optimize",
                optimize(&scenario, &config).expect("well-formed").1,
            ),
            (
                "optimize_incremental",
                optimize_incremental(&scenario, &config)
                    .expect("well-formed")
                    .1,
            ),
        ];
        for (task, r) in reports {
            rows.push((
                name.clone(),
                task,
                r.stats.solver_vars,
                r.stats.clauses,
                r.search.conflicts,
                r.search.propagations,
                r.search.decisions,
                r.search.restarts,
            ));
        }
    }
    rows
}

/// Random 3-SAT near the satisfiability threshold: enough conflicts for
/// learnt-clause reduction, level-0 simplification and arena compaction to
/// run mid-search, which the small design instances above never reach.
fn random_3sat_rows() -> Vec<Measured> {
    let mut rows = Vec::new();
    for seed in 1..=3u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let num_vars = 200;
        let mut solver = Solver::new();
        let vars = solver.new_vars(num_vars);
        for _ in 0..(num_vars * 43 / 10) {
            let clause: Vec<Lit> = (0..3)
                .map(|_| vars[(next() % num_vars as u64) as usize].lit(next() % 2 == 0))
                .collect();
            solver.add_clause(clause);
        }
        let verdict = solver.solve();
        let task = if verdict.is_sat() { "sat" } else { "unsat" };
        let s = solver.stats();
        rows.push((
            format!("random_3sat_{seed}"),
            task,
            solver.num_vars(),
            solver.num_clauses(),
            s.conflicts,
            s.propagations,
            s.decisions,
            s.restarts,
        ));
    }
    rows
}

#[test]
fn encodings_and_search_counters_match_the_pinned_trajectory() {
    let mut got = measure();
    got.extend(random_3sat_rows());
    let rendered: Vec<String> = got
        .iter()
        .map(|(i, t, v, c, k, p, d, r)| {
            format!("(\"{i}\", \"{t}\", {v}, {c}, {k}, {p}, {d}, {r}),")
        })
        .collect();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "pinned table is incomplete; measured rows:\n{}",
        rendered.join("\n")
    );
    for (row, pin) in got.iter().zip(PINNED) {
        let (i, t, v, c, k, p, d, r) = row;
        assert_eq!(
            (i.as_str(), *t, *v, *c, *k, *p, *d, *r),
            *pin,
            "trajectory moved; measured rows:\n{}",
            rendered.join("\n")
        );
    }
}
