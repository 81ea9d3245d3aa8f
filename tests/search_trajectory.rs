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
//!
//! Two more tables pin the loops layered on the same encoder: the lazy
//! CEGAR tasks (search counters plus refinement rounds and clauses added)
//! on the same instances, and every `scenarios/replay/*.delta` exemplar
//! replayed through a replanning session, eager and lazy (summed tick
//! conflicts and solver calls, warm hits, cold fallbacks).
//!
//! Counters only imply that the formula is unchanged. A last table pins it
//! directly: an FNV-1a digest of every traced encoding (its variable
//! count, then each clause's length and literal codes in emission order)
//! for the same instances under every task encoding, plus one Medium
//! scenario of each family the `design_encode` benchmark workload draws
//! from.

use etcs::corpus::{Family, InstanceSpec, SizeClass};
use etcs::lazy::LazyReport;
use etcs::prelude::*;
use etcs::replan::{parse_trace, ReplanConfig, ReplanSession, TraceOp};
use etcs::sat::{Lit, Solver};
use etcs_core::{encode_with, ConstraintFamilies};

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

/// `(instance, task, conflicts, propagations, decisions, restarts,
/// cegar_rounds, clauses_added)` of the lazy loops.
type LazyRow = (&'static str, &'static str, u64, u64, u64, u64, usize, usize);
/// A measured [`LazyRow`], owning its instance name.
type LazyMeasured = (String, &'static str, u64, u64, u64, u64, usize, usize);

const LAZY_PINNED: &[LazyRow] = &[
    (
        "running_example",
        "verify_ttd",
        301,
        23530,
        1434,
        1,
        6,
        4600,
    ),
    ("running_example", "verify", 306, 28288, 2473, 1, 11, 6155),
    (
        "running_example",
        "generate",
        1204,
        127804,
        8125,
        3,
        14,
        6150,
    ),
    (
        "running_example",
        "optimize",
        1438,
        150493,
        10425,
        5,
        30,
        8790,
    ),
    ("grid_ladder", "verify_ttd", 57, 75007, 14015, 0, 11, 32707),
    ("grid_ladder", "verify", 34, 109803, 21338, 0, 16, 32653),
    ("grid_ladder", "generate", 46, 169910, 28602, 0, 17, 30910),
    ("grid_ladder", "optimize", 1780, 451267, 95015, 6, 41, 35964),
    ("convoy_chain", "verify_ttd", 0, 2347, 346, 0, 1, 0),
    ("convoy_chain", "verify", 0, 2347, 346, 0, 1, 0),
    ("convoy_chain", "generate", 0, 25617, 2860, 0, 1, 0),
    ("convoy_chain", "optimize", 0, 20100, 3064, 0, 2, 0),
    ("branched_mesh", "verify_ttd", 0, 3102, 460, 0, 2, 373),
    ("branched_mesh", "verify", 0, 3102, 460, 0, 2, 303),
    ("branched_mesh", "generate", 0, 18426, 2017, 0, 2, 373),
    ("branched_mesh", "optimize", 21, 24739, 4585, 0, 9, 574),
    ("station_throat", "verify_ttd", 5, 9814, 2061, 0, 7, 1344),
    ("station_throat", "verify", 3, 5347, 1077, 0, 4, 790),
    ("station_throat", "generate", 7, 18461, 3342, 0, 7, 1063),
    ("station_throat", "optimize", 21, 31371, 7415, 0, 20, 765),
    ("moving_block", "verify_ttd", 0, 2738, 510, 0, 2, 574),
    ("moving_block", "verify", 0, 4143, 768, 0, 3, 480),
    ("moving_block", "generate", 1, 14871, 2024, 0, 2, 574),
    ("moving_block", "optimize", 0, 14611, 3976, 0, 4, 1165),
];

fn measure_lazy() -> Vec<LazyMeasured> {
    let config = EncoderConfig::default();
    let mut rows = Vec::new();
    for (name, scenario) in scenarios() {
        let inst = Instance::new(&scenario).expect("valid scenario");
        let lazy = |task: TaskKind| -> LazyReport {
            etcs::lazy::run(&scenario, &task, &config, &Run::default())
                .expect("well-formed")
                .1
        };
        let reports: [(&'static str, LazyReport); 4] = [
            ("verify_ttd", lazy(TaskKind::Verify(VssLayout::pure_ttd()))),
            ("verify", lazy(TaskKind::Verify(VssLayout::full(&inst.net)))),
            ("generate", lazy(TaskKind::Generate)),
            ("optimize", lazy(TaskKind::OptimizeIncremental)),
        ];
        for (task, r) in reports {
            let s = r.report.search;
            rows.push((
                name.clone(),
                task,
                s.conflicts,
                s.propagations,
                s.decisions,
                s.restarts,
                r.rounds,
                r.clauses_added,
            ));
        }
    }
    rows
}

/// `(trace, mode, summed tick conflicts, summed tick solver calls, warm
/// hits, cold fallbacks)` of a `scenarios/replay/*.delta` exemplar
/// replayed through a [`ReplanSession`].
type ReplanRow = (&'static str, &'static str, u64, usize, u64, u64);
/// A measured [`ReplanRow`], owning its trace name.
type ReplanMeasured = (String, &'static str, u64, usize, u64, u64);

const REPLAN_PINNED: &[ReplanRow] = &[
    ("corpus_grid_ladder", "eager", 2359, 16, 3, 1),
    ("corpus_grid_ladder", "lazy", 7120, 204, 0, 4),
    ("running_example", "eager", 5575, 47, 3, 5),
    ("running_example", "lazy", 9963, 255, 0, 8),
];

fn measure_replan() -> Vec<ReplanMeasured> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/replay");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/replay/ ships with the repo")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "delta"))
        .collect();
    paths.sort();
    let mut rows = Vec::new();
    for path in paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 file name")
            .to_owned();
        let base = match stem.as_str() {
            "running_example" => fixtures::running_example(),
            "corpus_grid_ladder" => {
                InstanceSpec::new(Family::GridLadder, SizeClass::Small, 0).build()
            }
            other => panic!("no base scenario registered for trace {other:?}"),
        };
        let text = std::fs::read_to_string(&path).expect("trace is readable");
        let ops = parse_trace(&text).expect("shipped trace parses");
        for (mode, lazy) in [("eager", false), ("lazy", true)] {
            let config = ReplanConfig {
                lazy,
                ..ReplanConfig::default()
            };
            let mut session = ReplanSession::new(base.clone(), config).expect("valid base");
            let (mut conflicts, mut calls) = (0u64, 0usize);
            for op in &ops {
                match op {
                    TraceOp::Delta(d) => session.apply(d).expect("shipped trace applies"),
                    TraceOp::Tick => {
                        let r = session.tick();
                        conflicts += r.conflicts;
                        calls += r.solver_calls;
                    }
                }
            }
            let stats = session.stats();
            rows.push((
                stem.clone(),
                mode,
                conflicts,
                calls,
                stats.warm_hits,
                stats.cold_fallbacks,
            ));
        }
    }
    rows
}

/// `(instance, task, num_vars, num_clauses, digest)` of a traced
/// encoding; the digest is [`formula_digest`] in hex.
type FormulaRow = (&'static str, &'static str, usize, usize, &'static str);
/// A measured [`FormulaRow`], owning its strings.
type FormulaMeasured = (String, &'static str, usize, usize, String);

const FORMULA_PINNED: &[FormulaRow] = &[
    (
        "running_example",
        "verify_ttd",
        846,
        8441,
        "a425360e2cd5c165",
    ),
    ("running_example", "verify", 846, 8441, "5bc4df232c4ef800"),
    ("running_example", "generate", 846, 8434, "7c3b2ab0c6f921e3"),
    (
        "running_example",
        "optimize_incremental",
        1096,
        11492,
        "cb4cb1ae2504ea33",
    ),
    (
        "running_example",
        "diagnose",
        1089,
        11458,
        "aea4b769facafdef",
    ),
    (
        "running_example",
        "core_only",
        593,
        1706,
        "c3e203faab7fd776",
    ),
    ("grid_ladder", "verify_ttd", 6923, 68295, "66b651bc47249281"),
    ("grid_ladder", "verify", 6923, 68295, "3274b717068d7e81"),
    ("grid_ladder", "generate", 6923, 68285, "afc9bc5451835117"),
    (
        "grid_ladder",
        "optimize_incremental",
        6943,
        68385,
        "feaf3c8897e70cd3",
    ),
    ("grid_ladder", "diagnose", 6928, 68295, "a54407b977424930"),
    ("grid_ladder", "core_only", 4635, 13935, "60681a5eb566c22e"),
    (
        "convoy_chain",
        "verify_ttd",
        3457,
        26673,
        "295b5ed325848210",
    ),
    ("convoy_chain", "verify", 3457, 26673, "13edefb5c1be6e10"),
    ("convoy_chain", "generate", 3457, 26663, "14fa53032895d52a"),
    (
        "convoy_chain",
        "optimize_incremental",
        3472,
        26708,
        "bea6a6d085d5f342",
    ),
    ("convoy_chain", "diagnose", 3460, 26673, "a335e8adcdd2b4e2"),
    ("convoy_chain", "core_only", 2347, 7035, "3e3c9629442c2727"),
    (
        "branched_mesh",
        "verify_ttd",
        2268,
        14968,
        "cb12c3ac33d7eba7",
    ),
    ("branched_mesh", "verify", 2268, 14968, "e325b072a3e0d7a7"),
    ("branched_mesh", "generate", 2268, 14958, "9d7afcf1a51199ad"),
    (
        "branched_mesh",
        "optimize_incremental",
        2286,
        14994,
        "8cfb92134741065f",
    ),
    ("branched_mesh", "diagnose", 2270, 14968, "516abe12201ae773"),
    ("branched_mesh", "core_only", 1524, 4560, "484852474653f014"),
    (
        "station_throat",
        "verify_ttd",
        1753,
        12392,
        "fd1a2638fa03fecd",
    ),
    ("station_throat", "verify", 1753, 12392, "659cbc00dae524dc"),
    (
        "station_throat",
        "generate",
        1753,
        12385,
        "310fe990fc6461f7",
    ),
    (
        "station_throat",
        "optimize_incremental",
        1773,
        12425,
        "4973978305a3c337",
    ),
    (
        "station_throat",
        "diagnose",
        1755,
        12392,
        "eea654c7e11b3995",
    ),
    (
        "station_throat",
        "core_only",
        1217,
        3654,
        "2e600862f0851f79",
    ),
    (
        "moving_block",
        "verify_ttd",
        1967,
        25533,
        "178ac8d4b6bb5be9",
    ),
    ("moving_block", "verify", 1967, 25533, "d8e26cf9aa380adc"),
    ("moving_block", "generate", 1967, 25524, "66136f4846372c79"),
    (
        "moving_block",
        "optimize_incremental",
        1986,
        25562,
        "0c3f72b0ea7dcf49",
    ),
    ("moving_block", "diagnose", 1969, 25533, "293aba035de5601d"),
    ("moving_block", "core_only", 1333, 3966, "761155fd7380cb05"),
    (
        "convoy_chain_medium",
        "verify_ttd",
        23375,
        239689,
        "564eea57d248c90d",
    ),
    (
        "convoy_chain_medium",
        "generate",
        23375,
        239665,
        "1fc4c920cdc1c10d",
    ),
    (
        "moving_block_medium",
        "verify_ttd",
        14019,
        233181,
        "cc87da9c621b4c07",
    ),
    (
        "moving_block_medium",
        "generate",
        14019,
        233164,
        "d2a77961502d0507",
    ),
    (
        "station_throat_medium",
        "verify_ttd",
        9205,
        90613,
        "dbbb139b05655a49",
    ),
    (
        "station_throat_medium",
        "generate",
        9205,
        90600,
        "202f106ee4d50ef1",
    ),
    (
        "branched_mesh_medium",
        "verify_ttd",
        20734,
        228310,
        "ccb48f27d0781026",
    ),
    (
        "branched_mesh_medium",
        "generate",
        20734,
        228288,
        "e82c98a25c14b44c",
    ),
];

/// 64-bit FNV-1a over the variable count, then every clause's length and
/// literal codes in emission order (all as little-endian `u64`).
fn formula_digest(formula: &etcs::sat::Formula) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(formula.num_vars() as u64);
    for clause in formula.clauses() {
        fold(clause.len() as u64);
        for l in clause {
            fold(u64::from(l.code()));
        }
    }
    format!("{h:016x}")
}

fn traced_row(
    name: &str,
    task_name: &'static str,
    inst: &Instance,
    task: &TaskKind,
    families: ConstraintFamilies,
) -> FormulaMeasured {
    let config = EncoderConfig {
        trace: true,
        ..EncoderConfig::default()
    };
    let enc = encode_with(inst, &config, task, families);
    let formula = &enc.trace.expect("tracing on").formula;
    (
        name.to_owned(),
        task_name,
        formula.num_vars(),
        formula.num_clauses(),
        formula_digest(formula),
    )
}

fn measure_formulas() -> Vec<FormulaMeasured> {
    let all = ConstraintFamilies::ALL;
    let mut rows = Vec::new();
    for (name, scenario) in scenarios() {
        let inst = Instance::new(&scenario).expect("valid scenario");
        let open = Instance::new(&scenario.without_arrivals()).expect("valid scenario");
        let ttd = VssLayout::pure_ttd();
        let full = VssLayout::full(&inst.net);
        let tasks: [(&'static str, &Instance, TaskKind, ConstraintFamilies); 6] = [
            ("verify_ttd", &inst, TaskKind::Verify(ttd.clone()), all),
            ("verify", &inst, TaskKind::Verify(full), all),
            ("generate", &inst, TaskKind::Generate, all),
            (
                "optimize_incremental",
                &open,
                TaskKind::OptimizeIncremental,
                all,
            ),
            ("diagnose", &inst, TaskKind::Diagnose(ttd), all),
            (
                "core_only",
                &inst,
                TaskKind::Generate,
                ConstraintFamilies::CORE_ONLY,
            ),
        ];
        for (task_name, inst, task, families) in tasks {
            rows.push(traced_row(&name, task_name, inst, &task, families));
        }
    }
    for family in [
        Family::ConvoyChain,
        Family::MovingBlock,
        Family::StationThroat,
        Family::BranchedMesh,
    ] {
        let scenario = InstanceSpec::new(family, SizeClass::Medium, 1).build();
        let inst = Instance::new(&scenario).expect("valid scenario");
        let name = format!("{}_medium", family.name());
        let verify = TaskKind::Verify(VssLayout::pure_ttd());
        rows.push(traced_row(&name, "verify_ttd", &inst, &verify, all));
        rows.push(traced_row(
            &name,
            "generate",
            &inst,
            &TaskKind::Generate,
            all,
        ));
    }
    rows
}

/// Compares measured rows against a pinned table, printing the measured
/// table on any mismatch so a deliberate change can re-record it.
fn assert_pinned<M: std::fmt::Debug, P: std::fmt::Debug>(
    got: &[M],
    pinned: &[P],
    same: impl Fn(&M, &P) -> bool,
) {
    let rendered: Vec<String> = got.iter().map(|row| format!("{row:?},")).collect();
    assert_eq!(
        got.len(),
        pinned.len(),
        "pinned table is incomplete; measured rows:\n{}",
        rendered.join("\n")
    );
    for (row, pin) in got.iter().zip(pinned) {
        assert!(
            same(row, pin),
            "trajectory moved at {pin:?}; measured rows:\n{}",
            rendered.join("\n")
        );
    }
}

#[test]
fn lazy_search_counters_match_the_pinned_trajectory() {
    assert_pinned(
        &measure_lazy(),
        LAZY_PINNED,
        |(i, t, k, p, d, r, n, a), pin| (i.as_str(), *t, *k, *p, *d, *r, *n, *a) == *pin,
    );
}

#[test]
fn replan_replays_match_the_pinned_trajectory() {
    assert_pinned(
        &measure_replan(),
        REPLAN_PINNED,
        |(i, m, k, c, w, f), pin| (i.as_str(), *m, *k, *c, *w, *f) == *pin,
    );
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

#[test]
fn traced_formulas_match_the_pinned_digests() {
    assert_pinned(
        &measure_formulas(),
        FORMULA_PINNED,
        |(i, t, v, c, d), pin| (i.as_str(), *t, *v, *c, d.as_str()) == *pin,
    );
}
