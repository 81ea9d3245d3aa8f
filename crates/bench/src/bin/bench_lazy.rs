//! Head-to-head harness for the lazy (CEGAR) task loops against the eager
//! encoder: same optima, how much less work?
//!
//! Writes machine-readable results to `BENCH_lazy.json`. The headline
//! metric is the geometric-mean optimisation speedup on benchmark-scale
//! instances of the two regimes where most interaction families stay
//! dormant: `convoy_line` (a four-train convoy running one way down a
//! ten-station line — conflicts live in a narrow space-time band trailing
//! the convoy) and `branched_line` (two arms merging onto a shared trunk —
//! conflicts cluster at the junction). Full mode also runs the small
//! shipped fixtures, where the picture honestly inverts: on dense
//! instances (`Running Example`, `Complex Layout`, the tight `Convoy`)
//! nearly every family activates and the lazy loop *loses* to eager by up
//! to ~5.6× — the artifact records both regimes. The host's
//! `available_parallelism` is recorded next to the wall times.
//!
//! Every solve is timed [`SAMPLES`] times, alternating eager and lazy, so
//! both sides see the same drift of the host. The artifact records the
//! median and the min–max of each side; speedups are ratios of medians.
//!
//! Usage: `bench_lazy [--smoke] [--out <path>] [--trace <path>]`
//!
//! `--smoke` restricts to the two headline fixtures (what `ci/check.sh`
//! runs in release mode). `--trace` re-runs the last fixture
//! (`branched_line`, whose loop always refines) with observability on,
//! writes the JSONL stream to the given path, and cross-checks the
//! `lazy.round` / `lazy.refine` spans against the run's own counters —
//! the timed runs stay untraced.

use std::fmt::Write as _;
use std::time::Instant;

use etcs_core::{
    generate, optimize_incremental, verify, DesignOutcome, EncoderConfig, Run, TaskKind,
};
use etcs_network::generator::{branched_line, single_track_line, BranchConfig, LineConfig};
use etcs_network::{fixtures, parse_scenario, Scenario, Schedule, VssLayout};
use etcs_obs::{json, Obs};

/// Timed runs of each solve per side. With one run per side, single rows
/// moved by up to 45% between back-to-back sweeps.
const SAMPLES: usize = 5;

/// The wall-clock samples of one side, in milliseconds.
struct Timing {
    median: f64,
    min: f64,
    max: f64,
}

impl Timing {
    fn of(mut ms: Vec<f64>) -> Timing {
        ms.sort_by(f64::total_cmp);
        Timing {
            median: ms[ms.len() / 2],
            min: ms[0],
            max: ms[ms.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.2}, \"min\": {:.2}, \"max\": {:.2}}}",
            self.median, self.min, self.max
        )
    }
}

/// Runs `eager` and `lazy` [`SAMPLES`] times each, alternating, and
/// returns each side's timing with its last result.
fn alternate<E, L>(
    mut eager: impl FnMut() -> E,
    mut lazy: impl FnMut() -> L,
) -> (Timing, E, Timing, L) {
    let (mut eager_ms, mut lazy_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let e = eager();
        eager_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let l = lazy();
        lazy_ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((e, l));
    }
    let (e, l) = last.expect("SAMPLES is positive");
    (Timing::of(eager_ms), e, Timing::of(lazy_ms), l)
}

/// One eager-vs-lazy optimisation comparison, flattened for JSON.
struct Row {
    eager: Timing,
    lazy: Timing,
    speedup: f64,
    eager_clauses: usize,
    lazy_clauses: usize,
    clauses_added: usize,
    rounds: usize,
    deadline_steps: Option<u64>,
    borders: Option<u64>,
}

fn costs_of(outcome: &DesignOutcome) -> (Option<u64>, Option<u64>) {
    match outcome {
        DesignOutcome::Solved { costs, .. } => (costs.first().copied(), costs.get(1).copied()),
        DesignOutcome::Infeasible => (None, None),
    }
}

fn compare_optimize(scenario: &Scenario, config: &EncoderConfig) -> Row {
    let (eager, (eager_outcome, eager_report), lazy, (lazy_outcome, lazy_report)) = alternate(
        || optimize_incremental(scenario, config).expect("well-formed"),
        || {
            etcs_lazy::run(
                scenario,
                &TaskKind::OptimizeIncremental,
                config,
                &Run::default(),
            )
            .expect("well-formed")
        },
    );

    let eager_costs = costs_of(&eager_outcome);
    let lazy_costs = costs_of(&lazy_outcome);
    assert_eq!(
        eager_costs, lazy_costs,
        "lazy optimisation diverged from eager on {}",
        scenario.name
    );
    Row {
        speedup: eager.median / lazy.median.max(1e-9),
        eager,
        lazy,
        eager_clauses: eager_report.stats.clauses,
        lazy_clauses: lazy_report.report.stats.clauses,
        clauses_added: lazy_report.clauses_added,
        rounds: lazy_report.rounds,
        deadline_steps: eager_costs.0,
        borders: eager_costs.1,
    }
}

/// Generation head-to-head: eager `generate` vs the lazy CEGAR generation
/// loop, pinning the same minimal border count. This is the generation
/// regime the optimisation rows cannot see — stage 1 (deadline search) is
/// absent, so the comparison isolates the border-MaxSAT interaction with
/// lazy separation.
fn compare_generate(scenario: &Scenario, config: &EncoderConfig) -> Row {
    let (eager, (eager_outcome, eager_report), lazy, (lazy_outcome, lazy_report)) = alternate(
        || generate(scenario, config).expect("well-formed"),
        || {
            etcs_lazy::run(scenario, &TaskKind::Generate, config, &Run::default())
                .expect("well-formed")
        },
    );

    let eager_costs = costs_of(&eager_outcome);
    let lazy_costs = costs_of(&lazy_outcome);
    assert_eq!(
        eager_costs, lazy_costs,
        "lazy generation diverged from eager on {}",
        scenario.name
    );
    Row {
        speedup: eager.median / lazy.median.max(1e-9),
        eager,
        lazy,
        eager_clauses: eager_report.stats.clauses,
        lazy_clauses: lazy_report.report.stats.clauses,
        clauses_added: lazy_report.clauses_added,
        rounds: lazy_report.rounds,
        deadline_steps: None,
        borders: eager_costs.0,
    }
}

/// Verification head-to-head on the full VSS layout (always feasible, so
/// the lazy loop has real violations to refine).
fn compare_verify(scenario: &Scenario, config: &EncoderConfig) -> (Timing, Timing) {
    let inst = etcs_core::Instance::new(scenario).expect("valid");
    let layout = VssLayout::full(&inst.net);
    let task = TaskKind::Verify(layout.clone());
    let (eager_ms, (eager, _), lazy_ms, (relaxed, _)) = alternate(
        || verify(scenario, &layout, config).expect("well-formed"),
        || etcs_lazy::run(scenario, &task, config, &Run::default()).expect("well-formed"),
    );
    assert_eq!(
        eager.is_feasible(),
        relaxed.is_feasible(),
        "lazy verification diverged from eager on {}",
        scenario.name
    );
    (eager_ms, lazy_ms)
}

/// Re-runs the last fixture traced and pins the lazy span vocabulary:
/// every line parses, `lazy.round` spans nest under the task span and
/// agree with the report's round counter, and the refine spans sum to the
/// clauses-added figure.
fn traced_cross_check(scenario: &Scenario, config: &EncoderConfig, path: &str) {
    let obs = Obs::jsonl(path).expect("create trace file");
    let traced = Run {
        obs: obs.clone(),
        ..Run::default()
    };
    let (outcome, report) =
        etcs_lazy::run(scenario, &TaskKind::OptimizeIncremental, config, &traced)
            .expect("well-formed");
    obs.flush_metrics();
    obs.flush();
    assert!(matches!(outcome, DesignOutcome::Solved { .. }));

    let text = std::fs::read_to_string(path).expect("trace readable");
    let events: Vec<json::Json> = text
        .lines()
        .map(|line| json::parse(line).expect("every trace line is valid JSON"))
        .collect();
    let str_of = |e: &json::Json, key: &str| {
        e.get(key)
            .and_then(json::Json::as_str)
            .map(str::to_owned)
            .unwrap_or_default()
    };
    let task_close = events
        .iter()
        .find(|e| str_of(e, "name") == "task.optimize_lazy" && str_of(e, "kind") == "span_close")
        .expect("trace contains the task.optimize_lazy close");
    let task_id = task_close.get("span").and_then(json::Json::as_f64);
    let rounds = events
        .iter()
        .filter(|e| {
            str_of(e, "name") == "lazy.round"
                && str_of(e, "kind") == "span_close"
                && e.get("parent").and_then(json::Json::as_f64) == task_id
        })
        .count();
    assert_eq!(rounds, report.rounds, "round span count vs LazyReport");
    let refined: f64 = events
        .iter()
        .filter(|e| str_of(e, "name") == "lazy.refine" && str_of(e, "kind") == "span_close")
        .filter_map(|e| {
            e.get("fields")
                .and_then(|f| f.get("clauses"))
                .and_then(json::Json::as_f64)
        })
        .sum();
    assert_eq!(
        refined as usize, report.clauses_added,
        "refine span clause total vs LazyReport"
    );
    eprintln!(
        "   trace: {} events, {rounds} rounds, {} clauses -> {path}",
        events.len(),
        report.clauses_added
    );
}

fn branch_line() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/branch_line.rail"
    );
    let text = std::fs::read_to_string(path).expect("branch_line.rail ships with the repo");
    parse_scenario(&text).expect("sample scenario parses")
}

/// The convoy-regime headline fixture: a four-train convoy (the eastbound
/// half of a generated bidirectional line schedule) chasing down a
/// ten-station single-track line, on a horizon with slack. Same-direction
/// trains conflict only in the band trailing the leader, so the eager
/// encoder's all-pairs × all-steps separation mass is almost entirely
/// dormant — the regime the lazy loop is built for.
fn convoy_line() -> Scenario {
    let mut scenario = single_track_line(&LineConfig {
        stations: 10,
        loop_every: 2,
        trains_per_direction: 4,
        horizon: etcs_network::Seconds::from_minutes(45),
        ..LineConfig::default()
    });
    let runs = scenario
        .schedule
        .runs()
        .iter()
        .filter(|r| r.train.name.starts_with("East"))
        .cloned()
        .collect();
    scenario.schedule = Schedule::new(runs);
    scenario.name = "convoy_line".to_owned();
    scenario
}

/// The branched-regime headline fixture: two four-station arms of two
/// trains each merging onto a shared six-station trunk. Cross-arm pairs
/// can only ever conflict around the junction and trunk, so most
/// separation families never activate.
fn branched() -> Scenario {
    let mut scenario = branched_line(&BranchConfig {
        arm_stations: 4,
        trunk_stations: 6,
        trains_per_arm: 2,
        horizon: etcs_network::Seconds::from_minutes(40),
        ..BranchConfig::default()
    });
    scenario.name = "branched_line".to_owned();
    scenario
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_lazy.json".to_owned());
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let config = EncoderConfig::default();

    const HEADLINE: [&str; 2] = ["convoy_line", "branched_line"];
    let fixtures: Vec<Scenario> = if smoke {
        vec![convoy_line(), branched()]
    } else {
        vec![
            fixtures::running_example(),
            fixtures::simple_layout(),
            fixtures::complex_layout(),
            branch_line(),
            fixtures::convoy(),
            convoy_line(),
            branched(),
        ]
    };

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"lazy\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"samples\": {SAMPLES},");
    let _ = writeln!(out, "  \"fixtures\": [");
    let mut headline_speedups = Vec::new();
    for (i, scenario) in fixtures.iter().enumerate() {
        eprintln!("== {} ==", scenario.name);
        let row = compare_optimize(scenario, &config);
        let gen_row = compare_generate(scenario, &config);
        let (verify_eager, verify_lazy) = compare_verify(scenario, &config);
        eprintln!(
            "   optimize: eager {:.1} ms | lazy {:.1} ms ({:.2}x) | {} rounds, {} of {} eager clauses",
            row.eager.median,
            row.lazy.median,
            row.speedup,
            row.rounds,
            row.lazy_clauses + row.clauses_added,
            row.eager_clauses,
        );
        eprintln!(
            "   generate: eager {:.1} ms | lazy {:.1} ms ({:.2}x) | {} rounds",
            gen_row.eager.median, gen_row.lazy.median, gen_row.speedup, gen_row.rounds,
        );
        if HEADLINE.contains(&scenario.name.as_str()) {
            headline_speedups.push(row.speedup);
        }
        if i + 1 == fixtures.len() {
            if let Some(path) = &trace_path {
                traced_cross_check(scenario, &config, path);
            }
        }
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |x| x.to_string());
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", scenario.name);
        let _ = writeln!(
            out,
            "      \"optimize\": {{\"eager_wall_ms\": {}, \"lazy_wall_ms\": {}, \
             \"speedup\": {:.2}, \"eager_clauses\": {}, \"lazy_clauses\": {}, \
             \"clauses_added\": {}, \"rounds\": {}, \"deadline_steps\": {}, \"borders\": {}}},",
            row.eager.json(),
            row.lazy.json(),
            row.speedup,
            row.eager_clauses,
            row.lazy_clauses,
            row.clauses_added,
            row.rounds,
            opt(row.deadline_steps),
            opt(row.borders),
        );
        let _ = writeln!(
            out,
            "      \"generate\": {{\"eager_wall_ms\": {}, \"lazy_wall_ms\": {}, \
             \"speedup\": {:.2}, \"eager_clauses\": {}, \"lazy_clauses\": {}, \
             \"clauses_added\": {}, \"rounds\": {}, \"borders\": {}}},",
            gen_row.eager.json(),
            gen_row.lazy.json(),
            gen_row.speedup,
            gen_row.eager_clauses,
            gen_row.lazy_clauses,
            gen_row.clauses_added,
            gen_row.rounds,
            opt(gen_row.borders),
        );
        let _ = writeln!(
            out,
            "      \"verify_full_layout\": {{\"eager_wall_ms\": {}, \"lazy_wall_ms\": {}}}",
            verify_eager.json(),
            verify_lazy.json(),
        );
        let _ = write!(out, "    }}");
        out.push_str(if i + 1 < fixtures.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "  ],");

    // The headline: geometric mean of the optimisation speedups on the
    // interaction-sparse fixtures. The checked-in artifact must show >= 1.5.
    let geomean = (headline_speedups.iter().map(|s| s.ln()).sum::<f64>()
        / headline_speedups.len().max(1) as f64)
        .exp();
    eprintln!(
        "== headline geomean speedup ({}): {geomean:.2}x ==",
        HEADLINE.join(" + ")
    );
    let names: Vec<String> = HEADLINE.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = writeln!(out, "  \"headline\": {{");
    let _ = writeln!(out, "    \"fixtures\": [{}],", names.join(", "));
    let _ = writeln!(out, "    \"geomean_speedup\": {geomean:.2}");
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");

    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
