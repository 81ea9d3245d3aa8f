//! Head-to-head harness for the two eager optimisation loops:
//! from-scratch vs. incremental.
//!
//! Writes machine-readable results to `BENCH_optimize.json` so the perf
//! trajectory of the incremental rework is tracked from run to run.
//!
//! Usage: `bench_optimize [--smoke] [--out <path>] [--trace <path>]`
//!
//! `--smoke` restricts to the running example and the convoy (seconds,
//! not minutes) — this is what `ci/check.sh` runs in release mode.
//!
//! `--trace` additionally re-runs the first fixture with observability on,
//! writing a JSONL event stream to the given path, and cross-checks the
//! stream against the run's own statistics: the probe spans and conflict
//! totals in the trace must agree with the figures
//! that go into the benchmark JSON. The timed runs stay untraced, so the
//! recorded wall times are unaffected. Because every event is flushed as
//! it is written, a crashed or diverging run still leaves the trace behind
//! as a replayable artifact.

use std::fmt::Write as _;
use std::time::Instant;

use etcs_core::{
    optimize, optimize_incremental, DesignOutcome, EncoderConfig, Run, TaskKind, TaskReport,
};
use etcs_network::{fixtures, parse_scenario, Scenario};
use etcs_obs::{json, Obs};

/// One optimisation run, flattened for JSON.
struct RunResult {
    wall_ms: f64,
    solver_calls: usize,
    conflicts: u64,
    solve_calls: u64,
    reused_learnts: u64,
    reuse_rate: f64,
    deadline_steps: Option<u64>,
    borders: Option<u64>,
}

fn flatten(outcome: &DesignOutcome, report: &TaskReport, wall_ms: f64) -> RunResult {
    let (deadline_steps, borders) = match outcome {
        DesignOutcome::Solved { costs, .. } => (costs.first().copied(), costs.get(1).copied()),
        DesignOutcome::Infeasible => (None, None),
    };
    RunResult {
        wall_ms,
        solver_calls: report.solver_calls,
        conflicts: report.search.conflicts,
        solve_calls: report.search.solve_calls,
        reused_learnts: report.search.reused_learnts,
        reuse_rate: report.search.learnt_reuse_rate(),
        deadline_steps,
        borders,
    }
}

fn run(
    scenario: &Scenario,
    config: &EncoderConfig,
    f: impl Fn(&Scenario, &EncoderConfig) -> (DesignOutcome, TaskReport),
) -> RunResult {
    let start = Instant::now();
    let (outcome, report) = f(scenario, config);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    flatten(&outcome, &report, wall_ms)
}

fn json_run(out: &mut String, key: &str, r: &RunResult) {
    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |x| x.to_string());
    let _ = write!(
        out,
        "      \"{key}\": {{\"wall_ms\": {:.2}, \"solver_calls\": {}, \"conflicts\": {}, \
         \"solve_calls\": {}, \"reused_learnts\": {}, \"reuse_rate\": {:.4}, \
         \"deadline_steps\": {}, \"borders\": {}}}",
        r.wall_ms,
        r.solver_calls,
        r.conflicts,
        r.solve_calls,
        r.reused_learnts,
        r.reuse_rate,
        opt(r.deadline_steps),
        opt(r.borders),
    );
}

/// Runs the first fixture with tracing on, writes the JSONL stream to
/// `path`, and cross-checks it against the traced run's own statistics
/// (and against the untraced benchmark row in `baseline`). Panics — and
/// leaves the trace on disk — on any disagreement.
fn traced_cross_check(
    scenario: &Scenario,
    config: &EncoderConfig,
    path: &str,
    baseline: &RunResult,
) {
    let obs = Obs::jsonl(path).expect("create trace file");
    let traced_run = Run {
        obs: obs.clone(),
        ..Run::default()
    };
    let (outcome, report) =
        etcs_core::run(scenario, &TaskKind::Optimize, config, &traced_run).expect("well-formed");
    let (i_outcome, i_report) = etcs_core::run(
        scenario,
        &TaskKind::OptimizeIncremental,
        config,
        &traced_run,
    )
    .expect("well-formed");
    obs.flush_metrics();
    obs.flush();

    for (label, traced) in [
        ("optimize", flatten(&outcome, &report, 0.0)),
        ("optimize_incremental", flatten(&i_outcome, &i_report, 0.0)),
    ] {
        assert_eq!(
            (traced.deadline_steps, traced.borders),
            (baseline.deadline_steps, baseline.borders),
            "traced {label} diverged from the benchmarked run on {}",
            scenario.name
        );
    }

    // Consume the sink: every line must parse, and the stream must tell
    // the same story as the Stats that went into the benchmark JSON.
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
    let field_of = |e: &json::Json, key: &str| {
        e.get("fields")
            .and_then(|f| f.get(key))
            .and_then(json::Json::as_f64)
    };

    let task_close = events
        .iter()
        .find(|e| str_of(e, "name") == "task.optimize" && str_of(e, "kind") == "span_close")
        .expect("trace contains the task.optimize close");
    let task_id = task_close.get("span").and_then(json::Json::as_f64);
    let probe_closes = events
        .iter()
        .filter(|e| {
            str_of(e, "name") == "probe"
                && str_of(e, "kind") == "span_close"
                && e.get("parent").and_then(json::Json::as_f64) == task_id
        })
        .count() as f64;
    assert_eq!(
        field_of(task_close, "probes"),
        Some(probe_closes),
        "probe span count disagrees with the task's probe figure"
    );
    assert_eq!(
        field_of(task_close, "conflicts"),
        Some(report.search.conflicts as f64),
        "trace conflict total disagrees with Stats.conflicts"
    );

    eprintln!(
        "   trace: {} events, probes {probe_closes} -> {path}",
        events.len()
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_optimize.json".to_owned());
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let config = EncoderConfig::default();

    // Head-to-head fixtures. The convoy fixture is the multi-probe
    // showcase (its optimum sits strictly above the completion lower
    // bound); the paper case studies all accept an early probe. The
    // equivalence test covers Nordlandsbanen, the tracked bench stays
    // fast.
    let head_to_head: Vec<Scenario> = if smoke {
        vec![fixtures::running_example(), fixtures::convoy()]
    } else {
        vec![
            fixtures::running_example(),
            fixtures::simple_layout(),
            fixtures::complex_layout(),
            branch_line(),
            fixtures::convoy(),
        ]
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"optimize\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"fixtures\": [");
    for (i, scenario) in head_to_head.iter().enumerate() {
        eprintln!("== {} ==", scenario.name);
        let scratch = run(scenario, &config, |s, c| {
            optimize(s, c).expect("well-formed")
        });
        let incremental = run(scenario, &config, |s, c| {
            optimize_incremental(s, c).expect("well-formed")
        });
        assert_eq!(
            (scratch.deadline_steps, scratch.borders),
            (incremental.deadline_steps, incremental.borders),
            "incremental diverged from scratch on {}",
            scenario.name
        );
        let speedup = scratch.wall_ms / incremental.wall_ms.max(1e-9);
        eprintln!(
            "   scratch {:.1} ms | incremental {:.1} ms ({speedup:.2}x)",
            scratch.wall_ms, incremental.wall_ms
        );
        if i == 0 {
            if let Some(path) = &trace_path {
                traced_cross_check(scenario, &config, path, &scratch);
            }
        }
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", scenario.name);
        json_run(&mut out, "scratch", &scratch);
        out.push_str(",\n");
        json_run(&mut out, "incremental", &incremental);
        out.push_str(",\n");
        let _ = writeln!(
            out,
            "      \"speedup_incremental_vs_scratch\": {speedup:.2}"
        );
        let _ = write!(out, "    }}");
        out.push_str(if i + 1 < head_to_head.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");

    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
