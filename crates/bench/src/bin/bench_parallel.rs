//! Wall-clock speedup curves for the in-process clause-sharing portfolio
//! (`SolveMode::Portfolio`): the same optimisation task run at 1, 2 and 4
//! racing threads on the benchmark-scale line regimes.
//!
//! Writes machine-readable results to `BENCH_parallel.json`. For every
//! regime the harness runs `optimize_incremental` once per thread count,
//! asserts the optima are bit-identical across counts (speed may change,
//! answers may not), and records the wall clock, the speedup over the
//! 1-thread run, and the clause traffic of the races (exported / imported /
//! kept after the LBD filter and structural lints). The host's
//! `available_parallelism` is recorded alongside: on a single-core box any
//! speedup is purely algorithmic (diversified searches finishing in fewer
//! conflicts plus shared lemmas), while the raw thread-racing gain only
//! shows up once real cores back the workers.
//!
//! Usage: `bench_parallel [--smoke] [--out <path>] [--trace <path>]
//! [--threads <a,b,c>]`
//!
//! `--smoke` restricts to the fast fixtures at 1 and 2 threads and asserts
//! that the 2-thread race actually moved clauses (≥ 1 import candidate) —
//! this is what `ci/check.sh` runs in release mode. `--trace` additionally
//! writes the `portfolio.*` events of every race to a JSONL file so the
//! span vocabulary can be checked by grep.

use std::fmt::Write as _;
use std::time::Instant;

use etcs_core::{run, DesignOutcome, EncoderConfig, Run, SolveMode, TaskKind};
use etcs_network::generator::{branched_line, single_track_line, BranchConfig, LineConfig};
use etcs_network::{fixtures, Scenario, Seconds};
use etcs_obs::Obs;

struct Regime {
    name: &'static str,
    scenario: Scenario,
}

fn regimes(smoke: bool) -> Vec<Regime> {
    if smoke {
        return vec![
            Regime {
                name: "running_example",
                scenario: fixtures::running_example(),
            },
            Regime {
                name: "convoy",
                scenario: fixtures::convoy(),
            },
        ];
    }
    vec![
        Regime {
            name: "convoy_line",
            scenario: single_track_line(&LineConfig {
                stations: 8,
                loop_every: 2,
                trains_per_direction: 4,
                horizon: Seconds::from_minutes(40),
                seed: 11,
                ..LineConfig::default()
            }),
        },
        Regime {
            name: "branched_line",
            scenario: branched_line(&BranchConfig {
                arm_stations: 3,
                trunk_stations: 4,
                trains_per_arm: 4,
                headway: Seconds(60),
                r_t: Seconds(15),
                horizon: Seconds::from_minutes(30),
                seed: 11,
                ..BranchConfig::default()
            }),
        },
    ]
}

/// One measured race: wall clock plus the pooled clause-traffic counters
/// summed over every `portfolio.share`/`portfolio.import` event of the run.
struct Measurement {
    threads: usize,
    wall_s: f64,
    costs: Option<Vec<u64>>,
    solver_calls: usize,
    conflicts: u64,
    exported: u64,
    imported: u64,
    kept: u64,
    lint_rejected: u64,
}

fn measure(scenario: &Scenario, threads: usize, trace: &mut Option<String>) -> Measurement {
    let config = EncoderConfig {
        solve_mode: if threads >= 2 {
            SolveMode::Portfolio(threads)
        } else {
            SolveMode::Single
        },
        ..EncoderConfig::default()
    };
    let (obs, sink) = Obs::memory();
    let traced = Run {
        obs,
        ..Run::default()
    };
    let start = Instant::now();
    let (outcome, report) = run(scenario, &TaskKind::OptimizeIncremental, &config, &traced)
        .expect("generated scenarios are valid");
    let wall_s = start.elapsed().as_secs_f64();

    let costs = match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs),
        DesignOutcome::Infeasible => None,
    };
    let (mut exported, mut imported, mut kept, mut lint_rejected) = (0u64, 0u64, 0u64, 0u64);
    for event in sink.events() {
        match event.name {
            "portfolio.share" => exported += event.field_u64("exported").unwrap_or(0),
            "portfolio.import" => {
                imported += event.field_u64("imported").unwrap_or(0);
                kept += event.field_u64("kept").unwrap_or(0);
                lint_rejected += event.field_u64("lint_rejected").unwrap_or(0);
            }
            // No counters to sum, but the winner event still belongs in the
            // trace (ci greps the full portfolio vocabulary).
            "portfolio.winner" => {}
            _ => continue,
        }
        if let Some(out) = trace.as_mut() {
            let mut line = format!("{{\"name\":\"{}\"", event.name);
            for key in [
                "threads",
                "exported",
                "imported",
                "kept",
                "lbd_filtered",
                "lint_rejected",
                "worker",
                "worker_conflicts",
            ] {
                if let Some(v) = event.field_u64(key) {
                    let _ = write!(line, ",\"{key}\":{v}");
                }
            }
            line.push_str("}\n");
            out.push_str(&line);
        }
    }
    Measurement {
        threads,
        wall_s,
        costs,
        solver_calls: report.solver_calls,
        conflicts: report.search.conflicts,
        exported,
        imported,
        kept,
        lint_rejected,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_parallel.json".to_owned());
    let trace_path = arg_value("--trace");
    let mut trace = trace_path.as_ref().map(|_| String::new());

    let thread_counts: Vec<usize> = match arg_value("--threads") {
        Some(list) => list
            .split(',')
            .map(|t| t.parse().expect("--threads wants a comma-separated list"))
            .collect(),
        None if smoke => vec![1, 2],
        None => vec![1, 2, 4],
    };
    let thread_counts: &[usize] = &thread_counts;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"parallel\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"regimes\": [");

    let regimes = regimes(smoke);
    let mut best_speedup = 0.0f64;
    for (ri, regime) in regimes.iter().enumerate() {
        eprintln!("== {} ==", regime.name);
        let runs: Vec<Measurement> = thread_counts
            .iter()
            .map(|&threads| {
                let m = measure(&regime.scenario, threads, &mut trace);
                eprintln!(
                    "  {} threads: {:.2}s, {} conflicts, {} exported / {} kept",
                    m.threads, m.wall_s, m.conflicts, m.exported, m.kept
                );
                m
            })
            .collect();

        let base = &runs[0];
        for m in &runs[1..] {
            assert_eq!(
                base.costs, m.costs,
                "{}: optimum diverged at {} threads",
                regime.name, m.threads
            );
            // The CI gate: on the smoke fixtures the races are long enough
            // that a race which moved no clauses means sharing is broken.
            // (Full-mode regimes are allowed quiet races on easy probes.)
            if smoke {
                assert!(
                    m.imported >= 1,
                    "{}: the {}-thread race never pulled a clause from the pool",
                    regime.name,
                    m.threads
                );
            }
        }
        let speedup_at_max = base.wall_s / runs.last().expect("runs nonempty").wall_s.max(1e-9);
        best_speedup = best_speedup.max(speedup_at_max);

        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"regime\": \"{}\",", regime.name);
        let _ = writeln!(out, "      \"scenario\": \"{}\",", regime.scenario.name);
        let _ = writeln!(out, "      \"runs\": [");
        for (i, m) in runs.iter().enumerate() {
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"threads\": {},", m.threads);
            let _ = writeln!(out, "          \"wall_ms\": {:.2},", m.wall_s * 1e3);
            let _ = writeln!(
                out,
                "          \"speedup_vs_1\": {:.3},",
                base.wall_s / m.wall_s.max(1e-9)
            );
            let _ = writeln!(out, "          \"solver_calls\": {},", m.solver_calls);
            let _ = writeln!(out, "          \"conflicts\": {},", m.conflicts);
            let _ = writeln!(out, "          \"exported\": {},", m.exported);
            let _ = writeln!(out, "          \"imported\": {},", m.imported);
            let _ = writeln!(out, "          \"kept\": {},", m.kept);
            let _ = writeln!(out, "          \"lint_rejected\": {}", m.lint_rejected);
            let _ = write!(out, "        }}");
            out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"speedup_at_max_threads\": {speedup_at_max:.3}");
        let _ = write!(out, "    }}");
        out.push_str(if ri + 1 < regimes.len() { ",\n" } else { "\n" });
    }
    // The headline gate: ≥1.5× wall clock at the top thread count on at
    // least one regime. Racing workers burn a core each, so the gate is
    // only physical when the host has a core per worker — on fewer cores
    // the workers time-slice one CPU and wall clock *must* lose; there the
    // algorithmic signal (fewer caller conflicts to the same optimum,
    // clauses kept from the pool) is recorded instead and the gate is
    // marked skipped rather than silently passed.
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let gate = if smoke {
        "not applicable (smoke)".to_owned()
    } else if cores >= max_threads {
        assert!(
            best_speedup >= 1.5,
            "no regime reached 1.5x at {max_threads} threads on a \
             {cores}-core host (best {best_speedup:.2}x)"
        );
        format!("passed ({best_speedup:.2}x at {max_threads} threads)")
    } else {
        eprintln!(
            "note: {max_threads} racing threads on {cores} core(s) \
             time-slice one CPU; skipping the wall-clock speedup gate"
        );
        format!("skipped ({cores} core(s) for {max_threads} threads)")
    };
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"best_speedup\": {best_speedup:.3},");
    let _ = writeln!(out, "  \"speedup_gate\": \"{gate}\"");
    out.push_str("}\n");

    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path} (best speedup {best_speedup:.2}x)");
    if let (Some(path), Some(content)) = (trace_path, trace) {
        std::fs::write(&path, content).expect("write portfolio trace");
        eprintln!("wrote {path}");
    }
}
