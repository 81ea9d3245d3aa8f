//! `benchmark` — one seeded, closed-loop benchmark of the ETCS Level 3
//! design service, the online replanner and the shard wire path.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark --smoke
//! benchmark --compare A.json B.json
//! ```
//!
//! Workloads: `design_encode`, `design_search`, `replan_churn`,
//! `replica_mix`. See README.md for the metrics, the workloads and the
//! protocol for claiming a gain.

mod alloc;
mod design;
mod fold;
mod inputs;
mod replan;
mod replica;
mod report;
mod run;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use design::{Design, Encode, Search};
use run::Outcome;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "design_encode",
    "design_search",
    "replan_churn",
    "replica_mix",
];

/// Measured seconds per workload in `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match name {
        "design_encode" => run::run::<Design<Encode>>(seed, seconds, trace),
        "design_search" => run::run::<Design<Search>>(seed, seconds, trace),
        "replan_churn" => run::run::<replan::Replan>(seed, seconds, trace),
        "replica_mix" => run::run::<replica::Replica>(seed, seconds, trace),
        _ => return None,
    })
}

/// Adds the `outputs_digest` check on the default seed; returns whether
/// the run's outputs are all correct.
fn judge(workload: &str, seed: u64, outcome: &mut Outcome) -> bool {
    let expected = report::Expected::load();
    if seed == expected.default_seed && outcome.prefix_done == outcome.prefix {
        if let Some(want) = expected.digest(workload) {
            if want != outcome.outputs_digest {
                outcome.failed += 1;
                outcome.failures.push(format!(
                    "outputs_digest {} differs from the recorded {want}",
                    outcome.outputs_digest
                ));
            }
        }
    }
    for failure in &outcome.failures {
        eprintln!("benchmark: {workload}: {failure}");
    }
    outcome.failed == 0
}

/// Pins the process to the last CPU it may run on, before any thread
/// starts, so every thread it spawns inherits the pin. With one
/// closed-loop client and one worker at most one thread is runnable at a
/// time, and hand-offs on one CPU avoid cross-CPU wake-ups, whose cost on
/// a shared host depends on the neighbouring tenants (see README.md).
fn pin_to_one_cpu() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpu = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next())
        .map(str::to_owned);
    let pinned = cpu.as_ref().is_some_and(|cpu| {
        Command::new("taskset")
            .args(["-p", "-c", cpu, &std::process::id().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    });
    if !pinned {
        eprintln!("benchmark: could not pin to one CPU; measuring unpinned");
    }
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn usage() -> ExitCode {
    let seeds = report::Expected::load();
    eprintln!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         benchmark --smoke\n       benchmark --compare A.json B.json\n\
         workloads: {}; default seed {}, holdout seed {}",
        WORKLOADS.join(", "),
        seeds.default_seed,
        seeds.holdout_seed
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let result =
            read("BENCHMARK.json").and_then(|bench| report::compare(&bench, &read(a)?, &read(b)?));
        return match result {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    pin_to_one_cpu();
    if args.first().map(String::as_str) == Some("--smoke") {
        let seed = report::Expected::load().default_seed;
        let mut ok = true;
        for workload in WORKLOADS {
            let mut outcome =
                run_workload(workload, seed, SMOKE_SECONDS, true).expect("known workload");
            let correct = judge(workload, seed, &mut outcome);
            println!(
                "smoke {workload}: {} requests, {} failed, {}",
                outcome.attempted,
                outcome.failed,
                if correct { "ok" } else { "FAILED" }
            );
            ok &= correct;
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let workload = value(&args, "--workload");
    let seed = value(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = value(&args, "--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0);
    let trace = match value(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage();
    };
    let Some(mut outcome) = run_workload(workload, seed, seconds, trace) else {
        return usage();
    };
    let correct = judge(workload, seed, &mut outcome);
    report::print(workload, seed, &outcome, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
