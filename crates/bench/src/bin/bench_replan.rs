//! Online-replanning sweep: warm-started streaming sessions vs cold
//! re-solves over deterministic delta traces across corpus families.
//!
//! Writes machine-readable results to `BENCH_replan.json`. Every corpus
//! family contributes one Small instance driven through a fixed trace of
//! scenario deltas (deadline edits that preserve the scenario core, plus
//! a close/reopen excursion that invalidates and then restores it); each
//! tick is solved twice:
//!
//! * **warm** — one [`etcs_replan::ReplanSession`] carried across the
//!   whole trace, answering from cached cores where the delta allows;
//! * **cold** — a fresh [`etcs_core::optimize_incremental`] of the same
//!   patched scenario, as a baseline dispatcher would.
//!
//! Every tick is also a differential check — warm and cold must agree on
//! verdict and proven optima — and the harness asserts the aggregate
//! conflict count of the warm path undercuts the cold path before writing
//! the artifact (the whole point of warm starts). The host's
//! `available_parallelism` is recorded next to the wall times.
//!
//! Usage: `bench_replan [--smoke] [--out <path>]`
//!
//! `--smoke` sweeps two families with a short trace (what `ci/check.sh`
//! runs in release mode); the default sweeps all five families behind the
//! checked-in artifact.

use std::fmt::Write as _;
use std::time::Instant;

use etcs_core::{optimize_incremental, DesignOutcome, EncoderConfig};
use etcs_corpus::{Family, InstanceSpec, SizeClass};
use etcs_network::{fixtures, Scenario};
use etcs_replan::{ReplanConfig, ReplanSession, ScenarioDelta};

/// One tick measured both ways.
struct TickSample {
    /// The delta class that preceded the tick (`baseline` for the first).
    kind: &'static str,
    warm_wall_ms: f64,
    warm_conflicts: u64,
    warm_hit: bool,
    cold_wall_ms: f64,
    cold_conflicts: u64,
}

/// The deterministic trace for one scenario: `(kind, deltas-before-tick)`.
/// Deadline edits pin two trains to the horizon (always satisfiable on a
/// solvable instance) and then free one again; the topology excursion
/// closes the first cleanly-closable track and reopens it.
fn trace_for(scenario: &Scenario, smoke: bool) -> Vec<(&'static str, Vec<ScenarioDelta>)> {
    let trains: Vec<String> = scenario
        .schedule
        .runs()
        .iter()
        .map(|r| r.train.name.clone())
        .collect();
    let horizon = scenario.horizon;
    let mut trace: Vec<(&'static str, Vec<ScenarioDelta>)> = vec![("baseline", vec![])];
    for train in trains.iter().take(2) {
        trace.push((
            "deadline",
            vec![ScenarioDelta::Deadline {
                train: train.clone(),
                arrival: Some(horizon),
            }],
        ));
    }
    trace.push((
        "deadline",
        vec![ScenarioDelta::Deadline {
            train: trains[0].clone(),
            arrival: None,
        }],
    ));
    if !smoke {
        // Close/reopen: a cold fallback, then an LRU re-hit of the
        // original core. Which track closes cleanly is scenario-specific,
        // so the session decides at run time (see `run_trace`).
        trace.push((
            "topology",
            vec![ScenarioDelta::Close {
                track: String::new(),
            }],
        ));
        trace.push((
            "topology",
            vec![ScenarioDelta::Reopen {
                track: String::new(),
            }],
        ));
    }
    trace
}

fn cold_solve(scenario: &Scenario) -> (Option<Vec<u64>>, u64, f64) {
    let t = Instant::now();
    let (outcome, report) =
        optimize_incremental(scenario, &EncoderConfig::default()).expect("valid instance");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let costs = match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs),
        DesignOutcome::Infeasible => None,
    };
    (costs, report.search.conflicts, wall_ms)
}

fn run_trace(scenario: Scenario, smoke: bool) -> (Vec<TickSample>, etcs_replan::ReplanStats) {
    let trace = trace_for(&scenario, smoke);
    let mut session =
        ReplanSession::new(scenario, ReplanConfig::default()).expect("valid corpus instance");
    // Resolved lazily once the session knows which track closes cleanly.
    let mut closed_track: Option<String> = None;
    let mut samples = Vec::new();
    for (kind, deltas) in trace {
        let mut skip_tick = false;
        for delta in deltas {
            let delta = match delta {
                ScenarioDelta::Close { .. } => {
                    let names: Vec<String> = session
                        .current()
                        .network
                        .tracks()
                        .iter()
                        .map(|t| t.name.clone())
                        .collect();
                    match names.into_iter().find(|name| {
                        session
                            .apply(&ScenarioDelta::Close {
                                track: name.clone(),
                            })
                            .is_ok()
                    }) {
                        Some(name) => {
                            closed_track = Some(name);
                            continue; // already applied by the probe
                        }
                        None => {
                            skip_tick = true;
                            continue; // nothing closes cleanly here
                        }
                    }
                }
                ScenarioDelta::Reopen { .. } => match closed_track.take() {
                    Some(track) => ScenarioDelta::Reopen { track },
                    None => {
                        skip_tick = true;
                        continue;
                    }
                },
                other => other,
            };
            session.apply(&delta).expect("trace deltas are valid");
        }
        if skip_tick {
            continue;
        }
        let t = Instant::now();
        let report = session.tick();
        let warm_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(!report.stale, "un-budgeted ticks never go stale");
        let (cold_costs, cold_conflicts, cold_wall_ms) = cold_solve(session.current());
        // The differential gate: the warm session must report exactly the
        // cold verdict and optima for the patched scenario.
        assert_eq!(
            report.feasible,
            cold_costs.is_some(),
            "verdict diverged on a {kind} tick"
        );
        if let Some(costs) = &cold_costs {
            assert_eq!(&report.costs, costs, "optima diverged on a {kind} tick");
        }
        samples.push(TickSample {
            kind,
            warm_wall_ms,
            warm_conflicts: report.conflicts,
            warm_hit: report.warm,
            cold_wall_ms,
            cold_conflicts,
        });
    }
    (samples, session.stats())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_replan.json".to_owned());

    let families: &[Family] = if smoke {
        &[Family::GridLadder, Family::ConvoyChain]
    } else {
        &Family::ALL
    };
    // The running example leads the sweep: it is the one scenario with a
    // cleanly-closable parallel track, so it exercises the close/reopen
    // excursion (cold fallback, then an LRU re-hit of the cached core);
    // the corpus Smalls reject closures (every track is load-bearing) and
    // contribute the deadline-delta regime.
    let mut scenarios: Vec<Scenario> = vec![fixtures::running_example()];
    scenarios.extend(
        families
            .iter()
            .map(|&family| InstanceSpec::new(family, SizeClass::Small, 0).build()),
    );
    eprintln!(
        "== replan sweep: {} scenarios, warm session vs cold re-solve per tick ==",
        scenarios.len()
    );

    let mut rows = String::new();
    let (mut total_ticks, mut total_agree) = (0u64, 0u64);
    let (mut total_warm_conflicts, mut total_cold_conflicts) = (0u64, 0u64);
    let (mut total_warm_ms, mut total_cold_ms) = (0f64, 0f64);
    let count = scenarios.len();
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let name = scenario.name.clone();
        let trains = scenario.schedule.runs().len();
        let (samples, stats) = run_trace(scenario, smoke);
        let _ = writeln!(rows, "    {{");
        let _ = writeln!(rows, "      \"scenario\": \"{name}\",");
        let _ = writeln!(rows, "      \"trains\": {trains},");
        let _ = writeln!(rows, "      \"ticks\": {},", samples.len());
        let _ = writeln!(
            rows,
            "      \"session\": {{\"warm_hits\": {}, \"cold_fallbacks\": {}, \
             \"deadline_misses\": {}, \"deltas\": {}}},",
            stats.warm_hits, stats.cold_fallbacks, stats.deadline_misses, stats.deltas
        );
        let _ = writeln!(rows, "      \"by_kind\": [");
        let kinds = ["baseline", "deadline", "topology"];
        let present: Vec<&str> = kinds
            .into_iter()
            .filter(|k| samples.iter().any(|s| s.kind == *k))
            .collect();
        for (ki, kind) in present.iter().enumerate() {
            let of_kind: Vec<&TickSample> = samples.iter().filter(|s| s.kind == *kind).collect();
            let warm_ms: f64 = of_kind.iter().map(|s| s.warm_wall_ms).sum();
            let cold_ms: f64 = of_kind.iter().map(|s| s.cold_wall_ms).sum();
            let warm_conflicts: u64 = of_kind.iter().map(|s| s.warm_conflicts).sum();
            let cold_conflicts: u64 = of_kind.iter().map(|s| s.cold_conflicts).sum();
            let warm_hits = of_kind.iter().filter(|s| s.warm_hit).count();
            let _ = write!(
                rows,
                "        {{\"kind\": \"{kind}\", \"ticks\": {}, \"warm_hits\": {warm_hits}, \
                 \"warm\": {{\"wall_ms\": {warm_ms:.2}, \"conflicts\": {warm_conflicts}}}, \
                 \"cold\": {{\"wall_ms\": {cold_ms:.2}, \"conflicts\": {cold_conflicts}}}}}",
                of_kind.len()
            );
            rows.push_str(if ki + 1 < present.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(rows, "      ]");
        let _ = write!(rows, "    }}");
        rows.push_str(if i + 1 < count { ",\n" } else { "\n" });
        total_ticks += samples.len() as u64;
        total_agree += samples.len() as u64;
        total_warm_conflicts += samples.iter().map(|s| s.warm_conflicts).sum::<u64>();
        total_cold_conflicts += samples.iter().map(|s| s.cold_conflicts).sum::<u64>();
        total_warm_ms += samples.iter().map(|s| s.warm_wall_ms).sum::<f64>();
        total_cold_ms += samples.iter().map(|s| s.cold_wall_ms).sum::<f64>();
        eprintln!(
            "  [{}/{}] {name}: {} ticks, warm {} vs cold {} conflicts",
            i + 1,
            count,
            samples.len(),
            samples.iter().map(|s| s.warm_conflicts).sum::<u64>(),
            samples.iter().map(|s| s.cold_conflicts).sum::<u64>(),
        );
    }

    // The acceptance gate: across the sweep, the warm sessions must beat
    // cold re-solving on total conflicts (each trace has warm ticks whose
    // learnt state the cold path rebuilds from nothing every time).
    let warm_wins = total_warm_conflicts < total_cold_conflicts;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"replan\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "standard" }
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"scenarios\": [");
    out.push_str(&rows);
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"ticks\": {total_ticks},");
    let _ = writeln!(out, "    \"agreements\": {total_agree},");
    let _ = writeln!(
        out,
        "    \"warm\": {{\"wall_ms\": {total_warm_ms:.2}, \"conflicts\": {total_warm_conflicts}}},"
    );
    let _ = writeln!(
        out,
        "    \"cold\": {{\"wall_ms\": {total_cold_ms:.2}, \"conflicts\": {total_cold_conflicts}}}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"warm_wins\": {warm_wins}");
    out.push_str("}\n");

    assert!(
        warm_wins,
        "warm sessions did not beat cold re-solves: {total_warm_conflicts} vs {total_cold_conflicts} conflicts"
    );
    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
