//! The observability contract, end to end: a traced run's event stream
//! must tell the same story as the `Stats`/`TaskReport` figures the
//! benchmarks record, the span vocabulary must stay stable (it is
//! documented in DESIGN.md §10 and asserted again by `ci/check.sh`), and
//! tracing must not change any answer.

use std::time::Duration;

use etcs::obs::{EventKind, Obs, Value};
use etcs::prelude::*;
use etcs::sat::Interrupt;
use etcs::TaskError;

/// A [`Run`] recording into `obs`, with no interrupt.
fn traced(obs: &Obs) -> Run {
    Run {
        obs: obs.clone(),
        ..Run::default()
    }
}

fn costs(outcome: &DesignOutcome) -> Option<&[u64]> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs),
        DesignOutcome::Infeasible => None,
    }
}

#[test]
fn traced_optimize_event_stream_agrees_with_stats() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let (obs, sink) = Obs::memory();

    let (outcome, report) =
        run(&scenario, &TaskKind::Optimize, &config, &traced(&obs)).expect("well-formed");
    let (baseline, _) = optimize(&scenario, &config).expect("well-formed");
    assert_eq!(
        costs(&baseline),
        costs(&outcome),
        "tracing changed the answer"
    );

    let events = sink.events();
    let task_close = events
        .iter()
        .find(|e| e.kind == EventKind::SpanClose && e.name == "task.optimize")
        .expect("task span closes");
    let task_id = task_close.span;

    // Probe spans: one per Stage-1 deadline candidate, all children of the
    // task span, and their count matches both the close field and the
    // metrics counter.
    let probe_closes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "probe" && e.parent == task_id)
        .collect();
    assert!(!probe_closes.is_empty());
    assert_eq!(
        task_close.field_u64("probes"),
        Some(probe_closes.len() as u64)
    );
    assert_eq!(
        obs.metrics().counter("probes"),
        probe_closes.len() as u64,
        "probes counter disagrees with the span stream"
    );

    // Conflict totals: the task close field, the metrics counter, and the
    // per-probe/stage2 breakdown must all equal Stats.conflicts.
    assert_eq!(
        task_close.field_u64("conflicts"),
        Some(report.search.conflicts)
    );
    assert_eq!(obs.metrics().counter("conflicts"), report.search.conflicts);
    let breakdown: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && (e.name == "probe" || e.name == "stage2"))
        .filter_map(|e| e.field_u64("conflicts"))
        .sum();
    assert_eq!(
        breakdown, report.search.conflicts,
        "per-span conflicts must sum to the total"
    );

    // The solved figures mirror the outcome.
    let c = costs(&outcome).expect("running example solves");
    assert_eq!(task_close.field_u64("deadline"), Some(c[0] - 1));
    assert_eq!(task_close.field_u64("borders"), Some(c[1]));
    assert_eq!(
        task_close.field_u64("solver_calls"),
        Some(report.solver_calls as u64)
    );

    // Exactly one sat.solve span per solver call.
    let solves = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "sat.solve")
        .count();
    assert_eq!(solves, report.solver_calls);
}

#[test]
fn traced_incremental_probe_deltas_sum_to_stats() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let (obs, sink) = Obs::memory();
    let (outcome, report) = run(
        &scenario,
        &TaskKind::OptimizeIncremental,
        &config,
        &traced(&obs),
    )
    .expect("well-formed");
    let (baseline, _) = optimize(&scenario, &config).expect("well-formed");
    assert_eq!(
        costs(&baseline),
        costs(&outcome),
        "tracing changed the answer"
    );

    // On the persistent solver the probe events carry per-call deltas;
    // together with the stage2 delta they must reconstruct the cumulative
    // Stats of the one long-lived solver.
    let events = sink.events();
    let deltas: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && (e.name == "probe" || e.name == "stage2"))
        .filter_map(|e| e.field_u64("conflicts"))
        .sum();
    assert_eq!(deltas, report.search.conflicts);
    assert_eq!(obs.metrics().counter("conflicts"), report.search.conflicts);
}

#[test]
fn traced_verify_mirrors_its_outcome() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let (obs, sink) = Obs::memory();
    let task = TaskKind::Verify(VssLayout::pure_ttd());
    let (outcome, report) = run(&scenario, &task, &config, &traced(&obs)).expect("well-formed");
    assert!(!outcome.is_feasible(), "paper: pure TTD deadlocks");
    let close = sink
        .events()
        .into_iter()
        .rfind(|e| e.kind == EventKind::SpanClose && e.name == "task.verify")
        .expect("task span closes");
    assert_eq!(close.field("feasible"), Some(&Value::Bool(false)));
    assert_eq!(close.field_u64("conflicts"), Some(report.search.conflicts));
}

/// An interrupted task still did work, and the `conflicts` counter must
/// say so: it equals the `sat.solve` spans' total on every path, not only
/// when the task finishes. Checked for the eager and the lazy driver.
#[test]
fn interrupted_verify_still_counts_its_conflicts() {
    // Refuting pure TTD on Simple Layout takes about 85k conflicts eagerly
    // and over 100k lazily, far more than fit into the deadline.
    let scenario = fixtures::simple_layout();
    let task = TaskKind::Verify(VssLayout::pure_ttd());
    let config = EncoderConfig::default();
    for span_name in ["task.verify", "task.verify_lazy"] {
        let (obs, sink) = Obs::memory();
        let deadline = Run {
            obs: obs.clone(),
            interrupt: Interrupt::with_deadline(Duration::from_millis(1500)),
        };
        let result = if span_name == "task.verify" {
            run(&scenario, &task, &config, &deadline).map(|_| ())
        } else {
            etcs::lazy::run(&scenario, &task, &config, &deadline).map(|_| ())
        };
        assert_eq!(
            result.err(),
            Some(TaskError::DeadlineExceeded),
            "{span_name}"
        );

        let events = sink.events();
        let solved: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose && e.name == "sat.solve")
            .filter_map(|e| e.field_u64("conflicts"))
            .sum();
        let counted = obs.metrics().counter("conflicts");
        assert!(counted > 0, "{span_name}: the interrupted search did work");
        assert_eq!(counted, solved, "{span_name}: counter vs sat.solve spans");
        let close = events
            .iter()
            .rfind(|e| e.kind == EventKind::SpanClose && e.name == span_name)
            .expect("task span closes");
        assert_eq!(close.field("interrupted"), Some(&Value::Bool(true)));
    }
}

/// Diagnosis is a task like the others: its `conflicts` counter equals the
/// `sat.solve` spans' total, on a finished and on an interrupted run, and
/// its `task.diagnose` span mirrors the returned report.
#[test]
fn traced_diagnose_mirrors_its_report() {
    // Local 2 cannot make a stop deadline equal to its departure, so the
    // core-shrinking loop runs after the first solve.
    let base = include_str!("../scenarios/station_sidings.rail");
    let text = format!("{base}stop Local 2 : Middleton arr 0:01:00\n");
    let scenario = etcs::parse_scenario(&text).expect("valid");
    let (obs, sink) = Obs::memory();
    let layout = VssLayout::pure_ttd();
    let (d, report) =
        diagnose(&scenario, &layout, &EncoderConfig::default(), &traced(&obs)).expect("valid");
    assert!(d.is_conflict());
    assert!(report.solver_calls > 1, "the core was shrunk");

    let events = sink.events();
    let solves: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "sat.solve")
        .collect();
    assert_eq!(solves.len(), report.solver_calls);
    let solved: u64 = solves.iter().filter_map(|e| e.field_u64("conflicts")).sum();
    assert_eq!(solved, report.search.conflicts);
    assert_eq!(obs.metrics().counter("conflicts"), solved);
    let close = events
        .iter()
        .rfind(|e| e.kind == EventKind::SpanClose && e.name == "task.diagnose")
        .expect("task span closes");
    assert_eq!(close.field("feasible"), Some(&Value::Bool(false)));
    assert_eq!(close.field_u64("trains"), Some(1));
    assert_eq!(
        close.field_u64("solver_calls"),
        Some(report.solver_calls as u64)
    );
    assert_eq!(close.field_u64("conflicts"), Some(report.search.conflicts));

    // Refuting pure TTD on Simple Layout takes far longer than the
    // deadline; the interrupted search still counts its conflicts.
    let (obs, sink) = Obs::memory();
    let deadline = Run {
        obs: obs.clone(),
        interrupt: Interrupt::with_deadline(Duration::from_millis(1500)),
    };
    let result = diagnose(
        &fixtures::simple_layout(),
        &layout,
        &EncoderConfig::default(),
        &deadline,
    );
    assert_eq!(result.err(), Some(TaskError::DeadlineExceeded));
    let solved: u64 = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "sat.solve")
        .filter_map(|e| e.field_u64("conflicts"))
        .sum();
    let counted = obs.metrics().counter("conflicts");
    assert!(counted > 0, "the interrupted search did work");
    assert_eq!(counted, solved);
}

#[test]
fn jsonl_trace_artifact_replays_the_documented_schema() {
    let path = std::env::temp_dir().join("etcs_obs_trace_it.jsonl");
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    {
        let obs = Obs::jsonl(&path).expect("create trace");
        let (outcome, _) =
            run(&scenario, &TaskKind::Optimize, &config, &traced(&obs)).expect("well-formed");
        assert!(costs(&outcome).is_some());
        obs.flush_metrics();
        obs.flush();
    }
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let mut seen_names = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let v = etcs::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e}", i + 1));
        let seq = v.get("seq").and_then(etcs::obs::json::Json::as_f64);
        assert_eq!(
            seq,
            Some(i as f64),
            "seq numbers are gap-free in file order"
        );
        if let Some(name) = v.get("name").and_then(etcs::obs::json::Json::as_str) {
            seen_names.insert(name.to_owned());
        }
    }
    for expected in ["task.optimize", "encode", "probe", "stage2", "sat.solve"] {
        assert!(
            seen_names.contains(expected),
            "trace lacks documented span name {expected:?}; saw {seen_names:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The replanning stats-vs-trace invariant: a [`ReplanSession`]'s
/// lifetime counters, its `replan.*` metrics and its span stream must
/// all tell the same story — for the shipped exemplar trace, not a toy.
/// This is the session-level half of the contract whose service-level
/// half (the `served` stats record) is pinned in `crates/fleet/tests`.
#[test]
fn replan_session_trace_agrees_with_its_stats() {
    use etcs::replan::{parse_trace, ReplanConfig, ReplanSession, ScenarioDelta, TraceOp};

    let (obs, sink) = Obs::memory();
    let mut session =
        ReplanSession::new_obs(fixtures::running_example(), ReplanConfig::default(), &obs)
            .expect("base scenario is valid");
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/replay/running_example.delta"
    ))
    .expect("exemplar ships with the repo");
    let (mut reported_conflicts, mut reported_calls) = (0, 0);
    for op in &parse_trace(&text).expect("exemplar parses") {
        match op {
            TraceOp::Delta(d) => session.apply(d).expect("exemplar deltas apply"),
            TraceOp::Tick => {
                let r = session.tick();
                reported_conflicts += r.conflicts;
                reported_calls += r.solver_calls;
            }
        }
    }
    // One rejected delta, so that counter is exercised too.
    session
        .apply(&ScenarioDelta::Remove {
            train: "ghost".into(),
        })
        .expect_err("unknown train is rejected");

    // The ledger invariant: every tick is warm or cold, none missed
    // (the session runs without a tick budget).
    let stats = session.stats();
    assert_eq!(stats.ticks, stats.warm_hits + stats.cold_fallbacks);
    assert_eq!(stats.deadline_misses, 0);
    assert!(stats.warm_hits > 0 && stats.cold_fallbacks > 0);

    // Span stream vs stats: one open, one tick close per tick, warm and
    // stale fields consistent with the counters.
    let events = sink.events();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose && e.name == "replan.open")
            .count(),
        1
    );
    let tick_closes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "replan.tick")
        .collect();
    assert_eq!(tick_closes.len() as u64, stats.ticks);
    let warm = tick_closes
        .iter()
        .filter(|e| e.field("warm") == Some(&Value::Bool(true)))
        .count();
    assert_eq!(warm as u64, stats.warm_hits, "warm fields vs warm_hits");
    assert!(
        tick_closes
            .iter()
            .all(|e| e.field("stale") == Some(&Value::Bool(false))),
        "no budget, no staleness"
    );

    // Per-tick conflicts fields sum to the TickReports' sum and to the
    // shared `conflicts` counter the solver spans feed.
    let span_conflicts: u64 = tick_closes
        .iter()
        .filter_map(|e| e.field_u64("conflicts"))
        .sum();
    assert_eq!(span_conflicts, reported_conflicts);
    assert_eq!(obs.metrics().counter("conflicts"), reported_conflicts);

    // Per-tick solver_calls fields sum to the TickReports' sum, and every
    // call is one `sat.solve` span.
    let span_calls: u64 = tick_closes
        .iter()
        .filter_map(|e| e.field_u64("solver_calls"))
        .sum();
    assert_eq!(span_calls, reported_calls as u64);
    let solves = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "sat.solve")
        .count();
    assert_eq!(solves, reported_calls, "one sat.solve span per solver call");

    // A tick served from its core's stored answer solves nothing: no
    // `encode`, `probe` or `stage2` span opens while it is open (spans
    // nest by interval; `stage2` carries no parent link).
    let answered: Vec<_> = tick_closes
        .iter()
        .filter(|e| e.field("answered") == Some(&Value::Bool(true)))
        .collect();
    assert!(
        !answered.is_empty(),
        "the exemplar's warm ticks are answered"
    );
    for close in &answered {
        assert_eq!(close.field_u64("solver_calls"), Some(0), "{close:?}");
        let open = events
            .iter()
            .find(|e| e.kind == EventKind::SpanOpen && e.span == close.span)
            .expect("every closed span was opened");
        assert!(
            !events.iter().any(|e| e.kind == EventKind::SpanOpen
                && ["encode", "probe", "stage2"].contains(&e.name)
                && open.seq < e.seq
                && e.seq < close.seq),
            "an answered tick encoded, probed or ran stage 2: {close:?}"
        );
    }

    // Stage 2 guesses the last fresh answer's border count, so only the
    // first tick's stage 2 runs without a guess.
    let guesses: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "stage2")
        .map(|e| e.field_u64("guess"))
        .collect();
    assert!(guesses.len() > 1, "{guesses:?}");
    assert!(guesses[0].is_none(), "{guesses:?}");
    assert!(guesses[1..].iter().all(Option::is_some), "{guesses:?}");

    // Every probe span is a child of some replan.tick span: the warm
    // solver's search is attributed to the tick that ran it.
    let tick_ids: std::collections::BTreeSet<_> = tick_closes.iter().map(|e| e.span).collect();
    let probes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "probe")
        .collect();
    assert!(!probes.is_empty());
    assert!(probes.iter().all(|e| tick_ids.contains(&e.parent)));

    // Each probe encodes its deadline's tight cone under one `encode`
    // child carrying the formula size, unless it resumes the encoding an
    // interrupted tick left behind. No tick here missed its budget, so
    // every probe built a fresh one: one `encode` per probe, each under a
    // `probe` under a `replan.tick`.
    let probe_ticks: std::collections::BTreeMap<_, _> =
        probes.iter().map(|e| (e.span, e.parent)).collect();
    let encodes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "encode")
        .collect();
    assert_eq!(encodes.len(), probes.len(), "one encode per fresh probe");
    let encode_parents: std::collections::BTreeSet<_> = encodes.iter().map(|e| e.parent).collect();
    assert_eq!(encode_parents.len(), probes.len(), "one encode per probe");
    for e in &encodes {
        let tick = probe_ticks.get(&e.parent);
        assert!(
            tick.is_some_and(|t| tick_ids.contains(t)),
            "an encode outside a tick's probe: {e:?}"
        );
        assert!(e.field_u64("vars").is_some_and(|v| v > 0), "{e:?}");
        assert!(e.field_u64("clauses").is_some_and(|c| c > 0), "{e:?}");
    }

    // Delta spans: one per apply() call, accepted mirroring the split.
    let delta_closes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "replan.delta")
        .collect();
    assert_eq!(
        delta_closes.len() as u64,
        stats.deltas + stats.rejected_deltas
    );
    let accepted = delta_closes
        .iter()
        .filter(|e| e.field("accepted") == Some(&Value::Bool(true)))
        .count();
    assert_eq!(accepted as u64, stats.deltas);
    assert_eq!(stats.rejected_deltas, 1);

    // Metrics counters mirror ReplanStats field for field.
    let metrics = obs.metrics();
    for (name, want) in [
        ("replan.ticks", stats.ticks),
        ("replan.warm_hits", stats.warm_hits),
        ("replan.cold_fallbacks", stats.cold_fallbacks),
        ("replan.deadline_misses", stats.deadline_misses),
        ("replan.deltas", stats.deltas),
        ("replan.rejected_deltas", stats.rejected_deltas),
    ] {
        assert_eq!(metrics.counter(name), want, "counter {name}");
    }
}

#[test]
fn disabled_handle_changes_nothing_and_records_nothing() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let obs = Obs::disabled();
    let (untraced, _) =
        run(&scenario, &TaskKind::Optimize, &config, &traced(&obs)).expect("well-formed");
    let (plain, _) = optimize(&scenario, &config).expect("well-formed");
    assert_eq!(costs(&plain), costs(&untraced));
    assert!(obs.metrics().is_empty());
}
