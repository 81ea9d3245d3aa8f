//! End-to-end contract of the lazy task loops: bit-identical verdicts and
//! optima against the eager tasks, a stable obs vocabulary, and working
//! cancellation.

use etcs_core::{
    generate, optimize_incremental, verify, DesignOutcome, EncoderConfig, Run, TaskError, TaskKind,
};
use etcs_lazy::LazyReport;
use etcs_network::{fixtures, Scenario, VssLayout};
use etcs_obs::{EventKind, Obs};
use etcs_sat::Interrupt;

/// [`etcs_lazy::run`] untraced and uninterruptible.
fn lazy(scenario: &Scenario, task: TaskKind) -> (DesignOutcome, LazyReport) {
    let config = EncoderConfig::default();
    etcs_lazy::run(scenario, &task, &config, &Run::default()).expect("well-formed")
}

fn costs(outcome: &DesignOutcome) -> Option<&[u64]> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs),
        DesignOutcome::Infeasible => None,
    }
}

#[test]
fn lazy_verification_matches_eager_on_running_example() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();

    // Pure TTD deadlocks (the paper's Example 2) under both paths …
    let (eager, _) = verify(&scenario, &VssLayout::pure_ttd(), &config).expect("well-formed");
    let (outcome, report) = lazy(&scenario, TaskKind::Verify(VssLayout::pure_ttd()));
    assert_eq!(eager.is_feasible(), outcome.is_feasible());
    assert!(report.rounds >= 1);

    // … and the generated layout works under both.
    let (designed, _) = generate(&scenario, &config).expect("well-formed");
    let layout = &designed.plan().expect("feasible").layout;
    let (eager, _) = verify(&scenario, layout, &config).expect("well-formed");
    let (outcome, report) = lazy(&scenario, TaskKind::Verify(layout.clone()));
    assert!(eager.is_feasible() && outcome.is_feasible());
    // The relaxation starts without any separation clauses, so at least
    // one refinement round must have fired on a two-train scenario.
    assert!(report.clauses_added >= 1, "expected refinement to happen");
    if let Some(plan) = outcome.plan() {
        assert_eq!(plan.layout, *layout, "layout is an input, not a choice");
    }
}

#[test]
fn lazy_generation_matches_eager_border_optimum() {
    for scenario in [fixtures::running_example(), fixtures::convoy()] {
        let config = EncoderConfig::default();
        let (eager, _) = generate(&scenario, &config).expect("well-formed");
        let (outcome, report) = lazy(&scenario, TaskKind::Generate);
        assert_eq!(
            costs(&eager),
            costs(&outcome),
            "{}: lazy generation must find the same minimal border count",
            scenario.name
        );
        assert!(report.rounds >= 1);
    }
}

#[test]
fn lazy_optimization_matches_eager_optima() {
    for scenario in [fixtures::running_example(), fixtures::convoy()] {
        let config = EncoderConfig::default();
        let (eager, _) = optimize_incremental(&scenario, &config).expect("well-formed");
        let (outcome, report) = lazy(&scenario, TaskKind::OptimizeIncremental);
        assert_eq!(
            costs(&eager),
            costs(&outcome),
            "{}: lazy optimisation must find the same (deadline, borders)",
            scenario.name
        );
        assert!(report.rounds >= 1);
    }
}

#[test]
fn traced_lazy_run_emits_the_round_and_refine_vocabulary() {
    let scenario = fixtures::running_example();
    let config = EncoderConfig::default();
    let (designed, _) = generate(&scenario, &config).expect("well-formed");
    let layout = &designed.plan().expect("feasible").layout;
    let (obs, sink) = Obs::memory();
    let traced = Run {
        obs: obs.clone(),
        ..Run::default()
    };
    let task = TaskKind::Verify(layout.clone());
    let (outcome, report) =
        etcs_lazy::run(&scenario, &task, &config, &traced).expect("well-formed");
    assert!(outcome.is_feasible());

    let events = sink.events();
    let task_close = events
        .iter()
        .find(|e| e.kind == EventKind::SpanClose && e.name == "task.verify_lazy")
        .expect("task span closes");
    let rounds: Vec<_> = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::SpanClose && e.name == "lazy.round" && e.parent == task_close.span
        })
        .collect();
    assert_eq!(rounds.len(), report.rounds, "one round span per round");
    assert_eq!(task_close.field_u64("rounds"), Some(report.rounds as u64));
    assert_eq!(
        task_close.field_u64("clauses_added"),
        Some(report.clauses_added as u64)
    );

    let refine_closes: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.name == "lazy.refine")
        .collect();
    assert!(!refine_closes.is_empty(), "refinement must have fired");
    let clause_total: u64 = refine_closes
        .iter()
        .map(|e| e.field_u64("clauses").unwrap_or(0))
        .sum();
    assert_eq!(clause_total, report.clauses_added as u64);
    assert_eq!(obs.metrics().counter("lazy.rounds"), report.rounds as u64);
    assert_eq!(
        obs.metrics().counter("lazy.clauses_added"),
        report.clauses_added as u64
    );
}

#[test]
fn pre_fired_interrupt_cancels_the_lazy_loop() {
    let scenario = fixtures::running_example();
    let interrupt = Interrupt::new();
    interrupt.trigger();
    let cancelled = Run {
        interrupt,
        ..Run::default()
    };
    let err = etcs_lazy::run(
        &scenario,
        &TaskKind::OptimizeIncremental,
        &EncoderConfig::default(),
        &cancelled,
    )
    .expect_err("must cancel");
    assert_eq!(err, TaskError::Cancelled);
}
