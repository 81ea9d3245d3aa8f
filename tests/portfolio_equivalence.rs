//! Differential tests for `SolveMode::Portfolio`: a clause-sharing race
//! must change *how fast* an answer arrives, never *which* answer. On all
//! shipped fixtures and at every thread count in {1, 2, 4} the portfolio
//! verdicts must be identical to the single-threaded solves, every SAT
//! model must be re-checked by the eager validator (`etcs::sim`), and the
//! `optimize` optima must be bit-identical. Any unsoundness in the share
//! pool — an imported clause not implied by the formula, a lost sibling
//! cancellation, a worker racing on stale state — surfaces here as a
//! verdict flip, an inoperable plan, or a cost divergence.

use etcs::network::fixtures;
use etcs::prelude::*;

/// The thread counts the acceptance gate names. `Portfolio(1)` must behave
/// exactly like `Single` (a one-worker race is no race).
const THREADS: [usize; 3] = [1, 2, 4];

/// Thread counts for the per-fixture sweeps. On a single core every racing
/// worker multiplies the wall clock by roughly its thread count, so the big
/// Table I case studies (complex_layout, nordlandsbanen) skip the 4-thread
/// run — every thread count still meets every layout on the small fixtures,
/// and every fixture still meets a real race at 2 threads.
fn sweep_threads(scenario: &Scenario) -> &'static [usize] {
    match scenario.name.as_str() {
        "Complex Layout" | "Nordlandsbanen" => &[1, 2],
        _ => &THREADS,
    }
}

fn racing(threads: usize) -> EncoderConfig {
    EncoderConfig {
        solve_mode: SolveMode::Portfolio(threads),
        ..EncoderConfig::default()
    }
}

/// The full optimal cost vector (`[borders]` for generation,
/// `[deadline_steps, borders]` for optimisation), or `None` when
/// infeasible.
fn optimum(outcome: &DesignOutcome) -> Option<Vec<u64>> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs.clone()),
        DesignOutcome::Infeasible => None,
    }
}

#[test]
fn portfolio_verification_verdicts_match_single_threaded() {
    let config = EncoderConfig::default();
    for scenario in fixtures::all() {
        let inst = Instance::new(&scenario).expect("fixtures are valid");
        for layout in [VssLayout::pure_ttd(), VssLayout::full(&inst.net)] {
            let (single, _) = verify(&scenario, &layout, &config).expect("well-formed");
            for &threads in sweep_threads(&scenario) {
                let (raced, _) = verify(&scenario, &layout, &racing(threads)).expect("well-formed");
                assert_eq!(
                    single.is_feasible(),
                    raced.is_feasible(),
                    "{}: verify verdict diverged at {threads} threads",
                    scenario.name
                );
                // Any model a race returns must be operable: the winning
                // worker may differ from the sequential search, so its plan
                // is re-checked by the independent validator rather than
                // compared bit-for-bit.
                if let Some(plan) = raced.plan() {
                    let report = etcs::sim::validate(&inst, plan, true);
                    assert!(
                        report.is_valid(),
                        "{}: portfolio plan at {threads} threads is inoperable: {report}",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn portfolio_generation_verdicts_and_costs_match_single_threaded() {
    let config = EncoderConfig::default();
    for scenario in fixtures::all() {
        let inst = Instance::new(&scenario).expect("fixtures are valid");
        let (single, _) = generate(&scenario, &config).expect("well-formed");
        for &threads in sweep_threads(&scenario) {
            let (raced, _) = generate(&scenario, &racing(threads)).expect("well-formed");
            assert_eq!(
                optimum(&single),
                optimum(&raced),
                "{}: generate optimum diverged at {threads} threads",
                scenario.name
            );
            if let Some(plan) = raced.plan() {
                let report = etcs::sim::validate(&inst, plan, true);
                assert!(
                    report.is_valid(),
                    "{}: generated portfolio plan at {threads} threads is inoperable: {report}",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn portfolio_optimisation_optima_are_bit_identical() {
    let config = EncoderConfig::default();
    for scenario in fixtures::all() {
        // Optimisation ignores arrival deadlines; validate against the
        // deadline-free instance with deadline enforcement off, exactly as
        // the benchmark harness does.
        let open_inst = Instance::new(&scenario.without_arrivals()).expect("fixtures are valid");
        let (single, _) = optimize(&scenario, &config).expect("well-formed");
        for &threads in sweep_threads(&scenario) {
            let (raced, _) = optimize(&scenario, &racing(threads)).expect("well-formed");
            assert_eq!(
                optimum(&single),
                optimum(&raced),
                "{}: optimize optimum diverged at {threads} threads",
                scenario.name
            );
            if let Some(plan) = raced.plan() {
                let report = etcs::sim::validate(&open_inst, plan, false);
                assert!(
                    report.is_valid(),
                    "{}: optimised portfolio plan at {threads} threads is inoperable: {report}",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn portfolio_incremental_optimisation_reuses_interrupted_workers() {
    // The incremental loop issues many `solve_with` calls on one long-lived
    // solver; in portfolio mode every one of those calls is a race whose
    // losers are cancelled mid-search. The loop only reaches the right
    // optimum if cancellation leaves the caller's state reusable, so this
    // is the end-to-end form of the "state intact after a race" guarantee.
    let config = EncoderConfig::default();
    let scenario = fixtures::running_example();
    let (single, _) = optimize_incremental(&scenario, &config).expect("well-formed");
    for threads in THREADS {
        let (raced, _) = optimize_incremental(&scenario, &racing(threads)).expect("well-formed");
        assert_eq!(
            optimum(&single),
            optimum(&raced),
            "incremental optimum diverged at {threads} threads"
        );
    }
}

#[test]
fn portfolio_lazy_loops_agree_with_their_single_threaded_selves() {
    // The CEGAR relaxation solves are the portfolio's hot path in the lazy
    // loops; the refiner must stay sound when its counterexamples come from
    // whichever worker happened to win.
    use etcs::lazy::SelectionStrategy;
    let config = EncoderConfig::default();
    let scenario = fixtures::running_example();
    let lazy = |task: &TaskKind, config: &EncoderConfig| {
        let strategy = SelectionStrategy::AllViolated;
        etcs::lazy::run(&scenario, task, config, &Run::default(), strategy).expect("well-formed")
    };
    let inst = Instance::new(&scenario).expect("fixtures are valid");
    for layout in [VssLayout::pure_ttd(), VssLayout::full(&inst.net)] {
        let task = TaskKind::Verify(layout);
        let (single, _) = lazy(&task, &config);
        for threads in THREADS {
            let (raced, _) = lazy(&task, &racing(threads));
            assert_eq!(
                single.is_feasible(),
                raced.is_feasible(),
                "lazy verify verdict diverged at {threads} threads"
            );
        }
    }
}
