//! Differential tests for the two eager optimisation loops: the
//! from-scratch walk-up ([`optimize`]) and the persistent incremental
//! solver ([`optimize_incremental`]) must agree **bit-identically** on the
//! optimal completion deadline and the minimal border count of every
//! fixture.
//! Witness plans may differ; each one must pass the independent simulator.

use etcs::prelude::*;
use etcs::sim;

fn config() -> EncoderConfig {
    EncoderConfig::default()
}

/// The optimal `(deadline_steps, borders)` pair of an outcome, or `None`
/// when infeasible.
fn optimum(outcome: &DesignOutcome) -> Option<(u64, u64)> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some((costs[0], costs[1])),
        DesignOutcome::Infeasible => None,
    }
}

/// Runs both loops on `scenario` and checks they agree; returns the
/// shared optimum. Every produced plan is replayed by the simulator
/// against the deadline-free instance (optimisation drops arrivals).
fn assert_loops_agree(scenario: &Scenario) -> Option<(u64, u64)> {
    let open = scenario.without_arrivals();
    let inst = Instance::new(&open).expect("valid scenario");

    let (scratch, _) = optimize(scenario, &config()).expect("well-formed");
    let (incremental, report) = optimize_incremental(scenario, &config()).expect("well-formed");

    assert_eq!(
        optimum(&scratch),
        optimum(&incremental),
        "{}: incremental diverged from scratch",
        scenario.name
    );

    for (label, outcome) in [("scratch", &scratch), ("incremental", &incremental)] {
        if let Some(plan) = outcome.plan() {
            let report = sim::validate(&inst, plan, true);
            assert!(report.is_valid(), "{} ({label}): {report}", scenario.name);
        }
    }

    // The incremental loop really ran on one persistent solver.
    assert!(report.search.solve_calls as usize >= report.solver_calls);
    optimum(&scratch)
}

#[test]
fn loops_agree_on_running_example() {
    assert!(assert_loops_agree(&fixtures::running_example()).is_some());
}

#[test]
fn loops_agree_on_complex_layout() {
    assert!(assert_loops_agree(&fixtures::complex_layout()).is_some());
}

#[test]
fn loops_agree_on_nordlandsbanen() {
    assert!(assert_loops_agree(&fixtures::nordlandsbanen()).is_some());
}

#[test]
fn loops_agree_on_branch_line() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/branch_line.rail");
    let text = std::fs::read_to_string(path).expect("branch_line.rail ships with the repo");
    let scenario = etcs::parse_scenario(&text).expect("sample scenario parses");
    assert!(assert_loops_agree(&scenario).is_some());
}

#[test]
fn loops_agree_on_convoy_and_its_search_is_multi_probe() {
    let scenario = fixtures::convoy();
    let (deadline_steps, borders) = assert_loops_agree(&scenario).expect("convoy is feasible");

    // The convoy fixture exists to exercise the multi-probe regime: its
    // fast followers are stuck behind the slow leader, so the optimal
    // completion sits strictly above the unobstructed lower bound and the
    // deadline search must refute several candidate deadlines first.
    let inst = Instance::new(&scenario.without_arrivals()).expect("valid scenario");
    let optimal_deadline = deadline_steps as usize - 1;
    assert!(
        inst.completion_lower_bound() < optimal_deadline,
        "congestion must push the optimum ({optimal_deadline}) above the \
         lower bound ({})",
        inst.completion_lower_bound()
    );
    assert!(
        borders >= 1,
        "close following needs at least one VSS border"
    );
}
