//! Differential tests for the lazy (CEGAR) task loops: on random testkit
//! topologies and on the interaction-dense fixtures, lazy verification
//! must return **bit-identical** verdicts and lazy optimisation
//! **bit-identical** optima `(deadline, borders)` to the eager loops. The
//! lazy loops differ from the eager
//! ones in *what* they encode (a relaxation refined on demand), so any
//! soundness gap in the refiner — a blocking clause not implied by the
//! full formula, a violation the detector misses — surfaces here as a
//! verdict or cost divergence.

use etcs::network::generator::{branched_line, single_track_line, BranchConfig, LineConfig};
use etcs::prelude::*;
use etcs_testkit::{cases, Rng};

fn config() -> EncoderConfig {
    EncoderConfig::default()
}

fn small_line(rng: &mut Rng) -> Scenario {
    single_track_line(&LineConfig {
        stations: rng.range(2, 5),
        loop_every: rng.below(3),
        link_m: 1000,
        trains_per_direction: rng.range(1, 3),
        headway: Seconds::from_minutes(2),
        r_s: Meters(500),
        r_t: Seconds(30),
        horizon: Seconds::from_minutes(10),
        seed: rng.next_u64(),
        ..LineConfig::default()
    })
}

fn small_branch(rng: &mut Rng) -> Scenario {
    branched_line(&BranchConfig {
        arm_stations: rng.below(2),
        trunk_stations: rng.below(2),
        link_m: 1000,
        trains_per_arm: rng.range(1, 3),
        headway: Seconds::from_minutes(2),
        r_s: Meters(500),
        r_t: Seconds(30),
        horizon: Seconds::from_minutes(10),
        seed: rng.next_u64(),
        ..BranchConfig::default()
    })
}

fn small_topology(rng: &mut Rng) -> Scenario {
    if rng.bool() {
        small_line(rng)
    } else {
        small_branch(rng)
    }
}

/// The optimal `(deadline_steps, borders)` pair, or `None` when infeasible.
fn optimum(outcome: &DesignOutcome) -> Option<(u64, u64)> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some((costs[0], costs[1])),
        DesignOutcome::Infeasible => None,
    }
}

/// Verifies `scenario` on `layout` both eagerly and lazily, asserting
/// bit-identical verdicts.
fn assert_verify_agrees(scenario: &Scenario, layout: &VssLayout) {
    let (eager, _) = verify(scenario, layout, &config()).expect("well-formed");
    let task = TaskKind::Verify(layout.clone());
    let (relaxed, _) =
        etcs::lazy::run(scenario, &task, &config(), &Run::default()).expect("well-formed");
    assert_eq!(
        eager.is_feasible(),
        relaxed.is_feasible(),
        "{}: lazy verify diverged from verify",
        scenario.name
    );
}

/// Optimises `scenario` both eagerly and lazily, asserting bit-identical
/// `(deadline, borders)` optima.
fn assert_optimize_agrees(scenario: &Scenario) {
    let (eager, _) = optimize_incremental(scenario, &config()).expect("well-formed");
    let task = TaskKind::OptimizeIncremental;
    let (relaxed, _) =
        etcs::lazy::run(scenario, &task, &config(), &Run::default()).expect("well-formed");
    assert_eq!(
        optimum(&eager),
        optimum(&relaxed),
        "{}: lazy optimize diverged from optimize_incremental",
        scenario.name
    );
}

#[test]
fn lazy_verification_matches_eager_on_random_topologies() {
    cases(12, |rng| {
        let scenario = small_topology(rng);
        let inst = Instance::new(&scenario).expect("generated scenarios are valid");
        // Full layout: the relaxed SAT path (violations to refine away).
        assert_verify_agrees(&scenario, &VssLayout::full(&inst.net));
        // Pure TTD: often infeasible — the relaxation-UNSAT transfer path.
        assert_verify_agrees(&scenario, &VssLayout::pure_ttd());
    });
}

#[test]
fn lazy_optimisation_matches_eager_on_random_topologies() {
    cases(12, |rng| {
        let scenario = small_topology(rng);
        assert_optimize_agrees(&scenario);
    });
}

#[test]
fn lazy_optimisation_matches_eager_on_convoy() {
    // The interaction-dense regime: four trains chasing down one line, the
    // worst case for a lazy loop (nearly every family activates).
    assert_optimize_agrees(&etcs::network::fixtures::convoy());
}

#[test]
fn lazy_optimisation_matches_eager_on_branched_line() {
    // The shared-trunk merge regime the lazy loop is built for.
    let scenario = branched_line(&BranchConfig {
        arm_stations: 1,
        trunk_stations: 2,
        trains_per_arm: 2,
        ..BranchConfig::default()
    });
    assert_optimize_agrees(&scenario);
}
