//! Corpus-wide differential tests: on ≥30 generated instances of *every*
//! corpus family, the eager incremental loop and the lazy CEGAR loop must
//! return **bit-identical** verdicts and proven optima — and every SAT
//! model is re-validated by the independent `etcs-sim` validator. The corpus
//! generators are seeded and deterministic
//! (`etcs_corpus::InstanceSpec::build` is pure), so any failure here is
//! replayable from the instance name in the assertion message.

use etcs::corpus::{sample_specs, Family, InstanceSpec, SizeClass};
use etcs::prelude::*;
use etcs::serve::wire::load_layout;

/// Instances per family (the issue floor is 30).
const INSTANCES_PER_FAMILY: usize = 30;

/// The proven optimal cost vector, or `None` when infeasible.
fn optimum(outcome: &DesignOutcome) -> Option<Vec<u64>> {
    match outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs.clone()),
        DesignOutcome::Infeasible => None,
    }
}

/// Re-validates a solved plan with the independent simulator. The
/// optimisation task drops arrival deadlines (its objective replaces
/// them), so deadline enforcement is off.
fn assert_sim_valid(scenario: &Scenario, outcome: &DesignOutcome, label: &str) {
    if let Some(plan) = outcome.plan() {
        let inst = Instance::new(scenario).expect("valid corpus instance");
        let report = etcs::sim::validate(&inst, plan, false);
        assert!(
            report.is_valid(),
            "{}: {label} plan rejected by etcs-sim:\n{report:?}",
            scenario.name
        );
    }
}

/// One corpus instance through both solve configurations.
fn assert_instance_agrees(spec: &InstanceSpec) {
    let scenario = spec.build();
    let config = EncoderConfig::default();

    let (eager, _) = optimize_incremental(&scenario, &config).expect("well-formed");
    let baseline = optimum(&eager);
    assert_sim_valid(&scenario, &eager, "eager");

    let task = TaskKind::OptimizeIncremental;
    let (outcome, _) =
        etcs::lazy::run(&scenario, &task, &config, &Run::default()).expect("well-formed");
    assert_eq!(
        optimum(&outcome),
        baseline,
        "{}: lazy optimize diverged from eager",
        scenario.name
    );
    assert_sim_valid(&scenario, &outcome, "lazy");
}

fn assert_family_agrees(family: Family) {
    for spec in sample_specs(family, SizeClass::Small, INSTANCES_PER_FAMILY, 0xD1FF) {
        assert_instance_agrees(&spec);
    }
}

#[test]
fn grid_ladder_all_modes_agree() {
    assert_family_agrees(Family::GridLadder);
}

#[test]
fn convoy_chain_all_modes_agree() {
    assert_family_agrees(Family::ConvoyChain);
}

#[test]
fn branched_mesh_all_modes_agree() {
    assert_family_agrees(Family::BranchedMesh);
}

#[test]
fn station_throat_all_modes_agree() {
    assert_family_agrees(Family::StationThroat);
}

#[test]
fn moving_block_all_modes_agree() {
    assert_family_agrees(Family::MovingBlock);
}

/// Verification differential on a corpus slice: the fully subdivided
/// layout verified eagerly and lazily (the verify
/// analogue of the optimisation sweep above, on fewer instances — the
/// optimisation loop already exercises the encoder once per deadline).
#[test]
fn verify_full_layout_agrees_across_families() {
    for family in Family::ALL {
        for spec in sample_specs(family, SizeClass::Small, 5, 0xFACE) {
            let scenario = spec.build();
            let config = EncoderConfig::default();
            let inst = Instance::new(&scenario).expect("valid corpus instance");
            let layout = VssLayout::full(&inst.net);
            let (eager, _) = verify(&scenario, &layout, &config).expect("well-formed");
            if let Some(plan) = eager.plan() {
                let report = etcs::sim::validate(&inst, plan, true);
                assert!(
                    report.is_valid(),
                    "{}: verify witness rejected by etcs-sim:\n{report:?}",
                    scenario.name
                );
            }
            let task = TaskKind::Verify(layout.clone());
            let (relaxed, _) =
                etcs::lazy::run(&scenario, &task, &config, &Run::default()).expect("well-formed");
            assert_eq!(
                eager.is_feasible(),
                relaxed.is_feasible(),
                "{}: lazy verify diverged",
                scenario.name
            );
        }
    }
}

/// A request line's `"layout": "full"` names the full layout of the
/// job's own instance, on every fixture and one Small draw per family
/// (the request parser discretises without building the instance).
#[test]
fn full_layout_spec_matches_the_instance_layout() {
    let draws = Family::ALL
        .into_iter()
        .flat_map(|family| sample_specs(family, SizeClass::Small, 1, 0x1A70))
        .map(|spec| spec.build());
    for scenario in fixtures::all().into_iter().chain(draws) {
        let inst = Instance::new(&scenario).expect("valid scenario");
        assert_eq!(
            load_layout("full", &scenario),
            Ok(VssLayout::full(&inst.net)),
            "{}",
            scenario.name
        );
    }
}

/// A thin Medium slice: one instance per family at the next size up, so
/// the differential suite is not blind to scale-dependent divergence
/// (the full Medium sweep lives in `bench_corpus`, not the test suite).
#[test]
fn medium_slice_all_modes_agree() {
    for family in Family::ALL {
        for spec in sample_specs(family, SizeClass::Medium, 1, 0xBEEF) {
            assert_instance_agrees(&spec);
        }
    }
}
