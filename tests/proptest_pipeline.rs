//! End-to-end property test: for randomly generated line scenarios, every
//! plan the SAT pipeline produces must pass the independent operational
//! validator, and the task answers must be mutually consistent.
//!
//! This is the strongest correctness argument in the workspace: the
//! encoder (`etcs-core`) and the validator (`etcs-sim`) implement the
//! paper's rules independently, so an encoding bug would surface as a
//! validation failure on some random topology.

use etcs::corpus::{Family, InstanceSpec, SizeClass};
use etcs::network::generator::{branched_line, single_track_line, BranchConfig, LineConfig};
use etcs::prelude::*;
use etcs::sim;
use etcs::{parse_scenario, write_scenario};
use etcs_testkit::{cases, Rng};

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

/// Mixes linear and branching topologies, so the encoder/validator
/// differential tests below also exercise junction merges (degree-3 nodes,
/// shared-trunk contention) — not just chains.
fn small_topology(rng: &mut Rng) -> Scenario {
    if rng.bool() {
        small_line(rng)
    } else {
        small_branch(rng)
    }
}

/// Draws a random Small corpus instance: any family, fresh seed. The
/// corpus families are richer than the local line/branch generators above
/// (grids with crossover rungs, station throats, moving-block convoys),
/// so the encoder/validator differentials below see junction shapes the
/// original topologies never produce.
fn corpus_instance(rng: &mut Rng) -> Scenario {
    let family = Family::ALL[rng.below(Family::ALL.len())];
    InstanceSpec::new(family, SizeClass::Small, rng.next_u64()).build()
}

// Each case runs a full SAT pipeline; keep the counts moderate.

#[test]
fn generated_plans_pass_independent_validation() {
    cases(24, |rng| {
        let scenario = small_topology(rng);
        let config = EncoderConfig::default();
        let inst = Instance::new(&scenario).expect("generated scenarios are valid");
        let (outcome, _) = generate(&scenario, &config).expect("well-formed");
        if let Some(plan) = outcome.plan() {
            let report = sim::validate(&inst, plan, true);
            assert!(report.is_valid(), "{}:\n{report}", scenario.name);
        }
    });
}

#[test]
fn optimized_plans_pass_independent_validation() {
    cases(24, |rng| {
        let scenario = small_topology(rng);
        let config = EncoderConfig::default();
        let open = scenario.without_arrivals();
        let inst = Instance::new(&open).expect("valid");
        let (outcome, _) = optimize(&scenario, &config).expect("well-formed");
        if let Some(plan) = outcome.plan() {
            let report = sim::validate(&inst, plan, false);
            assert!(report.is_valid(), "{}:\n{report}", scenario.name);
        }
    });
}

#[test]
fn generation_monotone_in_layout() {
    cases(24, |rng| {
        let scenario = small_topology(rng);
        // If generation succeeds, the generated layout verifies, and so
        // does the finest layout.
        let config = EncoderConfig::default();
        let inst = Instance::new(&scenario).expect("valid");
        let (outcome, _) = generate(&scenario, &config).expect("well-formed");
        if let Some(plan) = outcome.plan() {
            let (check, _) = verify(&scenario, &plan.layout, &config).expect("well-formed");
            assert!(check.is_feasible(), "generated layout must verify");
            let (full, _) =
                verify(&scenario, &VssLayout::full(&inst.net), &config).expect("well-formed");
            assert!(full.is_feasible(), "finest layout must also verify");
        }
    });
}

/// `prune_to_goal` is the encoder's one semantic switch: every task must
/// give the same verdict and the same optimum with and without it.
#[test]
fn pruning_does_not_change_answers() {
    let costs = |o: &DesignOutcome| match o {
        DesignOutcome::Solved { costs, .. } => Some(costs.clone()),
        DesignOutcome::Infeasible => None,
    };
    cases(24, |rng| {
        let scenario = small_topology(rng);
        let pruned = EncoderConfig::default();
        let unpruned = EncoderConfig {
            prune_to_goal: false,
            ..pruned
        };
        let (a, _) = verify(&scenario, &VssLayout::pure_ttd(), &pruned).expect("well-formed");
        let (b, _) = verify(&scenario, &VssLayout::pure_ttd(), &unpruned).expect("well-formed");
        assert_eq!(a.is_feasible(), b.is_feasible(), "pruning must be sound");
        let (a, _) = generate(&scenario, &pruned).expect("well-formed");
        let (b, _) = generate(&scenario, &unpruned).expect("well-formed");
        assert_eq!(
            costs(&a),
            costs(&b),
            "generation optimum, {}",
            scenario.name
        );
        let (a, _) = optimize(&scenario, &pruned).expect("well-formed");
        let (b, _) = optimize(&scenario, &unpruned).expect("well-formed");
        assert_eq!(
            costs(&a),
            costs(&b),
            "optimisation optimum, {}",
            scenario.name
        );
    });
}

#[test]
fn corpus_generated_plans_pass_independent_validation() {
    cases(15, |rng| {
        let scenario = corpus_instance(rng);
        let config = EncoderConfig::default();
        let inst = Instance::new(&scenario).expect("corpus scenarios are valid");
        let (outcome, _) = generate(&scenario, &config).expect("well-formed");
        if let Some(plan) = outcome.plan() {
            let report = sim::validate(&inst, plan, true);
            assert!(report.is_valid(), "{}:\n{report}", scenario.name);
        }
    });
}

#[test]
fn corpus_rail_roundtrip_preserves_answers() {
    // The `.rail` round-trip must be semantics-preserving, not just
    // structurally lossless: the reparsed scenario yields the same
    // generation verdict and the same minimal border count.
    cases(10, |rng| {
        let scenario = corpus_instance(rng);
        let config = EncoderConfig::default();
        let back = parse_scenario(&write_scenario(&scenario))
            .unwrap_or_else(|e| panic!("{}: roundtrip: {e}", scenario.name));
        let (a, _) = generate(&scenario, &config).expect("well-formed");
        let (b, _) = generate(&back, &config).expect("well-formed");
        let costs = |o: &DesignOutcome| match o {
            DesignOutcome::Solved { costs, .. } => Some(costs.clone()),
            DesignOutcome::Infeasible => None,
        };
        assert_eq!(costs(&a), costs(&b), "{}", scenario.name);
    });
}

#[test]
fn optimization_cost_matches_decoded_completion() {
    cases(24, |rng| {
        let scenario = small_topology(rng);
        let config = EncoderConfig::default();
        let open = scenario.without_arrivals();
        let inst = Instance::new(&open).expect("valid");
        let (outcome, _) = optimize(&scenario, &config).expect("well-formed");
        if let DesignOutcome::Solved { plan, costs } = outcome {
            assert_eq!(costs[0] as usize, plan.completion_steps(&inst));
        }
    });
}
