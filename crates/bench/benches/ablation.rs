//! Ablation study of the design choices documented in DESIGN.md:
//!
//! * time–space cone pruning on/off,
//! * symmetric (backward) movement constraint on/off,
//! * paper-literal collision endpoints vs. relaxed immediate re-occupation,
//! * MaxSAT search strategy (linear SAT–UNSAT vs. binary) for the border
//!   objective,
//! * monolithic `Σ_t ¬done^t` cardinality objective vs. the
//!   shrinking-horizon search the tasks use by default.

use etcs_bench::harness::Criterion;
use etcs_bench::{criterion_group, criterion_main};
use etcs_core::{encode, generate, optimize, EncoderConfig, Instance, TaskKind};
use etcs_network::fixtures;
use etcs_sat::{maxsat, Strategy};

fn ablation(c: &mut Criterion) {
    let scenario = fixtures::running_example();

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    for (name, config) in [
        ("default", EncoderConfig::default()),
        (
            "no_goal_pruning",
            EncoderConfig {
                prune_to_goal: false,
                ..EncoderConfig::default()
            },
        ),
        (
            "no_symmetric_movement",
            EncoderConfig {
                symmetric_movement: false,
                ..EncoderConfig::default()
            },
        ),
        (
            "allow_immediate_reoccupation",
            EncoderConfig {
                allow_immediate_reoccupation: true,
                ..EncoderConfig::default()
            },
        ),
    ] {
        group.bench_function(format!("generation/{name}"), |b| {
            b.iter(|| {
                let (outcome, _) = generate(&scenario, &config).expect("well-formed");
                assert!(outcome.plan().is_some());
            })
        });
        group.bench_function(format!("optimization/{name}"), |b| {
            b.iter(|| {
                let (outcome, _) = optimize(&scenario, &config).expect("well-formed");
                assert!(outcome.plan().is_some());
            })
        });
    }

    // Border-objective search strategy.
    let default = EncoderConfig::default();
    for (name, strategy) in [
        ("linear", Strategy::LinearSatUnsat),
        ("binary", Strategy::BinarySearch),
    ] {
        group.bench_function(format!("border_objective/{name}"), |b| {
            b.iter(|| {
                let inst = Instance::new(&scenario).expect("valid");
                let mut enc = encode(&inst, &default, &TaskKind::Generate);
                let obj = enc.border_objective.clone();
                let outcome = maxsat::minimize(&mut enc.solver, &obj, &[], strategy, None);
                assert!(outcome.optimal().is_some());
            })
        });
    }

    // Step objective: the paper-literal cardinality formulation versus the
    // shrinking-horizon search used by `optimize` (the latter dominates —
    // on the larger case studies by orders of magnitude).
    group.bench_function("step_objective/cardinality", |b| {
        b.iter(|| {
            let open = scenario.without_arrivals();
            let inst = Instance::new(&open).expect("valid");
            let mut enc = encode(&inst, &default, &TaskKind::Optimize);
            let obj = enc.step_objective.clone().expect("optimize builds it");
            let outcome =
                maxsat::minimize(&mut enc.solver, &obj, &[], Strategy::LinearSatUnsat, None);
            assert!(outcome.optimal().is_some());
        })
    });
    group.bench_function("step_objective/shrinking_horizon", |b| {
        b.iter(|| {
            let (outcome, _) = optimize(&scenario, &default).expect("well-formed");
            assert!(outcome.plan().is_some());
        })
    });

    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
