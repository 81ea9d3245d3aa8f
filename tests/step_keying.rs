//! The replanner's warm key (`etcs_core::sub_fingerprints`) hashes
//! departures as time steps. That is sound only if a departure reaches
//! the encoding through its step alone, so this property test pins the
//! key against the open instance it stands for: over random departure
//! shifts of 0–90 s on the running example and one Small scenario per
//! corpus family, an equal core key means equal open-instance data (and
//! equal optima), and a moved departure step means a moved core key.

use std::cell::Cell;

use etcs::corpus::{Family, InstanceSpec, SizeClass};
use etcs::prelude::*;
use etcs_core::sub_fingerprints;
use etcs_testkit::cases;

/// `base` with each departure moved later by its entry of `shifts`.
fn shifted(base: &Scenario, shifts: &[u64]) -> Scenario {
    let runs = base
        .schedule
        .runs()
        .iter()
        .zip(shifts)
        .map(|(run, &by)| TrainRun {
            departure: Seconds(run.departure.as_u64() + by),
            ..run.clone()
        })
        .collect();
    Scenario {
        schedule: Schedule::new(runs),
        ..base.clone()
    }
}

/// Each train's departure step.
fn departure_steps(scenario: &Scenario) -> Vec<usize> {
    let runs = scenario.schedule.runs();
    runs.iter().map(|r| scenario.step_of(r.departure)).collect()
}

/// Asserts that the two open instances hold the same encoder input.
fn assert_same_open_instance(a: &Scenario, b: &Scenario) {
    let a = Instance::new(a).expect("valid");
    let b = Instance::new(b).expect("valid");
    assert_eq!(a.t_max, b.t_max);
    assert_eq!(a.trains.len(), b.trains.len());
    for (x, y) in a.trains.iter().zip(&b.trains) {
        assert_eq!(x.dep_step, y.dep_step, "{}", x.name);
        assert_eq!(x.length, y.length, "{}", x.name);
        assert_eq!(x.speed, y.speed, "{}", x.name);
        assert_eq!(x.origin_edges, y.origin_edges, "{}", x.name);
        assert_eq!(x.goal_edges, y.goal_edges, "{}", x.name);
        assert_eq!(x.stops, y.stops, "{}", x.name);
        assert_eq!(x.exit, y.exit, "{}", x.name);
    }
}

/// The verdict and proven optima of `run(Optimize)`.
fn optimum(scenario: &Scenario) -> Option<Vec<u64>> {
    let task = TaskKind::Optimize;
    match run(scenario, &task, &EncoderConfig::default(), &Run::default()) {
        Ok((DesignOutcome::Solved { costs, .. }, _)) => Some(costs),
        Ok((DesignOutcome::Infeasible, _)) => None,
        Err(e) => panic!("{}: {e}", scenario.name),
    }
}

#[test]
fn equal_cores_are_equal_open_instances_and_moved_steps_move_the_core() {
    let mut bases = vec![fixtures::running_example()];
    bases.extend(
        Family::ALL
            .into_iter()
            .map(|family| InstanceSpec::new(family, SizeClass::Small, 0).build()),
    );
    let config = EncoderConfig::default();
    for base in bases {
        let base = base.without_arrivals();
        let trains = base.schedule.len();
        let equal_cores = Cell::new(0);
        let solved = Cell::new(0);
        cases(48, |rng| {
            // Two shift vectors that agree on about half the trains.
            let a_shifts = rng.vec(trains, |rng| rng.below(91) as u64);
            let b_shifts: Vec<u64> = a_shifts
                .iter()
                .map(|&s| if rng.bool() { s } else { rng.below(91) as u64 })
                .collect();
            let (a, b) = (shifted(&base, &a_shifts), shifted(&base, &b_shifts));
            let (fa, fb) = (sub_fingerprints(&a, &config), sub_fingerprints(&b, &config));
            if departure_steps(&a) != departure_steps(&b) {
                assert_ne!(fa, fb, "{}: a moved step keeps the core", base.name);
            }
            if fa != fb {
                return;
            }
            equal_cores.set(equal_cores.get() + 1);
            assert_same_open_instance(&a, &b);
            // A few equal-core pairs that differ in seconds solve alike.
            if a_shifts != b_shifts && solved.get() < 2 {
                solved.set(solved.get() + 1);
                assert_eq!(optimum(&a), optimum(&b), "{}", base.name);
            }
        });
        assert!(equal_cores.get() > 0, "{}: no equal-core pair", base.name);
        assert!(solved.get() > 0, "{}: no equal-core pair solved", base.name);
    }
}
