//! Infeasibility diagnosis: *why* does a schedule fail on a layout?
//!
//! When [`crate::verify`] answers "infeasible", designers want to know
//! which part of the timetable is to blame. This module re-encodes the
//! verification instance with every train's arrival and stop deadlines
//! guarded by an assumption literal; the solver's unsat core then names a
//! subset of trains whose deadlines are jointly unachievable, which is
//! subsequently shrunk to a *minimal* conflict set (deleting any member
//! makes the rest feasible).

use std::time::Instant;

use etcs_network::{Scenario, TrainId, VssLayout};
use etcs_sat::{Lit, SatResult};

use crate::encoder::{ConstraintFamilies, EncoderConfig, TaskKind};
use crate::instance::Instance;
use crate::tasks::{Run, TaskError, TaskReport};

/// Result of [`diagnose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Diagnosis {
    /// The schedule works on the layout — nothing to diagnose.
    Feasible,
    /// A minimal set of trains whose arrival or stop deadlines conflict on
    /// this layout: removing (or relaxing) any one of them makes the
    /// remaining deadlines achievable.
    Conflict {
        /// Train ids (schedule order) of the minimal conflict set.
        trains: Vec<TrainId>,
        /// Their display names, for reporting.
        names: Vec<String>,
    },
    /// The instance is infeasible even with every arrival and stop
    /// deadline dropped — the conflict is structural (departures alone
    /// deadlock).
    Structural,
}

impl Diagnosis {
    /// `true` if a (non-structural) deadline conflict was isolated.
    pub fn is_conflict(&self) -> bool {
        matches!(self, Diagnosis::Conflict { .. })
    }
}

/// Diagnoses why `scenario`'s schedule fails on `layout` under `run`, like
/// a [`crate::run`] task: one `task.diagnose` span (fields `feasible`,
/// `trains`, `solver_calls`, `conflicts`) and the `conflicts` counter.
/// Returns [`Diagnosis::Feasible`] when the schedule does not fail.
///
/// # Errors
///
/// Returns [`TaskError::Network`] if the scenario is malformed, or the
/// interrupt-mapped error if the token fired mid-solve.
///
/// # Examples
///
/// ```
/// use etcs_core::{diagnose, Diagnosis, EncoderConfig, Run};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// let config = EncoderConfig::default();
/// let (diagnosis, _report) =
///     diagnose(&scenario, &VssLayout::pure_ttd(), &config, &Run::default())?;
/// // The running example deadlocks *structurally* on pure TTDs — exactly
/// // the paper's Example 2: once all four trains have departed, no train
/// // can move, regardless of any deadline.
/// assert_eq!(diagnosis, Diagnosis::Structural);
/// # Ok::<(), etcs_core::TaskError>(())
/// ```
pub fn diagnose(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(Diagnosis, TaskReport), TaskError> {
    let start = Instant::now();
    let span = run.obs.span_with(
        "task.diagnose",
        &[("scenario", scenario.name.as_str().into())],
    );
    let inst = Instance::new(scenario)?;
    let task = TaskKind::Diagnose(layout.clone());
    let mut enc = run.encode(&inst, config, &task, ConstraintFamilies::ALL, &span);
    let stats = enc.stats;
    let selectors = enc.deadline_selectors.clone();
    let mut calls = 1;

    let outcome = 'solve: {
        // All deadlines on: the plain verification question.
        let mut minimal: Vec<Lit> = match enc.solver.solve_with(&selectors) {
            SatResult::Sat(_) => break 'solve Some(Diagnosis::Feasible),
            SatResult::Unsat { core } => core,
            SatResult::Unknown => break 'solve None,
        };
        // Shrink the core to a minimal conflict set: drop one member at a
        // time; if the rest is still unsatisfiable, the member was
        // redundant.
        let mut i = 0;
        while i < minimal.len() {
            let mut candidate = minimal.clone();
            candidate.remove(i);
            calls += 1;
            match enc.solver.solve_with(&candidate) {
                SatResult::Unsat { core } => {
                    // Still conflicting; adopt the (possibly even smaller)
                    // refreshed core and restart scanning.
                    minimal = core;
                    i = 0;
                }
                SatResult::Sat(_) => i += 1,
                SatResult::Unknown => break 'solve None,
            }
        }
        if minimal.is_empty() {
            // Unsatisfiable without any assumption: departures alone
            // cannot be scheduled.
            break 'solve Some(Diagnosis::Structural);
        }
        let mut trains: Vec<TrainId> = minimal
            .iter()
            .filter_map(|l| selectors.iter().position(|s| s == l))
            .map(TrainId::from_index)
            .collect();
        trains.sort();
        trains.dedup();
        let names = trains
            .iter()
            .map(|t| inst.trains[t.index()].name.clone())
            .collect();
        Some(Diagnosis::Conflict { trains, names })
    };
    let search = *enc.solver.stats();
    run.obs.counter_add("conflicts", search.conflicts);
    drop(enc); // inside the task span, so teardown is attributed to it
    let Some(diagnosis) = outcome else {
        span.close_with(&[("interrupted", true.into())]);
        return Err(TaskError::interrupted(&run.interrupt));
    };
    let trains = match &diagnosis {
        Diagnosis::Conflict { trains, .. } => trains.len(),
        Diagnosis::Feasible | Diagnosis::Structural => 0,
    };
    span.close_with(&[
        ("feasible", (diagnosis == Diagnosis::Feasible).into()),
        ("trains", trains.into()),
        ("solver_calls", calls.into()),
        ("conflicts", search.conflicts.into()),
    ]);
    Ok((
        diagnosis,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search,
        },
    ))
}

/// A single-track line where a slow leader makes a tight follower deadline
/// unachievable — a genuine deadline conflict, not a structural deadlock.
/// Shared with the certification tests.
#[cfg(test)]
pub(crate) fn follower_scenario() -> Scenario {
    use etcs_network::{KmPerHour, Meters, NetworkBuilder, Schedule, Seconds, Train, TrainRun};
    let km = Meters::from_km;
    let mut b = NetworkBuilder::new();
    let a_end = b.node();
    let a_end2 = b.node();
    let p1 = b.node();
    let p2 = b.node();
    let b_end = b.node();
    let sta_a = b.track(a_end, p1, km(0.5), "A1");
    let sta_a2 = b.track(a_end2, p1, km(0.5), "A2");
    let link = b.track(p1, p2, km(2.0), "link");
    let sta_b = b.track(p2, b_end, km(0.5), "B");
    b.ttd("TTD-A1", [sta_a]);
    b.ttd("TTD-A2", [sta_a2]);
    b.ttd("TTD-L", [link]);
    b.ttd("TTD-B", [sta_b]);
    let st_a = b.station("A", [sta_a, sta_a2], true);
    let st_b = b.station("B", [sta_b], true);
    let network = b.build().expect("valid");
    let schedule = Schedule::new(vec![
        TrainRun::new(
            Train::new("Slow leader", Meters(200), KmPerHour(60)),
            st_a,
            st_b,
            Seconds::ZERO,
            // Tight enough that the leader cannot yield to the follower.
            Some(Seconds(210)),
        ),
        TrainRun::new(
            Train::new("Tight follower", Meters(200), KmPerHour(120)),
            st_a,
            st_b,
            Seconds(60),
            Some(Seconds(150)),
        ),
    ]);
    Scenario {
        name: "Follower".into(),
        network,
        schedule,
        r_s: km(0.5),
        r_t: Seconds(30),
        horizon: Seconds(600),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    fn diagnosis(scenario: &Scenario, layout: &VssLayout) -> Diagnosis {
        let (d, _) = diagnose(scenario, layout, &config(), &Run::default()).expect("ok");
        d
    }

    #[test]
    fn feasible_layout_diagnoses_feasible() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = VssLayout::full(&inst.net);
        let d = diagnosis(&scenario, &full);
        assert_eq!(d, Diagnosis::Feasible);
    }

    #[test]
    fn running_example_deadlock_is_structural() {
        // The paper's Example 2: after all four trains depart, all four
        // TTDs are blocked — no deadline relaxation can help.
        let scenario = fixtures::running_example();
        let d = diagnosis(&scenario, &VssLayout::pure_ttd());
        assert_eq!(d, Diagnosis::Structural);
    }

    #[test]
    fn tight_follower_deadline_is_a_minimal_conflict() {
        let scenario = follower_scenario();
        let d = diagnosis(&scenario, &VssLayout::pure_ttd());
        let Diagnosis::Conflict { trains, names } = d else {
            panic!("expected a conflict, got {d:?}");
        };
        // Neither train can yield: the minimal conflict is the pair, and
        // relaxing either one's deadline repairs the schedule.
        assert_eq!(
            names,
            vec!["Slow leader".to_owned(), "Tight follower".to_owned()]
        );
        assert_eq!(trains.len(), 2);
        for drop in &trains {
            let mut relaxed_one = scenario.clone();
            relaxed_one.schedule = etcs_network::Schedule::new(
                scenario
                    .schedule
                    .iter()
                    .map(|(id, run)| {
                        let mut run = run.clone();
                        if id == *drop {
                            run.arrival = None;
                        }
                        run
                    })
                    .collect(),
            );
            let (one, _) =
                crate::verify(&relaxed_one, &VssLayout::pure_ttd(), &config()).expect("ok");
            assert!(one.is_feasible(), "dropping either member must repair");
        }
        // Relaxing the diagnosed deadline repairs the schedule.
        let mut relaxed = scenario.clone();
        relaxed.schedule = etcs_network::Schedule::new(
            scenario
                .schedule
                .iter()
                .map(|(id, run)| {
                    let mut run = run.clone();
                    if trains.contains(&id) {
                        run.arrival = None;
                    }
                    run
                })
                .collect(),
        );
        let (outcome, _) = crate::verify(&relaxed, &VssLayout::pure_ttd(), &config()).expect("ok");
        assert!(outcome.is_feasible());
    }

    #[test]
    fn vss_does_not_enable_overtaking() {
        // Even the finest VSS layout cannot let the follower overtake on a
        // single track: the pair stays a conflict.
        let scenario = follower_scenario();
        let inst = Instance::new(&scenario).expect("valid");
        let d = diagnosis(&scenario, &VssLayout::full(&inst.net));
        assert!(d.is_conflict());
    }

    #[test]
    fn relaxed_follower_is_feasible_diagnosis() {
        let mut scenario = follower_scenario();
        scenario.schedule = etcs_network::Schedule::new(
            scenario
                .schedule
                .runs()
                .iter()
                .enumerate()
                .map(|(i, run)| {
                    let mut run = run.clone();
                    if i == 1 {
                        run.arrival = None;
                    }
                    run
                })
                .collect(),
        );
        let d = diagnosis(&scenario, &VssLayout::pure_ttd());
        assert_eq!(d, Diagnosis::Feasible);
    }
}
