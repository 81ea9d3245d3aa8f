//! Infeasibility diagnosis: *why* does a schedule fail on a layout?
//!
//! When [`crate::verify`] answers "infeasible", designers want to know
//! which part of the timetable is to blame. This module re-encodes the
//! verification instance with every train's arrival deadline guarded by an
//! assumption literal; the solver's unsat core then names a subset of
//! trains whose deadlines are jointly unachievable, which is subsequently
//! shrunk to a *minimal* conflict set (deleting any member makes the rest
//! feasible).

use etcs_network::{NetworkError, Scenario, TrainId, VssLayout};
use etcs_sat::{Interrupt, Lit, SatResult};

use crate::encoder::{encode, EncoderConfig, TaskKind};
use crate::instance::Instance;
use crate::tasks::TaskError;

/// Result of [`diagnose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Diagnosis {
    /// The schedule works on the layout — nothing to diagnose.
    Feasible,
    /// A minimal set of trains whose arrival deadlines conflict on this
    /// layout: removing (or relaxing) any one of them makes the remaining
    /// deadlines achievable.
    Conflict {
        /// Train ids (schedule order) of the minimal conflict set.
        trains: Vec<TrainId>,
        /// Their display names, for reporting.
        names: Vec<String>,
    },
    /// The instance is infeasible even with every arrival deadline
    /// dropped — the conflict is structural (departures alone deadlock).
    Structural,
}

impl Diagnosis {
    /// `true` if a (non-structural) deadline conflict was isolated.
    pub fn is_conflict(&self) -> bool {
        matches!(self, Diagnosis::Conflict { .. })
    }
}

/// Diagnoses why `scenario`'s schedule fails on `layout`.
///
/// Returns [`Diagnosis::Feasible`] when it does not fail.
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
///
/// # Examples
///
/// ```
/// use etcs_core::{diagnose, Diagnosis, EncoderConfig};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// let diagnosis = diagnose(&scenario, &VssLayout::pure_ttd(), &EncoderConfig::default())?;
/// // The running example deadlocks *structurally* on pure TTDs — exactly
/// // the paper's Example 2: once all four trains have departed, no train
/// // can move, regardless of any arrival deadline.
/// assert_eq!(diagnosis, Diagnosis::Structural);
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn diagnose(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
) -> Result<Diagnosis, NetworkError> {
    match diagnose_cancellable(scenario, layout, config, &Interrupt::none()) {
        Ok(d) => Ok(d),
        Err(TaskError::Network(e)) => Err(e),
        Err(other) => unreachable!("no interrupt installed: {other:?}"),
    }
}

/// [`diagnose`] with cooperative cancellation: `interrupt` is installed on
/// the solver driving the core-shrinking loop, so a trigger or an expired
/// deadline aborts between (or inside) shrink probes.
///
/// # Errors
///
/// Returns [`TaskError::Network`] if the scenario is malformed, or the
/// interrupt-mapped error if the token fired mid-solve.
pub fn diagnose_cancellable(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
    interrupt: &Interrupt,
) -> Result<Diagnosis, TaskError> {
    let inst = Instance::new(scenario)?;
    let mut enc = encode(&inst, config, &TaskKind::Diagnose(layout.clone()));
    enc.solver.set_interrupt(interrupt.clone());
    let selectors = enc.deadline_selectors.clone();

    // All deadlines on: the plain verification question.
    let core = match enc.solver.solve_with(&selectors) {
        SatResult::Sat(_) => return Ok(Diagnosis::Feasible),
        SatResult::Unsat { core } => core,
        SatResult::Unknown => return Err(TaskError::interrupted(interrupt)),
    };
    if core.is_empty() {
        // Unsatisfiable without any assumption: departures/stops alone
        // cannot be scheduled.
        return Ok(Diagnosis::Structural);
    }

    // Shrink the core to a minimal conflict set: drop one member at a
    // time; if the rest is still unsatisfiable, the member was redundant.
    let mut minimal: Vec<Lit> = core;
    let mut i = 0;
    while i < minimal.len() {
        let mut candidate = minimal.clone();
        candidate.remove(i);
        match enc.solver.solve_with(&candidate) {
            SatResult::Unsat { core } => {
                // Still conflicting; adopt the (possibly even smaller)
                // refreshed core and restart scanning.
                minimal = core;
                i = 0;
            }
            SatResult::Sat(_) => i += 1,
            SatResult::Unknown => return Err(TaskError::interrupted(interrupt)),
        }
        if minimal.is_empty() {
            return Ok(Diagnosis::Structural);
        }
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
    Ok(Diagnosis::Conflict { trains, names })
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

    #[test]
    fn feasible_layout_diagnoses_feasible() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = VssLayout::full(&inst.net);
        let d = diagnose(&scenario, &full, &config()).expect("ok");
        assert_eq!(d, Diagnosis::Feasible);
    }

    #[test]
    fn running_example_deadlock_is_structural() {
        // The paper's Example 2: after all four trains depart, all four
        // TTDs are blocked — no deadline relaxation can help.
        let scenario = fixtures::running_example();
        let d = diagnose(&scenario, &VssLayout::pure_ttd(), &config()).expect("ok");
        assert_eq!(d, Diagnosis::Structural);
    }

    #[test]
    fn tight_follower_deadline_is_a_minimal_conflict() {
        let scenario = follower_scenario();
        let d = diagnose(&scenario, &VssLayout::pure_ttd(), &config()).expect("ok");
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
        let d = diagnose(&scenario, &VssLayout::full(&inst.net), &config()).expect("ok");
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
        let d = diagnose(&scenario, &VssLayout::pure_ttd(), &config()).expect("ok");
        assert_eq!(d, Diagnosis::Feasible);
    }
}
