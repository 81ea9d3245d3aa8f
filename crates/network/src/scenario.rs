//! Scenarios: a network, a schedule and the discretisation resolutions,
//! bundled as one case study (the unit of Table I in the paper).

use crate::discrete::DiscreteNet;
use crate::error::NetworkError;
use crate::schedule::Schedule;
use crate::topology::RailwayNetwork;
use crate::units::{Meters, Seconds};

/// A complete case study: network + schedule + resolutions + horizon.
///
/// The number of time steps is `t_max = horizon / r_t + 1`, i.e. the grid
/// `t_0 … t_{horizon/r_t}` covers the horizon *inclusively* so a deadline at
/// exactly the horizon is representable.
///
/// # Examples
///
/// ```
/// use etcs_network::fixtures;
/// let scenario = fixtures::running_example();
/// assert_eq!(scenario.t_max(), 11); // 5 min at 30 s per step, inclusive
/// assert_eq!(scenario.schedule.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Case-study name (used by the benchmark harness).
    pub name: String,
    /// The macroscopic network.
    pub network: RailwayNetwork,
    /// The train schedule.
    pub schedule: Schedule,
    /// Spatial resolution `r_s`.
    pub r_s: Meters,
    /// Temporal resolution `r_t`.
    pub r_t: Seconds,
    /// Scenario horizon (the real time the scenario spans).
    pub horizon: Seconds,
}

impl Scenario {
    /// Number of discrete time steps `t_max`.
    ///
    /// # Panics
    ///
    /// Panics if `r_t` is zero.
    pub fn t_max(&self) -> usize {
        assert!(
            self.r_t.as_u64() > 0,
            "temporal resolution must be positive"
        );
        (self.horizon.as_u64() / self.r_t.as_u64()) as usize + 1
    }

    /// Converts a wall-clock time to its time-step index, clamped into the
    /// grid (a deadline beyond the horizon becomes the last step).
    pub fn step_of(&self, time: Seconds) -> usize {
        let step = time.as_u64().saturating_add(self.r_t.as_u64() / 2) / self.r_t.as_u64();
        (step as usize).min(self.t_max() - 1)
    }

    /// The wall-clock time of a step.
    pub fn time_of(&self, step: usize) -> Seconds {
        Seconds(self.r_t.as_u64() * step as u64)
    }

    /// Discretises the network at this scenario's spatial resolution.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from [`DiscreteNet::new`].
    pub fn discretise(&self) -> Result<DiscreteNet, NetworkError> {
        DiscreteNet::new(&self.network, self.r_s)
    }

    /// Validates the schedule against the network.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from [`Schedule::validate`].
    pub fn validate(&self) -> Result<(), NetworkError> {
        self.schedule.validate(&self.network)
    }

    /// Returns a copy with all arrival deadlines dropped (the optimisation
    /// task's input).
    pub fn without_arrivals(&self) -> Scenario {
        Scenario {
            schedule: self.schedule.without_arrivals(),
            ..self.clone()
        }
    }

    /// Returns a copy where every run without an arrival deadline is given
    /// one at the scenario horizon.
    ///
    /// The synthetic generators emit open schedules (no deadlines); the
    /// verification and generation tasks need one per train to be
    /// well-defined, and "arrive by the end of the scenario" is the
    /// weakest deadline the time grid can express. Runs that already carry
    /// a deadline keep it.
    pub fn with_horizon_arrivals(&self) -> Scenario {
        let runs = self
            .schedule
            .runs()
            .iter()
            .map(|r| crate::TrainRun {
                arrival: r.arrival.or(Some(self.horizon)),
                ..r.clone()
            })
            .collect();
        Scenario {
            schedule: Schedule::new(runs),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn step_conversion_roundtrips() {
        let s = fixtures::running_example();
        assert_eq!(s.step_of(Seconds(0)), 0);
        assert_eq!(s.step_of(Seconds(30)), 1);
        assert_eq!(s.step_of(Seconds(270)), 9);
        assert_eq!(s.time_of(9), Seconds(270));
    }

    #[test]
    fn step_of_clamps_beyond_horizon() {
        let s = fixtures::running_example();
        assert_eq!(s.step_of(Seconds(10_000)), s.t_max() - 1);
        assert_eq!(s.step_of(Seconds(u64::MAX)), s.t_max() - 1);
    }

    #[test]
    fn step_of_rounds_to_nearest() {
        let s = fixtures::running_example();
        // 44 s is closer to step 1 (30 s) than step 2 (60 s).
        assert_eq!(s.step_of(Seconds(44)), 1);
        assert_eq!(s.step_of(Seconds(46)), 2);
    }

    #[test]
    fn without_arrivals_keeps_everything_else() {
        let s = fixtures::running_example();
        let open = s.without_arrivals();
        assert_eq!(open.t_max(), s.t_max());
        assert_eq!(open.schedule.len(), s.schedule.len());
        assert!(open.schedule.runs().iter().all(|r| r.arrival.is_none()));
    }

    #[test]
    fn fixture_scenarios_validate_and_discretise() {
        for s in [
            fixtures::running_example(),
            fixtures::simple_layout(),
            fixtures::complex_layout(),
        ] {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            s.discretise().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }
}
