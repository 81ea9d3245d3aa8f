//! Scenario deltas and the live-scenario state they apply to.
//!
//! A [`ScenarioDelta`] is one operational event — a train slipping its
//! schedule, a segment closing, a deadline moving — and a
//! [`LiveScenario`] is a base scenario plus the cumulative effect of the
//! deltas accepted so far. Application is transactional: a delta either
//! produces a *valid* patched scenario (the network rebuilds, the
//! schedule still resolves, the instance still discretises) and commits,
//! or it is rejected with a [`DeltaError`] and the live state is
//! untouched.
//!
//! Node and station identities are stable across topology deltas: the
//! rebuilt network keeps every node and every station (in declaration
//! order), so `StationId`s held by schedule runs stay valid when tracks
//! close. A closure that would empty a TTD or a station is rejected —
//! that is an infrastructure change, not an operational delta.

use std::collections::BTreeSet;
use std::fmt;

use etcs_core::Instance;
use etcs_network::{
    KmPerHour, Meters, NetworkBuilder, Scenario, Schedule, Seconds, TrackId, Train, TrainRun,
};

/// One operational event in a replanning stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioDelta {
    /// Train `train` departs `by` seconds later; its arrival deadline and
    /// stop deadlines (where set) shift with it.
    Delay {
        /// Name of the delayed train.
        train: String,
        /// How much later everything on its run happens.
        by: Seconds,
    },
    /// Set (or clear, with `None`) train `train`'s arrival deadline.
    Deadline {
        /// Name of the train whose deadline moves.
        train: String,
        /// The new absolute arrival deadline, or `None` to free it.
        arrival: Option<Seconds>,
    },
    /// Close the track named `track`: it leaves the network entirely.
    Close {
        /// Name of the track to close.
        track: String,
    },
    /// Reopen a previously closed track.
    Reopen {
        /// Name of the track to reopen.
        track: String,
    },
    /// Remove train `train` (and its run) from the schedule.
    Remove {
        /// Name of the train to remove.
        train: String,
    },
    /// Add a new train with the given run.
    Add(DeltaRun),
}

impl ScenarioDelta {
    /// Stable lowercase name of the delta kind (obs/artifact vocabulary).
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioDelta::Delay { .. } => "delay",
            ScenarioDelta::Deadline { .. } => "deadline",
            ScenarioDelta::Close { .. } => "close",
            ScenarioDelta::Reopen { .. } => "reopen",
            ScenarioDelta::Remove { .. } => "remove",
            ScenarioDelta::Add(_) => "add",
        }
    }
}

/// The schedule entry an [`ScenarioDelta::Add`] introduces. Stations are
/// named, not id'd: they are resolved against the live network when the
/// delta is applied, so a trace file stays meaningful on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRun {
    /// New train's name (must not already be scheduled).
    pub train: String,
    /// Train length.
    pub length: Meters,
    /// Train maximum speed.
    pub max_speed: KmPerHour,
    /// Origin station name (must be a boundary station).
    pub origin: String,
    /// Destination station name.
    pub destination: String,
    /// Departure time.
    pub departure: Seconds,
    /// Optional arrival deadline.
    pub arrival: Option<Seconds>,
}

/// Why a delta was rejected. The live scenario is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError {
    /// Human-readable description of the rejection.
    pub message: String,
}

impl DeltaError {
    fn new(message: impl Into<String>) -> Self {
        DeltaError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta rejected: {}", self.message)
    }
}

impl std::error::Error for DeltaError {}

/// A base scenario plus the cumulative effect of every accepted delta.
#[derive(Clone, Debug)]
pub struct LiveScenario {
    base: Scenario,
    closed: BTreeSet<String>,
    runs: Vec<TrainRun>,
    current: Scenario,
}

impl LiveScenario {
    /// Starts a live scenario at `base`.
    ///
    /// # Errors
    ///
    /// Rejects a base that does not validate or discretise — a session
    /// must start from a solvable state.
    pub fn new(base: Scenario) -> Result<Self, DeltaError> {
        check(&base)?;
        let runs = base.schedule.runs().to_vec();
        Ok(LiveScenario {
            current: base.clone(),
            base,
            closed: BTreeSet::new(),
            runs,
        })
    }

    /// The current (patched) scenario.
    pub fn current(&self) -> &Scenario {
        &self.current
    }

    /// Names of currently closed tracks, in name order.
    pub fn closed(&self) -> impl Iterator<Item = &str> {
        self.closed.iter().map(String::as_str)
    }

    /// Applies one delta transactionally.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] — and leaves the live state unchanged — if
    /// the delta references unknown entities, would empty a TTD or
    /// station, or would leave a scenario that no longer validates or
    /// discretises.
    pub fn apply(&mut self, delta: &ScenarioDelta) -> Result<(), DeltaError> {
        let mut closed = self.closed.clone();
        let mut runs = self.runs.clone();
        match delta {
            ScenarioDelta::Delay { train, by } => {
                let shift = |t: Seconds| match t.as_u64().checked_add(by.as_u64()) {
                    Some(shifted) => Ok(Seconds(shifted)),
                    None => Err(DeltaError::new(format!(
                        "delaying `{train}` by {by} overflows the clock at {t}"
                    ))),
                };
                let run = find_run_mut(&mut runs, train)?;
                run.departure = shift(run.departure)?;
                if let Some(arr) = &mut run.arrival {
                    *arr = shift(*arr)?;
                }
                for (_, deadline) in &mut run.stops {
                    if let Some(d) = deadline {
                        *d = shift(*d)?;
                    }
                }
            }
            ScenarioDelta::Deadline { train, arrival } => {
                let run = find_run_mut(&mut runs, train)?;
                if let Some(arr) = arrival {
                    if arr.as_u64() < run.departure.as_u64() {
                        return Err(DeltaError::new(format!(
                            "deadline {arr} for `{train}` precedes its departure {}",
                            run.departure
                        )));
                    }
                }
                run.arrival = *arrival;
            }
            ScenarioDelta::Close { track } => {
                let exists = self.base.network.tracks().iter().any(|t| t.name == *track);
                if !exists {
                    return Err(DeltaError::new(format!("unknown track `{track}`")));
                }
                if !closed.insert(track.clone()) {
                    return Err(DeltaError::new(format!("track `{track}` already closed")));
                }
            }
            ScenarioDelta::Reopen { track } => {
                if !closed.remove(track) {
                    return Err(DeltaError::new(format!("track `{track}` is not closed")));
                }
            }
            ScenarioDelta::Remove { train } => {
                let before = runs.len();
                runs.retain(|r| r.train.name != *train);
                if runs.len() == before {
                    return Err(DeltaError::new(format!("unknown train `{train}`")));
                }
            }
            ScenarioDelta::Add(spec) => {
                if runs.iter().any(|r| r.train.name == spec.train) {
                    return Err(DeltaError::new(format!(
                        "train `{}` is already scheduled",
                        spec.train
                    )));
                }
                // Stations are resolved against the *base* network: the
                // rebuild keeps every station, so the ids transfer.
                let origin = self
                    .base
                    .network
                    .station_by_name(&spec.origin)
                    .ok_or_else(|| DeltaError::new(format!("unknown station `{}`", spec.origin)))?;
                let destination = self
                    .base
                    .network
                    .station_by_name(&spec.destination)
                    .ok_or_else(|| {
                        DeltaError::new(format!("unknown station `{}`", spec.destination))
                    })?;
                runs.push(TrainRun::new(
                    Train::new(&spec.train, spec.length, spec.max_speed),
                    origin,
                    destination,
                    spec.departure,
                    spec.arrival,
                ));
            }
        }
        let current = materialize(&self.base, &closed, &runs)?;
        check(&current)?;
        self.closed = closed;
        self.runs = runs;
        self.current = current;
        Ok(())
    }
}

fn find_run_mut<'a>(runs: &'a mut [TrainRun], train: &str) -> Result<&'a mut TrainRun, DeltaError> {
    runs.iter_mut()
        .find(|r| r.train.name == train)
        .ok_or_else(|| DeltaError::new(format!("unknown train `{train}`")))
}

/// Rebuilds the base network without the closed tracks and re-attaches
/// the schedule. Every node and every station survives (in declaration
/// order), so node and station ids are stable; track ids compact.
fn materialize(
    base: &Scenario,
    closed: &BTreeSet<String>,
    runs: &[TrainRun],
) -> Result<Scenario, DeltaError> {
    let network = if closed.is_empty() {
        base.network.clone()
    } else {
        let net = &base.network;
        let mut b = NetworkBuilder::new();
        b.nodes(net.num_nodes());
        let mut kept: Vec<Option<TrackId>> = Vec::with_capacity(net.tracks().len());
        for t in net.tracks() {
            if closed.contains(&t.name) {
                kept.push(None);
            } else {
                kept.push(Some(b.track(t.from, t.to, t.length, &t.name)));
            }
        }
        let survivors = |members: &[TrackId]| -> Vec<TrackId> {
            members.iter().filter_map(|t| kept[t.index()]).collect()
        };
        for ttd in net.ttds() {
            let members = survivors(&ttd.tracks);
            if members.is_empty() {
                return Err(DeltaError::new(format!(
                    "closing every track of ttd `{}` is an infrastructure change, not a delta",
                    ttd.name
                )));
            }
            b.ttd(&ttd.name, members);
        }
        for station in net.stations() {
            let members = survivors(&station.tracks);
            if members.is_empty() {
                return Err(DeltaError::new(format!(
                    "closure would leave station `{}` without tracks",
                    station.name
                )));
            }
            b.station(&station.name, members, station.boundary);
        }
        b.build()
            .map_err(|e| DeltaError::new(format!("patched network invalid: {e}")))?
    };
    Ok(Scenario {
        name: base.name.clone(),
        network,
        schedule: Schedule::new(runs.to_vec()),
        r_s: base.r_s,
        r_t: base.r_t,
        horizon: base.horizon,
    })
}

/// A patched scenario must still validate *and* discretise: a delta that
/// strands a train (no path from origin to destination) is rejected at
/// apply time instead of poisoning every later tick.
fn check(scenario: &Scenario) -> Result<(), DeltaError> {
    scenario
        .validate()
        .map_err(|e| DeltaError::new(format!("patched scenario invalid: {e}")))?;
    Instance::new(&scenario.without_arrivals())
        .map_err(|e| DeltaError::new(format!("patched scenario does not discretise: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    fn live() -> LiveScenario {
        LiveScenario::new(fixtures::running_example()).expect("valid base")
    }

    #[test]
    fn delay_shifts_departure_and_deadlines() {
        let mut l = live();
        let name = l.current().schedule.runs()[0].train.name.clone();
        let before = l.current().schedule.runs()[0].clone();
        l.apply(&ScenarioDelta::Delay {
            train: name,
            by: Seconds(60),
        })
        .expect("accepted");
        let after = &l.current().schedule.runs()[0];
        assert_eq!(after.departure.as_u64(), before.departure.as_u64() + 60);
        match (before.arrival, after.arrival) {
            (Some(b), Some(a)) => assert_eq!(a.as_u64(), b.as_u64() + 60),
            (None, None) => {}
            other => panic!("arrival deadline changed shape: {other:?}"),
        }
    }

    #[test]
    fn a_delay_past_the_clock_is_rejected_without_state_change() {
        let mut l = live();
        let before = l.current().schedule.clone();
        let name = before.runs()[0].train.name.clone();
        let err = l
            .apply(&ScenarioDelta::Delay {
                train: name,
                by: Seconds(u64::MAX),
            })
            .expect_err("rejected");
        assert!(err.message.contains("overflows the clock"), "{err}");
        assert_eq!(l.current().schedule, before);
    }

    #[test]
    fn deadline_sets_and_clears() {
        let mut l = live();
        let name = l.current().schedule.runs()[0].train.name.clone();
        l.apply(&ScenarioDelta::Deadline {
            train: name.clone(),
            arrival: Some(Seconds(290)),
        })
        .expect("accepted");
        assert_eq!(l.current().schedule.runs()[0].arrival, Some(Seconds(290)));
        l.apply(&ScenarioDelta::Deadline {
            train: name,
            arrival: None,
        })
        .expect("accepted");
        assert_eq!(l.current().schedule.runs()[0].arrival, None);
    }

    #[test]
    fn deadline_before_departure_is_rejected() {
        let mut l = live();
        let run = &l.current().schedule.runs()[0];
        let name = run.train.name.clone();
        let dep = run.departure;
        if dep.as_u64() == 0 {
            // Can't precede a zero departure; delay the train first.
            l.apply(&ScenarioDelta::Delay {
                train: name.clone(),
                by: Seconds(30),
            })
            .expect("accepted");
        }
        let err = l
            .apply(&ScenarioDelta::Deadline {
                train: name,
                arrival: Some(Seconds(0)),
            })
            .expect_err("rejected");
        assert!(err.message.contains("precedes"), "{err}");
    }

    #[test]
    fn unknown_entities_are_rejected_without_state_change() {
        let mut l = live();
        let before = l.current().clone();
        for delta in [
            ScenarioDelta::Delay {
                train: "ghost".into(),
                by: Seconds(1),
            },
            ScenarioDelta::Close {
                track: "ghost".into(),
            },
            ScenarioDelta::Reopen {
                track: "ghost".into(),
            },
            ScenarioDelta::Remove {
                train: "ghost".into(),
            },
        ] {
            l.apply(&delta).expect_err("rejected");
        }
        assert_eq!(l.current().network, before.network);
        assert_eq!(l.current().schedule, before.schedule);
    }

    #[test]
    fn close_then_reopen_restores_the_network() {
        let mut l = live();
        let before = l.current().network.clone();
        // Find a track whose closure is accepted (does not empty a TTD
        // or station, does not strand a train).
        let names: Vec<String> = before.tracks().iter().map(|t| t.name.clone()).collect();
        let mut closed = None;
        for name in names {
            if l.apply(&ScenarioDelta::Close {
                track: name.clone(),
            })
            .is_ok()
            {
                closed = Some(name);
                break;
            }
        }
        let closed = closed.expect("some track of the running example is closable");
        assert_ne!(l.current().network, before, "closure changed the network");
        assert_eq!(l.closed().count(), 1);
        l.apply(&ScenarioDelta::Reopen { track: closed })
            .expect("accepted");
        assert_eq!(
            l.current().network,
            before,
            "reopen restores the exact network (ids and all)"
        );
    }

    #[test]
    fn remove_then_add_roundtrips_the_schedule_tail() {
        let mut l = live();
        let run = l.current().schedule.runs()[0].clone();
        let name = run.train.name.clone();
        l.apply(&ScenarioDelta::Remove {
            train: name.clone(),
        })
        .expect("accepted");
        assert!(l
            .current()
            .schedule
            .runs()
            .iter()
            .all(|r| r.train.name != name));
        let net = &l.current().network;
        let origin = net.stations()[run.origin.index()].name.clone();
        let destination = net.stations()[run.destination.index()].name.clone();
        l.apply(&ScenarioDelta::Add(DeltaRun {
            train: name.clone(),
            length: run.train.length,
            max_speed: run.train.max_speed,
            origin,
            destination,
            departure: run.departure,
            arrival: run.arrival,
        }))
        .expect("accepted");
        let added = l.current().schedule.runs().last().unwrap().clone();
        assert_eq!(added.train, run.train);
        assert_eq!(added.origin, run.origin);
        assert_eq!(added.destination, run.destination);
    }

    #[test]
    fn double_close_is_rejected() {
        let mut l = live();
        let name = l.current().network.tracks()[0].name.clone();
        if l.apply(&ScenarioDelta::Close {
            track: name.clone(),
        })
        .is_ok()
        {
            let err = l
                .apply(&ScenarioDelta::Close { track: name })
                .expect_err("rejected");
            assert!(err.message.contains("already closed"), "{err}");
        }
    }
}
