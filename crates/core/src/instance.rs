//! Problem instances: a scenario lifted onto the discrete grid, with all
//! per-train data and distance tables the encoder needs.

use etcs_network::{DiscreteNet, EdgeId, NetworkError, Scenario, TrainId};

/// What happens when a train completes its run (pinned-down semantics the
//  paper leaves informal; see DESIGN.md §3).
/// Exit behaviour of a train at its destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitPolicy {
    /// The destination is a boundary station: the train leaves the modelled
    /// network and stops occupying track.
    Leave,
    /// The destination is interior: the train parks on a destination track
    /// and keeps occupying it until the end of the scenario.
    Park,
}

/// Discrete per-train data.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    /// Dense train id (index into [`Instance::trains`]).
    pub id: TrainId,
    /// Display name.
    pub name: String,
    /// Departure time step.
    pub dep_step: usize,
    /// Arrival deadline step (`None` for the optimisation task).
    pub deadline_step: Option<usize>,
    /// Segments the train occupies (`l*` of the paper, ≥ 1).
    pub length: usize,
    /// Segments the train may advance per step (`v*`, ≥ 1).
    pub speed: u32,
    /// Edges of the origin station.
    pub origin_edges: Vec<EdgeId>,
    /// Edges of the destination station.
    pub goal_edges: Vec<EdgeId>,
    /// Intermediate stops: edges and optional deadline steps.
    pub stops: Vec<(Vec<EdgeId>, Option<usize>)>,
    /// Exit behaviour at the destination.
    pub exit: ExitPolicy,
}

/// A scenario prepared for encoding: discrete network, per-train specs and
/// the all-pairs segment distance table.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The source scenario.
    pub scenario: Scenario,
    /// The discretised network.
    pub net: DiscreteNet,
    /// Number of time steps.
    pub t_max: usize,
    /// Per-train discrete data.
    pub trains: Vec<TrainSpec>,
    /// `dist[e][f]` = line-graph hop distance, `None` if disconnected.
    dist: Vec<Vec<Option<u32>>>,
}

impl Instance {
    /// Prepares a scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from validation and discretisation, and
    /// reports dangling station references.
    pub fn new(scenario: &Scenario) -> Result<Self, NetworkError> {
        scenario.validate()?;
        let net = scenario.discretise()?;
        let t_max = scenario.t_max();

        let mut trains = Vec::new();
        for (id, run) in scenario.schedule.iter() {
            let origin_edges = net.station_edges(run.origin).to_vec();
            let goal_edges = net.station_edges(run.destination).to_vec();
            if origin_edges.is_empty() || goal_edges.is_empty() {
                return Err(NetworkError::UnknownReference {
                    what: format!(
                        "train `{}` starts or ends at a station with no tracks",
                        run.train.name
                    ),
                });
            }
            let stops = run
                .stops
                .iter()
                .map(|&(s, deadline)| {
                    (
                        net.station_edges(s).to_vec(),
                        deadline.map(|d| scenario.step_of(d)),
                    )
                })
                .collect();
            let exit = if scenario.network.stations()[run.destination.index()].boundary {
                ExitPolicy::Leave
            } else {
                ExitPolicy::Park
            };
            trains.push(TrainSpec {
                id,
                name: run.train.name.clone(),
                dep_step: scenario.step_of(run.departure),
                deadline_step: run.arrival.map(|a| scenario.step_of(a)),
                length: run.train.discrete_length(scenario.r_s) as usize,
                // Any speed past the network's size moves a train the
                // same way, so a huge one saturates.
                speed: u32::try_from(run.train.discrete_speed(scenario.r_s, scenario.r_t))
                    .unwrap_or(u32::MAX),
                origin_edges,
                goal_edges,
                stops,
                exit,
            });
        }

        let dist = (0..net.num_edges())
            .map(|e| net.edge_distances(EdgeId::from_index(e)))
            .collect();

        Ok(Instance {
            scenario: scenario.clone(),
            net,
            t_max,
            trains,
            dist,
        })
    }

    /// Hop distance between two segments.
    pub fn dist(&self, e: EdgeId, f: EdgeId) -> Option<u32> {
        self.dist[e.index()][f.index()]
    }

    /// Minimum hop distance from a segment to any segment of a set.
    pub fn dist_to_set(&self, e: EdgeId, set: &[EdgeId]) -> Option<u32> {
        set.iter().filter_map(|&g| self.dist(e, g)).min()
    }

    /// The edges train `tr` may legally occupy at step `t` — the
    /// *time–space cone*: reachable from the origin in the elapsed steps and
    /// (when `prune_to_goal`) still able to make its deadline. Trains longer
    /// than one segment get a `length - 1` slack on both sides because the
    /// cone is evaluated per occupied segment, not per train front.
    ///
    /// The pruning is sound: a removed `occupies` variable is 0 in every
    /// plan satisfying the movement and deadline constraints.
    pub fn active_edges(&self, tr: &TrainSpec, t: usize, prune_to_goal: bool) -> Vec<EdgeId> {
        if t < tr.dep_step {
            return Vec::new();
        }
        let slack = (tr.length - 1) as u32;
        let elapsed = (t - tr.dep_step) as u32;
        let from_origin = tr.speed.saturating_mul(elapsed).saturating_add(slack);
        let deadline = tr.deadline_step.unwrap_or(self.t_max - 1);
        let remaining = deadline.saturating_sub(t) as u32;
        let to_goal = tr.speed.saturating_mul(remaining).saturating_add(slack);
        (0..self.net.num_edges())
            .map(EdgeId::from_index)
            .filter(|&e| {
                let o = self.dist_to_set(e, &tr.origin_edges);
                if !matches!(o, Some(d) if d <= from_origin) {
                    return false;
                }
                if prune_to_goal {
                    let g = self.dist_to_set(e, &tr.goal_edges);
                    if !matches!(g, Some(d) if d <= to_goal) {
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    /// Sets every train's arrival deadline to step `d` (used by the
    /// shrinking-horizon optimisation search).
    pub fn set_uniform_deadline(&mut self, d: usize) {
        for tr in &mut self.trains {
            tr.deadline_step = Some(d);
        }
    }

    /// A lower bound on the step by which train `tr` can first reach its
    /// goal: departure plus unobstructed travel time.
    pub fn earliest_arrival(&self, tr: &TrainSpec) -> Option<usize> {
        let hops = tr
            .origin_edges
            .iter()
            .filter_map(|&o| self.dist_to_set(o, &tr.goal_edges))
            .min()?;
        Some(tr.dep_step + (hops as usize).div_ceil(tr.speed as usize))
    }

    /// A lower bound on the smallest uniform arrival deadline any plan can
    /// meet: the latest [`earliest_arrival`](Self::earliest_arrival) over
    /// all trains (a train with no path to its goal contributes the horizon
    /// end). The optimisation searches start their deadline walk here.
    pub fn completion_lower_bound(&self) -> usize {
        self.trains
            .iter()
            .map(|tr| self.earliest_arrival(tr).unwrap_or(self.t_max - 1))
            .max()
            .unwrap_or(0)
    }

    /// The paper's nominal variable count (`|Trains| · t_max · |E|` occupancy
    /// variables plus one border variable per node that could carry one) —
    /// the "Var." column of Table I.
    pub fn nominal_var_count(&self) -> usize {
        self.trains.len() * self.t_max * self.net.num_edges()
            + self.net.border_candidates().len()
            + self.net.forced_borders().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    #[test]
    fn running_example_instance() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        assert_eq!(inst.trains.len(), 4);
        assert_eq!(inst.t_max, 11);
        let t1 = &inst.trains[0];
        assert_eq!(t1.dep_step, 0);
        assert_eq!(t1.deadline_step, Some(9));
        assert_eq!(t1.speed, 3);
        assert_eq!(t1.length, 1);
        assert_eq!(t1.exit, ExitPolicy::Leave);
        let t3 = &inst.trains[2];
        assert_eq!(t3.exit, ExitPolicy::Park, "station C is interior");
        assert_eq!(t3.goal_edges.len(), 2, "both C platform tracks");
    }

    #[test]
    fn a_huge_time_resolution_saturates_the_discrete_speed() {
        let text = include_str!("../../../scenarios/branch_line.rail")
            .replace("\nrt 30\n", "\nrt 4000000000000000\n");
        let scenario = etcs_network::parse_scenario(&text).expect("parses");
        let inst = Instance::new(&scenario).expect("valid");
        assert_eq!(inst.trains.len(), 2);
        for train in &inst.trains {
            assert_eq!(train.speed, u32::MAX, "{}", train.name);
        }
    }

    #[test]
    fn distances_symmetric_and_zero_on_diagonal() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let n = inst.net.num_edges();
        for e in 0..n {
            let e = EdgeId::from_index(e);
            assert_eq!(inst.dist(e, e), Some(0));
            for f in 0..n {
                let f = EdgeId::from_index(f);
                assert_eq!(inst.dist(e, f), inst.dist(f, e));
            }
        }
    }

    #[test]
    fn cone_grows_with_time() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let tr = &inst.trains[0];
        let c0 = inst.active_edges(tr, 0, false);
        let c1 = inst.active_edges(tr, 1, false);
        assert!(c0.len() <= c1.len());
        // At departure the train is at (or spilling out of) its origin.
        assert!(!c0.is_empty());
        for e in &c0 {
            let d = inst.dist_to_set(*e, &tr.origin_edges).expect("connected");
            assert!(d <= (tr.length - 1) as u32);
        }
    }

    #[test]
    fn cone_is_empty_before_departure() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let t3 = &inst.trains[2];
        assert_eq!(t3.dep_step, 2);
        assert!(inst.active_edges(t3, 0, false).is_empty());
        assert!(inst.active_edges(t3, 1, false).is_empty());
        assert!(!inst.active_edges(t3, 2, false).is_empty());
    }

    #[test]
    fn goal_pruning_shrinks_late_cones() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let tr = &inst.trains[0]; // deadline step 9
        let unpruned = inst.active_edges(tr, 9, false);
        let pruned = inst.active_edges(tr, 9, true);
        assert!(pruned.len() < unpruned.len());
        // At the deadline the pruned cone hugs the goal.
        for e in &pruned {
            let d = inst.dist_to_set(*e, &tr.goal_edges).expect("connected");
            assert!(d <= (tr.length - 1) as u32);
        }
    }

    #[test]
    fn nominal_var_count_formula() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let expected = 4 * 11 * inst.net.num_edges()
            + inst.net.border_candidates().len()
            + inst.net.forced_borders().len();
        assert_eq!(inst.nominal_var_count(), expected);
    }
}
