//! Decoding SAT models back into designer artefacts: VSS layouts and
//! the movement plan of each train.

use etcs_network::{EdgeId, NodeId, VssLayout};
use etcs_sat::Model;

use crate::encoder::VarMap;
use crate::instance::Instance;

/// The movement of one train over the scenario, decoded from a model.
///
/// `positions[t]` is the set of occupied segments at step `t` (empty when
/// the train is off the network — before departure or after leaving).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainPlan {
    /// Train display name.
    pub name: String,
    /// Occupied segments per time step.
    pub positions: Vec<Vec<EdgeId>>,
}

impl TrainPlan {
    /// First step at which the train occupies one of the given goal edges.
    pub fn arrival_step(&self, goal: &[EdgeId]) -> Option<usize> {
        self.positions
            .iter()
            .position(|p| p.iter().any(|e| goal.contains(e)))
    }

    /// Last step at which the train occupies any segment.
    pub fn last_present_step(&self) -> Option<usize> {
        self.positions.iter().rposition(|p| !p.is_empty())
    }

    /// `true` if the train is on the network at step `t`.
    pub fn is_present(&self, t: usize) -> bool {
        self.positions.get(t).is_some_and(|p| !p.is_empty())
    }
}

/// Everything decoded from a satisfying assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolvedPlan {
    /// The VSS layout (virtual borders chosen by the solver, or the fixed
    /// layout for the verification task).
    pub layout: VssLayout,
    /// One movement plan per train, in schedule order.
    pub plans: Vec<TrainPlan>,
}

impl SolvedPlan {
    /// Decodes a model produced by solving an encoding of `inst`.
    pub fn decode(inst: &Instance, vars: &VarMap, model: &Model) -> Self {
        let borders: Vec<NodeId> = vars
            .border
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                v.and_then(|var| model.var_is_true(var).then(|| NodeId::from_index(i)))
            })
            .collect();
        let layout = VssLayout::with_borders(borders);

        let plans = inst
            .trains
            .iter()
            .enumerate()
            .map(|(tr, spec)| {
                let positions = (0..inst.t_max)
                    .map(|t| {
                        (0..inst.net.num_edges())
                            .map(EdgeId::from_index)
                            .filter(|&e| {
                                vars.occ_lit(tr, t, e).is_some_and(|l| model.lit_is_true(l))
                            })
                            .collect()
                    })
                    .collect();
                TrainPlan {
                    name: spec.name.clone(),
                    positions,
                }
            })
            .collect();

        SolvedPlan { layout, plans }
    }

    /// Completion time in steps: the step after the last arrival event
    /// (every train has reached its goal and either left or parked).
    ///
    /// This is the paper's "Time Steps" column: the number of time steps the
    /// schedule needs.
    pub fn completion_steps(&self, inst: &Instance) -> usize {
        let mut last = 0usize;
        for (plan, spec) in self.plans.iter().zip(&inst.trains) {
            let arrival = plan
                .arrival_step(&spec.goal_edges)
                .unwrap_or(inst.t_max - 1);
            last = last.max(arrival);
        }
        last + 1
    }

    /// Per-train arrival steps (first occupation of the goal).
    pub fn arrival_steps(&self, inst: &Instance) -> Vec<Option<usize>> {
        self.plans
            .iter()
            .zip(&inst.trains)
            .map(|(plan, spec)| plan.arrival_step(&spec.goal_edges))
            .collect()
    }

    /// Total number of sections (TTD + VSS) of the decoded layout — the
    /// paper's "TTD/VSS" column.
    pub fn section_count(&self, inst: &Instance) -> usize {
        self.layout.section_count(&inst.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(positions: Vec<Vec<u32>>) -> TrainPlan {
        TrainPlan {
            name: "t".into(),
            positions: positions
                .into_iter()
                .map(|p| p.into_iter().map(EdgeId).collect())
                .collect(),
        }
    }

    #[test]
    fn arrival_step_finds_first_goal_occupation() {
        let p = plan(vec![vec![0], vec![1], vec![2, 3], vec![]]);
        assert_eq!(p.arrival_step(&[EdgeId(3)]), Some(2));
        assert_eq!(p.arrival_step(&[EdgeId(9)]), None);
    }

    #[test]
    fn last_present_step_ignores_trailing_absence() {
        let p = plan(vec![vec![0], vec![1], vec![], vec![]]);
        assert_eq!(p.last_present_step(), Some(1));
        assert!(p.is_present(0));
        assert!(!p.is_present(3));
        assert!(!p.is_present(99));
    }

    #[test]
    fn empty_plan_has_no_arrival() {
        let p = plan(vec![vec![], vec![]]);
        assert_eq!(p.arrival_step(&[EdgeId(0)]), None);
        assert_eq!(p.last_present_step(), None);
    }
}
