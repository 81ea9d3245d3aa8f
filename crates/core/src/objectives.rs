//! Alternative optimisation objectives (Section III-C of the paper).
//!
//! The paper notes that "efficient" can be interpreted in different ways
//! and that the symbolic formulation accommodates any of them by swapping
//! the objective function. [`crate::optimize`] implements the paper's
//! headline choice (minimum number of time steps until everything is
//! done); this module adds the other interpretation the paper mentions:
//! every individual train should reach its final stop as fast as possible,
//! i.e. minimise the *sum of travel times*.

use std::time::Instant;

use etcs_network::{NetworkError, Scenario};
use etcs_sat::{maxsat, Lit, Objective, Strategy};

use crate::decode::SolvedPlan;
use crate::encoder::{encode, EncoderConfig, TaskKind};
use crate::instance::Instance;
use crate::tasks::{DesignOutcome, TaskReport};

/// *Schedule optimisation, per-train variant*: free the arrivals and
/// minimise the **total travel time** `Σ_tr (arrival_tr − departure_tr)`
/// in steps, then the number of VSS borders.
///
/// Because each `visited[tr]` chain is monotone, a train's travel time
/// equals the number of steps at which it has not yet visited its goal, so
/// the objective is a plain cardinality sum over `¬visited` literals.
///
/// Returns costs `[total_travel_steps, borders]`.
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
///
/// # Examples
///
/// ```
/// use etcs_core::{optimize_arrivals, DesignOutcome, EncoderConfig};
/// use etcs_network::fixtures;
///
/// let scenario = fixtures::running_example();
/// let (outcome, _) = optimize_arrivals(&scenario, &EncoderConfig::default())?;
/// let DesignOutcome::Solved { costs, .. } = outcome else { unreachable!() };
/// assert!(costs[0] > 0);
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn optimize_arrivals(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    let start = Instant::now();
    let open = scenario.without_arrivals();
    let inst = Instance::new(&open)?;
    let mut enc = encode(&inst, config, &TaskKind::Optimize);
    let stats = enc.stats;

    // Σ_tr #(steps after departure at which the goal is not yet visited).
    let cost_lits: Vec<Lit> = (0..inst.trains.len())
        .flat_map(|tr| {
            let dep = inst.trains[tr].dep_step;
            (dep..inst.t_max)
                .filter_map(|t| enc.vars.visited[tr][t].map(|l| !l))
                .collect::<Vec<_>>()
        })
        .collect();
    let travel_objective = Objective::count_of(cost_lits);
    let border_objective = enc.border_objective.clone();

    let result = maxsat::minimize_lex_full(
        &mut enc.solver,
        &[travel_objective, border_objective],
        Strategy::LinearSatUnsat,
    )
    .unwrap_or_else(|_| unreachable!("no interrupt is installed"));
    let (outcome, calls) = match result {
        Some(r) => {
            let plan = SolvedPlan::decode(&inst, &enc.vars, &r.model);
            (
                DesignOutcome::Solved {
                    plan,
                    costs: r.costs,
                },
                r.solver_calls,
            )
        }
        None => (DesignOutcome::Infeasible, 1),
    };
    Ok((
        outcome,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search: *enc.solver.stats(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use etcs_network::fixtures;

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    fn total_travel(inst: &Instance, plan: &SolvedPlan) -> usize {
        plan.arrival_steps(inst)
            .iter()
            .zip(&inst.trains)
            .map(|(a, spec)| a.expect("arrives") - spec.dep_step)
            .sum()
    }

    #[test]
    fn minimises_total_travel_on_running_example() {
        let scenario = fixtures::running_example();
        let open = scenario.without_arrivals();
        let inst = Instance::new(&open).expect("valid");

        let (by_arrivals, _) = optimize_arrivals(&scenario, &config()).expect("ok");
        let DesignOutcome::Solved { plan: pa, costs } = by_arrivals else {
            panic!("feasible");
        };
        // Reported cost equals the decoded total travel time.
        assert_eq!(costs[0] as usize, total_travel(&inst, &pa));

        // The completion-oriented optimum cannot have smaller total travel.
        let (by_completion, _) = optimize(&scenario, &config()).expect("ok");
        let pc = by_completion.plan().expect("feasible");
        assert!(total_travel(&inst, &pa) <= total_travel(&inst, pc));
    }

    #[test]
    fn plan_is_independently_valid() {
        let scenario = fixtures::running_example();
        let open = scenario.without_arrivals();
        let inst = Instance::new(&open).expect("valid");
        let (outcome, _) = optimize_arrivals(&scenario, &config()).expect("ok");
        let plan = outcome.plan().expect("feasible");
        // Every train still arrives; the decoded plan is well-formed.
        for a in plan.arrival_steps(&inst) {
            assert!(a.is_some());
        }
    }

    #[test]
    fn infeasible_scenarios_are_reported() {
        // A train that can never reach its goal: departure at the horizon.
        let mut scenario = fixtures::running_example();
        let mut runs = scenario.schedule.runs().to_vec();
        runs[0].departure = scenario.horizon;
        scenario.schedule = etcs_network::Schedule::new(runs);
        let (outcome, _) = optimize_arrivals(&scenario, &config()).expect("ok");
        assert!(matches!(outcome, DesignOutcome::Infeasible));
    }
}
