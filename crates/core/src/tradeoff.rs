//! Border-budget trade-off analysis: how fast can the traffic run with at
//! most `K` virtual borders?
//!
//! Every VSS border is free of trackside hardware but still carries
//! engineering cost (supervision limits, braking-curve management), so
//! designers want the *Pareto front* between layout size and schedule
//! quality. This module runs the shrinking-horizon optimisation under a
//! border-count cap, and sweeps the cap to produce the full curve.

use std::time::Instant;

use etcs_network::{NetworkError, Scenario};
use etcs_sat::{CnfSink, SatResult, Totalizer};

use crate::decode::SolvedPlan;
use crate::encoder::{encode, EncoderConfig, EncodingStats, TaskKind};
use crate::instance::Instance;
use crate::tasks::{DesignOutcome, TaskReport};

/// Like [`crate::optimize`] but with at most `max_borders` virtual borders.
///
/// Returns costs `[completion_steps, borders_used]`; `borders_used` is the
/// count in the returned plan (≤ `max_borders`), not separately minimised.
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
///
/// # Examples
///
/// ```
/// use etcs_core::{optimize_with_budget, DesignOutcome, EncoderConfig};
/// use etcs_network::fixtures;
///
/// let scenario = fixtures::running_example();
/// // Budget 0 = pure TTD: the running example cannot complete at all.
/// let (outcome, _) = optimize_with_budget(&scenario, &EncoderConfig::default(), 0)?;
/// assert!(matches!(outcome, DesignOutcome::Infeasible));
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn optimize_with_budget(
    scenario: &Scenario,
    config: &EncoderConfig,
    max_borders: usize,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    let start = Instant::now();
    let open = scenario.without_arrivals();
    let mut inst = Instance::new(&open)?;
    let mut calls = 0usize;

    let max_deadline = inst.t_max - 1;
    let lower = inst.completion_lower_bound().min(max_deadline);

    let probe =
        |inst: &mut Instance, d: usize| -> (Option<SolvedPlan>, EncodingStats, etcs_sat::Stats) {
            inst.set_uniform_deadline(d);
            let mut enc = encode(inst, config, &TaskKind::Generate);
            // Cap the border count.
            let border_lits: Vec<_> = enc
                .vars
                .border
                .iter()
                .filter_map(|v| v.map(etcs_sat::Var::positive))
                .collect();
            if max_borders < border_lits.len() {
                if max_borders == 0 {
                    for l in &border_lits {
                        enc.solver.assert_false(*l);
                    }
                } else {
                    let tot = Totalizer::build(&mut enc.solver, border_lits);
                    if let Some(bound) = tot.at_most(max_borders) {
                        enc.solver.assert_true(bound);
                    }
                }
            }
            let plan = match enc.solver.solve() {
                SatResult::Sat(model) => Some(SolvedPlan::decode(inst, &enc.vars, &model)),
                SatResult::Unsat { .. } => None,
                SatResult::Unknown => unreachable!("no interrupt is installed"),
            };
            (plan, enc.stats, *enc.solver.stats())
        };

    let mut last_stats = EncodingStats::default();
    let mut search = etcs_sat::Stats::default();
    for d in lower..=max_deadline {
        calls += 1;
        let (plan, stats, probe_search) = probe(&mut inst, d);
        last_stats = stats;
        search += &probe_search;
        if let Some(plan) = plan {
            let borders = plan.layout.num_borders() as u64;
            return Ok((
                DesignOutcome::Solved {
                    plan,
                    costs: vec![d as u64 + 1, borders],
                },
                TaskReport {
                    stats: last_stats,
                    runtime: start.elapsed(),
                    solver_calls: calls,
                    search,
                },
            ));
        }
    }
    Ok((
        DesignOutcome::Infeasible,
        TaskReport {
            stats: last_stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search,
        },
    ))
}

/// One point of the border/completion Pareto front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TradeoffPoint {
    /// Border budget this point was computed with.
    pub max_borders: usize,
    /// Optimal completion steps under that budget (`None` = infeasible).
    pub completion_steps: Option<usize>,
}

/// Sweeps border budgets `0..=max_budget` and reports the optimal
/// completion time for each — the designer's cost/benefit curve for
/// ETCS Level 3 deployment.
///
/// The curve is monotone: more borders never hurt. The sweep stops early
/// once an extra border no longer improves completion (the remaining
/// points would repeat the same value).
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
pub fn border_tradeoff(
    scenario: &Scenario,
    config: &EncoderConfig,
    max_budget: usize,
) -> Result<Vec<TradeoffPoint>, NetworkError> {
    let mut curve = Vec::new();
    let mut unconstrained: Option<usize> = None;
    for budget in 0..=max_budget {
        let (outcome, _) = optimize_with_budget(scenario, config, budget)?;
        let steps = match outcome {
            DesignOutcome::Solved { costs, .. } => Some(costs[0] as usize),
            DesignOutcome::Infeasible => None,
        };
        curve.push(TradeoffPoint {
            max_borders: budget,
            completion_steps: steps,
        });
        // Converged once the unconstrained optimum is reached.
        if let Some(steps) = steps {
            let unconstrained = *unconstrained.get_or_insert_with(|| {
                crate::optimize(scenario, config)
                    .ok()
                    .and_then(|(o, _)| match o {
                        DesignOutcome::Solved { costs, .. } => Some(costs[0] as usize),
                        DesignOutcome::Infeasible => None,
                    })
                    .unwrap_or(0)
            });
            if steps <= unconstrained {
                break;
            }
        }
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    #[test]
    fn zero_budget_equals_pure_ttd() {
        let scenario = fixtures::running_example();
        let (outcome, _) = optimize_with_budget(&scenario, &config(), 0).expect("ok");
        assert!(matches!(outcome, DesignOutcome::Infeasible));
    }

    #[test]
    fn large_budget_matches_unconstrained_optimum() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let budget = inst.net.border_candidates().len();
        let (capped, _) = optimize_with_budget(&scenario, &config(), budget).expect("ok");
        let (free, _) = crate::optimize(&scenario, &config()).expect("ok");
        let (DesignOutcome::Solved { costs: a, .. }, DesignOutcome::Solved { costs: b, .. }) =
            (capped, free)
        else {
            panic!("both feasible");
        };
        assert_eq!(a[0], b[0], "full budget reaches the unconstrained optimum");
    }

    #[test]
    fn budget_respects_the_cap() {
        let scenario = fixtures::running_example();
        for budget in 1..=3usize {
            let (outcome, _) = optimize_with_budget(&scenario, &config(), budget).expect("ok");
            if let DesignOutcome::Solved { plan, costs } = outcome {
                assert!(plan.layout.num_borders() <= budget);
                assert_eq!(costs[1] as usize, plan.layout.num_borders());
            }
        }
    }

    #[test]
    fn tradeoff_curve_is_monotone() {
        let scenario = fixtures::running_example();
        let curve = border_tradeoff(&scenario, &config(), 5).expect("ok");
        assert!(!curve.is_empty());
        assert_eq!(curve[0].completion_steps, None, "budget 0 infeasible");
        let mut best = usize::MAX;
        for p in &curve {
            if let Some(s) = p.completion_steps {
                assert!(s <= best, "more borders must not slow completion");
                best = s;
            }
        }
        // With enough borders the schedule completes.
        assert!(curve.iter().any(|p| p.completion_steps.is_some()));
    }
}
