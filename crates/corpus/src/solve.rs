//! The solve configurations the corpus is swept across.
//!
//! A [`SolveSetup`] names one way of running the optimisation task on a
//! corpus instance: the eager incremental loop or the lazy CEGAR loop.
//! Both are proven verdict-equivalent by `tests/corpus_equivalence.rs`;
//! `bench_corpus` reports their distributional behaviour per family.

use std::time::Duration;

use etcs_core::{optimize_incremental, DesignOutcome, EncoderConfig, Run, TaskError, TaskKind};
use etcs_network::Scenario;

/// One solve configuration of the corpus sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveSetup {
    /// The eager incremental optimisation loop (`optimize_incremental`
    /// with the default encoder config).
    Eager,
    /// The lazy CEGAR loop (`etcs_lazy::run`).
    Lazy,
}

impl SolveSetup {
    /// Every setup, in sweep order.
    pub const ALL: [SolveSetup; 2] = [SolveSetup::Eager, SolveSetup::Lazy];

    /// Stable lowercase name (artifact key).
    pub fn name(self) -> &'static str {
        match self {
            SolveSetup::Eager => "eager",
            SolveSetup::Lazy => "lazy",
        }
    }

    /// Runs the optimisation task on `scenario` under this setup, with
    /// the default encoder configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::Network`] if the scenario is malformed.
    pub fn optimize(self, scenario: &Scenario) -> Result<OptimizeOutcome, TaskError> {
        let config = EncoderConfig::default();
        match self {
            SolveSetup::Lazy => {
                let (outcome, report) = etcs_lazy::run(
                    scenario,
                    &TaskKind::OptimizeIncremental,
                    &config,
                    &Run::default(),
                )?;
                Ok(OptimizeOutcome {
                    outcome,
                    // The lazy loop starts from a relaxation: its clause
                    // mass is the relaxed encoding plus every refinement.
                    clauses: report.report.stats.clauses + report.clauses_added,
                    runtime: report.report.runtime,
                    solver_calls: report.report.solver_calls,
                })
            }
            SolveSetup::Eager => {
                let (outcome, report) = optimize_incremental(scenario, &config)?;
                Ok(OptimizeOutcome {
                    outcome,
                    clauses: report.stats.clauses,
                    runtime: report.runtime,
                    solver_calls: report.solver_calls,
                })
            }
        }
    }
}

/// What one [`SolveSetup::optimize`] run produced.
#[derive(Debug)]
pub struct OptimizeOutcome {
    /// The task outcome (plan + proven optima, or infeasible).
    pub outcome: DesignOutcome,
    /// Clause mass the run pushed through the solver (for the lazy loop:
    /// relaxed encoding plus refinement clauses).
    pub clauses: usize,
    /// Wall-clock time spent encoding and solving.
    pub runtime: Duration,
    /// Solver invocations the run made.
    pub solver_calls: usize,
}

impl OptimizeOutcome {
    /// `"solved"` or `"infeasible"` (artifact vocabulary).
    pub fn verdict(&self) -> &'static str {
        match self.outcome {
            DesignOutcome::Solved { .. } => "solved",
            DesignOutcome::Infeasible => "infeasible",
        }
    }

    /// The proven optimal costs, if solved.
    pub fn costs(&self) -> Option<&[u64]> {
        match &self.outcome {
            DesignOutcome::Solved { costs, .. } => Some(costs),
            DesignOutcome::Infeasible => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Family, InstanceSpec, SizeClass};

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            SolveSetup::ALL.into_iter().map(SolveSetup::name).collect();
        assert_eq!(names.len(), SolveSetup::ALL.len());
    }

    #[test]
    fn all_setups_agree_on_one_small_instance() {
        let scenario = InstanceSpec::new(Family::ConvoyChain, SizeClass::Small, 11).build();
        let outcomes: Vec<_> = SolveSetup::ALL
            .into_iter()
            .map(|s| s.optimize(&scenario).expect("valid corpus instance"))
            .collect();
        let baseline = &outcomes[0];
        for (setup, o) in SolveSetup::ALL.into_iter().zip(&outcomes).skip(1) {
            assert_eq!(o.verdict(), baseline.verdict(), "{}", setup.name());
            assert_eq!(o.costs(), baseline.costs(), "{}", setup.name());
            assert!(o.clauses > 0, "{}", setup.name());
        }
    }
}
