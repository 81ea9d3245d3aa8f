//! The solve configurations the corpus is swept across.
//!
//! A [`SolveSetup`] names one way of running the optimisation task on a
//! corpus instance: the eager incremental loop, the lazy CEGAR loop, the
//! clause-sharing portfolio, or the eager loop over the certified
//! preprocessor. All four are proven verdict-equivalent by
//! `tests/corpus_equivalence.rs`; `bench_corpus` reports their
//! distributional behaviour per family.

use std::time::Duration;

use etcs_core::{
    optimize_incremental, DesignOutcome, EncoderConfig, Run, SolveMode, TaskError, TaskKind,
};
use etcs_lazy::SelectionStrategy;
use etcs_network::Scenario;

/// One solve configuration of the corpus sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveSetup {
    /// The eager incremental optimisation loop (`optimize_incremental`
    /// with the default encoder config).
    Eager,
    /// The lazy CEGAR loop (`etcs_lazy::run`, `AllViolated` selection).
    Lazy,
    /// The eager loop over a two-worker clause-sharing portfolio
    /// (`SolveMode::Portfolio(2)`).
    Portfolio,
    /// The eager loop with certified CNF preprocessing enabled.
    Preprocess,
}

impl SolveSetup {
    /// Every setup, in sweep order.
    pub const ALL: [SolveSetup; 4] = [
        SolveSetup::Eager,
        SolveSetup::Lazy,
        SolveSetup::Portfolio,
        SolveSetup::Preprocess,
    ];

    /// Stable lowercase name (artifact key).
    pub fn name(self) -> &'static str {
        match self {
            SolveSetup::Eager => "eager",
            SolveSetup::Lazy => "lazy",
            SolveSetup::Portfolio => "portfolio",
            SolveSetup::Preprocess => "preprocess",
        }
    }

    /// The encoder configuration this setup solves under. For
    /// [`SolveSetup::Lazy`] this is the default config (the selection
    /// strategy is the lazy loop's only knob of its own).
    pub fn encoder_config(self) -> EncoderConfig {
        match self {
            SolveSetup::Eager | SolveSetup::Lazy => EncoderConfig::default(),
            SolveSetup::Portfolio => {
                EncoderConfig::default().with_solve_mode(SolveMode::Portfolio(2))
            }
            SolveSetup::Preprocess => EncoderConfig::default().with_preprocess(true),
        }
    }

    /// Runs the optimisation task on `scenario` under this setup.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::Network`] if the scenario is malformed.
    pub fn optimize(self, scenario: &Scenario) -> Result<OptimizeOutcome, TaskError> {
        match self {
            SolveSetup::Lazy => {
                let (outcome, report) = etcs_lazy::run(
                    scenario,
                    &TaskKind::OptimizeIncremental,
                    &self.encoder_config(),
                    &Run::default(),
                    SelectionStrategy::AllViolated,
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
            _ => {
                let (outcome, report) = optimize_incremental(scenario, &self.encoder_config())?;
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
