//! Harness regenerating the paper's Table I (all four case studies ×
//! three design tasks) for the `table1` binary. The Fig. 1/2
//! running-example story is `examples/quickstart.rs`.

pub mod harness;

use std::fmt;
use std::time::Duration;

use etcs_core::{generate, optimize, verify, DesignOutcome, EncoderConfig, Instance};
use etcs_network::{Scenario, VssLayout};

/// The design task of a Table I row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Task {
    /// Schedule verification on the pure-TTD layout.
    Verification,
    /// VSS layout generation (minimal borders).
    Generation,
    /// Schedule optimisation (minimal completion, then borders).
    Optimization,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Task::Verification => "Verification",
            Task::Generation => "Generation",
            Task::Optimization => "Optimization",
        };
        write!(f, "{name}")
    }
}

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Row {
    /// The design task.
    pub task: Task,
    /// The paper's nominal variable count (`|Trains|·t_max·|E| + |V|`).
    pub nominal_vars: usize,
    /// Variables actually allocated after cone pruning.
    pub active_vars: usize,
    /// Was the instance satisfiable?
    pub sat: bool,
    /// Total TTD+VSS sections of the (resulting) layout.
    pub sections: usize,
    /// Time steps needed to complete the schedule (`None` for UNSAT rows).
    pub time_steps: Option<usize>,
    /// Wall-clock runtime of the whole task.
    pub runtime: Duration,
}

/// Runs the three Table I rows for one scenario.
///
/// # Panics
///
/// Panics if the scenario fails validation — the bundled fixtures never do.
pub fn run_scenario(scenario: &Scenario, config: &EncoderConfig) -> Vec<Row> {
    let inst = Instance::new(scenario).expect("bundled scenarios are valid");
    let pure = VssLayout::pure_ttd();
    let mut rows = Vec::with_capacity(3);

    let (outcome, report) = verify(scenario, &pure, config).expect("valid scenario");
    rows.push(Row {
        task: Task::Verification,
        nominal_vars: report.stats.nominal_vars,
        active_vars: report.stats.solver_vars,
        sat: outcome.is_feasible(),
        sections: pure.section_count(&inst.net),
        time_steps: outcome.plan().map(|p| p.completion_steps(&inst)),
        runtime: report.runtime,
    });

    let (outcome, report) = generate(scenario, config).expect("valid scenario");
    rows.push(Row {
        task: Task::Generation,
        nominal_vars: report.stats.nominal_vars,
        active_vars: report.stats.solver_vars,
        sat: outcome.plan().is_some(),
        sections: outcome
            .plan()
            .map(|p| p.section_count(&inst))
            .unwrap_or_else(|| pure.section_count(&inst.net)),
        time_steps: outcome.plan().map(|p| p.completion_steps(&inst)),
        runtime: report.runtime,
    });

    let (outcome, report) = optimize(scenario, config).expect("valid scenario");
    let open_inst = Instance::new(&scenario.without_arrivals()).expect("valid scenario");
    let steps = match &outcome {
        DesignOutcome::Solved { costs, .. } => Some(costs[0] as usize),
        DesignOutcome::Infeasible => None,
    };
    rows.push(Row {
        task: Task::Optimization,
        nominal_vars: report.stats.nominal_vars,
        active_vars: report.stats.solver_vars,
        sat: outcome.plan().is_some(),
        sections: outcome
            .plan()
            .map(|p| p.section_count(&open_inst))
            .unwrap_or_else(|| pure.section_count(&inst.net)),
        time_steps: steps,
        runtime: report.runtime,
    });

    rows
}

/// Formats rows in the paper's Table I layout.
pub fn render_table(scenario: &Scenario, rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} (r_t = {}, r_s = {} km)",
        scenario.name,
        scenario.r_t,
        scenario.r_s.as_km()
    );
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>5} {:>8} {:>11} {:>12}",
        "Task", "Var.", "Active", "Sat.", "TTD/VSS", "Time Steps", "Runtime [s]"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>5} {:>8} {:>11} {:>12.2}",
            r.task.to_string(),
            r.nominal_vars,
            r.active_vars,
            if r.sat { "Yes" } else { "No" },
            r.sections,
            r.time_steps
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            r.runtime.as_secs_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    #[test]
    fn running_example_rows_match_paper_shape() {
        let scenario = fixtures::running_example();
        let rows = run_scenario(&scenario, &EncoderConfig::default());
        assert_eq!(rows.len(), 3);
        assert!(!rows[0].sat, "verification on pure TTD is UNSAT");
        assert!(rows[1].sat, "generation succeeds");
        assert!(rows[2].sat, "optimisation succeeds");
        assert!(rows[1].sections > rows[0].sections);
        assert!(rows[2].time_steps <= rows[1].time_steps);
        assert!(rows[2].sections >= rows[1].sections);
    }

    #[test]
    fn render_contains_all_rows() {
        let scenario = fixtures::running_example();
        let rows = run_scenario(&scenario, &EncoderConfig::default());
        let table = render_table(&scenario, &rows);
        assert!(table.contains("Verification"));
        assert!(table.contains("Generation"));
        assert!(table.contains("Optimization"));
        assert!(table.contains("Running Example"));
    }
}

#[cfg(test)]
mod harness_tests {
    use super::*;
    use etcs_network::generator::{single_track_line, LineConfig};

    #[test]
    fn rows_on_a_generated_scenario() {
        // The harness works on arbitrary scenarios, not just the fixtures.
        let mut scenario = single_track_line(&LineConfig::default());
        // Give the runs deadlines so verification/generation are defined.
        let runs = scenario
            .schedule
            .runs()
            .iter()
            .map(|r| etcs_network::TrainRun {
                arrival: Some(scenario.horizon),
                ..r.clone()
            })
            .collect();
        scenario.schedule = etcs_network::Schedule::new(runs);
        let rows = run_scenario(&scenario, &EncoderConfig::default());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.nominal_vars > 0);
            assert!(r.sections >= 1);
        }
        // Generation/optimization verdicts agree when the schedule's only
        // deadline is the horizon itself.
        assert_eq!(rows[1].sat, rows[2].sat);
    }

    #[test]
    fn task_display_names() {
        assert_eq!(Task::Verification.to_string(), "Verification");
        assert_eq!(Task::Generation.to_string(), "Generation");
        assert_eq!(Task::Optimization.to_string(), "Optimization");
    }
}
