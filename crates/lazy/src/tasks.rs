//! The lazy task loops behind [`run`], the lazy counterpart of
//! [`etcs_core::run`]: verification, layout generation and schedule
//! optimisation, each a CEGAR loop over the same encoder.
//!
//! Every loop follows the same CEGAR skeleton on one persistent
//! incremental solver:
//!
//! 1. encode the *relaxed* formula (`encode_with` + a [`ConstraintFamilies`]
//!    mask deferring separation/collision);
//! 2. solve; UNSAT of the relaxation is final UNSAT (the relaxation is a
//!    subset of the full formula, so its unsatisfiability transfers);
//! 3. decode the candidate plan and run the violation detector;
//! 4. no violations: the model satisfies the full eager semantics — done,
//!    with a final bit-check against `etcs-sim`'s validator;
//! 5. otherwise encode the selected violated instances as blocking clauses
//!    and go to 2. Termination: each round adds a clause the current model
//!    falsifies, and the instance space is finite.

use std::time::Instant;

use etcs_core::{
    minimize_borders, ConstraintFamilies, DesignOutcome, EncoderConfig, Encoding, Instance, Run,
    SolvedPlan, Stage2, TaskError, TaskKind, TaskReport,
};
use etcs_network::{Scenario, VssLayout};
use etcs_obs::{Obs, Span};
use etcs_sat::SatResult;

use crate::detect::detect;
use crate::refine::{refine, RefineState, SelectionStrategy};

/// The families every lazy loop defers to the refinement rounds: all
/// three pairwise ones (shared-segment exclusion, same-TTD separation and
/// no-passing sweeps).
const DEFERRED: ConstraintFamilies = ConstraintFamilies::CORE_ONLY;

/// A [`TaskReport`] plus the lazy loop's own counters.
#[derive(Debug)]
pub struct LazyReport {
    /// The usual encoding/search statistics (the `stats` field describes
    /// the *relaxed* encoding before refinement).
    pub report: TaskReport,
    /// CEGAR rounds run (SAT answers inspected by the detector, plus — for
    /// optimisation — the UNSAT deadline probes).
    pub rounds: usize,
    /// Blocking clauses added across all refinement rounds.
    pub clauses_added: usize,
}

/// Final bit-check: a fixpoint plan must pass the eager validator. Skipped
/// when `allow_immediate_reoccupation` is on, because `etcs-sim` implements
/// the paper-literal pass-through rule (endpoints included in the swept
/// path) and would reject plans the eager *encoder* accepts under that
/// config — the check would compare against the wrong oracle.
fn bit_check(inst: &Instance, plan: &SolvedPlan, enforce_deadlines: bool, config: &EncoderConfig) {
    if config.allow_immediate_reoccupation {
        return;
    }
    let report = etcs_sim::validate(inst, plan, enforce_deadlines);
    assert!(
        report.is_valid(),
        "lazy fixpoint plan failed eager validation: {:?}",
        report.violations
    );
}

/// Shared per-round bookkeeping for the three loops.
struct LoopState {
    rounds: usize,
    clauses_added: usize,
    calls: usize,
    refine: RefineState,
}

impl LoopState {
    fn new() -> Self {
        LoopState {
            rounds: 0,
            clauses_added: 0,
            calls: 0,
            refine: RefineState::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn refine_round(
        &mut self,
        round: Span,
        enc: &mut Encoding,
        inst: &Instance,
        config: &EncoderConfig,
        violations: &[crate::LazyViolation],
        strategy: SelectionStrategy,
        obs: &Obs,
        extra: &[(&'static str, etcs_obs::Value)],
    ) {
        let added = refine(
            &round,
            enc,
            inst,
            config,
            &mut self.refine,
            violations,
            strategy,
        );
        self.clauses_added += added;
        obs.counter_add("lazy.clauses_added", added as u64);
        let mut fields: Vec<(&'static str, etcs_obs::Value)> = vec![
            ("sat", true.into()),
            ("violations", violations.len().into()),
            ("clauses", added.into()),
        ];
        fields.extend_from_slice(extra);
        round.close_with(&fields);
    }
}

/// The lazy task driver: [`etcs_core::run`] as a CEGAR loop over the
/// relaxed encoding, refining the violated instances `strategy` selects.
/// Verdicts and optima are bit-identical to the eager driver; witness
/// plans and search statistics may differ. [`TaskKind::Optimize`] and
/// [`TaskKind::OptimizeIncremental`] share one loop: the CEGAR walk is
/// inherently incremental, and its optima match either eager loop.
///
/// Every fixpoint plan is bit-checked against `etcs-sim`'s validator
/// (except under `allow_immediate_reoccupation`, see `bit_check`).
///
/// # Errors
///
/// Returns [`TaskError::Network`] if the scenario is malformed, or the
/// interrupt-mapped error if `run`'s token fired mid-solve.
///
/// # Panics
///
/// Panics on [`TaskKind::Diagnose`]: diagnosis extracts unsat cores from
/// the full eager encoding and has no lazy form.
pub fn run(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
    strategy: SelectionStrategy,
) -> Result<(DesignOutcome, LazyReport), TaskError> {
    match task {
        TaskKind::Verify(layout) => verify(scenario, layout, task, config, run, strategy),
        TaskKind::Generate => generate(scenario, task, config, run, strategy),
        TaskKind::Optimize | TaskKind::OptimizeIncremental => {
            optimize(scenario, config, run, strategy)
        }
        TaskKind::Diagnose(_) => panic!("diagnosis has no lazy form; use `etcs_core::diagnose`"),
    }
}

// ---------------------------------------------------------------------
// Task 1 — lazy verification
// ---------------------------------------------------------------------

/// [`run`] for [`TaskKind::Verify`], the lazy [`etcs_core::verify`]:
/// CEGAR over the relaxed encoding instead of one monolithic solve.
/// Returns bit-identical verdicts.
///
/// Traced as a `task.verify_lazy` span wrapping an `encode` child and
/// one `lazy.round` child per CEGAR round (each with a `lazy.refine`
/// child when violations were found).
fn verify(
    scenario: &Scenario,
    layout: &VssLayout,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
    strategy: SelectionStrategy,
) -> Result<(DesignOutcome, LazyReport), TaskError> {
    let start = Instant::now();
    let obs = &run.obs;
    let span = obs.span_with(
        "task.verify_lazy",
        &[
            ("scenario", scenario.name.as_str().into()),
            ("strategy", strategy.name().into()),
        ],
    );
    let inst = Instance::new(scenario)?;
    let mut enc = run.encode(&inst, config, task, DEFERRED, &span);
    let stats = enc.stats;
    let mut state = LoopState::new();

    let outcome = loop {
        state.rounds += 1;
        state.calls += 1;
        obs.counter_add("lazy.rounds", 1);
        let round = span.child_with("lazy.round", &[("round", state.rounds.into())]);
        match enc.solver.solve() {
            SatResult::Sat(model) => {
                let mut plan = SolvedPlan::decode(&inst, &enc.vars, &model);
                // The verification layout is an input, not a solver choice.
                plan.layout = layout.clone();
                let violations = detect(&inst, &plan, config, DEFERRED);
                if violations.is_empty() {
                    round.close_with(&[("sat", true.into()), ("violations", 0usize.into())]);
                    break DesignOutcome::Solved {
                        plan,
                        costs: Vec::new(),
                    };
                }
                state.refine_round(
                    round,
                    &mut enc,
                    &inst,
                    config,
                    &violations,
                    strategy,
                    obs,
                    &[],
                );
            }
            SatResult::Unsat { .. } => {
                round.close_with(&[("sat", false.into())]);
                break DesignOutcome::Infeasible;
            }
            SatResult::Unknown => {
                obs.counter_add("conflicts", enc.solver.stats().conflicts);
                round.close_with(&[("interrupted", true.into())]);
                span.close_with(&[("interrupted", true.into())]);
                return Err(TaskError::interrupted(&run.interrupt));
            }
        }
    };

    if let Some(plan) = outcome.plan() {
        bit_check(&inst, plan, true, config);
    }
    let search = *enc.solver.stats();
    drop(enc); // inside the task span, so teardown is attributed to it
    obs.counter_add("conflicts", search.conflicts);
    span.close_with(&[
        ("feasible", outcome.is_feasible().into()),
        ("rounds", state.rounds.into()),
        ("clauses_added", state.clauses_added.into()),
        ("conflicts", search.conflicts.into()),
    ]);
    Ok((
        outcome,
        LazyReport {
            report: TaskReport {
                stats,
                runtime: start.elapsed(),
                solver_calls: state.calls,
                search,
            },
            rounds: state.rounds,
            clauses_added: state.clauses_added,
        },
    ))
}

// ---------------------------------------------------------------------
// Task 2 — lazy layout generation
// ---------------------------------------------------------------------

/// [`run`] for [`TaskKind::Generate`], the lazy [`etcs_core::generate`]:
/// each round runs the border MaxSAT on the relaxed formula; a violated
/// optimum is refined and re-minimised.
/// Returns the same minimal border count as the eager task (the relaxed
/// optimum is a lower bound on the full optimum; a violation-free witness
/// at that cost closes the gap).
///
/// Traced as a `task.generate_lazy` span with an `encode` child and one
/// `lazy.round` per CEGAR round, each wrapping the round's `stage2`
/// MaxSAT span.
fn generate(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
    strategy: SelectionStrategy,
) -> Result<(DesignOutcome, LazyReport), TaskError> {
    let start = Instant::now();
    let obs = &run.obs;
    let span = obs.span_with(
        "task.generate_lazy",
        &[
            ("scenario", scenario.name.as_str().into()),
            ("strategy", strategy.name().into()),
        ],
    );
    let inst = Instance::new(scenario)?;
    let mut enc = run.encode(&inst, config, task, DEFERRED, &span);
    let stats = enc.stats;
    let mut state = LoopState::new();

    let outcome = loop {
        state.rounds += 1;
        obs.counter_add("lazy.rounds", 1);
        let round = span.child_with("lazy.round", &[("round", state.rounds.into())]);
        let (result, stage_calls) = minimize_borders(&mut enc, &inst, &[], None, obs);
        state.calls += stage_calls;
        match result {
            Stage2::Solved(plan, cost) => {
                let violations = detect(&inst, &plan, config, DEFERRED);
                if violations.is_empty() {
                    round.close_with(&[
                        ("sat", true.into()),
                        ("violations", 0usize.into()),
                        ("borders", cost.into()),
                    ]);
                    break DesignOutcome::Solved {
                        plan,
                        costs: vec![cost],
                    };
                }
                state.refine_round(
                    round,
                    &mut enc,
                    &inst,
                    config,
                    &violations,
                    strategy,
                    obs,
                    &[],
                );
            }
            Stage2::Unsat => {
                round.close_with(&[("sat", false.into())]);
                break DesignOutcome::Infeasible;
            }
            Stage2::Interrupted => {
                round.close_with(&[("interrupted", true.into())]);
                span.close_with(&[("interrupted", true.into())]);
                return Err(TaskError::interrupted(&run.interrupt));
            }
        }
    };

    if let DesignOutcome::Solved { plan, .. } = &outcome {
        bit_check(&inst, plan, true, config);
    }
    let search = *enc.solver.stats();
    drop(enc); // inside the task span, so teardown is attributed to it
    match &outcome {
        DesignOutcome::Solved { costs, .. } => span.close_with(&[
            ("feasible", true.into()),
            ("borders", costs[0].into()),
            ("rounds", state.rounds.into()),
            ("clauses_added", state.clauses_added.into()),
            ("solver_calls", state.calls.into()),
        ]),
        DesignOutcome::Infeasible => {
            span.close_with(&[("feasible", false.into()), ("rounds", state.rounds.into())])
        }
    }
    Ok((
        outcome,
        LazyReport {
            report: TaskReport {
                stats,
                runtime: start.elapsed(),
                solver_calls: state.calls,
                search,
            },
            rounds: state.rounds,
            clauses_added: state.clauses_added,
        },
    ))
}

// ---------------------------------------------------------------------
// Task 3 — lazy schedule optimisation
// ---------------------------------------------------------------------

/// [`run`] for both optimisation kinds, the lazy
/// [`etcs_core::optimize_incremental`]: a witness-bracketed search
/// over the deadline selectors, with an inner CEGAR loop per probe. The
/// first probe is *optimistic* — the completion lower bound, which on
/// uncongested instances is the optimum outright; if it is refuted, a
/// clean witness at the horizon brackets a binary search (deadline
/// feasibility is monotone, so one clean witness at `d` plus refuted
/// probes covering everything below pin the optimum). Refinement clauses
/// are deadline-independent (pure occupancy/border logic), so they
/// persist across probes; an UNSAT probe of the *refined* relaxation
/// still soundly rules the deadline out (the refined relaxation is
/// implied by the full formula). Stage 2 commits the optimal deadline as
/// unit clauses and reruns the border MaxSAT until its optimum is
/// violation-free. Returns bit-identical optima `(deadline, borders)` to
/// the eager loop.
///
/// Traced as a `task.optimize_lazy` span with an `encode` child and one
/// `lazy.round` per probe (fields: `round`, `deadline`, `sat`, and on
/// refinement `violations` / `clauses`).
fn optimize(
    scenario: &Scenario,
    config: &EncoderConfig,
    run: &Run,
    strategy: SelectionStrategy,
) -> Result<(DesignOutcome, LazyReport), TaskError> {
    let start = Instant::now();
    let obs = &run.obs;
    let span = obs.span_with(
        "task.optimize_lazy",
        &[
            ("scenario", scenario.name.as_str().into()),
            ("strategy", strategy.name().into()),
        ],
    );
    let open = scenario.without_arrivals();
    let inst = Instance::new(&open)?;
    let mut enc = run.encode(
        &inst,
        config,
        &TaskKind::OptimizeIncremental,
        DEFERRED,
        &span,
    );
    let stats = enc.stats;
    let mut state = LoopState::new();

    // Stage 1 — optimistic probe, then witness-bracketed binary search.
    // Deadline feasibility is monotone in `d` (a schedule done by `d' <
    // d` is done by `d`; the step selectors are built for exactly this),
    // so the optimum is pinned by one clean witness at `d` and refuted
    // probes covering everything below. The search keeps the invariant
    // "every deadline below `lo` is ruled out, `upper` (when set) carries
    // a clean witness". The first probe is the completion lower bound —
    // on uncongested instances it is the optimum, and refining against
    // its tightly-pinched cones activates the fewest families; probing
    // tight deadlines also matches the eager incremental loop's walk-up
    // order, whose refutations share learned clauses. If the bound is
    // refuted, one probe at the horizon fetches a clean witness, every
    // later clean witness drops `upper` to its *achieved* completion
    // step, every refuted probe raises `lo`, and probes land on the
    // midpoint in between — a pure one-step walk in either direction is
    // pathological when the optimum sits far from the starting end.
    let max_deadline = inst.t_max - 1;
    let lower = inst.completion_lower_bound().min(max_deadline);
    let mut lo = lower; // every deadline below this is ruled out
    let mut upper: Option<usize> = None; // tightest clean-witness deadline
    let mut d = lower; // optimistic first probe: the bound is usually tight
    loop {
        state.rounds += 1;
        state.calls += 1;
        obs.counter_add("lazy.rounds", 1);
        obs.counter_add("probes", 1);
        let round = span.child_with(
            "lazy.round",
            &[("round", state.rounds.into()), ("deadline", d.into())],
        );
        let assumptions = enc.deadline_probe_assumptions(&inst, d);
        let conflicts_before = enc.solver.stats().conflicts;
        let verdict = enc.solver.solve_with(&assumptions);
        obs.counter_add("conflicts", enc.solver.stats().conflicts - conflicts_before);
        match verdict {
            SatResult::Sat(model) => {
                let plan = SolvedPlan::decode(&inst, &enc.vars, &model);
                let violations = detect(&inst, &plan, config, DEFERRED);
                if violations.is_empty() {
                    let achieved = plan.completion_steps(&inst).saturating_sub(1).min(d);
                    debug_assert!(achieved >= lower, "witness beats the lower bound");
                    round.close_with(&[
                        ("sat", true.into()),
                        ("violations", 0usize.into()),
                        ("deadline", d.into()),
                        ("achieved", achieved.into()),
                    ]);
                    upper = Some(achieved);
                    if achieved <= lo {
                        break; // everything below the witness is ruled out
                    }
                    d = lo + (achieved - 1 - lo) / 2;
                } else {
                    state.refine_round(
                        round,
                        &mut enc,
                        &inst,
                        config,
                        &violations,
                        strategy,
                        obs,
                        &[("deadline", d.into())],
                    );
                }
            }
            SatResult::Unsat { .. } => {
                // Same level-0 burial as the eager incremental loop: the
                // refined relaxation is implied by the full formula, so
                // the refutation holds there too — and by monotonicity it
                // rules out every deadline below `d` as well.
                if let Some(&sel) = enc.step_selectors.get(d).and_then(|s| s.as_ref()) {
                    enc.solver.add_clause([!sel]);
                }
                round.close_with(&[("sat", false.into()), ("deadline", d.into())]);
                lo = d + 1;
                match upper {
                    // The loosest deadline is refuted: infeasible outright.
                    None if d >= max_deadline => break,
                    // The optimistic lower-bound probe failed — fetch a
                    // clean witness at the horizon to bracket the search.
                    None => d = max_deadline,
                    Some(u) if lo >= u => break,
                    Some(u) => d = lo + (u - 1 - lo) / 2,
                }
            }
            SatResult::Unknown => {
                round.close_with(&[("interrupted", true.into())]);
                span.close_with(&[("interrupted", true.into())]);
                return Err(TaskError::interrupted(&run.interrupt));
            }
        }
    }
    let Some(best_deadline) = upper else {
        let search = *enc.solver.stats();
        drop(enc); // inside the task span, so teardown is attributed to it
        span.close_with(&[
            ("feasible", false.into()),
            ("rounds", state.rounds.into()),
            ("clauses_added", state.clauses_added.into()),
        ]);
        return Ok((
            DesignOutcome::Infeasible,
            LazyReport {
                report: TaskReport {
                    stats,
                    runtime: start.elapsed(),
                    solver_calls: state.calls,
                    search,
                },
                rounds: state.rounds,
                clauses_added: state.clauses_added,
            },
        ));
    };

    // Stage 2 — border MaxSAT at the optimal deadline, CEGAR-wrapped. The
    // violation-free witness from Stage 1 satisfies every clause any later
    // refinement can add (they are all implied by the full formula, which
    // the witness models), so the MaxSAT stays satisfiable throughout.
    // The optimum is final, so commit the deadline pin as unit clauses
    // instead of re-propagating thousands of assumption literals on every
    // descent call of the border MaxSAT — the solver is not probed at any
    // other deadline after this point.
    for &lit in &enc.deadline_probe_assumptions(&inst, best_deadline) {
        enc.solver.add_clause([lit]);
    }
    let (plan, border_cost) = loop {
        state.rounds += 1;
        obs.counter_add("lazy.rounds", 1);
        let round = span.child_with(
            "lazy.round",
            &[
                ("round", state.rounds.into()),
                ("deadline", best_deadline.into()),
            ],
        );
        let (result, stage_calls) = minimize_borders(&mut enc, &inst, &[], None, obs);
        state.calls += stage_calls;
        match result {
            Stage2::Solved(plan, cost) => {
                let violations = detect(&inst, &plan, config, DEFERRED);
                if violations.is_empty() {
                    round.close_with(&[
                        ("sat", true.into()),
                        ("violations", 0usize.into()),
                        ("borders", cost.into()),
                    ]);
                    break (plan, cost);
                }
                state.refine_round(
                    round,
                    &mut enc,
                    &inst,
                    config,
                    &violations,
                    strategy,
                    obs,
                    &[("deadline", best_deadline.into())],
                );
            }
            Stage2::Unsat => {
                unreachable!("a violation-free model exists at the probed deadline")
            }
            Stage2::Interrupted => {
                round.close_with(&[("interrupted", true.into())]);
                span.close_with(&[("interrupted", true.into())]);
                return Err(TaskError::interrupted(&run.interrupt));
            }
        }
    };

    bit_check(&inst, &plan, false, config);
    let search = *enc.solver.stats();
    drop(enc); // inside the task span, so teardown is attributed to it
    span.close_with(&[
        ("feasible", true.into()),
        ("deadline", best_deadline.into()),
        ("borders", border_cost.into()),
        ("rounds", state.rounds.into()),
        ("clauses_added", state.clauses_added.into()),
        ("solver_calls", state.calls.into()),
        ("conflicts", search.conflicts.into()),
    ]);
    Ok((
        DesignOutcome::Solved {
            plan,
            costs: vec![best_deadline as u64 + 1, border_cost],
        },
        LazyReport {
            report: TaskReport {
                stats,
                runtime: start.elapsed(),
                solver_calls: state.calls,
                search,
            },
            rounds: state.rounds,
            clauses_added: state.clauses_added,
        },
    ))
}
