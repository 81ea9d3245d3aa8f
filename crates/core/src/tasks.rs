//! The three design tasks of Section II-B / III-C:
//! [`verify`], [`generate`] and [`optimize`] — plus
//! [`optimize_incremental`], the same optimisation run on one persistent
//! incremental solver.
//!
//! All four are one-line calls of [`run`], the single task driver: it
//! takes the task as a [`TaskKind`] and a [`Run`] carrying an [`Obs`]
//! handle and an [`Interrupt`] token, both off by default, so
//! observability and cancellation are strictly opt-in and free when off.
//! The span vocabulary (stable, asserted by `tests/obs_trace.rs` and the
//! CI smoke step):
//!
//! * `task.verify` / `task.generate` / `task.optimize` /
//!   `task.optimize_incremental` — one root span per task call
//!   (`task.diagnose` for [`crate::diagnose`]);
//! * `encode` — child span per encoding built;
//! * `probe` — child span per Stage-1 deadline probe (fields: `deadline`,
//!   `sat`, `conflicts`);
//! * `stage2` — the border-minimisation MaxSAT loop;
//! * `sat.solve` — emitted by the solver itself (see `etcs-sat`).
//!
//! Counters `probes` and `conflicts` accumulate in the handle's metrics
//! registry alongside the events; `conflicts` counts interrupted searches
//! too, so it always equals the sum of the `sat.solve` spans.

use std::fmt;
use std::time::{Duration, Instant};

use etcs_network::{NetworkError, Scenario, VssLayout};
use etcs_obs::{Obs, Span};
use etcs_sat::{maxsat, Interrupt, InterruptReason, Lit, SatResult, Stats, Strategy};

use crate::decode::SolvedPlan;
use crate::encoder::{
    encode_with, ConstraintFamilies, EncoderConfig, Encoding, EncodingStats, TaskKind,
};
use crate::instance::Instance;

/// Shared outcome data of every task.
#[derive(Debug)]
pub struct TaskReport {
    /// Encoding size statistics (the paper's "Var." column and friends).
    pub stats: EncodingStats,
    /// Wall-clock time spent encoding and solving.
    pub runtime: Duration,
    /// Total solver invocations (1 for verification; the optimisation loop
    /// makes several).
    pub solver_calls: usize,
    /// CDCL search statistics accumulated over every solver the task used
    /// (one per probe for the from-scratch loop, a single one for the
    /// incremental loop — compare `search.reused_learnts` between them).
    pub search: Stats,
}

/// Result of [`verify`].
#[derive(Debug)]
pub enum VerifyOutcome {
    /// The schedule works on the given layout; here is a witness plan.
    Feasible(SolvedPlan),
    /// The schedule cannot be executed on the given layout.
    Infeasible,
}

impl VerifyOutcome {
    /// `true` for [`VerifyOutcome::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, VerifyOutcome::Feasible(_))
    }

    /// The witness plan if feasible.
    pub fn plan(&self) -> Option<&SolvedPlan> {
        match self {
            VerifyOutcome::Feasible(p) => Some(p),
            VerifyOutcome::Infeasible => None,
        }
    }
}

impl From<DesignOutcome> for VerifyOutcome {
    fn from(outcome: DesignOutcome) -> Self {
        match outcome {
            DesignOutcome::Solved { plan, .. } => VerifyOutcome::Feasible(plan),
            DesignOutcome::Infeasible => VerifyOutcome::Infeasible,
        }
    }
}

/// Result of [`run`], [`generate`] and [`optimize`].
#[derive(Debug)]
pub enum DesignOutcome {
    /// A layout (and plan) was found; for generation the layout has a
    /// provably minimal number of VSS borders, for optimisation the plan
    /// has provably minimal completion time (then minimal borders). For
    /// verification the layout is the given one and `costs` is empty.
    Solved {
        /// Decoded layout and train movements.
        plan: SolvedPlan,
        /// Proven optimal objective costs, in lexicographic order.
        costs: Vec<u64>,
    },
    /// No VSS layout makes the schedule work within the horizon.
    Infeasible,
}

impl DesignOutcome {
    /// `true` for [`DesignOutcome::Solved`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, DesignOutcome::Solved { .. })
    }

    /// The solved plan, if any.
    pub fn plan(&self) -> Option<&SolvedPlan> {
        match self {
            DesignOutcome::Solved { plan, .. } => Some(plan),
            DesignOutcome::Infeasible => None,
        }
    }
}

/// Error from [`run`]: either the scenario was malformed, or the run's
/// [`Interrupt`] token fired mid-solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskError {
    /// The scenario is malformed (see [`NetworkError`]).
    Network(NetworkError),
    /// The task's [`Interrupt`] token was triggered.
    Cancelled,
    /// The task's armed wall-clock deadline expired.
    DeadlineExceeded,
}

impl TaskError {
    /// The error for a solve that returned `Unknown` under `interrupt`.
    /// An interrupt is the only way a solve returns `Unknown`, so the token
    /// must have fired.
    ///
    /// # Panics
    ///
    /// Panics if `interrupt` has not fired.
    pub fn interrupted(interrupt: &Interrupt) -> TaskError {
        match interrupt.probe() {
            Some(InterruptReason::Cancelled) => TaskError::Cancelled,
            Some(InterruptReason::DeadlineExceeded) => TaskError::DeadlineExceeded,
            None => unreachable!("solver returned Unknown with neither budget nor interrupt fired"),
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Network(e) => write!(f, "{e}"),
            TaskError::Cancelled => write!(f, "task cancelled"),
            TaskError::DeadlineExceeded => write!(f, "task deadline exceeded"),
        }
    }
}

impl std::error::Error for TaskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaskError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for TaskError {
    fn from(e: NetworkError) -> Self {
        TaskError::Network(e)
    }
}

/// How one [`run`] call runs: where its trace goes and what may stop it.
/// The default traces nothing and never fires.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Observability handle for the task's spans, events and counters.
    pub obs: Obs,
    /// Cooperative cancellation: installed on every solver the task
    /// builds, which polls it at restart boundaries. A fired token
    /// surfaces as [`TaskError::Cancelled`] /
    /// [`TaskError::DeadlineExceeded`]; the partially-solved state is
    /// discarded.
    pub interrupt: Interrupt,
}

impl Run {
    /// Encodes `task` over `inst` under an `encode` child of `parent`
    /// (fields `vars`, `clauses`), emitting only the constraint
    /// `families` given, then wires the solver to this run's handle and
    /// token. The prologue of every task loop, eager and lazy.
    pub fn encode(
        &self,
        inst: &Instance,
        config: &EncoderConfig,
        task: &TaskKind,
        families: ConstraintFamilies,
        parent: &Span,
    ) -> Encoding {
        let span = parent.child("encode");
        let mut enc = encode_with(inst, config, task, families);
        span.close_with(&[
            ("vars", enc.stats.solver_vars.into()),
            ("clauses", enc.stats.clauses.into()),
        ]);
        enc.solver.set_obs(self.obs.clone());
        enc.solver.set_interrupt(self.interrupt.clone());
        enc
    }
}

/// Outcome of [`minimize_borders`].
#[derive(Debug)]
pub enum Stage2 {
    /// An optimal model was found and decoded.
    Solved(SolvedPlan, u64),
    /// The hard constraints plus assumptions are unsatisfiable.
    Unsat,
    /// The solver's [`Interrupt`] fired mid-loop.
    Interrupted,
}

/// Stage-2 border minimisation on an existing encoding: runs the MaxSAT
/// loop for `min Σ border_v` on `enc`'s solver (keeping `assumptions`
/// active throughout) and decodes an optimal model.
///
/// `guess` is passed to [`maxsat::minimize`]: with `Some(g)` the first
/// call asks for at most `g` borders instead of descending from the
/// solver's first model (the phases favour every border on), and the
/// `stage2` span closes with a `guess` field. `None`, which every design
/// task passes, keeps the plain solve-then-descend sequence.
///
/// Returns `(Stage2::Solved(plan, cost), solver_calls)`, or `Stage2::Unsat`
/// when the hard constraints plus assumptions are unsatisfiable; the call
/// count is the solver's own, so an interrupted loop reports what it
/// spent. The objective is temporarily detached from the encoding instead
/// of cloned, and restored before returning.
///
/// Public so refinement loops built on top of the encoder (`etcs-lazy`)
/// can rerun the border MaxSAT after adding clauses: the bounds are passed
/// as assumptions only, so the solver stays reusable afterwards.
pub fn minimize_borders(
    enc: &mut Encoding,
    inst: &Instance,
    assumptions: &[Lit],
    guess: Option<u64>,
    obs: &Obs,
) -> (Stage2, usize) {
    let span = obs.span_with("stage2", &[("assumptions", assumptions.len().into())]);
    let before = *enc.solver.stats();
    let objective = std::mem::take(&mut enc.border_objective);
    let result = maxsat::minimize(
        &mut enc.solver,
        &objective,
        assumptions,
        Strategy::LinearSatUnsat,
        guess,
    );
    enc.border_objective = objective;
    let conflicts = enc.solver.stats().conflicts - before.conflicts;
    let calls = (enc.solver.stats().solve_calls - before.solve_calls) as usize;
    obs.counter_add("conflicts", conflicts);
    let mut fields = match &result {
        maxsat::OptimizeOutcome::Optimal(r) => vec![
            ("feasible", true.into()),
            ("borders", r.cost.into()),
            ("solver_calls", calls.into()),
        ],
        maxsat::OptimizeOutcome::Unsat => vec![("feasible", false.into())],
        // Only reachable with an interrupt installed on the solver.
        maxsat::OptimizeOutcome::Unknown { .. } => vec![("interrupted", true.into())],
    };
    fields.push(("conflicts", conflicts.into()));
    if let Some(g) = guess {
        fields.push(("guess", g.into()));
    }
    span.close_with(&fields);
    let stage2 = match result {
        maxsat::OptimizeOutcome::Optimal(r) => {
            Stage2::Solved(SolvedPlan::decode(inst, &enc.vars, &r.model), r.cost)
        }
        maxsat::OptimizeOutcome::Unsat => Stage2::Unsat,
        maxsat::OptimizeOutcome::Unknown { .. } => Stage2::Interrupted,
    };
    (stage2, calls)
}

/// Outcome of [`walk_up_deadlines`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage1 {
    /// The first satisfiable deadline, which is the optimum: every
    /// deadline below it is refuted.
    Sat(usize),
    /// Every deadline up to the horizon is refuted.
    Unsat,
    /// The solver's [`Interrupt`] fired mid-walk.
    Interrupted,
}

/// Stage-1 deadline search on one persistent
/// [`TaskKind::OptimizeIncremental`] encoding: probes every candidate
/// deadline `d` from the completion lower bound up to the horizon as
/// `solve_with(deadline_probe_assumptions(d))`, each under a `probe` child
/// of `parent` (fields `deadline`, `sat`, `conflicts` — the delta on the
/// persistent solver). Learnt clauses, VSIDS activity and saved phases
/// carry across probes. Deadline feasibility is monotone, so the first
/// satisfiable deadline is the optimum.
///
/// Stage 1 of [`optimize_encoding`], its only caller. Returns the verdict
/// and the number of probes made.
fn walk_up_deadlines(
    enc: &mut Encoding,
    inst: &Instance,
    parent: &Span,
    obs: &Obs,
) -> (Stage1, usize) {
    let max_deadline = inst.t_max - 1;
    let lower = inst.completion_lower_bound().min(max_deadline);
    let mut calls = 0usize;
    for d in lower..=max_deadline {
        calls += 1;
        // Selector plus out-of-cone pruning literals; empty (an unguarded
        // probe of the base formula) only with an empty schedule.
        let assumptions = enc.deadline_probe_assumptions(inst, d);
        let probe = parent.child_with("probe", &[("deadline", d.into())]);
        let conflicts_before = enc.solver.stats().conflicts;
        let verdict = enc.solver.solve_with(&assumptions);
        let conflicts = enc.solver.stats().conflicts - conflicts_before;
        obs.counter_add("probes", 1);
        obs.counter_add("conflicts", conflicts);
        probe.close_with(&[
            ("deadline", d.into()),
            ("sat", matches!(verdict, SatResult::Sat(_)).into()),
            ("conflicts", conflicts.into()),
        ]);
        match verdict {
            SatResult::Sat(_) => return (Stage1::Sat(d), calls),
            SatResult::Unsat { .. } => {
                // The refutation proved the formula entails ¬sel_d; assert
                // it so the selector dies at level 0 — clauses learnt under
                // the failed assumption are satisfied outright and phase
                // saving can no longer branch back into a dead deadline.
                if let Some(&sel) = enc.step_selectors.get(d).and_then(|s| s.as_ref()) {
                    enc.solver.add_clause([!sel]);
                }
            }
            SatResult::Unknown => return (Stage1::Interrupted, calls),
        }
    }
    (Stage1::Unsat, calls)
}

/// Outcome of one deadline search: a [`ScratchSearch::walk`] (or the
/// incremental loop behind [`optimize_incremental`]).
#[derive(Debug)]
pub enum Optimized {
    /// The optimal deadline and a plan meeting it with the fewest borders.
    Solved {
        /// The smallest satisfiable deadline step.
        deadline: usize,
        /// The decoded optimal plan.
        plan: SolvedPlan,
        /// The proven minimal border count at that deadline.
        borders: u64,
    },
    /// Every deadline up to the horizon is refuted.
    Infeasible,
    /// The solver's [`Interrupt`] fired. What the search learnt stays: a
    /// refuted deadline stays refuted, so a later call on the same search
    /// resumes.
    Interrupted,
}

/// Solver calls one deadline search made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Calls {
    /// Stage-1 deadline probes.
    pub probes: usize,
    /// Stage-2 border-minimisation calls.
    pub stage2: usize,
}

impl Calls {
    /// Every call, probes and stage 2.
    pub fn total(self) -> usize {
        self.probes + self.stage2
    }
}

/// The incremental optimisation sequence on one persistent
/// [`TaskKind::OptimizeIncremental`] encoding, the body of
/// [`optimize_incremental`]: the stage-1 walk up the deadlines (each a
/// `probe` child of `parent`, the first satisfiable one optimal, every
/// refuted one killed at level 0), then the winning deadline's probe
/// assumptions committed as unit clauses, then [`minimize_borders`] on
/// empty assumptions.
///
/// The commit pins the encoding to that deadline for good: asserting the
/// selector and its cone-pruning literals at level 0 beats re-propagating
/// thousands of assumption literals on every descent call, and the
/// encoding is never probed at another deadline afterwards.
fn optimize_encoding(
    enc: &mut Encoding,
    inst: &Instance,
    parent: &Span,
    obs: &Obs,
) -> (Optimized, Calls) {
    let (stage1, probes) = walk_up_deadlines(enc, inst, parent, obs);
    let mut calls = Calls { probes, stage2: 0 };
    let deadline = match stage1 {
        Stage1::Sat(d) => d,
        Stage1::Unsat => return (Optimized::Infeasible, calls),
        Stage1::Interrupted => return (Optimized::Interrupted, calls),
    };
    for &lit in &enc.deadline_probe_assumptions(inst, deadline) {
        enc.solver.add_clause([lit]);
    }
    let (result, stage2) = minimize_borders(enc, inst, &[], None, obs);
    calls.stage2 = stage2;
    let outcome = match result {
        Stage2::Solved(plan, borders) => Optimized::Solved {
            deadline,
            plan,
            borders,
        },
        Stage2::Unsat => unreachable!("the probed deadline was satisfiable"),
        Stage2::Interrupted => Optimized::Interrupted,
    };
    (outcome, calls)
}

/// The from-scratch optimisation as a resumable search, shared by
/// [`optimize`] and the replanning session. Its state is the open
/// [`Instance`] (arrival deadlines dropped), the lowest deadline not yet
/// refuted, and the encoding an interrupt left behind, if any.
///
/// [`ScratchSearch::walk`] walks the deadlines up from that floor. Each
/// probe encodes the instance under the uniform deadline as a
/// [`TaskKind::Generate`] formula: the deadline tightens every train's
/// time–space cone, so each probe is a small instance, and walking up
/// from the lower bound keeps every probe tight (a loose deadline is what
/// makes the instance hard). Deadline feasibility is monotone, so the
/// first satisfiable probe is the optimum, and [`minimize_borders`] runs
/// on its encoding. A probe or stage 2 that an interrupt stops keeps the
/// floor and that one encoding, so the next walk resumes on its learnt
/// state; at most one encoding is ever held between walks.
#[derive(Debug)]
pub struct ScratchSearch {
    inst: Instance,
    /// Lowest deadline not yet refuted: every `d < floor` is UNSAT.
    floor: usize,
    /// The encoding at `floor` whose probe or stage 2 was interrupted.
    kept: Option<Encoding>,
}

/// What one [`ScratchSearch::walk`] found and spent.
#[derive(Debug)]
pub struct Walk {
    /// The verdict, or [`Optimized::Interrupted`] if the token fired.
    pub outcome: Optimized,
    /// Solver calls this walk made.
    pub calls: Calls,
    /// Search statistics this walk added, over every encoding it solved.
    pub search: Stats,
    /// Size of the last encoding probed: the optimal deadline's when
    /// solved.
    pub stats: EncodingStats,
}

impl ScratchSearch {
    /// Opens the search on `scenario` without its arrival deadlines, at
    /// the completion lower bound.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the scenario is malformed.
    pub fn new(scenario: &Scenario) -> Result<Self, NetworkError> {
        let inst = Instance::new(&scenario.without_arrivals())?;
        let floor = inst.completion_lower_bound().min(inst.t_max - 1);
        Ok(ScratchSearch {
            inst,
            floor,
            kept: None,
        })
    }

    /// The instance the search runs on: the scenario without its arrival
    /// deadlines, under the last probed uniform deadline.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Walks the deadlines up from the floor under `run`'s handle and
    /// token: one `probe` child of `parent` per deadline (fields
    /// `deadline`, `sat`, `conflicts`), with an `encode` child when it
    /// builds the encoding, then the `stage2` span of [`minimize_borders`]
    /// with `guess` on the first satisfiable one.
    pub fn walk(
        &mut self,
        config: &EncoderConfig,
        guess: Option<u64>,
        run: &Run,
        parent: &Span,
    ) -> Walk {
        let obs = &run.obs;
        let mut calls = Calls::default();
        let mut search = Stats::default();
        let mut stats = EncodingStats::default();
        let outcome = loop {
            let d = self.floor;
            if d >= self.inst.t_max {
                break Optimized::Infeasible;
            }
            calls.probes += 1;
            self.inst.set_uniform_deadline(d);
            let probe = parent.child_with("probe", &[("deadline", d.into())]);
            // The walk that left an encoding behind reported its search.
            let (mut enc, before) = match self.kept.take() {
                Some(mut enc) => {
                    enc.solver.set_obs(obs.clone());
                    enc.solver.set_interrupt(run.interrupt.clone());
                    let before = *enc.solver.stats();
                    (enc, before)
                }
                None => {
                    let enc = run.encode(
                        &self.inst,
                        config,
                        &TaskKind::Generate,
                        ConstraintFamilies::ALL,
                        &probe,
                    );
                    (enc, Stats::default())
                }
            };
            stats = enc.stats;
            let verdict = enc.solver.solve();
            let conflicts = enc.solver.stats().conflicts - before.conflicts;
            obs.counter_add("probes", 1);
            obs.counter_add("conflicts", conflicts);
            probe.close_with(&[
                ("deadline", d.into()),
                ("sat", matches!(verdict, SatResult::Sat(_)).into()),
                ("conflicts", conflicts.into()),
            ]);
            let outcome = match verdict {
                SatResult::Unsat { .. } => None,
                SatResult::Unknown => Some(Optimized::Interrupted),
                SatResult::Sat(_) => {
                    let (result, stage2) = minimize_borders(&mut enc, &self.inst, &[], guess, obs);
                    calls.stage2 = stage2;
                    Some(match result {
                        Stage2::Solved(plan, borders) => Optimized::Solved {
                            deadline: d,
                            plan,
                            borders,
                        },
                        Stage2::Unsat => unreachable!("the probed deadline was satisfiable"),
                        Stage2::Interrupted => Optimized::Interrupted,
                    })
                }
            };
            search += &(*enc.solver.stats() - before);
            match outcome {
                None => self.floor = d + 1,
                Some(outcome) => {
                    if matches!(outcome, Optimized::Interrupted) {
                        self.kept = Some(enc);
                    }
                    break outcome;
                }
            }
        };
        Walk {
            outcome,
            calls,
            search,
            stats,
        }
    }
}

/// The task driver: runs `task` on `scenario` under `run`'s observability
/// handle and interrupt token. [`TaskKind::Verify`] checks the given
/// layout (a feasible outcome carries the layout and empty `costs`),
/// [`TaskKind::Generate`] minimises borders, [`TaskKind::Optimize`] runs
/// the from-scratch deadline loop and [`TaskKind::OptimizeIncremental`]
/// the same search on one persistent solver; see [`verify`],
/// [`generate`], [`optimize`] and [`optimize_incremental`] for each
/// task's semantics.
///
/// # Errors
///
/// Returns [`TaskError::Network`] if the scenario is malformed, or the
/// interrupt-mapped error if the token fired mid-solve.
///
/// # Panics
///
/// Panics on [`TaskKind::Diagnose`], which has its own entry point,
/// [`crate::diagnose`].
///
/// # Examples
///
/// ```
/// use etcs_core::{run, EncoderConfig, Run, TaskKind};
/// use etcs_network::{fixtures, VssLayout};
/// use etcs_obs::Obs;
///
/// let (obs, sink) = Obs::memory();
/// let traced = Run { obs, ..Run::default() };
/// let task = TaskKind::Verify(VssLayout::pure_ttd());
/// let (outcome, report) =
///     run(&fixtures::running_example(), &task, &EncoderConfig::default(), &traced)?;
/// assert!(!outcome.is_feasible());
/// assert_eq!(traced.obs.metrics().counter("conflicts"), report.search.conflicts);
/// assert!(sink.events().iter().any(|e| e.name == "task.verify"));
/// # Ok::<(), etcs_core::TaskError>(())
/// ```
pub fn run(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    match task {
        TaskKind::Verify(layout) => run_verify(scenario, layout, task, config, run),
        TaskKind::Generate => run_generate(scenario, task, config, run),
        TaskKind::Optimize => run_optimize(scenario, config, run),
        TaskKind::OptimizeIncremental => run_incremental(scenario, task, config, run),
        TaskKind::Diagnose(_) => panic!("diagnosis has its own entry point, `diagnose`"),
    }
}

/// [`run`] with tracing and cancellation off: without an interrupt the
/// only possible error is a malformed scenario.
fn run_plain(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    run(scenario, task, config, &Run::default()).map_err(|e| match e {
        TaskError::Network(e) => e,
        other => unreachable!("no interrupt installed: {other:?}"),
    })
}

/// Task 1 — *Verification of train schedules on ETCS Level 3 layouts*:
/// does `scenario`'s schedule (with its arrival deadlines) work on the
/// given TTD/VSS `layout`?
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
///
/// # Examples
///
/// ```
/// use etcs_core::{verify, EncoderConfig};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// // The paper's headline: pure TTD operation cannot realise Fig. 1b.
/// let (outcome, _report) =
///     verify(&scenario, &VssLayout::pure_ttd(), &EncoderConfig::default())?;
/// assert!(!outcome.is_feasible());
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn verify(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
) -> Result<(VerifyOutcome, TaskReport), NetworkError> {
    run_plain(scenario, &TaskKind::Verify(layout.clone()), config).map(|(o, r)| (o.into(), r))
}

/// Task 2 — *Generation of VSS layouts*: find virtual borders that make the
/// schedule (with its deadlines) executable, minimising the number of
/// borders (`min Σ border_v`).
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
pub fn generate(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    run_plain(scenario, &TaskKind::Generate, config)
}

/// Task 3 — *Schedule optimisation using the potential of VSS*: drop the
/// arrival deadlines, choose a VSS layout and train movements minimising
/// the number of time steps until all trains are done
/// (`min Σ_t ¬done^t`), then the number of borders.
///
/// The returned primary cost is the optimal completion time in steps
/// (including the constant offset for the steps before the last departure).
///
/// This is the *from-scratch* loop, one [`ScratchSearch`] walked once:
/// every deadline probe builds a fresh cone-pruned encoding and discards
/// the solver afterwards. See [`optimize_incremental`] for the same search
/// on one persistent solver.
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
pub fn optimize(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    run_plain(scenario, &TaskKind::Optimize, config)
}

/// [`optimize`] on **one persistent incremental solver**: the full horizon
/// is encoded once ([`TaskKind::OptimizeIncremental`], with step
/// selectors) and every candidate deadline is probed on it — learnt
/// clauses, VSIDS activity and saved phases carry across probes — then the
/// Stage-2 border MaxSAT runs on the same warm solver with the optimal
/// deadline committed, eliminating every re-encode.
///
/// Returns the same optima as [`optimize`] (identical deadline and border
/// count; the witness plans may differ).
///
/// # Errors
///
/// Returns [`NetworkError`] if the scenario is malformed.
pub fn optimize_incremental(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport), NetworkError> {
    run_plain(scenario, &TaskKind::OptimizeIncremental, config)
}

/// [`run`] for [`TaskKind::Verify`]: one `task.verify` span wrapping an
/// `encode` child and the solver's own `sat.solve` span.
fn run_verify(
    scenario: &Scenario,
    layout: &VssLayout,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    let start = Instant::now();
    let span = run.obs.span_with(
        "task.verify",
        &[("scenario", scenario.name.as_str().into())],
    );
    let inst = Instance::new(scenario)?;
    let mut enc = run.encode(&inst, config, task, ConstraintFamilies::ALL, &span);
    let stats = enc.stats;
    let verdict = enc.solver.solve();
    let search = *enc.solver.stats();
    run.obs.counter_add("conflicts", search.conflicts);
    let outcome = match verdict {
        SatResult::Sat(model) => {
            let mut plan = SolvedPlan::decode(&inst, &enc.vars, &model);
            // The verification layout is an input, not a solver choice.
            plan.layout = layout.clone();
            DesignOutcome::Solved {
                plan,
                costs: Vec::new(),
            }
        }
        SatResult::Unsat { .. } => DesignOutcome::Infeasible,
        SatResult::Unknown => {
            span.close_with(&[("interrupted", true.into())]);
            return Err(TaskError::interrupted(&run.interrupt));
        }
    };
    drop(enc); // inside the task span, so teardown is attributed to it
    span.close_with(&[
        ("feasible", outcome.is_feasible().into()),
        ("conflicts", search.conflicts.into()),
    ]);
    Ok((
        outcome,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: 1,
            search,
        },
    ))
}

/// [`run`] for [`TaskKind::Generate`]: one `task.generate` span wrapping
/// an `encode` child and the `stage2` border-minimisation span.
fn run_generate(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    let start = Instant::now();
    let span = run.obs.span_with(
        "task.generate",
        &[("scenario", scenario.name.as_str().into())],
    );
    let inst = Instance::new(scenario)?;
    let mut enc = run.encode(&inst, config, task, ConstraintFamilies::ALL, &span);
    let stats = enc.stats;
    let (result, calls) = minimize_borders(&mut enc, &inst, &[], None, &run.obs);
    let search = *enc.solver.stats();
    drop(enc); // inside the task span, so teardown is attributed to it
    let outcome = match result {
        Stage2::Solved(plan, cost) => DesignOutcome::Solved {
            plan,
            costs: vec![cost],
        },
        Stage2::Unsat => DesignOutcome::Infeasible,
        Stage2::Interrupted => {
            span.close_with(&[("interrupted", true.into())]);
            return Err(TaskError::interrupted(&run.interrupt));
        }
    };
    match &outcome {
        DesignOutcome::Solved { costs, .. } => span.close_with(&[
            ("feasible", true.into()),
            ("borders", costs[0].into()),
            ("solver_calls", calls.into()),
        ]),
        DesignOutcome::Infeasible => span.close_with(&[("feasible", false.into())]),
    }
    Ok((
        outcome,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search,
        },
    ))
}

/// [`run`] for [`TaskKind::Optimize`], the from-scratch loop: one
/// `task.optimize` span wrapping one [`ScratchSearch::walk`], a `probe`
/// child per Stage-1 deadline candidate (each with its own `encode` child
/// and `sat.solve`) and the `stage2` span. The span-close fields mirror
/// the returned [`TaskReport`] — that agreement is asserted by
/// `tests/obs_trace.rs`.
///
/// The shrinking-horizon walk replaced the paper's monolithic
/// `Σ_t ¬done^t` cardinality objective, whose first solve alone took more
/// than 200 s on the Simple Layout (DESIGN.md §3).
fn run_optimize(
    scenario: &Scenario,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    let start = Instant::now();
    let span = run.obs.span_with(
        "task.optimize",
        &[("scenario", scenario.name.as_str().into())],
    );
    let walk = ScratchSearch::new(scenario)?.walk(config, None, run, &span);
    let report = TaskReport {
        stats: walk.stats,
        runtime: start.elapsed(),
        solver_calls: walk.calls.total(),
        search: walk.search,
    };
    conclude(span, walk.outcome, walk.calls, report, run)
}

/// [`run`] for [`TaskKind::OptimizeIncremental`]: one
/// `task.optimize_incremental` span wrapping a single `encode` child and
/// the `probe` and `stage2` spans of [`optimize_encoding`] on the same
/// warm solver.
fn run_incremental(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    let start = Instant::now();
    let span = run.obs.span_with(
        "task.optimize_incremental",
        &[("scenario", scenario.name.as_str().into())],
    );
    let open = scenario.without_arrivals();
    let inst = Instance::new(&open)?;
    let mut enc = run.encode(&inst, config, task, ConstraintFamilies::ALL, &span);
    let stats = enc.stats;

    let (outcome, calls) = optimize_encoding(&mut enc, &inst, &span, &run.obs);
    let search = *enc.solver.stats();
    drop(enc); // inside the task span, so teardown is attributed to it
    let report = TaskReport {
        stats,
        runtime: start.elapsed(),
        solver_calls: calls.total(),
        search,
    };
    conclude(span, outcome, calls, report, run)
}

/// Closes an optimisation task's `span` with fields mirroring `report`
/// and maps the search's outcome to [`run`]'s result.
fn conclude(
    span: Span,
    outcome: Optimized,
    calls: Calls,
    report: TaskReport,
    run: &Run,
) -> Result<(DesignOutcome, TaskReport), TaskError> {
    match outcome {
        Optimized::Solved {
            deadline,
            plan,
            borders,
        } => {
            span.close_with(&[
                ("feasible", true.into()),
                ("deadline", deadline.into()),
                ("borders", borders.into()),
                ("probes", calls.probes.into()),
                ("solver_calls", calls.total().into()),
                ("conflicts", report.search.conflicts.into()),
            ]);
            // Completion in steps: the last arrival step plus one.
            let outcome = DesignOutcome::Solved {
                plan,
                costs: vec![deadline as u64 + 1, borders],
            };
            Ok((outcome, report))
        }
        Optimized::Infeasible => {
            span.close_with(&[("feasible", false.into()), ("probes", calls.probes.into())]);
            Ok((DesignOutcome::Infeasible, report))
        }
        Optimized::Interrupted => {
            span.close_with(&[("interrupted", true.into())]);
            Err(TaskError::interrupted(&run.interrupt))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    #[test]
    fn running_example_verification_is_unsat_on_pure_ttd() {
        let scenario = fixtures::running_example();
        let (outcome, report) =
            verify(&scenario, &VssLayout::pure_ttd(), &EncoderConfig::default())
                .expect("well-formed");
        assert!(!outcome.is_feasible(), "paper: pure TTD deadlocks");
        assert!(report.stats.clauses > 0);
        assert_eq!(report.search.solve_calls, 1);
    }

    #[test]
    fn running_example_generation_finds_a_layout() {
        let scenario = fixtures::running_example();
        let (outcome, _) = generate(&scenario, &EncoderConfig::default()).expect("well-formed");
        match outcome {
            DesignOutcome::Solved { plan, costs } => {
                assert!(costs[0] >= 1, "at least one virtual border is needed");
                let inst = Instance::new(&scenario).expect("valid");
                let sections = plan.section_count(&inst);
                assert!(sections > 4, "more sections than pure TTD");
            }
            DesignOutcome::Infeasible => panic!("paper: generation succeeds"),
        }
    }

    #[test]
    fn generated_layout_verifies() {
        let scenario = fixtures::running_example();
        let (outcome, _) = generate(&scenario, &EncoderConfig::default()).expect("well-formed");
        let plan = outcome.plan().expect("feasible");
        let (check, _) =
            verify(&scenario, &plan.layout, &EncoderConfig::default()).expect("well-formed");
        assert!(
            check.is_feasible(),
            "the generated layout must pass verification"
        );
    }

    #[test]
    fn running_example_optimization_beats_generation() {
        let scenario = fixtures::running_example();
        let (gen_outcome, _) = generate(&scenario, &EncoderConfig::default()).expect("well-formed");
        let (opt_outcome, _) = optimize(&scenario, &EncoderConfig::default()).expect("well-formed");
        let inst = Instance::new(&scenario).expect("valid");
        let gen_steps = gen_outcome
            .plan()
            .expect("feasible")
            .completion_steps(&inst);
        match opt_outcome {
            DesignOutcome::Solved { costs, plan } => {
                let opt_steps = costs[0] as usize;
                assert!(
                    opt_steps <= gen_steps,
                    "optimisation ({opt_steps}) must not be worse than generation ({gen_steps})"
                );
                assert!(plan.section_count(&inst) >= 4);
            }
            DesignOutcome::Infeasible => panic!("paper: optimisation succeeds"),
        }
    }

    #[test]
    fn incremental_optimization_matches_scratch_on_running_example() {
        let scenario = fixtures::running_example();
        let config = EncoderConfig::default();
        let (scratch, _) = optimize(&scenario, &config).expect("well-formed");
        let (incremental, report) = optimize_incremental(&scenario, &config).expect("well-formed");
        match (scratch, incremental) {
            (DesignOutcome::Solved { costs: a, .. }, DesignOutcome::Solved { costs: b, plan }) => {
                assert_eq!(a, b, "bit-identical optima (deadline, borders)");
                let inst = Instance::new(&scenario).expect("valid");
                assert!(plan.section_count(&inst) >= 4);
            }
            other => panic!("both paths must solve: {other:?}"),
        }
        // One persistent solver: a single encoding, several solve calls,
        // learnt clauses carried between them.
        assert!(report.search.solve_calls as usize >= report.solver_calls);
        if report.search.conflicts > 0 && report.solver_calls > 1 {
            assert!(
                report.search.reused_learnts > 0,
                "probes must inherit earlier probes' lemmas"
            );
        }
    }

    #[test]
    fn run_verify_returns_the_given_layout_and_no_costs() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = VssLayout::full(&inst.net);
        let task = TaskKind::Verify(full.clone());
        let (outcome, report) =
            run(&scenario, &task, &EncoderConfig::default(), &Run::default()).expect("well-formed");
        match outcome {
            DesignOutcome::Solved { plan, costs } => {
                assert_eq!(plan.layout, full);
                assert!(costs.is_empty(), "verification has no objective");
            }
            DesignOutcome::Infeasible => panic!("the finest layout is feasible"),
        }
        assert_eq!(report.solver_calls, 1);
    }

    #[test]
    #[should_panic(expected = "diagnosis has its own entry point")]
    fn run_refuses_diagnosis() {
        let task = TaskKind::Diagnose(VssLayout::pure_ttd());
        let _ = run(
            &fixtures::running_example(),
            &task,
            &EncoderConfig::default(),
            &Run::default(),
        );
    }

    #[test]
    fn full_vss_layout_makes_running_example_feasible() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = VssLayout::full(&inst.net);
        let (outcome, _) =
            verify(&scenario, &full, &EncoderConfig::default()).expect("well-formed");
        assert!(
            outcome.is_feasible(),
            "the finest layout subsumes the generated one"
        );
    }
}
