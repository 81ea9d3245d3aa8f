//! The streaming replanning session: warm-started re-solves per tick.
//!
//! A [`ReplanSession`] holds a [`LiveScenario`] and a small LRU of *warm
//! cores* — persistent incremental encodings keyed by the
//! [`etcs_core::sub_fingerprints`] `core` component of the scenario they
//! encode. Every tick re-optimises the current scenario:
//!
//! * **Warm hit** — the current core matches a cached encoding. The
//!   solver still holds every learnt clause, the floor of refuted
//!   deadlines, VSIDS activity and saved phases from earlier ticks, so
//!   the probe walk restarts where it left off and the stage-2 border
//!   MaxSAT descends on a hot solver. Deadline-only deltas land here by
//!   construction (the open encoding never sees deadlines), as does any
//!   delta sequence that returns to a previously-seen core (a closed
//!   segment reopening, a delay being reverted).
//! * **Cold fallback** — the core moved (departure, topology, train set,
//!   horizon or config changed): the encoding is rebuilt from scratch,
//!   exactly like [`etcs_core::optimize_incremental`], and cached for
//!   later ticks.
//!
//! Unlike the one-shot incremental loop, the winning deadline's probe
//! assumptions are *never* committed as unit clauses — stage 2 runs with
//! them as assumptions so the solver stays reusable for the next tick.
//! The optima are identical either way; only the witness plan may differ.
//!
//! # Deadlines and staleness
//!
//! Each tick runs under a fresh [`Interrupt`] chained to the session's
//! own token and armed with [`ReplanConfig::tick_budget`]. A tick that
//! misses its budget degrades gracefully: the interrupted solver keeps
//! all learnt state (interrupts roll back to decision level 0, nothing
//! is lost), the warm core returns to the cache, and the tick reports
//! the *last valid plan* flagged [`TickReport::stale`].

use std::collections::VecDeque;
use std::time::Duration;

use etcs_core::{
    minimize_borders, sub_fingerprints, walk_up_deadlines, ConstraintFamilies, DesignOutcome,
    EncoderConfig, Encoding, Instance, Run, SolvedPlan, Stage1, Stage2, TaskError, TaskKind,
};
use etcs_lazy::SelectionStrategy;
use etcs_network::Scenario;
use etcs_obs::{Obs, Span};
use etcs_sat::Interrupt;

use crate::delta::{DeltaError, LiveScenario, ScenarioDelta};

/// Configuration of a [`ReplanSession`].
#[derive(Clone, Debug)]
pub struct ReplanConfig {
    /// Encoder configuration every solve runs under (including the solve
    /// mode: a portfolio race works transparently on the warm solver).
    pub encoder: EncoderConfig,
    /// Solve each tick with the lazy CEGAR loop instead of the warm
    /// incremental solver. The CEGAR loop re-encodes per tick, so every
    /// lazy tick counts as a cold fallback; verdicts and optima are
    /// bit-identical to the eager path.
    pub lazy: bool,
    /// Wall-clock budget per tick; `None` means unbounded. A tick that
    /// exceeds it returns the last valid plan flagged stale.
    pub tick_budget: Option<Duration>,
    /// How many warm cores to keep (≥ 1). Oscillating delta sequences
    /// (close/reopen, delay/revert) re-hit evicted-free cores.
    pub warm_capacity: usize,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            encoder: EncoderConfig::default(),
            lazy: false,
            tick_budget: None,
            warm_capacity: 4,
        }
    }
}

/// Monotonic counters of a session's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Ticks requested.
    pub ticks: u64,
    /// Ticks answered on a cached warm core.
    pub warm_hits: u64,
    /// Ticks that (re)built an encoding from scratch (including every
    /// lazy-mode tick).
    pub cold_fallbacks: u64,
    /// Ticks that missed their budget and degraded to a stale plan.
    pub deadline_misses: u64,
    /// Deltas accepted.
    pub deltas: u64,
    /// Deltas rejected (live state unchanged).
    pub rejected_deltas: u64,
}

impl ReplanStats {
    /// Component-wise sum — for aggregating per-session counters into a
    /// service-wide total (the `served` stats record does this across
    /// every session a process has hosted).
    #[must_use]
    pub fn merged(self, other: ReplanStats) -> ReplanStats {
        ReplanStats {
            ticks: self.ticks + other.ticks,
            warm_hits: self.warm_hits + other.warm_hits,
            cold_fallbacks: self.cold_fallbacks + other.cold_fallbacks,
            deadline_misses: self.deadline_misses + other.deadline_misses,
            deltas: self.deltas + other.deltas,
            rejected_deltas: self.rejected_deltas + other.rejected_deltas,
        }
    }
}

/// What one [`ReplanSession::tick`] produced.
#[derive(Clone, Debug)]
pub struct TickReport {
    /// 1-based tick number within the session.
    pub tick: u64,
    /// Whether the tick reused a cached warm core.
    pub warm: bool,
    /// Whether the tick missed its budget: `plan`/`costs`/`feasible`
    /// then echo the last valid result (if any) instead of the current
    /// scenario's.
    pub stale: bool,
    /// Whether a plan exists (for a fresh tick: the verdict of the
    /// current scenario; for a stale tick: of the last valid one).
    pub feasible: bool,
    /// Proven optimal costs `[completion_steps, borders]` when feasible.
    pub costs: Vec<u64>,
    /// Solver conflicts spent by this tick (0 for a stale tick that did
    /// no fresh search before the budget fired — the conflicts recorded
    /// are whatever the interrupted search consumed).
    pub conflicts: u64,
    /// Solver invocations this tick made.
    pub solver_calls: usize,
    /// Trains whose arrival deadline the fresh plan misses (empty for
    /// stale ticks: the echoed plan predates the current schedule).
    pub late_trains: Vec<String>,
    /// The plan itself, when one exists.
    pub plan: Option<SolvedPlan>,
}

/// A persistent warm encoding of one scenario core.
struct WarmCore {
    core: u128,
    enc: Encoding,
    inst: Instance,
    /// Lowest deadline not yet refuted: every `d < floor` has been
    /// proven UNSAT (and its selector killed at level 0), so later
    /// probe walks start here.
    floor: usize,
}

impl WarmCore {
    /// Encodes the scenario cold, under an `encode` child of the tick's
    /// span (fields `vars`, `clauses`, as on the task paths).
    fn build(
        scenario: &Scenario,
        config: &EncoderConfig,
        core: u128,
        obs: &Obs,
        tick: &Span,
    ) -> Self {
        let open = scenario.without_arrivals();
        let inst = Instance::new(&open).expect("live scenario discretises (checked on apply)");
        // No interrupt yet: each tick installs its own token.
        let traced = Run {
            obs: obs.clone(),
            ..Run::default()
        };
        let enc = traced.encode(
            &inst,
            config,
            &TaskKind::OptimizeIncremental,
            ConstraintFamilies::ALL,
            tick,
        );
        let max_deadline = inst.t_max - 1;
        let floor = inst.completion_lower_bound().min(max_deadline);
        WarmCore {
            core,
            enc,
            inst,
            floor,
        }
    }
}

/// A streaming replanning session over one base scenario.
pub struct ReplanSession {
    live: LiveScenario,
    config: ReplanConfig,
    obs: Obs,
    interrupt: Interrupt,
    warm: VecDeque<WarmCore>,
    stats: ReplanStats,
    last_good: Option<LastGood>,
}

#[derive(Clone)]
struct LastGood {
    feasible: bool,
    costs: Vec<u64>,
    plan: Option<SolvedPlan>,
}

impl std::fmt::Debug for ReplanSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplanSession")
            .field("scenario", &self.live.current().name)
            .field("stats", &self.stats)
            .field("warm_cores", &self.warm.len())
            .finish_non_exhaustive()
    }
}

impl ReplanSession {
    /// Opens a session at `base` (observability disabled).
    ///
    /// # Errors
    ///
    /// Rejects a base scenario that does not validate or discretise.
    pub fn new(base: Scenario, config: ReplanConfig) -> Result<Self, DeltaError> {
        Self::new_obs(base, config, &Obs::disabled())
    }

    /// Opens a session at `base` with observability: a `replan.open`
    /// span, a `replan.delta` span per delta, a `replan.tick` span per
    /// tick (with `probe`/`stage2` children on the warm solver), and
    /// `replan.*` counters mirroring [`ReplanStats`].
    ///
    /// # Errors
    ///
    /// Rejects a base scenario that does not validate or discretise.
    pub fn new_obs(base: Scenario, config: ReplanConfig, obs: &Obs) -> Result<Self, DeltaError> {
        let span = obs.span_with("replan.open", &[("scenario", base.name.as_str().into())]);
        let live = LiveScenario::new(base)?;
        span.close_with(&[
            ("trains", live.current().schedule.len().into()),
            ("lazy", config.lazy.into()),
        ]);
        Ok(ReplanSession {
            live,
            config,
            obs: obs.clone(),
            interrupt: Interrupt::new(),
            warm: VecDeque::new(),
            stats: ReplanStats::default(),
            last_good: None,
        })
    }

    /// The current (patched) scenario.
    pub fn current(&self) -> &Scenario {
        self.live.current()
    }

    /// The session's cancellation token: triggering it aborts the tick
    /// in flight (which degrades to a stale report) and every later one.
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReplanStats {
        self.stats
    }

    /// Applies one delta transactionally.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] — and leaves the session's scenario
    /// unchanged — when the delta does not apply cleanly.
    pub fn apply(&mut self, delta: &ScenarioDelta) -> Result<(), DeltaError> {
        let span = self
            .obs
            .span_with("replan.delta", &[("op", delta.kind().into())]);
        match self.live.apply(delta) {
            Ok(()) => {
                self.stats.deltas += 1;
                self.obs.counter_add("replan.deltas", 1);
                span.close_with(&[("accepted", true.into())]);
                Ok(())
            }
            Err(e) => {
                self.stats.rejected_deltas += 1;
                self.obs.counter_add("replan.rejected_deltas", 1);
                span.close_with(&[
                    ("accepted", false.into()),
                    ("error", e.message.as_str().into()),
                ]);
                Err(e)
            }
        }
    }

    /// Re-optimises the current scenario and returns the updated plan.
    ///
    /// Verdict and costs are bit-identical to a cold
    /// [`etcs_core::optimize_incremental`] of the current scenario —
    /// warm or cold, eager or lazy — unless the tick misses its budget,
    /// in which case the report echoes the last valid result flagged
    /// [`TickReport::stale`].
    pub fn tick(&mut self) -> TickReport {
        self.stats.ticks += 1;
        let tick_no = self.stats.ticks;
        self.obs.counter_add("replan.ticks", 1);
        let span = self
            .obs
            .span_with("replan.tick", &[("tick", tick_no.into())]);
        let token = Interrupt::chained(&self.interrupt);
        if let Some(budget) = self.config.tick_budget {
            token.arm_deadline(budget);
        }

        let solved = if self.config.lazy {
            self.tick_lazy(&token)
        } else {
            self.tick_warm(&token, &span)
        };

        match solved {
            Solve::Fresh {
                warm,
                feasible,
                costs,
                plan,
                conflicts,
                solver_calls,
            } => {
                if warm {
                    self.stats.warm_hits += 1;
                    self.obs.counter_add("replan.warm_hits", 1);
                } else {
                    self.stats.cold_fallbacks += 1;
                    self.obs.counter_add("replan.cold_fallbacks", 1);
                }
                let late_trains = match &plan {
                    Some(p) => late_trains(self.live.current(), p),
                    None => Vec::new(),
                };
                self.last_good = Some(LastGood {
                    feasible,
                    costs: costs.clone(),
                    plan: plan.clone(),
                });
                span.close_with(&[
                    ("warm", warm.into()),
                    ("stale", false.into()),
                    ("feasible", feasible.into()),
                    ("conflicts", conflicts.into()),
                ]);
                TickReport {
                    tick: tick_no,
                    warm,
                    stale: false,
                    feasible,
                    costs,
                    conflicts,
                    solver_calls,
                    late_trains,
                    plan,
                }
            }
            Solve::Missed {
                warm,
                conflicts,
                solver_calls,
            } => {
                if warm {
                    self.stats.warm_hits += 1;
                    self.obs.counter_add("replan.warm_hits", 1);
                } else {
                    self.stats.cold_fallbacks += 1;
                    self.obs.counter_add("replan.cold_fallbacks", 1);
                }
                self.stats.deadline_misses += 1;
                self.obs.counter_add("replan.deadline_misses", 1);
                let last = self.last_good.clone();
                span.close_with(&[
                    ("warm", warm.into()),
                    ("stale", true.into()),
                    ("conflicts", conflicts.into()),
                ]);
                TickReport {
                    tick: tick_no,
                    warm,
                    stale: true,
                    feasible: last.as_ref().is_some_and(|l| l.feasible),
                    costs: last.as_ref().map(|l| l.costs.clone()).unwrap_or_default(),
                    conflicts,
                    solver_calls,
                    late_trains: Vec::new(),
                    plan: last.and_then(|l| l.plan),
                }
            }
        }
    }

    /// The eager path: probe walk + assumption-scoped stage 2 on a warm
    /// (or freshly built) persistent encoding.
    fn tick_warm(&mut self, token: &Interrupt, span: &Span) -> Solve {
        let fps = sub_fingerprints(self.live.current(), &self.config.encoder);
        let (mut w, warm) = match self.warm.iter().position(|w| w.core == fps.core) {
            Some(i) => (self.warm.remove(i).expect("position is in range"), true),
            None => (
                WarmCore::build(
                    self.live.current(),
                    &self.config.encoder,
                    fps.core,
                    &self.obs,
                    span,
                ),
                false,
            ),
        };
        w.enc.solver.set_interrupt(token.clone());
        let conflicts_before = w.enc.solver.stats().conflicts;
        let (stage1, mut calls) =
            walk_up_deadlines(&mut w.enc, &w.inst, &mut w.floor, span, &self.obs);
        let solve = match stage1 {
            Stage1::Interrupted => Solve::Missed {
                warm,
                conflicts: w.enc.solver.stats().conflicts - conflicts_before,
                solver_calls: calls,
            },
            Stage1::Sat(d) => {
                // Stage 2 with the winning deadline as *assumptions* —
                // never unit clauses — so the solver stays probe-able next
                // tick.
                let assumptions = w.enc.deadline_probe_assumptions(&w.inst, d);
                let (result, stage2_calls) =
                    minimize_borders(&mut w.enc, &w.inst, &assumptions, &self.obs);
                calls += stage2_calls;
                let conflicts = w.enc.solver.stats().conflicts - conflicts_before;
                match result {
                    Stage2::Solved(plan, borders) => Solve::Fresh {
                        warm,
                        feasible: true,
                        costs: vec![d as u64 + 1, borders],
                        plan: Some(plan),
                        conflicts,
                        solver_calls: calls,
                    },
                    Stage2::Unsat => unreachable!("the probed deadline was satisfiable"),
                    Stage2::Interrupted => Solve::Missed {
                        warm,
                        conflicts,
                        solver_calls: calls,
                    },
                }
            }
            // Every deadline refuted: the floor sits beyond the horizon
            // and later ticks on this core answer infeasible instantly.
            Stage1::Unsat => Solve::Fresh {
                warm,
                feasible: false,
                costs: Vec::new(),
                plan: None,
                conflicts: w.enc.solver.stats().conflicts - conflicts_before,
                solver_calls: calls,
            },
        };

        self.warm.push_front(w);
        self.warm.truncate(self.config.warm_capacity.max(1));
        solve
    }

    /// The lazy path: a cold CEGAR re-solve per tick.
    fn tick_lazy(&mut self, token: &Interrupt) -> Solve {
        let run = Run {
            obs: self.obs.clone(),
            interrupt: token.clone(),
        };
        match etcs_lazy::run(
            self.live.current(),
            &TaskKind::OptimizeIncremental,
            &self.config.encoder,
            &run,
            SelectionStrategy::AllViolated,
        ) {
            Ok((outcome, report)) => {
                let (feasible, costs, plan) = match outcome {
                    DesignOutcome::Solved { plan, costs } => (true, costs, Some(plan)),
                    DesignOutcome::Infeasible => (false, Vec::new(), None),
                };
                Solve::Fresh {
                    warm: false,
                    feasible,
                    costs,
                    plan,
                    conflicts: report.report.search.conflicts,
                    solver_calls: report.report.solver_calls,
                }
            }
            Err(TaskError::Cancelled | TaskError::DeadlineExceeded) => Solve::Missed {
                warm: false,
                conflicts: 0,
                solver_calls: 0,
            },
            Err(TaskError::Network(e)) => {
                unreachable!("live scenario validated on apply: {e}")
            }
        }
    }
}

enum Solve {
    Fresh {
        warm: bool,
        feasible: bool,
        costs: Vec<u64>,
        plan: Option<SolvedPlan>,
        conflicts: u64,
        solver_calls: usize,
    },
    Missed {
        warm: bool,
        conflicts: u64,
        solver_calls: usize,
    },
}

/// Trains whose arrival deadline `plan` misses, in schedule order. The
/// plan optimises the *open* scenario; this is the report that tells the
/// operator which deadline commitments the optimum breaks.
fn late_trains(scenario: &Scenario, plan: &SolvedPlan) -> Vec<String> {
    let open = scenario.without_arrivals();
    let Ok(inst) = Instance::new(&open) else {
        return Vec::new();
    };
    let arrivals = plan.arrival_steps(&inst);
    scenario
        .schedule
        .runs()
        .iter()
        .zip(&arrivals)
        .filter_map(|(run, arrival)| {
            let deadline = run.arrival?;
            let deadline_step = scenario.step_of(deadline);
            match arrival {
                Some(a) if *a <= deadline_step => None,
                _ => Some(run.train.name.clone()),
            }
        })
        .collect()
}
