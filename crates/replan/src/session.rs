//! The streaming replanning session: warm-started re-solves per tick.
//!
//! A [`ReplanSession`] holds a [`LiveScenario`] and a small LRU of *warm
//! cores*, keyed by the [`etcs_core::sub_fingerprints`] core key of the
//! scenario they stand for. That key hashes departures as time
//! steps, the only form in which the encoder sees them, so two scenarios
//! with equal `core` have literally the same formulas, and the same
//! verdict and optima. Every tick re-optimises the current scenario:
//!
//! * **Answered warm hit** — a tick on this core has already finished.
//!   The core keeps that tick's verdict, costs, plan and the plan's
//!   arrival steps and has dropped its search, so the tick returns the
//!   stored answer with 0 solver calls and no instance build. Deadline-only
//!   deltas land here by construction (the search runs on the scenario
//!   without its deadlines), as do delays that leave every departure on
//!   its time step (a 5 s delay on a 30 s grid, mostly) and any delta
//!   sequence that returns to a previously-seen core (a closed segment
//!   reopening, a delay being reverted).
//! * **Open warm hit** — the last tick on this core was interrupted. Its
//!   search stayed in the cache: the deadlines it refuted, and the one
//!   encoding whose probe or stage 2 the interrupt stopped, with every
//!   learnt clause, VSIDS activity and saved phase. This tick resumes it.
//! * **Cold fallback** — the core moved (a departure *step*, the
//!   topology, the train set, the horizon or the config changed): the
//!   search starts from scratch.
//!
//! An open core is an [`etcs_core::ScratchSearch`], the search behind
//! [`etcs_core::optimize`]: walk up the deadlines from the completion
//! lower bound, encoding one tight time–space cone per probed deadline,
//! then run stage 2 on the first satisfiable probe's encoding. Stage 2
//! starts from a cost guess: the border optimum of the session's last
//! fresh answer, since one delta rarely moves it far. A refuted probe's
//! encoding is dropped at once, so an open core holds at most one
//! encoding, a tight cone, between ticks.
//!
//! # Deadlines and staleness
//!
//! Each tick runs under a fresh [`Interrupt`] chained to the session's
//! own token and armed with [`ReplanConfig::tick_budget`]. A tick that
//! misses its budget degrades gracefully: the interrupted solver keeps
//! all learnt state (interrupts roll back to decision level 0, nothing
//! is lost), the open core returns to the cache, and the tick reports
//! the *last valid plan* flagged [`TickReport::stale`]. A fired token
//! misses the tick on an answered core too.

use std::collections::VecDeque;
use std::time::Duration;

use etcs_core::{
    sub_fingerprints, DesignOutcome, EncoderConfig, Instance, Optimized, Run, ScratchSearch,
    SolvedPlan, TaskError, TaskKind,
};
use etcs_network::Scenario;
use etcs_obs::{Obs, Span};
use etcs_sat::Interrupt;

use crate::delta::{DeltaError, LiveScenario, ScenarioDelta};

/// Configuration of a [`ReplanSession`].
#[derive(Clone, Debug, Default)]
pub struct ReplanConfig {
    /// Encoder configuration every solve runs under.
    pub encoder: EncoderConfig,
    /// Solve each tick with the lazy CEGAR loop instead of the warm
    /// cores. The CEGAR loop re-encodes per tick, so every lazy tick
    /// counts as a cold fallback; verdicts and optima are bit-identical to
    /// the eager path.
    pub lazy: bool,
    /// Wall-clock budget per tick; `None` means unbounded. A tick that
    /// exceeds it returns the last valid plan flagged stale.
    pub tick_budget: Option<Duration>,
}

/// How many warm cores a session keeps, answered or open. Oscillating
/// delta sequences (close/reopen, delay/revert) re-hit cores that have not
/// been evicted.
const WARM_CAPACITY: usize = 4;

/// Monotonic counters of a session's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Ticks requested.
    pub ticks: u64,
    /// Ticks that found their core cached, answered or open.
    pub warm_hits: u64,
    /// Ticks that started their search from scratch (including every
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
    /// Whether the tick found its core cached (answered or open).
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
    /// Solver invocations this tick made (0 when an answered core served
    /// it).
    pub solver_calls: usize,
    /// Trains whose arrival deadline the fresh plan misses (empty for
    /// stale ticks: the echoed plan predates the current schedule).
    pub late_trains: Vec<String>,
    /// The plan itself, when one exists.
    pub plan: Option<SolvedPlan>,
}

/// One scenario core in the warm cache.
struct WarmCore {
    core: u128,
    state: CoreState,
}

enum CoreState {
    /// No tick on this core has finished: the search waits, with what
    /// interrupted ticks refuted and at most one encoding, for the next.
    Open(Box<ScratchSearch>),
    /// A tick finished and proved this answer; the search is gone.
    Answered(Answer),
}

/// A streaming replanning session over one base scenario.
pub struct ReplanSession {
    live: LiveScenario,
    config: ReplanConfig,
    obs: Obs,
    interrupt: Interrupt,
    warm: VecDeque<WarmCore>,
    stats: ReplanStats,
    last_good: Option<Answer>,
}

/// A fresh tick's verdict, proven optima and plan.
#[derive(Clone)]
struct Answer {
    feasible: bool,
    costs: Vec<u64>,
    plan: Option<SolvedPlan>,
    /// Each train's arrival step in `plan`, in schedule order (empty
    /// without a plan): what [`late_trains`] compares with the deadlines.
    arrivals: Vec<Option<usize>>,
}

impl Answer {
    /// The answer of a feasible solve, with the plan's arrival steps on
    /// the open instance `inst`.
    fn solved(costs: Vec<u64>, plan: SolvedPlan, inst: &Instance) -> Self {
        Answer {
            feasible: true,
            costs,
            arrivals: plan.arrival_steps(inst),
            plan: Some(plan),
        }
    }

    /// The answer of an infeasible solve.
    fn infeasible() -> Self {
        Answer {
            feasible: false,
            costs: Vec::new(),
            plan: None,
            arrivals: Vec::new(),
        }
    }
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
    /// tick (with `probe` children, each with an `encode` child when it
    /// builds its encoding, and a `stage2` span when it solves; it closes
    /// with `solver_calls` and `answered`), and `replan.*` counters
    /// mirroring [`ReplanStats`].
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
            self.tick_eager(&token, &span)
        };

        let warm = solved.warm;
        if warm {
            self.stats.warm_hits += 1;
            self.obs.counter_add("replan.warm_hits", 1);
        } else {
            self.stats.cold_fallbacks += 1;
            self.obs.counter_add("replan.cold_fallbacks", 1);
        }
        let answered = matches!(solved.verdict, Verdict::Answered(_));
        let fresh = match solved.verdict {
            Verdict::Fresh(answer) | Verdict::Answered(answer) => Some(answer),
            Verdict::Missed => None,
        };
        let stale = fresh.is_none();
        let mut fields = vec![
            ("warm", warm.into()),
            ("stale", stale.into()),
            ("answered", answered.into()),
            ("solver_calls", solved.solver_calls.into()),
            ("conflicts", solved.conflicts.into()),
        ];
        let (answer, late_trains) = match fresh {
            Some(answer) => {
                let late_trains = late_trains(self.live.current(), &answer.arrivals);
                fields.push(("feasible", answer.feasible.into()));
                self.last_good = Some(answer.clone());
                (Some(answer), late_trains)
            }
            None => {
                self.stats.deadline_misses += 1;
                self.obs.counter_add("replan.deadline_misses", 1);
                (self.last_good.clone(), Vec::new())
            }
        };
        span.close_with(&fields);
        let (feasible, costs, plan) = match answer {
            Some(a) => (a.feasible, a.costs, a.plan),
            None => (false, Vec::new(), None),
        };
        TickReport {
            tick: tick_no,
            warm,
            stale,
            feasible,
            costs,
            conflicts: solved.conflicts,
            solver_calls: solved.solver_calls,
            late_trains,
            plan,
        }
    }

    /// The eager path: the stored answer of an answered core, or a
    /// [`ScratchSearch::walk`] on an open (or freshly opened) one.
    fn tick_eager(&mut self, token: &Interrupt, span: &Span) -> Solved {
        let core = sub_fingerprints(self.live.current(), &self.config.encoder);
        let cached = self
            .warm
            .iter()
            .position(|w| w.core == core)
            .and_then(|i| self.warm.remove(i));
        let warm = cached.is_some();
        let state = match cached {
            Some(w) => w.state,
            None => CoreState::Open(Box::new(
                ScratchSearch::new(self.live.current())
                    .expect("live scenario discretises (checked on apply)"),
            )),
        };
        let (state, solved) = match state {
            // The answer is final, but a fired token still misses the tick.
            CoreState::Answered(answer) => {
                let verdict = if token.is_triggered() {
                    Verdict::Missed
                } else {
                    Verdict::Answered(answer.clone())
                };
                (CoreState::Answered(answer), Solved::new(warm, verdict))
            }
            CoreState::Open(mut search) => {
                let guess = self
                    .last_good
                    .as_ref()
                    .and_then(|a| a.costs.get(1).copied());
                let run = Run {
                    obs: self.obs.clone(),
                    interrupt: token.clone(),
                };
                let walk = search.walk(&self.config.encoder, guess, &run, span);
                let answer = match walk.outcome {
                    Optimized::Solved {
                        deadline,
                        plan,
                        borders,
                    } => {
                        let costs = vec![deadline as u64 + 1, borders];
                        Some(Answer::solved(costs, plan, search.instance()))
                    }
                    Optimized::Infeasible => Some(Answer::infeasible()),
                    Optimized::Interrupted => None,
                };
                let solved = Solved {
                    warm,
                    verdict: answer.clone().map_or(Verdict::Missed, Verdict::Fresh),
                    conflicts: walk.search.conflicts,
                    solver_calls: walk.calls.total(),
                };
                // A finished core keeps its answer and drops the search;
                // an interrupted one stays open for the next tick.
                let state = answer.map_or(CoreState::Open(search), CoreState::Answered);
                (state, solved)
            }
        };
        self.warm.push_front(WarmCore { core, state });
        self.warm.truncate(WARM_CAPACITY);
        solved
    }

    /// The lazy path: a cold CEGAR re-solve per tick.
    fn tick_lazy(&mut self, token: &Interrupt) -> Solved {
        let run = Run {
            obs: self.obs.clone(),
            interrupt: token.clone(),
        };
        let scenario = self.live.current();
        match etcs_lazy::run(
            scenario,
            &TaskKind::OptimizeIncremental,
            &self.config.encoder,
            &run,
        ) {
            Ok((outcome, report)) => {
                let answer = match outcome {
                    DesignOutcome::Solved { plan, costs } => {
                        let inst = Instance::new(&scenario.without_arrivals())
                            .expect("live scenario discretises (checked on apply)");
                        Answer::solved(costs, plan, &inst)
                    }
                    DesignOutcome::Infeasible => Answer::infeasible(),
                };
                Solved {
                    warm: false,
                    verdict: Verdict::Fresh(answer),
                    conflicts: report.report.search.conflicts,
                    solver_calls: report.report.solver_calls,
                }
            }
            Err(TaskError::Cancelled | TaskError::DeadlineExceeded) => {
                Solved::new(false, Verdict::Missed)
            }
            Err(TaskError::Network(e)) => {
                unreachable!("live scenario validated on apply: {e}")
            }
        }
    }
}

/// What one tick's solve produced, before the session books it.
struct Solved {
    warm: bool,
    verdict: Verdict,
    conflicts: u64,
    solver_calls: usize,
}

impl Solved {
    /// A tick that made no solver call.
    fn new(warm: bool, verdict: Verdict) -> Self {
        Solved {
            warm,
            verdict,
            conflicts: 0,
            solver_calls: 0,
        }
    }
}

enum Verdict {
    /// Solved by this tick.
    Fresh(Answer),
    /// Served from the core's stored answer.
    Answered(Answer),
    /// The tick's token fired first.
    Missed,
}

/// Trains whose arrival deadline the plan with arrival steps `arrivals`
/// misses, in schedule order. The plan optimises the *open* scenario; this
/// is the report that tells the operator which deadline commitments the
/// optimum breaks.
fn late_trains(scenario: &Scenario, arrivals: &[Option<usize>]) -> Vec<String> {
    scenario
        .schedule
        .runs()
        .iter()
        .zip(arrivals)
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
