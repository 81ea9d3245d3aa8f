//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The engine implements the standard modern architecture: two-watched-literal
//! propagation with blocker literals, first-UIP conflict analysis with clause
//! minimisation, VSIDS decision heuristics with phase saving, Luby restarts,
//! LBD-based learnt-clause database reduction, level-0 simplification, and
//! incremental solving under assumptions with unsat-core extraction.
//!
//! This crate is the substrate standing in for Z3 in the ETCS Level 3
//! reproduction: the encodings in `etcs-core` are plain CNF plus linear
//! objectives, for which an exact CDCL + MaxSAT stack produces identical
//! answers.

mod heap;
mod restart;

pub use restart::luby;

use crate::clause::{ClauseDb, ClauseRef};
use crate::interrupt::Interrupt;
use crate::model::Model;
use crate::proof::ProofSink;
use crate::stats::Stats;
use crate::types::{LBool, Lit, Var};
use etcs_obs::Obs;
use heap::VarHeap;

/// Base conflict limit of the Luby restart sequence.
const RESTART_BASE: u64 = 128;
/// VSIDS variable-activity decay factor.
const VAR_DECAY: f64 = 0.95;
/// Inside a restart the [`Interrupt`] is polled every 64 conflicts
/// (`conflicts & POLL_MASK == 0`); restart boundaries poll unconditionally.
/// This bounds the latency of a cancellation landing mid-restart.
const POLL_MASK: u64 = 63;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula is unsatisfiable under the given assumptions.
    ///
    /// `core` is a subset of the assumption literals that is already
    /// inconsistent with the formula (empty when the formula itself is
    /// unsatisfiable without assumptions).
    Unsat {
        /// Failed subset of the assumptions.
        core: Vec<Lit>,
    },
    /// The installed [`Interrupt`] fired before a verdict was reached.
    Unknown,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat { .. })
    }

    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// One watch-list entry (8 bytes).
///
/// For a binary clause `cref` carries the binary flag and `blocker` is the
/// clause's other literal, so propagation never loads the clause: the
/// blocker alone says whether the clause is satisfied, unit or conflicting.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// Arbitrary other literal of the clause; if it is already true the
    /// clause is satisfied and the watch scan can skip loading the clause.
    blocker: Lit,
}

const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

/// A CDCL SAT solver over clauses built from [`Var`]s handed out by
/// [`Solver::new_var`].
///
/// # Examples
///
/// ```
/// use etcs_sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([!a.positive()]);
/// match s.solve() {
///     SatResult::Sat(model) => assert!(model.lit_is_true(b.positive())),
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// `watches[l.index()]` lists clauses that must be inspected when literal
    /// `l` becomes true (they watch `!l`).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: VarHeap,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    /// Becomes false once level-0 unsatisfiability is established.
    ok: bool,
    seen: Vec<bool>,
    stats: Stats,
    /// Learnt-clause count that triggers the next database reduction.
    reduce_limit: usize,
    /// Trail length at the last level-0 simplification; the satisfied-clause
    /// scan is skipped while no new level-0 facts have been derived.
    last_simplify_trail: usize,
    /// Trail length up to which level-0 facts have been emitted to the proof
    /// as explicit unit lemmas. Satisfied-clause elimination may delete the
    /// clauses those facts were propagated from, so the facts must be pinned
    /// as lemmas first or later derivations stop being RUP for the checker.
    proof_units: usize,
    /// Cooperative cancellation token; [`Interrupt::none`] by default, in
    /// which case every poll is a single branch.
    interrupt: Interrupt,
    default_phase: bool,
    /// Optional DRAT proof logger. `None` (the default) keeps all emission
    /// paths behind a single branch, so solving without a proof is free.
    proof: Option<Box<dyn ProofSink>>,
    /// Observability handle. Disabled by default, in which case every
    /// emission site is a single branch (see `etcs-obs`).
    obs: Obs,
    /// Reused buffer for normalising clauses in [`Solver::add_clause`].
    add_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            heap: VarHeap::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: Vec::new(),
            ok: true,
            seen: Vec::new(),
            stats: Stats::default(),
            reduce_limit: 2000,
            last_simplify_trail: 0,
            proof_units: 0,
            interrupt: Interrupt::none(),
            default_phase: false,
            proof: None,
            obs: Obs::disabled(),
            add_buf: Vec::new(),
        }
    }

    /// Installs an observability handle: every later `solve`/`solve_with`
    /// call is wrapped in a `sat.solve` span (closing with the call's
    /// conflict/propagation/decision deltas and its verdict), restarts emit
    /// `sat.restart` events and learnt-database reductions `sat.reduce`
    /// events. Installing [`Obs::disabled`] (the initial state) turns all
    /// of that back into single branches.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Installs a DRAT proof sink. Must be called **before any clauses are
    /// added**: level-0 simplifications performed while loading are part of
    /// the certificate, and a sink installed later would miss them.
    ///
    /// With a sink installed, every learnt clause (and every clause produced
    /// by level-0 simplification) is emitted as an addition, and every
    /// discarded clause as a deletion, in the order the solver performs them.
    /// When the formula is refuted without assumptions the emitted proof ends
    /// with the empty clause.
    ///
    /// # Panics
    ///
    /// Panics if clauses have already been added.
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.num_clauses() == 0 && self.trail.is_empty() && self.ok,
            "proof sink must be installed before any clauses are added"
        );
        self.proof = Some(sink);
    }

    /// Removes and returns the proof sink, disabling further logging.
    pub fn take_proof_sink(&mut self) -> Option<Box<dyn ProofSink>> {
        self.proof.take()
    }

    /// `true` while a proof sink is installed.
    pub fn is_proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add_clause(lits);
        }
    }

    #[inline]
    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.delete_clause(lits);
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(self.default_phase);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Allocates `n` fresh variables and returns them in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (problem + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.num_problem() + self.db.num_learnt()
    }

    /// Number of live *learnt* clauses — the state an incremental caller
    /// carries from one `solve_with` call into the next.
    pub fn num_learnt_clauses(&self) -> usize {
        self.db.num_learnt()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Installs a cooperative cancellation token, polled at restart
    /// boundaries and every few dozen conflicts. Once the token fires,
    /// `solve`/`solve_with` return [`SatResult::Unknown`]: the trail is
    /// rolled back to level 0, no assumption sticks, everything learnt
    /// during the aborted call stays, and the solver remains usable, so a
    /// later call resumes from strictly more information. Probe the token
    /// afterwards to distinguish cancellation from an expired deadline.
    /// Install [`Interrupt::none`] to detach.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// Sets the phase a variable is first tried with (`false` by default,
    /// which suits sparse encodings such as the ETCS occupancy variables).
    pub fn set_default_phase(&mut self, phase: bool) {
        self.default_phase = phase;
    }

    /// Sets the saved phase of one variable (the value it is first decided
    /// to). Encoders use this to steer the search towards likely-satisfiable
    /// regions, e.g. "all VSS borders active".
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v.index()] = phase;
    }

    /// Adds `amount` to a variable's branching activity. Encoders use this
    /// to seed a domain-aware decision order (e.g. structural variables
    /// first, early time steps before late ones); VSIDS takes over as
    /// conflicts accumulate.
    pub fn boost_activity(&mut self, v: Var, amount: f64) {
        self.activity[v.index()] += amount;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the formula is now unsatisfiable at level 0 (an
    /// empty clause arose); the solver stays in that state and further
    /// `solve` calls return `Unsat`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a literal references a variable that was not
    /// created by [`Solver::new_var`] on this solver.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut buf = std::mem::take(&mut self.add_buf);
        buf.clear();
        buf.extend(lits);
        let added = self.add_normalised(&mut buf);
        self.add_buf = buf;
        added
    }

    /// [`Solver::add_clause`] on a collected literal buffer, which it
    /// sorts and strips in place.
    fn add_normalised(&mut self, lits: &mut Vec<Lit>) -> bool {
        for &l in lits.iter() {
            debug_assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} uses an unallocated variable"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        let original = if self.proof.is_some() {
            Some(lits.clone())
        } else {
            None
        };
        // Tautology / level-0 simplification.
        let mut write = 0;
        for read in 0..lits.len() {
            let l = lits[read];
            if read + 1 < lits.len() && lits[read + 1] == !l {
                return true; // tautology: contains l and !l (adjacent after sort)
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    lits[write] = l;
                    write += 1;
                }
            }
        }
        lits.truncate(write);
        // Stripping level-0 falsified literals produced a stronger clause: it
        // is RUP (the dropped literals' negations are propagation-derivable),
        // so certify the stripped clause and retire the original — the
        // proof's active set must mirror the clause database.
        if let Some(orig) = original.filter(|o| o.len() != lits.len()) {
            self.proof_add(lits);
            self.proof_delete(&orig);
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.proof_add(&[]);
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.db.push(lits, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Convenience for adding many clauses; returns `false` if any addition
    /// made the formula level-0 unsatisfiable.
    pub fn add_clauses<I, C>(&mut self, clauses: I) -> bool
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Lit>,
    {
        let mut ok = true;
        for c in clauses {
            ok &= self.add_clause(c);
        }
        ok
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, the returned `core` is a subset of `assumptions` that is
    /// jointly inconsistent with the formula. The solver state (clauses,
    /// activities, learnt clauses) is preserved across calls, enabling
    /// incremental use by the MaxSAT layer and the incremental optimisation
    /// loop of `etcs-core`.
    ///
    /// # Assumption scope
    ///
    /// Assumptions are **per call**, in the MiniSat tradition: they are
    /// decided (in order) before any free branching, never asserted as
    /// clauses, and fully retracted before this method returns — the trail
    /// is rolled back to decision level 0 on every exit path. Consequently:
    ///
    /// * an assumption from a previous call never constrains the next
    ///   call's model (pass it again if you still want it),
    /// * a returned `core` only ever mentions literals from *this* call's
    ///   `assumptions` slice,
    /// * [`Solver::lit_value`] afterwards reports only facts fixed by the
    ///   formula itself, never a stale assumption,
    /// * clauses *learnt* while assumptions were active are consequences of
    ///   the formula alone (analysis stops at assumption decisions and
    ///   encodes them as clause literals), so keeping them for later calls
    ///   is sound — this is what makes selector-guarded deadline probing
    ///   cheap.
    ///
    /// The `assumption_literals_do_not_leak_across_calls` regression test
    /// in `tests/regression.rs` pins this contract.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.obs.is_enabled() {
            return self.solve_with_inner(assumptions);
        }
        let before = self.stats;
        let span = self
            .obs
            .span_with("sat.solve", &[("assumptions", assumptions.len().into())]);
        let result = self.solve_with_inner(assumptions);
        let verdict = match &result {
            SatResult::Sat(_) => "sat",
            SatResult::Unsat { .. } => "unsat",
            SatResult::Unknown => "unknown",
        };
        span.close_with(&[
            ("result", verdict.into()),
            (
                "conflicts",
                (self.stats.conflicts - before.conflicts).into(),
            ),
            (
                "propagations",
                (self.stats.propagations - before.propagations).into(),
            ),
            (
                "decisions",
                (self.stats.decisions - before.decisions).into(),
            ),
            ("restarts", (self.stats.restarts - before.restarts).into()),
        ]);
        result
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats.solve_calls += 1;
        if self.stats.solve_calls > 1 {
            self.stats.reused_learnts += self.db.num_learnt() as u64;
        }
        if !self.ok {
            return SatResult::Unsat { core: Vec::new() };
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return SatResult::Unsat { core: Vec::new() };
        }
        // Size the learnt-clause budget to the problem: tiny limits thrash
        // on large encodings.
        self.reduce_limit = self.reduce_limit.max(self.db.num_problem() / 2);
        let mut restart_num = 0u64;
        loop {
            // Restart-boundary poll: catches tokens triggered before the
            // call as well as deadlines expiring between restarts.
            if self.interrupt.is_triggered() {
                self.cancel_until(0);
                return SatResult::Unknown;
            }
            restart_num += 1;
            let limit = RESTART_BASE.saturating_mul(luby(restart_num));
            match self.search(assumptions, limit) {
                SearchOutcome::Sat => {
                    let model = Model::from_assignments(&self.assigns);
                    self.cancel_until(0);
                    return SatResult::Sat(model);
                }
                SearchOutcome::Unsat(core) => {
                    self.cancel_until(0);
                    return SatResult::Unsat { core };
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.obs.event(
                        "sat.restart",
                        &[
                            ("conflicts", self.stats.conflicts.into()),
                            ("learnt", self.db.num_learnt().into()),
                        ],
                    );
                    self.cancel_until(0);
                    self.simplify_and_maybe_reduce();
                    if !self.ok {
                        return SatResult::Unsat { core: Vec::new() };
                    }
                }
                SearchOutcome::Interrupted => {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
            }
        }
    }

    /// Current value of a literal under the partial/level-0 assignment.
    ///
    /// After `solve` returned, the trail is rolled back to level 0, so this
    /// reports only facts fixed by the formula itself.
    pub fn lit_value(&self, l: Lit) -> LBool {
        value_of(&self.assigns, l)
    }

    /// `true` once the formula is known unsatisfiable at level 0.
    pub fn is_conflicting(&self) -> bool {
        !self.ok
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (w0, w1) = (lits[0], lits[1]);
        let cref = if lits.len() == 2 { cref.binary() } else { cref };
        self.watches[(!w0).index()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).index()].push(Watcher { cref, blocker: w0 });
    }

    #[inline]
    fn enqueue(&mut self, p: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(p), LBool::Undef);
        let v = p.var().index();
        self.assigns[v] = LBool::from_bool(p.is_positive());
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.trail.push(p);
    }

    /// Unit propagation; returns the conflicting clause if a conflict arose.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                let blocker = value_of(&self.assigns, w.blocker);
                if blocker == LBool::True {
                    i += 1;
                    continue;
                }
                if w.cref.is_binary() {
                    // The blocker is the other literal: unit or conflict
                    // without loading the clause.
                    let cref = w.cref.plain();
                    if blocker == LBool::False {
                        // Analysis reads the conflict clause in the
                        // `[other, !p]` order a full visit would leave.
                        let lits = self.db.lits_mut(cref);
                        if lits[0] == false_lit {
                            lits.swap(0, 1);
                        }
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                        break;
                    }
                    self.enqueue(w.blocker, Some(cref));
                    i += 1;
                    continue;
                }
                if self.db.is_deleted(w.cref) {
                    ws.swap_remove(i);
                    continue;
                }
                // Ensure the falsified watched literal (!p) sits at slot 1.
                let lits = self.db.lits_mut(w.cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_value = value_of(&self.assigns, first);
                if first_value == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if value_of(&self.assigns, cand) != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!cand).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement: unit or conflicting.
                if first_value == LBool::False {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.cref));
                i += 1;
            }
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var();
            self.phase[v.index()] = p.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reasons[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    /// Bumps a learnt clause's activity. Problem clauses carry no
    /// activity: only learnt clauses are ranked by `reduce_learnt`, and a
    /// bumped problem clause would cross the rescale limit again on every
    /// later bump, rescaling `cla_inc` towards zero.
    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let activity = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, activity);
        if activity > RESCALE_LIMIT {
            for r in self.db.learnt_refs() {
                let scaled = self.db.activity(r) * 1e-100;
                self.db.set_activity(r, scaled);
            }
            self.cla_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// First-UIP conflict analysis.
    ///
    /// Returns the learnt clause (asserting literal first), the backtrack
    /// level, and the clause's literal-block distance.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = Vec::with_capacity(8);
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let current_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            for k in 0..self.db.len(cref) {
                let q = self.db.lits(cref)[k];
                // Skip the implied literal itself when traversing its reason.
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.levels[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.levels[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next marked literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            p = Some(lit);
            cref = self.reasons[lit.var().index()]
                .expect("non-decision literal on conflict side must have a reason");
        }

        let asserting = !p.expect("analysis always reaches the first UIP");
        // Clause minimisation: drop literals whose reason is subsumed by the
        // remainder of the learnt clause (one-step self-subsumption).
        for &l in &learnt {
            self.seen[l.var().index()] = true;
        }
        let minimised: Vec<Lit> = learnt
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = minimised;
        self.stats.learnt_literals += learnt.len() as u64 + 1;

        // Backtrack level = highest level among the non-asserting literals.
        let bt_level = learnt
            .iter()
            .map(|l| self.levels[l.var().index()])
            .max()
            .unwrap_or(0);
        // Move a literal of bt_level to slot 1 (second watch invariant).
        let mut out = Vec::with_capacity(learnt.len() + 1);
        out.push(asserting);
        if let Some(pos) = learnt
            .iter()
            .position(|l| self.levels[l.var().index()] == bt_level)
        {
            learnt.swap(0, pos);
        }
        out.extend(learnt);

        // LBD = number of distinct decision levels in the clause.
        let mut lvls: Vec<u32> = out.iter().map(|l| self.levels[l.var().index()]).collect();
        lvls.sort_unstable();
        lvls.dedup();
        let lbd = lvls.len() as u32;

        (out, bt_level, lbd)
    }

    /// One-step redundancy check for clause minimisation: `l` is redundant if
    /// it was implied by literals that are all already in the learnt clause
    /// (or fixed at level 0).
    fn literal_redundant(&self, l: Lit) -> bool {
        match self.reasons[l.var().index()] {
            None => false,
            Some(r) => self.db.lits(r).iter().all(|&q| {
                q.var() == l.var()
                    || self.seen[q.var().index()]
                    || self.levels[q.var().index()] == 0
            }),
        }
    }

    /// Computes the subset of assumptions responsible for forcing `!failed`.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[failed.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reasons[v] {
                None => {
                    // Decision ⇒ an assumption literal (all decisions below
                    // the assumption boundary are assumptions). This also
                    // covers the opposite phase of the failed assumption's
                    // own variable, which is itself an assumption when two
                    // contradictory assumptions are passed.
                    core.push(q);
                }
                Some(r) => {
                    for &x in self.db.lits(r) {
                        if self.levels[x.var().index()] > 0 {
                            self.seen[x.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[failed.var().index()] = false;
        core
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn search(&mut self, assumptions: &[Lit], conflict_limit: u64) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.proof_add(&[]);
                    self.ok = false;
                    return SearchOutcome::Unsat(Vec::new());
                }
                let (learnt, bt_level, lbd) = self.analyze(conflict);
                self.cancel_until(bt_level);
                self.proof_add(&learnt);
                if learnt.len() == 1 {
                    debug_assert_eq!(bt_level, 0);
                    self.enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.db.push(&learnt, true, lbd);
                    self.attach(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.decay_activities();
                if conflicts_here & POLL_MASK == 0 && self.interrupt.is_triggered() {
                    return SearchOutcome::Interrupted;
                }
                if conflicts_here >= conflict_limit {
                    return SearchOutcome::Restart;
                }
            } else {
                // Assumption decisions come first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already implied: open a dummy level so the
                            // assumption index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            let core = self.analyze_final(p);
                            return SearchOutcome::Unsat(core);
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.index()]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Level-0 housekeeping performed between restarts: removes satisfied
    /// clauses, strips falsified literals, and if the learnt database grew
    /// past the limit deletes the less valuable half.
    ///
    /// The satisfied-clause scan only runs when new level-0 facts appeared
    /// since the last call, so restarts stay cheap.
    fn simplify_and_maybe_reduce(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        // A unit clause learnt on the restart-triggering conflict is enqueued
        // but not yet propagated when the restart fires; settle it before
        // housekeeping (it may even reveal level-0 unsatisfiability).
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return;
        }
        // Reasons of level-0 assignments are never inspected again.
        for &p in &self.trail {
            self.reasons[p.var().index()] = None;
        }
        let mut changed = false;
        let mut units: Vec<Lit> = Vec::new();
        if self.trail.len() > self.last_simplify_trail {
            self.last_simplify_trail = self.trail.len();
            changed = true;
            units = match self.remove_satisfied() {
                Some(units) => units,
                None => return, // level-0 conflict found
            };
        }
        if self.db.num_learnt() > self.reduce_limit {
            self.reduce_learnt();
            self.reduce_limit += self.reduce_limit / 2;
            changed = true;
        }
        if changed {
            // Every reason is `None` here (level 0, cleared above), so
            // compaction may move clauses; the rebuild then re-derives
            // every watcher from the new offsets. Watches must be
            // consistent before the recovered units are propagated,
            // otherwise their implications would be lost.
            self.db.compact_if_wasteful();
            self.rebuild_watches();
        }
        for u in units {
            match self.lit_value(u) {
                LBool::False => {
                    self.proof_add(&[]);
                    self.ok = false;
                    return;
                }
                LBool::Undef => self.enqueue(u, None),
                LBool::True => {}
            }
        }
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return;
        }
        self.last_simplify_trail = self.last_simplify_trail.max(self.trail.len());
    }

    /// Deletes clauses satisfied at level 0 and strips falsified literals.
    /// Returns the recovered unit literals, or `None` on a level-0 conflict
    /// (an empty clause).
    fn remove_satisfied(&mut self) -> Option<Vec<Lit>> {
        // Pin every new level-0 fact as an explicit unit lemma before any
        // clause it was propagated from is deleted: a clause that implied
        // the fact contains it, is therefore satisfied, and is about to be
        // removed — without the unit lemma, later derivations relying on
        // the fact would no longer be RUP for the proof checker.
        if self.proof.is_some() {
            for i in self.proof_units..self.trail.len() {
                let l = self.trail[i];
                self.proof_add(&[l]);
            }
            self.proof_units = self.trail.len();
        }
        let refs: Vec<ClauseRef> = self.db.iter_refs().collect();
        let mut units: Vec<Lit> = Vec::new();
        for r in refs {
            let original = if self.proof.is_some() {
                Some(self.db.lits(r).to_vec())
            } else {
                None
            };
            let mut satisfied = false;
            let mut k = 0;
            while k < self.db.len(r) {
                let l = self.db.lits(r)[k];
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {
                        self.db.swap_remove(r, k);
                    }
                    LBool::Undef => k += 1,
                }
            }
            if satisfied {
                if let Some(orig) = original {
                    self.proof_delete(&orig);
                }
                self.db.delete(r);
                continue;
            }
            // Literal stripping strengthened the clause: certify the
            // stripped version (RUP via the level-0 facts) and retire the
            // original. For recovered units (and the empty clause) the
            // strengthened lemma stays in the proof's active set even though
            // the database slot is released.
            if let Some(orig) = original.filter(|o| o.len() != self.db.len(r)) {
                let now = self.db.lits(r).to_vec();
                self.proof_add(&now);
                self.proof_delete(&orig);
            }
            match self.db.len(r) {
                0 => {
                    self.ok = false;
                    return None;
                }
                1 => {
                    units.push(self.db.lits(r)[0]);
                    self.db.delete(r);
                }
                _ => {}
            }
        }
        Some(units)
    }

    /// Deletes the worse half of learnt clauses (high LBD, low activity).
    /// Glue clauses (LBD <= 2) are always kept.
    fn reduce_learnt(&mut self) {
        let deleted_before = self.stats.deleted_clauses;
        let mut learnt = self.db.learnt_refs();
        let db = &self.db;
        learnt.sort_by(|&a, &b| {
            db.lbd(a).cmp(&db.lbd(b)).then(
                db.activity(b)
                    .partial_cmp(&db.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep = learnt.len() / 2;
        for &r in learnt.iter().skip(keep) {
            if self.db.lbd(r) <= 2 {
                continue;
            }
            if self.proof.is_some() {
                let lits = self.db.lits(r).to_vec();
                self.proof_delete(&lits);
            }
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        self.obs.event(
            "sat.reduce",
            &[
                (
                    "deleted",
                    (self.stats.deleted_clauses - deleted_before).into(),
                ),
                ("kept", self.db.num_learnt().into()),
            ],
        );
    }

    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let refs: Vec<ClauseRef> = self.db.iter_refs().collect();
        for r in refs {
            debug_assert!(self.db.len(r) >= 2);
            self.attach(r);
        }
    }
}

/// [`Solver::lit_value`] on a borrowed assignment, so propagation can read
/// values while it holds a clause's literals mutably.
#[inline]
fn value_of(assigns: &[LBool], l: Lit) -> LBool {
    let v = assigns[l.var().index()];
    if l.is_positive() {
        v
    } else {
        v.negate()
    }
}

enum SearchOutcome {
    Sat,
    Unsat(Vec<Lit>),
    Restart,
    Interrupted,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver) -> Lit {
        s.new_var().positive()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause([a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(a)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        s.add_clause([a]);
        assert!(!s.add_clause([!a]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn chain_of_implications() {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..20).map(|_| lit(&mut s)).collect();
        for w in vars.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        s.add_clause([vars[0]]);
        match s.solve() {
            SatResult::Sat(m) => {
                for &v in &vars {
                    assert!(m.lit_is_true(v));
                }
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn simple_unsat_triangle() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b)
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        s.add_clause([!a, b]);
        s.add_clause([a, !b]);
        s.add_clause([!a, !b]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        assert!(s.add_clause([a, !a]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, a, b, b]);
        s.add_clause([!a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn assumptions_sat_and_unsat_with_core() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let c = lit(&mut s);
        s.add_clause([!a, !b]); // a ∧ b impossible
        s.add_clause([c]);
        assert!(s.solve_with(&[a]).is_sat());
        assert!(s.solve_with(&[b]).is_sat());
        match s.solve_with(&[a, b]) {
            SatResult::Unsat { core } => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|l| *l == a || *l == b));
            }
            other => panic!("expected unsat: {other:?}"),
        }
        // Solver is still usable afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn core_excludes_irrelevant_assumptions() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let junk: Vec<Lit> = (0..5).map(|_| lit(&mut s)).collect();
        s.add_clause([!a, !b]);
        let mut assumptions = junk.clone();
        assumptions.push(a);
        assumptions.push(b);
        match s.solve_with(&assumptions) {
            SatResult::Unsat { core } => {
                for j in junk {
                    assert!(!core.contains(&j), "irrelevant assumption in core");
                }
            }
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn incremental_solving_reuses_state() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        assert!(s.solve().is_sat());
        s.add_clause([!a]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m.lit_is_true(b)),
            other => panic!("expected sat: {other:?}"),
        }
        s.add_clause([!b]);
        assert!(s.solve().is_unsat());
    }

    /// A proof sink that triggers whichever token `current` holds on every
    /// `every`-th clause addition.
    #[derive(Debug)]
    struct TriggerEvery {
        current: std::sync::Arc<std::sync::Mutex<crate::Interrupt>>,
        added: usize,
        every: usize,
    }

    impl ProofSink for TriggerEvery {
        fn add_clause(&mut self, _lits: &[Lit]) {
            self.added += 1;
            if self.added.is_multiple_of(self.every) {
                self.current.lock().expect("token slot").trigger();
            }
        }

        fn delete_clause(&mut self, _lits: &[Lit]) {}
    }

    #[test]
    fn interrupt_sliced_solving_reaches_the_same_verdict() {
        // Solver-state reuse audit: repeatedly solving under a token that
        // fires after a few lemmas must converge to the exact verdict an
        // uninterrupted solve gives, because learnt clauses persist across
        // Unknown returns.
        let n = 7usize;
        let current = std::sync::Arc::new(std::sync::Mutex::new(crate::Interrupt::new()));
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(TriggerEvery {
            current: current.clone(),
            added: 0,
            every: 10,
        }));
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let mut slices = 0usize;
        let verdict = loop {
            slices += 1;
            assert!(slices < 10_000, "interrupt-sliced loop must terminate");
            let token = crate::Interrupt::new();
            *current.lock().expect("token slot") = token.clone();
            s.set_interrupt(token);
            match s.solve() {
                SatResult::Unknown => continue,
                verdict => break verdict,
            }
        };
        assert!(verdict.is_unsat(), "pigeonhole is unsatisfiable");
        assert!(slices > 1, "the token must actually slice the search");
        // And the solver is still usable without a token.
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pre_triggered_interrupt_returns_unknown_and_solver_stays_usable() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        s.add_clause([a, b]);
        let token = crate::Interrupt::new();
        token.trigger();
        s.set_interrupt(token);
        assert_eq!(s.solve(), SatResult::Unknown);
        // Detaching the token restores normal solving on the same state.
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_sat());
    }

    /// A proof sink that triggers `token` when the solver emits its
    /// `fire_at`-th clause addition.
    #[derive(Debug)]
    struct TriggerOnLemma {
        token: crate::Interrupt,
        added: usize,
        fire_at: usize,
    }

    impl ProofSink for TriggerOnLemma {
        fn add_clause(&mut self, _lits: &[Lit]) {
            self.added += 1;
            if self.added == self.fire_at {
                self.token.trigger();
            }
        }

        fn delete_clause(&mut self, _lits: &[Lit]) {}
    }

    #[test]
    fn interrupt_inside_a_restart_is_caught_by_the_conflict_poll() {
        // Every conflict emits one lemma, so the token fires on conflict 10.
        // The first restart boundary comes at 128 conflicts, so only the
        // in-restart poll, every 64 conflicts, can observe the token.
        let n = 8usize;
        let token = crate::Interrupt::new();
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(TriggerOnLemma {
            token: token.clone(),
            added: 0,
            fire_at: 10,
        }));
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        s.set_interrupt(token.clone());
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(token.probe(), Some(crate::InterruptReason::Cancelled));
        assert_eq!(
            (s.stats().conflicts, s.stats().restarts),
            (64, 0),
            "the first poll after the trigger is at conflict 64"
        );
        // State intact: the trail is back at level 0, learnt clauses are
        // kept, and the same solver still reaches the verdict.
        assert!(
            s.num_learnt_clauses() > 0,
            "interrupted call learnt nothing"
        );
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_unsat(), "pigeonhole is unsatisfiable");
    }

    #[test]
    fn interrupt_mid_search_keeps_verdict_reachable() {
        // Interrupt a hard instance after some conflicts, then finish it:
        // learnt clauses must survive the aborted call.
        let n = 7usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let token = crate::Interrupt::with_deadline(std::time::Duration::ZERO);
        s.set_interrupt(token.clone());
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(
            token.probe(),
            Some(crate::InterruptReason::DeadlineExceeded)
        );
        s.set_interrupt(crate::Interrupt::none());
        assert!(s.solve().is_unsat(), "pigeonhole is unsatisfiable");
    }

    #[test]
    fn learnt_clause_retention_is_counted_across_calls() {
        // An incremental caller sees reused_learnts grow: clauses learnt in
        // call k are live at the start of call k+1.
        let n = 6usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        // Hole constraints only: satisfiable, but with conflicts under
        // assumptions forcing all pigeons placed.
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let sel: Vec<Lit> = (0..n).map(|_| lit(&mut s)).collect();
        for (row, &sl) in p.iter().zip(&sel) {
            let mut clause = vec![!sl];
            clause.extend(row.iter().copied());
            s.add_clause(clause);
        }
        assert!(s.solve_with(&sel).is_unsat());
        assert!(s.stats().conflicts > 0, "the probe must require search");
        assert!(s.num_learnt_clauses() > 0);
        assert_eq!(s.stats().solve_calls, 1);
        assert_eq!(s.stats().reused_learnts, 0, "first call reuses nothing");
        let live = s.num_learnt_clauses() as u64;
        assert!(s.solve_with(&sel[..n - 1]).is_sat());
        assert_eq!(s.stats().solve_calls, 2);
        assert_eq!(
            s.stats().reused_learnts,
            live,
            "second call starts with the first call's lemmas"
        );
    }

    #[test]
    fn obs_spans_mirror_search_statistics() {
        let (obs, sink) = etcs_obs::Obs::memory();
        let n = 6usize;
        let mut s = Solver::new();
        s.set_obs(obs);
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| lit(&mut s)).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        let events = sink.events();
        let closes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == etcs_obs::EventKind::SpanClose && e.name == "sat.solve")
            .collect();
        assert_eq!(closes.len(), 1, "one solve call, one span");
        let close = closes[0];
        assert_eq!(close.field_str("result"), Some("unsat"));
        assert_eq!(close.field_u64("conflicts"), Some(s.stats().conflicts));
        assert_eq!(
            close.field_u64("propagations"),
            Some(s.stats().propagations)
        );
        let restarts = events.iter().filter(|e| e.name == "sat.restart").count();
        assert_eq!(restarts as u64, s.stats().restarts);
    }

    #[test]
    fn clause_bumps_past_the_rescale_limit_keep_cla_inc_positive() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let c = lit(&mut s);
        s.add_clause([a, b, c]);
        let problem = s.db.iter_refs().next().expect("one problem clause");
        let learnt = s.db.push(&[!a, !b], true, 2);
        s.cla_inc = 1e99;
        // Problem clauses carry no activity: bumping one past the limit
        // must not rescale anything, however often it happens.
        for _ in 0..10 {
            s.bump_clause(problem);
        }
        assert_eq!(s.cla_inc, 1e99);
        // A learnt clause crossing the limit rescales once, then keeps
        // accumulating from the rescaled increment.
        for _ in 0..20 {
            s.bump_clause(learnt);
        }
        assert!(s.cla_inc > 0.0 && s.cla_inc.is_finite(), "{}", s.cla_inc);
        assert!(
            s.cla_inc >= 1e-2,
            "one rescale, not a cascade: {}",
            s.cla_inc
        );
        let act = s.db.activity(learnt);
        assert!(act > 0.0 && act <= RESCALE_LIMIT, "{act}");
    }

    #[test]
    fn binary_conflict_leaves_the_other_literal_first() {
        let mut s = Solver::new();
        let a = lit(&mut s);
        let b = lit(&mut s);
        let x = lit(&mut s);
        s.add_clause([a, b]);
        s.add_clause([x, a, b]);
        let binary = s.db.iter_refs().next().expect("binary clause");
        assert_eq!(s.db.lits(binary), &[a, b], "stored sorted");
        // Falsify both literals at one level; propagating `!a` visits the
        // binary watcher first and finds the conflict from its blocker.
        s.trail_lim.push(s.trail.len());
        s.enqueue(!a, None);
        s.enqueue(!b, None);
        assert_eq!(s.propagate(), Some(binary));
        assert_eq!(
            s.db.lits(binary),
            &[b, a],
            "[other, !p] as analysis reads it"
        );
        s.cancel_until(0);
        // Unit propagation through a binary watcher touches no clause
        // memory and records the clause as the reason.
        s.trail_lim.push(s.trail.len());
        s.enqueue(!b, None);
        assert_eq!(s.propagate(), None);
        assert_eq!(s.lit_value(a), LBool::True);
        assert_eq!(s.reasons[a.var().index()], Some(binary));
        assert_eq!(s.db.lits(binary), &[b, a], "unit visits leave the order");
    }

    #[test]
    fn model_respects_all_clauses_random_smoke() {
        // Deterministic pseudo-random 3-SAT instance, checked against the model.
        let num_vars = 30usize;
        let num_clauses = 100usize;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..num_clauses {
            let mut c = Vec::new();
            for _ in 0..3 {
                let v = vars[(next() % num_vars as u64) as usize];
                c.push(v.lit(next() % 2 == 0));
            }
            clauses.push(c.clone());
            s.add_clause(c);
        }
        if let SatResult::Sat(m) = s.solve() {
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| m.lit_is_true(l)),
                    "model violates clause {c:?}"
                );
            }
        }
    }
}
