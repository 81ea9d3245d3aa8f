//! The SAT encoding of Section III of the paper.
//!
//! Variables (Section III-A):
//! * `border_v` — one per candidate node (TTD borders are constants),
//! * `occupies[tr][t][e]` — allocated only inside the train's time–space
//!   cone (a sound pruning; everything outside is provably 0),
//! * `visited[tr][t]` / `done[tr][t]` — completion tracking.
//!
//! Constraints (Section III-B):
//! 1. *Shape*: at every step a present train occupies exactly one chain of
//!    `l*` segments (chain-selector Tseitin encoding; plain exactly-one for
//!    single-segment trains).
//! 2. *Movement*: every occupied segment must be within `v*` hops of an
//!    occupied segment in the next step (and symmetrically backwards).
//! 3. *Separation*: two trains in the same TTD force an active VSS border
//!    on the chain between them; sharing a segment is a hard conflict.
//! 4. *Collision*: a train moving `e → f` forbids every other train from
//!    the segments on any `≤ v*`-hop path between them at both steps
//!    (paper-literal: including the endpoints, which also rules out
//!    immediate re-occupation).

// Index-coupled loops over parallel tables are intentional here.
#![allow(clippy::needless_range_loop)]

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use etcs_network::{EdgeId, NodeKind, VssLayout};
use etcs_sat::{CnfSink, DratProof, Lit, Objective, Solver, Var};

use crate::instance::{ExitPolicy, Instance};
use crate::trace::{EncodingTrace, TracedSolver};

/// Tunable encoder behaviour; defaults reproduce the paper's formulation.
#[derive(Clone, Copy, Debug)]
pub struct EncoderConfig {
    /// Prune occupancy variables that cannot reach the train's goal in the
    /// remaining time (sound; mandatory for the Nordlandsbanen scale).
    pub prune_to_goal: bool,
    /// Mirror the emitted formula plus full provenance (variable labels,
    /// constraint groups, gates, objective references) into
    /// [`Encoding::trace`] so the `etcs-lint` audit can inspect it. Costs
    /// memory and time proportional to the encoding; off by default.
    pub trace: bool,
    /// Install a DRAT proof sink on the solver before the first clause so
    /// UNSAT verdicts can be certified against the traced formula (see
    /// [`Encoding::proof`]). Off by default.
    pub proof: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            prune_to_goal: true,
            trace: false,
            proof: false,
        }
    }
}

/// Whether the encoder emits its *deferrable* constraint families.
///
/// The eager core — train shape chains, movement/speed, completion
/// tracking and the task goals — is always emitted: dropping any of it
/// changes what a "plan" even is. The three pairwise-interaction families
/// are the ones a lazy refinement loop (`etcs-lazy`) instead adds on
/// demand, following Engels & Wille's lazy constraint selection:
///
/// * shared-segment exclusion — two trains must never occupy the same
///   segment (the `e == f` case of the separation constraint);
/// * separation — two trains inside one TTD force an active VSS border
///   on the chain between them;
/// * collision — a moving train's swept path is exclusive against every
///   other train at both end steps (trains cannot pass through one
///   another).
///
/// There are two values: [`ALL`](Self::ALL) emits every family (the
/// paper's formula) and [`CORE_ONLY`](Self::CORE_ONLY) defers all three.
/// A deferred family's constraint group is still *declared* (under
/// [`EncoderConfig::trace`]) but left empty, so the `etcs-lint` audit sees
/// — and, unless given a matching `LazyProfile` allowlist — flags exactly
/// which groups the relaxation dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstraintFamilies {
    deferred: bool,
}

impl ConstraintFamilies {
    /// Every family eager — the paper's monolithic encoding.
    pub const ALL: ConstraintFamilies = ConstraintFamilies { deferred: false };

    /// Only the eager core; all three pairwise families deferred.
    pub const CORE_ONLY: ConstraintFamilies = ConstraintFamilies { deferred: true };

    /// Names of the constraint groups this selection leaves empty — the
    /// allowlist a lint profile needs to accept the relaxed formula.
    pub fn relaxed_groups(&self) -> Vec<&'static str> {
        if self.deferred {
            vec!["separation", "collision"]
        } else {
            Vec::new()
        }
    }
}

/// Which task-specific constraints to add.
#[derive(Clone, Debug)]
pub enum TaskKind {
    /// Fixed VSS layout, arrival deadlines enforced.
    Verify(VssLayout),
    /// Free layout, arrival deadlines enforced.
    Generate,
    /// Free layout, deadlines dropped; every train must reach its goal by
    /// the horizon. [`crate::run`] minimises the completion step by
    /// probing [`TaskKind::Generate`] encodings under uniform deadlines
    /// instead of encoding this task.
    Optimize,
    /// Free layout, deadlines dropped; one guarded-deadline selector per
    /// candidate completion step (see [`Encoding::step_selectors`]) so a
    /// single persistent solver can probe every deadline via
    /// `solve_with(&[sel_d])` instead of re-encoding per probe.
    OptimizeIncremental,
    /// Like [`TaskKind::Verify`], but every train's arrival and stop
    /// deadlines are guarded by a selector literal (see
    /// [`Encoding::deadline_selectors`]) so unsat cores can pinpoint which
    /// deadlines conflict. Visiting each stop by the horizon stays hard.
    Diagnose(VssLayout),
}

/// Size statistics of a built encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingStats {
    /// Border variables (the candidate nodes).
    pub border_vars: usize,
    /// Allocated occupancy variables (after cone pruning).
    pub occupies_vars: usize,
    /// The paper's nominal count: `|Trains| · t_max · |E| + |V|`.
    pub nominal_vars: usize,
    /// Total solver variables (including Tseitin auxiliaries).
    pub solver_vars: usize,
    /// Clauses in the solver after encoding.
    pub clauses: usize,
}

/// Variable tables of a built encoding.
#[derive(Debug)]
pub struct VarMap {
    /// `border[v]` — `Some` for candidate nodes.
    pub border: Vec<Option<Var>>,
    /// `occ[tr][t][e]` — `Some` inside the cone.
    pub occ: Vec<Vec<Vec<Option<Var>>>>,
    /// `visited[tr][t]` — train has reached its destination by `t`
    /// (`None` before departure).
    pub visited: Vec<Vec<Option<Lit>>>,
    /// `done[tr][t]` — train has completed (left or parked).
    pub done: Vec<Vec<Option<Lit>>>,
}

impl VarMap {
    /// Occupancy literal, `None` outside the cone (provably false).
    pub fn occ_lit(&self, tr: usize, t: usize, e: EdgeId) -> Option<Lit> {
        self.occ[tr][t][e.index()].map(Var::positive)
    }
}

/// A fully built SAT encoding, ready for the design tasks.
#[derive(Debug)]
pub struct Encoding {
    /// The loaded solver.
    pub solver: Solver,
    /// Variable tables for decoding.
    pub vars: VarMap,
    /// Size statistics.
    pub stats: EncodingStats,
    /// `min Σ border_v` objective (layout generation; secondary objective of
    /// optimisation).
    pub border_objective: Objective,
    /// For [`TaskKind::Diagnose`]: one selector literal per train, in
    /// schedule order; assuming a selector enforces that train's arrival
    /// and stop deadlines. Empty for the other tasks.
    pub deadline_selectors: Vec<Lit>,
    /// For [`TaskKind::OptimizeIncremental`]: `step_selectors[d]` is a
    /// selector literal whose assumption forces every train to reach its
    /// goal by step `d` — exactly the goal of each train the from-scratch
    /// optimisation loop asserts when probing deadline `d`, so both paths
    /// find the same optimum. Allocated for
    /// `d ∈ [completion_lower_bound, t_max)` (earlier deadlines are
    /// provably infeasible); `None` elsewhere and for the other tasks.
    pub step_selectors: Vec<Option<Lit>>,
    /// The formula mirror + provenance (only with [`EncoderConfig::trace`]).
    pub trace: Option<EncodingTrace>,
    /// Shared handle to the DRAT proof the solver appends to (only with
    /// [`EncoderConfig::proof`]). After an UNSAT solve, check it against
    /// `trace.formula.clauses()` — the mirror is the proof's axiom set.
    pub proof: Option<Arc<Mutex<DratProof>>>,
}

impl Encoding {
    /// Assumptions that probe deadline `d` on a [`TaskKind::OptimizeIncremental`]
    /// encoding: the selector `sel_d` plus `¬occ[tr,t,e]` for every
    /// occupancy variable outside the deadline-`d` time–space cone (the
    /// goal-side test of [`Instance::active_edges`]). The from-scratch loop
    /// never allocates those variables in its per-probe encoding; passing
    /// their negations as assumptions gives the persistent solver the same
    /// propagation-level pruning without permanently bloating the formula —
    /// each probe retracts them with its selector.
    ///
    /// Sound because every pruned literal is implied by the deadline the
    /// selector enforces: a plan meeting deadline `d` cannot occupy a
    /// segment from which the goal is no longer reachable in time.
    ///
    /// Empty only when the schedule is empty (no selector was allocated);
    /// callers then probe the unguarded base formula.
    pub fn deadline_probe_assumptions(&self, inst: &Instance, d: usize) -> Vec<Lit> {
        let mut assumptions: Vec<Lit> = self
            .step_selectors
            .get(d)
            .copied()
            .flatten()
            .into_iter()
            .collect();
        if assumptions.is_empty() {
            return assumptions;
        }
        for (tr, spec) in inst.trains.iter().enumerate() {
            let slack = (spec.length - 1) as u32;
            for t in spec.dep_step..inst.t_max {
                let reach = spec
                    .speed
                    .saturating_mul(d.saturating_sub(t) as u32)
                    .saturating_add(slack);
                for (e, var) in self.vars.occ[tr][t].iter().enumerate() {
                    let Some(v) = var else { continue };
                    let g = inst.dist_to_set(EdgeId::from_index(e), &spec.goal_edges);
                    if !matches!(g, Some(x) if x <= reach) {
                        assumptions.push(!v.positive());
                    }
                }
            }
        }
        assumptions
    }
}

/// Builds the encoding for an instance and task (every constraint family
/// eager, the paper's monolithic formulation).
pub fn encode(inst: &Instance, config: &EncoderConfig, task: &TaskKind) -> Encoding {
    encode_with(inst, config, task, ConstraintFamilies::ALL)
}

/// [`encode`] with an explicit eager/lazy split: families disabled in
/// `families` are *not* emitted — their constraint groups are declared but
/// left empty — producing a sound relaxation of the full encoding (every
/// model of the full encoding satisfies the relaxation). The `etcs-lazy`
/// refinement loop re-adds violated instances of the deferred families as
/// plain clauses on [`Encoding::solver`].
pub fn encode_with(
    inst: &Instance,
    config: &EncoderConfig,
    task: &TaskKind,
    families: ConstraintFamilies,
) -> Encoding {
    Encoder::new(inst, config, task, families).build()
}

struct Encoder<'a> {
    inst: &'a Instance,
    config: &'a EncoderConfig,
    task: &'a TaskKind,
    families: ConstraintFamilies,
    solver: TracedSolver,
    border: Vec<Option<Var>>,
    occ: Vec<Vec<Vec<Option<Var>>>>,
    visited: Vec<Vec<Option<Lit>>>,
    done: Vec<Vec<Option<Lit>>>,
    active: Vec<Vec<Vec<EdgeId>>>,
    /// `near[e]`: every `(f, dist(e, f))` within the top train speed,
    /// ascending `f`. Distances are symmetric, so the list serves both
    /// movement directions; filtering it by a cone yields exactly the
    /// cone's edges in the order the all-pairs scans visited them.
    near: Vec<Vec<(EdgeId, u32)>>,
    /// `same_ttd[e]`: the edges of `e`'s TTD (including `e`), ascending —
    /// the only partners the separation constraint can emit a clause for.
    same_ttd: Vec<Vec<EdgeId>>,
    /// `occupants[t][g]`: how many trains have an occupancy variable on
    /// segment `g` at step `t` (the collision sweep's `contested` test).
    occupants: Vec<Vec<u32>>,
    /// `between[e][n]`, aligned with `same_ttd[e]` and filled on first use
    /// for `e < same_ttd[e][n]` only: the border literals of
    /// `between(e, f)`, or `None` when a forced TTD border already
    /// separates the pair.
    between: Vec<Vec<OnceCell<Option<Vec<Lit>>>>>,
    /// Chains of each needed length.
    chain_cache: HashMap<usize, Vec<Vec<EdgeId>>>,
}

impl<'a> Encoder<'a> {
    fn new(
        inst: &'a Instance,
        config: &'a EncoderConfig,
        task: &'a TaskKind,
        families: ConstraintFamilies,
    ) -> Self {
        Encoder {
            inst,
            config,
            task,
            families,
            solver: TracedSolver::new(config.trace, config.proof),
            border: Vec::new(),
            occ: Vec::new(),
            visited: Vec::new(),
            done: Vec::new(),
            active: Vec::new(),
            near: Vec::new(),
            same_ttd: Vec::new(),
            occupants: Vec::new(),
            between: Vec::new(),
            chain_cache: HashMap::new(),
        }
    }

    fn build(mut self) -> Encoding {
        self.alloc_border_vars();
        self.alloc_occupancy_vars();
        self.index_neighbourhoods();
        let occupies_vars = self
            .occ
            .iter()
            .flatten()
            .flatten()
            .filter(|v| v.is_some())
            .count();

        for tr in 0..self.inst.trains.len() {
            self.encode_shape(tr);
            self.encode_movement(tr);
            self.encode_completion(tr);
        }
        self.encode_separation();
        self.encode_collision();
        let deadline_selectors = self.encode_task_goals();
        let step_selectors = if matches!(self.task, TaskKind::OptimizeIncremental) {
            self.build_step_selectors()
        } else {
            Vec::new()
        };
        self.seed_decision_order();

        let border_objective =
            Objective::count_of(self.border.iter().filter_map(|v| v.map(Var::positive)));
        self.solver
            .mark_objective(self.border.iter().filter_map(|v| v.map(Var::positive)));

        let (solver, trace, proof) = self.solver.finish();
        let stats = EncodingStats {
            border_vars: self.border.iter().filter(|v| v.is_some()).count(),
            occupies_vars,
            nominal_vars: self.inst.nominal_var_count(),
            solver_vars: solver.num_vars(),
            clauses: solver.num_clauses(),
        };
        Encoding {
            solver,
            vars: VarMap {
                border: self.border,
                occ: self.occ,
                visited: self.visited,
                done: self.done,
            },
            stats,
            border_objective,
            deadline_selectors,
            step_selectors,
            trace,
            proof,
        }
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    fn alloc_border_vars(&mut self) {
        let net = &self.inst.net;
        self.border = vec![None; net.num_nodes()];
        for n in net.border_candidates() {
            let v = CnfSink::new_var(&mut self.solver);
            self.solver
                .tag_var(v, || format!("border[node={}]", n.index()));
            self.border[n.index()] = Some(v);
        }
        if let TaskKind::Verify(layout) | TaskKind::Diagnose(layout) = self.task {
            if !net.border_candidates().is_empty() {
                self.solver.begin_group(|| "border-fix".to_owned());
            }
            for n in net.border_candidates() {
                let v = self.border[n.index()].expect("candidate has a variable");
                if layout.borders().contains(&n) {
                    self.solver.assert_true(v.positive());
                } else {
                    self.solver.assert_false(v.positive());
                }
            }
        }
    }

    fn alloc_occupancy_vars(&mut self) {
        let num_edges = self.inst.net.num_edges();
        for tr in &self.inst.trains {
            // Deadline-based cone pruning would hard-wire the deadlines the
            // Diagnose task wants to treat as optional assumptions.
            let relaxed;
            let tr = if matches!(self.task, TaskKind::Diagnose(_)) {
                relaxed = crate::instance::TrainSpec {
                    deadline_step: None,
                    ..tr.clone()
                };
                &relaxed
            } else {
                tr
            };
            let mut per_train = Vec::with_capacity(self.inst.t_max);
            let mut active_train = Vec::with_capacity(self.inst.t_max);
            for t in 0..self.inst.t_max {
                let active = self.inst.active_edges(tr, t, self.config.prune_to_goal);
                let mut row: Vec<Option<Var>> = vec![None; num_edges];
                for &e in &active {
                    let v = CnfSink::new_var(&mut self.solver);
                    let name = &tr.name;
                    self.solver
                        .tag_var(v, || format!("occ[{name},t={t},seg={}]", e.index()));
                    row[e.index()] = Some(v);
                }
                per_train.push(row);
                active_train.push(active);
            }
            self.occ.push(per_train);
            self.active.push(active_train);
        }
    }

    /// Builds the neighbour, same-TTD and occupant tables the constraint
    /// loops iterate instead of testing every pair of active edges.
    fn index_neighbourhoods(&mut self) {
        let inst = self.inst;
        let num_edges = inst.net.num_edges();
        let top_speed = inst.trains.iter().map(|t| t.speed).max().unwrap_or(0);
        let mut by_ttd: BTreeMap<_, Vec<EdgeId>> = BTreeMap::new();
        self.near = (0..num_edges)
            .map(|e| {
                let e = EdgeId::from_index(e);
                by_ttd.entry(inst.net.segment(e).ttd).or_default().push(e);
                (0..num_edges)
                    .map(EdgeId::from_index)
                    .filter_map(|f| {
                        let d = inst.dist(e, f)?;
                        debug_assert_eq!(inst.dist(f, e), Some(d), "distances are symmetric");
                        (d <= top_speed).then_some((f, d))
                    })
                    .collect()
            })
            .collect();
        self.same_ttd = (0..num_edges)
            .map(|e| by_ttd[&inst.net.segment(EdgeId::from_index(e)).ttd].clone())
            .collect();
        self.between = self
            .same_ttd
            .iter()
            .map(|partners| partners.iter().map(|_| OnceCell::new()).collect())
            .collect();
        self.occupants = vec![vec![0; num_edges]; inst.t_max];
        for per_train in &self.occ {
            for (t, row) in per_train.iter().enumerate() {
                for (g, var) in row.iter().enumerate() {
                    self.occupants[t][g] += u32::from(var.is_some());
                }
            }
        }
    }

    /// Appends to `out` the occupancy literals of train `tr` at step `t`
    /// on the neighbours of `e` within `speed` hops, ascending by edge;
    /// returns how many it appended.
    fn push_reachable(
        &self,
        out: &mut Vec<Lit>,
        e: EdgeId,
        tr: usize,
        t: usize,
        speed: u32,
    ) -> usize {
        let before = out.len();
        let row = &self.occ[tr][t];
        out.extend(
            self.near[e.index()]
                .iter()
                .filter(|&&(_, d)| d <= speed)
                .filter_map(|&(f, _)| row[f.index()].map(Var::positive)),
        );
        out.len() - before
    }

    fn occ_lit(&self, tr: usize, t: usize, e: EdgeId) -> Option<Lit> {
        self.occ[tr][t][e.index()].map(Var::positive)
    }

    // ------------------------------------------------------------------
    // Constraint 1: shape (exactly one chain of length l*)
    // ------------------------------------------------------------------

    fn encode_shape(&mut self, tr: usize) {
        let spec = &self.inst.trains[tr];
        let length = spec.length;
        if spec.dep_step >= self.inst.t_max {
            return;
        }
        {
            let name = &self.inst.trains[tr].name;
            self.solver.begin_group(|| format!("shape[{name}]"));
        }
        if !self.chain_cache.contains_key(&length) {
            let chains = self.inst.net.chains(length);
            self.chain_cache.insert(length, chains);
        }
        for t in self.inst.trains[tr].dep_step..self.inst.t_max {
            if length == 1 {
                self.encode_shape_single(tr, t);
            } else {
                self.encode_shape_chains(tr, t);
            }
        }
    }

    /// Length-1 trains: the occupancy variables are the chain selectors.
    fn encode_shape_single(&mut self, tr: usize, t: usize) {
        let spec = &self.inst.trains[tr];
        let lits: Vec<Lit> = self.active[tr][t]
            .iter()
            .filter_map(|&e| self.occ_lit(tr, t, e))
            .collect();
        etcs_sat::card::at_most_one_sequential(&mut self.solver, &lits);
        // At departure the at-least side sharpens to the origin edges (the
        // train must start at its origin); emitting the weaker full-row
        // clause alongside would be immediately self-subsumed.
        if t == spec.dep_step {
            let at_least: Vec<Lit> = spec
                .origin_edges
                .iter()
                .filter_map(|&e| self.occ_lit(tr, t, e))
                .collect();
            self.presence_clause(tr, t, &at_least, &lits);
        } else {
            self.presence_clause(tr, t, &lits, &lits);
        }
    }

    /// Longer trains: one selector per candidate chain.
    fn encode_shape_chains(&mut self, tr: usize, t: usize) {
        let inst = self.inst;
        let spec = &inst.trains[tr];
        let mut active_row = vec![false; inst.net.num_edges()];
        for &e in &self.active[tr][t] {
            active_row[e.index()] = true;
        }
        let chains: Vec<&Vec<EdgeId>> = self.chain_cache[&spec.length]
            .iter()
            .filter(|c| c.iter().all(|e| active_row[e.index()]))
            .filter(|c| t != spec.dep_step || c.iter().any(|e| spec.origin_edges.contains(e)))
            .collect();

        let row = &self.occ[tr][t];
        let mut selectors: Vec<Lit> = Vec::with_capacity(chains.len());
        let mut covering: HashMap<EdgeId, Vec<Lit>> = HashMap::new();
        for chain in chains {
            let sel = CnfSink::new_var(&mut self.solver).positive();
            selectors.push(sel);
            for &e in chain {
                let occ = row[e.index()].expect("chain edges are active").positive();
                self.solver.implies(sel, occ);
                covering.entry(e).or_default().push(sel);
            }
        }
        // Occupied edges must be covered by the selected chain. For Park
        // trains, an edge every candidate chain covers needs no clause: the
        // presence clause over all selectors subsumes it.
        let park = spec.exit == ExitPolicy::Park;
        let mut clause = Vec::new();
        for &e in &self.active[tr][t] {
            let cov = covering.get(&e).map(|v| v.as_slice()).unwrap_or(&[]);
            if park && cov.len() == selectors.len() {
                continue;
            }
            let occ = row[e.index()]
                .expect("active edge has a variable")
                .positive();
            clause.clear();
            clause.push(!occ);
            clause.extend_from_slice(cov);
            self.solver.add_clause_from(&clause);
        }
        etcs_sat::card::at_most_one_sequential(&mut self.solver, &selectors);
        self.presence_clause(tr, t, &selectors, &selectors);
    }

    /// "Present unless done": Park trains are always present after
    /// departure; Leave trains may be done instead. Also ties `done` to
    /// absence for Leave trains. `at_least` is the at-least-one side (a
    /// subset of `all` — sharpened to the origin edges at departure); the
    /// done-exclusivity side always ranges over `all`.
    fn presence_clause(&mut self, tr: usize, t: usize, at_least: &[Lit], all: &[Lit]) {
        let spec = &self.inst.trains[tr];
        match spec.exit {
            ExitPolicy::Park => {
                self.solver.add_clause(at_least.iter().copied());
            }
            ExitPolicy::Leave => {
                // done[t] is allocated later in encode_completion; allocate
                // eagerly here via the done table.
                let done = self.done_lit_or_alloc(tr, t);
                self.solver
                    .add_clause(std::iter::once(done).chain(at_least.iter().copied()));
                for &sel in all {
                    self.solver.add_clause_from(&[!done, !sel]);
                }
            }
        }
    }

    /// Done literal for a Leave train, allocating the variable on first use.
    fn done_lit_or_alloc(&mut self, tr: usize, t: usize) -> Lit {
        if self.done.len() <= tr {
            self.done.resize(self.inst.trains.len(), Vec::new());
            self.visited.resize(self.inst.trains.len(), Vec::new());
        }
        if self.done[tr].is_empty() {
            self.done[tr] = vec![None; self.inst.t_max];
            self.visited[tr] = vec![None; self.inst.t_max];
        }
        if let Some(l) = self.done[tr][t] {
            return l;
        }
        let l = CnfSink::new_var(&mut self.solver).positive();
        {
            let name = &self.inst.trains[tr].name;
            self.solver
                .tag_var(l.var(), || format!("done[{name},t={t}]"));
        }
        self.done[tr][t] = Some(l);
        l
    }

    // ------------------------------------------------------------------
    // Constraint 2: movement
    // ------------------------------------------------------------------

    fn encode_movement(&mut self, tr: usize) {
        let spec = &self.inst.trains[tr];
        let speed = spec.speed;
        let dep = spec.dep_step;
        let leave = spec.exit == ExitPolicy::Leave;
        let single = spec.length == 1;
        if dep >= self.inst.t_max.saturating_sub(1) {
            return;
        }
        {
            let name = &self.inst.trains[tr].name;
            self.solver.begin_group(|| format!("movement[{name}]"));
        }
        let mut clause = Vec::new();
        for t in dep..self.inst.t_max.saturating_sub(1) {
            // Shape's presence clauses allocated every `done` of a Leave
            // train already, so this allocates nothing.
            let done_next = leave.then(|| self.done_lit_or_alloc(tr, t + 1));
            let (current, next) = (&self.active[tr][t], &self.active[tr][t + 1]);
            for &e in current {
                let occ_e = self.occ_lit(tr, t, e).expect("active");
                clause.clear();
                clause.push(!occ_e);
                clause.extend(done_next);
                let reach = self.push_reachable(&mut clause, e, tr, t + 1, speed);
                // When every next-step position is reachable from `e`, the
                // presence clause at t+1 subsumes this one — skip it.
                if single && reach == next.len() {
                    continue;
                }
                self.solver.add_clause_from(&clause);
            }
            for &f in next {
                let occ_f = self.occ_lit(tr, t + 1, f).expect("active");
                clause.clear();
                clause.push(!occ_f);
                let back = self.push_reachable(&mut clause, f, tr, t, speed);
                // Same subsumption, against the presence clause at t — but
                // only for Park trains: the Leave presence clause carries a
                // `done` literal this clause does not.
                if single && !leave && back == current.len() {
                    continue;
                }
                self.solver.add_clause_from(&clause);
            }
        }
    }

    // ------------------------------------------------------------------
    // Constraint 3: VSS separation inside a TTD
    // ------------------------------------------------------------------

    fn encode_separation(&mut self) {
        let num_trains = self.inst.trains.len();
        if num_trains < 2 {
            return;
        }
        self.solver.begin_group(|| "separation".to_owned());
        if self.families.deferred {
            return; // deferred to the lazy loop; the group stays declared
        }
        // Only pairs inside one TTD (`e == f` included) can emit a clause,
        // so each edge of `i` meets just its own TTD's edges of `j`.
        let inst = self.inst;
        let mut clause = Vec::new();
        for t in 0..inst.t_max {
            for i in 0..num_trains {
                for j in (i + 1)..num_trains {
                    let row_j = &self.occ[j][t];
                    for &e in &self.active[i][t] {
                        let occ_i = self.occ[i][t][e.index()].expect("active").positive();
                        for (n, &f) in self.same_ttd[e.index()].iter().enumerate() {
                            let Some(occ_j) = row_j[f.index()].map(Var::positive) else {
                                continue;
                            };
                            if e == f {
                                self.solver.add_clause_from(&[!occ_i, !occ_j]);
                                continue;
                            }
                            // The table holds each pair once, at its lower
                            // edge, so both orders read one border list.
                            let cell = if e < f {
                                &self.between[e.index()][n]
                            } else {
                                let m = self.same_ttd[f.index()]
                                    .binary_search(&e)
                                    .expect("same-TTD partners are symmetric");
                                &self.between[f.index()][m]
                            };
                            let border = &self.border;
                            let borders = cell
                                .get_or_init(|| between_borders(inst, border, e.min(f), e.max(f)));
                            // `None`: a forced border already separates the pair.
                            if let Some(borders) = borders {
                                clause.clear();
                                clause.extend([!occ_i, !occ_j]);
                                clause.extend_from_slice(borders);
                                self.solver.add_clause_from(&clause);
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Constraint 4: no passing through one another
    // ------------------------------------------------------------------

    /// The constraint is factored through *sweep* variables:
    /// `sweep[tr][t][g]` ⇐ "tr moves `e → f` across `g` during `t → t+1`"
    /// (one ternary clause per move and path segment), and
    /// `sweep[tr][t][g]` ⇒ no other train on `g` at `t` or `t+1`
    /// (two binary clauses per other train). This is equisatisfiable with
    /// the paper's flat formulation but an order of magnitude smaller.
    fn encode_collision(&mut self) {
        let num_trains = self.inst.trains.len();
        if num_trains < 2 {
            return; // nothing to collide with
        }
        self.solver.begin_group(|| "collision".to_owned());
        if self.families.deferred {
            return; // deferred to the lazy loop; the group stays declared
        }
        // Sweep variables of one (mover, t), allocated on first use:
        // `sweep[g]` plus the list of the segments it set, sorted once so
        // the exclusivity clauses come out in ascending segment order.
        let mut sweep: Vec<Option<Lit>> = vec![None; self.inst.net.num_edges()];
        let mut swept: Vec<EdgeId> = Vec::new();
        for mover in 0..num_trains {
            let speed = self.inst.trains[mover].speed;
            for t in self.inst.trains[mover].dep_step..self.inst.t_max.saturating_sub(1) {
                for k in 0..self.active[mover][t].len() {
                    let e = self.active[mover][t][k];
                    for n in 0..self.near[e.index()].len() {
                        let (f, d) = self.near[e.index()][n];
                        if d >= 1 && d <= speed && self.occ[mover][t + 1][f.index()].is_some() {
                            self.encode_collision_move(mover, t, e, f, &mut sweep, &mut swept);
                        }
                    }
                }
                // Swept segments are exclusive against every other train.
                swept.sort_unstable();
                for &g in &swept {
                    let s = sweep[g.index()]
                        .take()
                        .expect("swept segments have a variable");
                    for other in 0..num_trains {
                        if other == mover {
                            continue;
                        }
                        for step in [t, t + 1] {
                            if let Some(occ_g) = self.occ[other][step][g.index()] {
                                self.solver.add_clause_from(&[!s, !occ_g.positive()]);
                            }
                        }
                    }
                }
                swept.clear();
            }
        }
    }

    /// Ternary sweep clauses of one move `e → f` of `mover` over `t → t+1`:
    /// one per segment `g` of `paths(e, f, speed)`, the segments with
    /// `dist(e, g) + dist(f, g) <= speed`. Every such `g` is within
    /// `speed` of `e`, so filtering `near[e]` yields the path in
    /// ascending order without a search per move.
    fn encode_collision_move(
        &mut self,
        mover: usize,
        t: usize,
        e: EdgeId,
        f: EdgeId,
        sweep: &mut [Option<Lit>],
        swept: &mut Vec<EdgeId>,
    ) {
        let inst = self.inst;
        let speed = inst.trains[mover].speed;
        let occ_e = self.occ_lit(mover, t, e).expect("active");
        let occ_f = self.occ_lit(mover, t + 1, f).expect("active");
        for &(g, de) in &self.near[e.index()] {
            if de > speed || !matches!(inst.dist(f, g), Some(df) if de + df <= speed) {
                continue;
            }
            // A sweep variable only earns its keep if some other train could
            // be on `g` around the move; otherwise the exclusivity side
            // would never materialise and the ternary clauses dangle.
            let others = |step: usize| {
                let own = u32::from(self.occ[mover][step][g.index()].is_some());
                self.occupants[step][g.index()] > own
            };
            if !others(t) && !others(t + 1) {
                continue;
            }
            let s = match sweep[g.index()] {
                Some(s) => s,
                None => {
                    let s = CnfSink::new_var(&mut self.solver).positive();
                    self.solver.tag_var(s.var(), || {
                        format!("sweep[train={mover},t={t},seg={}]", g.index())
                    });
                    sweep[g.index()] = Some(s);
                    swept.push(g);
                    s
                }
            };
            self.solver.add_clause_from(&[!occ_e, !occ_f, s]);
        }
    }

    // ------------------------------------------------------------------
    // Completion: visited / done machinery and Park freezing
    // ------------------------------------------------------------------

    /// `true` if the movement constraint alone pins train `tr` on edge `e`
    /// at step `t`: `e` stays active at `t + 1` and is the only position
    /// the train can reach from it within `speed`.
    fn pinned_in_place(&self, tr: usize, t: usize, e: EdgeId, speed: u32) -> bool {
        self.occ_lit(tr, t + 1, e).is_some()
            && self.near[e.index()]
                .iter()
                .all(|&(f, d)| f == e || d > speed || self.occ[tr][t + 1][f.index()].is_none())
    }

    /// `true` if step `t` emits at least one Park freeze clause for `tr`.
    fn step_needs_freeze(&self, tr: usize, t: usize, speed: u32) -> bool {
        self.active[tr][t]
            .iter()
            .any(|&e| !self.pinned_in_place(tr, t, e, speed))
    }

    fn encode_completion(&mut self, tr: usize) {
        let spec = &self.inst.trains[tr];
        let dep = spec.dep_step;
        if self.visited.len() <= tr || self.visited[tr].is_empty() {
            // Ensure tables exist even for Park trains (done_lit_or_alloc
            // only ran for Leave trains).
            if self.done.len() < self.inst.trains.len() {
                self.done.resize(self.inst.trains.len(), Vec::new());
                self.visited.resize(self.inst.trains.len(), Vec::new());
            }
            if self.done[tr].is_empty() {
                self.done[tr] = vec![None; self.inst.t_max];
                self.visited[tr] = vec![None; self.inst.t_max];
            }
        }
        self.solver
            .begin_group(|| format!("completion[{}]", spec.name));

        // The visited chain only needs to reach the last step any other
        // constraint reads: the task-goal step, plus (Park) the freeze
        // clauses at t_max - 2 and (Optimize) the per-step objective at
        // every step. Gates past that point would dangle.
        let final_step = self.inst.t_max - 1;
        let goal_step = match self.task {
            TaskKind::Optimize | TaskKind::OptimizeIncremental => final_step,
            _ => spec.deadline_step.unwrap_or(final_step),
        }
        .clamp(dep, final_step);
        let last_visited = match spec.exit {
            ExitPolicy::Park => {
                // Extend the chain past the goal step only while freeze
                // clauses still reference it: at a step where the movement
                // constraint alone pins every active edge in place, no
                // freeze clause is emitted and a gate there would dangle.
                (goal_step..final_step)
                    .rev()
                    .find(|&t| self.step_needs_freeze(tr, t, spec.speed))
                    .unwrap_or(goal_step)
            }
            ExitPolicy::Leave => goal_step,
        };

        // visited[t] ↔ goal occupied at t ∨ visited[t-1]
        let mut prev: Option<Lit> = None;
        let mut inputs = Vec::new();
        for t in dep..=last_visited {
            inputs.clear();
            inputs.extend(
                spec.goal_edges
                    .iter()
                    .filter_map(|&g| self.occ_lit(tr, t, g)),
            );
            inputs.extend(prev);
            let v = self.solver.or_gate(&inputs);
            {
                let name = &spec.name;
                self.solver
                    .tag_var(v.var(), || format!("visited[{name},t={t}]"));
            }
            self.visited[tr][t] = Some(v);
            prev = Some(v);
        }

        match spec.exit {
            ExitPolicy::Park => {
                // done ≡ visited; once visited, the train freezes in place.
                for t in dep..=last_visited {
                    self.done[tr][t] = self.visited[tr][t];
                }
                for t in dep..=last_visited.min(final_step.saturating_sub(1)) {
                    let vis = self.visited[tr][t].expect("allocated above");
                    for &e in &self.active[tr][t] {
                        let occ_now = self.occ_lit(tr, t, e).expect("active");
                        if self.pinned_in_place(tr, t, e, spec.speed) {
                            // The movement clause already forces the train
                            // to stay on `e`; the freeze clause would be
                            // subsumed by it.
                            continue;
                        }
                        match self.occ_lit(tr, t + 1, e) {
                            Some(occ_next) => {
                                self.solver.add_clause_from(&[!vis, !occ_now, occ_next]);
                            }
                            None => {
                                // Frozen position must stay representable.
                                self.solver.add_clause_from(&[!vis, !occ_now]);
                            }
                        }
                    }
                }
            }
            ExitPolicy::Leave => {
                // Monotonicity, no-done-at-departure, exit only from goal.
                let d0 = self.done_lit_or_alloc(tr, dep);
                self.solver.assert_false(d0);
                for t in dep..self.inst.t_max - 1 {
                    let d_now = self.done_lit_or_alloc(tr, t);
                    let d_next = self.done_lit_or_alloc(tr, t + 1);
                    self.solver.implies(d_now, d_next);
                    // Onset requires having just been at the goal — unless
                    // the whole cone at `t` lies inside the goal station, in
                    // which case the presence clause at `t` already implies
                    // it (and would subsume this clause).
                    let at_goal_anyway = self.active[tr][t]
                        .iter()
                        .all(|e| spec.goal_edges.contains(e));
                    if at_goal_anyway {
                        continue;
                    }
                    let mut clause = vec![!d_next, d_now];
                    clause.extend(
                        spec.goal_edges
                            .iter()
                            .filter_map(|&g| self.occ_lit(tr, t, g)),
                    );
                    self.solver.add_clause(clause);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Task goals: deadlines or reach-goal-eventually
    // ------------------------------------------------------------------

    fn encode_task_goals(&mut self) -> Vec<Lit> {
        let enforce_deadlines = !matches!(
            self.task,
            TaskKind::Optimize | TaskKind::OptimizeIncremental
        );
        let diagnose = matches!(self.task, TaskKind::Diagnose(_));
        let mut selectors = Vec::new();
        if !self.inst.trains.is_empty() {
            self.solver.begin_group(|| "task-goal".to_owned());
        }
        for tr in 0..self.inst.trains.len() {
            let spec = self.inst.trains[tr].clone();
            let final_step = self.inst.t_max - 1;
            let goal_step = if enforce_deadlines {
                spec.deadline_step.unwrap_or(final_step)
            } else {
                final_step
            };
            let vis = self.visited[tr][goal_step.max(spec.dep_step).min(final_step)]
                .expect("visited allocated for all steps after departure");
            // Diagnose guards the train's deadlines by a selector: assuming
            // it enforces them, so an unsat core over the selectors names
            // the clashing trains.
            let sel = diagnose.then(|| {
                let sel = CnfSink::new_var(&mut self.solver).positive();
                let name = &self.inst.trains[tr].name;
                self.solver
                    .tag_var(sel.var(), || format!("deadline-sel[{name}]"));
                selectors.push(sel);
                sel
            });
            match sel {
                Some(sel) => self.solver.implies(sel, vis),
                None => self.solver.assert_true(vis),
            }

            // Intermediate stops: visited some time before their deadline.
            for (stop_edges, stop_deadline) in &spec.stops {
                let last = if enforce_deadlines {
                    stop_deadline.unwrap_or(final_step)
                } else {
                    final_step
                };
                let visit_by = |last: usize| {
                    let mut clause = Vec::new();
                    for t in spec.dep_step..=last.min(final_step) {
                        for &g in stop_edges {
                            clause.extend(self.occ_lit(tr, t, g));
                        }
                    }
                    clause
                };
                // Diagnose keeps visiting the stop by the horizon hard and
                // guards only its deadline by the train's selector.
                let guard = sel.filter(|_| last < final_step);
                let hard = visit_by(if guard.is_some() { final_step } else { last });
                let guarded = guard.map(|sel| [vec![!sel], visit_by(last)].concat());
                self.solver.add_clause(hard);
                if let Some(clause) = guarded {
                    self.solver.add_clause(clause);
                }
            }
        }
        selectors
    }

    /// One guarded-deadline selector per candidate completion step:
    /// `sel_d → visited[tr][d]` for every train (clamped to the train's
    /// departure and the horizon end, exactly like the hard goal the
    /// from-scratch probe asserts — *not* `done`, whose Leave-train onset
    /// lags `visited` by one step). Feasibility is monotone in `d` because
    /// the `visited` chains are, so the selectors support both walk-up and
    /// binary search on one persistent solver.
    ///
    fn build_step_selectors(&mut self) -> Vec<Option<Lit>> {
        let mut sels: Vec<Option<Lit>> = vec![None; self.inst.t_max];
        if self.inst.trains.is_empty() {
            return sels; // nothing to guard; avoid unconstrained selectors
        }
        let final_step = self.inst.t_max - 1;
        let lower = self.inst.completion_lower_bound().min(final_step);
        self.solver.begin_group(|| "step-selectors".to_owned());
        for d in lower..=final_step {
            let sel = CnfSink::new_var(&mut self.solver).positive();
            self.solver
                .tag_var(sel.var(), || format!("deadline-sel[d={d}]"));
            for tr in 0..self.inst.trains.len() {
                let dep = self.inst.trains[tr].dep_step;
                let vis = self.visited[tr][d.clamp(dep, final_step)]
                    .expect("visited allocated for all steps after departure");
                self.solver.implies(sel, vis);
            }
            sels[d] = Some(sel);
        }
        sels
    }

    // ------------------------------------------------------------------
    // Optimisation objective: number of not-all-done steps
    // ------------------------------------------------------------------

    /// Seeds the solver's branching order: VSS borders first (they shape
    /// everything else), then occupancy in increasing time order so the
    /// search extends plans chronologically. VSIDS adapts from there.
    fn seed_decision_order(&mut self) {
        // Borders first, and initially *active*: a liberal layout makes the
        // scheduling sub-problem as easy as possible; the objectives prune
        // borders afterwards. (Only meaningful when the layout is free.)
        for v in self.border.iter().flatten() {
            self.solver.boost_activity(*v, 2.0);
            self.solver.set_phase(*v, true);
        }
        for tr in 0..self.inst.trains.len() {
            for t in 0..self.inst.t_max {
                let boost = 1.0 / (t as f64 + 2.0);
                for v in self.occ[tr][t].iter().flatten() {
                    self.solver.boost_activity(*v, boost);
                }
            }
        }
    }
}

/// The border literals on the chain between two edges of one TTD
/// (`e < f`), in [`etcs_network::DiscreteNet::between`] order, or `None`
/// when a forced TTD border lies on it and already separates the pair.
fn between_borders(
    inst: &Instance,
    border: &[Option<Var>],
    e: EdgeId,
    f: EdgeId,
) -> Option<Vec<Lit>> {
    let nodes = inst
        .net
        .between(e, f)
        .expect("same-TTD edges are connected");
    let mut lits = Vec::with_capacity(nodes.len());
    for n in nodes {
        if inst.net.node_kind(n) == NodeKind::TtdBorder {
            return None;
        }
        lits.extend(border[n.index()].map(Var::positive));
    }
    Some(lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    #[test]
    fn encoding_builds_for_running_example() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let enc = encode(&inst, &EncoderConfig::default(), &TaskKind::Generate);
        assert!(enc.stats.border_vars > 0);
        assert!(enc.stats.occupies_vars > 0);
        assert!(enc.stats.clauses > 0);
        assert!(enc.stats.solver_vars >= enc.stats.border_vars + enc.stats.occupies_vars);
    }

    #[test]
    fn pruning_reduces_occupancy_vars() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let pruned = encode(&inst, &EncoderConfig::default(), &TaskKind::Generate);
        let unpruned = encode(
            &inst,
            &EncoderConfig {
                prune_to_goal: false,
                ..EncoderConfig::default()
            },
            &TaskKind::Generate,
        );
        assert!(pruned.stats.occupies_vars < unpruned.stats.occupies_vars);
        assert!(pruned.stats.occupies_vars <= pruned.stats.nominal_vars);
    }

    #[test]
    fn traced_encodings_are_lint_clean() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let config = EncoderConfig {
            trace: true,
            ..EncoderConfig::default()
        };
        for task in [
            TaskKind::Generate,
            TaskKind::Verify(etcs_network::VssLayout::pure_ttd()),
            TaskKind::Diagnose(etcs_network::VssLayout::pure_ttd()),
        ] {
            let enc = encode(&inst, &config, &task);
            let trace = enc.trace.expect("tracing on");
            assert_eq!(trace.formula.num_vars(), enc.solver.num_vars());
            // The solver simplifies at level 0 (drops satisfied clauses,
            // moves units to the trail), so the mirror records at least as
            // many clauses as stay live in the solver.
            assert!(trace.formula.num_clauses() >= enc.solver.num_clauses());
            let findings = trace.lint();
            assert!(
                findings.is_empty(),
                "clean {task:?} encoding must have zero findings:\n{}",
                etcs_lint::render_report(&findings)
            );
        }
    }

    #[test]
    fn traced_optimize_encoding_is_lint_clean() {
        let scenario = fixtures::running_example().without_arrivals();
        let inst = Instance::new(&scenario).expect("valid");
        let config = EncoderConfig {
            trace: true,
            ..EncoderConfig::default()
        };
        for task in [TaskKind::Optimize, TaskKind::OptimizeIncremental] {
            let enc = encode(&inst, &config, &task);
            let findings = enc.trace.expect("tracing on").lint();
            assert!(
                findings.is_empty(),
                "clean {task:?} encoding must have zero findings:\n{}",
                etcs_lint::render_report(&findings)
            );
        }
    }

    #[test]
    fn incremental_encoding_has_selectors_from_the_lower_bound() {
        let scenario = fixtures::running_example().without_arrivals();
        let inst = Instance::new(&scenario).expect("valid");
        let enc = encode(
            &inst,
            &EncoderConfig::default(),
            &TaskKind::OptimizeIncremental,
        );
        let lower = inst.completion_lower_bound().min(inst.t_max - 1);
        assert_eq!(enc.step_selectors.len(), inst.t_max);
        for (d, sel) in enc.step_selectors.iter().enumerate() {
            assert_eq!(sel.is_some(), d >= lower, "selector coverage at d={d}");
        }
        // The other tasks allocate no step selectors.
        let plain = encode(&inst, &EncoderConfig::default(), &TaskKind::Optimize);
        assert!(plain.step_selectors.is_empty());
    }

    #[test]
    fn relaxed_families_shrink_the_encoding() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let full = encode(&inst, &EncoderConfig::default(), &TaskKind::Generate);
        let relaxed = encode_with(
            &inst,
            &EncoderConfig::default(),
            &TaskKind::Generate,
            ConstraintFamilies::CORE_ONLY,
        );
        assert!(
            relaxed.stats.clauses < full.stats.clauses,
            "deferring three families must drop clauses: {} vs {}",
            relaxed.stats.clauses,
            full.stats.clauses
        );
        // No sweep variables either.
        assert!(relaxed.stats.solver_vars < full.stats.solver_vars);
    }

    #[test]
    fn relaxed_groups_name_the_deferred_families() {
        assert!(ConstraintFamilies::ALL.relaxed_groups().is_empty());
        assert_eq!(
            ConstraintFamilies::CORE_ONLY.relaxed_groups(),
            vec!["separation", "collision"]
        );
    }

    #[test]
    fn relaxed_encoding_lints_clean_only_with_a_profile() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let config = EncoderConfig {
            trace: true,
            ..EncoderConfig::default()
        };
        let families = ConstraintFamilies::CORE_ONLY;
        let enc = encode_with(&inst, &config, &TaskKind::Generate, families);
        let trace = enc.trace.expect("tracing on");
        let findings = trace.lint();
        assert!(
            findings
                .iter()
                .filter(|f| f.kind == etcs_lint::LintKind::EmptyGroup)
                .count()
                >= 2,
            "the plain audit must flag the deferred groups:\n{}",
            etcs_lint::render_report(&findings)
        );
        let mut profile = etcs_lint::LazyProfile::new();
        for group in families.relaxed_groups() {
            profile = profile.allow_group(group);
        }
        let filtered = trace.lint_with(&profile);
        assert!(
            filtered.is_empty(),
            "the declared relaxation must lint clean:\n{}",
            etcs_lint::render_report(&filtered)
        );
    }

    #[test]
    fn untraced_encoding_carries_no_trace() {
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let enc = encode(&inst, &EncoderConfig::default(), &TaskKind::Generate);
        assert!(enc.trace.is_none() && enc.proof.is_none());
    }

    #[test]
    fn verify_fixes_borders() {
        use etcs_network::VssLayout;
        let inst = Instance::new(&fixtures::running_example()).expect("valid");
        let enc = encode(
            &inst,
            &EncoderConfig::default(),
            &TaskKind::Verify(VssLayout::pure_ttd()),
        );
        // All border vars are fixed at level 0: solving cannot flip any.
        // (Just a smoke check that encoding is well-formed.)
        assert!(enc.stats.border_vars > 0);
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use crate::tasks::verify;
    use etcs_network::{
        fixtures, KmPerHour, Meters, NetworkBuilder, Scenario, Schedule, Seconds, Train, TrainRun,
    };

    /// A straight 4-segment line with one long (3-segment) train.
    fn long_train_scenario() -> Scenario {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, Meters::from_km(2.0), "main");
        b.ttd("TTD1", [t]);
        let st = b.station("A", [t], true);
        let network = b.build().expect("valid");
        let schedule = Schedule::new(vec![TrainRun::new(
            Train::new("Long", Meters(1400), KmPerHour(60)),
            st,
            st,
            Seconds::ZERO,
            None,
        )]);
        Scenario {
            name: "long-train".into(),
            network,
            schedule,
            r_s: Meters(500),
            r_t: Seconds(30),
            horizon: Seconds(120),
        }
    }

    #[test]
    fn long_trains_occupy_contiguous_chains() {
        let scenario = long_train_scenario();
        let inst = Instance::new(&scenario).expect("valid");
        assert_eq!(inst.trains[0].length, 3);
        let (outcome, _) = verify(
            &scenario,
            &etcs_network::VssLayout::pure_ttd(),
            &EncoderConfig::default(),
        )
        .expect("well-formed");
        let plan = outcome.plan().expect("one train on an empty line fits");
        for pos in &plan.plans[0].positions {
            if pos.is_empty() {
                continue;
            }
            assert_eq!(pos.len(), 3, "chain length must equal l*");
            // Contiguity: sorted segment indices are consecutive on a line.
            let mut ix: Vec<usize> = pos.iter().map(|e| e.index()).collect();
            ix.sort_unstable();
            for w in ix.windows(2) {
                assert_eq!(w[1] - w[0], 1, "chain must be contiguous: {ix:?}");
            }
        }
    }

    #[test]
    fn diagnose_task_exposes_one_selector_per_train() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let enc = encode(
            &inst,
            &EncoderConfig::default(),
            &TaskKind::Diagnose(etcs_network::VssLayout::pure_ttd()),
        );
        assert_eq!(enc.deadline_selectors.len(), inst.trains.len());
        let enc = encode(&inst, &EncoderConfig::default(), &TaskKind::Generate);
        assert!(enc.deadline_selectors.is_empty());
    }
}
