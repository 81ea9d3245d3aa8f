//! In-process clause-sharing parallel portfolio.
//!
//! [`Solver::set_portfolio`] arms a race: each `solve`/`solve_with` call
//! clones the solver into N *diversified* CDCL workers (varied restart
//! base, VSIDS decay, saved-phase polarity, and seed-scrambled activity
//! tie-breaking), runs them on the same formula under `std::thread::scope`,
//! and returns the first decisive verdict, cancelling the siblings through
//! a private [`Interrupt`] chained to the caller's external token.
//!
//! While racing, workers exchange small-LBD learnt clauses through a
//! lock-light [`SharePool`]: exports are buffered locally and flushed at
//! the existing `Interrupt`-style sync points (the configurable conflict
//! poll and restart boundaries), imports happen at restart boundaries only
//! — the worker is at decision level 0 there, so an imported clause can be
//! evaluated, strengthened against level-0 facts and attached soundly.
//! Every imported clause must pass the same structural lints `etcs-lint`
//! enforces on encoder output (no duplicate literals, no tautology) before
//! it enters a worker's clause database.
//!
//! Soundness: workers are clones of one formula, and clauses learnt under
//! assumptions are consequences of the formula alone (see
//! [`Solver::solve_with`]), so any worker may adopt any other worker's
//! learnt clauses. Verdicts are therefore identical to a single-threaded
//! solve; only the witness model (and the particular — still valid — unsat
//! core) may differ. Proof logging is incompatible: an imported clause has
//! no local derivation, so [`Solver`] silently falls back to
//! single-threaded search while a proof sink is installed, and the
//! `*_certified` task variants in `etcs-core` reject portfolio mode with a
//! typed error.

use super::{SatResult, Solver, SolverConfig};
use crate::interrupt::Interrupt;
use crate::stats::Stats;
use crate::types::{LBool, Lit, Var};
use etcs_obs::Obs;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-worker diversification tables, indexed by `worker_index % 8`.
/// Worker 0 is the calling solver itself and keeps its own configuration.
const RESTART_DIVERSITY: [u64; 8] = [128, 64, 256, 32, 512, 100, 192, 48];
const DECAY_DIVERSITY: [f64; 8] = [0.95, 0.90, 0.97, 0.85, 0.99, 0.80, 0.93, 0.75];

/// Upper bound on racing threads; beyond this, extra workers only add
/// cloning cost without search diversity worth having.
const MAX_THREADS: usize = 64;

/// Configuration of the in-process clause-sharing portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of racing workers, including the calling solver itself.
    /// Values below 2 disable the portfolio.
    pub threads: usize,
    /// Only learnt clauses with a literal-block distance at or below this
    /// bound are shared (binary clauses and units are always shared).
    pub lbd_limit: u32,
    /// Length cap on shared clauses; longer lemmas rarely pay for the
    /// import cost.
    pub max_export_len: usize,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            threads: 2,
            lbd_limit: 4,
            max_export_len: 24,
        }
    }
}

impl PortfolioConfig {
    /// Default sharing policy with the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        PortfolioConfig {
            threads,
            ..Default::default()
        }
    }
}

/// Cumulative clause-sharing counters across a solver's portfolio solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Portfolio races run (one per `solve`/`solve_with` call).
    pub solves: u64,
    /// Clauses exported into the share pool, summed over all workers.
    pub exported: u64,
    /// Import candidates pulled from the pool (foreign entries seen).
    pub imported: u64,
    /// Imported clauses kept after the LBD filter, the structural lints and
    /// level-0 evaluation — i.e. clauses that actually entered a worker's
    /// clause database (or were enqueued as units).
    pub kept: u64,
    /// Import candidates rejected by the LBD filter.
    pub lbd_filtered: u64,
    /// Import candidates rejected by the structural lints (duplicate or
    /// tautological literals). Always 0 for clauses produced by conflict
    /// analysis; the filter pins the invariant.
    pub lint_rejected: u64,
    /// Conflicts summed over every racing worker (including the caller).
    pub worker_conflicts: u64,
    /// Worker index that produced the most recent decisive verdict
    /// (0 = the calling solver).
    pub last_winner: usize,
}

/// `true` when a clause passes the structural lints `etcs-lint` enforces on
/// encoder output: no duplicate literals and no tautological pair `x, ¬x`.
/// The portfolio applies this to every imported clause before it enters a
/// worker's clause database.
pub fn clause_is_structurally_clean(lits: &[Lit]) -> bool {
    let mut sorted: Vec<Lit> = lits.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] || w[0].var() == w[1].var() {
            return false;
        }
    }
    true
}

/// One shared learnt clause.
#[derive(Clone, Debug)]
struct PoolEntry {
    /// Exporting worker; importers skip their own entries.
    from: usize,
    /// Literal-block distance at learning time.
    lbd: u32,
    lits: Arc<[Lit]>,
}

/// Lock-light export/import buffer shared by all workers of one race.
///
/// Entries are append-only for the lifetime of a single `solve` call; each
/// worker keeps a private cursor, so an import is one atomic load when
/// nothing new arrived and one short critical section otherwise.
#[derive(Debug, Default)]
pub(super) struct SharePool {
    entries: Mutex<Vec<PoolEntry>>,
    /// Mirror of `entries.len()`, readable without the lock.
    len: AtomicUsize,
    exported: AtomicU64,
    imported: AtomicU64,
    kept: AtomicU64,
    lbd_filtered: AtomicU64,
    lint_rejected: AtomicU64,
}

/// A worker's attachment to the share pool.
#[derive(Debug)]
pub(super) struct ShareState {
    pool: Arc<SharePool>,
    /// This worker's index (0 = the calling solver).
    id: usize,
    /// Pool position up to which entries have been considered for import.
    cursor: usize,
    /// Locally buffered exports, flushed at sync points.
    export_buf: Vec<(u32, Arc<[Lit]>)>,
    lbd_limit: u32,
    max_export_len: usize,
}

impl ShareState {
    fn new(pool: Arc<SharePool>, id: usize, cfg: &PortfolioConfig) -> Self {
        ShareState {
            pool,
            id,
            cursor: 0,
            export_buf: Vec::new(),
            lbd_limit: cfg.lbd_limit,
            max_export_len: cfg.max_export_len,
        }
    }
}

impl Solver {
    /// Buffers a freshly learnt clause for sharing if it passes the export
    /// policy (small LBD or binary/unit, bounded length).
    pub(super) fn share_export(&mut self, lits: &[Lit], lbd: u32) {
        let share = self.share.as_mut().expect("share_export without share");
        if lits.len() > share.max_export_len {
            return;
        }
        if lbd > share.lbd_limit && lits.len() > 2 {
            return;
        }
        share.export_buf.push((lbd, Arc::from(lits)));
    }

    /// Publishes buffered exports to the pool. Called at the conflict-poll
    /// cadence and at restart boundaries; a no-op without buffered clauses,
    /// so the lock is only touched when there is something to say.
    pub(super) fn share_flush_exports(&mut self) {
        let share = self.share.as_mut().expect("flush without share");
        if share.export_buf.is_empty() {
            return;
        }
        let n = share.export_buf.len() as u64;
        let mut entries = share.pool.entries.lock().expect("share pool poisoned");
        for (lbd, lits) in share.export_buf.drain(..) {
            entries.push(PoolEntry {
                from: share.id,
                lbd,
                lits,
            });
        }
        let len = entries.len();
        drop(entries);
        share.pool.len.store(len, Ordering::Release);
        share.pool.exported.fetch_add(n, Ordering::Relaxed);
    }

    /// Restart-boundary sync: flush buffered exports, then absorb every
    /// foreign clause published since the last sync. Must run at decision
    /// level 0; may derive `ok = false` (the imported clause set is a
    /// consequence of the shared formula, so that verdict is sound).
    pub(super) fn share_sync(&mut self) {
        debug_assert_eq!(self.decision_level(), 0, "imports happen at level 0");
        self.share_flush_exports();
        self.share_import();
    }

    fn share_import(&mut self) {
        let share = self.share.as_mut().expect("import without share");
        if share.pool.len.load(Ordering::Acquire) <= share.cursor {
            return;
        }
        let fresh: Vec<PoolEntry> = {
            let entries = share.pool.entries.lock().expect("share pool poisoned");
            let fresh = entries[share.cursor..]
                .iter()
                .filter(|e| e.from != share.id)
                .cloned()
                .collect();
            share.cursor = entries.len();
            fresh
        };
        let pool = Arc::clone(&share.pool);
        let lbd_limit = share.lbd_limit;
        pool.imported
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        for entry in fresh {
            if entry.lbd > lbd_limit && entry.lits.len() > 2 {
                pool.lbd_filtered.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if !clause_is_structurally_clean(&entry.lits) {
                pool.lint_rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Evaluate against level-0 facts: skip satisfied clauses, strip
            // falsified literals, attach the strengthened remainder.
            let mut keep: Vec<Lit> = Vec::with_capacity(entry.lits.len());
            let mut satisfied = false;
            for &l in entry.lits.iter() {
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => keep.push(l),
                }
            }
            if satisfied {
                continue;
            }
            match keep.len() {
                0 => {
                    // Every literal is false at level 0: the shared formula
                    // is unsatisfiable.
                    self.ok = false;
                    pool.kept.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                1 => {
                    self.enqueue(keep[0], None);
                    pool.kept.fetch_add(1, Ordering::Relaxed);
                    if self.propagate().is_some() {
                        self.ok = false;
                        return;
                    }
                }
                _ => {
                    let lbd = entry.lbd.min(keep.len() as u32);
                    let cref = self.db.push(&keep, true, lbd);
                    self.attach(cref);
                    pool.kept.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Races `cfg.threads` diversified workers on the current formula and
    /// returns the first decisive verdict. Called from `solve_dispatch`,
    /// which has already checked eligibility (≥ 2 threads, no proof sink).
    pub(super) fn solve_portfolio(
        &mut self,
        assumptions: &[Lit],
        cfg: PortfolioConfig,
    ) -> SatResult {
        debug_assert!(self.proof.is_none(), "portfolio solves are uncertified");
        if !self.ok {
            return self.solve_with_inner(assumptions);
        }
        let threads = cfg.threads.min(MAX_THREADS);
        let external = std::mem::replace(&mut self.interrupt, Interrupt::none());
        let race = Interrupt::chained(&external);
        let pool = Arc::new(SharePool::default());
        let mut workers: Vec<Solver> = (1..threads)
            .map(|i| self.diversified_worker(i, &cfg, &pool, &race))
            .collect();
        // The calling solver races as worker 0, unperturbed: when it wins,
        // the verdict and the state that produced it already live here.
        self.interrupt = race.clone();
        self.share = Some(ShareState::new(Arc::clone(&pool), 0, &cfg));
        let conflicts_before = self.stats.conflicts;

        let (mine, others) = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|worker| {
                    let race = race.clone();
                    scope.spawn(move || {
                        let result = worker.solve_with_inner(assumptions);
                        // Publish the final buffered lemmas so the winner's
                        // closing drain can adopt them.
                        worker.share_flush_exports();
                        if !matches!(result, SatResult::Unknown) {
                            race.trigger();
                        }
                        result
                    })
                })
                .collect();
            let mine = self.solve_with_inner(assumptions);
            if !matches!(mine, SatResult::Unknown) {
                race.trigger();
            }
            let others: Vec<SatResult> = handles
                .into_iter()
                .map(|h| h.join().expect("portfolio worker panicked"))
                .collect();
            (mine, others)
        });

        // Closing drain: absorb everything the pool still holds, so the
        // incremental caller keeps the race's pooled knowledge even when a
        // sibling won. Then detach from the (call-scoped) pool and restore
        // the external token.
        if self.ok {
            self.share_sync();
        }
        self.share = None;
        self.interrupt = external;

        let mut result = mine;
        let mut winner = 0usize;
        if matches!(result, SatResult::Unknown) {
            for (i, r) in others.iter().enumerate() {
                if !matches!(r, SatResult::Unknown) {
                    winner = i + 1;
                    result = r.clone();
                    break;
                }
            }
        }

        let worker_conflicts = (self.stats.conflicts - conflicts_before)
            + workers.iter().map(|w| w.stats.conflicts).sum::<u64>();
        let exported = pool.exported.load(Ordering::Relaxed);
        let imported = pool.imported.load(Ordering::Relaxed);
        let kept = pool.kept.load(Ordering::Relaxed);
        let lbd_filtered = pool.lbd_filtered.load(Ordering::Relaxed);
        let lint_rejected = pool.lint_rejected.load(Ordering::Relaxed);
        self.portfolio_stats.solves += 1;
        self.portfolio_stats.exported += exported;
        self.portfolio_stats.imported += imported;
        self.portfolio_stats.kept += kept;
        self.portfolio_stats.lbd_filtered += lbd_filtered;
        self.portfolio_stats.lint_rejected += lint_rejected;
        self.portfolio_stats.worker_conflicts += worker_conflicts;
        if !matches!(result, SatResult::Unknown) {
            self.portfolio_stats.last_winner = winner;
        }
        if self.obs.is_enabled() {
            self.obs.event(
                "portfolio.share",
                &[("threads", threads.into()), ("exported", exported.into())],
            );
            self.obs.event(
                "portfolio.import",
                &[
                    ("imported", imported.into()),
                    ("kept", kept.into()),
                    ("lbd_filtered", lbd_filtered.into()),
                    ("lint_rejected", lint_rejected.into()),
                ],
            );
            if !matches!(result, SatResult::Unknown) {
                self.obs.event(
                    "portfolio.winner",
                    &[
                        ("worker", winner.into()),
                        (
                            "verdict",
                            match &result {
                                SatResult::Sat(_) => "sat",
                                SatResult::Unsat { .. } => "unsat",
                                SatResult::Unknown => unreachable!(),
                            }
                            .into(),
                        ),
                        ("worker_conflicts", worker_conflicts.into()),
                    ],
                );
            }
        }
        result
    }

    /// Clones this solver into worker `index` of a race: same formula and
    /// learnt state, diversified search parameters, the race token
    /// installed, and a fresh attachment to the share pool.
    fn diversified_worker(
        &self,
        index: usize,
        cfg: &PortfolioConfig,
        pool: &Arc<SharePool>,
        race: &Interrupt,
    ) -> Solver {
        let mut worker = self.clone_worker();
        worker.interrupt = race.clone();
        worker.share = Some(ShareState::new(Arc::clone(pool), index, cfg));
        let div = index % RESTART_DIVERSITY.len();
        worker.config = SolverConfig {
            restart_base: RESTART_DIVERSITY[div],
            var_decay: DECAY_DIVERSITY[div],
            poll_interval: self.config.poll_interval,
        };
        // Polarity diversification: every third worker searches the
        // complementary phase space first.
        if index % 3 == 2 {
            worker.default_phase = !worker.default_phase;
            for p in &mut worker.phase {
                *p = !*p;
            }
        }
        // Seed-scrambled tie-breaking: a tiny per-variable activity jitter
        // makes equal-activity variables branch in a worker-specific order.
        let mut seed =
            0x9e37_79b9_7f4a_7c15u64 ^ (index as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for a in &mut worker.activity {
            *a += (next() >> 40) as f64 * 1e-10;
        }
        worker.rebuild_heap();
        worker
    }

    /// Re-inserts every unassigned variable into a fresh heap (needed
    /// after bulk activity edits, which invalidate heap order).
    fn rebuild_heap(&mut self) {
        self.heap = super::VarHeap::new();
        self.heap.grow_to(self.assigns.len());
        for v in 0..self.assigns.len() {
            if self.assigns[v] == LBool::Undef {
                self.heap.insert(Var::from_index(v), &self.activity);
            }
        }
    }

    /// A deep copy of the solver carrying formula, learnt clauses,
    /// activities and phases — but no proof sink, no observability, no
    /// portfolio of its own, and fresh statistics.
    fn clone_worker(&self) -> Solver {
        Solver {
            db: self.db.clone(),
            watches: self.watches.clone(),
            assigns: self.assigns.clone(),
            levels: self.levels.clone(),
            reasons: self.reasons.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            heap: self.heap.clone(),
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            phase: self.phase.clone(),
            ok: self.ok,
            seen: self.seen.clone(),
            stats: Stats::default(),
            reduce_limit: self.reduce_limit,
            last_simplify_trail: self.last_simplify_trail,
            proof_units: self.proof_units,
            conflict_budget: self.conflict_budget,
            interrupt: Interrupt::none(),
            default_phase: self.default_phase,
            config: self.config,
            portfolio: None,
            share: None,
            portfolio_stats: PortfolioStats::default(),
            proof: None,
            obs: Obs::disabled(),
            add_buf: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::{check_drat, DratProof};

    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(n: usize) -> (Solver, Vec<Vec<Lit>>) {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for row in &p {
            clauses.push(row.clone());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    clauses.push(vec![!p[i][h], !p[j][h]]);
                }
            }
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        (s, clauses)
    }

    #[test]
    fn structural_lints_reject_duplicates_and_tautologies() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        assert!(clause_is_structurally_clean(&[a, b]));
        assert!(clause_is_structurally_clean(&[b, !a]));
        assert!(!clause_is_structurally_clean(&[a, b, a]));
        assert!(!clause_is_structurally_clean(&[a, b, !a]));
        assert!(clause_is_structurally_clean(&[]));
        assert!(clause_is_structurally_clean(&[a]));
    }

    #[test]
    fn portfolio_matches_single_threaded_unsat_verdict() {
        let (mut single, _) = pigeonhole(6);
        let (mut raced, _) = pigeonhole(6);
        raced.set_portfolio(Some(PortfolioConfig::with_threads(4)));
        assert!(single.solve().is_unsat());
        assert!(raced.solve().is_unsat());
        assert_eq!(raced.portfolio_stats().solves, 1);
        // The race is over and the solver is immediately reusable; level-0
        // unsatisfiability now short-circuits without spawning a race.
        assert!(raced.solve().is_unsat());
        assert_eq!(raced.portfolio_stats().solves, 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn portfolio_sat_model_satisfies_every_clause() {
        // Satisfiable: hole constraints only, plus a forced placement.
        let n = 6usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for row in &p {
            clauses.push(row.clone());
        }
        for h in 0..n {
            for i in 0..n {
                for j in (i + 1)..n {
                    clauses.push(vec![!p[i][h], !p[j][h]]);
                }
            }
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        s.set_portfolio(Some(PortfolioConfig::with_threads(3)));
        match s.solve() {
            SatResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|&l| m.lit_is_true(l)), "model violates {c:?}");
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_core_is_a_subset_of_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let junk: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        s.add_clause([!a, !b]);
        s.set_portfolio(Some(PortfolioConfig::with_threads(2)));
        let mut assumptions = junk.clone();
        assumptions.push(a);
        assumptions.push(b);
        match s.solve_with(&assumptions) {
            SatResult::Unsat { core } => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|l| assumptions.contains(l)));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
        // Assumptions never leak into the next call.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn pre_triggered_interrupt_cancels_the_whole_race_and_state_survives() {
        let (mut s, _) = pigeonhole(6);
        s.set_portfolio(Some(PortfolioConfig::with_threads(3)));
        let token = Interrupt::new();
        token.trigger();
        s.set_interrupt(token.clone());
        assert_eq!(s.solve(), SatResult::Unknown);
        // The external token still reports the external reason.
        assert_eq!(
            token.probe(),
            Some(crate::interrupt::InterruptReason::Cancelled)
        );
        // Sibling cancellation left the solver reusable: detach and finish.
        s.set_interrupt(Interrupt::none());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn proof_logging_solver_falls_back_to_single_threaded_and_certifies() {
        let mut s = Solver::new();
        let proof = Arc::new(Mutex::new(DratProof::new()));
        s.set_proof_sink(Box::new(Arc::clone(&proof)));
        s.set_portfolio(Some(PortfolioConfig::with_threads(4)));
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let axioms = vec![vec![a, b], vec![!a, b], vec![a, !b], vec![!a, !b]];
        for c in &axioms {
            s.add_clause(c.iter().copied());
        }
        assert!(s.solve().is_unsat());
        assert_eq!(
            s.portfolio_stats().solves,
            0,
            "a proof-logging solve must not race"
        );
        let proof = proof.lock().expect("proof lock");
        check_drat(&axioms, &proof, &[]).expect("certificate is valid");
    }

    #[test]
    fn sharing_moves_clauses_between_workers_on_a_hard_instance() {
        let (mut s, _) = pigeonhole(8);
        s.set_portfolio(Some(PortfolioConfig::with_threads(4)));
        assert!(s.solve().is_unsat());
        let stats = s.portfolio_stats();
        assert!(stats.exported > 0, "no clauses were exported: {stats:?}");
        assert_eq!(stats.lint_rejected, 0, "learnt clauses are always clean");
    }
}
