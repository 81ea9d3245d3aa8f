//! Certified SatELite-style preprocessing.
//!
//! [`Solver::preprocess`] runs a static-analysis pipeline over the clause
//! database at decision level 0, before the first search: occurrence-list
//! construction, tautology/duplicate removal, subsumption, self-subsuming
//! resolution, failed-literal probing on root literals, and bounded
//! variable elimination by clause distribution (NiVER/SatELite, in the
//! tradition of Eén & Biere), gated by a clause-growth budget.
//!
//! Every derived clause is a resolvent (or a propagation consequence) of
//! the active set and is emitted through the installed
//! [`ProofSink`](crate::ProofSink) *before* the clauses it replaces are
//! deleted, so DRAT certificates keep checking end-to-end. Eliminated
//! variables push witness entries onto the solver's reconstruction stack
//! (Järvisalo et al.): when a model is produced, the stack is walked in
//! reverse and any stacked clause left unsatisfied flips its witness
//! literal, so returned models satisfy the *original* formula.
//!
//! Variables that outlive the preprocessor — future assumption literals,
//! selector literals, anything later clauses mention — must be frozen with
//! [`Solver::freeze_var`] / [`Solver::freeze_lit`] before the call.
//! Subsumption, strengthening and failed literals preserve logical
//! equivalence and need no freezing; only variable elimination is gated.

use std::collections::HashSet;

use super::Solver;
use crate::clause::ClauseRef;
use crate::types::{LBool, Lit, Var};

/// Configuration of the [`Solver::preprocess`] pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreprocessConfig {
    /// Master switch; `false` makes [`Solver::preprocess`] a no-op that
    /// only reports the formula size.
    pub enabled: bool,
    /// Delete clauses subsumed by a smaller (or equal) clause.
    pub subsumption: bool,
    /// Strengthen clauses by self-subsuming resolution (the strengthened
    /// clause is a resolvent, hence RUP for the proof checker).
    pub self_subsume: bool,
    /// Probe unassigned root literals: a probe whose propagation conflicts
    /// fixes its negation at level 0.
    pub failed_literals: bool,
    /// Upper bound on literal probes per preprocess call.
    pub probe_limit: usize,
    /// Bounded variable elimination by clause distribution.
    pub var_elim: bool,
    /// Extra clauses an elimination may add beyond the clauses it removes
    /// (0 = NiVER-style "never increase").
    pub growth_budget: usize,
    /// Variables with more total occurrences than this are never
    /// elimination candidates (keeps distribution quadratic blowup away).
    pub max_occurrences: usize,
    /// Maximum number of pipeline rounds; each round re-runs cleanup so
    /// units found late simplify clauses found early.
    pub rounds: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            enabled: true,
            subsumption: true,
            self_subsume: true,
            failed_literals: true,
            probe_limit: 20_000,
            var_elim: true,
            growth_budget: 0,
            max_occurrences: 30,
            rounds: 3,
        }
    }
}

/// Per-technique summary of one [`Solver::preprocess`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Rounds actually executed (a round that changes nothing ends the run).
    pub rounds: usize,
    /// Live clauses when the call started.
    pub clauses_before: usize,
    /// Live clauses when the call returned.
    pub clauses_after: usize,
    /// Total literals over live clauses when the call started.
    pub literals_before: usize,
    /// Total literals over live clauses when the call returned.
    pub literals_after: usize,
    /// Tautological clauses deleted.
    pub tautologies_removed: usize,
    /// Duplicate clauses deleted.
    pub duplicates_removed: usize,
    /// Clauses deleted because a root fact already satisfies them.
    pub satisfied_removed: usize,
    /// Root-falsified literals stripped during cleanup.
    pub stripped_literals: usize,
    /// Clauses deleted by subsumption.
    pub subsumed_removed: usize,
    /// Literals removed by self-subsuming resolution.
    pub strengthened_literals: usize,
    /// Literal probes performed.
    pub probes: usize,
    /// Failed literals detected (each fixes a unit at level 0).
    pub failed_literals: usize,
    /// Variables eliminated by bounded variable elimination.
    pub eliminated_vars: usize,
    /// Clauses deleted by variable elimination.
    pub eliminated_clauses: usize,
    /// Non-unit resolvents added by variable elimination.
    pub resolvents_added: usize,
}

impl PreprocessStats {
    /// Net clause reduction (`clauses_before - clauses_after`, floored at 0).
    pub fn clauses_removed(&self) -> usize {
        self.clauses_before.saturating_sub(self.clauses_after)
    }

    /// Net literal reduction (`literals_before - literals_after`, floored
    /// at 0).
    pub fn literals_removed(&self) -> usize {
        self.literals_before.saturating_sub(self.literals_after)
    }
}

impl Solver {
    /// Marks a variable as frozen: off-limits to variable elimination
    /// because it may appear in clauses added after preprocessing or in
    /// assumption sets of later `solve_with` calls.
    ///
    /// # Panics
    ///
    /// Panics if the variable was already eliminated — freezing must
    /// happen before [`Solver::preprocess`].
    pub fn freeze_var(&mut self, v: Var) {
        assert!(
            !self.eliminated[v.index()],
            "cannot freeze {v:?}: already eliminated by preprocessing"
        );
        self.frozen[v.index()] = true;
    }

    /// [`Solver::freeze_var`] for the literal's variable.
    pub fn freeze_lit(&mut self, l: Lit) {
        self.freeze_var(l.var());
    }

    /// `true` if the variable is frozen (see [`Solver::freeze_var`]).
    pub fn is_frozen(&self, v: Var) -> bool {
        self.frozen[v.index()]
    }

    /// `true` if preprocessing eliminated the variable. Eliminated
    /// variables never re-enter search; models reassemble their values
    /// from the reconstruction stack.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Variables eliminated by preprocessing, in index order.
    pub fn eliminated_vars(&self) -> Vec<Var> {
        self.eliminated
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .map(|(i, _)| Var::from_index(i))
            .collect()
    }

    /// Snapshot of the live clause database as plain literal vectors
    /// (problem and learnt clauses), for audits and tests.
    pub fn clauses_snapshot(&self) -> Vec<Vec<Lit>> {
        self.db
            .iter_refs()
            .map(|r| self.db.lits(r).to_vec())
            .collect()
    }

    /// Runs the preprocessing pipeline (see the module docs) and returns
    /// the per-technique reduction summary.
    ///
    /// Must be called at decision level 0, ideally before the first
    /// `solve`. All derivations and deletions are DRAT-logged through the
    /// installed proof sink; eliminated variables are reassembled into
    /// every later model via the reconstruction stack. Freeze variables
    /// that outlive the preprocessor first ([`Solver::freeze_var`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use etcs_sat::{PreprocessConfig, Solver};
    /// let mut s = Solver::new();
    /// let a = s.new_var().positive();
    /// let b = s.new_var().positive();
    /// let c = s.new_var().positive();
    /// s.add_clause([a, b]);
    /// s.add_clause([a, b, c]); // subsumed
    /// let stats = s.preprocess(&PreprocessConfig::default());
    /// assert!(stats.clauses_removed() >= 1);
    /// assert!(s.solve().is_sat());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0.
    pub fn preprocess(&mut self, cfg: &PreprocessConfig) -> PreprocessStats {
        if !self.obs.is_enabled() {
            return self.preprocess_inner(cfg);
        }
        let span = self
            .obs
            .span_with("sat.preprocess", &[("clauses", self.num_clauses().into())]);
        let st = self.preprocess_inner(cfg);
        span.close_with(&[
            ("result", if self.ok { "reduced" } else { "unsat" }.into()),
            ("clauses_before", st.clauses_before.into()),
            ("clauses_after", st.clauses_after.into()),
            ("eliminated_vars", st.eliminated_vars.into()),
            ("subsumed", st.subsumed_removed.into()),
            ("strengthened", st.strengthened_literals.into()),
            ("failed_literals", st.failed_literals.into()),
            ("resolvents", st.resolvents_added.into()),
        ]);
        st
    }

    fn preprocess_inner(&mut self, cfg: &PreprocessConfig) -> PreprocessStats {
        assert_eq!(
            self.decision_level(),
            0,
            "preprocess runs at decision level 0"
        );
        let mut st = PreprocessStats::default();
        let (c0, l0) = self.formula_size();
        st.clauses_before = c0;
        st.literals_before = l0;
        st.clauses_after = c0;
        st.literals_after = l0;
        if !cfg.enabled || !self.ok {
            return st;
        }
        // Settle anything enqueued but not yet propagated.
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return st;
        }
        for round in 1..=cfg.rounds {
            st.rounds = round;
            let mut changed = self.pp_cleanup(&mut st);
            if self.ok && (cfg.subsumption || cfg.self_subsume) {
                changed |= self.pp_subsume(cfg, &mut st);
            }
            if self.ok && cfg.failed_literals {
                changed |= self.pp_failed_literals(cfg, &mut st);
            }
            if self.ok && cfg.var_elim {
                changed |= self.pp_eliminate(cfg, &mut st);
            }
            if !self.ok || !changed {
                break;
            }
        }
        let (c1, l1) = self.formula_size();
        st.clauses_after = c1;
        st.literals_after = l1;
        st
    }

    /// Live clause and literal counts.
    fn formula_size(&self) -> (usize, usize) {
        let mut clauses = 0usize;
        let mut literals = 0usize;
        for r in self.db.iter_refs() {
            clauses += 1;
            literals += self.db.len(r);
        }
        (clauses, literals)
    }

    /// Pins every new level-0 fact as an explicit unit lemma before any
    /// clause that implied it can be deleted (same contract as
    /// `remove_satisfied`): without the pins, later derivations relying on
    /// those facts would not be RUP for the backward checker.
    fn pin_root_facts(&mut self) {
        if self.proof.is_some() {
            for i in self.proof_units..self.trail.len() {
                let l = self.trail[i];
                self.proof_add(&[l]);
            }
            self.proof_units = self.trail.len();
        }
    }

    /// Cleanup sweep: deletes satisfied, tautological and duplicate
    /// clauses, strips root-falsified literals, settles recovered units.
    /// Leaves watches rebuilt and propagation complete.
    fn pp_cleanup(&mut self, st: &mut PreprocessStats) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        for &p in &self.trail {
            self.reasons[p.var().index()] = None;
        }
        self.pin_root_facts();
        let mut changed = false;
        let mut units: Vec<Lit> = Vec::new();
        let mut seen: HashSet<Vec<Lit>> = HashSet::new();
        let refs: Vec<ClauseRef> = self.db.iter_refs().collect();
        for r in refs {
            let original = self.db.lits(r).to_vec();
            let mut sorted = original.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[1] == !w[0]) {
                self.proof_delete(&original);
                self.db.delete(r);
                st.tautologies_removed += 1;
                changed = true;
                continue;
            }
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
                self.proof_delete(&original);
                self.db.delete(r);
                st.satisfied_removed += 1;
                changed = true;
                continue;
            }
            if original.len() != self.db.len(r) {
                // Stripping strengthened the clause: certify the stripped
                // version (RUP via the pinned root facts), retire the
                // original.
                let now = self.db.lits(r).to_vec();
                self.proof_add(&now);
                self.proof_delete(&original);
                st.stripped_literals += original.len() - now.len();
                changed = true;
            }
            match self.db.len(r) {
                0 => {
                    // The empty clause was just emitted by the stripping
                    // branch above; the formula is refuted.
                    self.ok = false;
                    self.db.delete(r);
                    return true;
                }
                1 => {
                    // The unit lemma stays in the proof's active set even
                    // though the database slot is released.
                    units.push(self.db.lits(r)[0]);
                    self.db.delete(r);
                    changed = true;
                }
                _ => {
                    let mut key = self.db.lits(r).to_vec();
                    key.sort_unstable();
                    if !seen.insert(key) {
                        let now = self.db.lits(r).to_vec();
                        self.proof_delete(&now);
                        self.db.delete(r);
                        st.duplicates_removed += 1;
                        changed = true;
                    }
                }
            }
        }
        if changed {
            self.rebuild_watches();
        }
        for u in units {
            match self.lit_value(u) {
                LBool::False => {
                    self.proof_add(&[]);
                    self.ok = false;
                    return true;
                }
                LBool::Undef => self.enqueue(u, None),
                LBool::True => {}
            }
        }
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return true;
        }
        changed
    }

    /// Subsumption and self-subsuming resolution over occurrence lists.
    ///
    /// For each clause `C` (smallest first) the candidates are the
    /// occurrence lists of `C`'s rarest literal `p` (for subsumption and
    /// strengthening on another literal) and of `¬p` (for strengthening on
    /// `p` itself): any clause subsumed or strengthenable by `C` must
    /// contain `p` or `¬p`.
    fn pp_subsume(&mut self, cfg: &PreprocessConfig, st: &mut PreprocessStats) -> bool {
        self.pin_root_facts();
        // Snapshot with canonically sorted literal lists.
        let refs: Vec<ClauseRef> = self.db.iter_refs().collect();
        let mut lits: Vec<Vec<Lit>> = Vec::with_capacity(refs.len());
        for &r in &refs {
            let mut c = self.db.lits(r).to_vec();
            c.sort_unstable();
            lits.push(c);
        }
        let mut alive = vec![true; refs.len()];
        let mut occ: Vec<Vec<usize>> = vec![Vec::new(); 2 * self.num_vars()];
        for (i, c) in lits.iter().enumerate() {
            for &l in c {
                occ[l.index()].push(i);
            }
        }
        let mut order: Vec<usize> = (0..refs.len()).collect();
        order.sort_by_key(|&i| lits[i].len());
        let mut changed = false;
        let mut units: Vec<Lit> = Vec::new();
        for &ci in &order {
            if !alive[ci] {
                continue;
            }
            let Some(&p) = lits[ci]
                .iter()
                .min_by_key(|l| occ[l.index()].len() + occ[(!**l).index()].len())
            else {
                continue;
            };
            let candidates: Vec<usize> = occ[p.index()]
                .iter()
                .chain(occ[(!p).index()].iter())
                .copied()
                .filter(|&di| di != ci && alive[di] && lits[di].len() >= lits[ci].len())
                .collect();
            for di in candidates {
                if !alive[ci] || !alive[di] {
                    continue;
                }
                match subsumes(&lits[ci], &lits[di]) {
                    Subsume::No => {}
                    Subsume::Subsumed => {
                        if !cfg.subsumption {
                            continue;
                        }
                        let orig = self.db.lits(refs[di]).to_vec();
                        self.proof_delete(&orig);
                        self.db.delete(refs[di]);
                        alive[di] = false;
                        st.subsumed_removed += 1;
                        changed = true;
                    }
                    Subsume::Strengthen(flip) => {
                        if !cfg.self_subsume {
                            continue;
                        }
                        // `D \ {¬flip}` is the resolvent of C and D on
                        // `flip`: emit it, retire the original D.
                        let orig = self.db.lits(refs[di]).to_vec();
                        let pos = self
                            .db
                            .lits(refs[di])
                            .iter()
                            .position(|&l| l == !flip)
                            .expect("strengthened literal is in the clause");
                        self.db.swap_remove(refs[di], pos);
                        let now = self.db.lits(refs[di]).to_vec();
                        self.proof_add(&now);
                        self.proof_delete(&orig);
                        st.strengthened_literals += 1;
                        changed = true;
                        lits[di].retain(|&l| l != !flip);
                        if now.len() == 1 {
                            units.push(now[0]);
                            self.db.delete(refs[di]);
                            alive[di] = false;
                        }
                        // The ¬flip occurrence list keeps a stale entry;
                        // `subsumes` re-checks against the updated lits.
                    }
                }
            }
        }
        if changed {
            self.rebuild_watches();
        }
        for u in units {
            match self.lit_value(u) {
                LBool::False => {
                    self.proof_add(&[]);
                    self.ok = false;
                    return true;
                }
                LBool::Undef => self.enqueue(u, None),
                LBool::True => {}
            }
        }
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return true;
        }
        changed
    }

    /// Failed-literal probing on roots: assume each candidate literal at a
    /// throwaway decision level; if propagation conflicts, the negation is
    /// a propagation consequence (RUP) and is fixed at level 0.
    fn pp_failed_literals(&mut self, cfg: &PreprocessConfig, st: &mut PreprocessStats) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let nv = self.num_vars();
        let mut occurs = vec![false; 2 * nv];
        for r in self.db.iter_refs() {
            for &l in self.db.lits(r) {
                occurs[l.index()] = true;
            }
        }
        let mut changed = false;
        'vars: for vi in 0..nv {
            let v = Var::from_index(vi);
            if self.eliminated[vi] || self.assigns[vi] != LBool::Undef {
                continue;
            }
            for phase in [true, false] {
                if st.probes >= cfg.probe_limit {
                    break 'vars;
                }
                let l = v.lit(phase);
                // Assuming `l` only triggers clauses watching it, i.e.
                // clauses containing `¬l`; without any, no conflict can
                // arise and the probe is pointless.
                if !occurs[(!l).index()] {
                    continue;
                }
                if self.lit_value(l) != LBool::Undef {
                    continue;
                }
                st.probes += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(l, None);
                let conflicted = self.propagate().is_some();
                self.cancel_until(0);
                if conflicted {
                    st.failed_literals += 1;
                    changed = true;
                    self.proof_add(&[!l]);
                    self.enqueue(!l, None);
                    if self.propagate().is_some() {
                        self.proof_add(&[]);
                        self.ok = false;
                        return true;
                    }
                    continue 'vars; // the variable is now assigned
                }
            }
        }
        changed
    }

    /// Bounded variable elimination by clause distribution. A candidate
    /// (unfrozen, unassigned, within the occurrence cap) is eliminated
    /// when its non-tautological, non-root-satisfied resolvents fit the
    /// growth budget; resolvents are emitted to the proof before the
    /// eliminated clauses are deleted, and the smaller-side clauses plus a
    /// default unit go onto the reconstruction stack.
    fn pp_eliminate(&mut self, cfg: &PreprocessConfig, st: &mut PreprocessStats) -> bool {
        self.pin_root_facts();
        let nv = self.num_vars();
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); 2 * nv];
        let refs: Vec<ClauseRef> = self.db.iter_refs().collect();
        for r in refs {
            for &l in self.db.lits(r) {
                occ[l.index()].push(r);
            }
        }
        let mut changed = false;
        for vi in 0..nv {
            let v = Var::from_index(vi);
            if self.frozen[vi] || self.eliminated[vi] || self.assigns[vi] != LBool::Undef {
                continue;
            }
            let pos: Vec<ClauseRef> = occ[v.positive().index()]
                .iter()
                .copied()
                .filter(|&r| !self.db.is_deleted(r))
                .collect();
            let neg: Vec<ClauseRef> = occ[v.negative().index()]
                .iter()
                .copied()
                .filter(|&r| !self.db.is_deleted(r))
                .collect();
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            if pos.len() + neg.len() > cfg.max_occurrences {
                continue;
            }
            let budget = pos.len() + neg.len() + cfg.growth_budget;
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut over_budget = false;
            'distribute: for &c in &pos {
                for &d in &neg {
                    if let Some(rlits) = self.resolve(c, d, v) {
                        resolvents.push(rlits);
                        if resolvents.len() > budget {
                            over_budget = true;
                            break 'distribute;
                        }
                    }
                }
            }
            if over_budget {
                continue;
            }
            // Emit additions before any deletion so every resolvent is RUP
            // against an active C and D.
            let mut conflict = false;
            for rlits in &resolvents {
                self.proof_add(rlits);
                match rlits.len() {
                    0 => {
                        self.ok = false;
                        conflict = true;
                        break;
                    }
                    1 => match self.lit_value(rlits[0]) {
                        LBool::False => {
                            self.proof_add(&[]);
                            self.ok = false;
                            conflict = true;
                            break;
                        }
                        LBool::Undef => self.enqueue(rlits[0], None),
                        LBool::True => {}
                    },
                    _ => {
                        let cref = self.db.push(rlits, false, 0);
                        for &l in rlits {
                            occ[l.index()].push(cref);
                        }
                        st.resolvents_added += 1;
                    }
                }
            }
            if conflict {
                return true;
            }
            // Reconstruction entries: the smaller side's clauses (witness =
            // this side's phase of v) pushed first, the opposite-phase
            // default unit last. The model walk runs in reverse: default
            // first, stored clauses override (Järvisalo et al.).
            let (stored, witness, default_lit) = if pos.len() > neg.len() {
                (&neg, v.negative(), v.positive())
            } else {
                (&pos, v.positive(), v.negative())
            };
            for &r in stored.iter() {
                let clause = self.db.lits(r).to_vec();
                self.reconstruction.push((witness, clause));
            }
            self.reconstruction.push((default_lit, vec![default_lit]));
            for &r in pos.iter().chain(neg.iter()) {
                let clause = self.db.lits(r).to_vec();
                self.proof_delete(&clause);
                self.db.delete(r);
                st.eliminated_clauses += 1;
            }
            self.eliminated[vi] = true;
            st.eliminated_vars += 1;
            changed = true;
        }
        if changed {
            self.rebuild_watches();
            if self.propagate().is_some() {
                self.proof_add(&[]);
                self.ok = false;
            }
        }
        changed
    }

    /// The resolvent of clauses `c` and `d` on pivot `v`, canonicalised
    /// against the root assignment: `None` for tautologies and
    /// root-satisfied resolvents (both are redundant — the latter is
    /// subsumed by a pinned unit lemma), root-falsified literals stripped
    /// (still RUP via the pinned units).
    fn resolve(&self, c: ClauseRef, d: ClauseRef, v: Var) -> Option<Vec<Lit>> {
        let mut out: Vec<Lit> = Vec::with_capacity(self.db.len(c) + self.db.len(d) - 2);
        for &l in self.db.lits(c).iter().chain(self.db.lits(d)) {
            if l.var() == v {
                continue;
            }
            match self.lit_value(l) {
                LBool::True => return None,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.windows(2).any(|w| w[1] == !w[0]) {
            return None;
        }
        Some(out)
    }
}

/// Relation of sorted clause `c` to sorted clause `d`.
enum Subsume {
    /// `c ⊆ d`: `d` is redundant.
    Subsumed,
    /// `c` with exactly one literal flipped is contained in `d`: `d` can
    /// drop the flipped literal's negation (self-subsuming resolution).
    /// Carries the literal as it appears in `c`.
    Strengthen(Lit),
    /// Neither.
    No,
}

/// Merge-scan subsumption check over sorted literal slices, allowing at
/// most one literal of `c` to occur negated in `d`.
fn subsumes(c: &[Lit], d: &[Lit]) -> Subsume {
    let mut flip: Option<Lit> = None;
    let mut di = 0usize;
    'next: for &cl in c {
        while di < d.len() {
            let dl = d[di];
            di += 1;
            if dl == cl {
                continue 'next;
            }
            if dl == !cl {
                if flip.is_some() {
                    return Subsume::No;
                }
                flip = Some(cl);
                continue 'next;
            }
            // Sorted order: literals of the same variable are adjacent
            // codes, so once past cl's code it cannot appear later.
            if dl.code() > cl.code() {
                return Subsume::No;
            }
        }
        return Subsume::No;
    }
    match flip {
        None => Subsume::Subsumed,
        Some(l) => Subsume::Strengthen(l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::{check_drat, DratProof};
    use crate::solver::SatResult;
    use std::sync::{Arc, Mutex};

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn duplicate_clauses_are_removed() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[1], v[0]]);
        let st = s.preprocess(&PreprocessConfig::default());
        assert_eq!(st.duplicates_removed, 1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn subsumed_clause_is_removed() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]);
        let cfg = PreprocessConfig {
            var_elim: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&cfg);
        assert_eq!(st.subsumed_removed, 1);
        assert_eq!(st.clauses_removed(), 1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn self_subsumption_strengthens() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        s.add_clause([!v[0], v[1], v[2]]);
        let cfg = PreprocessConfig {
            var_elim: false,
            failed_literals: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&cfg);
        // Each clause strengthens the other down to [v1, v2]; the
        // duplicate then disappears in the next cleanup round.
        assert!(st.strengthened_literals >= 1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn failed_literal_fixes_root_unit() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[0], !v[1]]);
        let cfg = PreprocessConfig {
            var_elim: false,
            subsumption: false,
            self_subsume: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&cfg);
        assert!(st.failed_literals >= 1);
        assert_eq!(s.lit_value(!v[0]), LBool::True);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn variable_elimination_reconstructs_models() {
        // x = AND(a, b) as Tseitin clauses, plus (x ∨ c): x is eliminable.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let x = s.new_var().positive();
        let c = s.new_var().positive();
        let original: Vec<Vec<Lit>> = vec![
            vec![!x, a],
            vec![!x, b],
            vec![x, !a, !b],
            vec![x, c],
            vec![!c, a],
        ];
        for cl in &original {
            s.add_clause(cl.iter().copied());
        }
        for l in [a, b, c] {
            s.freeze_lit(l);
        }
        let st = s.preprocess(&PreprocessConfig::default());
        assert!(st.eliminated_vars >= 1, "x must be eliminated: {st:?}");
        assert!(s.is_eliminated(x.var()));
        let SatResult::Sat(m) = s.solve() else {
            panic!("satisfiable");
        };
        for cl in &original {
            assert!(
                m.satisfies_clause(cl),
                "reconstructed model violates {cl:?}"
            );
        }
    }

    #[test]
    fn frozen_variables_survive_elimination() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([v[0], v[2]]);
        for &l in &v {
            s.freeze_lit(l);
        }
        let st = s.preprocess(&PreprocessConfig::default());
        assert_eq!(st.eliminated_vars, 0);
        // Frozen literals remain valid assumptions.
        assert!(s.solve_with(&[v[0]]).is_sat());
        assert!(s.solve_with(&[!v[0]]).is_sat());
    }

    #[test]
    fn pure_literal_is_eliminated_with_default_witness() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.freeze_lit(v[1]);
        let st = s.preprocess(&PreprocessConfig::default());
        assert_eq!(st.eliminated_vars, 1);
        let SatResult::Sat(m) = s.solve() else {
            panic!("satisfiable");
        };
        assert!(m.satisfies_clause(&[v[0], v[1]]));
    }

    #[test]
    fn unsat_survives_preprocessing_with_checked_proof() {
        // PHP(4,3) refuted after preprocessing; the DRAT certificate must
        // check against the original axioms, preprocessing steps included.
        let n = 4usize;
        let proof = Arc::new(Mutex::new(DratProof::new()));
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(Arc::clone(&proof)));
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        let mut axioms: Vec<Vec<Lit>> = Vec::new();
        for row in &p {
            axioms.push(row.clone());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                for (&a, &b) in p[i].iter().zip(&p[j]) {
                    axioms.push(vec![!a, !b]);
                }
            }
        }
        for c in &axioms {
            s.add_clause(c.iter().copied());
        }
        let st = s.preprocess(&PreprocessConfig::default());
        assert!(st.rounds >= 1);
        assert!(s.solve().is_unsat());
        let check =
            check_drat(&axioms, &proof.lock().expect("proof lock"), &[]).expect("proof must check");
        assert!(check.checked_lemmas >= 1);
    }

    #[test]
    fn preprocessing_detected_unsat_is_certified() {
        // a ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b): failed-literal probing or cleanup
        // refutes this without search.
        let proof = Arc::new(Mutex::new(DratProof::new()));
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(Arc::clone(&proof)));
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let axioms = vec![vec![a], vec![!a, b], vec![!a, !b]];
        for c in &axioms {
            s.add_clause(c.iter().copied());
        }
        s.preprocess(&PreprocessConfig::default());
        assert!(s.solve().is_unsat());
        check_drat(&axioms, &proof.lock().expect("proof lock"), &[]).expect("proof must check");
    }

    #[test]
    fn disabled_config_is_a_no_op() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[1], v[0]]);
        let cfg = PreprocessConfig {
            enabled: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&cfg);
        assert_eq!(st.rounds, 0);
        assert_eq!(st.clauses_removed(), 0);
        assert_eq!(s.num_clauses(), 2);
    }

    #[test]
    fn growth_budget_zero_blocks_explosive_eliminations() {
        // v occurs in 3 positive and 3 negative clauses over disjoint
        // variables: distribution yields 9 resolvents > 6 originals.
        let mut s = Solver::new();
        let v = s.new_var();
        let others: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
        for &o in &others[..3] {
            s.add_clause([v.positive(), o]);
        }
        for &o in &others[3..] {
            s.add_clause([v.negative(), o]);
        }
        for &o in &others {
            s.freeze_lit(o);
        }
        let cfg = PreprocessConfig {
            failed_literals: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&cfg);
        assert_eq!(st.eliminated_vars, 0, "9 resolvents exceed the budget");
        let roomy = PreprocessConfig {
            growth_budget: 3,
            failed_literals: false,
            ..PreprocessConfig::default()
        };
        let st = s.preprocess(&roomy);
        assert_eq!(st.eliminated_vars, 1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn preprocess_emits_obs_span() {
        let (obs, sink) = etcs_obs::Obs::memory();
        let mut s = Solver::new();
        s.set_obs(obs);
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]);
        let st = s.preprocess(&PreprocessConfig::default());
        let events = sink.events();
        let close = events
            .iter()
            .find(|e| e.kind == etcs_obs::EventKind::SpanClose && e.name == "sat.preprocess")
            .expect("sat.preprocess span must close");
        assert_eq!(close.field_str("result"), Some("reduced"));
        assert_eq!(
            close.field_u64("clauses_before"),
            Some(st.clauses_before as u64)
        );
        assert_eq!(
            close.field_u64("clauses_after"),
            Some(st.clauses_after as u64)
        );
    }

    #[test]
    fn incremental_solving_after_preprocess_respects_frozen_assumptions() {
        // Selector-guarded clauses survive preprocessing when the
        // selectors are frozen, and cores still make sense.
        let mut s = Solver::new();
        let sel: Vec<Lit> = (0..2).map(|_| s.new_var().positive()).collect();
        let a = s.new_var().positive();
        s.add_clause([!sel[0], a]);
        s.add_clause([!sel[1], !a]);
        for &l in &sel {
            s.freeze_lit(l);
        }
        s.freeze_lit(a);
        s.preprocess(&PreprocessConfig::default());
        assert!(s.solve_with(&[sel[0]]).is_sat());
        assert!(s.solve_with(&[sel[1]]).is_sat());
        match s.solve_with(&[sel[0], sel[1]]) {
            SatResult::Unsat { core } => assert!(!core.is_empty()),
            other => panic!("expected unsat: {other:?}"),
        }
    }
}
