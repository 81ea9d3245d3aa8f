//! The lint checks: a static audit of a CNF formula (plus optional
//! [`Provenance`]) for encoding defects that solvers silently tolerate.

use std::collections::HashMap;

use etcs_sat::{Formula, Lit, Var};

use crate::provenance::Provenance;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Diagnostic information; the encoding is sound but noteworthy.
    Info,
    /// Almost certainly an encoding mistake (wasted work or a missing
    /// constraint), but the formula is still well-formed.
    Warning,
    /// The formula is malformed and must not be solved.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The lint catalogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A literal references a variable index outside the allocated range.
    OutOfRangeLiteral,
    /// The formula contains an empty clause (trivially unsatisfiable).
    EmptyClause,
    /// A variable was allocated but appears in no clause and no objective.
    UnconstrainedVar,
    /// A clause contains a literal and its negation.
    TautologicalClause,
    /// Two clauses have identical literal sets.
    DuplicateClause,
    /// A clause is a strict superset of another clause.
    SubsumedClause,
    /// A declared constraint group produced no clauses.
    EmptyGroup,
    /// Every clause of a group is already satisfied by unit propagation
    /// over the *rest* of the formula — the group constrains nothing on
    /// this instance.
    DeadGroup,
    /// A Tseitin gate output is never referenced outside its own (or other
    /// dead gates') defining clauses.
    UnreferencedGate,
}

impl LintKind {
    /// Stable kebab-case name of the lint.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::OutOfRangeLiteral => "out-of-range-literal",
            LintKind::EmptyClause => "empty-clause",
            LintKind::UnconstrainedVar => "unconstrained-var",
            LintKind::TautologicalClause => "tautological-clause",
            LintKind::DuplicateClause => "duplicate-clause",
            LintKind::SubsumedClause => "subsumed-clause",
            LintKind::EmptyGroup => "empty-group",
            LintKind::DeadGroup => "dead-group",
            LintKind::UnreferencedGate => "unreferenced-gate",
        }
    }

    /// The severity this lint reports at.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::OutOfRangeLiteral => Severity::Error,
            LintKind::EmptyClause
            | LintKind::UnconstrainedVar
            | LintKind::TautologicalClause
            | LintKind::DuplicateClause
            | LintKind::SubsumedClause
            | LintKind::EmptyGroup
            | LintKind::UnreferencedGate => Severity::Warning,
            LintKind::DeadGroup => Severity::Info,
        }
    }
}

impl std::fmt::Display for LintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One audit finding, anchored to the offending variable / clause / group.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which lint fired.
    pub kind: LintKind,
    /// Its severity (from [`LintKind::severity`]).
    pub severity: Severity,
    /// Human-readable description, including provenance when available.
    pub message: String,
    /// The offending variable, if the finding anchors to one.
    pub var: Option<Var>,
    /// Index of the offending clause, if any.
    pub clause: Option<usize>,
    /// Id of the offending constraint group, if any.
    pub group: Option<usize>,
}

impl Finding {
    fn new(kind: LintKind, message: String) -> Self {
        Finding {
            kind,
            severity: kind.severity(),
            message,
            var: None,
            clause: None,
            group: None,
        }
    }

    fn with_var(mut self, v: Var) -> Self {
        self.var = Some(v);
        self
    }

    fn with_clause(mut self, c: usize) -> Self {
        self.clause = Some(c);
        self
    }

    fn with_group(mut self, g: usize) -> Self {
        self.group = Some(g);
        self
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.kind, self.message)
    }
}

/// An explicit allowlist of constraint groups a *lazy* solving profile
/// intentionally leaves relaxed.
///
/// A CEGAR-style loop (see `etcs-lazy`) deliberately encodes some
/// constraint families as empty groups and adds their violated instances
/// on demand. To the plain [`audit`] such a relaxation is
/// indistinguishable from a forgotten constraint family — exactly the
/// defect [`LintKind::EmptyGroup`] / [`LintKind::DeadGroup`] exist to
/// catch. Instead of hard-failing on relaxed CNFs (or, worse, disabling
/// those lints), callers declare the deferral: [`audit_with_profile`]
/// suppresses group-underconstrained findings *only* for the groups named
/// here, keeping the lints armed for every group the profile does not
/// claim.
///
/// # Examples
///
/// ```
/// use etcs_lint::LazyProfile;
///
/// let profile = LazyProfile::new().allow_group("separation");
/// assert!(profile.allows("separation"));
/// assert!(!profile.allows("collision"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LazyProfile {
    groups: Vec<String>,
}

impl LazyProfile {
    /// An empty profile: nothing is allowlisted, so
    /// [`audit_with_profile`] behaves exactly like [`audit`].
    pub fn new() -> Self {
        LazyProfile::default()
    }

    /// Adds a constraint group (by its declared name) to the allowlist.
    #[must_use]
    pub fn allow_group(mut self, name: impl Into<String>) -> Self {
        self.groups.push(name.into());
        self
    }

    /// `true` if the named group is allowlisted.
    pub fn allows(&self, name: &str) -> bool {
        self.groups.iter().any(|g| g == name)
    }

    /// The allowlisted group names, in declaration order.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }
}

/// [`audit`] for lazily relaxed formulas: identical findings, except that
/// [`LintKind::EmptyGroup`] and [`LintKind::DeadGroup`] findings anchored
/// to a group the `profile` allowlists are suppressed — the relaxation is
/// declared, not accidental. All other lints (malformed clauses,
/// unconstrained variables, dangling gates, under-constrained groups the
/// profile does *not* claim) stay armed.
pub fn audit_with_profile(
    formula: &Formula,
    provenance: Option<&Provenance>,
    profile: &LazyProfile,
) -> Vec<Finding> {
    let findings = audit(formula, provenance);
    let Some(prov) = provenance else {
        return findings; // group lints need provenance; nothing to suppress
    };
    findings
        .into_iter()
        .filter(|f| {
            if !matches!(f.kind, LintKind::EmptyGroup | LintKind::DeadGroup) {
                return true;
            }
            let allowed = f
                .group
                .and_then(|g| prov.group_name(g))
                .is_some_and(|name| profile.allows(name));
            !allowed
        })
        .collect()
}

/// Audits `formula`, returning all findings in discovery order.
///
/// `provenance` (when given) exempts objective-referenced variables from
/// the unconstrained-variable lint, enables the group and gate lints, and
/// enriches every message with encoder-level origin information.
pub fn audit(formula: &Formula, provenance: Option<&Provenance>) -> Vec<Finding> {
    let empty = Provenance::new();
    let prov = provenance.unwrap_or(&empty);
    let mut auditor = Auditor::new(formula, prov);
    auditor.per_clause_structure();
    auditor.unconstrained_vars();
    auditor.duplicates_and_subsumption();
    auditor.groups();
    auditor.gates();
    auditor.findings
}

struct Auditor<'a> {
    formula: &'a Formula,
    prov: &'a Provenance,
    /// Sorted, deduplicated literal codes per clause.
    norm: Vec<Vec<u32>>,
    /// Clause indices per variable (vars within range only).
    var_occ: Vec<Vec<usize>>,
    /// Clause indices per literal code.
    lit_occ: Vec<Vec<usize>>,
    tautological: Vec<bool>,
    findings: Vec<Finding>,
}

impl<'a> Auditor<'a> {
    fn new(formula: &'a Formula, prov: &'a Provenance) -> Self {
        let nv = formula.num_vars();
        let clauses = formula.clauses();
        let mut norm = Vec::with_capacity(clauses.len());
        let mut var_occ = vec![Vec::new(); nv];
        let mut lit_occ = vec![Vec::new(); 2 * nv];
        let mut tautological = vec![false; clauses.len()];
        for (i, clause) in clauses.iter().enumerate() {
            let mut codes: Vec<u32> = clause.iter().map(|l| l.code()).collect();
            codes.sort_unstable();
            codes.dedup();
            tautological[i] = codes.windows(2).any(|w| w[0] ^ 1 == w[1]);
            for &code in &codes {
                let v = (code >> 1) as usize;
                if v < nv {
                    var_occ[v].push(i);
                    lit_occ[code as usize].push(i);
                }
            }
            norm.push(codes);
        }
        Auditor {
            formula,
            prov,
            norm,
            var_occ,
            lit_occ,
            tautological,
            findings: Vec::new(),
        }
    }

    /// Anchors a finding to clause `i`, attaching its provenance group.
    fn anchored(&self, f: Finding, i: usize) -> Finding {
        match self.prov.clause_group(i) {
            Some(g) => f.with_clause(i).with_group(g),
            None => f.with_clause(i),
        }
    }

    fn per_clause_structure(&mut self) {
        let nv = self.formula.num_vars();
        for (i, clause) in self.formula.clauses().iter().enumerate() {
            if clause.is_empty() {
                let f = self.anchored(
                    Finding::new(
                        LintKind::EmptyClause,
                        format!(
                            "{} is empty — the formula is trivially unsatisfiable",
                            self.prov.describe_clause(i)
                        ),
                    ),
                    i,
                );
                self.findings.push(f);
                continue;
            }
            for &l in clause {
                if l.var().index() >= nv {
                    let f = self.anchored(
                        Finding::new(
                            LintKind::OutOfRangeLiteral,
                            format!(
                                "{} references {} but only {nv} variables are allocated",
                                self.prov.describe_clause(i),
                                self.prov.describe_var(l.var()),
                            ),
                        ),
                        i,
                    );
                    self.findings.push(f.with_var(l.var()));
                }
            }
            if self.tautological[i] {
                let v = first_tautological_var(&self.norm[i]);
                let f = self.anchored(
                    Finding::new(
                        LintKind::TautologicalClause,
                        format!(
                            "{} contains {} in both polarities and is always true",
                            self.prov.describe_clause(i),
                            self.prov.describe_var(v),
                        ),
                    ),
                    i,
                );
                self.findings.push(f.with_var(v));
            }
        }
    }

    fn unconstrained_vars(&mut self) {
        for idx in 0..self.formula.num_vars() {
            let v = Var::from_index(idx);
            if self.var_occ[idx].is_empty() && !self.prov.is_objective_var(v) {
                self.findings.push(
                    Finding::new(
                        LintKind::UnconstrainedVar,
                        format!(
                            "{} is allocated but appears in no clause or objective",
                            self.prov.describe_var(v)
                        ),
                    )
                    .with_var(v),
                );
            }
        }
    }

    fn duplicates_and_subsumption(&mut self) {
        // Duplicates: identical normalized literal sets.
        let mut first_seen: HashMap<&[u32], usize> = HashMap::new();
        let mut duplicate_of: Vec<Option<usize>> = vec![None; self.norm.len()];
        for (i, codes) in self.norm.iter().enumerate() {
            if codes.is_empty() {
                continue;
            }
            match first_seen.entry(codes.as_slice()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    duplicate_of[i] = Some(*e.get());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
        let mut dup_findings = Vec::new();
        for (i, dup) in duplicate_of.iter().enumerate() {
            if let Some(j) = dup {
                dup_findings.push(self.anchored(
                    Finding::new(
                        LintKind::DuplicateClause,
                        format!(
                            "{} repeats {}",
                            self.prov.describe_clause(i),
                            self.prov.describe_clause(*j),
                        ),
                    ),
                    i,
                ));
            }
        }
        self.findings.append(&mut dup_findings);

        // Subsumption (strict): scan, for each potential subsumer, the
        // occurrence list of its rarest literal — every superset clause
        // must contain that literal too. Tautologies and duplicates are
        // excluded (already reported; a tautology "subsumes" nothing
        // meaningful and duplicates would double-report). Unit clauses are
        // excluded as subsumers too: a unit is a root-level *assignment*,
        // and the instance-specific slack it creates is reported at group
        // granularity by the dead-group lint instead of flooding the
        // report with one finding per clause mentioning the literal.
        //
        // Gate-defining clauses are exempt as subsumees: they pin down the
        // gate's *value*, so "redundant" there only means the context
        // already forces the gate one way (e.g. a completion gate whose
        // inputs a presence clause guarantees) — removing the clause would
        // change the function being defined, not eliminate waste.
        let mut gate_defining = vec![false; self.norm.len()];
        for gate in self.prov.gates() {
            for ci in gate.clauses.clone() {
                if let Some(slot) = gate_defining.get_mut(ci) {
                    *slot = true;
                }
            }
        }
        let mut subsumed_reported = vec![false; self.norm.len()];
        for (j, codes) in self.norm.iter().enumerate() {
            if codes.len() < 2 || self.tautological[j] || duplicate_of[j].is_some() {
                continue;
            }
            // Out-of-range literals (already reported as errors) have no
            // occurrence lists; skip such clauses here.
            if codes
                .last()
                .is_some_and(|&c| c as usize >= self.lit_occ.len())
            {
                continue;
            }
            let rarest = codes
                .iter()
                .min_by_key(|&&c| self.lit_occ[c as usize].len())
                .copied()
                .expect("non-empty clause");
            for &i in &self.lit_occ[rarest as usize] {
                if i == j
                    || subsumed_reported[i]
                    || gate_defining[i]
                    || self.norm[i].len() <= codes.len()
                    || self.tautological[i]
                    || duplicate_of[i].is_some()
                {
                    continue;
                }
                if is_subset(codes, &self.norm[i]) {
                    subsumed_reported[i] = true;
                    let f = self.anchored(
                        Finding::new(
                            LintKind::SubsumedClause,
                            format!(
                                "{} is subsumed by {}",
                                self.prov.describe_clause(i),
                                self.prov.describe_clause(j),
                            ),
                        ),
                        i,
                    );
                    self.findings.push(f);
                }
            }
        }
    }

    fn groups(&mut self) {
        let num_groups = self.prov.num_groups();
        if num_groups == 0 {
            return;
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
        for i in 0..self.formula.num_clauses() {
            if let Some(g) = self.prov.clause_group(i) {
                if g < num_groups {
                    members[g].push(i);
                }
            }
        }
        for (g, clause_ids) in members.iter().enumerate() {
            let name = self.prov.group_name(g).unwrap_or("?");
            if clause_ids.is_empty() {
                self.findings.push(
                    Finding::new(
                        LintKind::EmptyGroup,
                        format!("constraint group `{name}` produced no clauses"),
                    )
                    .with_group(g),
                );
                continue;
            }
            // Dead: unit propagation over the *other* groups' clauses
            // already satisfies every clause of this group.
            let Some(assign) = self.up_fixpoint(|i| self.prov.clause_group(i) == Some(g)) else {
                continue; // the rest of the formula is root-conflicting
            };
            let dead = clause_ids.iter().all(|&i| {
                self.formula.clauses()[i]
                    .iter()
                    .any(|&l| lit_value(&assign, l) == Some(true))
            });
            if dead {
                self.findings.push(
                    Finding::new(
                        LintKind::DeadGroup,
                        format!(
                            "constraint group `{name}` ({} clauses) is already \
                             satisfied by unit propagation over the rest of the \
                             formula — it constrains nothing on this instance",
                            clause_ids.len()
                        ),
                    )
                    .with_group(g),
                );
            }
        }
    }

    /// Root-level unit propagation over all clauses except those for which
    /// `skip` returns true. `None` on conflict. Assignment is indexed by
    /// variable: `1` true, `-1` false, `0` unassigned.
    fn up_fixpoint(&self, skip: impl Fn(usize) -> bool) -> Option<Vec<i8>> {
        let nv = self.formula.num_vars();
        let mut assign = vec![0i8; nv];
        loop {
            let mut changed = false;
            for (i, clause) in self.formula.clauses().iter().enumerate() {
                if skip(i) || self.tautological[i] {
                    continue;
                }
                let mut unassigned = None;
                let mut n_unassigned = 0usize;
                let mut satisfied = false;
                for &l in clause {
                    match lit_value(&assign, l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return None,
                    1 => {
                        let l = unassigned.expect("counted one unassigned literal");
                        if l.var().index() < nv {
                            assign[l.var().index()] = if l.is_positive() { 1 } else { -1 };
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                return Some(assign);
            }
        }
    }

    fn gates(&mut self) {
        let gates = self.prov.gates();
        if gates.is_empty() {
            return;
        }
        // Map each gate-defining clause to its owning gate.
        let mut owner: HashMap<usize, usize> = HashMap::new();
        for (gi, gate) in gates.iter().enumerate() {
            for ci in gate.clauses.clone() {
                owner.insert(ci, gi);
            }
        }
        // A gate is live while its output is referenced outside its own
        // defining clauses and outside dead gates' defining clauses (or by
        // an objective). Iterate to a fixpoint so dangling gate *chains*
        // die back-to-front.
        let mut alive = vec![true; gates.len()];
        loop {
            let mut changed = false;
            for (gi, gate) in gates.iter().enumerate() {
                if !alive[gi] || self.prov.is_objective_var(gate.output) {
                    continue;
                }
                let out = gate.output.index();
                let referenced = out < self.var_occ.len()
                    && self.var_occ[out].iter().any(|&ci| {
                        !gate.clauses.contains(&ci)
                            && match owner.get(&ci) {
                                Some(&og) => alive[og],
                                None => true,
                            }
                    });
                if !referenced {
                    alive[gi] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (gi, gate) in gates.iter().enumerate() {
            if !alive[gi] {
                self.findings.push(
                    Finding::new(
                        LintKind::UnreferencedGate,
                        format!(
                            "Tseitin gate output {} is never referenced outside \
                             its defining clauses",
                            self.prov.describe_var(gate.output)
                        ),
                    )
                    .with_var(gate.output),
                );
            }
        }
    }
}

/// Truth value of a literal under a partial assignment.
fn lit_value(assign: &[i8], l: Lit) -> Option<bool> {
    match assign.get(l.var().index()).copied().unwrap_or(0) {
        0 => None,
        s => Some((s > 0) == l.is_positive()),
    }
}

/// `a ⊆ b` for sorted, deduplicated code slices.
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut bi = 0usize;
    for &x in a {
        loop {
            match b.get(bi) {
                Some(&y) if y < x => bi += 1,
                Some(&y) if y == x => {
                    bi += 1;
                    break;
                }
                _ => return false,
            }
        }
    }
    true
}

/// First variable occurring in both polarities in a sorted code slice.
fn first_tautological_var(codes: &[u32]) -> Var {
    codes
        .windows(2)
        .find(|w| w[0] ^ 1 == w[1])
        .map(|w| Var::from_index((w[0] >> 1) as usize))
        .expect("caller checked the clause is tautological")
}
