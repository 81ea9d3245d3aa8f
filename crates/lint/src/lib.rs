//! # etcs-lint — static analysis for CNF encodings
//!
//! SAT solvers happily digest malformed or wasteful encodings: an
//! unconstrained variable, a tautological clause, or a whole constraint
//! family that never fires all solve to the *same verdict* as the intended
//! formula, so such defects survive every end-to-end test. This crate
//! audits a [`Formula`] (any formula — it only assumes CNF) together with
//! optional encoder [`Provenance`] and reports:
//!
//! * [`LintKind::OutOfRangeLiteral`] — literals outside the allocated
//!   variable range (severity: error; the formula is malformed),
//! * [`LintKind::EmptyClause`] — trivial unsatisfiability baked in,
//! * [`LintKind::UnconstrainedVar`] — allocated but never used variables,
//! * [`LintKind::TautologicalClause`] / [`LintKind::DuplicateClause`] /
//!   [`LintKind::SubsumedClause`] — clauses that cannot constrain anything,
//! * [`LintKind::EmptyGroup`] / [`LintKind::DeadGroup`] — declared
//!   constraint groups that emitted nothing, or whose every clause is
//!   already satisfied by unit propagation over the rest of the formula,
//! * [`LintKind::UnreferencedGate`] — Tseitin gates whose outputs dangle.
//!
//! With provenance attached (the ETCS encoder tags every variable with its
//! train / time step / segment and every clause with its constraint group),
//! findings read like `occ[train=2,t=3,seg=7]` instead of `x4711`.
//!
//! ## Example
//!
//! ```
//! use etcs_lint::{audit, LintKind, Provenance};
//! use etcs_sat::{CnfSink, Formula};
//!
//! let mut f = Formula::new();
//! let mut prov = Provenance::new();
//! let a = f.new_var();
//! prov.tag_var(a, "occ[train=0,t=0,seg=0]");
//! let b = f.new_var();
//! prov.tag_var(b, "occ[train=0,t=1,seg=0]");
//! let g = prov.declare_group("movement[train=0]");
//! f.add_clause_from(&[a.positive(), a.negative()]); // oops: tautology
//! prov.tag_clause(0, g);
//!
//! let findings = audit(&f, Some(&prov));
//! assert!(findings.iter().any(|x| x.kind == LintKind::TautologicalClause));
//! assert!(findings.iter().any(|x| x.kind == LintKind::UnconstrainedVar
//!     && x.message.contains("occ[train=0,t=1,seg=0]")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod provenance;

pub use audit::{audit, audit_with_profile, Finding, LazyProfile, LintKind, Severity};
pub use provenance::{Gate, Provenance};

use etcs_sat::Formula;

/// `true` if any finding is [`Severity::Error`] — the formula is malformed
/// and must not be handed to a solver.
pub fn has_errors(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Error)
}

/// Renders findings as a line-per-finding report (empty string when clean).
pub fn render_report(findings: &[Finding]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    out
}

/// Convenience: audits a formula without provenance.
pub fn audit_formula(formula: &Formula) -> Vec<Finding> {
    audit(formula, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_sat::{CnfSink, Formula, Var};

    fn kinds(findings: &[Finding]) -> Vec<LintKind> {
        findings.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn clean_formula_has_no_findings() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause_from(&[a, b]);
        f.add_clause_from(&[!a, !b]);
        assert!(audit_formula(&f).is_empty());
    }

    #[test]
    fn out_of_range_literal_is_an_error() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a, Var::from_index(7).positive()]);
        let findings = audit_formula(&f);
        assert!(kinds(&findings).contains(&LintKind::OutOfRangeLiteral));
        assert!(has_errors(&findings));
    }

    #[test]
    fn empty_clause_is_flagged() {
        let mut f = Formula::new();
        let _ = f.new_var();
        f.add_clause_from(&[]);
        let findings = audit_formula(&f);
        assert!(kinds(&findings).contains(&LintKind::EmptyClause));
    }

    #[test]
    fn unconstrained_var_is_flagged_unless_objective() {
        let mut f = Formula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause_from(&[a.positive()]);
        let findings = audit_formula(&f);
        assert_eq!(kinds(&findings), vec![LintKind::UnconstrainedVar]);
        assert_eq!(findings[0].var, Some(b));

        let mut prov = Provenance::new();
        prov.mark_objective_var(b);
        assert!(audit(&f, Some(&prov)).is_empty());
    }

    #[test]
    fn tautology_duplicate_and_subsumption_are_flagged() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let c = f.new_var().positive();
        f.add_clause_from(&[a, !a, b]); // 0: tautology
        f.add_clause_from(&[a, b]); // 1
        f.add_clause_from(&[b, a]); // 2: duplicate of 1
        f.add_clause_from(&[a, b, c]); // 3: subsumed by 1
        f.add_clause_from(&[!c, !a]); // 4: clean (constrains c)
        let findings = audit_formula(&f);
        let ks = kinds(&findings);
        assert!(ks.contains(&LintKind::TautologicalClause));
        assert!(ks.contains(&LintKind::DuplicateClause));
        assert!(ks.contains(&LintKind::SubsumedClause));
        let sub = findings
            .iter()
            .find(|f| f.kind == LintKind::SubsumedClause)
            .expect("subsumption finding");
        assert_eq!(sub.clause, Some(3));
    }

    #[test]
    fn duplicates_are_not_double_reported_as_subsumed() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause_from(&[a, b]);
        f.add_clause_from(&[a, b]);
        let findings = audit_formula(&f);
        assert_eq!(kinds(&findings), vec![LintKind::DuplicateClause]);
    }

    #[test]
    fn gate_defining_clauses_are_exempt_from_subsumption() {
        // The gate's long clause [a, b, !y] is a strict superset of the
        // plain clause [a, b], but it is definitional (it pins down y's
        // value) and must not be reported as subsumed.
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause_from(&[a, b]);
        f.add_clause_from(&[!a, !b]);
        let mut prov = Provenance::new();
        let start = f.num_clauses();
        let y = f.or_gate(&[a, b]);
        prov.tag_gate(y.var(), start..f.num_clauses());
        f.assert_true(y);
        let findings = audit(&f, Some(&prov));
        assert!(
            !kinds(&findings).contains(&LintKind::SubsumedClause),
            "definitional gate clauses must not be reported: {findings:?}"
        );
    }

    #[test]
    fn empty_group_is_flagged() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a]);
        let mut prov = Provenance::new();
        let g = prov.declare_group("separation");
        let findings = audit(&f, Some(&prov));
        assert_eq!(kinds(&findings), vec![LintKind::EmptyGroup]);
        assert_eq!(findings[0].group, Some(g));
        assert!(findings[0].message.contains("separation"));
    }

    #[test]
    fn dead_group_is_flagged() {
        // Group 0 root-implies b (a unit chain); every clause of group 1
        // is satisfied by the derived b, so group 1 constrains nothing.
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let c = f.new_var().positive();
        let mut prov = Provenance::new();
        let g0 = prov.declare_group("border-fix");
        let g1 = prov.declare_group("separation");
        f.add_clause_from(&[a]);
        prov.tag_clause(0, g0);
        f.add_clause_from(&[!a, b]);
        prov.tag_clause(1, g0);
        f.add_clause_from(&[b, c]);
        prov.tag_clause(2, g1);
        f.add_clause_from(&[b, !c]);
        prov.tag_clause(3, g1);
        let findings = audit(&f, Some(&prov));
        assert_eq!(kinds(&findings), vec![LintKind::DeadGroup]);
        assert_eq!(findings[0].group, Some(g1));
        assert_eq!(findings[0].severity, Severity::Info);
    }

    #[test]
    fn live_group_is_not_flagged() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let mut prov = Provenance::new();
        let g = prov.declare_group("movement");
        f.add_clause_from(&[a, b]);
        prov.tag_clause(0, g);
        f.add_clause_from(&[!a, !b]);
        assert!(audit(&f, Some(&prov)).is_empty());
    }

    #[test]
    fn unreferenced_gate_chain_dies_back_to_front() {
        // y0 = or(a); y1 = or(y0): y1 dangles, which in turn kills y0.
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a]); // keep `a` constrained
        let mut prov = Provenance::new();
        let start0 = f.num_clauses();
        let y0 = f.or_gate(&[a]);
        prov.tag_gate(y0.var(), start0..f.num_clauses());
        let start1 = f.num_clauses();
        let y1 = f.or_gate(&[y0]);
        prov.tag_gate(y1.var(), start1..f.num_clauses());
        let findings = audit(&f, Some(&prov));
        let mut gate_vars: Vec<_> = findings
            .iter()
            .filter(|f| f.kind == LintKind::UnreferencedGate)
            .filter_map(|f| f.var)
            .collect();
        gate_vars.sort();
        assert_eq!(gate_vars, vec![y0.var(), y1.var()]);
    }

    #[test]
    fn referenced_gate_is_live() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a]);
        let mut prov = Provenance::new();
        let start = f.num_clauses();
        let y = f.or_gate(&[a]);
        prov.tag_gate(y.var(), start..f.num_clauses());
        f.assert_true(y);
        assert!(audit(&f, Some(&prov)).is_empty());
    }

    #[test]
    fn objective_marked_gate_is_live() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a]);
        let mut prov = Provenance::new();
        let start = f.num_clauses();
        let y = f.and_gate(&[a]);
        prov.tag_gate(y.var(), start..f.num_clauses());
        prov.mark_objective_var(y.var());
        assert!(audit(&f, Some(&prov)).is_empty());
    }

    #[test]
    fn lazy_profile_suppresses_only_allowlisted_groups() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        f.add_clause_from(&[a]);
        let mut prov = Provenance::new();
        let g_sep = prov.declare_group("separation");
        let g_col = prov.declare_group("collision");
        let findings = audit(&f, Some(&prov));
        assert_eq!(
            kinds(&findings),
            vec![LintKind::EmptyGroup, LintKind::EmptyGroup],
            "both relaxed groups are flagged without a profile"
        );

        let profile = LazyProfile::new().allow_group("separation");
        let filtered = audit_with_profile(&f, Some(&prov), &profile);
        assert_eq!(kinds(&filtered), vec![LintKind::EmptyGroup]);
        assert_eq!(filtered[0].group, Some(g_col), "collision stays flagged");
        let _ = g_sep;

        let full = LazyProfile::new()
            .allow_group("separation")
            .allow_group("collision");
        assert!(audit_with_profile(&f, Some(&prov), &full).is_empty());
    }

    #[test]
    fn lazy_profile_does_not_mask_other_lints() {
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let _dangling = f.new_var();
        f.add_clause_from(&[a, !a]); // tautology
        let mut prov = Provenance::new();
        let g = prov.declare_group("separation");
        prov.tag_clause(0, g);
        let profile = LazyProfile::new().allow_group("separation");
        let findings = audit_with_profile(&f, Some(&prov), &profile);
        let ks = kinds(&findings);
        assert!(ks.contains(&LintKind::TautologicalClause));
        assert!(ks.contains(&LintKind::UnconstrainedVar));
    }

    #[test]
    fn dead_allowlisted_group_is_suppressed() {
        // Group 0 root-implies b; group 1 ("separation") is dead — and
        // declared lazily deferred, so the profile silences it.
        let mut f = Formula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        let mut prov = Provenance::new();
        let g0 = prov.declare_group("border-fix");
        let g1 = prov.declare_group("separation");
        f.add_clause_from(&[a]);
        prov.tag_clause(0, g0);
        f.add_clause_from(&[!a, b]);
        prov.tag_clause(1, g0);
        f.add_clause_from(&[b, a]);
        prov.tag_clause(2, g1);
        let findings = audit(&f, Some(&prov));
        assert!(kinds(&findings).contains(&LintKind::DeadGroup));
        let profile = LazyProfile::new().allow_group("separation");
        assert!(audit_with_profile(&f, Some(&prov), &profile).is_empty());
    }

    #[test]
    fn findings_render_with_severity_and_name() {
        let mut f = Formula::new();
        let _ = f.new_var();
        let findings = audit_formula(&f);
        let report = render_report(&findings);
        assert!(report.contains("[warning] unconstrained-var"));
    }
}
