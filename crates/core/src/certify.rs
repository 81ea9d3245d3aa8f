//! Certified task runners: verdicts that do not trust the solver.
//!
//! [`verify_certified`], [`generate_certified`], [`optimize_certified`] and
//! [`diagnose_certified`] run the same pipelines as their plain
//! counterparts, but build the encoding through the tracing path (an
//! [`EncodingTrace`] mirror of exactly what the encoder emitted), lint it
//! with [`etcs_lint`] before solving, log a DRAT proof while solving, and
//! validate the verdict independently:
//!
//! * **Feasible / solved** — the witness model is re-evaluated clause by
//!   clause against the traced formula, not against the solver's internal
//!   state.
//! * **Infeasible** — the DRAT proof is replayed by the backward checker
//!   [`etcs_sat::check_drat`] with the traced formula as axiom set; for
//!   assumption-based verdicts (diagnosis cores) the negated failed core
//!   is the checked target.
//!
//! Optimality claims (minimal borders, minimal completion time) are *not*
//! independently certified: the MaxSAT loop introduces cardinality-counter
//! clauses outside the traced axiom set. The certified surface is the
//! feasibility verdict of the returned solution and every UNSAT answer met
//! on the way (the deadline probes of [`optimize_certified`]).

use std::fmt;
use std::time::Instant;

use etcs_lint::{has_errors, Finding};
use etcs_network::{NetworkError, Scenario, TrainId, VssLayout};
use etcs_sat::{check_drat, maxsat, CheckOutcome, Lit, ProofError, SatResult, Strategy};

use crate::decode::SolvedPlan;
use crate::diagnose::Diagnosis;
use crate::encoder::{encode, EncoderConfig, EncodingStats, SolveMode, TaskKind};
use crate::instance::Instance;
use crate::tasks::{DesignOutcome, TaskReport, VerifyOutcome};
use crate::trace::EncodingTrace;

/// Evidence accompanying a certified verdict.
#[derive(Debug)]
pub struct Certification {
    /// Lint findings on the traced encoding (warnings and infos; a finding
    /// of [`etcs_lint::Severity::Error`] aborts before solving instead).
    pub findings: Vec<Finding>,
    /// The traced encoding all evidence refers to: the exact clause list
    /// handed to the solver plus variable/clause provenance.
    pub trace: EncodingTrace,
    /// How the verdict was validated.
    pub verdict: CertifiedVerdict,
    /// UNSAT deadline probes certified along the way (only
    /// [`optimize_certified`] produces these).
    pub certified_unsat_probes: usize,
}

/// How a certified verdict was independently validated.
#[derive(Clone, Copy, Debug)]
pub enum CertifiedVerdict {
    /// A witness model satisfied every clause of the traced formula.
    ModelChecked,
    /// A DRAT proof of unsatisfiability passed the backward checker.
    ProofChecked(CheckOutcome),
}

/// Failure modes of the certified runners.
#[derive(Debug)]
pub enum CertifyError {
    /// The scenario itself is malformed.
    Network(NetworkError),
    /// The lint pass found error-severity findings; the formula was not
    /// handed to the solver.
    MalformedEncoding(Vec<Finding>),
    /// The solver's witness model violates the traced formula — a solver
    /// or mirror defect.
    BadWitness,
    /// The solver's DRAT proof failed independent validation.
    Proof(ProofError),
    /// The caller asked for [`SolveMode::Portfolio`]: a portfolio verdict
    /// cannot be DRAT-certified (imported clauses have no derivation in the
    /// local proof log), so the certified runners refuse it outright rather
    /// than silently downgrading to sequential solving.
    PortfolioUncertified(usize),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Network(e) => write!(f, "malformed scenario: {e}"),
            CertifyError::MalformedEncoding(findings) => write!(
                f,
                "encoding rejected by lint:\n{}",
                etcs_lint::render_report(findings)
            ),
            CertifyError::BadWitness => {
                write!(f, "witness model does not satisfy the traced formula")
            }
            CertifyError::Proof(e) => write!(f, "DRAT proof rejected: {e}"),
            CertifyError::PortfolioUncertified(n) => write!(
                f,
                "certified tasks require SolveMode::Single: a {n}-worker \
                 clause-sharing portfolio cannot be DRAT-certified"
            ),
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<NetworkError> for CertifyError {
    fn from(e: NetworkError) -> Self {
        CertifyError::Network(e)
    }
}

impl From<ProofError> for CertifyError {
    fn from(e: ProofError) -> Self {
        CertifyError::Proof(e)
    }
}

/// Lints a traced encoding, refusing to solve on error-severity findings.
fn lint_gate(trace: &EncodingTrace) -> Result<Vec<Finding>, CertifyError> {
    let findings = trace.lint();
    if has_errors(&findings) {
        return Err(CertifyError::MalformedEncoding(findings));
    }
    Ok(findings)
}

/// Forces tracing and proof logging on, whatever the caller's config says.
/// Rejects [`SolveMode::Portfolio`] — the certification boundary: imported
/// clauses carry no derivation in the local DRAT log, so a portfolio verdict
/// is not certifiable and silently racing (or silently downgrading) would
/// misrepresent what the certificate covers.
fn certified_config(config: &EncoderConfig) -> Result<EncoderConfig, CertifyError> {
    if let SolveMode::Portfolio(n) = config.solve_mode {
        return Err(CertifyError::PortfolioUncertified(n));
    }
    let mut cfg = *config;
    cfg.trace = true;
    cfg.proof = true;
    Ok(cfg)
}

/// [`crate::verify`] with a certified verdict.
///
/// # Errors
///
/// Returns [`CertifyError`] if the scenario is malformed, the encoding
/// fails the lint gate, or the solver's evidence fails validation.
///
/// # Examples
///
/// ```
/// use etcs_core::{verify_certified, CertifiedVerdict, EncoderConfig};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// let (outcome, _, cert) =
///     verify_certified(&scenario, &VssLayout::pure_ttd(), &EncoderConfig::default())?;
/// assert!(!outcome.is_feasible());
/// // The deadlock verdict is backed by a checker-validated DRAT proof.
/// assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
/// # Ok::<(), etcs_core::CertifyError>(())
/// ```
pub fn verify_certified(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
) -> Result<(VerifyOutcome, TaskReport, Certification), CertifyError> {
    let start = Instant::now();
    let inst = Instance::new(scenario)?;
    let mut enc = encode(
        &inst,
        &certified_config(config)?,
        &TaskKind::Verify(layout.clone()),
    );
    let stats = enc.stats;
    let trace = enc.trace.take().expect("tracing enabled");
    let proof = enc.proof.take().expect("proof logging enabled");
    let findings = lint_gate(&trace)?;
    let (outcome, verdict) = match enc.solver.solve() {
        SatResult::Sat(model) => {
            if !trace.formula.eval(&model) {
                return Err(CertifyError::BadWitness);
            }
            let mut plan = SolvedPlan::decode(&inst, &enc.vars, &model);
            plan.layout = layout.clone();
            (
                VerifyOutcome::Feasible(plan),
                CertifiedVerdict::ModelChecked,
            )
        }
        SatResult::Unsat { .. } => {
            let check = check_drat(
                trace.formula.clauses(),
                &proof.lock().expect("proof lock"),
                &[],
            )?;
            (
                VerifyOutcome::Infeasible,
                CertifiedVerdict::ProofChecked(check),
            )
        }
        SatResult::Unknown => unreachable!("no conflict budget configured"),
    };
    Ok((
        outcome,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: 1,
            search: *enc.solver.stats(),
        },
        Certification {
            findings,
            trace,
            verdict,
            certified_unsat_probes: 0,
        },
    ))
}

/// [`crate::generate`] with a certified verdict.
///
/// The returned layout's feasibility is model-checked; an infeasibility
/// verdict is proof-checked (the MaxSAT loop answers "unsatisfiable" from
/// its very first solve, before any counter clause exists, so the proof is
/// valid against the traced axioms). Border *minimality* is reported as in
/// [`crate::generate`] but not independently certified.
///
/// # Errors
///
/// Returns [`CertifyError`] if the scenario is malformed, the encoding
/// fails the lint gate, or the solver's evidence fails validation.
pub fn generate_certified(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport, Certification), CertifyError> {
    let start = Instant::now();
    let inst = Instance::new(scenario)?;
    let mut enc = encode(&inst, &certified_config(config)?, &TaskKind::Generate);
    let stats = enc.stats;
    let trace = enc.trace.take().expect("tracing enabled");
    let proof = enc.proof.take().expect("proof logging enabled");
    let findings = lint_gate(&trace)?;
    let objective = enc.border_objective.clone();
    let (outcome, verdict, calls) =
        match maxsat::minimize(&mut enc.solver, &objective, &[], Strategy::LinearSatUnsat) {
            maxsat::OptimizeOutcome::Optimal(r) => {
                if !trace.formula.eval(&r.model) {
                    return Err(CertifyError::BadWitness);
                }
                (
                    DesignOutcome::Solved {
                        plan: SolvedPlan::decode(&inst, &enc.vars, &r.model),
                        costs: vec![r.cost],
                    },
                    CertifiedVerdict::ModelChecked,
                    r.solver_calls,
                )
            }
            maxsat::OptimizeOutcome::Unsat => {
                let check = check_drat(
                    trace.formula.clauses(),
                    &proof.lock().expect("proof lock"),
                    &[],
                )?;
                (
                    DesignOutcome::Infeasible,
                    CertifiedVerdict::ProofChecked(check),
                    1,
                )
            }
            maxsat::OptimizeOutcome::Unknown { .. } => {
                unreachable!("no conflict budget configured")
            }
        };
    Ok((
        outcome,
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search: *enc.solver.stats(),
        },
        Certification {
            findings,
            trace,
            verdict,
            certified_unsat_probes: 0,
        },
    ))
}

/// [`crate::optimize`] with a certified verdict.
///
/// Every UNSAT deadline probe of the shrinking-horizon search is certified
/// with its own DRAT proof (their count is reported in
/// [`Certification::certified_unsat_probes`]); the final solution is
/// model-checked against the stage-2 traced formula.
///
/// This is the **explicit per-probe fallback** to the incremental loop of
/// [`crate::optimize_incremental`]: certification deliberately re-encodes
/// every probe from scratch. A DRAT refutation is checked against a fixed
/// axiom set, and each deadline needs its *own* axiom set (the probe's
/// traced formula) — on a shared incremental solver the probes' proofs
/// would interleave in one log, and the Stage-2 MaxSAT counter clauses
/// fall outside the traced axioms entirely. Re-encoding keeps every
/// certificate self-contained at the cost of the cross-probe clause reuse
/// the plain incremental path exploits.
///
/// # Errors
///
/// Returns [`CertifyError`] if the scenario is malformed, any probe
/// encoding fails the lint gate, or the solver's evidence fails validation.
pub fn optimize_certified(
    scenario: &Scenario,
    config: &EncoderConfig,
) -> Result<(DesignOutcome, TaskReport, Certification), CertifyError> {
    let start = Instant::now();
    let open = scenario.without_arrivals();
    let mut inst = Instance::new(&open)?;
    let cfg = certified_config(config)?;
    let mut calls = 0usize;
    let mut probes = 0usize;
    let mut search = etcs_sat::Stats::default();

    // Stage 1 — shrinking-horizon search (see `optimize` for rationale),
    // with every UNSAT probe certified on the spot.
    let max_deadline = inst.t_max - 1;
    let lower = inst.completion_lower_bound().min(max_deadline);
    let mut best_deadline = None;
    let mut last_infeasible: Option<(EncodingStats, Vec<Finding>, EncodingTrace, CheckOutcome)> =
        None;
    for d in lower..=max_deadline {
        inst.set_uniform_deadline(d);
        let mut enc = encode(&inst, &cfg, &TaskKind::Generate);
        let trace = enc.trace.take().expect("tracing enabled");
        let proof = enc.proof.take().expect("proof logging enabled");
        let findings = lint_gate(&trace)?;
        calls += 1;
        let verdict = enc.solver.solve();
        search += enc.solver.stats();
        match verdict {
            SatResult::Sat(model) => {
                if !trace.formula.eval(&model) {
                    return Err(CertifyError::BadWitness);
                }
                best_deadline = Some(d);
                break;
            }
            SatResult::Unsat { .. } => {
                let check = check_drat(
                    trace.formula.clauses(),
                    &proof.lock().expect("proof lock"),
                    &[],
                )?;
                probes += 1;
                last_infeasible = Some((enc.stats, findings, trace, check));
            }
            SatResult::Unknown => unreachable!("no conflict budget configured"),
        }
    }
    let Some(best_deadline) = best_deadline else {
        let (stats, findings, trace, check) = last_infeasible.expect("at least one probe runs");
        return Ok((
            DesignOutcome::Infeasible,
            TaskReport {
                stats,
                runtime: start.elapsed(),
                solver_calls: calls,
                search,
            },
            Certification {
                findings,
                trace,
                verdict: CertifiedVerdict::ProofChecked(check),
                certified_unsat_probes: probes,
            },
        ));
    };

    // Stage 2 — minimise borders at the optimal completion.
    inst.set_uniform_deadline(best_deadline);
    let mut enc = encode(&inst, &cfg, &TaskKind::Generate);
    let stats = enc.stats;
    let trace = enc.trace.take().expect("tracing enabled");
    let findings = lint_gate(&trace)?;
    let border_obj = enc.border_objective.clone();
    let (plan, border_cost) =
        match maxsat::minimize(&mut enc.solver, &border_obj, &[], Strategy::LinearSatUnsat) {
            maxsat::OptimizeOutcome::Optimal(r) => {
                if !trace.formula.eval(&r.model) {
                    return Err(CertifyError::BadWitness);
                }
                calls += r.solver_calls;
                (SolvedPlan::decode(&inst, &enc.vars, &r.model), r.cost)
            }
            maxsat::OptimizeOutcome::Unsat => {
                unreachable!("the probed deadline was satisfiable")
            }
            maxsat::OptimizeOutcome::Unknown { .. } => {
                unreachable!("no conflict budget configured")
            }
        };
    search += enc.solver.stats();
    Ok((
        DesignOutcome::Solved {
            plan,
            costs: vec![best_deadline as u64 + 1, border_cost],
        },
        TaskReport {
            stats,
            runtime: start.elapsed(),
            solver_calls: calls,
            search,
        },
        Certification {
            findings,
            trace,
            verdict: CertifiedVerdict::ModelChecked,
            certified_unsat_probes: probes,
        },
    ))
}

/// [`crate::diagnose`] with a certified verdict.
///
/// Structural deadlocks are certified by a proof of the empty clause;
/// deadline conflicts by a proof of the negated failed core (the lemma
/// `¬sel₁ ∨ … ∨ ¬selₙ` over the deadline selector literals). The traced
/// provenance labels the selectors (`deadline-sel[…]`) so the certificate
/// can be read without decoding variable indices.
///
/// # Errors
///
/// Returns [`CertifyError`] if the scenario is malformed, the encoding
/// fails the lint gate, or the solver's evidence fails validation.
pub fn diagnose_certified(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
) -> Result<(Diagnosis, Certification), CertifyError> {
    let inst = Instance::new(scenario)?;
    let mut enc = encode(
        &inst,
        &certified_config(config)?,
        &TaskKind::Diagnose(layout.clone()),
    );
    let trace = enc.trace.take().expect("tracing enabled");
    let proof = enc.proof.take().expect("proof logging enabled");
    let findings = lint_gate(&trace)?;
    let selectors = enc.deadline_selectors.clone();

    // All deadlines on: the plain verification question.
    let core = match enc.solver.solve_with(&selectors) {
        SatResult::Sat(model) => {
            if !trace.formula.eval(&model) {
                return Err(CertifyError::BadWitness);
            }
            return Ok((
                Diagnosis::Feasible,
                Certification {
                    findings,
                    trace,
                    verdict: CertifiedVerdict::ModelChecked,
                    certified_unsat_probes: 0,
                },
            ));
        }
        SatResult::Unsat { core } => core,
        SatResult::Unknown => unreachable!("no conflict budget configured"),
    };
    if core.is_empty() {
        let check = check_drat(
            trace.formula.clauses(),
            &proof.lock().expect("proof lock"),
            &[],
        )?;
        return Ok((
            Diagnosis::Structural,
            Certification {
                findings,
                trace,
                verdict: CertifiedVerdict::ProofChecked(check),
                certified_unsat_probes: 0,
            },
        ));
    }

    // Shrink to a minimal conflict set, exactly as `diagnose` does.
    let mut minimal: Vec<Lit> = core;
    let mut i = 0;
    while i < minimal.len() {
        let mut candidate = minimal.clone();
        candidate.remove(i);
        match enc.solver.solve_with(&candidate) {
            SatResult::Unsat { core } => {
                minimal = core;
                i = 0;
            }
            SatResult::Sat(_) => i += 1,
            SatResult::Unknown => unreachable!("no conflict budget configured"),
        }
        if minimal.is_empty() {
            let check = check_drat(
                trace.formula.clauses(),
                &proof.lock().expect("proof lock"),
                &[],
            )?;
            return Ok((
                Diagnosis::Structural,
                Certification {
                    findings,
                    trace,
                    verdict: CertifiedVerdict::ProofChecked(check),
                    certified_unsat_probes: 0,
                },
            ));
        }
    }

    // One confirming solve so the core lemma is RUP with respect to the
    // *final* clause set: the intervening satisfiable probes may have
    // reduced the learnt database, and the checker validates the target
    // against what is active at the end of the proof.
    let confirmed = match enc.solver.solve_with(&minimal) {
        SatResult::Unsat { core } => core,
        _ => unreachable!("the minimal core was just unsatisfiable"),
    };
    let target: Vec<Lit> = confirmed.iter().map(|&l| !l).collect();
    let check = check_drat(
        trace.formula.clauses(),
        &proof.lock().expect("proof lock"),
        &target,
    )?;

    let mut trains: Vec<TrainId> = confirmed
        .iter()
        .filter_map(|l| selectors.iter().position(|s| s == l))
        .map(TrainId::from_index)
        .collect();
    trains.sort();
    trains.dedup();
    let names = trains
        .iter()
        .map(|t| inst.trains[t.index()].name.clone())
        .collect();
    Ok((
        Diagnosis::Conflict { trains, names },
        Certification {
            findings,
            trace,
            verdict: CertifiedVerdict::ProofChecked(check),
            certified_unsat_probes: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_lint::LintKind;
    use etcs_network::fixtures;
    use etcs_sat::{CnfSink, DratProof, ProofStep, Var};

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    #[test]
    fn pure_ttd_infeasibility_is_proof_checked() {
        let scenario = fixtures::running_example();
        let (outcome, report, cert) =
            verify_certified(&scenario, &VssLayout::pure_ttd(), &config()).expect("certified");
        assert!(!outcome.is_feasible(), "paper: pure TTD deadlocks");
        assert!(
            cert.findings.is_empty(),
            "clean encoder output must lint clean: {:?}",
            cert.findings
        );
        let CertifiedVerdict::ProofChecked(check) = cert.verdict else {
            panic!("UNSAT verdicts must be proof-checked");
        };
        assert!(check.lemmas > 0 && check.checked_lemmas > 0);
        assert!(report.stats.clauses > 0);
    }

    #[test]
    fn full_layout_feasibility_is_model_checked() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = VssLayout::full(&inst.net);
        let (outcome, _, cert) = verify_certified(&scenario, &full, &config()).expect("certified");
        assert!(outcome.is_feasible());
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
    }

    #[test]
    fn forged_proof_is_rejected() {
        // Re-run the UNSAT verification by hand, then swap in a forged
        // proof claiming the empty clause outright. The checker must refuse
        // it: the encoding is not refutable by unit propagation alone.
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let cfg = certified_config(&config()).expect("sequential mode certifies");
        let mut enc = encode(&inst, &cfg, &TaskKind::Verify(VssLayout::pure_ttd()));
        let trace = enc.trace.take().expect("traced");
        let proof = enc.proof.take().expect("proof logged");
        assert!(matches!(enc.solver.solve(), SatResult::Unsat { .. }));
        check_drat(
            trace.formula.clauses(),
            &proof.lock().expect("proof lock"),
            &[],
        )
        .expect("the genuine proof passes");
        assert!(
            proof.lock().expect("proof lock").len() > 1,
            "the refutation required search"
        );

        let mut forged = DratProof::new();
        forged.push(ProofStep::Add(Vec::new()));
        assert!(
            check_drat(trace.formula.clauses(), &forged, &[]).is_err(),
            "a bare empty-clause claim must be rejected"
        );
    }

    #[test]
    fn seeded_defects_are_flagged_with_provenance() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let mut cfg = config();
        cfg.trace = true;
        let mut enc = encode(&inst, &cfg, &TaskKind::Generate);
        let mut trace = enc.trace.take().expect("traced");
        assert!(
            trace.lint().is_empty(),
            "clean encoder output must lint clean"
        );

        // Seed an unconstrained variable …
        let ghost = trace.formula.new_var();
        trace.provenance.tag_var(ghost, "occ[Ghost,t=0,seg=0]");
        // … and a tautological clause in its own constraint group.
        let g = trace.provenance.declare_group("seeded-defects");
        let idx = trace.formula.num_clauses();
        let v = Var::from_index(0).positive();
        trace.formula.add_clause_from(&[v, !v]);
        trace.provenance.tag_clause(idx, g);

        let findings = trace.lint();
        let unconstrained = findings
            .iter()
            .find(|f| f.kind == LintKind::UnconstrainedVar)
            .expect("the ghost variable must be flagged");
        assert_eq!(unconstrained.var, Some(ghost));
        assert!(unconstrained.message.contains("occ[Ghost,t=0,seg=0]"));
        let taut = findings
            .iter()
            .find(|f| f.kind == LintKind::TautologicalClause)
            .expect("the tautology must be flagged");
        assert_eq!(taut.clause, Some(idx));
        assert_eq!(taut.group, Some(g));
    }

    #[test]
    fn certified_generation_model_checks_the_optimum() {
        let scenario = fixtures::running_example();
        let (outcome, _, cert) = generate_certified(&scenario, &config()).expect("certified");
        let DesignOutcome::Solved { costs, .. } = outcome else {
            panic!("paper: generation succeeds");
        };
        assert!(costs[0] >= 1);
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
    }

    #[test]
    fn certified_generation_proves_infeasibility() {
        // No VSS layout lets the follower overtake on a single track, so
        // generation is infeasible — and says so with a checked proof.
        let scenario = crate::diagnose::follower_scenario();
        let (outcome, _, cert) = generate_certified(&scenario, &config()).expect("certified");
        assert!(matches!(outcome, DesignOutcome::Infeasible));
        assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
    }

    #[test]
    fn certified_optimization_matches_plain() {
        let scenario = fixtures::running_example();
        let (outcome, _, cert) = optimize_certified(&scenario, &config()).expect("certified");
        let DesignOutcome::Solved { costs, .. } = outcome else {
            panic!("paper: optimisation succeeds");
        };
        let (plain, _) = crate::tasks::optimize(&scenario, &config()).expect("ok");
        let DesignOutcome::Solved {
            costs: plain_costs, ..
        } = plain
        else {
            panic!("plain optimisation succeeds");
        };
        assert_eq!(costs, plain_costs);
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
    }

    #[test]
    fn certified_diagnosis_certifies_structural_deadlock() {
        let scenario = fixtures::running_example();
        let (d, cert) =
            diagnose_certified(&scenario, &VssLayout::pure_ttd(), &config()).expect("certified");
        assert_eq!(d, Diagnosis::Structural);
        let CertifiedVerdict::ProofChecked(check) = cert.verdict else {
            panic!("structural deadlock must be proof-checked");
        };
        assert!(check.lemmas > 0);
    }

    #[test]
    fn certified_diagnosis_certifies_conflict_core() {
        let scenario = crate::diagnose::follower_scenario();
        let (d, cert) =
            diagnose_certified(&scenario, &VssLayout::pure_ttd(), &config()).expect("certified");
        let Diagnosis::Conflict { names, .. } = d else {
            panic!("expected a conflict, got {d:?}");
        };
        assert_eq!(
            names,
            vec!["Slow leader".to_owned(), "Tight follower".to_owned()]
        );
        assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
        // The certificate's provenance names the selector of every
        // conflicting train, so the core is readable without the decoder.
        let labels: Vec<&str> = (0..cert.trace.formula.num_vars())
            .filter_map(|i| cert.trace.provenance.var_label(Var::from_index(i)))
            .filter(|l| l.starts_with("deadline-sel["))
            .collect();
        for name in &names {
            assert!(
                labels.iter().any(|l| l.contains(name.as_str())),
                "selector for {name} must carry provenance: {labels:?}"
            );
        }
    }

    #[test]
    fn portfolio_mode_is_rejected_by_every_certified_runner() {
        // The certification boundary: clause-sharing portfolio verdicts are
        // not DRAT-certifiable, and the certified runners must say so with a
        // typed error instead of silently solving sequentially.
        let scenario = fixtures::running_example();
        let cfg = EncoderConfig {
            solve_mode: SolveMode::Portfolio(4),
            ..config()
        };
        let layout = VssLayout::pure_ttd();
        assert!(matches!(
            verify_certified(&scenario, &layout, &cfg),
            Err(CertifyError::PortfolioUncertified(4))
        ));
        assert!(matches!(
            generate_certified(&scenario, &cfg),
            Err(CertifyError::PortfolioUncertified(4))
        ));
        assert!(matches!(
            optimize_certified(&scenario, &cfg),
            Err(CertifyError::PortfolioUncertified(4))
        ));
        let err = diagnose_certified(&scenario, &layout, &cfg).unwrap_err();
        assert!(matches!(err, CertifyError::PortfolioUncertified(4)));
        assert!(err.to_string().contains("SolveMode::Single"));
    }
}
