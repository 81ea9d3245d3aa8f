//! Certifying an answer: evidence that does not trust whatever produced it.
//!
//! [`certify`] checks a [`DesignOutcome`] and [`certify_diagnosis`] a
//! [`Diagnosis`] from any driver: eager, incremental, lazy or a cache.
//! Each re-derives the answer's evidence on fresh encodings, traced (an
//! [`EncodingTrace`] mirror of exactly what the encoder emitted), linted
//! before solving and proof-logged while solving. A model must
//! satisfy the traced formula; a refutation's DRAT proof must pass
//! [`etcs_sat::check_drat`] with the traced formula as axioms and, under
//! assumptions, the negated failed core as target. Minimality (of borders,
//! of a diagnosis conflict) is not certified: MaxSAT counter clauses lie
//! outside every traced axiom set.

use std::fmt;

use etcs_lint::{has_errors, Finding};
use etcs_network::{NetworkError, Scenario, TrainId, VssLayout};
use etcs_sat::{check_drat, CheckOutcome, Lit, ProofError, SatResult};

use crate::diagnose::Diagnosis;
use crate::encoder::{encode, EncoderConfig, TaskKind};
use crate::instance::Instance;
use crate::tasks::DesignOutcome;
use crate::trace::EncodingTrace;

/// Evidence that an answer holds.
#[derive(Debug)]
pub struct Certification {
    /// Lint findings on [`trace`](Self::trace): warnings and infos (an
    /// error-severity finding on any encoding aborts before solving it).
    pub findings: Vec<Finding>,
    /// The traced encoding the verdict refers to: the witness encoding of
    /// a satisfiable claim, the last refuted one otherwise.
    pub trace: EncodingTrace,
    /// How the verdict was validated.
    pub verdict: CertifiedVerdict,
    /// Deadlines refuted with their own proofs on the way to an
    /// optimisation verdict; 0 for the other tasks.
    pub certified_unsat_probes: usize,
}

/// How a verdict was independently validated.
#[derive(Clone, Copy, Debug)]
pub enum CertifiedVerdict {
    /// A model satisfied every clause of the traced formula.
    ModelChecked,
    /// A DRAT proof of unsatisfiability passed the backward checker.
    ProofChecked(CheckOutcome),
}

/// Why an answer could not be certified.
#[derive(Debug)]
pub enum CertifyError {
    /// The scenario itself is malformed.
    Network(NetworkError),
    /// The lint pass found error-severity findings; the formula was not
    /// handed to the solver.
    MalformedEncoding(Vec<Finding>),
    /// The solver's model violates the traced formula — a solver or
    /// mirror defect.
    BadWitness,
    /// The solver's DRAT proof failed independent validation.
    Proof(ProofError),
    /// Re-deriving the evidence contradicted the answer: the stated fact,
    /// which the answer implies, does not hold.
    Refuted(String),
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
            CertifyError::Refuted(claim) => write!(f, "answer refuted: not true that {claim}"),
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

/// One piece of evidence: encodes `task` on `inst` traced and
/// proof-logged, refuses to solve on error-severity lint findings, solves
/// under the deadline selectors of `trains` (only [`TaskKind::Diagnose`]
/// has any), and checks the answer. An answer other than `sat` refutes
/// `claim`.
fn prove(
    inst: &Instance,
    config: &EncoderConfig,
    task: &TaskKind,
    trains: &[TrainId],
    sat: bool,
    claim: &str,
) -> Result<Certification, CertifyError> {
    let refuted = || CertifyError::Refuted(claim.to_owned());
    let config = EncoderConfig {
        trace: true,
        proof: true,
        ..*config
    };
    let mut enc = encode(inst, &config, task);
    let trace = enc.trace.take().expect("tracing enabled");
    let proof = enc.proof.take().expect("proof logging enabled");
    let findings = trace.lint();
    if has_errors(&findings) {
        return Err(CertifyError::MalformedEncoding(findings));
    }
    let assumptions: Vec<Lit> = trains
        .iter()
        .map(|t| enc.deadline_selectors.get(t.index()).copied())
        .collect::<Option<_>>()
        .ok_or_else(refuted)?;
    let verdict = match enc.solver.solve_with(&assumptions) {
        SatResult::Sat(model) if sat => {
            if !trace.formula.eval(&model) {
                return Err(CertifyError::BadWitness);
            }
            CertifiedVerdict::ModelChecked
        }
        SatResult::Unsat { core } if !sat => {
            let target: Vec<Lit> = core.iter().map(|&l| !l).collect();
            let proof = proof.lock().expect("proof lock");
            CertifiedVerdict::ProofChecked(check_drat(trace.formula.clauses(), &proof, &target)?)
        }
        SatResult::Unknown => unreachable!("no interrupt is installed"),
        _ => return Err(refuted()),
    };
    Ok(Certification {
        findings,
        trace,
        verdict,
        certified_unsat_probes: 0,
    })
}

/// Certifies `outcome` as the answer to `task` on `scenario` under
/// `config`, whichever driver produced it. The evidence per claim:
///
/// * `Verify(L)` feasible: the `Verify(L)` encoding is satisfiable;
///   `Verify(L)` or `Generate` infeasible: that task's encoding is refuted.
/// * `Generate` solved: `Verify(plan.layout)` is satisfiable.
/// * `Optimize` / `OptimizeIncremental` solved at completion `c`: on the
///   arrival-free scenario every uniform deadline from the completion
///   lower bound to `c - 2` is refuted, and `Verify(plan.layout)` at
///   deadline `c - 1` is satisfiable. Infeasible: every deadline up to the
///   horizon is refuted.
///
/// # Errors
///
/// Returns [`CertifyError::Refuted`] if the evidence contradicts the
/// answer, and the other variants if the scenario is malformed, an
/// encoding fails the lint gate, or the solver's evidence fails validation.
///
/// # Panics
///
/// Panics on [`TaskKind::Diagnose`]; see [`certify_diagnosis`].
///
/// # Examples
///
/// ```
/// use etcs_core::{certify, run, CertifiedVerdict, EncoderConfig, Run, TaskKind};
/// use etcs_network::{fixtures, VssLayout};
///
/// let scenario = fixtures::running_example();
/// let config = EncoderConfig::default();
/// let task = TaskKind::Verify(VssLayout::pure_ttd());
/// let (outcome, _) = run(&scenario, &task, &config, &Run::default())?;
/// // The deadlock verdict is backed by a checker-validated DRAT proof.
/// let cert = certify(&scenario, &task, &config, &outcome)?;
/// assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn certify(
    scenario: &Scenario,
    task: &TaskKind,
    config: &EncoderConfig,
    outcome: &DesignOutcome,
) -> Result<Certification, CertifyError> {
    let plan = outcome.plan();
    if !matches!(task, TaskKind::Optimize | TaskKind::OptimizeIncremental) {
        let inst = Instance::new(scenario)?;
        return match (task, plan) {
            (TaskKind::Diagnose(_), _) => panic!("a diagnosis has its own checker"),
            (TaskKind::Generate, Some(plan)) => {
                let verify = TaskKind::Verify(plan.layout.clone());
                prove(&inst, config, &verify, &[], true, "the layout works")
            }
            (_, Some(_)) => prove(&inst, config, task, &[], true, "the layout works"),
            (_, None) => prove(&inst, config, task, &[], false, "the task is infeasible"),
        };
    }
    let mut inst = Instance::new(&scenario.without_arrivals())?;
    let horizon = inst.t_max - 1;
    // The claimed optimum: the deadline one step before the completion.
    let best = match outcome {
        DesignOutcome::Solved { costs, .. } => match costs.first() {
            Some(&c) if (1..=inst.t_max as u64).contains(&c) => Some(c as usize - 1),
            _ => return Err(CertifyError::Refuted("the completion is in range".into())),
        },
        DesignOutcome::Infeasible => None,
    };
    let lower = inst.completion_lower_bound().min(horizon);
    let end = best.unwrap_or(horizon + 1);
    let mut cert = None;
    for d in lower..end {
        inst.set_uniform_deadline(d);
        let claim = format!("deadline step {d} is infeasible");
        let refuted = prove(&inst, config, &TaskKind::Generate, &[], false, &claim)?;
        cert = Some(refuted);
    }
    if let (Some(d), Some(plan)) = (best, plan) {
        inst.set_uniform_deadline(d);
        let verify = TaskKind::Verify(plan.layout.clone());
        let claim = format!("the plan's layout meets deadline step {d}");
        cert = Some(prove(&inst, config, &verify, &[], true, &claim)?);
    }
    let mut cert = cert.expect("a witness, or a refutation of at least the horizon");
    cert.certified_unsat_probes = end.saturating_sub(lower);
    Ok(cert)
}

/// Certifies `diagnosis` as the diagnosis of `scenario` on `layout` under
/// `config`: [`Diagnosis::Feasible`] by a model under every deadline
/// selector, [`Diagnosis::Structural`] by a refutation without
/// assumptions, and [`Diagnosis::Conflict`] by a refutation under the
/// named trains' selectors (labelled `deadline-sel[…]` in the trace).
///
/// # Errors
///
/// As for [`certify`].
pub fn certify_diagnosis(
    scenario: &Scenario,
    layout: &VssLayout,
    config: &EncoderConfig,
    diagnosis: &Diagnosis,
) -> Result<Certification, CertifyError> {
    let inst = Instance::new(scenario)?;
    let (trains, sat, claim) = match diagnosis {
        Diagnosis::Feasible => {
            let all = (0..inst.trains.len()).map(TrainId::from_index).collect();
            (all, true, "every deadline is met")
        }
        Diagnosis::Structural => (Vec::new(), false, "the schedule fails without deadlines"),
        Diagnosis::Conflict { trains, .. } => (trains.clone(), false, "the trains conflict"),
    };
    let task = TaskKind::Diagnose(layout.clone());
    prove(&inst, config, &task, &trains, sat, claim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{run, Run};
    use etcs_lint::LintKind;
    use etcs_network::fixtures;
    use etcs_sat::{CnfSink, DratProof, ProofStep, Var};

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    /// The task's answer from the plain driver, and its certificate.
    fn solve_and_certify(
        scenario: &Scenario,
        task: &TaskKind,
    ) -> (DesignOutcome, Result<Certification, CertifyError>) {
        let (outcome, _) = run(scenario, task, &config(), &Run::default()).expect("well-formed");
        let cert = certify(scenario, task, &config(), &outcome);
        (outcome, cert)
    }

    fn is_refuted(result: Result<Certification, CertifyError>) -> bool {
        matches!(result, Err(CertifyError::Refuted(_)))
    }

    #[test]
    fn pure_ttd_infeasibility_is_proof_checked() {
        let scenario = fixtures::running_example();
        let task = TaskKind::Verify(VssLayout::pure_ttd());
        let (outcome, cert) = solve_and_certify(&scenario, &task);
        assert!(!outcome.is_feasible(), "paper: pure TTD deadlocks");
        let cert = cert.expect("certified");
        assert!(
            cert.findings.is_empty(),
            "clean encoder output must lint clean: {:?}",
            cert.findings
        );
        let CertifiedVerdict::ProofChecked(check) = cert.verdict else {
            panic!("UNSAT verdicts must be proof-checked");
        };
        assert!(check.lemmas > 0 && check.checked_lemmas > 0);
        assert!(cert.trace.formula.num_clauses() > 0);
    }

    #[test]
    fn full_layout_feasibility_is_model_checked() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let task = TaskKind::Verify(VssLayout::full(&inst.net));
        let (outcome, cert) = solve_and_certify(&scenario, &task);
        assert!(outcome.is_feasible());
        let cert = cert.expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
    }

    #[test]
    fn forged_proof_is_rejected() {
        // Run the UNSAT verification by hand, then swap in a forged proof
        // claiming the empty clause outright. The checker must refuse it:
        // the encoding is not refutable by unit propagation alone.
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let cfg = EncoderConfig {
            trace: true,
            proof: true,
            ..config()
        };
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
        let (outcome, cert) = solve_and_certify(&scenario, &TaskKind::Generate);
        let DesignOutcome::Solved { costs, .. } = outcome else {
            panic!("paper: generation succeeds");
        };
        assert!(costs[0] >= 1);
        let cert = cert.expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
    }

    #[test]
    fn certified_generation_proves_infeasibility() {
        // No VSS layout lets the follower overtake on a single track, so
        // generation is infeasible — and says so with a checked proof.
        let scenario = crate::diagnose::follower_scenario();
        let (outcome, cert) = solve_and_certify(&scenario, &TaskKind::Generate);
        assert!(matches!(outcome, DesignOutcome::Infeasible));
        let cert = cert.expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
    }

    #[test]
    fn optimum_refutes_every_earlier_deadline() {
        let scenario = fixtures::running_example();
        let (outcome, cert) = solve_and_certify(&scenario, &TaskKind::Optimize);
        let DesignOutcome::Solved { costs, .. } = &outcome else {
            panic!("paper: optimisation succeeds");
        };
        let cert = cert.expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ModelChecked));
        assert!(cert.findings.is_empty());
        let lower = Instance::new(&scenario.without_arrivals())
            .expect("valid")
            .completion_lower_bound();
        assert_eq!(
            cert.certified_unsat_probes as u64,
            costs[0] - 1 - lower as u64,
            "one refutation per deadline below the optimum"
        );
    }

    #[test]
    fn wrong_design_claims_are_refuted() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let full = TaskKind::Verify(VssLayout::full(&inst.net));
        let pure = TaskKind::Verify(VssLayout::pure_ttd());
        let (feasible, _) = solve_and_certify(&scenario, &full);
        assert!(
            is_refuted(certify(
                &scenario,
                &full,
                &config(),
                &DesignOutcome::Infeasible
            )),
            "infeasible claimed for the full layout"
        );
        assert!(
            is_refuted(certify(&scenario, &pure, &config(), &feasible)),
            "feasible claimed for pure TTD"
        );

        let (optimum, _) = solve_and_certify(&scenario, &TaskKind::Optimize);
        let DesignOutcome::Solved { plan, costs } = optimum else {
            panic!("paper: optimisation succeeds");
        };
        for wrong in [costs[0] - 1, costs[0] + 1] {
            let claim = DesignOutcome::Solved {
                plan: plan.clone(),
                costs: vec![wrong, costs[1]],
            };
            let err = certify(&scenario, &TaskKind::Optimize, &config(), &claim).unwrap_err();
            assert!(
                matches!(err, CertifyError::Refuted(_)),
                "completion {wrong} against the true {}: {err}",
                costs[0]
            );
        }
    }

    #[test]
    fn certified_diagnosis_certifies_structural_deadlock() {
        let scenario = fixtures::running_example();
        let layout = VssLayout::pure_ttd();
        let cert = certify_diagnosis(&scenario, &layout, &config(), &Diagnosis::Structural)
            .expect("certified");
        let CertifiedVerdict::ProofChecked(check) = cert.verdict else {
            panic!("structural deadlock must be proof-checked");
        };
        assert!(check.lemmas > 0);
    }

    #[test]
    fn certified_diagnosis_certifies_conflict_core() {
        let scenario = crate::diagnose::follower_scenario();
        let layout = VssLayout::pure_ttd();
        let (d, _) = crate::diagnose::diagnose(&scenario, &layout, &config(), &Run::default())
            .expect("well-formed");
        let Diagnosis::Conflict { names, .. } = &d else {
            panic!("expected a conflict, got {d:?}");
        };
        let cert = certify_diagnosis(&scenario, &layout, &config(), &d).expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
        // The certificate's provenance names the selector of every
        // conflicting train, so the core is readable without the decoder.
        let labels: Vec<&str> = (0..cert.trace.formula.num_vars())
            .filter_map(|i| cert.trace.provenance.var_label(Var::from_index(i)))
            .filter(|l| l.starts_with("deadline-sel["))
            .collect();
        for name in names {
            assert!(
                labels.iter().any(|l| l.contains(name.as_str())),
                "selector for {name} must carry provenance: {labels:?}"
            );
        }
    }

    #[test]
    fn wrong_diagnoses_are_refuted() {
        let scenario = crate::diagnose::follower_scenario();
        let layout = VssLayout::pure_ttd();
        for wrong in [Diagnosis::Feasible, Diagnosis::Structural] {
            assert!(
                is_refuted(certify_diagnosis(&scenario, &layout, &config(), &wrong)),
                "{wrong:?} claimed for the follower conflict"
            );
        }
    }
}
