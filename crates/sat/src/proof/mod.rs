//! DRAT proof logging and checking.
//!
//! When a [`ProofSink`] is installed on a
//! [`Solver`](crate::Solver) *before any clauses are added*, the solver
//! records every clause it derives (learnt clauses, level-0 simplification
//! results, the empty clause) and every clause it discards (database
//! reduction, satisfied-clause elimination). The resulting [`DratProof`] is
//! a standard DRAT certificate: each added clause is a reverse unit
//! propagation (RUP) consequence of the axioms plus the preceding lemmas,
//! so an UNSAT verdict can be re-validated by the independent checker in
//! [`check_drat`] — the solver is removed from the trusted base.
//!
//! Under assumptions, UNSAT verdicts are certified through the *core lemma*:
//! for a failed core `{a₁, …, aₙ}` the clause `¬a₁ ∨ … ∨ ¬aₙ` is RUP with
//! respect to the solver's final clause set, and [`check_drat`] takes it as
//! the `target` to validate (the empty clause, for refutations without
//! assumptions).
//!
//! The checker works *backwards*: it first validates the target against the
//! final clause set, then walks the proof in reverse, re-checking only the
//! lemmas that actually feed the refutation. Deleted clauses are reactivated
//! on the way back, so deletion information never weakens the check.

mod check;

pub use check::{check_drat, CheckOutcome, ProofError};

use crate::types::Lit;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Receiver for the solver's clause derivation/deletion events.
///
/// Install with [`Solver::set_proof_sink`](crate::Solver::set_proof_sink)
/// **before adding any clauses** — lemmas derived while loading (level-0
/// simplifications) are part of the certificate.
///
/// Sinks are `Send` so a proof-logging solver stays `Send` and can move
/// across threads, e.g. into a job-service worker.
pub trait ProofSink: fmt::Debug + Send {
    /// A clause was derived; it is RUP with respect to everything emitted
    /// before it plus the axioms. The empty slice is the empty clause.
    fn add_clause(&mut self, lits: &[Lit]);

    /// A previously active clause (axiom or lemma) was discarded.
    fn delete_clause(&mut self, lits: &[Lit]);
}

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Clause addition (a RUP lemma).
    Add(Vec<Lit>),
    /// Clause deletion.
    Delete(Vec<Lit>),
}

/// An in-memory DRAT proof: the ordered list of clause additions and
/// deletions emitted during one (or several incremental) solver runs.
///
/// # Examples
///
/// ```
/// use etcs_sat::{proof::{check_drat, DratProof}, SatResult, Solver};
/// use std::sync::{Arc, Mutex};
///
/// let proof = Arc::new(Mutex::new(DratProof::new()));
/// let mut s = Solver::new();
/// s.set_proof_sink(Box::new(Arc::clone(&proof)));
/// let a = s.new_var().positive();
/// let axioms = vec![vec![a], vec![!a]];
/// for c in &axioms {
///     s.add_clause(c.iter().copied());
/// }
/// assert!(matches!(s.solve(), SatResult::Unsat { .. }));
/// let proof = proof.lock().expect("proof lock");
/// check_drat(&axioms, &proof, &[]).expect("certificate is valid");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Mutable access to the steps (used by tests to corrupt proofs).
    pub fn steps_mut(&mut self) -> &mut [ProofStep] {
        &mut self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step directly (used by parsers and tests).
    pub fn push(&mut self, step: ProofStep) {
        self.steps.push(step);
    }

    /// Serialises to the standard textual DRAT format: one step per line,
    /// DIMACS literals terminated by `0`, deletions prefixed with `d`.
    pub fn to_drat_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for step in &self.steps {
            let (prefix, lits) = match step {
                ProofStep::Add(lits) => ("", lits),
                ProofStep::Delete(lits) => ("d ", lits),
            };
            out.push_str(prefix);
            for &l in lits {
                let _ = write!(out, "{} ", lit_to_dimacs(l));
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses the textual DRAT format produced by [`DratProof::to_drat_text`]
    /// (and by other DRAT-emitting solvers).
    pub fn parse_drat_text(text: &str) -> Result<Self, ProofParseError> {
        let mut proof = DratProof::new();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (is_delete, body) = match line.strip_prefix('d') {
                Some(rest) => (true, rest),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for tok in body.split_ascii_whitespace() {
                let n: i64 = tok.parse().map_err(|_| ProofParseError {
                    line: line_no + 1,
                    message: format!("invalid literal token {tok:?}"),
                })?;
                if n == 0 {
                    terminated = true;
                    break;
                }
                lits.push(lit_from_dimacs(n).ok_or(ProofParseError {
                    line: line_no + 1,
                    message: format!("literal {n} out of range"),
                })?);
            }
            if !terminated {
                return Err(ProofParseError {
                    line: line_no + 1,
                    message: "missing terminating 0".into(),
                });
            }
            proof.push(if is_delete {
                ProofStep::Delete(lits)
            } else {
                ProofStep::Add(lits)
            });
        }
        Ok(proof)
    }
}

/// Error from [`DratProof::parse_drat_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofParseError {
    /// 1-based source line of the offending step.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProofParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DRAT parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ProofParseError {}

/// 1-based signed DIMACS code of a literal.
fn lit_to_dimacs(l: Lit) -> i64 {
    let v = l.var().index() as i64 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

/// Literal from a non-zero signed DIMACS code.
fn lit_from_dimacs(n: i64) -> Option<Lit> {
    let idx = usize::try_from(n.unsigned_abs().checked_sub(1)?).ok()?;
    if idx >= (u32::MAX >> 1) as usize {
        return None;
    }
    Some(crate::types::Var::from_index(idx).lit(n > 0))
}

impl ProofSink for DratProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }
}

/// Shared-handle sink: the caller keeps one `Arc` and gives the solver the
/// other, so the proof can be inspected after (or between) solver runs. The
/// mutex is uncontended in practice — a solver emits from one thread at a
/// time — it exists to keep the handle `Send`.
impl ProofSink for Arc<Mutex<DratProof>> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.lock().expect("proof sink poisoned").add_clause(lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.lock()
            .expect("proof sink poisoned")
            .delete_clause(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn l(n: i64) -> Lit {
        lit_from_dimacs(n).unwrap()
    }

    #[test]
    fn dimacs_codes_roundtrip() {
        for n in [1i64, -1, 2, -2, 17, -40] {
            assert_eq!(lit_to_dimacs(l(n)), n);
        }
        assert_eq!(lit_from_dimacs(1), Some(Var::from_index(0).positive()));
        assert_eq!(lit_from_dimacs(-3), Some(Var::from_index(2).negative()));
    }

    #[test]
    fn text_format_roundtrip() {
        let mut p = DratProof::new();
        p.push(ProofStep::Add(vec![l(1), l(-2)]));
        p.push(ProofStep::Delete(vec![l(3)]));
        p.push(ProofStep::Add(vec![]));
        let text = p.to_drat_text();
        assert_eq!(text, "1 -2 0\nd 3 0\n0\n");
        assert_eq!(DratProof::parse_drat_text(&text).unwrap(), p);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let p = DratProof::parse_drat_text("c comment\n\n1 0\n").unwrap();
        assert_eq!(p.steps(), &[ProofStep::Add(vec![l(1)])]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DratProof::parse_drat_text("1 x 0\n").is_err());
        let err = DratProof::parse_drat_text("1 2\n").unwrap_err();
        assert!(err.to_string().contains("terminating"));
    }

    #[test]
    fn shared_handle_records_through_arc() {
        let shared = Arc::new(Mutex::new(DratProof::new()));
        let mut handle: Box<dyn ProofSink> = Box::new(Arc::clone(&shared));
        handle.add_clause(&[l(1)]);
        handle.delete_clause(&[l(1)]);
        assert_eq!(shared.lock().expect("proof lock").len(), 2);
    }
}
