//! DIMACS CNF import/export.
//!
//! Mainly a debugging and interoperability aid: formulas produced by the
//! ETCS encoder can be dumped and cross-checked with external solvers, and
//! external instances can be replayed against [`crate::Solver`].

use std::fmt::Write as _;

use crate::cnf::{CnfSink, Formula};
use crate::types::{Lit, Var};

/// Error produced when parsing a DIMACS file fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

/// Largest variable count a [`Lit`] can address: it packs `var << 1` into
/// a `u32`, so a variable index of 2^31 or more would wrap onto a low one.
const MAX_VARS: usize = 1 << 31;

/// Parses a DIMACS CNF document into a [`Formula`].
///
/// Comment lines (`c …`) and the problem line (`p cnf V C`) are accepted in
/// the usual places; clauses may span lines and are `0`-terminated. The
/// declared variable count is honoured (more variables than used is fine);
/// literals beyond it are an error, and so is a count above 2^31.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed input.
///
/// # Examples
///
/// ```
/// use etcs_sat::{parse_dimacs, Solver};
/// let f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")?;
/// let mut s = Solver::new();
/// f.load_into(&mut s);
/// assert!(s.solve().is_sat());
/// # Ok::<(), etcs_sat::ParseDimacsError>(())
/// ```
pub fn parse_dimacs(input: &str) -> Result<Formula, ParseDimacsError> {
    let mut formula = Formula::new();
    let mut declared_vars: Option<usize> = None;
    let mut current: Vec<Lit> = Vec::new();

    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if declared_vars.is_some() {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: "duplicate problem line".into(),
                });
            }
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: "expected `p cnf <vars> <clauses>`".into(),
                });
            }
            let nv: usize =
                parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseDimacsError {
                        line: lineno,
                        message: "missing or invalid variable count".into(),
                    })?;
            if nv > MAX_VARS {
                return Err(ParseDimacsError {
                    line: lineno,
                    message: format!("variable count {nv} exceeds the limit of {MAX_VARS}"),
                });
            }
            // Only comments precede the problem line, so `formula` is empty.
            declared_vars = Some(nv);
            formula = Formula::with_vars(nv);
            continue;
        }
        let nv = declared_vars.ok_or_else(|| ParseDimacsError {
            line: lineno,
            message: "clause before problem line".into(),
        })?;
        for tok in line.split_whitespace() {
            let value: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: lineno,
                message: format!("invalid literal `{tok}`"),
            })?;
            if value == 0 {
                formula.add_clause_from(&current);
                current.clear();
            } else {
                let var_ix = value.unsigned_abs() as usize - 1;
                if var_ix >= nv {
                    return Err(ParseDimacsError {
                        line: lineno,
                        message: format!("literal {value} exceeds declared variable count {nv}"),
                    });
                }
                current.push(Var::from_index(var_ix).lit(value > 0));
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError {
            line: input.lines().count(),
            message: "unterminated clause at end of input".into(),
        });
    }
    if declared_vars.is_none() {
        return Err(ParseDimacsError {
            line: 1,
            message: "missing problem line".into(),
        });
    }
    Ok(formula)
}

/// Serialises a [`Formula`] to DIMACS CNF text.
///
/// # Examples
///
/// ```
/// use etcs_sat::{Formula, CnfSink, write_dimacs, parse_dimacs};
/// let mut f = Formula::new();
/// let a = f.new_var().positive();
/// f.add_clause_from(&[!a]);
/// let text = write_dimacs(&f);
/// let back = parse_dimacs(&text).expect("roundtrip");
/// assert_eq!(back.num_clauses(), 1);
/// ```
pub fn write_dimacs(formula: &Formula) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses()
    );
    for clause in formula.clauses() {
        for &l in clause {
            let signed = (l.var().index() as i64 + 1) * if l.is_positive() { 1 } else { -1 };
            let _ = write!(out, "{signed} ");
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    #[test]
    fn parse_simple() {
        let f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n").expect("parse");
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
    }

    #[test]
    fn parse_multiline_clause() {
        let f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n").expect("parse");
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clauses()[0].len(), 3);
    }

    #[test]
    fn rejects_clause_before_header() {
        let e = parse_dimacs("1 2 0\n").expect_err("should fail");
        assert!(e.message.contains("problem line"));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let e = parse_dimacs("p cnf 1 1\n2 0\n").expect_err("should fail");
        assert!(e.message.contains("exceeds"));
    }

    #[test]
    fn rejects_variable_count_past_literal_packing() {
        // Variable 2147483649 has index 2^31, which would wrap onto x0 and
        // turn this satisfiable formula into `x0 ∧ ¬x0`.
        let e = parse_dimacs("p cnf 2147483649 2\n2147483649 0\n-1 0\n").expect_err("should fail");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceeds the limit"));
    }

    #[test]
    fn a_large_declared_variable_count_parses_in_constant_time() {
        // The declared count is recorded, not allocated variable by variable.
        let f = parse_dimacs("p cnf 2147483648 1\n-2147483648 0\n").expect("parse");
        assert_eq!(f.num_vars(), 1 << 31);
        assert_eq!(f.clauses()[0][0].var().index(), (1 << 31) - 1);
    }

    #[test]
    fn rejects_unterminated_clause() {
        let e = parse_dimacs("p cnf 2 1\n1 2\n").expect_err("should fail");
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn rejects_garbage_literal() {
        let e = parse_dimacs("p cnf 2 1\n1 x 0\n").expect_err("should fail");
        assert!(e.message.contains("invalid literal"));
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let text = "p cnf 4 3\n1 2 0\n-1 3 0\n-2 -3 4 0\n";
        let f = parse_dimacs(text).expect("parse");
        let back = write_dimacs(&f);
        let f2 = parse_dimacs(&back).expect("reparse");
        assert_eq!(f.clauses(), f2.clauses());
        let mut s = Solver::new();
        f2.load_into(&mut s);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn display_of_error_mentions_line() {
        let e = parse_dimacs("p cnf 1 1\n5 0\n").expect_err("should fail");
        assert!(format!("{e}").contains("line 2"));
    }
}
