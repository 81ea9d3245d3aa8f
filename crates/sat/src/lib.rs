//! # etcs-sat — the solving substrate of the ETCS Level 3 reproduction
//!
//! A from-scratch, dependency-free CDCL SAT solver together with the
//! encoding and optimisation layers the ETCS Level 3 methodology of
//! Wille et al. (DATE 2021) requires:
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched-literal
//!   propagation, VSIDS + phase saving, Luby restarts, LBD-based clause
//!   database reduction, incremental solving under assumptions and
//!   unsat-core extraction;
//! * [`Formula`] / [`CnfSink`] — inspectable CNF construction with Tseitin
//!   gate helpers;
//! * [`card`] — arc-consistent cardinality encodings (pairwise, sequential
//!   counter, [`Totalizer`]);
//! * [`Objective`] / [`maxsat`] — exact linear and lexicographic
//!   minimisation via assumable unary bounds;
//! * [`proof`] — DRAT proof logging ([`ProofSink`], [`DratProof`]) and an
//!   independent backward RUP checker ([`check_drat`]), so UNSAT verdicts
//!   can be certified without trusting the solver;
//! * [`parse_dimacs`] / [`write_dimacs`] — DIMACS interoperability.
//!
//! The paper's reference implementation drives Z3; this crate substitutes an
//! exact solver with the same observable behaviour on the paper's formulas
//! (SAT/UNSAT verdicts and optimal objective values are identical; only
//! wall-clock performance differs).
//!
//! ## Quick start
//!
//! ```
//! use etcs_sat::{Solver, SatResult, CnfSink, Objective, maxsat};
//!
//! // Minimise the number of selected items subject to "select a or b".
//! let mut solver = Solver::new();
//! let a = CnfSink::new_var(&mut solver).positive();
//! let b = CnfSink::new_var(&mut solver).positive();
//! solver.add_clause([a, b]);
//! let objective = Objective::count_of([a, b]);
//! let outcome = maxsat::minimize(
//!     &mut solver,
//!     &objective,
//!     &[],
//!     maxsat::Strategy::LinearSatUnsat,
//!     None,
//! );
//! let optimum = outcome.optimal().expect("satisfiable");
//! assert_eq!(optimum.cost, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod card;
mod clause;
mod cnf;
mod dimacs;
mod interrupt;
pub mod maxsat;
mod model;
mod pb;
pub mod proof;
mod solver;
mod stats;
mod types;

pub use card::Totalizer;
pub use cnf::{CnfSink, Formula};
pub use dimacs::{parse_dimacs, write_dimacs, ParseDimacsError};
pub use interrupt::{Interrupt, InterruptReason};
pub use maxsat::{
    minimize, minimize_lex_full, BudgetExhausted, LexOptimumResult, OptimizeOutcome, OptimumResult,
    Strategy,
};
pub use model::Model;
pub use pb::{Objective, ObjectiveCounter};
pub use proof::{check_drat, CheckOutcome, DratProof, ProofError, ProofSink, ProofStep};
pub use solver::{luby, SatResult, Solver};
pub use stats::Stats;
pub use types::{LBool, Lit, Var};
