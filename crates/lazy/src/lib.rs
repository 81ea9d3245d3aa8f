//! # etcs-lazy — counterexample-guided lazy constraint solving
//!
//! A CEGAR layer over `etcs-core`'s SAT encoding: instead of eagerly
//! emitting every pairwise train-interaction constraint — shared-segment
//! mutual exclusion, same-TTD VSS separation, no-passing sweeps, together
//! the vast majority of the clause count on dense scenarios — the relaxed
//! formula carries only the core (shape, movement, completion, task
//! goals). Candidate models are checked by a violation detector built on
//! `etcs-sim`'s validator semantics, and only the concretely violated
//! instances are encoded as blocking clauses on the same persistent
//! incremental solver.
//!
//! * **Soundness** — every refinement clause is implied by the eager
//!   encoding, so UNSAT of the relaxation (plus refinements) transfers to
//!   the full formula.
//! * **Completeness** — a violation-free model satisfies the full eager
//!   semantics by construction of the detector; final answers are
//!   bit-checked against `etcs-sim::validate`.
//! * **Termination** — each round adds at least one clause the current
//!   model falsifies, drawn from a finite instance space.
//!
//! See `DESIGN.md` §12 for the full argument, including why the
//! optimisation walk-up and the border MaxSAT stay exact under
//! refinement.
//!
//! ## Quick start
//!
//! [`run`] takes the same scenario, task, configuration and
//! [`etcs_core::Run`] as [`etcs_core::run`]; each round activates the
//! constraint families behind every violated instance it found:
//!
//! ```
//! use etcs_core::{EncoderConfig, Run, TaskKind};
//! use etcs_network::{fixtures, VssLayout};
//!
//! let scenario = fixtures::running_example();
//! let (outcome, report) = etcs_lazy::run(
//!     &scenario,
//!     &TaskKind::Verify(VssLayout::pure_ttd()),
//!     &EncoderConfig::default(),
//!     &Run::default(),
//! )?;
//! assert!(!outcome.is_feasible(), "same verdict as eager verification");
//! assert!(report.rounds >= 1);
//! # Ok::<(), etcs_core::TaskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod detect;
mod refine;
mod tasks;

pub use detect::{detect, LazyViolation};
pub use tasks::{run, LazyReport};

use etcs_core::ConstraintFamilies;
use etcs_lint::LazyProfile;

/// The `etcs-lint` allowlist matching a relaxed encoding: the families
/// `eager` defers stay *declared* as (empty) groups, which the linter
/// would otherwise flag as under-constrained. Pass the profile to
/// `audit_with_profile` / `EncodingTrace::lint_with` when linting a
/// relaxed formula.
pub fn lint_profile(eager: ConstraintFamilies) -> LazyProfile {
    let mut profile = LazyProfile::new();
    for group in eager.relaxed_groups() {
        profile = profile.allow_group(group);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_core::{encode_with, EncoderConfig, Instance, TaskKind};
    use etcs_network::fixtures;

    #[test]
    fn lint_profile_covers_exactly_the_relaxed_groups() {
        let profile = lint_profile(ConstraintFamilies::CORE_ONLY);
        assert!(profile.allows("separation"));
        assert!(profile.allows("collision"));
        assert!(!profile.allows("shape[T1]"));
        let none = lint_profile(ConstraintFamilies::ALL);
        assert!(!none.allows("separation"));
    }

    #[test]
    fn relaxed_trace_lints_clean_under_the_profile() {
        let scenario = fixtures::running_example();
        let inst = Instance::new(&scenario).expect("valid");
        let config = EncoderConfig {
            trace: true,
            ..EncoderConfig::default()
        };
        let enc = encode_with(
            &inst,
            &config,
            &TaskKind::Generate,
            ConstraintFamilies::CORE_ONLY,
        );
        let trace = enc.trace.as_ref().expect("trace enabled");
        let findings = trace.lint_with(&lint_profile(ConstraintFamilies::CORE_ONLY));
        assert!(
            findings.is_empty(),
            "relaxed encoding must lint clean with the profile: {findings:?}"
        );
    }
}
