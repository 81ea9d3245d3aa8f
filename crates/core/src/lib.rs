//! # etcs-core — the paper's primary contribution
//!
//! Automatic design and verification for ETCS Level 3 (Wille, Peham,
//! Przigoda & Przigoda, DATE 2021): a SAT encoding of railway scenarios
//! over virtual subsections, and the three design tasks built on it:
//!
//! * [`verify`] — does a schedule work on a given TTD/VSS layout?
//! * [`generate`] — find a minimal set of VSS borders making it work.
//! * [`optimize`] — find layout *and* movements minimising completion time.
//!
//! Each is a one-line call of [`run`], the task driver, which takes the
//! task as a [`TaskKind`] and a [`Run`] holding an observability handle
//! and a cancellation token, both off by default. [`diagnose`] explains an
//! infeasible verdict under the same [`Run`], and [`certify`] /
//! [`certify_diagnosis`] check any answer on fresh proof-logged encodings.
//!
//! ## Quick start
//!
//! ```
//! use etcs_core::{verify, generate, EncoderConfig};
//! use etcs_network::{fixtures, VssLayout};
//!
//! let scenario = fixtures::running_example();
//! let config = EncoderConfig::default();
//!
//! // Pure-TTD operation deadlocks (the paper's Example 2) …
//! let (outcome, _) = verify(&scenario, &VssLayout::pure_ttd(), &config)?;
//! assert!(!outcome.is_feasible());
//!
//! // … but a few virtual borders fix it.
//! let (designed, _) = generate(&scenario, &config)?;
//! assert!(designed.plan().is_some());
//! # Ok::<(), etcs_network::NetworkError>(())
//! ```
//!
//! The same verification, traced and under a wall-clock deadline:
//!
//! ```
//! use std::time::Duration;
//! use etcs_core::{run, EncoderConfig, Run, TaskKind};
//! use etcs_network::{fixtures, VssLayout};
//! use etcs_obs::Obs;
//! use etcs_sat::Interrupt;
//!
//! let (obs, sink) = Obs::memory();
//! let traced = Run {
//!     obs,
//!     interrupt: Interrupt::with_deadline(Duration::from_secs(60)),
//! };
//! let task = TaskKind::Verify(VssLayout::pure_ttd());
//! let (outcome, _) = run(
//!     &fixtures::running_example(),
//!     &task,
//!     &EncoderConfig::default(),
//!     &traced,
//! )?;
//! assert!(!outcome.is_feasible());
//! assert!(sink.events().iter().any(|e| e.name == "task.verify"));
//! # Ok::<(), etcs_core::TaskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod certify;
mod decode;
mod diagnose;
mod encoder;
mod explorer;
mod fingerprint;
mod instance;
mod objectives;
mod tasks;
mod trace;
mod tradeoff;

pub use certify::{certify, certify_diagnosis, Certification, CertifiedVerdict, CertifyError};
pub use decode::{SolvedPlan, TrainPlan};
pub use diagnose::{diagnose, Diagnosis};
pub use encoder::{
    encode, encode_with, ConstraintFamilies, EncoderConfig, Encoding, EncodingStats, TaskKind,
    VarMap,
};
pub use explorer::LayoutExplorer;
pub use fingerprint::{cache_key, sub_fingerprints, Fnv2, CACHE_KEY_VERSION};
pub use instance::{ExitPolicy, Instance, TrainSpec};
pub use objectives::optimize_arrivals;
pub use tasks::{
    generate, minimize_borders, optimize, optimize_incremental, run, verify, Calls, DesignOutcome,
    Optimized, Run, ScratchSearch, Stage2, TaskError, TaskReport, VerifyOutcome, Walk,
};
pub use trace::EncodingTrace;
pub use tradeoff::{border_tradeoff, optimize_with_budget, TradeoffPoint};
