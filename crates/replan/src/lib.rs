//! # etcs-replan — online replanning with warm-started re-solves
//!
//! A real ETCS Level 3 controller never solves one static instance: it
//! re-verifies and re-optimises continuously as trains slip schedules,
//! segments close and deadlines move. This crate is that dispatch loop
//! as a library:
//!
//! * [`ScenarioDelta`] / [`LiveScenario`] — transactional scenario
//!   patches (train delayed/added/removed, segment closed/reopened,
//!   deadline tightened/freed) over a validated base,
//! * [`parse_trace`] / [`write_trace`] — the `.delta` plain-text trace
//!   format with the scenario loader's line+column error reporting,
//! * [`ReplanSession`] — the streaming session: per [`tick`] it
//!   re-optimises the current scenario, answering from a warm core keyed
//!   by [`etcs_core::sub_fingerprints`] when a tick on the same core has
//!   already finished, falls back to a cold [`etcs_core::ScratchSearch`]
//!   (the deadline walk of [`etcs_core::optimize`], one tight-cone
//!   encoding per probed deadline) when a delta invalidates the core, and
//!   honours a per-tick wall-clock budget by degrading to the last valid
//!   plan (flagged stale) via [`etcs_sat::Interrupt`] cancellation; an
//!   interrupted search stays open for the next tick.
//!
//! Verdicts and optima per tick are bit-identical to a cold
//! [`etcs_core::optimize_incremental`] of the same patched scenario —
//! the differential suite in `tests/replan_differential.rs` proves it
//! in eager and lazy mode.
//!
//! ## Quick start
//!
//! ```
//! use etcs_replan::{parse_trace, ReplanConfig, ReplanSession, TraceOp};
//! use etcs_network::fixtures;
//!
//! let mut session = ReplanSession::new(
//!     fixtures::running_example(),
//!     ReplanConfig::default(),
//! )?;
//! let trace = parse_trace("tick\ndeadline Train 1 : arr 0:04:00\ntick\n").expect("parses");
//! let mut reports = Vec::new();
//! for op in &trace {
//!     match op {
//!         TraceOp::Delta(d) => {
//!             session.apply(d)?;
//!         }
//!         TraceOp::Tick => reports.push(session.tick()),
//!     }
//! }
//! // A deadline delta leaves the scenario core untouched: the second
//! // tick is answered from the core the first tick solved.
//! assert!(reports.iter().all(|r| r.feasible && !r.stale));
//! assert!(!reports[0].warm && reports[1].warm);
//! assert_eq!(reports[1].solver_calls, 0);
//! assert_eq!(reports[0].costs, reports[1].costs);
//! # Ok::<(), etcs_replan::DeltaError>(())
//! ```
//!
//! [`tick`]: ReplanSession::tick

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delta;
mod patch;
mod session;

pub use delta::{DeltaError, DeltaRun, LiveScenario, ScenarioDelta};
pub use patch::{parse_trace, write_trace, ParseTraceError, TraceOp};
pub use session::{ReplanConfig, ReplanSession, ReplanStats, TickReport};
