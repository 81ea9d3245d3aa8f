//! # etcs-serve — job-scheduling service over the design tasks
//!
//! Turns the five task entry points of `etcs-core` (`verify`, `generate`,
//! `optimize`, `optimize_incremental`, `diagnose`) into a long-lived,
//! concurrent job service:
//!
//! * a bounded, priority-classed [`JobQueue`] with admission control —
//!   jobs are rejected *immediately* with a structured [`RejectReason`]
//!   when the queue is full, never silently dropped or blocked;
//! * a worker-thread pool ([`Service`]) with per-job wall-clock deadlines
//!   and cooperative cancellation ([`JobTicket::cancel`]), plumbed down to
//!   the CDCL solver's [`etcs_sat::Interrupt`] poll points;
//! * a content-addressed [`ResultCache`]: repeat jobs are answered from
//!   [`etcs_core::cache_key`]-addressed payloads that are **bit-identical**
//!   to a fresh solve (wall-clock data never enters a payload);
//! * full `etcs-obs` instrumentation: `serve.enqueue`/`serve.admit`/
//!   `serve.reject` events, a `serve.job` span per execution, and
//!   cache/cancellation counters.
//!
//! The `served` binary wraps all of this in a JSONL request/response loop
//! (see the repository README, "Running as a service").
//!
//! ## Quick start
//!
//! ```
//! use etcs_serve::{JobKind, JobRequest, ServeConfig, Service};
//! use etcs_network::fixtures;
//!
//! let service = Service::new(ServeConfig::default());
//! let ticket = service
//!     .submit(JobRequest::new("job-1", JobKind::Generate, fixtures::running_example()))
//!     .expect("admitted");
//! let response = ticket.wait();
//! assert_eq!(response.outcome.status(), "done");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod history;
mod job;
mod queue;
pub mod replan;
mod service;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use history::{HistoryEvent, HistoryOp, ShardHistory};
pub use job::{
    execute, JobKind, JobOutcome, JobPayload, JobRequest, JobResponse, Priority, RejectReason,
};
pub use queue::{JobQueue, QueueStats};
pub use replan::ReplanManager;
pub use service::{JobTicket, ServeConfig, Service, TerminalStats};
