//! # etcs — automatic design and verification for ETCS Level 3
//!
//! A from-scratch Rust reproduction of *Towards Automatic Design and
//! Verification for Level 3 of the European Train Control System*
//! (Wille, Peham, Przigoda & Przigoda, DATE 2021).
//!
//! ETCS Level 3 replaces fixed trackside train detection (TTD) blocks with
//! *Virtual Subsections* (VSS). This workspace provides the paper's three
//! design tasks as a library:
//!
//! * [`verify`] — check a train schedule against a TTD/VSS layout,
//! * [`generate`] — synthesise a minimal set of VSS borders making a
//!   schedule feasible,
//! * [`optimize`] — co-design layout and train movements for the fastest
//!   possible completion,
//!
//! together with the full substrate stack: a CDCL SAT solver with MaxSAT
//! optimisation and DRAT proof logging ([`sat`]), railway network modelling
//! and discretisation ([`network`]), an independent plan validator plus a
//! fixed-block dispatcher baseline ([`sim`]), and a CNF encoding lint
//! ([`lint`]). [`certify`] and [`certify_diagnosis`] check an answer from
//! any driver on fresh, linted encodings — models against a mirrored
//! formula, UNSAT verdicts against a DRAT proof replayed by an in-repo
//! checker. For long-lived deployments, [`serve`] wraps the tasks in a
//! concurrent job service with admission control, per-job deadlines,
//! cooperative cancellation and a content-addressed result cache (the
//! `served` binary speaks JSONL);
//! [`fleet`] scales that service across processes — rendezvous-hashed
//! routing onto `served --listen` shards with cache replication, crash
//! failover and a checked consistency story.
//! The [`lazy`] module reruns all of the above as counterexample-guided
//! (CEGAR) loops that defer the pairwise train-interaction constraints
//! and refine only the violated instances.
//!
//! Every task goes through one driver: [`run`] takes the task as a
//! [`TaskKind`] and a [`Run`] holding an observability handle and a
//! cancellation token, both off by default; [`lazy::run`] takes the same
//! arguments. [`verify`], [`generate`],
//! [`optimize`] and [`optimize_incremental`] are one-line calls of [`run`];
//! [`diagnose`] takes the same [`Run`].
//!
//! ## Quick start
//!
//! ```
//! use etcs::prelude::*;
//!
//! // The paper's running example (Fig. 1): 4 TTDs, 4 trains, 5 minutes.
//! let scenario = fixtures::running_example();
//! let config = EncoderConfig::default();
//!
//! // 1. With pure TTD operation the schedule deadlocks.
//! let (outcome, _) = verify(&scenario, &VssLayout::pure_ttd(), &config)?;
//! assert!(!outcome.is_feasible());
//!
//! // 2. A single virtual border repairs it …
//! let (designed, _) = generate(&scenario, &config)?;
//! let plan = designed.plan().expect("feasible with VSS");
//!
//! // … and the independent simulator agrees the plan is operable.
//! let instance = Instance::new(&scenario)?;
//! assert!(etcs::sim::validate(&instance, plan, true).is_valid());
//! # Ok::<(), etcs::NetworkError>(())
//! ```
//!
//! The same generation, traced and then re-run lazily:
//!
//! ```
//! use etcs::obs::Obs;
//! use etcs::prelude::*;
//!
//! let scenario = fixtures::running_example();
//! let config = EncoderConfig::default();
//! let (obs, sink) = Obs::memory();
//! let traced = Run { obs, ..Run::default() };
//! let (eager, _) = run(&scenario, &TaskKind::Generate, &config, &traced)?;
//! assert!(sink.events().iter().any(|e| e.name == "task.generate"));
//!
//! let (lazy, report) =
//!     etcs::lazy::run(&scenario, &TaskKind::Generate, &config, &Run::default())?;
//! assert!(report.rounds >= 1);
//! // Same minimal border count, whichever loop found it.
//! let borders = |o: &DesignOutcome| match o {
//!     DesignOutcome::Solved { costs, .. } => Some(costs[0]),
//!     DesignOutcome::Infeasible => None,
//! };
//! assert_eq!(borders(&eager), borders(&lazy));
//! # Ok::<(), etcs::TaskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use etcs_core::{
    border_tradeoff, cache_key, certify, certify_diagnosis, diagnose, encode, generate, optimize,
    optimize_arrivals, optimize_incremental, optimize_with_budget, run, verify, Certification,
    CertifiedVerdict, CertifyError, DesignOutcome, Diagnosis, EncoderConfig, Encoding,
    EncodingStats, EncodingTrace, ExitPolicy, Instance, LayoutExplorer, Run, SolvedPlan, TaskError,
    TaskKind, TaskReport, TradeoffPoint, TrainPlan, TrainSpec, VerifyOutcome,
};
pub use etcs_network::{
    fixtures, parse_scenario, write_scenario, DiscreteNet, EdgeId, KmPerHour, Meters,
    NetworkBuilder, NetworkError, NodeId, NodeKind, ParseScenarioError, RailwayNetwork, Scenario,
    Schedule, Seconds, Station, StationId, Track, TrackId, Train, TrainId, TrainRun, Ttd, TtdId,
    VssLayout,
};

/// The SAT solving substrate (CDCL, cardinality encodings, MaxSAT).
pub mod sat {
    pub use etcs_sat::*;
}

/// Railway network modelling and the bundled case studies.
pub mod network {
    pub use etcs_network::*;
}

/// Independent plan validation and the fixed-block dispatcher baseline.
pub mod sim {
    pub use etcs_sim::*;
}

/// CNF encoding lint: structural audits over traced formulas.
pub mod lint {
    pub use etcs_lint::*;
}

/// Structured run observability: spans, events, metrics and JSONL traces.
///
/// Put an enabled [`obs::Obs`] handle in the [`Run`] passed to [`run`] (or
/// to [`lazy::run`]) to record a replayable event stream; the plain
/// entry points run with tracing off at zero cost.
pub mod obs {
    pub use etcs_obs::*;
}

/// Job-scheduling service over the design tasks: bounded priority queue,
/// worker pool with deadlines and cancellation, content-addressed result
/// cache. The `served` binary exposes it over JSONL.
pub mod serve {
    pub use etcs_serve::*;
}

/// Shard-aware distributed serve fleet: a versioned JSONL-over-TCP wire
/// protocol, rendezvous-hashed routing of jobs onto `served --listen`
/// shards with cache replication and crash failover (the `fleetd`
/// binary), and a dbcop-style consistency checker over the shards'
/// recorded cache histories (see `DESIGN.md` §16).
pub mod fleet {
    pub use etcs_fleet::*;
}

/// Seeded, deterministic scenario corpus: parameterized families (grid
/// ladders, convoy chains, branched meshes, station throats, moving-block
/// lines) scaling from fixture sizes to hundreds of trains, versioned
/// manifests, and the solve configurations `bench_corpus` sweeps (see
/// `DESIGN.md` §15).
pub mod corpus {
    pub use etcs_corpus::*;
}

/// Online replanning: streaming scenario deltas (`.delta` traces) with
/// warm-started incremental re-solves — persistent solver state keyed by
/// sub-fingerprints of the unchanged scenario core, per-tick wall-clock
/// budgets with graceful degradation to the last valid plan (see
/// `DESIGN.md` §17).
pub mod replan {
    pub use etcs_replan::*;
}

/// Counterexample-guided lazy constraint solving: CEGAR task loops that
/// defer the pairwise train-interaction constraints and refine from
/// violated instances — same verdicts and optima as the eager tasks, far
/// fewer clauses up front (see `DESIGN.md` §12).
pub mod lazy {
    pub use etcs_lazy::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use crate::{
        certify, certify_diagnosis, diagnose, fixtures, generate, optimize, optimize_arrivals,
        optimize_incremental, run, verify, Certification, CertifiedVerdict, DesignOutcome,
        Diagnosis, EncoderConfig, Instance, LayoutExplorer, NetworkBuilder, Run, Scenario,
        Schedule, TaskKind, Train, TrainRun, VerifyOutcome, VssLayout,
    };
    pub use crate::{KmPerHour, Meters, Seconds};
}
