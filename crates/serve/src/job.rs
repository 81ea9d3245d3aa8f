//! Job vocabulary of the service: requests, priorities, payloads and
//! responses — plus [`execute`], the direct (unqueued, uncached) execution
//! path every worker and every "is the cache bit-identical?" test runs
//! through.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use etcs_core::{
    cache_key, diagnose, DesignOutcome, Diagnosis, EncoderConfig, EncodingStats, Run, SolvedPlan,
    TaskError, TaskKind, TaskReport,
};
use etcs_lazy::SelectionStrategy;
use etcs_network::{Scenario, VssLayout};
use etcs_obs::Obs;
use etcs_sat::{Interrupt, Stats};

/// Which of the five task entry points a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// [`etcs_core::verify`] on the request's layout.
    Verify,
    /// [`etcs_core::generate`].
    Generate,
    /// [`etcs_core::optimize`] (from-scratch loop).
    Optimize,
    /// [`etcs_core::optimize_incremental`] (persistent solver).
    OptimizeIncremental,
    /// [`etcs_core::diagnose`] on the request's layout.
    Diagnose,
}

impl JobKind {
    /// All five kinds, in a stable order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Verify,
        JobKind::Generate,
        JobKind::Optimize,
        JobKind::OptimizeIncremental,
        JobKind::Diagnose,
    ];

    /// The wire name (`verify`, `generate`, `optimize`,
    /// `optimize_incremental`, `diagnose`).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Verify => "verify",
            JobKind::Generate => "generate",
            JobKind::Optimize => "optimize",
            JobKind::OptimizeIncremental => "optimize_incremental",
            JobKind::Diagnose => "diagnose",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission priority class. Workers always drain higher classes first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Interactive / latency-sensitive jobs.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Bulk / best-effort jobs.
    Low,
}

impl Priority {
    /// Number of priority classes.
    pub const CLASSES: usize = 3;

    /// Queue index: 0 (high) to 2 (low).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The wire name (`high`, `normal`, `low`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        [Priority::High, Priority::Normal, Priority::Low]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One unit of work for the service.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: String,
    /// Which task to run.
    pub kind: JobKind,
    /// The scenario to run it on.
    pub scenario: Scenario,
    /// The layout for [`JobKind::Verify`] / [`JobKind::Diagnose`]
    /// (ignored by the design tasks, which choose their own).
    pub layout: VssLayout,
    /// Admission class.
    pub priority: Priority,
    /// Per-job wall-clock budget, armed when a worker picks the job up
    /// (queueing time does not count). `None` = the service default.
    pub deadline: Option<Duration>,
    /// Run the task through the `etcs-lazy` CEGAR loop with the given
    /// selection strategy instead of the eager encoder. Verdicts and
    /// optima are identical (compare [`JobPayload::verdict_digest`]); the
    /// payload's statistics and witness plan may differ, so lazy and eager
    /// runs cache under different keys. Ignored by [`JobKind::Diagnose`],
    /// which has no lazy variant (its MUS extraction needs the full eager
    /// formula).
    pub lazy: Option<SelectionStrategy>,
}

impl JobRequest {
    /// A normal-priority request with a pure-TTD layout and no deadline.
    pub fn new(id: impl Into<String>, kind: JobKind, scenario: Scenario) -> Self {
        JobRequest {
            id: id.into(),
            kind,
            scenario,
            layout: VssLayout::pure_ttd(),
            priority: Priority::Normal,
            deadline: None,
            lazy: None,
        }
    }

    /// Sets the layout (for verify/diagnose jobs).
    pub fn with_layout(mut self, layout: VssLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the admission class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-job deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Routes the job through the lazy CEGAR loop with the given strategy.
    pub fn with_lazy(mut self, strategy: SelectionStrategy) -> Self {
        self.lazy = Some(strategy);
        self
    }

    /// The encoder-level task this request maps to.
    pub fn task_kind(&self) -> TaskKind {
        match self.kind {
            JobKind::Verify => TaskKind::Verify(self.layout.clone()),
            JobKind::Generate => TaskKind::Generate,
            JobKind::Optimize => TaskKind::Optimize,
            JobKind::OptimizeIncremental => TaskKind::OptimizeIncremental,
            JobKind::Diagnose => TaskKind::Diagnose(self.layout.clone()),
        }
    }

    /// The content-addressed cache key of this request under `config`
    /// (see [`etcs_core::cache_key`] for the canonicalisation contract).
    ///
    /// Lazy jobs mix the strategy into the key: their payloads carry
    /// different statistics (and possibly different witness plans) than
    /// eager runs of the same request, and the cache's bit-identical
    /// guarantee must keep holding per key. A diagnose job runs eagerly
    /// whatever its `lazy` field says, so it keys as the eager job.
    pub fn cache_key(&self, config: &EncoderConfig) -> u128 {
        let base = cache_key(&self.scenario, &self.task_kind(), config);
        match self.lazy.filter(|_| self.kind != JobKind::Diagnose) {
            None => base,
            Some(strategy) => {
                let mut h = Fnv2::new();
                h.str("etcs-lazy-job-v1");
                h.u64(base as u64);
                h.u64((base >> 64) as u64);
                h.str(strategy.name());
                h.finish()
            }
        }
    }
}

/// The deterministic result of a completed job — everything a caller can
/// compare bit-for-bit between a cache hit and a cold solve. Wall-clock
/// data lives on [`JobResponse`], never here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPayload {
    /// The task that produced this payload.
    pub kind: JobKind,
    /// Verification/design verdict (`true` for a feasible diagnosis).
    pub feasible: bool,
    /// Proven optimal objective costs, lexicographic (empty for
    /// verify/diagnose).
    pub costs: Vec<u64>,
    /// The witness/solved plan, if one exists.
    pub plan: Option<SolvedPlan>,
    /// The diagnosis, for [`JobKind::Diagnose`] jobs.
    pub diagnosis: Option<Diagnosis>,
    /// Encoding size statistics.
    pub stats: EncodingStats,
    /// Solver invocations the task made.
    pub solver_calls: usize,
    /// Accumulated CDCL search statistics.
    pub search: Stats,
}

impl JobPayload {
    /// A 128-bit digest over the *entire* payload, including every train's
    /// full step-by-step positions. Two payloads are equal iff their wire
    /// JSON **and** this digest agree, so responses can stay compact while
    /// the bit-identical guarantee still covers the full plan.
    pub fn digest(&self) -> u128 {
        let mut h = Fnv2::new();
        h.str(self.kind.name());
        h.u64(u64::from(self.feasible));
        h.u64(self.costs.len() as u64);
        for &c in &self.costs {
            h.u64(c);
        }
        match &self.plan {
            None => h.u64(0),
            Some(plan) => {
                h.u64(1);
                h.u64(plan.layout.num_borders() as u64);
                for b in plan.layout.borders() {
                    h.u64(b.index() as u64);
                }
                h.u64(plan.plans.len() as u64);
                for train in &plan.plans {
                    h.str(&train.name);
                    h.u64(train.positions.len() as u64);
                    for step in &train.positions {
                        h.u64(step.len() as u64);
                        for e in step {
                            h.u64(e.index() as u64);
                        }
                    }
                }
            }
        }
        match &self.diagnosis {
            None => h.u64(0),
            Some(Diagnosis::Feasible) => h.u64(1),
            Some(Diagnosis::Structural) => h.u64(2),
            Some(Diagnosis::Conflict { trains, names }) => {
                h.u64(3);
                h.u64(trains.len() as u64);
                for t in trains {
                    h.u64(t.index() as u64);
                }
                for n in names {
                    h.str(n);
                }
            }
        }
        for v in [
            self.stats.border_vars,
            self.stats.occupies_vars,
            self.stats.nominal_vars,
            self.stats.solver_vars,
            self.stats.clauses,
            self.solver_calls,
        ] {
            h.u64(v as u64);
        }
        for v in [
            self.search.decisions,
            self.search.propagations,
            self.search.conflicts,
            self.search.restarts,
            self.search.learnt_literals,
            self.search.deleted_clauses,
            self.search.solve_calls,
            self.search.reused_learnts,
        ] {
            h.u64(v);
        }
        h.finish()
    }

    /// A 128-bit digest over the *verdict* only — kind, feasibility and
    /// the proven optimal costs. This is the part of a payload that is
    /// guaranteed identical between eager and lazy runs of the same
    /// request (witness plans and solver statistics legitimately differ),
    /// so it is what `ci/check.sh` compares across the `--lazy` boundary.
    pub fn verdict_digest(&self) -> u128 {
        verdict_digest_of(self.kind, self.feasible, &self.costs)
    }
}

/// The verdict digest over a bare (kind, feasible, costs) triple — the
/// same construction as [`JobPayload::verdict_digest`], callable without
/// a full payload. The replan surface uses it to stamp each streamed tick
/// with a digest directly comparable to the `optimize_incremental` job
/// for the same patched scenario.
pub(crate) fn verdict_digest_of(kind: JobKind, feasible: bool, costs: &[u64]) -> u128 {
    let mut h = Fnv2::new();
    h.str("etcs-verdict-v1");
    h.str(kind.name());
    h.u64(u64::from(feasible));
    h.u64(costs.len() as u64);
    for &c in costs {
        h.u64(c);
    }
    h.finish()
}

/// Two-lane FNV-1a-64 with an avalanche finish — the same construction as
/// `etcs_core::cache_key`, here hashing *outputs* instead of inputs.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Self {
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(Self::PRIME);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for &byte in s.as_bytes() {
            self.byte(byte);
        }
    }

    fn finish(self) -> u128 {
        fn avalanche(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let hi = avalanche(self.a ^ self.b.rotate_left(32));
        let lo = avalanche(self.b ^ self.a.rotate_left(17));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Why a job was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue was at capacity.
    QueueFull {
        /// The configured bound.
        capacity: usize,
        /// Depth observed at rejection time.
        depth: usize,
    },
    /// The service is shutting down and accepts no new jobs.
    ShuttingDown,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity, depth } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            RejectReason::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The task ran to completion. Boxed: a payload (plan, statistics) is
    /// an order of magnitude larger than the other variants.
    Done(Box<JobPayload>),
    /// Admission control refused the job.
    Rejected(RejectReason),
    /// The job's [`Interrupt`] was triggered (by [`crate::JobTicket::cancel`]
    /// or a shared token).
    Cancelled,
    /// The per-job wall-clock deadline expired mid-solve.
    DeadlineExceeded,
    /// The scenario was malformed ([`etcs_network::NetworkError`] text).
    Invalid(String),
    /// The task panicked: a bug in this program, not in the request. Carries
    /// the panic message. Never cached.
    Failed(String),
}

impl JobOutcome {
    /// Stable wire name of the state (`done`, `rejected`, `cancelled`,
    /// `deadline_exceeded`, `invalid`, `failed`).
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Done(_) => "done",
            JobOutcome::Rejected(_) => "rejected",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::DeadlineExceeded => "deadline_exceeded",
            JobOutcome::Invalid(_) => "invalid",
            JobOutcome::Failed(_) => "failed",
        }
    }

    /// The payload, for completed jobs.
    pub fn payload(&self) -> Option<&JobPayload> {
        match self {
            JobOutcome::Done(p) => Some(p),
            _ => None,
        }
    }
}

/// What the service hands back per job.
#[derive(Clone, Debug)]
pub struct JobResponse {
    /// The request's `id`, echoed.
    pub id: String,
    /// Terminal state (payload, rejection, cancellation, …).
    pub outcome: JobOutcome,
    /// `true` when the payload came from the result cache.
    pub cache_hit: bool,
    /// Wall-clock time from worker pickup (or rejection) to completion.
    pub wall: Duration,
}

/// Runs a request directly — no queue, no cache — and maps the result into
/// a [`JobOutcome`]. This is the exact function the worker pool executes on
/// cache misses, exposed so callers (and the bit-identical cache tests) can
/// produce reference payloads.
///
/// A panic inside the task is caught here and becomes
/// [`JobOutcome::Failed`], so neither a worker thread nor a direct caller
/// unwinds.
pub fn execute(
    request: &JobRequest,
    config: &EncoderConfig,
    interrupt: &Interrupt,
    obs: &Obs,
) -> JobOutcome {
    // Unwind safe in fact: the task's encoding and solver are dropped by
    // the unwind, and `Obs` and `Interrupt` hold no lock across the task,
    // so nothing half-updated is read afterwards.
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_task(request, config, interrupt, obs)
    }))
    .unwrap_or_else(|panic| JobOutcome::Failed(panic_message(&*panic)))
}

/// The message a `panic!` carried (its payload is a `&str` or a `String`).
pub(crate) fn panic_message(panic: &(dyn Any + Send)) -> String {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(message), _) => (*message).to_owned(),
        (_, Some(message)) => message.clone(),
        _ => "a panic without a message".to_owned(),
    }
}

fn run_task(
    request: &JobRequest,
    config: &EncoderConfig,
    interrupt: &Interrupt,
    obs: &Obs,
) -> JobOutcome {
    let run = Run {
        obs: obs.clone(),
        interrupt: interrupt.clone(),
    };
    let result = match (request.kind, request.lazy) {
        // Diagnosis has no lazy form: its MUS extraction needs the full
        // eager encoding.
        (JobKind::Diagnose, _) => {
            diagnose(&request.scenario, &request.layout, config, &run).map(diagnosis_payload)
        }
        (_, Some(strategy)) => etcs_lazy::run(
            &request.scenario,
            &request.task_kind(),
            config,
            &run,
            strategy,
        )
        .map(|(outcome, lr)| design_payload(request.kind, outcome, lr.report)),
        (_, None) => etcs_core::run(&request.scenario, &request.task_kind(), config, &run)
            .map(|(outcome, report)| design_payload(request.kind, outcome, report)),
    };
    match result {
        Ok(payload) => JobOutcome::Done(Box::new(payload)),
        Err(TaskError::Cancelled) => JobOutcome::Cancelled,
        Err(TaskError::DeadlineExceeded) => JobOutcome::DeadlineExceeded,
        Err(TaskError::Network(e)) => JobOutcome::Invalid(e.to_string()),
    }
}

/// The payload of a finished diagnosis.
fn diagnosis_payload((diagnosis, report): (Diagnosis, TaskReport)) -> JobPayload {
    JobPayload {
        kind: JobKind::Diagnose,
        feasible: diagnosis == Diagnosis::Feasible,
        costs: Vec::new(),
        plan: None,
        diagnosis: Some(diagnosis),
        stats: report.stats,
        solver_calls: report.solver_calls,
        search: report.search,
    }
}

/// The payload of a finished verify, generate or optimise task.
fn design_payload(kind: JobKind, outcome: DesignOutcome, report: TaskReport) -> JobPayload {
    let (feasible, costs, plan) = match outcome {
        DesignOutcome::Solved { plan, costs } => (true, costs, Some(plan)),
        DesignOutcome::Infeasible => (false, Vec::new(), None),
    };
    JobPayload {
        kind,
        feasible,
        costs,
        plan,
        diagnosis: None,
        stats: report.stats,
        solver_calls: report.solver_calls,
        search: report.search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::fixtures;

    #[test]
    fn kind_and_priority_wire_names_round_trip() {
        for kind in JobKind::ALL {
            assert_eq!(JobKind::parse(kind.name()), Some(kind));
        }
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        assert_eq!(JobKind::parse("bogus"), None);
        assert_eq!(Priority::parse("urgent"), None);
    }

    #[test]
    fn execute_verify_matches_library_call() {
        let scenario = fixtures::running_example();
        let config = EncoderConfig::default();
        let request = JobRequest::new("v", JobKind::Verify, scenario.clone());
        let outcome = execute(&request, &config, &Interrupt::none(), &Obs::disabled());
        let payload = outcome.payload().expect("runs to completion");
        let (direct, _) =
            etcs_core::verify(&scenario, &VssLayout::pure_ttd(), &config).expect("valid");
        assert_eq!(payload.feasible, direct.is_feasible());
        assert_eq!(payload.digest(), payload.clone().digest(), "digest is pure");
    }

    #[test]
    fn lazy_jobs_cache_separately_but_agree_on_the_verdict() {
        let scenario = fixtures::running_example();
        let config = EncoderConfig::default();
        let eager = JobRequest::new("e", JobKind::OptimizeIncremental, scenario.clone());
        let lazy = JobRequest::new("l", JobKind::OptimizeIncremental, scenario)
            .with_lazy(SelectionStrategy::AllViolated);
        assert_ne!(
            eager.cache_key(&config),
            lazy.cache_key(&config),
            "lazy payloads differ bit-wise, so they must not share a cache line"
        );
        let a = execute(&eager, &config, &Interrupt::none(), &Obs::disabled());
        let b = execute(&lazy, &config, &Interrupt::none(), &Obs::disabled());
        let (a, b) = (a.payload().expect("solves"), b.payload().expect("solves"));
        assert_eq!(a.costs, b.costs, "bit-identical optima");
        assert_eq!(
            a.verdict_digest(),
            b.verdict_digest(),
            "the verdict digest is the eager/lazy-stable slice of a payload"
        );
    }

    #[test]
    fn lazy_strategies_key_separately() {
        let scenario = fixtures::simple_layout();
        let config = EncoderConfig::default();
        let mut keys: Vec<u128> = SelectionStrategy::ALL
            .into_iter()
            .map(|s| {
                JobRequest::new("k", JobKind::Generate, scenario.clone())
                    .with_lazy(s)
                    .cache_key(&config)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), SelectionStrategy::ALL.len());
    }

    #[test]
    fn lazy_keys_only_kinds_with_a_lazy_form() {
        let scenario = fixtures::running_example();
        let config = EncoderConfig::default();
        let key = |kind, lazy: Option<SelectionStrategy>| {
            let mut request = JobRequest::new("k", kind, scenario.clone());
            request.lazy = lazy;
            request.cache_key(&config)
        };
        let lazy = Some(SelectionStrategy::AllViolated);
        assert_eq!(
            key(JobKind::Diagnose, None),
            key(JobKind::Diagnose, lazy),
            "diagnosis ignores `lazy`, so both requests address one cache line"
        );
        assert_ne!(key(JobKind::Verify, None), key(JobKind::Verify, lazy));
    }

    #[test]
    fn diagnose_payload_carries_its_report() {
        let scenario = fixtures::running_example();
        let config = EncoderConfig::default();
        let request = JobRequest::new("d", JobKind::Diagnose, scenario.clone());
        let outcome = execute(&request, &config, &Interrupt::none(), &Obs::disabled());
        let payload = outcome.payload().expect("runs to completion");
        let (diagnosis, report) =
            diagnose(&scenario, &VssLayout::pure_ttd(), &config, &Run::default()).expect("valid");
        assert_eq!(payload.diagnosis, Some(diagnosis));
        assert_eq!(payload.stats, report.stats);
        assert_eq!(payload.solver_calls, report.solver_calls);
        assert_eq!(payload.search, report.search);
        assert!(payload.stats.clauses > 0 && payload.solver_calls > 0);
    }

    #[test]
    fn digests_differ_between_kinds() {
        let scenario = fixtures::simple_layout();
        let config = EncoderConfig::default();
        let a = execute(
            &JobRequest::new("a", JobKind::Generate, scenario.clone()),
            &config,
            &Interrupt::none(),
            &Obs::disabled(),
        );
        let b = execute(
            &JobRequest::new("b", JobKind::Verify, scenario),
            &config,
            &Interrupt::none(),
            &Obs::disabled(),
        );
        let (a, b) = (a.payload().unwrap().digest(), b.payload().unwrap().digest());
        assert_ne!(a, b);
    }
}
