//! The job service: bounded admission, a worker-thread pool with per-job
//! deadlines and cooperative cancellation, and a shared result cache with
//! single-flight duplicate suppression (concurrent jobs with the same
//! cache key trigger exactly one solve — and the workers that popped the
//! duplicates park them on the leader's flight and go straight back to the
//! queue, so duplicate-heavy mixes never serialise the pool).
//!
//! Lifecycle: [`Service::new`] spawns the workers; [`Service::submit`]
//! runs admission control and returns a [`JobTicket`] (or an immediate
//! rejection); each ticket can [`JobTicket::cancel`] its job at any point
//! and [`JobTicket::wait`] for the response. Dropping the service closes
//! the queue, drains it, and joins every worker.
//!
//! Observability vocabulary (all through `etcs-obs`):
//! `serve.enqueue` / `serve.admit` / `serve.reject` events at admission,
//! one `serve.job` span per executed job (fields: `job`, `kind`,
//! `priority`, `worker`, closing with `status` and `cache`), and the
//! counters `serve.jobs`, `serve.cache.hits`, `serve.cache.misses`,
//! `serve.cancelled`, `serve.deadline_exceeded`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etcs_core::EncoderConfig;
use etcs_obs::{Obs, Span};
use etcs_sat::{Interrupt, InterruptReason};

use crate::cache::{CacheStats, ResultCache};
use crate::history::{HistoryEvent, HistoryLog, HistoryOp};
use crate::job::{execute, JobOutcome, JobPayload, JobRequest, JobResponse};
use crate::queue::{JobQueue, QueueStats};

/// Tunables for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum jobs waiting for a worker before admission control rejects.
    pub queue_capacity: usize,
    /// Result-cache entries (`0` disables caching entirely).
    pub cache_capacity: usize,
    /// Encoder configuration shared by every job (part of the cache key).
    pub encoder: EncoderConfig,
    /// Record a per-fingerprint history of cache put/hit events (see
    /// [`ShardHistory`](crate::ShardHistory)) for the fleet's consistency
    /// checker. Off by default; `served --listen` turns it on.
    pub record_history: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            encoder: EncoderConfig::default(),
            record_history: false,
        }
    }
}

/// Terminal-state counters: how every popped job ended. (Rejections never
/// reach a worker and are counted by [`QueueStats::rejected`] instead.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TerminalStats {
    /// Jobs that ran to completion (cold or from the cache).
    pub done: u64,
    /// Jobs cancelled by their ticket or a shared token.
    pub cancelled: u64,
    /// Jobs whose wall-clock deadline expired.
    pub deadline_exceeded: u64,
    /// Jobs with malformed scenarios.
    pub invalid: u64,
    /// Jobs whose task panicked ([`JobOutcome::Failed`]).
    pub failed: u64,
}

#[derive(Default)]
struct TerminalCounters {
    done: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    invalid: AtomicU64,
    failed: AtomicU64,
}

impl TerminalCounters {
    fn bump(&self, outcome: &JobOutcome) {
        match outcome {
            JobOutcome::Done(_) => &self.done,
            JobOutcome::Cancelled => &self.cancelled,
            JobOutcome::DeadlineExceeded => &self.deadline_exceeded,
            JobOutcome::Invalid(_) => &self.invalid,
            JobOutcome::Failed(_) => &self.failed,
            // Rejections resolve at admission, before any worker pops them.
            JobOutcome::Rejected(_) => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TerminalStats {
        TerminalStats {
            done: self.done.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// One-shot mailbox a worker fills with the finished response.
struct Slot {
    result: Mutex<Option<JobResponse>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, response: JobResponse) {
        *self.result.lock().expect("slot lock") = Some(response);
        self.ready.notify_all();
    }

    fn wait(&self) -> JobResponse {
        let mut guard = self.result.lock().expect("slot lock");
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = self.ready.wait(guard).expect("slot lock");
        }
    }
}

struct QueuedJob {
    request: JobRequest,
    interrupt: Interrupt,
    slot: Arc<Slot>,
}

/// The result cache plus its single-flight registry: the first worker to
/// miss on a key becomes that key's *leader*; jobs hitting the same key
/// while the leader is still solving are handed to it as [`Waiter`]s and
/// answered from its published result instead of repeating a multi-second
/// solve — while the worker that popped them goes straight back to the
/// queue for independent work.
struct CacheLayer {
    results: Mutex<ResultCache>,
    pending: Mutex<HashMap<u128, Arc<Inflight>>>,
    /// The fleet consistency checker's raw material (present only when
    /// [`ServeConfig::record_history`] is on). Events are recorded *while
    /// holding the `results` lock*, so the recorded order is a
    /// linearisation of the cache's actual put/hit order: a hit can never
    /// be sequenced before the put that explains it.
    history: Option<Mutex<HistoryLog>>,
}

impl CacheLayer {
    /// Cache probe, recording a history hit when one is served.
    fn get(&self, key: u128) -> Option<JobPayload> {
        let mut results = self.results.lock().expect("cache lock");
        let payload = results.get(key);
        if let (Some(p), Some(history)) = (&payload, &self.history) {
            history
                .lock()
                .expect("history lock")
                .record(HistoryOp::Hit, key, p.digest());
        }
        payload
    }

    /// Cache publish, recording a history put.
    fn put(&self, key: u128, payload: &JobPayload) {
        let mut results = self.results.lock().expect("cache lock");
        results.insert(key, payload.clone());
        if let Some(history) = &self.history {
            history
                .lock()
                .expect("history lock")
                .record(HistoryOp::Put, key, payload.digest());
        }
    }

    /// Records a hit that was served from a leader's in-memory copy after
    /// eviction raced the entry out of the cache. Program order still
    /// guarantees the leader's put was recorded first.
    fn record_hit(&self, key: u128, payload: &JobPayload) {
        if let Some(history) = &self.history {
            history
                .lock()
                .expect("history lock")
                .record(HistoryOp::Hit, key, payload.digest());
        }
    }
}

/// One in-flight solve and the jobs parked on it. The registry entry lives
/// in [`CacheLayer::pending`] for exactly as long as the leader is solving;
/// registration and removal both happen under the pending lock, so a waiter
/// can never be orphaned on a finished flight.
struct Inflight {
    waiters: Mutex<Vec<Waiter>>,
}

/// Everything needed to finish a parked job on the leader's thread: the
/// popping worker keeps none of it and is immediately free for other work.
/// This is what fixes the pool's flat scaling on duplicate-heavy job mixes
/// — the old design blocked the popping worker until the leader finished,
/// collapsing N workers onto one effective solve stream.
struct Waiter {
    request: JobRequest,
    interrupt: Interrupt,
    slot: Arc<Slot>,
    span: Span,
    started: Instant,
}

/// Handle to an admitted job.
#[derive(Clone)]
pub struct JobTicket {
    id: String,
    interrupt: Interrupt,
    slot: Arc<Slot>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket").field("id", &self.id).finish()
    }
}

impl JobTicket {
    /// The request id this ticket tracks.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Requests cooperative cancellation. Takes effect at the solver's
    /// next poll point; a job still in the queue resolves to `Cancelled`
    /// without ever running.
    pub fn cancel(&self) {
        self.interrupt.trigger();
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(self) -> JobResponse {
        self.slot.wait()
    }
}

/// A long-lived, concurrent job service over the five design tasks.
pub struct Service {
    queue: Arc<JobQueue<QueuedJob>>,
    cache: Option<Arc<CacheLayer>>,
    workers: Vec<JoinHandle<()>>,
    terminals: Arc<TerminalCounters>,
    obs: Obs,
    config: ServeConfig,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.config.workers)
            .field("queue", &self.queue.stats())
            .finish()
    }
}

impl Service {
    /// Starts a service with no observability.
    pub fn new(config: ServeConfig) -> Self {
        Self::with_obs(config, Obs::disabled())
    }

    /// Starts a service emitting spans, events and counters through `obs`.
    pub fn with_obs(config: ServeConfig, obs: Obs) -> Self {
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(CacheLayer {
                results: Mutex::new(ResultCache::new(config.cache_capacity)),
                pending: Mutex::new(HashMap::new()),
                history: config.record_history.then(Mutex::default),
            })
        });
        let terminals = Arc::new(TerminalCounters::default());
        let workers = (0..config.workers.max(1))
            .map(|worker_id| {
                let queue = Arc::clone(&queue);
                let cache = cache.clone();
                let terminals = Arc::clone(&terminals);
                let obs = obs.clone();
                let config = config.clone();
                std::thread::spawn(move || {
                    worker_loop(worker_id, &queue, cache, &terminals, &config, &obs)
                })
            })
            .collect();
        Service {
            queue,
            cache,
            workers,
            terminals,
            obs,
            config,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Offers a job to admission control. On admission returns a
    /// [`JobTicket`]; on rejection returns a complete (terminal) response
    /// immediately.
    pub fn submit(&self, request: JobRequest) -> Result<JobTicket, JobResponse> {
        self.obs.event(
            "serve.enqueue",
            &[
                ("job", request.id.clone().into()),
                ("kind", request.kind.name().into()),
                ("priority", request.priority.name().into()),
            ],
        );
        let interrupt = Interrupt::new();
        let slot = Slot::new();
        let queued = QueuedJob {
            request: request.clone(),
            interrupt: interrupt.clone(),
            slot: Arc::clone(&slot),
        };
        match self.queue.push(request.priority, queued) {
            Ok(()) => {
                self.obs.event(
                    "serve.admit",
                    &[
                        ("job", request.id.clone().into()),
                        ("depth", (self.queue.stats().depth as u64).into()),
                    ],
                );
                Ok(JobTicket {
                    id: request.id,
                    interrupt,
                    slot,
                })
            }
            Err(reason) => {
                self.obs.event(
                    "serve.reject",
                    &[
                        ("job", request.id.clone().into()),
                        ("reason", reason.to_string().into()),
                    ],
                );
                self.obs.counter_add("serve.rejected", 1);
                Err(JobResponse {
                    id: request.id,
                    outcome: JobOutcome::Rejected(reason),
                    cache_hit: false,
                    wall: Duration::ZERO,
                })
            }
        }
    }

    /// Submits a whole batch and waits for every job, preserving input
    /// order. Rejected jobs appear as terminal responses in place.
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Vec<JobResponse> {
        let tickets: Vec<Result<JobTicket, JobResponse>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(response) => response,
            })
            .collect()
    }

    /// Queue backpressure counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Result-cache counters (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
            .as_ref()
            .map(|c| c.results.lock().expect("cache lock").stats())
    }

    /// Terminal-state counters over every popped job so far.
    pub fn terminal_stats(&self) -> TerminalStats {
        self.terminals.snapshot()
    }

    /// Stores a payload under a caller-supplied fingerprint — the fleet's
    /// cache-replication path (a `put` frame). The put is recorded in the
    /// history like any local publish. Returns `false` when caching is
    /// disabled.
    pub fn cache_insert(&self, key: u128, payload: JobPayload) -> bool {
        match &self.cache {
            Some(layer) => {
                layer.put(key, &payload);
                true
            }
            None => false,
        }
    }

    /// Snapshot of the recorded cache history, in `seq` order (empty when
    /// [`ServeConfig::record_history`] is off or caching is disabled).
    pub fn history(&self) -> Vec<HistoryEvent> {
        self.cache
            .as_ref()
            .and_then(|c| c.history.as_ref())
            .map(|h| h.lock().expect("history lock").snapshot())
            .unwrap_or_default()
    }

    /// Closes admission, drains the queue, joins every worker and flushes
    /// the metrics once. Called automatically on drop; explicit calls are
    /// idempotent.
    pub fn shutdown(&mut self) {
        // A service starts with at least one worker and only this drains
        // them, so no workers means it already shut down and flushed.
        if self.workers.is_empty() {
            return;
        }
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.obs.flush_metrics();
        self.obs.flush();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    worker_id: usize,
    queue: &JobQueue<QueuedJob>,
    cache: Option<Arc<CacheLayer>>,
    terminals: &TerminalCounters,
    config: &ServeConfig,
    obs: &Obs,
) {
    while let Some(job) = queue.pop() {
        let started = Instant::now();
        let QueuedJob {
            request,
            interrupt,
            slot,
        } = job;
        let span = obs.span_with(
            "serve.job",
            &[
                ("job", request.id.clone().into()),
                ("kind", request.kind.name().into()),
                ("priority", request.priority.name().into()),
                ("worker", (worker_id as u64).into()),
            ],
        );
        if interrupt.is_triggered() {
            // Cancelled while still queued: never touch solver or cache.
            finish_job(
                obs,
                terminals,
                span,
                JobOutcome::Cancelled,
                false,
                started,
                &slot,
                request.id,
            );
            continue;
        }
        // The deadline clock starts here: queueing time is free, riding on
        // another worker's in-flight solve of the same key is not.
        if let Some(deadline) = request.deadline {
            interrupt.arm_deadline(deadline);
        }
        match &cache {
            None => {
                let outcome = execute(&request, &config.encoder, &interrupt, obs);
                finish_job(
                    obs, terminals, span, outcome, false, started, &slot, request.id,
                );
            }
            Some(layer) => {
                let job = Waiter {
                    request,
                    interrupt,
                    slot,
                    span,
                    started,
                };
                single_flight(layer, terminals, &config.encoder, obs, job);
            }
        }
    }
}

/// Closes the books on one job, wherever it was resolved: the `serve.jobs`
/// counter, the terminal-state counters, the `serve.job` span and the
/// caller's mailbox. Every popped job goes through this exactly once.
#[allow(clippy::too_many_arguments)]
fn finish_job(
    obs: &Obs,
    terminals: &TerminalCounters,
    span: Span,
    outcome: JobOutcome,
    cache_hit: bool,
    started: Instant,
    slot: &Slot,
    id: String,
) {
    obs.counter_add("serve.jobs", 1);
    terminals.bump(&outcome);
    match outcome {
        JobOutcome::Cancelled => obs.counter_add("serve.cancelled", 1),
        JobOutcome::DeadlineExceeded => obs.counter_add("serve.deadline_exceeded", 1),
        _ => {}
    }
    span.close_with(&[
        ("status", outcome.status().into()),
        ("cache", if cache_hit { "hit" } else { "miss" }.into()),
    ]);
    slot.fill(JobResponse {
        id,
        outcome,
        cache_hit,
        wall: started.elapsed(),
    });
}

/// Cache lookup with duplicate suppression. Exactly one worker solves a
/// given key at a time; every other job hitting that key is parked on the
/// leader's flight — its worker returns to the queue immediately — and is
/// answered from the published result (a hit, bit-identical by
/// construction). If the leader ends without a payload (cancelled,
/// deadline, invalid, failed), the first waiter whose own token has not
/// fired is promoted to re-run the solve on the leader's thread rather than
/// inheriting the failure.
///
/// The cache is probed *under the pending lock*, and a leader publishes
/// its result before releasing its key — so between "no leader running"
/// and "not in the cache" no completed solve can slip through, and the
/// hit/miss counters are exact: one miss per executed solve, one hit per
/// job answered from a stored result.
fn single_flight(
    layer: &CacheLayer,
    terminals: &TerminalCounters,
    encoder: &EncoderConfig,
    obs: &Obs,
    job: Waiter,
) {
    let key = job.request.cache_key(encoder);
    {
        let mut pending = layer.pending.lock().expect("pending lock");
        if let Some(flight) = pending.get(&key) {
            // Park on the running leader; this worker is free again.
            flight.waiters.lock().expect("waiter lock").push(job);
            return;
        }
        if let Some(payload) = layer.get(key) {
            drop(pending);
            obs.counter_add("serve.cache.hits", 1);
            finish_job(
                obs,
                terminals,
                job.span,
                JobOutcome::Done(Box::new(payload)),
                true,
                job.started,
                &job.slot,
                job.request.id,
            );
            return;
        }
        pending.insert(
            key,
            Arc::new(Inflight {
                waiters: Mutex::new(Vec::new()),
            }),
        );
    }
    lead(layer, terminals, key, encoder, obs, job);
}

/// Runs the in-flight solve for `key` as its leader, publishes the result,
/// finishes the leader's own job, then drains every parked waiter —
/// backfilling them as cache hits, resolving fired tokens to their own
/// interrupt outcome, and promoting a live waiter to a fresh leader when
/// the solve ended without a payload.
fn lead(
    layer: &CacheLayer,
    terminals: &TerminalCounters,
    key: u128,
    encoder: &EncoderConfig,
    obs: &Obs,
    job: Waiter,
) {
    let mut leader = job;
    loop {
        obs.counter_add("serve.cache.misses", 1);
        let outcome = execute(&leader.request, encoder, &leader.interrupt, obs);
        let payload = match &outcome {
            JobOutcome::Done(p) => {
                let payload = (**p).clone();
                layer.put(key, &payload);
                Some(payload)
            }
            _ => None,
        };
        finish_job(
            obs,
            terminals,
            leader.span,
            outcome,
            false,
            leader.started,
            &leader.slot,
            leader.request.id,
        );

        // Drain the flight: promotion keeps the key registered (late
        // arrivals keep parking on it); completion removes it atomically
        // with taking the waiter list, so nobody can park on a dead flight.
        let mut promoted = None;
        let drained = {
            let mut pending = layer.pending.lock().expect("pending lock");
            let flight = pending.get(&key).expect("leader owns the key");
            let mut waiters = flight.waiters.lock().expect("waiter lock");
            if payload.is_none() {
                if let Some(pos) = waiters.iter().position(|w| !w.interrupt.is_triggered()) {
                    promoted = Some(waiters.remove(pos));
                }
            }
            if promoted.is_none() {
                let drained = std::mem::take(&mut *waiters);
                drop(waiters);
                pending.remove(&key);
                drained
            } else {
                Vec::new()
            }
        };
        for w in drained {
            let (outcome, hit) = match w.interrupt.probe() {
                Some(InterruptReason::DeadlineExceeded) => (JobOutcome::DeadlineExceeded, false),
                Some(_) => (JobOutcome::Cancelled, false),
                None => match &payload {
                    Some(p) => {
                        obs.counter_add("serve.cache.hits", 1);
                        // Answer through the cache so its hit counters and
                        // recency stay exact; fall back to the leader's
                        // copy if eviction already raced the entry out.
                        let stored = layer.get(key);
                        if stored.is_none() {
                            layer.record_hit(key, p);
                        }
                        (
                            JobOutcome::Done(Box::new(stored.unwrap_or_else(|| p.clone()))),
                            true,
                        )
                    }
                    // Unreachable: with no payload, a waiter with a live
                    // token would have been promoted instead of drained.
                    None => (JobOutcome::Cancelled, false),
                },
            };
            finish_job(
                obs,
                terminals,
                w.span,
                outcome,
                hit,
                w.started,
                &w.slot,
                w.request.id,
            );
        }
        match promoted {
            Some(next) => leader = next,
            None => return,
        }
    }
}
