//! `design_encode` and `design_search`: cold design jobs through exactly
//! what `served` does per input line — `wire::parse_request_line`, then
//! `Service::submit` / `JobTicket::wait`, then `wire::response_line` — with
//! one closed-loop client and one service worker.

use std::collections::HashSet;
use std::hint::black_box;
use std::marker::PhantomData;
use std::time::Instant;

use etcs_core::EncoderConfig;
use etcs_network::parse_scenario;
use etcs_obs::Obs;
use etcs_serve::wire::{parse_request_line, response_line};
use etcs_serve::{CacheStats, JobOutcome, ResultCache, ServeConfig, Service};

use crate::fold::{fold, Tracer};
use crate::inputs::{self, Job};
use crate::run::{us, Phase, Workload};

/// Which job stream a design workload sends.
pub trait Mix {
    const PREFIX: usize;
    const UNIT: usize;
    fn jobs(seed: u64) -> Vec<Job>;
}

/// Medium jobs of four families under all four design kinds: encoding is
/// 25–75% of each job, so encoder changes show here.
pub struct Encode;

impl Mix for Encode {
    const PREFIX: usize = 64;
    /// One block: every family × kind pair once.
    const UNIT: usize = 16;
    fn jobs(seed: u64) -> Vec<Job> {
        inputs::design_encode(seed)
    }
}

/// `grid_ladder` Small optimisations: encoding is about 11% of each job and
/// the solver nearly all the rest, so search changes show here and encoder
/// changes should not.
pub struct Search;

impl Mix for Search {
    const PREFIX: usize = 48;
    /// The whole stream: 16 scenarios under two kinds.
    const UNIT: usize = 32;
    fn jobs(seed: u64) -> Vec<Job> {
        inputs::design_search(seed)
    }
}

pub struct Design<M> {
    jobs: Vec<Job>,
    warm: Job,
    service: Service,
    next: usize,
    /// Keys already sent to the current service.
    sent: HashSet<u128>,
    /// Counters of services retired during this phase.
    cache: CacheStats,
    /// The benchmark's own cache, replaying the service's key sequence to
    /// price cache lookups and inserts.
    replay: ResultCache,
    obs: Obs,
    mix: PhantomData<M>,
}

fn service(obs: &Obs) -> Service {
    Service::with_obs(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        obs.clone(),
    )
}

impl<M> Design<M> {
    /// Replaces the service (and the replayed cache) by a fresh one,
    /// banking its cache counters. The old worker is joined first, so the
    /// new one reuses its memory.
    fn renew_service(&mut self) {
        let s = self.service.cache_stats().unwrap_or_default();
        self.cache.hits += s.hits;
        self.cache.misses += s.misses;
        self.cache.evictions += s.evictions;
        self.service.shutdown();
        self.service = service(&self.obs);
        self.replay = ResultCache::new(ServeConfig::default().cache_capacity);
        self.sent.clear();
    }
}

impl<M: Mix> Workload for Design<M> {
    const PREFIX: usize = M::PREFIX;
    const UNIT: usize = M::UNIT;
    const GATE_ATTRIBUTION: bool = true;

    fn setup(seed: u64, _failures: &mut Vec<String>) -> Self {
        let obs = Obs::disabled();
        Design {
            jobs: M::jobs(seed),
            warm: inputs::warmup_job(),
            service: service(&obs),
            next: 0,
            sent: HashSet::new(),
            cache: CacheStats::default(),
            replay: ResultCache::new(ServeConfig::default().cache_capacity),
            obs,
            mix: PhantomData,
        }
    }

    fn warmup(&mut self) {
        let request = parse_request_line(&self.warm.line, "warmup", false, None)
            .expect("warm-up line parses");
        if let Ok(ticket) = self.service.submit(request) {
            black_box(response_line(&ticket.wait()));
        }
        self.reset(self.obs.clone(), &mut Vec::new());
    }

    fn reset(&mut self, obs: Obs, _failures: &mut Vec<String>) {
        self.obs = obs;
        self.renew_service();
        self.cache = CacheStats::default();
        self.next = 0;
    }

    fn request(&mut self, tracer: Option<&Tracer>, phase: &mut Phase) {
        let index = phase.index();
        let slot = self.next % self.jobs.len();
        self.next += 1;
        if self.sent.contains(&self.jobs[slot].key) {
            // The stream wrapped around: a fresh service keeps it cold.
            self.renew_service();
        }
        self.sent.insert(self.jobs[slot].key);
        let job = &self.jobs[slot];
        if let Some(t) = tracer {
            t.take();
        }

        let t0 = Instant::now();
        let parsed = parse_request_line(&job.line, "bench", false, None);
        let t1 = Instant::now();
        let Ok(request) = parsed else {
            phase.latency(t1 - t0);
            phase.fail(format!(
                "{}: the service rejected the request line",
                job.request.id
            ));
            return;
        };
        let response = match self.service.submit(request) {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => rejected,
        };
        let t2 = Instant::now();
        let (line, line_failed) = response_line(&response);
        let t3 = Instant::now();
        black_box(line);
        phase.latency(t3 - t0);

        let checks = Instant::now();
        let payload = match &response.outcome {
            JobOutcome::Done(payload) if !line_failed && !response.cache_hit => payload,
            other => {
                phase.fail(format!(
                    "{}: status {} (cache hit: {})",
                    job.request.id,
                    other.status(),
                    response.cache_hit
                ));
                phase.exclude(checks);
                return;
            }
        };
        if payload.kind != job.request.kind {
            phase.fail(format!(
                "{}: payload of kind {}",
                job.request.id, payload.kind
            ));
        }
        match &payload.plan {
            Some(plan) => {
                let t = Instant::now();
                let inst = job.solved_instance();
                phase.layers.add_us("core.instance", us(t.elapsed()));
                match inst {
                    Ok(inst) => {
                        let t = Instant::now();
                        let report = etcs_sim::validate(&inst, plan, !job.is_optimize());
                        phase.layers.add_us("sim.validate", us(t.elapsed()));
                        if !report.is_valid() {
                            phase.fail(format!(
                                "{}: the simulator rejects the plan",
                                job.request.id
                            ));
                        }
                    }
                    Err(e) => phase.fail(format!("{}: {e}", job.request.id)),
                }
            }
            None if payload.feasible => {
                phase.fail(format!("{}: feasible without a plan", job.request.id));
            }
            None => {}
        }
        phase.output(
            M::PREFIX,
            index,
            payload.verdict_digest(),
            payload.search.conflicts,
            payload.stats.clauses as u64,
        );

        if let Some(tracer) = tracer {
            let folded = fold(&tracer.take());
            let l = &mut phase.layers;
            let latency = us(t3 - t0);
            let (parse, format) = (us(t1 - t0), us(t3 - t2));
            // Time between submit and wait returning that the job's own
            // wall clock does not cover: queueing and hand-off.
            let queue_wait = (us(t2 - t1) - us(response.wall)).max(0.0);
            l.requests += 1;
            l.latency_us += latency;
            l.add_us("serve.request_parse", parse);
            l.add_us("serve.response_format", format);
            l.add_us("serve.queue_wait", queue_wait);
            l.attributed_us += parse + format + queue_wait + l.charge_spans(&folded, false);
            l.add("sat.reused_learnts", payload.search.reused_learnts as f64);

            // Priced off the request path, by replaying the same call.
            let t = Instant::now();
            black_box(parse_scenario(&job.rail).is_ok());
            l.add_us("network.parse", us(t.elapsed()));
            let t = Instant::now();
            black_box(job.request.cache_key(&EncoderConfig::default()));
            l.add_us("core.fingerprint", us(t.elapsed()));
            let t = Instant::now();
            black_box(self.replay.get(job.key));
            l.add_us("serve.cache_get", us(t.elapsed()));
            let stored = (**payload).clone();
            let t = Instant::now();
            self.replay.insert(job.key, stored);
            l.add_us("serve.cache_insert", us(t.elapsed()));
        }
        phase.exclude(checks);
    }

    fn finish(&mut self, phase: &mut Phase) {
        self.renew_service();
        let l = &mut phase.layers;
        l.add("serve.cache_hits", self.cache.hits as f64);
        l.add(
            "serve.cache_lookups",
            (self.cache.hits + self.cache.misses) as f64,
        );
        l.add("serve.cache_evictions", self.cache.evictions as f64);
    }

    fn distinct_keys(&self) -> usize {
        self.jobs.len()
    }
}
