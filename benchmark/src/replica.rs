//! `replica_mix`: one closed-loop `ShardClient` against a loopback
//! `ShardServer` with the default cache capacity. Nine frames in ten are
//! `job` frames over a hot set of 60 pre-solved Small jobs (cache reads);
//! every tenth is a `put` frame replicating one of about 120 other
//! pre-solved payloads (cache writes that evict). The solver is bypassed,
//! so the wire codec, `.rail` parsing, fingerprinting and the cache carry
//! the load.
//!
//! The hot set is visited in a fresh seeded order every 60 job frames, so
//! a hot entry is never idle for more than about 130 frames, while a put
//! entry survives about 680 frames before the least-recently-used policy
//! evicts it: evictions only ever take put entries, and every job frame is
//! a hit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use etcs_core::{EncoderConfig, Instance};
use etcs_network::parse_scenario;
use etcs_obs::json::{self, Json};
use etcs_obs::Obs;
use etcs_sat::Interrupt;
use etcs_serve::wire::{
    parse_request_line, payload_from_wire, payload_to_wire, response_line, ShardClient,
    ShardServer, ShardServerConfig,
};
use etcs_serve::{execute, JobOutcome, JobPayload, JobResponse, ResultCache, ServeConfig, Service};
use etcs_testkit::Rng;

use crate::fold::{fold, Tracer};
use crate::inputs::{self, Job};
use crate::run::{us, Phase, Workload};

const HOT_PER_FAMILY: usize = 12;
const PUTS_PER_FAMILY: usize = 24;
/// One frame in this many is a `put`.
const PUT_EVERY: usize = 10;
const STREAM_SALT: u64 = 0x7265_706c_6963_6121;

/// A pre-solved job with everything the checks and the pricing need.
struct Entry {
    job: Job,
    payload: JobPayload,
    digest: u128,
    /// The instance the payload's plan must validate on.
    instance: Option<Instance>,
    /// The frames the client sends (`job` or `put`) and the shard answers.
    request_frame: String,
    reply_frame: String,
}

impl Entry {
    fn solve(job: Job, failures: &mut Vec<String>) -> Option<Entry> {
        let config = EncoderConfig::default();
        let payload = match execute(&job.request, &config, &Interrupt::none(), &Obs::disabled()) {
            JobOutcome::Done(payload) => *payload,
            other => {
                failures.push(format!(
                    "{}: pre-solve ended {}",
                    job.request.id,
                    other.status()
                ));
                return None;
            }
        };
        let instance = payload.plan.as_ref().and_then(|plan| {
            let inst = job.solved_instance().ok()?;
            if !etcs_sim::validate(&inst, plan, !job.is_optimize()).is_valid() {
                failures.push(format!(
                    "{}: the simulator rejects the plan",
                    job.request.id
                ));
            }
            Some(inst)
        });
        let digest = payload.digest();
        let wire = payload_to_wire(&payload);
        let (line, _) = response_line(&JobResponse {
            id: job.request.id.clone(),
            outcome: JobOutcome::Done(Box::new(payload.clone())),
            cache_hit: true,
            wall: Duration::ZERO,
        });
        let reply_frame = format!(
            "{{\"type\": \"done\", \"status\": \"done\", \"cache\": \"hit\", \"key\": \"{:032x}\", \
             \"response\": {}, \"payload\": {wire}}}",
            job.key,
            json::quote(&line)
        );
        Some(Entry {
            request_frame: format!(
                "{{\"type\": \"job\", \"spec\": {}}}",
                json::quote(&job.line)
            ),
            reply_frame,
            job,
            payload,
            digest,
            instance,
        })
    }

    fn into_put(mut self) -> Entry {
        self.request_frame = format!(
            "{{\"type\": \"put\", \"key\": \"{:032x}\", \"payload\": {}}}",
            self.job.key,
            payload_to_wire(&self.payload)
        );
        self.reply_frame = format!(
            "{{\"type\": \"put_ok\", \"digest\": \"{:032x}\"}}",
            self.digest
        );
        self
    }
}

pub struct Replica {
    hot: Vec<Entry>,
    puts: Vec<Entry>,
    warm: Job,
    server: Option<ShardServer>,
    client: Option<ShardClient>,
    seed: u64,
    rng: Rng,
    /// The current round's visiting order of the hot set.
    order: Vec<usize>,
    next_put: usize,
    next_job: usize,
    /// Shard cache counters when the phase began: hits, lookups, evictions.
    stats_base: [u64; 3],
    replay: ResultCache,
}

fn cache_counters(client: &mut ShardClient) -> Option<[u64; 3]> {
    let frame = client.stats().ok()?;
    let cache = frame.get("cache")?;
    let n = |key: &str| cache.get(key).and_then(Json::as_f64).map(|v| v as u64);
    Some([n("hits")?, n("hits")? + n("misses")?, n("evictions")?])
}

impl Replica {
    fn stop(&mut self) {
        self.client = None;
        if let Some(server) = self.server.take() {
            server.kill();
            server.wait();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Workload for Replica {
    const PREFIX: usize = 2000;

    fn setup(seed: u64, failures: &mut Vec<String>) -> Self {
        let mut hot = Vec::new();
        let mut puts = Vec::new();
        for family in inputs::replica_candidates() {
            let mut jobs = family.into_iter();
            hot.extend(jobs.by_ref().take(HOT_PER_FAMILY));
            puts.extend(jobs.take(PUTS_PER_FAMILY));
        }
        let hot = hot
            .into_iter()
            .filter_map(|j| Entry::solve(j, failures))
            .collect();
        let puts = puts
            .into_iter()
            .filter_map(|j| Entry::solve(j, failures))
            .map(Entry::into_put)
            .collect();
        let mut w = Replica {
            hot,
            puts,
            warm: inputs::warmup_job(),
            server: None,
            client: None,
            seed,
            rng: Rng::new(seed),
            order: Vec::new(),
            next_put: 0,
            next_job: 0,
            stats_base: [0; 3],
            replay: ResultCache::new(0),
        };
        w.reset(Obs::disabled(), failures);
        w
    }

    fn warmup(&mut self) {
        let client = self.client.as_mut().expect("connected");
        black_box(client.job(&self.warm.line).is_ok());
        self.stats_base = cache_counters(client).unwrap_or_default();
    }

    fn reset(&mut self, obs: Obs, failures: &mut Vec<String>) {
        self.stop();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let capacity = config.cache_capacity;
        let service = Service::with_obs(config, obs.clone());
        let server = ShardServer::spawn("127.0.0.1:0", service, ShardServerConfig::default(), obs)
            .expect("bind a loopback port");
        let mut client =
            ShardClient::connect(&server.addr().to_string()).expect("connect to the shard");
        self.replay = ResultCache::new(capacity);
        for e in &self.hot {
            match client.put(e.job.key, &e.payload) {
                Ok(digest) if digest == e.digest => {}
                other => failures.push(format!("{}: hot put answered {other:?}", e.job.request.id)),
            }
            self.replay.insert(e.job.key, e.payload.clone());
        }
        self.stats_base = cache_counters(&mut client).unwrap_or_default();
        self.server = Some(server);
        self.client = Some(client);
        self.rng = Rng::new(self.seed ^ STREAM_SALT);
        self.order = (0..self.hot.len()).collect();
        self.next_put = 0;
        self.next_job = 0;
    }

    fn request(&mut self, tracer: Option<&Tracer>, phase: &mut Phase) {
        let index = phase.index();
        let is_put = index % PUT_EVERY == PUT_EVERY - 1;
        let entry = if is_put {
            self.next_put += 1;
            &self.puts[(self.next_put - 1) % self.puts.len()]
        } else {
            if self.next_job.is_multiple_of(self.order.len()) {
                inputs::shuffle(&mut self.order, &mut self.rng);
            }
            self.next_job += 1;
            &self.hot[self.order[(self.next_job - 1) % self.order.len()]]
        };
        let client = self.client.as_mut().expect("connected");
        if let Some(t) = tracer {
            t.take();
        }

        let t0 = Instant::now();
        let reply = if is_put {
            client
                .put(entry.job.key, &entry.payload)
                .map(|digest| (digest, None))
        } else {
            client.job(&entry.job.line).map(|done| {
                let digest = done.payload.as_ref().map_or(0, JobPayload::digest);
                (digest, done.payload.filter(|_| done.status == "done"))
            })
        };
        let t1 = Instant::now();
        phase.latency(t1 - t0);

        let checks = Instant::now();
        let id = &entry.job.request.id;
        match &reply {
            Err(e) => phase.fail(format!("{id}: {e}")),
            Ok((digest, _)) if *digest != entry.digest => phase.fail(format!(
                "{id}: digest {digest:032x} differs from the pre-solve"
            )),
            Ok((_, None)) if !is_put => phase.fail(format!("{id}: no payload")),
            Ok((_, Some(payload))) => {
                if let (Some(plan), Some(inst)) = (&payload.plan, &entry.instance) {
                    let t = Instant::now();
                    let valid = etcs_sim::validate(inst, plan, !entry.job.is_optimize()).is_valid();
                    phase.layers.add_us("sim.validate", us(t.elapsed()));
                    if !valid {
                        phase.fail(format!("{id}: the simulator rejects the plan"));
                    }
                }
            }
            Ok(_) => {}
        }
        phase.output(
            Self::PREFIX,
            index,
            entry.digest,
            entry.payload.search.conflicts,
            entry.payload.stats.clauses as u64,
        );

        if let Some(tracer) = tracer {
            let folded = fold(&tracer.take());
            let l = &mut phase.layers;
            let latency = us(t1 - t0);
            l.requests += 1;
            l.latency_us += latency;
            let spans = l.charge_spans(&folded, false);
            let timed = |f: &mut dyn FnMut()| {
                let t = Instant::now();
                f();
                us(t.elapsed())
            };
            // The server's and client's calls outside the `serve.job` span,
            // priced by replaying them on the same frames.
            let encode = timed(&mut || {
                black_box(payload_to_wire(&entry.payload));
            });
            let decode = timed(&mut || {
                let request = json::parse(&entry.request_frame).expect("frame is JSON");
                let reply = json::parse(&entry.reply_frame).expect("frame is JSON");
                if let Some(p) = request.get("payload").or(reply.get("payload")) {
                    black_box(payload_from_wire(p).is_ok());
                }
            });
            let mut on_path = spans + encode + decode;
            if is_put {
                let stored = entry.payload.clone();
                let t = Instant::now();
                self.replay.insert(entry.job.key, stored);
                l.add_us("serve.cache_insert", us(t.elapsed()));
            } else {
                let parse = timed(&mut || {
                    black_box(parse_request_line(&entry.job.line, "job", false, None).is_ok());
                });
                let fingerprint = timed(&mut || {
                    black_box(entry.job.request.cache_key(&EncoderConfig::default()));
                });
                let response = JobResponse {
                    id: entry.job.request.id.clone(),
                    outcome: JobOutcome::Done(Box::new(entry.payload.clone())),
                    cache_hit: true,
                    wall: Duration::ZERO,
                };
                let format = timed(&mut || {
                    black_box(response_line(&response));
                });
                l.add_us("serve.request_parse", parse);
                l.add_us("core.fingerprint", fingerprint);
                l.add_us("serve.response_format", format);
                on_path += parse + fingerprint + format;
                l.add_us(
                    "network.parse",
                    timed(&mut || {
                        black_box(parse_scenario(&entry.job.rail).is_ok());
                    }),
                );
                let t = Instant::now();
                black_box(self.replay.get(entry.job.key));
                l.add_us("serve.cache_get", us(t.elapsed()));
            }
            l.add_us("serve.wire_encode", encode);
            l.add_us("serve.wire_decode", decode);
            // Sockets, framing and thread hand-offs: what the priced
            // layers leave of the latency.
            let transport = (latency - on_path).max(0.0);
            l.add_us("serve.transport", transport);
            l.attributed_us += on_path + transport;
        }
        phase.exclude(checks);
    }

    fn finish(&mut self, phase: &mut Phase) {
        let client = self.client.as_mut().expect("connected");
        let now = cache_counters(client).unwrap_or_default();
        let base = self.stats_base;
        let l = &mut phase.layers;
        l.add("serve.cache_hits", now[0].saturating_sub(base[0]) as f64);
        l.add("serve.cache_lookups", now[1].saturating_sub(base[1]) as f64);
        l.add(
            "serve.cache_evictions",
            now[2].saturating_sub(base[2]) as f64,
        );
    }

    fn distinct_keys(&self) -> usize {
        self.hot.len() + self.puts.len()
    }
}
