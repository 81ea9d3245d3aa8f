//! Measurement shared by every workload: repeated set-up,
//! warm-up, the closed measuring loop, and the metrics of one run.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use etcs_obs::Obs;

use crate::fold::{Folded, Tracer};
use crate::stats;

/// Set-ups per run: at least `SETUP_MIN`, and more (up to `SETUP_MAX`)
/// while they total under `SETUP_BUDGET_S`, so that millisecond set-ups
/// still yield a steady median. `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 50;
const SETUP_BUDGET_S: f64 = 0.5;

/// The attribution gate of [`Workload::GATE_ATTRIBUTION`].
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// One workload: a seeded request stream against one program surface.
pub trait Workload: Sized {
    /// Requests at the head of the stream whose outputs feed
    /// `outputs_digest` and the work counters. Small enough that every
    /// measured phase completes them.
    const PREFIX: usize;

    /// Requests per whole repetition of the stream's mix. A phase stops at
    /// a multiple of this once its time is up, so every run measures the
    /// same proportions of request types whatever the machine's speed.
    const UNIT: usize = 1;

    /// Whether a traced run fails when more than [`MAX_UNATTRIBUTED`] of
    /// the traced latency is not explained by on-path layers.
    const GATE_ATTRIBUTION: bool = false;

    /// Builds the inputs and starts the services (timed as `setup_s`).
    fn setup(seed: u64, failures: &mut Vec<String>) -> Self;

    /// Runs one request outside the measured set.
    fn warmup(&mut self);

    /// Restarts the stream at its first request, on fresh services
    /// observed by `obs`. Requests the restart itself sends and sees fail
    /// are reported in `failures`.
    fn reset(&mut self, obs: Obs, failures: &mut Vec<String>);

    /// Sends the next request, records its latency and checks its output.
    fn request(&mut self, tracer: Option<&Tracer>, phase: &mut Phase);

    /// Checks that run after the measured loop.
    fn finish(&mut self, phase: &mut Phase);

    /// Distinct cache keys (or session cores) in the stream.
    fn distinct_keys(&self) -> usize;
}

/// Per-layer accumulators of a traced phase.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub latency_us: f64,
    /// Latency explained by the layers that lie on the request path.
    pub attributed_us: f64,
    us: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add_us(&mut self, layer: &'static str, us: f64) {
        *self.us.entry(layer).or_insert(0.0) += us;
    }

    pub fn add(&mut self, counter: &'static str, n: f64) {
        *self.counts.entry(counter).or_insert(0.0) += n;
    }

    pub fn us(&self, layer: &str) -> f64 {
        self.us.get(layer).copied().unwrap_or(0.0)
    }

    pub fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    /// Charges one request's folded spans to their layers and returns the
    /// summed self time. `replan.tick` splits by whether the tick was warm.
    pub fn charge_spans(&mut self, folded: &[Folded], warm_tick: bool) -> f64 {
        let mut total = 0.0;
        for f in folded {
            let layer = match f.name {
                "serve.job" => "serve.job_self",
                "encode" => "core.encode",
                "probe" => "core.probe_self",
                "stage2" => "core.stage2_self",
                "sat.solve" => "sat.solve",
                "replan.tick" if warm_tick => "replan.tick_self.warm",
                "replan.tick" => "replan.tick_self.cold",
                name if name.starts_with("task.") => "core.task_self",
                _ => "other",
            };
            self.add_us(layer, f.self_us as f64);
            total += f.self_us as f64;
            match f.name {
                "encode" => {
                    self.add("core.encode_clauses", f.field("clauses") as f64);
                    self.add("core.encode_vars", f.field("vars") as f64);
                }
                "probe" => self.add("core.probes", 1.0),
                "sat.solve" => {
                    self.add("sat.solve_calls", 1.0);
                    for (key, counter) in [
                        ("conflicts", "sat.conflicts"),
                        ("propagations", "sat.propagations"),
                        ("decisions", "sat.decisions"),
                        ("restarts", "sat.restarts"),
                    ] {
                        self.add(counter, f.field(key) as f64);
                    }
                }
                _ => {}
            }
        }
        total
    }
}

/// FNV-1a over the outputs of the stream's first requests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, value: u128) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u128 {
        u128::from(self.0)
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Everything one measured phase recorded.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    /// Indices of the requests with a wrong or missing output.
    pub failed: BTreeSet<usize>,
    pub failures: Vec<String>,
    /// Benchmark-side checks and pricing inside the loop; excluded from
    /// the measured wall and CPU time.
    pub checks: Duration,
    pub wall: Duration,
    pub cpu_s: f64,
    pub digest: Digest,
    pub prefix_done: usize,
    pub prefix_conflicts: u64,
    pub prefix_clauses: u64,
    pub layers: Layers,
}

impl Phase {
    /// Index of the request being recorded.
    pub fn index(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn latency(&mut self, elapsed: Duration) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    /// Marks the request just recorded as failed.
    pub fn fail(&mut self, why: String) {
        self.fail_at(self.index().saturating_sub(1), why);
    }

    /// Marks request `index` as failed; a request counts once however many
    /// of its checks fail.
    pub fn fail_at(&mut self, index: usize, why: String) {
        self.failed.insert(index);
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Folds one request's output into the digest and work counters, if
    /// the request lies in the stream's head.
    pub fn output(
        &mut self,
        prefix: usize,
        index: usize,
        value: u128,
        conflicts: u64,
        clauses: u64,
    ) {
        if index < prefix {
            self.digest.add(value);
            self.prefix_done += 1;
            self.prefix_conflicts += conflicts;
            self.prefix_clauses += clauses;
        }
    }

    /// Adds a benchmark-side check's time to the excluded time.
    pub fn exclude(&mut self, since: Instant) {
        self.checks += since.elapsed();
    }
}

fn run_phase<W: Workload>(w: &mut W, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let mut phase = Phase::default();
    let target = Duration::from_secs_f64(seconds);
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now();
    while start.elapsed().saturating_sub(phase.checks) < target || phase.index() % W::UNIT != 0 {
        w.request(tracer, &mut phase);
    }
    phase.wall = start.elapsed().saturating_sub(phase.checks);
    phase.cpu_s = stats::process_cpu_s() - cpu0 - phase.checks.as_secs_f64();
    w.finish(&mut phase);
    phase
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub distinct_keys: usize,
    pub prefix: usize,
    pub prefix_done: usize,
    pub outputs_digest: String,
    pub prefix_conflicts: u64,
    pub prefix_clauses: u64,
}

/// Runs one workload for `seconds` of measured time. Untraced runs report
/// the end-to-end metrics; traced runs measure half the time untraced and
/// then replay the same stream traced for the other half, and report the
/// per-layer metrics.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous set-up down first so only one is ever live.
        drop(workload.take());
        failures.clear();
        let start = Instant::now();
        workload = Some(W::setup(seed, &mut failures));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    w.warmup();

    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let base = run_phase(&mut w, untraced_s, None);
    let traced = trace.then(|| {
        let tracer = Tracer::new();
        w.reset(tracer.obs(), &mut failures);
        run_phase(&mut w, seconds / 2.0, Some(&tracer))
    });

    // Requests sent during set-up count as attempted; only failed ones are
    // reported, so they count once each on both sides.
    let setup_failed = failures.len() as u64;
    failures.extend(base.failures.iter().cloned());
    let mut attempted = base.latencies_ms.len() as u64 + setup_failed;
    let mut failed = base.failed.len() as u64 + setup_failed;
    let metrics = match &traced {
        None => end_to_end(&base, &setups),
        Some(t) => {
            failures.extend(t.failures.iter().cloned());
            attempted += t.latencies_ms.len() as u64;
            failed += t.failed.len() as u64;
            let metrics = crate::report::per_layer(&base, t, w.distinct_keys());
            let unattributed = metrics
                .iter()
                .find(|m| m.0 == "trace.unattributed_share")
                .map_or(0.0, |m| m.1);
            if W::GATE_ATTRIBUTION && unattributed.abs() > MAX_UNATTRIBUTED {
                failed += 1;
                failures.push(format!(
                    "{unattributed:.3} of the traced latency is unattributed (limit {MAX_UNATTRIBUTED})"
                ));
            }
            metrics
        }
    };
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        distinct_keys: w.distinct_keys(),
        prefix: W::PREFIX,
        prefix_done: base.prefix_done,
        outputs_digest: base.digest.hex(),
        prefix_conflicts: base.prefix_conflicts,
        prefix_clauses: base.prefix_clauses,
    }
}

pub fn end_to_end(p: &Phase, setups: &[f64]) -> Vec<Metric> {
    let mut sorted = p.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len().max(1) as f64;
    vec![
        ("latency_p50_ms", stats::quantile(&sorted, 0.5), "ms"),
        ("latency_p90_ms", stats::quantile(&sorted, 0.9), "ms"),
        (
            "throughput_ops_per_s",
            sorted.len() as f64 / p.wall.as_secs_f64(),
            "ops/s",
        ),
        ("cpu_ms_per_op", p.cpu_s * 1e3 / n, "ms"),
        ("setup_s", stats::median(setups), "s"),
        ("peak_heap_mb", crate::alloc::peak_mb(), "MB"),
    ]
}
