//! Metric assembly for traced runs, result printing, and `--compare`.

use etcs_obs::json::{self, Json};

use crate::run::{Metric, Outcome, Phase};
use crate::stats;

/// The per-layer metrics of a traced run. Times are means per traced
/// request; `*.share` values are fractions of the traced request latency.
/// `network.parse`, `core.instance`, `core.fingerprint`, `sim.validate` and
/// the `serve.cache_*` layers are priced by replaying the call on the same
/// input off the request path; they overlap the on-path layers that
/// contain them and are not part of the attributed sum.
pub fn per_layer(base: &Phase, traced: &Phase, distinct_keys: usize) -> Vec<Metric> {
    let l = &traced.layers;
    let n = (l.requests as f64).max(1.0);
    let latency = l.latency_us.max(f64::MIN_POSITIVE);
    let share = |layer: &str| l.us(layer) / latency;
    let per = |counter: &str| l.count(counter) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("trace.requests", l.requests as f64, "count"),
        ("trace.latency_us", l.latency_us / n, "us"),
        ("core.fingerprint_us", l.us("core.fingerprint") / n, "us"),
        ("sim.validate_us", l.us("sim.validate") / n, "us"),
        (
            "serve.request_parse_us.share",
            share("serve.request_parse"),
            "ratio",
        ),
        ("network.parse_us.share", share("network.parse"), "ratio"),
        (
            "serve.queue_wait_us.share",
            share("serve.queue_wait"),
            "ratio",
        ),
        ("serve.job_self_us.share", share("serve.job_self"), "ratio"),
        ("core.task_self_us.share", share("core.task_self"), "ratio"),
        ("core.encode_us.share", share("core.encode"), "ratio"),
        (
            "core.probe_self_us.share",
            share("core.probe_self"),
            "ratio",
        ),
        (
            "core.stage2_self_us.share",
            share("core.stage2_self"),
            "ratio",
        ),
        ("sat.solve_us.share", share("sat.solve"), "ratio"),
        (
            "serve.response_format_us.share",
            share("serve.response_format"),
            "ratio",
        ),
        (
            "serve.wire_encode_us.share",
            share("serve.wire_encode"),
            "ratio",
        ),
        (
            "serve.wire_decode_us.share",
            share("serve.wire_decode"),
            "ratio",
        ),
        (
            "serve.transport_us.share",
            share("serve.transport"),
            "ratio",
        ),
        (
            "serve.cache_get_us.share",
            share("serve.cache_get"),
            "ratio",
        ),
        (
            "serve.cache_insert_us.share",
            share("serve.cache_insert"),
            "ratio",
        ),
        ("core.instance_us.share", share("core.instance"), "ratio"),
        (
            "core.fingerprint_us.share",
            share("core.fingerprint"),
            "ratio",
        ),
        ("sim.validate_us.share", share("sim.validate"), "ratio"),
        ("replan.apply_us.share", share("replan.apply"), "ratio"),
        (
            "replan.tick_self_us.warm.share",
            share("replan.tick_self.warm"),
            "ratio",
        ),
        (
            "replan.tick_self_us.cold.share",
            share("replan.tick_self.cold"),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            1.0 - l.attributed_us / latency,
            "ratio",
        ),
        ("obs.overhead_share", overhead(base, traced), "ratio"),
        ("core.encode_clauses", per("core.encode_clauses"), "count"),
        ("core.encode_vars", per("core.encode_vars"), "count"),
        ("core.probes", per("core.probes"), "count"),
        ("sat.solve_calls", per("sat.solve_calls"), "count"),
        ("sat.conflicts", per("sat.conflicts"), "count"),
        ("sat.propagations", per("sat.propagations"), "count"),
        ("sat.decisions", per("sat.decisions"), "count"),
        ("sat.restarts", per("sat.restarts"), "count"),
        ("sat.reused_learnts", per("sat.reused_learnts"), "count"),
        (
            "sat.propagations_per_us",
            ratio(l.count("sat.propagations"), l.us("sat.solve")),
            "1/us",
        ),
        (
            "serve.cache_hit_ratio",
            ratio(l.count("serve.cache_hits"), l.count("serve.cache_lookups")),
            "ratio",
        ),
        (
            "serve.cache_evictions",
            l.count("serve.cache_evictions"),
            "count",
        ),
        (
            "replan.warm_hit_ratio",
            ratio(l.count("replan.warm_ticks"), l.count("replan.ticks")),
            "ratio",
        ),
        (
            "replan.cold_fallbacks",
            l.count("replan.cold_fallbacks"),
            "count",
        ),
        ("bench.distinct_keys", distinct_keys as f64, "count"),
    ]
}

/// Median traced latency over median untraced latency, minus one, on the
/// requests both phases completed (the traced phase replays the stream).
fn overhead(base: &Phase, traced: &Phase) -> f64 {
    let n = base.latencies_ms.len().min(traced.latencies_ms.len());
    let untraced = stats::median(&base.latencies_ms[..n]);
    if untraced > 0.0 {
        stats::median(&traced.latencies_ms[..n]) / untraced - 1.0
    } else {
        0.0
    }
}

/// The default and holdout seeds and the `outputs_digest` each workload
/// must print on the default seed.
pub struct Expected {
    pub default_seed: u64,
    pub holdout_seed: u64,
    digests: Json,
}

impl Expected {
    pub fn load() -> Expected {
        let doc = json::parse(include_str!("../expected.json")).expect("expected.json is JSON");
        let seed = |key: &str| doc.get(key).and_then(Json::as_f64).expect("seed recorded") as u64;
        Expected {
            default_seed: seed("default_seed"),
            holdout_seed: seed("holdout_seed"),
            digests: doc.get("outputs_digest").cloned().unwrap_or(Json::Null),
        }
    }

    pub fn digest(&self, workload: &str) -> Option<&str> {
        self.digests.get(workload).and_then(Json::as_str)
    }
}

fn number(v: f64) -> String {
    // Shortest round-trip form: every digit as measured.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Prints a run's metrics, an information line and the result line.
pub fn print(workload: &str, seed: u64, outcome: &Outcome, correct: bool) {
    println!(
        "# {workload} seed {seed}: {} requests, {} failed, {} distinct keys",
        outcome.attempted, outcome.failed, outcome.distinct_keys
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {:>16} {unit}", number(*value));
    }
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"distinct_keys\": {}, \"outputs_digest\": {}, \
         \"prefix_requests\": {}, \"prefix_conflicts\": {}, \"prefix_encode_clauses\": {}}}",
        json::quote(workload),
        outcome.distinct_keys,
        json::quote(&outcome.outputs_digest),
        outcome.prefix_done,
        outcome.prefix_conflicts,
        outcome.prefix_clauses,
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                number(*value),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    items
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("unnamed metric")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Result lines (the last line a run prints) found in a file, in order.
fn results(text: &str) -> Vec<Json> {
    text.lines()
        .filter_map(|line| json::parse(line.trim()).ok())
        .filter(|v| v.get("metrics").is_some())
        .collect()
}

fn values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Compares two sets of result lines against the bounds: fails when a
/// metric's median in `b` is worse than in `a` by more than its bound, or
/// when a run is incorrect. Also prints each side's quartile spread.
pub fn compare(benchmark: &str, a: &str, b: &str) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let (a, b) = (results(a), results(b));
    if a.is_empty() || b.is_empty() {
        return Err("each file needs at least one result line".to_owned());
    }
    let mut ok = true;
    for run in a.iter().chain(&b) {
        if !matches!(run.get("correct"), Some(Json::Bool(true))) {
            println!("an incorrect run is among the results");
            ok = false;
        }
    }
    let spread = |v: &[f64]| match stats::quartiles(v) {
        Some([q1, q2, q3]) if q2 != 0.0 => format!("{:.4}", (q3 - q1) / q2.abs()),
        _ => "-".to_owned(),
    };
    println!(
        "{:<22} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    for m in &bounds {
        let (va, vb) = (values(&a, &m.name), values(&b, &m.name));
        if va.is_empty() || vb.is_empty() {
            println!("{:<22} missing from a result file", m.name);
            ok = false;
            continue;
        }
        let (ma, mb) = (stats::median(&va), stats::median(&vb));
        let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let worse = if m.lower_is_better { change } else { -change };
        let pass = worse <= m.bound;
        ok &= pass;
        println!(
            "{:<22} {:>14.6} {:>14.6} {:>9.4} {:>7.3} {:>9} {:>9}  {}",
            m.name,
            ma,
            mb,
            worse,
            m.bound,
            spread(&va),
            spread(&vb),
            if pass { "ok" } else { "REGRESSED" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    fn names(section: &str) -> Vec<(String, String)> {
        let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("no {section}")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let phase = Phase::default();
        assert_eq!(printed(&per_layer(&phase, &phase, 0)), names("per_layer"));
        let outcome = crate::run::end_to_end(&phase, &[1.0]);
        assert_eq!(printed(&outcome), names("end_to_end"));
    }

    #[test]
    fn expected_seeds_are_recorded() {
        let e = Expected::load();
        assert_ne!(e.default_seed, e.holdout_seed);
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound() {
        let line = |p50: f64| {
            format!(
                "{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}"
            )
        };
        let bench = r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let a = [line(10.0), line(10.2), line(9.8)].join("\n");
        assert_eq!(compare(bench, &a, &line(10.5)), Ok(true));
        assert_eq!(compare(bench, &a, &line(11.5)), Ok(false));
        assert!(compare(bench, "", &a).is_err());
    }
}
