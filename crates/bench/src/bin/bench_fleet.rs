//! Throughput harness for the `etcs-fleet` distributed serve fleet:
//! jobs/second as a function of shard count, cold cache vs. warm, over a
//! batch of independent medium solves (generated line scenarios shipped
//! inline as `rail:` specs, one per seed, so every routing fingerprint is
//! distinct and no job deduplicates).
//!
//! Every run is gated on correctness, not just timed:
//!
//! * every fleet digest must be bit-identical to direct in-process
//!   execution of the same request (the fleet's core guarantee);
//! * the warm pass must be answered entirely from the shards' caches;
//! * the shards' recorded put/hit histories must pass the dbcop-style
//!   consistency checker, with every completed entry replicated.
//!
//! Shards are in-process [`ShardServer`]s on ephemeral loopback ports, so
//! the numbers include the real wire protocol (TCP, JSONL framing, payload
//! codec) but no network latency. The host's `available_parallelism` is
//! recorded; the scaling assertion only applies when real cores back every
//! shard's workers (with fewer cores the shards time-slice the same CPUs
//! and the curve is legitimately flat).
//!
//! Usage: `bench_fleet [--smoke] [--out <path>]`
//!
//! `--smoke` restricts to shard counts 1 and 2 over a small batch
//! (seconds, not minutes) — this is what `ci/check.sh` runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use etcs_core::EncoderConfig;
use etcs_fleet::wire::{parse_request, Origin, ShardServer, ShardServerConfig};
use etcs_fleet::{check, Fleet, FleetConfig, FleetJob};
use etcs_network::generator::{single_track_line, LineConfig};
use etcs_network::{write_scenario, Seconds};
use etcs_obs::{json, Obs};
use etcs_sat::Interrupt;
use etcs_serve::{execute, JobOutcome, JobRequest, ServeConfig, Service};

const WORKERS_PER_SHARD: usize = 2;

/// Independent medium solves: one generated line scenario per seed, each
/// carried inline in its request line (`rail:` spec), each with its own
/// headway so every cache key is provably distinct.
fn request_lines(smoke: bool) -> Vec<String> {
    let count = if smoke { 6 } else { 16 };
    (0..count)
        .map(|seed| {
            let scenario = single_track_line(&LineConfig {
                stations: 4,
                loop_every: 2,
                trains_per_direction: 2,
                headway: Seconds(90 + 15 * seed as u64),
                horizon: Seconds::from_minutes(18),
                seed: 1000 + seed as u64,
                ..LineConfig::default()
            });
            format!(
                "{{\"id\": \"fleet-{seed}\", \"kind\": \"optimize_incremental\", \
                 \"scenario\": {}}}",
                json::quote(&format!("rail:{}", write_scenario(&scenario)))
            )
        })
        .collect()
}

fn parse_all(lines: &[String]) -> Vec<JobRequest> {
    lines
        .iter()
        .map(|line| {
            parse_request(line, "bench", Origin::Local, false).expect("bench lines are valid")
        })
        .collect()
}

fn fleet_jobs(lines: &[String], requests: &[JobRequest]) -> Vec<FleetJob> {
    let encoder = EncoderConfig::default();
    requests
        .iter()
        .zip(lines)
        .enumerate()
        .map(|(index, (request, line))| FleetJob {
            index,
            id: request.id.clone(),
            key: request.cache_key(&encoder),
            spec: line.clone(),
        })
        .collect()
}

fn digest_of(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| {
            v.get("payload")
                .and_then(|p| p.get("digest"))
                .and_then(|d| d.as_str())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| panic!("no payload digest in: {line}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };

    let lines = request_lines(smoke);
    let requests = parse_all(&lines);

    // Ground truth: direct in-process execution, no service, no wire.
    let encoder = EncoderConfig::default();
    let reference: Vec<String> = requests
        .iter()
        .map(
            |request| match execute(request, &encoder, &Interrupt::none(), &Obs::disabled()) {
                JobOutcome::Done(payload) => format!("{:032x}", payload.digest()),
                other => panic!("reference job {} did not finish: {other:?}", request.id),
            },
        )
        .collect();

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fleet\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"jobs\": {},", lines.len());
    let _ = writeln!(out, "  \"workers_per_shard\": {WORKERS_PER_SHARD},");
    let _ = writeln!(out, "  \"runs\": [");

    let mut curve = Vec::new();
    for (ci, &count) in shard_counts.iter().enumerate() {
        let servers: Vec<ShardServer> = (0..count)
            .map(|i| {
                let service = Service::new(ServeConfig {
                    workers: WORKERS_PER_SHARD,
                    queue_capacity: lines.len() + 1,
                    cache_capacity: lines.len(),
                    record_history: true,
                    ..ServeConfig::default()
                });
                ShardServer::spawn(
                    "127.0.0.1:0",
                    service,
                    ShardServerConfig {
                        name: format!("s{i}"),
                        ..ShardServerConfig::default()
                    },
                    Obs::disabled(),
                )
                .expect("bind an ephemeral port")
            })
            .collect();
        let fleet = Fleet::connect(
            FleetConfig {
                shards: servers.iter().map(|s| s.addr().to_string()).collect(),
                replicas: 1,
                streams: WORKERS_PER_SHARD,
                connect_retries: 20,
                connect_delay: Duration::from_millis(50),
                ..FleetConfig::default()
            },
            Obs::disabled(),
        )
        .expect("all shards are up");

        let t_cold = Instant::now();
        let cold = fleet.run_batch(fleet_jobs(&lines, &requests), |_| {});
        let cold_s = t_cold.elapsed().as_secs_f64();

        let t_warm = Instant::now();
        let warm = fleet.run_batch(fleet_jobs(&lines, &requests), |_| {});
        let warm_s = t_warm.elapsed().as_secs_f64();

        for result in cold.iter().chain(&warm) {
            assert_eq!(
                result.status, "done",
                "job {}: {}",
                result.index, result.line
            );
            assert_eq!(
                digest_of(&result.line),
                reference[result.index],
                "fleet digests must be bit-identical to direct execution \
                 ({count} shards, job {})",
                result.index
            );
        }
        let cold_hits = cold.iter().filter(|r| r.cache_hit).count();
        assert_eq!(
            cold_hits, 0,
            "the batch must be duplicate-free ({count} shards)"
        );
        let warm_hits = warm.iter().filter(|r| r.cache_hit).count();
        assert_eq!(
            warm_hits,
            lines.len(),
            "every warm-pass job must hit a shard cache ({count} shards)"
        );

        let histories = fleet.fetch_histories().expect("all shards answer");
        let report = check(&histories).expect("fleet histories are consistent");
        assert_eq!(report.keys, lines.len());
        if count > 1 {
            assert_eq!(
                report.replicated_keys,
                lines.len(),
                "every completed entry must be replicated ({count} shards)"
            );
        }

        fleet.shutdown_shards();
        for server in servers {
            server.wait();
        }

        let cold_jps = lines.len() as f64 / cold_s.max(1e-9);
        let warm_jps = lines.len() as f64 / warm_s.max(1e-9);
        curve.push(cold_jps);
        eprintln!(
            "== {count} shard(s): cold {cold_jps:.2} jobs/s, warm {warm_jps:.1} jobs/s \
             ({} events, {} replicated keys) ==",
            report.events, report.replicated_keys
        );

        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"shards\": {count},");
        let _ = writeln!(out, "      \"cold_wall_ms\": {:.2},", cold_s * 1e3);
        let _ = writeln!(out, "      \"cold_jobs_per_s\": {cold_jps:.2},");
        let _ = writeln!(out, "      \"warm_wall_ms\": {:.2},", warm_s * 1e3);
        let _ = writeln!(out, "      \"warm_jobs_per_s\": {warm_jps:.2},");
        let _ = writeln!(out, "      \"history_events\": {},", report.events);
        let _ = writeln!(out, "      \"replicated_keys\": {}", report.replicated_keys);
        let _ = write!(out, "    }}");
        out.push_str(if ci + 1 < shard_counts.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");

    // Fleet scaling is only physically measurable when the host has a core
    // for every shard worker; below that the shards time-slice the same
    // CPUs and the cold curve is legitimately flat.
    let needed = shard_counts.last().copied().unwrap_or(1) * WORKERS_PER_SHARD;
    if cores >= needed {
        assert!(
            curve.windows(2).all(|w| w[1] > w[0]),
            "cold jobs/s must strictly increase with shard count on a \
             {cores}-core host: {curve:?}"
        );
    } else {
        eprintln!(
            "note: only {cores} core(s) for up to {needed} shard workers; skipping \
             the strict scaling assertion (curve: {curve:?})"
        );
    }

    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
