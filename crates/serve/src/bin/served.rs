//! `served` — the ETCS L3 design tasks as a JSONL batch service.
//!
//! Reads one JSON job request per line (from `--input FILE` or stdin),
//! runs the batch through [`etcs_serve::Service`], and writes one JSON
//! response per line (to `--output FILE` or stdout), preserving input
//! order. Optionally emits an observability trace with `--trace FILE`.
//!
//! Lines carrying a `"record"` field are *replanning session records*
//! instead of jobs (`open`/`delta`/`tick`/`close`, see
//! [`etcs_serve::replan`]): they stream scenario deltas into a
//! warm-started [`etcs_replan::ReplanSession`] and are executed
//! synchronously, in input order, interleaved with the concurrent job
//! batch. The wire protocol's `replan` frame reaches the same sessions
//! in `--listen` mode.
//!
//! With `--listen ADDR` the process becomes a fleet *shard* instead: the
//! same worker-pool service behind a TCP socket speaking the versioned
//! fleet wire protocol (see [`etcs_serve::wire`]), with cache-history
//! recording on so a `fleetd --check-histories` run can audit it.
//!
//! Request line:
//!
//! ```json
//! {"id": "j1", "kind": "optimize", "scenario": "fixture:running_example",
//!  "layout": "pure_ttd", "priority": "normal", "deadline_ms": 30000}
//! ```
//!
//! * `kind` — `verify` | `generate` | `optimize` | `optimize_incremental`
//!   | `diagnose`.
//! * `scenario` — `fixture:NAME` (a built-in case study), `file:PATH`
//!   (a `.rail` file) or `rail:TEXT` (inline `.rail` source, `\n`-escaped).
//!   `file:` is read only from the local batch: a shard answers a `job`
//!   or `replan` frame naming one as invalid, without touching the file.
//! * `layout` (optional, verify/diagnose only) — `pure_ttd` (default),
//!   `full`, or `borders:2,5,9` (discrete-node indices).
//! * `priority` (optional) — `high` | `normal` (default) | `low`.
//! * `deadline_ms` (optional) — wall-clock budget, armed at worker pickup.
//! * `lazy` (optional) — `true` routes the job through the `etcs-lazy`
//!   CEGAR loop; `false` (default) runs it eagerly. Any other value makes
//!   the line invalid. Diagnose jobs ignore it: they have no lazy form.
//!
//! Fields the parser does not know are ignored.
//!
//! Response line (`payload` only when `status` is `done`):
//!
//! ```json
//! {"id": "j1", "status": "done", "cache": "miss", "wall_ms": 412,
//!  "payload": {"kind": "optimize", "feasible": true, "costs": [14, 2],
//!              "borders": 2, "trains": 2, "digest": "4f2e…",
//!              "verdict_digest": "91ab…"}}
//! ```
//!
//! `payload.digest` is a 128-bit hash over the *complete* result,
//! including every train's step-by-step positions — two equal digests
//! mean bit-identical results, which is how the CI smoke test proves
//! cache hits match fresh solves. `payload.verdict_digest` hashes only
//! (kind, feasible, costs), the slice guaranteed identical between eager
//! and lazy runs of the same request — CI compares it between a line and
//! its `"lazy": true` twin.
//!
//! On shutdown (both modes) the process emits one machine-readable summary
//! record on stderr:
//!
//! ```json
//! {"record": "stats", "queue": {"submitted": 51, "admitted": 51,
//!  "rejected": 0, "high_water": 51}, "jobs": {"done": 51, "cancelled": 0,
//!  "deadline_exceeded": 0, "invalid": 0, "failed": 0}, "cache": {"hits": 40,
//!  "misses": 11, "insertions": 11, "evictions": 0}, "replan": {"ticks": 4,
//!  "warm_hits": 2, "cold_fallbacks": 2, "deadline_misses": 0,
//!  "deltas": 3, "rejected_deltas": 0}}
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use etcs_obs::json;
use etcs_obs::Obs;
use etcs_replan::{ReplanConfig, ReplanStats};
use etcs_serve::wire::{
    request_from_value, response_line, stats_body_json, JobHook, Origin, ShardServer,
    ShardServerConfig,
};
use etcs_serve::{JobRequest, ReplanManager, ServeConfig, Service};

struct Args {
    input: Option<String>,
    output: Option<String>,
    trace: Option<String>,
    workers: usize,
    queue: usize,
    cache: usize,
    listen: Option<String>,
    name: Option<String>,
    crash_after: Option<u64>,
}

const USAGE: &str = "usage: served [--input FILE] [--output FILE] [--trace FILE] \
[--workers N] [--queue N] [--cache N] \
[--listen ADDR] [--name NAME] [--crash-after N]\n\
Reads one JSON job request per line, writes one JSON response per line.\n\
A line with \"lazy\": true runs through the CEGAR loop.\n\
--listen ADDR serves the fleet wire protocol on a TCP socket instead of\n\
reading a batch (a fleet shard); --name labels the shard; --crash-after N\n\
aborts the whole process after N jobs (deterministic fault injection for\n\
fleet failover tests).\n\
Input lines carrying a \"record\" field are replanning session records\n\
(open/delta/tick/close) executed synchronously in input order; see the\n\
README, \"Online replanning\".\n\
See the repository README, \"Running as a service\", for the line formats.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        output: None,
        trace: None,
        workers: 2,
        queue: 256,
        cache: 128,
        listen: None,
        name: None,
        crash_after: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--input" => args.input = Some(value("--input")?),
            "--output" => args.output = Some(value("--output")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be an integer".to_string())?
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|_| "--cache must be an integer".to_string())?
            }
            "--listen" => args.listen = Some(value("--listen")?),
            "--name" => args.name = Some(value("--name")?),
            "--crash-after" => {
                args.crash_after = Some(
                    value("--crash-after")?
                        .parse()
                        .map_err(|_| "--crash-after must be an integer".to_string())?,
                )
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.listen.is_some() && (args.input.is_some() || args.output.is_some()) {
        return Err(format!(
            "--listen is a socket mode: it takes no --input/--output\n{USAGE}"
        ));
    }
    Ok(args)
}

fn print_stats_record(shard: Option<&str>, service: &Service, replan: &ReplanStats) {
    let body = stats_body_json(
        &service.queue_stats(),
        &service.terminal_stats(),
        &service.cache_stats().unwrap_or_default(),
        replan,
    );
    match shard {
        Some(name) => eprintln!(
            "{{\"record\": \"stats\", \"shard\": {}, {body}}}",
            json::quote(name)
        ),
        None => eprintln!("{{\"record\": \"stats\", {body}}}"),
    }
}

/// The `--listen` socket mode: one fleet shard until `shutdown` (or death).
fn run_shard(args: &Args, addr: &str, obs: Obs) -> ExitCode {
    let service = Service::with_obs(
        ServeConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            cache_capacity: args.cache,
            record_history: true,
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let hook: Option<JobHook> = args.crash_after.map(|n| {
        Arc::new(move |seen: u64| {
            if seen > n {
                // Deterministic fault injection: die abruptly, mid-protocol,
                // exactly as a crashed shard would.
                eprintln!("{{\"record\": \"crash_injected\", \"after\": {n}}}");
                std::process::exit(3);
            }
        }) as JobHook
    });
    let config = ShardServerConfig {
        name: args.name.clone().unwrap_or_default(),
        hook,
    };
    let server = match ShardServer::spawn(addr, service, config, obs) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{{\"record\": \"listening\", \"addr\": \"{}\", \"shard\": {}}}",
        server.addr(),
        json::quote(server.name())
    );
    let name = server.name().to_owned();
    let stats = server.wait();
    let body = stats_body_json(&stats.queue, &stats.jobs, &stats.cache, &stats.replan);
    eprintln!(
        "{{\"record\": \"stats\", \"shard\": {}, {body}}}",
        json::quote(&name)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let obs = match &args.trace {
        Some(path) => match Obs::jsonl(path) {
            Ok(obs) => obs,
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Obs::disabled(),
    };

    if let Some(addr) = args.listen.clone() {
        return run_shard(&args, &addr, obs);
    }

    let input: Box<dyn BufRead> = match &args.input {
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(e) => {
                eprintln!("cannot open input file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };

    // Parse every line up front; malformed lines become terminal "invalid"
    // responses without costing a queue slot. Lines with a "record" field
    // are replanning session records: kept verbatim here and executed
    // synchronously at output time, so they run in input order relative
    // to each other while plain jobs still fan out across the pool.
    enum Entry {
        Job(Box<JobRequest>),
        Invalid(String, String),
        Replan { line: String, label: String },
    }
    let mut order: Vec<Entry> = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("read error on line {lineno}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let label = format!("line {lineno}");
        let parsed = json::parse(&line).map_err(|e| format!("{label}: {e}"));
        if parsed.as_ref().is_ok_and(|v| v.get("record").is_some()) {
            order.push(Entry::Replan { line, label });
            continue;
        }
        match parsed.and_then(|value| request_from_value(&value, &label, Origin::Local)) {
            Ok(request) => order.push(Entry::Job(Box::new(request))),
            Err(message) => order.push(Entry::Invalid(format!("line-{lineno}"), message)),
        }
    }

    let mut service = Service::with_obs(
        ServeConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            cache_capacity: args.cache,
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let mut replan = ReplanManager::new(ReplanConfig::default(), Origin::Local, obs);

    // Submit every job up front, then collect in input order; session
    // records execute inline during collection.
    enum Pending {
        Job(Result<etcs_serve::JobTicket, etcs_serve::JobResponse>),
        Invalid(String, String),
        Replan { line: String, label: String },
    }
    let handles: Vec<Pending> = order
        .into_iter()
        .map(|entry| match entry {
            Entry::Job(request) => Pending::Job(service.submit(*request)),
            Entry::Invalid(id, message) => Pending::Invalid(id, message),
            Entry::Replan { line, label } => Pending::Replan { line, label },
        })
        .collect();

    let mut output: Box<dyn Write> = match &args.output {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Box::new(std::io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("cannot create output file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };

    let mut failed = false;
    for handle in handles {
        let line = match handle {
            Pending::Invalid(id, message) => {
                failed = true;
                format!(
                    "{{\"id\": {}, \"status\": \"invalid\", \"reason\": {}}}",
                    json::quote(&id),
                    json::quote(&message)
                )
            }
            Pending::Job(submitted) => {
                let response = match submitted {
                    Ok(ticket) => ticket.wait(),
                    Err(rejected) => rejected,
                };
                let (line, line_failed) = response_line(&response);
                failed = failed || line_failed;
                line
            }
            Pending::Replan { line, label } => {
                let (line, line_failed) = replan.handle(&line, &label);
                failed = failed || line_failed;
                line
            }
        };
        if let Err(e) = writeln!(output, "{line}") {
            eprintln!("write error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = output.flush() {
        eprintln!("write error: {e}");
        return ExitCode::FAILURE;
    }

    print_stats_record(None, &service, &replan.stats());
    service.shutdown();

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
