//! `fleetd` — the fleet frontend over `served --listen` shards.
//!
//! Reads one JSON job request per line (the exact `served` line format,
//! from `--input FILE` or stdin), routes each job to a shard by its
//! canonical cache fingerprint, and writes one response per line (to
//! `--output FILE` or stdout) in input order — byte-identical to what a
//! single-process `served` would have produced for the same outcomes.
//! Shards refuse `file:` scenarios from the wire, so `fleetd` reads a
//! `file:PATH` spec itself and forwards the file's text as `rail:TEXT`.
//!
//! ```text
//! fleetd --shard 127.0.0.1:47411 --shard 127.0.0.1:47412 \
//!        --input jobs.jsonl --output out.jsonl --replicas 1 \
//!        --check-histories --shutdown-shards
//! ```
//!
//! * `--shard ADDR` (repeatable) or `--shards A,B,…` — the shard set.
//! * `--replicas N` — copies of each completed cold solve pushed to the
//!   next-ranked shards (default 1).
//! * `--streams N` — concurrent connections per shard (default 2).
//! * `--lazy` — the same job default as `served`, applied when computing
//!   routing fingerprints; start the shards with the same flag so their
//!   keys agree (routing stays correct either way — the shard's own key
//!   is authoritative).
//! * `--check-histories` — after the batch (or standalone, with no
//!   `--input` on a tty-less stdin use `--no-jobs`), fetch every shard's
//!   recorded cache history and run the dbcop-style consistency checker;
//!   a violation fails the process.
//! * `--shutdown-shards` — drain and stop the shards on the way out.
//!
//! On exit, one machine-readable summary on stderr:
//!
//! ```json
//! {"record": "fleet_stats", "jobs": 51, "done": 51, "errors": 0,
//!  "cache_hits": 40, "shards_alive": 2}
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use etcs_fleet::wire::parse_forwarded_line;
use etcs_fleet::{consistency, Fleet, FleetConfig, FleetJob};
use etcs_obs::json;
use etcs_obs::Obs;

struct Args {
    shards: Vec<String>,
    input: Option<String>,
    output: Option<String>,
    trace: Option<String>,
    replicas: usize,
    streams: usize,
    lazy: bool,
    check_histories: bool,
    shutdown_shards: bool,
    no_jobs: bool,
}

const USAGE: &str = "usage: fleetd --shard ADDR [--shard ADDR …] [--shards A,B,…] \
[--input FILE] [--output FILE] [--trace FILE] [--replicas N] [--streams N] \
[--lazy] [--check-histories] [--shutdown-shards] [--no-jobs]\n\
Routes served-format JSONL jobs across a fleet of `served --listen` shards\n\
by canonical cache fingerprint (rendezvous hashing), replicates completed\n\
cache entries, survives shard loss, and can audit the fleet's recorded\n\
cache histories with a dbcop-style consistency check.\n\
--no-jobs skips reading a batch entirely (for standalone --check-histories\n\
or --shutdown-shards runs).";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        shards: Vec::new(),
        input: None,
        output: None,
        trace: None,
        replicas: 1,
        streams: 2,
        lazy: false,
        check_histories: false,
        shutdown_shards: false,
        no_jobs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--shard" => args.shards.push(value("--shard")?),
            "--shards" => args.shards.extend(
                value("--shards")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned),
            ),
            "--input" => args.input = Some(value("--input")?),
            "--output" => args.output = Some(value("--output")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--replicas" => {
                args.replicas = value("--replicas")?
                    .parse()
                    .map_err(|_| "--replicas must be an integer".to_string())?
            }
            "--streams" => {
                args.streams = value("--streams")?
                    .parse()
                    .map_err(|_| "--streams must be a positive integer".to_string())?
            }
            "--lazy" => args.lazy = true,
            "--check-histories" => args.check_histories = true,
            "--shutdown-shards" => args.shutdown_shards = true,
            "--no-jobs" => args.no_jobs = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.shards.is_empty() {
        return Err(format!("at least one --shard is required\n{USAGE}"));
    }
    Ok(args)
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

    let fleet = match Fleet::connect(
        FleetConfig {
            shards: args.shards.clone(),
            replicas: args.replicas,
            streams: args.streams,
            ..FleetConfig::default()
        },
        obs.clone(),
    ) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("fleetd: {e}");
            return ExitCode::FAILURE;
        }
    };

    let encoder = etcs_core::EncoderConfig::default();

    let mut failed = false;
    let mut jobs_total = 0usize;
    let mut jobs_done = 0usize;
    let mut jobs_errored = 0usize;
    let mut cache_hits = 0usize;

    if !args.no_jobs {
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

        // Parse and fingerprint every line up front; malformed lines are
        // answered locally (same text a single-process `served` emits)
        // and never reach a shard. Shards refuse `file:` scenarios, so a
        // `file:PATH` line is forwarded with the file's text inline.
        let mut lines: Vec<Option<String>> = Vec::new(); // slot per input line
        let mut jobs: Vec<FleetJob> = Vec::new();
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
            let index = lines.len();
            match parse_forwarded_line(&line, &format!("line {lineno}"), args.lazy) {
                Ok((request, spec)) => {
                    let key = request.cache_key(&encoder);
                    lines.push(None);
                    jobs.push(FleetJob {
                        index,
                        id: request.id,
                        spec,
                        key,
                    });
                }
                Err(message) => {
                    failed = true;
                    lines.push(Some(format!(
                        "{{\"id\": \"line-{lineno}\", \"status\": \"invalid\", \"reason\": {}}}",
                        json::quote(&message)
                    )));
                }
            }
        }
        jobs_total = lines.len();

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

        // Ordered incremental output: emit the contiguous prefix of
        // finished slots as results land, in input order.
        let mut next = 0usize;
        let mut write_failed = false;
        {
            let mut flush_ready = |lines: &mut Vec<Option<String>>| {
                while next < lines.len() {
                    let Some(line) = lines[next].take() else {
                        break;
                    };
                    if writeln!(output, "{line}").is_err() {
                        write_failed = true;
                    }
                    next += 1;
                }
            };
            flush_ready(&mut lines);
            let results = fleet.run_batch(jobs, |result| {
                lines[result.index] = Some(result.line.clone());
                if result.failed {
                    failed = true;
                }
                match result.status.as_str() {
                    "done" => jobs_done += 1,
                    "error" => jobs_errored += 1,
                    _ => {}
                }
                if result.cache_hit {
                    cache_hits += 1;
                }
                flush_ready(&mut lines);
            });
            if results.len() + lines.iter().filter(|l| l.is_some()).count() < jobs_total {
                // Defensive: run_batch promises one result per job.
                failed = true;
            }
            flush_ready(&mut lines);
        }
        if output.flush().is_err() || write_failed {
            eprintln!("write error on output");
            return ExitCode::FAILURE;
        }
    }

    if args.check_histories {
        // Settle: replication `put`s race the end of the batch only in
        // theory (they complete before the job's result is sent), but the
        // fetch must see a quiescent fleet.
        std::thread::sleep(Duration::from_millis(50));
        match fleet.fetch_histories() {
            Ok(histories) => match consistency::check(&histories) {
                Ok(report) => {
                    eprintln!(
                        "{{\"record\": \"consistency\", \"verdict\": \"ok\", \"shards\": {}, \
                         \"events\": {}, \"keys\": {}, \"puts\": {}, \"hits\": {}, \
                         \"replicated_keys\": {}}}",
                        report.shards,
                        report.events,
                        report.keys,
                        report.puts,
                        report.hits,
                        report.replicated_keys
                    );
                }
                Err(violation) => {
                    failed = true;
                    eprintln!(
                        "{{\"record\": \"consistency\", \"verdict\": \"violation\", \
                         \"detail\": {}}}",
                        json::quote(&violation.to_string())
                    );
                }
            },
            Err(e) => {
                failed = true;
                eprintln!("fleetd: cannot fetch histories: {e}");
            }
        }
    }

    if args.shutdown_shards {
        fleet.shutdown_shards();
    }

    obs.flush_metrics();
    obs.flush();
    eprintln!(
        "{{\"record\": \"fleet_stats\", \"jobs\": {jobs_total}, \"done\": {jobs_done}, \
         \"errors\": {jobs_errored}, \"cache_hits\": {cache_hits}, \"shards_alive\": {}}}",
        fleet.alive_addrs().len()
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
