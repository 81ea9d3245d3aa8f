//! The per-request `lazy` switch as `served` reads it: a job line or a
//! replan `open` record with `"lazy": true` runs the lazy CEGAR loop,
//! `false` or no field runs eagerly, and any other value is refused with
//! a reply that names the field — in a batch and on a shard, which keys
//! every line as a `fleetd` frontend does.

use etcs_core::EncoderConfig;
use etcs_obs::json::{self, Json};
use etcs_obs::{EventKind, Obs};
use etcs_replan::ReplanConfig;
use etcs_sat::Interrupt;
use etcs_serve::wire::{
    parse_forwarded_line, parse_request, Origin, ShardClient, ShardServer, ShardServerConfig,
};
use etcs_serve::{execute, JobPayload, ReplanManager, ServeConfig, Service};

/// The values a `lazy` field may take, as line suffixes, with whether
/// each one asks for the lazy loop.
const SWITCHES: [(&str, bool); 3] = [
    ("", false),
    (r#", "lazy": false"#, false),
    (r#", "lazy": true"#, true),
];

/// Values that are not booleans, including the strategy names lines once
/// carried.
const MISTYPED: [&str; 5] = [r#""all-violated""#, r#""true""#, "1", "0", "null"];

fn job_line(kind: &str, suffix: &str) -> String {
    format!(
        r#"{{"id": "{kind}", "kind": "{kind}", "scenario": "fixture:running_example"{suffix}}}"#
    )
}

/// Runs one job line traced; returns its payload and the names of the
/// task spans it opened.
fn run_line(line: &str) -> (JobPayload, Vec<String>) {
    let request = parse_request(line, "line 1", Origin::Local).expect("valid line");
    let (obs, sink) = Obs::memory();
    let outcome = execute(
        &request,
        &EncoderConfig::default(),
        &Interrupt::none(),
        &obs,
    );
    let payload = outcome.payload().expect("solves").clone();
    let tasks = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanOpen && e.name.starts_with("task."))
        .map(|e| e.name.to_string())
        .collect();
    (payload, tasks)
}

#[test]
fn job_lines_run_lazy_exactly_when_the_field_is_true() {
    for kind in ["verify", "generate", "optimize", "optimize_incremental"] {
        let mut verdicts = Vec::new();
        for (suffix, lazy) in SWITCHES {
            let line = job_line(kind, suffix);
            let (payload, tasks) = run_line(&line);
            let lazy_spans = tasks.iter().filter(|t| t.ends_with("_lazy")).count();
            assert_eq!(
                lazy_spans,
                usize::from(lazy),
                "{line}: task spans {tasks:?}"
            );
            assert_eq!(tasks.len(), 1, "{line}: one task span, got {tasks:?}");
            verdicts.push(payload.verdict_digest());
        }
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "{kind}: eager and lazy verdicts differ"
        );
    }
    // Diagnosis has no lazy form: `"lazy": true` still runs it eagerly.
    let (_, tasks) = run_line(&job_line("diagnose", r#", "lazy": true"#));
    assert!(tasks.iter().all(|t| !t.ends_with("_lazy")), "{tasks:?}");
}

#[test]
fn mistyped_lazy_fields_are_refused_by_name() {
    let mut manager = ReplanManager::new(ReplanConfig::default(), Origin::Local, Obs::disabled());
    for value in MISTYPED {
        let line = job_line("generate", &format!(r#", "lazy": {value}"#));
        let err = parse_request(&line, "line 3", Origin::Local).expect_err("refused");
        assert!(
            err.starts_with("line 3: ") && err.contains(r#""lazy""#),
            "{line}: {err}"
        );

        let open = format!(
            r#"{{"record": "open", "session": "s", "scenario": "fixture:running_example", "lazy": {value}}}"#
        );
        let (reply, failed) = manager.handle(&open, "line 4");
        assert!(failed, "{open}: {reply}");
        let reply = json::parse(&reply).expect("a JSON reply");
        assert_eq!(reply.get("record").and_then(Json::as_str), Some("error"));
        let reason = reply.get("reason").and_then(Json::as_str).expect("reason");
        assert!(reason.contains(r#""lazy""#), "{open}: {reason}");
    }
    // No refused record opened a session.
    let (reply, failed) = manager.handle(r#"{"record": "tick", "session": "s"}"#, "line 5");
    assert!(failed && reply.contains("unknown session"), "{reply}");
}

#[test]
fn open_records_tick_lazily_and_cold_exactly_when_the_field_is_true() {
    for (suffix, lazy) in SWITCHES {
        let (obs, sink) = Obs::memory();
        let mut manager = ReplanManager::new(ReplanConfig::default(), Origin::Local, obs);
        let records = [
            format!(
                r#"{{"record": "open", "session": "s", "scenario": "fixture:running_example"{suffix}}}"#
            ),
            r#"{"record": "tick", "session": "s"}"#.to_owned(),
            r#"{"record": "delta", "session": "s", "delta": "deadline Train 1 : arr 0:04:00"}"#
                .to_owned(),
            r#"{"record": "tick", "session": "s"}"#.to_owned(),
        ];
        let mut ticks = Vec::new();
        for (i, record) in records.iter().enumerate() {
            let (reply, failed) = manager.handle(record, &format!("line {}", i + 1));
            assert!(!failed, "{record}: {reply}");
            let reply = json::parse(&reply).expect("a JSON reply");
            if reply.get("record").and_then(Json::as_str) == Some("ticked") {
                ticks.push(reply);
            }
        }
        let warm: Vec<bool> = ticks
            .iter()
            .map(|t| t.get("warm") == Some(&Json::Bool(true)))
            .collect();
        // Eager sessions answer the deadline-only delta from the first
        // tick's core; lazy sessions re-solve every tick cold.
        assert_eq!(warm, [false, !lazy], "open record {suffix:?}");
        let lazy_tasks = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen && e.name == "task.optimize_lazy")
            .count();
        assert_eq!(lazy_tasks, if lazy { 2 } else { 0 }, "{suffix:?}");
    }
}

#[test]
fn a_shard_keys_lazy_lines_as_the_frontend_does_and_refuses_mistyped_ones() {
    let service = Service::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let server = ShardServer::spawn(
        "127.0.0.1:0",
        service,
        ShardServerConfig::default(),
        Obs::disabled(),
    )
    .expect("bind a loopback port");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");
    let config = EncoderConfig::default();
    for (suffix, lazy) in SWITCHES {
        let line = job_line("verify", suffix);
        let (request, _) = parse_forwarded_line(&line, "line 1").expect("valid line");
        assert_eq!(request.lazy, lazy, "{line}");
        let done = client.job(&line).expect("answered");
        assert_eq!(done.status, "done", "{line}");
        assert_eq!(done.key, Some(request.cache_key(&config)), "{line}");
    }
    for value in MISTYPED {
        let line = job_line("verify", &format!(r#", "lazy": {value}"#));
        assert!(parse_forwarded_line(&line, "line 1").is_err(), "{line}");
        let done = client.job(&line).expect("answered");
        assert_eq!(done.status, "invalid", "{line}");
        let response = json::parse(&done.response).expect("a JSON response");
        let reason = response
            .get("reason")
            .and_then(Json::as_str)
            .expect("reason");
        assert!(reason.contains(r#""lazy""#), "{line}: {reason}");

        let open = format!(
            r#"{{"record": "open", "session": "s", "scenario": "fixture:running_example", "lazy": {value}}}"#
        );
        let reply = client.replan(&open).expect("answered");
        let reply = json::parse(&reply).expect("a JSON reply");
        assert_eq!(reply.get("record").and_then(Json::as_str), Some("error"));
        let reason = reply.get("reason").and_then(Json::as_str).expect("reason");
        assert!(reason.contains(r#""lazy""#), "{open}: {reason}");
    }
    client.shutdown().expect("bye");
    server.wait();
}
