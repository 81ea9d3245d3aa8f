//! The `served` batch reader end to end: job lines, replan session
//! records (one of them also carrying job fields) and malformed lines in
//! one input come back in input order, each with the answer pinned below.
//! Every field but `wall_ms` is compared byte for byte.

use std::io::Write;
use std::process::{Command, Stdio};

const INPUT: &str = r#"{"id": "verify-ttd", "kind": "verify", "scenario": "fixture:running_example"}
{"record": "open", "session": "s1", "scenario": "fixture:running_example"}
not json at all

{"id": "truncated", "kind": "generate"
{"record": "tick", "session": "s1"}
{"id": "bad-kind", "kind": "nope", "scenario": "fixture:running_example"}
{"record": "delta", "session": "s1", "delta": "deadline Train 1 : arr 0:04:00"}
{"id": "generate", "kind": "generate", "scenario": "fixture:running_example"}
[1, 2, 3]
{"record": "tick", "session": "s1"}
{"record": "close", "session": "s1", "id": "looks-like-a-job", "kind": "verify", "scenario": "fixture:running_example"}
{"record": "tick", "session": "missing"}
{"id": "verify-again", "kind": "verify", "scenario": "fixture:running_example"}
{"kind": "diagnose", "scenario": "fixture:running_example", "layout": "pure_ttd"}
"#;

/// The output with every `"wall_ms": N` written as `"wall_ms": 0`.
const EXPECTED: &str = r#"{"id": "verify-ttd", "status": "done", "cache": "miss", "wall_ms": 0, "payload": {"kind": "verify", "feasible": false, "solver_calls": 1, "conflicts": 348, "digest": "f84e05324fae162fc8f8075c90b8a89b", "verdict_digest": "030137bcb133ab610084062a19e16606"}}
{"record": "opened", "session": "s1", "trains": 4}
{"id": "line-3", "status": "invalid", "reason": "line 3: JSON error at byte 0: expected null"}
{"id": "line-5", "status": "invalid", "reason": "line 5: JSON error at byte 38: expected ',' or '}' in object"}
{"record": "ticked", "session": "s1", "tick": 1, "warm": false, "stale": false, "feasible": true, "costs": [9, 3], "conflicts": 739, "solver_calls": 11, "late_trains": [], "verdict_digest": "ccf6a7b2a83211775537926edae0224a"}
{"id": "line-7", "status": "invalid", "reason": "line 7: unknown kind \"nope\""}
{"record": "delta_ok", "session": "s1", "applied": ["deadline"]}
{"id": "generate", "status": "done", "cache": "miss", "wall_ms": 0, "payload": {"kind": "generate", "feasible": true, "costs": [1], "borders": 1, "trains": 4, "solver_calls": 8, "conflicts": 433, "digest": "ce9498741f15a3105c30f4c5883a154c", "verdict_digest": "7b5b80c9f46fc6b3d7fba9723e4a4b16"}}
{"id": "line-10", "status": "invalid", "reason": "line 10: missing \"kind\""}
{"record": "ticked", "session": "s1", "tick": 2, "warm": true, "stale": false, "feasible": true, "costs": [9, 3], "conflicts": 0, "solver_calls": 0, "late_trains": [], "verdict_digest": "ccf6a7b2a83211775537926edae0224a"}
{"record": "closed", "session": "s1", "replan": {"ticks": 2, "warm_hits": 1, "cold_fallbacks": 1, "deadline_misses": 0, "deltas": 1, "rejected_deltas": 0}}
{"record": "error", "session": "missing", "reason": "line 13: unknown session"}
{"id": "verify-again", "status": "done", "cache": "hit", "wall_ms": 0, "payload": {"kind": "verify", "feasible": false, "solver_calls": 1, "conflicts": 348, "digest": "f84e05324fae162fc8f8075c90b8a89b", "verdict_digest": "030137bcb133ab610084062a19e16606"}}
{"id": "line-15", "status": "done", "cache": "miss", "wall_ms": 0, "payload": {"kind": "diagnose", "feasible": false, "diagnosis": "structural", "solver_calls": 2, "conflicts": 723, "digest": "8dd2632ba93a9879caccad1ec7e5ab52", "verdict_digest": "ed32246b16e9bb1a9765cf05504c5bc7"}}
"#;

fn zero_wall_times(output: &str) -> String {
    const KEY: &str = "\"wall_ms\": ";
    let mut out = String::with_capacity(output.len());
    let mut rest = output;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn mixed_batch_gets_its_pinned_answers() {
    let mut served = Command::new(env!("CARGO_BIN_EXE_served"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("served starts");
    served
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(INPUT.as_bytes())
        .expect("input written");
    let output = served.wait_with_output().expect("served exits");
    assert_eq!(
        output.status.code(),
        Some(1),
        "invalid lines make the batch fail"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(zero_wall_times(&stdout), EXPECTED);
}
