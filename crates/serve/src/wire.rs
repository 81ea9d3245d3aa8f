//! The fleet wire protocol: a dependency-free, versioned, line-framed
//! JSONL-over-TCP job protocol (`std::net` only).
//!
//! One JSON object per `\n`-terminated line, in both directions. Every
//! connection starts with an explicit handshake: the client sends
//! `{"type": "hello", "proto": 1, "cache_key": "etcs-cache-key-v5"}` and
//! the server answers `hello_ok` (echoing its own versions and shard name)
//! or `hello_err` — two processes may only exchange jobs and cache entries
//! when **both** the protocol version and the cache-key version agree,
//! because a replicated payload is addressed by its fingerprint and a
//! fingerprint only means the same thing under the same
//! [`etcs_core::CACHE_KEY_VERSION`].
//!
//! After the handshake the client drives a strict request/response cycle:
//!
//! | request                          | response                          |
//! |----------------------------------|-----------------------------------|
//! | `{"type":"job","spec":"<line>"}` | `{"type":"done", …}`              |
//! | `{"type":"put","key","payload"}` | `{"type":"put_ok","digest"}`      |
//! | `{"type":"replan","line":"<rec>"}`| `{"type":"replan_done", …}`      |
//! | `{"type":"histories"}`           | `{"type":"histories", …}`         |
//! | `{"type":"stats"}`               | `{"type":"stats", …}`             |
//! | `{"type":"shutdown"}`            | `{"type":"bye"}` (server drains)  |
//!
//! `spec` carries one `served`-format request line verbatim (a JSON string
//! containing the JSON object), so shard and frontend parse requests with
//! the same code path. A `replan` frame likewise carries one `served`
//! batch session record (`open`/`delta`/`tick`/`close`, see
//! [`crate::replan`]) and answers the record's response line verbatim —
//! the shard keeps the replanning session (and its warm cores)
//! alive across frames on any connection. A `done` response carries the shard's standard
//! response line (written verbatim by the frontend, which is what makes
//! fleet output bit-identical to single-process output), the job's
//! fingerprint, and — for completed jobs — the full payload in wire form
//! so the frontend can replicate the cache entry to other shards.
//!
//! Malformed input never panics and never wedges a connection: the server
//! answers `{"type":"error","reason":…}` and keeps reading (line framing
//! is self-synchronising), while client-side decoding failures surface as
//! typed [`WireError`]s.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use etcs_core::{Diagnosis, EncodingStats, SolvedPlan, TrainPlan};
use etcs_lazy::SelectionStrategy;
use etcs_network::{fixtures, parse_scenario, EdgeId, NodeId, Scenario, TrainId, VssLayout};
use etcs_obs::json::{self, Json};
use etcs_obs::Obs;
use etcs_sat::Stats;

use etcs_replan::{ReplanConfig, ReplanStats};

use crate::cache::CacheStats;
use crate::history::{HistoryEvent, HistoryOp, ShardHistory};
use crate::job::{JobKind, JobOutcome, JobPayload, JobRequest, JobResponse, Priority};
use crate::queue::QueueStats;
use crate::replan::{replan_stats_json, ReplanManager};
use crate::service::{Service, TerminalStats};

/// The protocol version spoken by this build. Bump on any wire-visible
/// change to message shapes or semantics.
pub const PROTO_VERSION: u64 = 1;

/// Upper bound on one frame (a payload with full train plans is large but
/// bounded; an unterminated garbage stream must not grow memory forever).
const MAX_LINE: usize = 64 * 1024 * 1024;

/// Typed failure of a wire operation. Every protocol-level problem —
/// malformed frames, truncated JSON, version mismatches, peers vanishing
/// mid-job — maps to a variant here; nothing panics and nothing hangs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The underlying socket failed (connect/read/write).
    Io(String),
    /// The peer closed the connection (EOF, possibly mid-frame).
    Closed,
    /// A frame exceeded the 64 MiB frame bound.
    Oversized {
        /// The configured frame bound, in bytes.
        limit: usize,
    },
    /// A frame was not the JSON the protocol requires at this point.
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The handshake was refused for a non-version reason.
    Handshake {
        /// The server's stated reason.
        reason: String,
    },
    /// The peers disagree on a version the protocol requires to match.
    VersionMismatch {
        /// Which version field disagreed (`proto` or `cache_key`).
        field: &'static str,
        /// Our side's value.
        ours: String,
        /// The peer's value.
        theirs: String,
    },
    /// The server answered `{"type":"error"}` to a request.
    Remote {
        /// The server's stated reason.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Oversized { limit } => write!(f, "frame exceeds {limit} bytes"),
            WireError::Malformed { message } => write!(f, "malformed frame: {message}"),
            WireError::Handshake { reason } => write!(f, "handshake refused: {reason}"),
            WireError::VersionMismatch {
                field,
                ours,
                theirs,
            } => write!(f, "{field} version mismatch: ours {ours}, peer {theirs}"),
            WireError::Remote { reason } => write!(f, "server error: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::Malformed {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (`line` must not contain `\n`).
fn write_frame(w: &mut impl Write, line: &str) -> Result<(), WireError> {
    debug_assert!(!line.contains('\n'), "frames are single lines");
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary; EOF in the
/// middle of a frame is [`WireError::Closed`] (a truncated frame must never
/// be parsed as if it were complete).
fn read_frame(r: &mut impl BufRead) -> Result<Option<String>, WireError> {
    let mut buf = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(WireError::Closed)
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&chunk[..pos]);
                r.consume(pos + 1);
                let line =
                    String::from_utf8(buf).map_err(|_| malformed("frame is not valid UTF-8"))?;
                return Ok(Some(line));
            }
            None => {
                buf.extend_from_slice(chunk);
                let len = chunk.len();
                r.consume(len);
                if buf.len() > MAX_LINE {
                    return Err(WireError::Oversized { limit: MAX_LINE });
                }
            }
        }
    }
}

fn parse_frame(line: &str) -> Result<Json, WireError> {
    json::parse(line).map_err(|e| malformed(e.to_string()))
}

fn frame_type(v: &Json) -> Result<&str, WireError> {
    v.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("frame has no \"type\""))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, WireError> {
    match v.get(key).and_then(Json::as_f64) {
        Some(n) if n.fract() == 0.0 && n >= 0.0 => Ok(n as u64),
        _ => Err(malformed(format!("missing or non-integer \"{key}\""))),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(format!("missing string \"{key}\"")))
}

fn hex_u128(s: &str) -> Result<u128, WireError> {
    u128::from_str_radix(s, 16).map_err(|_| malformed(format!("bad 128-bit hex {s:?}")))
}

// ---------------------------------------------------------------------------
// Request-line parsing (shared by `served` and `fleetd`)
// ---------------------------------------------------------------------------

/// Where a request line or session record came from. It decides whether
/// its `scenario` spec may name a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// This host's own input: a `served` batch, or the lines `fleetd`
    /// reads. `file:PATH` reads the `.rail` file at `PATH`.
    Local,
    /// A network peer: a shard's `job` and `replan` frames. `file:` is
    /// invalid here, so that no peer can make a shard read its files.
    Peer,
}

/// Resolves a request `scenario` spec: `fixture:NAME`, `file:PATH` (only
/// from [`Origin::Local`]), or `rail:TEXT`.
///
/// # Errors
///
/// A human-readable message naming the unknown fixture, unreadable file or
/// parse failure, or saying that a peer may not name a file.
pub fn load_scenario(spec: &str, origin: Origin) -> Result<Scenario, String> {
    if let Some(name) = spec.strip_prefix("fixture:") {
        match name {
            "running_example" => Ok(fixtures::running_example()),
            "simple_layout" => Ok(fixtures::simple_layout()),
            "complex_layout" => Ok(fixtures::complex_layout()),
            "nordlandsbanen" => Ok(fixtures::nordlandsbanen()),
            "convoy" => Ok(fixtures::convoy()),
            other => Err(format!("unknown fixture {other:?}")),
        }
    } else if let Some(path) = spec.strip_prefix("file:") {
        read_scenario_file(path, origin).map(|(scenario, _)| scenario)
    } else if let Some(text) = spec.strip_prefix("rail:") {
        parse_scenario(text).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "scenario must start with fixture:, file: or rail: (got {spec:?})"
        ))
    }
}

/// A `file:PATH` scenario and the text it was parsed from, read only for
/// local input.
fn read_scenario_file(path: &str, origin: Origin) -> Result<(Scenario, String), String> {
    if origin == Origin::Peer {
        return Err(
            "file: scenarios are read only from local input; send the .rail text as rail:TEXT"
                .to_string(),
        );
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = parse_scenario(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((scenario, text))
}

/// Resolves a request `layout` spec: `pure_ttd`, `full`, or
/// `borders:i,j,…`.
///
/// # Errors
///
/// A human-readable message for unknown specs or bad border indices.
pub fn load_layout(spec: &str, scenario: &Scenario) -> Result<VssLayout, String> {
    if spec == "pure_ttd" {
        Ok(VssLayout::pure_ttd())
    } else if spec == "full" {
        let net = scenario.discretise().map_err(|e| e.to_string())?;
        Ok(VssLayout::full(&net))
    } else if let Some(list) = spec.strip_prefix("borders:") {
        let mut nodes = Vec::new();
        for part in list.split(',').filter(|p| !p.is_empty()) {
            let index: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("bad border index {part:?}"))?;
            nodes.push(NodeId::from_index(index));
        }
        Ok(VssLayout::with_borders(nodes))
    } else {
        Err(format!(
            "layout must be pure_ttd, full or borders:i,j,… (got {spec:?})"
        ))
    }
}

/// [`parse_request`] for [`Origin::Local`] input, under the old
/// four-parameter signature.
///
/// The last argument was the service-wide default width of the deleted
/// clause-sharing portfolio; it is ignored. New code calls
/// [`parse_request`].
///
/// # Errors
///
/// As [`parse_request`].
pub fn parse_request_line(
    line: &str,
    label: &str,
    lazy_default: bool,
    _ignored: Option<usize>,
) -> Result<JobRequest, String> {
    parse_request(line, label, Origin::Local, lazy_default)
}

/// Parses one `served`-format request line from `origin` into a
/// [`JobRequest`]. `label` prefixes error messages (`"line 7"`, `"job"`,
/// …); `lazy_default` is the service-wide CLI default applied to lines
/// without their own `lazy` field. A `file:PATH` scenario is read from
/// [`Origin::Local`] input and invalid from [`Origin::Peer`]. Fields the
/// parser does not know are ignored.
///
/// # Errors
///
/// A human-readable message for malformed JSON, unknown field values, and
/// a peer's `file:` spec.
pub fn parse_request(
    line: &str,
    label: &str,
    origin: Origin,
    lazy_default: bool,
) -> Result<JobRequest, String> {
    let value = json::parse(line).map_err(|e| format!("{label}: {e}"))?;
    request_from_json(&value, label, lazy_default, |spec| {
        load_scenario(spec, origin)
    })
}

/// Parses a local request line that is to be forwarded to a shard, which
/// refuses `file:` scenarios. A `file:PATH` spec is read here, once, and
/// the returned line carries its text inline as `rail:TEXT`; any other
/// line is returned as it came. The request is the one [`parse_request`]
/// gives for [`Origin::Local`], with the same error messages.
///
/// # Errors
///
/// As [`parse_request`].
pub fn parse_forwarded_line(
    line: &str,
    label: &str,
    lazy_default: bool,
) -> Result<(JobRequest, String), String> {
    let mut value = json::parse(line).map_err(|e| format!("{label}: {e}"))?;
    let mut inlined = None;
    let request = request_from_json(&value, label, lazy_default, |spec| {
        let Some(path) = spec.strip_prefix("file:") else {
            return load_scenario(spec, Origin::Local);
        };
        let (scenario, text) = read_scenario_file(path, Origin::Local)?;
        inlined = Some(text);
        Ok(scenario)
    })?;
    let Some(text) = inlined else {
        return Ok((request, line.to_owned()));
    };
    if let Json::Obj(members) = &mut value {
        if let Some((_, spec)) = members.iter_mut().find(|(key, _)| key == "scenario") {
            *spec = Json::Str(format!("rail:{text}"));
        }
    }
    Ok((request, value.to_string()))
}

/// The fields of a parsed request line; `load` resolves the `scenario`
/// spec.
fn request_from_json(
    value: &Json,
    label: &str,
    lazy_default: bool,
    load: impl FnOnce(&str) -> Result<Scenario, String>,
) -> Result<JobRequest, String> {
    let str_field = |key: &str| value.get(key).and_then(Json::as_str);
    let id = str_field("id")
        .map(str::to_owned)
        .unwrap_or_else(|| label.replace(' ', "-"));
    let kind_name = str_field("kind").ok_or_else(|| format!("{label}: missing \"kind\""))?;
    let kind =
        JobKind::parse(kind_name).ok_or_else(|| format!("{label}: unknown kind {kind_name:?}"))?;
    let scenario_spec =
        str_field("scenario").ok_or_else(|| format!("{label}: missing \"scenario\""))?;
    let scenario = load(scenario_spec).map_err(|e| format!("{label}: {e}"))?;
    let mut request = JobRequest::new(id, kind, scenario);
    if let Some(layout_spec) = str_field("layout") {
        request.layout =
            load_layout(layout_spec, &request.scenario).map_err(|e| format!("{label}: {e}"))?;
    }
    if let Some(priority_name) = str_field("priority") {
        request.priority = Priority::parse(priority_name)
            .ok_or_else(|| format!("{label}: unknown priority {priority_name:?}"))?;
    }
    if let Some(ms) = value.get("deadline_ms").and_then(Json::as_f64) {
        if ms < 0.0 {
            return Err(format!("{label}: deadline_ms must be non-negative"));
        }
        request.deadline = Some(Duration::from_millis(ms as u64));
    }
    if let Some(strategy_name) = str_field("lazy") {
        let strategy = SelectionStrategy::parse(strategy_name)
            .ok_or_else(|| format!("{label}: unknown lazy strategy {strategy_name:?}"))?;
        request.lazy = Some(strategy);
    } else if lazy_default {
        request.lazy = Some(SelectionStrategy::AllViolated);
    }
    Ok(request)
}

// ---------------------------------------------------------------------------
// Response formatting (shared by `served` and the shard server)
// ---------------------------------------------------------------------------

/// The compact response-payload object of a `served` output line.
pub fn payload_json(payload: &JobPayload) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"kind\": {}", json::quote(payload.kind.name())));
    out.push_str(&format!(", \"feasible\": {}", payload.feasible));
    if !payload.costs.is_empty() {
        let costs: Vec<String> = payload.costs.iter().map(u64::to_string).collect();
        out.push_str(&format!(", \"costs\": [{}]", costs.join(", ")));
    }
    if let Some(plan) = &payload.plan {
        out.push_str(&format!(", \"borders\": {}", plan.layout.num_borders()));
        out.push_str(&format!(", \"trains\": {}", plan.plans.len()));
    }
    if let Some(diagnosis) = &payload.diagnosis {
        let summary = match diagnosis {
            Diagnosis::Feasible => "feasible".to_string(),
            Diagnosis::Structural => "structural".to_string(),
            Diagnosis::Conflict { names, .. } => {
                format!("conflict: {}", names.join(", "))
            }
        };
        out.push_str(&format!(", \"diagnosis\": {}", json::quote(&summary)));
    }
    out.push_str(&format!(", \"solver_calls\": {}", payload.solver_calls));
    out.push_str(&format!(", \"conflicts\": {}", payload.search.conflicts));
    out.push_str(&format!(", \"digest\": \"{:032x}\"", payload.digest()));
    out.push_str(&format!(
        ", \"verdict_digest\": \"{:032x}\"",
        payload.verdict_digest()
    ));
    out.push('}');
    out
}

/// Formats one `served`-format response line. Returns the line and whether
/// the outcome counts as a failure for the process exit code.
pub fn response_line(response: &JobResponse) -> (String, bool) {
    let mut failed = false;
    let mut line = format!(
        "{{\"id\": {}, \"status\": {}, \"cache\": {}, \"wall_ms\": {}",
        json::quote(&response.id),
        json::quote(response.outcome.status()),
        json::quote(if response.cache_hit { "hit" } else { "miss" }),
        response.wall.as_millis()
    );
    match &response.outcome {
        JobOutcome::Done(payload) => {
            line.push_str(&format!(", \"payload\": {}", payload_json(payload)));
        }
        JobOutcome::Rejected(reason) => {
            failed = true;
            line.push_str(&format!(
                ", \"reason\": {}",
                json::quote(&reason.to_string())
            ));
        }
        JobOutcome::Invalid(message) | JobOutcome::Failed(message) => {
            failed = true;
            line.push_str(&format!(", \"reason\": {}", json::quote(message)));
        }
        JobOutcome::Cancelled | JobOutcome::DeadlineExceeded => {}
    }
    line.push('}');
    (line, failed)
}

/// The shared `"queue": …, "jobs": …, "cache": …, "replan": …` body of a
/// stats record (used by the `served` shutdown summary and the wire
/// `stats` response).
pub fn stats_body_json(
    queue: &QueueStats,
    jobs: &TerminalStats,
    cache: &CacheStats,
    replan: &ReplanStats,
) -> String {
    format!(
        "\"queue\": {{\"submitted\": {}, \"admitted\": {}, \"rejected\": {}, \"high_water\": {}}}, \
         \"jobs\": {{\"done\": {}, \"cancelled\": {}, \"deadline_exceeded\": {}, \"invalid\": {}, \
         \"failed\": {}}}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}}}, {}",
        queue.submitted,
        queue.admitted,
        queue.rejected,
        queue.high_water,
        jobs.done,
        jobs.cancelled,
        jobs.deadline_exceeded,
        jobs.invalid,
        jobs.failed,
        cache.hits,
        cache.misses,
        cache.insertions,
        cache.evictions,
        replan_stats_json(replan),
    )
}

// ---------------------------------------------------------------------------
// Payload wire codec (full fidelity, for cache replication)
// ---------------------------------------------------------------------------

/// Serialises a complete [`JobPayload`] — including every train's
/// step-by-step positions — so a replica shard can store a bit-identical
/// cache entry. [`payload_from_wire`] inverts this exactly; the round trip
/// preserves [`JobPayload::digest`].
pub fn payload_to_wire(p: &JobPayload) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"kind\": {}", json::quote(p.kind.name())));
    out.push_str(&format!(", \"feasible\": {}", p.feasible));
    let costs: Vec<String> = p.costs.iter().map(u64::to_string).collect();
    out.push_str(&format!(", \"costs\": [{}]", costs.join(",")));
    if let Some(plan) = &p.plan {
        let borders: Vec<String> = plan
            .layout
            .borders()
            .iter()
            .map(|b| b.index().to_string())
            .collect();
        out.push_str(&format!(
            ", \"plan\": {{\"borders\": [{}]",
            borders.join(",")
        ));
        out.push_str(", \"trains\": [");
        for (i, train) in plan.plans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"positions\": [",
                json::quote(&train.name)
            ));
            for (j, step) in train.positions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let edges: Vec<String> = step.iter().map(|e| e.index().to_string()).collect();
                out.push_str(&format!("[{}]", edges.join(",")));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    if let Some(diagnosis) = &p.diagnosis {
        match diagnosis {
            Diagnosis::Feasible => out.push_str(", \"diagnosis\": {\"verdict\": \"feasible\"}"),
            Diagnosis::Structural => out.push_str(", \"diagnosis\": {\"verdict\": \"structural\"}"),
            Diagnosis::Conflict { trains, names } => {
                let ids: Vec<String> = trains.iter().map(|t| t.index().to_string()).collect();
                let quoted: Vec<String> = names.iter().map(|n| json::quote(n)).collect();
                out.push_str(&format!(
                    ", \"diagnosis\": {{\"verdict\": \"conflict\", \"trains\": [{}], \"names\": [{}]}}",
                    ids.join(","),
                    quoted.join(",")
                ));
            }
        }
    }
    out.push_str(&format!(
        ", \"stats\": [{},{},{},{},{}]",
        p.stats.border_vars,
        p.stats.occupies_vars,
        p.stats.nominal_vars,
        p.stats.solver_vars,
        p.stats.clauses
    ));
    out.push_str(&format!(", \"solver_calls\": {}", p.solver_calls));
    out.push_str(&format!(
        ", \"search\": [{},{},{},{},{},{},{},{}]",
        p.search.decisions,
        p.search.propagations,
        p.search.conflicts,
        p.search.restarts,
        p.search.learnt_literals,
        p.search.deleted_clauses,
        p.search.solve_calls,
        p.search.reused_learnts
    ));
    out.push('}');
    out
}

fn wire_u64(v: &Json, what: &str) -> Result<u64, WireError> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as u64),
        _ => Err(malformed(format!("{what} must be a non-negative integer"))),
    }
}

fn wire_u64_list(v: Option<&Json>, what: &str) -> Result<Vec<u64>, WireError> {
    match v {
        Some(Json::Arr(items)) => items.iter().map(|n| wire_u64(n, what)).collect(),
        _ => Err(malformed(format!("{what} must be an array of integers"))),
    }
}

/// Decodes a [`payload_to_wire`] object back into a [`JobPayload`].
///
/// # Errors
///
/// [`WireError::Malformed`] naming the first offending field.
pub fn payload_from_wire(v: &Json) -> Result<JobPayload, WireError> {
    let kind_name = str_field(v, "kind")?;
    let kind = JobKind::parse(kind_name)
        .ok_or_else(|| malformed(format!("unknown payload kind {kind_name:?}")))?;
    let feasible = match v.get("feasible") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(malformed("missing bool \"feasible\"")),
    };
    let costs = wire_u64_list(v.get("costs"), "costs")?;
    let plan = match v.get("plan") {
        None | Some(Json::Null) => None,
        Some(plan) => {
            let borders = wire_u64_list(plan.get("borders"), "plan.borders")?;
            let layout = VssLayout::with_borders(
                borders.into_iter().map(|i| NodeId::from_index(i as usize)),
            );
            let trains = match plan.get("trains") {
                Some(Json::Arr(items)) => items,
                _ => return Err(malformed("plan.trains must be an array")),
            };
            let mut plans = Vec::with_capacity(trains.len());
            for train in trains {
                let name = str_field(train, "name")?.to_owned();
                let steps = match train.get("positions") {
                    Some(Json::Arr(steps)) => steps,
                    _ => return Err(malformed("train.positions must be an array")),
                };
                let mut positions = Vec::with_capacity(steps.len());
                for step in steps {
                    let edges = match step {
                        Json::Arr(edges) => edges,
                        _ => return Err(malformed("a position step must be an array")),
                    };
                    let mut ids = Vec::with_capacity(edges.len());
                    for e in edges {
                        ids.push(EdgeId::from_index(wire_u64(e, "edge index")? as usize));
                    }
                    positions.push(ids);
                }
                plans.push(TrainPlan { name, positions });
            }
            Some(SolvedPlan { layout, plans })
        }
    };
    let diagnosis = match v.get("diagnosis") {
        None | Some(Json::Null) => None,
        Some(d) => Some(match str_field(d, "verdict")? {
            "feasible" => Diagnosis::Feasible,
            "structural" => Diagnosis::Structural,
            "conflict" => {
                let trains = wire_u64_list(d.get("trains"), "diagnosis.trains")?
                    .into_iter()
                    .map(|i| TrainId::from_index(i as usize))
                    .collect();
                let names = match d.get("names") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|n| {
                            n.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| malformed("diagnosis.names must be strings"))
                        })
                        .collect::<Result<Vec<String>, WireError>>()?,
                    _ => return Err(malformed("diagnosis.names must be an array")),
                };
                Diagnosis::Conflict { trains, names }
            }
            other => return Err(malformed(format!("unknown diagnosis verdict {other:?}"))),
        }),
    };
    let stats = wire_u64_list(v.get("stats"), "stats")?;
    if stats.len() != 5 {
        return Err(malformed("stats must have exactly 5 entries"));
    }
    let search = wire_u64_list(v.get("search"), "search")?;
    if search.len() != 8 {
        return Err(malformed("search must have exactly 8 entries"));
    }
    Ok(JobPayload {
        kind,
        feasible,
        costs,
        plan,
        diagnosis,
        stats: EncodingStats {
            border_vars: stats[0] as usize,
            occupies_vars: stats[1] as usize,
            nominal_vars: stats[2] as usize,
            solver_vars: stats[3] as usize,
            clauses: stats[4] as usize,
        },
        solver_calls: u64_field(v, "solver_calls")? as usize,
        search: Stats {
            decisions: search[0],
            propagations: search[1],
            conflicts: search[2],
            restarts: search[3],
            learnt_literals: search[4],
            deleted_clauses: search[5],
            solve_calls: search[6],
            reused_learnts: search[7],
        },
    })
}

// ---------------------------------------------------------------------------
// History wire codec
// ---------------------------------------------------------------------------

fn history_to_wire(shard: &str, events: &[HistoryEvent]) -> String {
    let mut out = format!(
        "{{\"type\": \"histories\", \"shard\": {}, \"cache_key\": {}, \"events\": [",
        json::quote(shard),
        json::quote(etcs_core::CACHE_KEY_VERSION)
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\": {}, \"op\": \"{}\", \"key\": \"{:032x}\", \"digest\": \"{:032x}\"}}",
            e.seq,
            e.op.name(),
            e.key,
            e.digest
        ));
    }
    out.push_str("]}");
    out
}

/// Decodes a `histories` response frame into a [`ShardHistory`].
///
/// # Errors
///
/// [`WireError::Malformed`] naming the first offending field.
pub fn history_from_wire(v: &Json) -> Result<ShardHistory, WireError> {
    let shard = str_field(v, "shard")?.to_owned();
    let version = str_field(v, "cache_key")?.to_owned();
    let items = match v.get("events") {
        Some(Json::Arr(items)) => items,
        _ => return Err(malformed("histories.events must be an array")),
    };
    let mut events = Vec::with_capacity(items.len());
    for item in items {
        let op_name = str_field(item, "op")?;
        let op = HistoryOp::parse(op_name)
            .ok_or_else(|| malformed(format!("unknown history op {op_name:?}")))?;
        events.push(HistoryEvent {
            seq: u64_field(item, "seq")?,
            op,
            key: hex_u128(str_field(item, "key")?)?,
            digest: hex_u128(str_field(item, "digest")?)?,
        });
    }
    Ok(ShardHistory {
        shard,
        version,
        events,
    })
}

// ---------------------------------------------------------------------------
// Shard server
// ---------------------------------------------------------------------------

/// Fault-injection hook: called with the 1-based count of job frames seen
/// so far, *before* the job runs. `served --crash-after N` installs a hook
/// that aborts the whole process — the deterministic "shard killed
/// mid-batch" of the CI fleet smoke.
pub type JobHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Configuration for [`ShardServer::spawn`].
#[derive(Clone, Default)]
pub struct ShardServerConfig {
    /// The shard's self-reported name (defaults to the listen address).
    pub name: String,
    /// Apply the lazy CEGAR default to jobs without their own `lazy` field.
    pub lazy_default: bool,
    /// Optional per-job fault-injection hook.
    pub hook: Option<JobHook>,
}

impl std::fmt::Debug for ShardServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServerConfig")
            .field("name", &self.name)
            .field("lazy_default", &self.lazy_default)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

struct ServerShared {
    name: String,
    service: Service,
    obs: Obs,
    stop: AtomicBool,
    addr: SocketAddr,
    conns: Mutex<Vec<TcpStream>>,
    jobs_seen: AtomicU64,
    lazy_default: bool,
    hook: Option<JobHook>,
    // Replanning sessions live on the *shard*, not the connection: warm
    // solver state survives reconnects as long as the process does.
    replan: Mutex<ReplanManager>,
}

/// Final counters of a drained shard server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServedStats {
    /// Queue backpressure counters.
    pub queue: QueueStats,
    /// Terminal-state counters.
    pub jobs: TerminalStats,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Replanning-session counters (closed and still-open sessions).
    pub replan: ReplanStats,
}

/// A `served` process's socket mode: one worker-pool [`Service`] behind a
/// TCP listener speaking the fleet wire protocol. Connections are handled
/// on their own threads; the listener runs until a `shutdown` frame (or
/// [`ShardServer::kill`]) and then drains the service.
pub struct ShardServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("addr", &self.addr)
            .field("name", &self.shared.name)
            .finish()
    }
}

impl ShardServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting fleet-protocol connections over `service`.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn spawn(
        addr: &str,
        service: Service,
        config: ShardServerConfig,
        obs: Obs,
    ) -> std::io::Result<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let replan = ReplanManager::new(
            ReplanConfig {
                encoder: service.config().encoder,
                lazy: config.lazy_default,
                ..ReplanConfig::default()
            },
            Origin::Peer,
            obs.clone(),
        );
        let shared = Arc::new(ServerShared {
            name: if config.name.is_empty() {
                local.to_string()
            } else {
                config.name
            },
            service,
            obs,
            stop: AtomicBool::new(false),
            addr: local,
            conns: Mutex::new(Vec::new()),
            jobs_seen: AtomicU64::new(0),
            lazy_default: config.lazy_default,
            hook: config.hook,
            replan: Mutex::new(replan),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        shared.conns.lock().expect("conn registry").push(clone);
                    }
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || handle_conn(&shared, stream));
                    handlers.lock().expect("handler registry").push(handle);
                }
            })
        };
        Ok(ShardServer {
            addr: local,
            shared,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (useful with an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard's self-reported name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Abruptly severs the shard: stops accepting and shuts every open
    /// connection's socket, exactly as a killed process would appear to its
    /// peers. The in-process service is drained afterwards by
    /// [`ShardServer::wait`] — the *wire* side is what dies here.
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in self.shared.conns.lock().expect("conn registry").iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the listener stops (a `shutdown` frame or
    /// [`ShardServer::kill`]), joins every connection, drains the service
    /// and returns its final counters.
    pub fn wait(mut self) -> ServedStats {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler registry"));
        for handle in handlers {
            let _ = handle.join();
        }
        ServedStats {
            queue: self.shared.service.queue_stats(),
            jobs: self.shared.service.terminal_stats(),
            cache: self.shared.service.cache_stats().unwrap_or_default(),
            replan: self.shared.replan.lock().expect("replan sessions").stats(),
        }
    }
}

fn handle_conn(shared: &ServerShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    // Handshake first: nothing else is accepted on a virgin connection.
    match read_frame(&mut reader) {
        Ok(Some(line)) => {
            if !handshake(shared, &mut writer, &line) {
                return;
            }
        }
        _ => return,
    }
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) | Err(WireError::Closed) => return,
            Err(e) => {
                let _ = send_error(&mut writer, &e.to_string());
                return;
            }
        };
        let frame = match parse_frame(&line) {
            Ok(frame) => frame,
            Err(e) => {
                // Self-synchronising: report and keep reading frames.
                if send_error(&mut writer, &e.to_string()).is_err() {
                    return;
                }
                continue;
            }
        };
        let done = match frame_type(&frame) {
            Ok("job") => handle_job(shared, &mut writer, &frame),
            Ok("put") => handle_put(shared, &mut writer, &frame),
            Ok("replan") => handle_replan(shared, &mut writer, &frame),
            Ok("histories") => {
                let events = shared.service.history();
                write_frame(&mut writer, &history_to_wire(&shared.name, &events))
            }
            Ok("stats") => {
                let body = stats_body_json(
                    &shared.service.queue_stats(),
                    &shared.service.terminal_stats(),
                    &shared.service.cache_stats().unwrap_or_default(),
                    &shared.replan.lock().expect("replan sessions").stats(),
                );
                write_frame(
                    &mut writer,
                    &format!(
                        "{{\"type\": \"stats\", \"shard\": {}, {body}}}",
                        json::quote(&shared.name)
                    ),
                )
            }
            Ok("shutdown") => {
                let _ = write_frame(&mut writer, "{\"type\": \"bye\"}");
                shared.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr); // unblock accept
                return;
            }
            Ok(other) => send_error(&mut writer, &format!("unknown frame type {other:?}")),
            Err(e) => send_error(&mut writer, &e.to_string()),
        };
        if done.is_err() {
            return;
        }
    }
}

fn handshake(shared: &ServerShared, writer: &mut TcpStream, line: &str) -> bool {
    let refuse = |writer: &mut TcpStream, reason: &str| {
        let _ = write_frame(
            writer,
            &format!(
                "{{\"type\": \"hello_err\", \"reason\": {}, \"proto\": {PROTO_VERSION}, \
                 \"cache_key\": {}}}",
                json::quote(reason),
                json::quote(etcs_core::CACHE_KEY_VERSION)
            ),
        );
        false
    };
    let Ok(frame) = parse_frame(line) else {
        return refuse(writer, "handshake frame is not valid JSON");
    };
    if frame_type(&frame).ok() != Some("hello") {
        return refuse(writer, "expected a hello frame");
    }
    let Ok(proto) = u64_field(&frame, "proto") else {
        return refuse(writer, "hello lacks an integer \"proto\"");
    };
    if proto != PROTO_VERSION {
        return refuse(writer, &format!("unsupported protocol version {proto}"));
    }
    let Ok(cache_key) = str_field(&frame, "cache_key") else {
        return refuse(writer, "hello lacks a \"cache_key\" version");
    };
    if cache_key != etcs_core::CACHE_KEY_VERSION {
        return refuse(writer, &format!("cache-key version mismatch: {cache_key}"));
    }
    write_frame(
        writer,
        &format!(
            "{{\"type\": \"hello_ok\", \"proto\": {PROTO_VERSION}, \"cache_key\": {}, \
             \"shard\": {}}}",
            json::quote(etcs_core::CACHE_KEY_VERSION),
            json::quote(&shared.name)
        ),
    )
    .is_ok()
}

fn send_error(writer: &mut TcpStream, reason: &str) -> Result<(), WireError> {
    write_frame(
        writer,
        &format!(
            "{{\"type\": \"error\", \"reason\": {}}}",
            json::quote(reason)
        ),
    )
}

fn handle_job(
    shared: &ServerShared,
    writer: &mut TcpStream,
    frame: &Json,
) -> Result<(), WireError> {
    let spec = match str_field(frame, "spec") {
        Ok(spec) => spec,
        Err(e) => return send_error(writer, &e.to_string()),
    };
    let seen = shared.jobs_seen.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(hook) = &shared.hook {
        hook(seen);
    }
    let request = match parse_request(spec, "job", Origin::Peer, shared.lazy_default) {
        Ok(request) => request,
        Err(message) => {
            let line = format!(
                "{{\"id\": \"job\", \"status\": \"invalid\", \"reason\": {}}}",
                json::quote(&message)
            );
            return write_frame(
                writer,
                &format!(
                    "{{\"type\": \"done\", \"status\": \"invalid\", \"cache\": \"miss\", \
                     \"response\": {}}}",
                    json::quote(&line)
                ),
            );
        }
    };
    let key = request.cache_key(&shared.service.config().encoder);
    let response = match shared.service.submit(request) {
        Ok(ticket) => ticket.wait(),
        Err(rejected) => rejected,
    };
    let (line, _) = response_line(&response);
    let mut out = format!(
        "{{\"type\": \"done\", \"status\": {}, \"cache\": {}, \"key\": \"{key:032x}\", \
         \"response\": {}",
        json::quote(response.outcome.status()),
        json::quote(if response.cache_hit { "hit" } else { "miss" }),
        json::quote(&line)
    );
    if let JobOutcome::Done(payload) = &response.outcome {
        out.push_str(&format!(", \"payload\": {}", payload_to_wire(payload)));
    }
    out.push('}');
    write_frame(writer, &out)
}

fn handle_put(
    shared: &ServerShared,
    writer: &mut TcpStream,
    frame: &Json,
) -> Result<(), WireError> {
    let key = match str_field(frame, "key").and_then(hex_u128) {
        Ok(key) => key,
        Err(e) => return send_error(writer, &e.to_string()),
    };
    let payload = match frame
        .get("payload")
        .ok_or_else(|| malformed("put lacks a \"payload\""))
        .and_then(payload_from_wire)
    {
        Ok(payload) => payload,
        Err(e) => return send_error(writer, &e.to_string()),
    };
    let digest = payload.digest();
    if !shared.service.cache_insert(key, payload) {
        return send_error(writer, "caching is disabled on this shard");
    }
    shared.obs.event(
        "serve.replica_put",
        &[("key", format!("{key:032x}").into())],
    );
    write_frame(
        writer,
        &format!("{{\"type\": \"put_ok\", \"digest\": \"{digest:032x}\"}}"),
    )
}

fn handle_replan(
    shared: &ServerShared,
    writer: &mut TcpStream,
    frame: &Json,
) -> Result<(), WireError> {
    let line = match str_field(frame, "line") {
        Ok(line) => line,
        Err(e) => return send_error(writer, &e.to_string()),
    };
    let (response, failed) = shared
        .replan
        .lock()
        .expect("replan sessions")
        .handle(line, "replan");
    write_frame(
        writer,
        &format!(
            "{{\"type\": \"replan_done\", \"failed\": {failed}, \"response\": {}}}",
            json::quote(&response)
        ),
    )
}

// ---------------------------------------------------------------------------
// Shard client
// ---------------------------------------------------------------------------

/// One `done` response from a shard.
#[derive(Clone, Debug)]
pub struct JobDone {
    /// The job's content-addressed fingerprint (absent for invalid specs).
    pub key: Option<u128>,
    /// Terminal status (`done`, `invalid`, `rejected`, …).
    pub status: String,
    /// Whether the shard answered from its cache.
    pub cache_hit: bool,
    /// The shard's standard `served`-format response line, verbatim.
    pub response: String,
    /// The full payload (present exactly when `status` is `done`).
    pub payload: Option<JobPayload>,
}

/// A client connection to one shard, with the handshake already performed.
pub struct ShardClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    shard: String,
}

impl std::fmt::Debug for ShardClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardClient")
            .field("shard", &self.shard)
            .finish()
    }
}

impl ShardClient {
    /// Connects to `addr` and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the socket fails, [`WireError::VersionMismatch`]
    /// if the shard speaks a different protocol or cache-key version,
    /// [`WireError::Handshake`] for other refusals, [`WireError::Malformed`]
    /// if the shard answers garbage.
    pub fn connect(addr: &str) -> Result<ShardClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = ShardClient {
            reader: BufReader::new(stream),
            writer,
            shard: String::new(),
        };
        write_frame(
            &mut client.writer,
            &format!(
                "{{\"type\": \"hello\", \"proto\": {PROTO_VERSION}, \"cache_key\": {}}}",
                json::quote(etcs_core::CACHE_KEY_VERSION)
            ),
        )?;
        let frame = client.read_reply()?;
        match frame_type(&frame)? {
            "hello_ok" => {
                client.shard = str_field(&frame, "shard")?.to_owned();
                Ok(client)
            }
            "hello_err" => {
                let reason = str_field(&frame, "reason")
                    .unwrap_or("unspecified")
                    .to_owned();
                let theirs_proto = u64_field(&frame, "proto").unwrap_or(0);
                if theirs_proto != PROTO_VERSION {
                    return Err(WireError::VersionMismatch {
                        field: "proto",
                        ours: PROTO_VERSION.to_string(),
                        theirs: theirs_proto.to_string(),
                    });
                }
                let theirs_key = str_field(&frame, "cache_key").unwrap_or("");
                if theirs_key != etcs_core::CACHE_KEY_VERSION {
                    return Err(WireError::VersionMismatch {
                        field: "cache_key",
                        ours: etcs_core::CACHE_KEY_VERSION.to_owned(),
                        theirs: theirs_key.to_owned(),
                    });
                }
                Err(WireError::Handshake { reason })
            }
            other => Err(malformed(format!("unexpected handshake reply {other:?}"))),
        }
    }

    /// The shard's self-reported name from the handshake.
    pub fn shard(&self) -> &str {
        &self.shard
    }

    fn read_reply(&mut self) -> Result<Json, WireError> {
        match read_frame(&mut self.reader)? {
            Some(line) => parse_frame(&line),
            None => Err(WireError::Closed),
        }
    }

    /// Expects a reply of `want` type; maps server `error` frames to
    /// [`WireError::Remote`].
    fn expect_reply(&mut self, want: &str) -> Result<Json, WireError> {
        let frame = self.read_reply()?;
        match frame_type(&frame)? {
            t if t == want => Ok(frame),
            "error" => Err(WireError::Remote {
                reason: str_field(&frame, "reason")
                    .unwrap_or("unspecified")
                    .to_owned(),
            }),
            other => Err(malformed(format!("expected {want:?}, got {other:?}"))),
        }
    }

    /// Forwards one request line and waits for the shard's response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] — in particular [`WireError::Closed`] /
    /// [`WireError::Io`] when the shard dies mid-job.
    pub fn job(&mut self, spec: &str) -> Result<JobDone, WireError> {
        write_frame(
            &mut self.writer,
            &format!("{{\"type\": \"job\", \"spec\": {}}}", json::quote(spec)),
        )?;
        let frame = self.expect_reply("done")?;
        let payload = match frame.get("payload") {
            None | Some(Json::Null) => None,
            Some(p) => Some(payload_from_wire(p)?),
        };
        Ok(JobDone {
            key: match frame.get("key").and_then(Json::as_str) {
                Some(s) => Some(hex_u128(s)?),
                None => None,
            },
            status: str_field(&frame, "status")?.to_owned(),
            cache_hit: str_field(&frame, "cache")? == "hit",
            response: str_field(&frame, "response")?.to_owned(),
            payload,
        })
    }

    /// Replicates a cache entry to this shard. Returns the digest the shard
    /// computed over the decoded payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; [`WireError::Remote`] if the shard refused the
    /// entry (e.g. caching disabled).
    pub fn put(&mut self, key: u128, payload: &JobPayload) -> Result<u128, WireError> {
        write_frame(
            &mut self.writer,
            &format!(
                "{{\"type\": \"put\", \"key\": \"{key:032x}\", \"payload\": {}}}",
                payload_to_wire(payload)
            ),
        )?;
        let frame = self.expect_reply("put_ok")?;
        hex_u128(str_field(&frame, "digest")?)
    }

    /// Forwards one replanning session record (`open`/`delta`/`tick`/
    /// `close`, the `served` batch format) and returns the shard's
    /// response line verbatim. The session lives on the shard, so a
    /// sequence of `replan` calls over one or more connections is one
    /// continuous warm-started session.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] — in particular [`WireError::Closed`] when the
    /// shard (and with it every open session) dies.
    pub fn replan(&mut self, record: &str) -> Result<String, WireError> {
        write_frame(
            &mut self.writer,
            &format!(
                "{{\"type\": \"replan\", \"line\": {}}}",
                json::quote(record)
            ),
        )?;
        let frame = self.expect_reply("replan_done")?;
        Ok(str_field(&frame, "response")?.to_owned())
    }

    /// Fetches the shard's recorded cache history.
    ///
    /// # Errors
    ///
    /// Any [`WireError`].
    pub fn histories(&mut self) -> Result<ShardHistory, WireError> {
        write_frame(&mut self.writer, "{\"type\": \"histories\"}")?;
        let frame = self.expect_reply("histories")?;
        history_from_wire(&frame)
    }

    /// Fetches the shard's live stats frame (raw JSON line).
    ///
    /// # Errors
    ///
    /// Any [`WireError`].
    pub fn stats(&mut self) -> Result<Json, WireError> {
        write_frame(&mut self.writer, "{\"type\": \"stats\"}")?;
        self.expect_reply("stats")
    }

    /// Asks the shard to stop listening and drain.
    ///
    /// # Errors
    ///
    /// Any [`WireError`].
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        write_frame(&mut self.writer, "{\"type\": \"shutdown\"}")?;
        self.expect_reply("bye").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::execute;
    use etcs_core::EncoderConfig;
    use etcs_sat::Interrupt;

    fn sample_payload(kind: JobKind) -> JobPayload {
        let request = JobRequest::new("p", kind, fixtures::running_example());
        let outcome = execute(
            &request,
            &EncoderConfig::default(),
            &Interrupt::none(),
            &Obs::disabled(),
        );
        outcome.payload().expect("solves").clone()
    }

    #[test]
    fn payload_wire_round_trip_preserves_the_digest() {
        for kind in [JobKind::Verify, JobKind::Generate, JobKind::Diagnose] {
            let payload = sample_payload(kind);
            let wire = payload_to_wire(&payload);
            let parsed = json::parse(&wire).expect("wire payload is valid JSON");
            let back = payload_from_wire(&parsed).expect("decodes");
            assert_eq!(back, payload, "{kind} round trip is lossless");
            assert_eq!(back.digest(), payload.digest());
        }
    }

    #[test]
    fn payload_from_wire_rejects_mangled_objects() {
        let payload = sample_payload(JobKind::Generate);
        let wire = payload_to_wire(&payload);
        for mangle in [
            wire.replace("\"kind\": \"generate\"", "\"kind\": \"bogus\""),
            wire.replace("\"feasible\": true", "\"feasible\": \"yes\""),
            wire.replace("\"search\": [", "\"search\": [999999,"),
        ] {
            let parsed = json::parse(&mangle).expect("still JSON");
            assert!(payload_from_wire(&parsed).is_err(), "accepted: {mangle}");
        }
    }

    #[test]
    fn history_wire_round_trips() {
        let events = vec![
            HistoryEvent {
                seq: 0,
                op: HistoryOp::Put,
                key: 0xdead_beef,
                digest: 42,
            },
            HistoryEvent {
                seq: 1,
                op: HistoryOp::Hit,
                key: 0xdead_beef,
                digest: 42,
            },
        ];
        let wire = history_to_wire("shard-a", &events);
        let parsed = json::parse(&wire).expect("valid JSON");
        let back = history_from_wire(&parsed).expect("decodes");
        assert_eq!(back.shard, "shard-a");
        assert_eq!(back.version, etcs_core::CACHE_KEY_VERSION);
        assert_eq!(back.events, events);
    }

    #[test]
    fn parse_request_matches_served_semantics() {
        let request = parse_request(
            "{\"id\": \"x\", \"kind\": \"verify\", \"scenario\": \"fixture:running_example\", \
             \"priority\": \"high\"}",
            "line 1",
            Origin::Local,
            false,
        )
        .expect("parses");
        assert_eq!(request.id, "x");
        assert_eq!(request.kind, JobKind::Verify);
        assert_eq!(request.priority, Priority::High);
        assert!(parse_request("{}", "line 2", Origin::Local, false)
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_request("not json", "line 3", Origin::Local, false).is_err());
    }

    #[test]
    fn a_portfolio_field_is_ignored() {
        // The clause-sharing portfolio is gone; lines written for it still
        // mean the same job, whatever width they ask for.
        let config = EncoderConfig::default();
        let plain = "{\"id\": \"p\", \"kind\": \"generate\", \
                     \"scenario\": \"fixture:running_example\"}";
        let want = parse_request(plain, "l", Origin::Peer, false).expect("parses");
        for width in ["2", "1"] {
            let line = plain.replace('}', &format!(", \"portfolio\": {width}}}"));
            let got = parse_request(&line, "l", Origin::Peer, false).expect("parses");
            assert_eq!(
                (&got.id, got.kind, &got.layout, got.priority, got.lazy),
                (&want.id, want.kind, &want.layout, want.priority, want.lazy),
                "{line}"
            );
            assert_eq!(got.cache_key(&config), want.cache_key(&config), "{line}");
        }
        // The old entry point ignores its last argument the same way.
        let shim = parse_request_line(plain, "l", true, Some(4)).expect("parses");
        let local = parse_request(plain, "l", Origin::Local, true).expect("parses");
        assert_eq!(shim.lazy, local.lazy);
        assert_eq!(shim.cache_key(&config), local.cache_key(&config));
    }

    #[test]
    fn file_specs_are_read_only_from_local_input() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/branch_line.rail"
        );
        let line = format!(
            "{{\"id\": \"f\", \"kind\": \"generate\", \"scenario\": {}, \"priority\": \"low\"}}",
            json::quote(&format!("file:{path}"))
        );
        let config = EncoderConfig::default();
        let local =
            parse_request(&line, "line 1", Origin::Local, false).expect("local reads files");
        let err = parse_request(&line, "job", Origin::Peer, false).unwrap_err();
        assert!(
            err.starts_with("job: file: scenarios are read only"),
            "{err}"
        );

        // A frontend inlines the file, and the inlined line means the same
        // job to a shard: same request fields, same cache key.
        let (forwarded, spec) = parse_forwarded_line(&line, "line 1", false).expect("parses");
        assert_eq!(forwarded.cache_key(&config), local.cache_key(&config));
        let text = std::fs::read_to_string(path).expect("shipped scenario");
        let value = json::parse(&spec).expect("forwarded line is JSON");
        assert_eq!(
            value.get("scenario").and_then(Json::as_str),
            Some(format!("rail:{text}").as_str())
        );
        let shard = parse_request(&spec, "job", Origin::Peer, false).expect("no file left");
        assert_eq!(shard.cache_key(&config), local.cache_key(&config));
        assert_eq!((shard.id, shard.priority), (local.id, local.priority));

        // Lines without a file pass through as they came, and errors carry
        // the same text as the local parser's.
        let plain = "{\"kind\": \"verify\", \"scenario\": \"fixture:running_example\"}";
        assert_eq!(parse_forwarded_line(plain, "l", false).unwrap().1, plain);
        for bad in [
            "{\"kind\": \"fly\", \"scenario\": \"file:/nonexistent.rail\"}",
            "{\"kind\": \"verify\", \"scenario\": \"file:/nonexistent.rail\"}",
            "{\"kind\": \"verify\", \"scenario\": \"file:Cargo.toml\"}",
            "[1",
        ] {
            assert_eq!(
                parse_forwarded_line(bad, "line 2", false).unwrap_err(),
                parse_request(bad, "line 2", Origin::Local, false).unwrap_err(),
            );
        }
    }
}
