//! The streaming replan surface of `served`: JSONL session records over
//! [`etcs_replan::ReplanSession`].
//!
//! A batch input line carrying a `"record"` field (or the wire protocol's
//! `replan` frame) is a *session record* rather than a job request. Records
//! are handled synchronously, in input order — a replanning session is a
//! stateful conversation, not an independent job — and every record
//! produces exactly one response line:
//!
//! | record  | request fields                                        | response           |
//! |---------|-------------------------------------------------------|--------------------|
//! | `open`  | `session`, `scenario`, `lazy?`, `tick_budget_ms?`     | `opened`           |
//! | `delta` | `session`, `delta` (`.delta` trace text, `\n`-escaped)| `delta_ok`         |
//! | `tick`  | `session`                                             | `ticked`           |
//! | `close` | `session`                                             | `closed` (counters)|
//!
//! Malformed records, unknown sessions, `.delta` parse errors (reported
//! with the trace parser's line+column message) and rejected deltas all
//! answer `{"record": "error", …}` and count as failures for the process
//! exit code; the session itself — if one exists — stays usable, exactly
//! like [`etcs_replan::ReplanSession::apply`] rejecting a delta. A record
//! that panics (a bug, not bad input) answers `error` too, but closes its
//! session: its warm cores may be half-updated.
//!
//! A `ticked` response carries a `verdict_digest` computed with the same
//! construction as [`crate::JobPayload::verdict_digest`] under the
//! `optimize_incremental` kind, so a streamed tick is directly comparable
//! to the cold `optimize_incremental` *job* for the same patched scenario
//! — which is how `ci/check.sh` proves warm replans change nothing.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use etcs_obs::json::{self, Json};
use etcs_obs::Obs;
use etcs_replan::{parse_trace, ReplanConfig, ReplanSession, ReplanStats, TickReport, TraceOp};

use crate::job::{panic_message, verdict_digest_of, JobKind};
use crate::wire::{lazy_field, load_scenario, Origin};

/// All open replanning sessions of one `served` process, keyed by the
/// client-chosen session id, plus the accumulated counters of sessions
/// already closed (so the terminal stats record covers the whole run).
pub struct ReplanManager {
    base: ReplanConfig,
    origin: Origin,
    obs: Obs,
    sessions: BTreeMap<String, ReplanSession>,
    closed: ReplanStats,
}

impl std::fmt::Debug for ReplanManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplanManager")
            .field("sessions", &self.sessions.len())
            .field("closed", &self.closed)
            .finish()
    }
}

impl ReplanManager {
    /// A manager whose sessions run under `base` (the service's encoder
    /// config); `open` records set `lazy` and `tick_budget_ms` per
    /// session. Records come from `origin`: an `open` record from
    /// [`Origin::Peer`] may not name a `file:` scenario.
    pub fn new(base: ReplanConfig, origin: Origin, obs: Obs) -> ReplanManager {
        ReplanManager {
            base,
            origin,
            obs,
            sessions: BTreeMap::new(),
            closed: ReplanStats::default(),
        }
    }

    /// Service-wide replan counters: every closed session plus every
    /// session still open.
    pub fn stats(&self) -> ReplanStats {
        self.sessions
            .values()
            .fold(self.closed, |acc, s| acc.merged(s.stats()))
    }

    /// Handles one session record line; returns the response line and
    /// whether it counts as a failure for the process exit code.
    ///
    /// A panic while the record runs is caught here, so it never unwinds
    /// into the caller (a shard holds its replan mutex around this call).
    /// The record answers `error` and its session is closed, because its
    /// warm cores may be half-updated; the session's counters join the
    /// closed sessions' totals.
    pub fn handle(&mut self, line: &str, label: &str) -> (String, bool) {
        let result = parse_record(line).and_then(|(value, record, session)| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.dispatch(&value, &record, &session)
            }))
            .unwrap_or_else(|panic| {
                if let Some(dropped) = self.sessions.remove(&session) {
                    self.closed = self.closed.merged(dropped.stats());
                }
                let reason = format!("{record} panicked: {}", panic_message(&*panic));
                Err((session, reason))
            })
        });
        match result {
            Ok(response) => (response, false),
            Err((session, reason)) => (
                format!(
                    "{{\"record\": \"error\", \"session\": {}, \"reason\": {}}}",
                    json::quote(&session),
                    json::quote(&format!("{label}: {reason}")),
                ),
                true,
            ),
        }
    }

    fn dispatch(
        &mut self,
        value: &Json,
        record: &str,
        session: &str,
    ) -> Result<String, (String, String)> {
        let err = |message: String| (session.to_owned(), message);
        match record {
            "open" => {
                if self.sessions.contains_key(session) {
                    return Err(err("session is already open".to_string()));
                }
                let spec = value
                    .get("scenario")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("missing \"scenario\"".to_string()))?;
                let scenario = load_scenario(spec, self.origin).map_err(err)?;
                let mut config = self.base.clone();
                config.lazy = lazy_field(value).map_err(err)?;
                if let Some(ms) = value.get("tick_budget_ms").and_then(Json::as_f64) {
                    if ms <= 0.0 {
                        return Err(err("tick_budget_ms must be positive".to_string()));
                    }
                    config.tick_budget = Some(Duration::from_millis(ms as u64));
                }
                let trains = scenario.schedule.runs().len();
                let opened = ReplanSession::new_obs(scenario, config, &self.obs)
                    .map_err(|e| err(e.to_string()))?;
                self.sessions.insert(session.to_owned(), opened);
                Ok(format!(
                    "{{\"record\": \"opened\", \"session\": {}, \"trains\": {trains}}}",
                    json::quote(session)
                ))
            }
            "delta" => {
                let text = value
                    .get("delta")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("missing \"delta\"".to_string()))?;
                let live = self
                    .sessions
                    .get_mut(session)
                    .ok_or_else(|| err("unknown session".to_string()))?;
                let ops = parse_trace(text).map_err(|e| err(e.to_string()))?;
                // Applied left to right; a rejection mid-record leaves the
                // earlier (accepted) deltas in place, like a trace replay
                // stopping at the bad line.
                let mut applied = Vec::new();
                for op in &ops {
                    match op {
                        TraceOp::Tick => {
                            return Err(err(
                                "a delta record cannot tick; send a tick record".to_string()
                            ))
                        }
                        TraceOp::Delta(delta) => {
                            live.apply(delta).map_err(|e| err(e.to_string()))?;
                            applied.push(json::quote(delta.kind()));
                        }
                    }
                }
                Ok(format!(
                    "{{\"record\": \"delta_ok\", \"session\": {}, \"applied\": [{}]}}",
                    json::quote(session),
                    applied.join(", ")
                ))
            }
            "tick" => {
                let live = self
                    .sessions
                    .get_mut(session)
                    .ok_or_else(|| err("unknown session".to_string()))?;
                Ok(tick_json(session, &live.tick()))
            }
            "close" => {
                let live = self
                    .sessions
                    .remove(session)
                    .ok_or_else(|| err("unknown session".to_string()))?;
                let stats = live.stats();
                self.closed = self.closed.merged(stats);
                Ok(format!(
                    "{{\"record\": \"closed\", \"session\": {}, {}}}",
                    json::quote(session),
                    replan_stats_json(&stats)
                ))
            }
            other => Err(err(format!("unknown record {other:?}"))),
        }
    }
}

/// The parsed record line with its `record` and `session` fields; an
/// error names no session.
fn parse_record(line: &str) -> Result<(Json, String, String), (String, String)> {
    let value = json::parse(line).map_err(|e| (String::new(), e.to_string()))?;
    let field = |name: &str| {
        value
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| (String::new(), format!("missing \"{name}\"")))
    };
    let (record, session) = (field("record")?, field("session")?);
    Ok((value, record, session))
}

/// One `ticked` response line.
fn tick_json(session: &str, r: &TickReport) -> String {
    let costs: Vec<String> = r.costs.iter().map(u64::to_string).collect();
    let late: Vec<String> = r.late_trains.iter().map(|t| json::quote(t)).collect();
    let digest = verdict_digest_of(JobKind::OptimizeIncremental, r.feasible, &r.costs);
    format!(
        "{{\"record\": \"ticked\", \"session\": {}, \"tick\": {}, \"warm\": {}, \
         \"stale\": {}, \"feasible\": {}, \"costs\": [{}], \"conflicts\": {}, \
         \"solver_calls\": {}, \"late_trains\": [{}], \"verdict_digest\": \"{digest:032x}\"}}",
        json::quote(session),
        r.tick,
        r.warm,
        r.stale,
        r.feasible,
        costs.join(", "),
        r.conflicts,
        r.solver_calls,
        late.join(", "),
    )
}

/// The `"replan": {…}` member of a stats record body.
pub fn replan_stats_json(stats: &ReplanStats) -> String {
    format!(
        "\"replan\": {{\"ticks\": {}, \"warm_hits\": {}, \"cold_fallbacks\": {}, \
         \"deadline_misses\": {}, \"deltas\": {}, \"rejected_deltas\": {}}}",
        stats.ticks,
        stats.warm_hits,
        stats.cold_fallbacks,
        stats.deadline_misses,
        stats.deltas,
        stats.rejected_deltas,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ReplanManager {
        ReplanManager::new(ReplanConfig::default(), Origin::Local, Obs::disabled())
    }

    #[test]
    fn a_session_conversation_round_trips() {
        let mut m = manager();
        let (opened, failed) = m.handle(
            r#"{"record": "open", "session": "s1", "scenario": "fixture:running_example"}"#,
            "line 1",
        );
        assert!(!failed, "{opened}");
        assert!(opened.contains("\"record\": \"opened\""));
        assert!(opened.contains("\"trains\": 4"));

        let (ticked, failed) = m.handle(r#"{"record": "tick", "session": "s1"}"#, "line 2");
        assert!(!failed, "{ticked}");
        assert!(ticked.contains("\"feasible\": true"));
        assert!(ticked.contains("\"warm\": false"));
        assert!(ticked.contains("\"verdict_digest\": \""));

        let (delta, failed) = m.handle(
            r#"{"record": "delta", "session": "s1", "delta": "deadline Train 1 : arr 0:04:00"}"#,
            "line 3",
        );
        assert!(!failed, "{delta}");
        assert!(delta.contains("\"applied\": [\"deadline\"]"));

        let (warm, failed) = m.handle(r#"{"record": "tick", "session": "s1"}"#, "line 4");
        assert!(!failed, "{warm}");
        assert!(warm.contains("\"warm\": true"));

        let (closed, failed) = m.handle(r#"{"record": "close", "session": "s1"}"#, "line 5");
        assert!(!failed, "{closed}");
        assert!(closed.contains("\"ticks\": 2"));
        assert!(closed.contains("\"warm_hits\": 1"));
        // Closed sessions keep counting in the service-wide stats.
        assert_eq!(m.stats().ticks, 2);
        assert_eq!(m.sessions.len(), 0);
    }

    #[test]
    fn errors_are_labelled_and_do_not_wedge_the_manager() {
        let mut m = manager();
        for (line, want) in [
            ("not json", "line 9: "),
            // The reason text lands inside a quoted JSON string, so the
            // quotes around the field name arrive backslash-escaped.
            (r#"{"record": "tick"}"#, r#"missing \"session\""#),
            (
                r#"{"record": "tick", "session": "nope"}"#,
                "unknown session",
            ),
            (
                r#"{"record": "frobnicate", "session": "s"}"#,
                "unknown record",
            ),
        ] {
            let (response, failed) = m.handle(line, "line 9");
            assert!(failed, "{line} should fail");
            assert!(response.contains("\"record\": \"error\""), "{response}");
            assert!(response.contains(want), "{response} lacks {want}");
        }
        // A parse error inside a delta surfaces the trace parser's
        // line+column message verbatim.
        m.handle(
            r#"{"record": "open", "session": "s1", "scenario": "fixture:running_example"}"#,
            "line 1",
        );
        let (response, failed) = m.handle(
            r#"{"record": "delta", "session": "s1", "delta": "warp Train 1"}"#,
            "line 2",
        );
        assert!(failed);
        assert!(
            response.contains("delta parse error at line 1, column 1"),
            "{response}"
        );
        let (response, failed) = m.handle(
            r#"{"record": "delta", "session": "s1", "delta": "tick"}"#,
            "line 3",
        );
        assert!(failed);
        assert!(response.contains("cannot tick"), "{response}");
        // The session survived all of it.
        let (ticked, failed) = m.handle(r#"{"record": "tick", "session": "s1"}"#, "line 4");
        assert!(!failed, "{ticked}");
    }

    #[test]
    fn only_local_records_open_file_scenarios() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/branch_line.rail"
        );
        let open = format!(
            "{{\"record\": \"open\", \"session\": \"f\", \"scenario\": {}}}",
            json::quote(&format!("file:{path}"))
        );
        let (response, failed) = manager().handle(&open, "line 1");
        assert!(!failed, "{response}");
        let mut peer = ReplanManager::new(ReplanConfig::default(), Origin::Peer, Obs::disabled());
        let (response, failed) = peer.handle(&open, "replan");
        assert!(failed);
        assert!(
            response.contains("read only from local input"),
            "{response}"
        );
        assert!(peer.sessions.is_empty());
    }

    #[test]
    fn duplicate_open_and_rejected_deltas_fail_cleanly() {
        let mut m = manager();
        let open = r#"{"record": "open", "session": "s1", "scenario": "fixture:running_example"}"#;
        assert!(!m.handle(open, "line 1").1);
        let (response, failed) = m.handle(open, "line 2");
        assert!(failed);
        assert!(response.contains("already open"), "{response}");
        let (response, failed) = m.handle(
            r#"{"record": "delta", "session": "s1", "delta": "remove Ghost Train"}"#,
            "line 3",
        );
        assert!(failed);
        assert!(response.contains("delta rejected"), "{response}");
        assert_eq!(m.stats().rejected_deltas, 1);
    }
}
