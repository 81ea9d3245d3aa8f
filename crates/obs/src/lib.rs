//! # etcs-obs — structured run observability
//!
//! A dependency-free tracing/metrics subsystem for the ETCS Level 3
//! workspace: lightweight spans and events, a registry of named metrics,
//! and pluggable sinks (null, in-memory for tests, JSONL file for
//! replayable trace artifacts).
//!
//! The central type is the [`Obs`] handle. A **disabled** handle
//! ([`Obs::disabled`], the default everywhere) is a `None` inside — every
//! instrumentation call is a branch on that option and returns without
//! allocating, so instrumented hot paths cost nothing when tracing is off.
//! An **enabled** handle clones cheaply (`Arc`) and is `Send + Sync`, so
//! one handle can observe all workers of a parallel run; events carry a
//! globally ordered sequence number.
//!
//! ```
//! use etcs_obs::Obs;
//!
//! let (obs, sink) = Obs::memory();
//! let span = obs.span("task.optimize");
//! span.event("probe.result", &[("deadline", 7u64.into()), ("sat", true.into())]);
//! obs.counter_add("probes", 1);
//! span.close_with(&[("solver_calls", 3u64.into())]);
//! obs.flush_metrics();
//!
//! let events = sink.events();
//! assert_eq!(events[0].name, "task.optimize"); // span_open
//! assert_eq!(events[1].field_u64("deadline"), Some(7));
//! assert!(events.iter().any(|e| e.name == "probes")); // metric row
//! ```
//!
//! The JSONL schema (one event per line, stable field set) is documented on
//! [`Event::to_json`]; [`json::parse`] can re-read it, which is how the CI
//! smoke step and the trace tests validate emitted artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventKind, Value};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    sink: Box<dyn Sink>,
    epoch: Instant,
    seq: AtomicU64,
    next_span: AtomicU64,
    metrics: Mutex<MetricsRegistry>,
}

/// The observability handle threaded through solver, tasks and service
/// workers. See the crate docs for the enabled/disabled contract.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Obs {
    /// The no-op handle: every call is a branch and an early return.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle delivering to `sink`.
    pub fn with_sink(sink: impl Sink + 'static) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                sink: Box::new(sink),
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                metrics: Mutex::new(MetricsRegistry::new()),
            })),
        }
    }

    /// An enabled handle recording into memory, plus the test-side handle
    /// to read the events back.
    pub fn memory() -> (Self, MemorySink) {
        let sink = MemorySink::new();
        (Self::with_sink(sink.clone()), sink)
    }

    /// An enabled handle writing JSONL to the (truncated) file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(JsonlSink::create(path)?))
    }

    /// `true` when events actually go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(
        &self,
        kind: EventKind,
        name: &'static str,
        span: Option<u64>,
        parent: Option<u64>,
        fields: &[(&'static str, Value)],
    ) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t_us: inner.epoch.elapsed().as_micros() as u64,
            kind,
            name,
            span,
            parent,
            fields: fields.to_vec(),
        };
        inner.sink.record(&event);
    }

    /// Opens a root span. Disabled handles return a no-op guard without
    /// allocating.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_inner(name, None, &[])
    }

    /// Opens a root span with fields on the `span_open` event.
    pub fn span_with(&self, name: &'static str, fields: &[(&'static str, Value)]) -> Span {
        self.span_inner(name, None, fields)
    }

    fn span_inner(
        &self,
        name: &'static str,
        parent: Option<u64>,
        fields: &[(&'static str, Value)],
    ) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.emit(EventKind::SpanOpen, name, Some(id), parent, fields);
        Span {
            state: Some(SpanState {
                obs: self.clone(),
                name,
                id,
                parent,
                start: Instant::now(),
            }),
        }
    }

    /// Emits a point event not attached to any span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.emit(EventKind::Point, name, None, None, fields);
    }

    /// Adds to a named counter in the metrics registry.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics poisoned")
            .counter_add(name, delta);
    }

    /// Records a histogram sample in the metrics registry.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics poisoned")
            .histogram_record(name, value);
    }

    /// A snapshot of the metrics registry (empty for disabled handles).
    pub fn metrics(&self) -> MetricsRegistry {
        match &self.inner {
            Some(inner) => inner.metrics.lock().expect("metrics poisoned").clone(),
            None => MetricsRegistry::new(),
        }
    }

    /// Emits one [`EventKind::Metric`] event per registered metric
    /// (counters: `value`; histograms: `count`, `sum`, `min`, `max`) and
    /// leaves the registry intact.
    pub fn flush_metrics(&self) {
        let Some(inner) = &self.inner else { return };
        let snapshot = inner.metrics.lock().expect("metrics poisoned").clone();
        for (name, value) in snapshot.counters() {
            self.emit(
                EventKind::Metric,
                name,
                None,
                None,
                &[("value", value.into())],
            );
        }
        for (name, h) in snapshot.histograms() {
            self.emit(
                EventKind::Metric,
                name,
                None,
                None,
                &[
                    ("count", h.count.into()),
                    ("sum", h.sum.into()),
                    ("min", h.min.into()),
                    ("max", h.max.into()),
                ],
            );
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

struct SpanState {
    obs: Obs,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

/// A live span. Dropping it emits the `span_close` event with `elapsed_us`;
/// [`Span::close_with`] attaches measured fields to the close. A span from
/// a disabled [`Obs`] is an allocation-free no-op.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    state: Option<SpanState>,
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("enabled", &self.state.is_some())
            .field("id", &self.id())
            .finish()
    }
}

impl Span {
    /// The span id, `None` for no-op spans.
    pub fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.state {
            Some(s) => s.obs.span_inner(name, Some(s.id), &[]),
            None => Span { state: None },
        }
    }

    /// Opens a child span with fields on the `span_open` event.
    pub fn child_with(&self, name: &'static str, fields: &[(&'static str, Value)]) -> Span {
        match &self.state {
            Some(s) => s.obs.span_inner(name, Some(s.id), fields),
            None => Span { state: None },
        }
    }

    /// Emits a point event attached to this span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.state {
            s.obs.emit(EventKind::Point, name, Some(s.id), None, fields);
        }
    }

    /// Closes the span now, attaching `fields` to the `span_close` event
    /// (in addition to the automatic `elapsed_us`).
    pub fn close_with(mut self, fields: &[(&'static str, Value)]) {
        self.close(fields);
    }

    fn close(&mut self, extra: &[(&'static str, Value)]) {
        let Some(s) = self.state.take() else { return };
        let elapsed_us = s.start.elapsed().as_micros() as u64;
        let mut fields: Vec<(&'static str, Value)> = Vec::with_capacity(extra.len() + 1);
        fields.push(("elapsed_us", elapsed_us.into()));
        fields.extend_from_slice(extra);
        s.obs
            .emit(EventKind::SpanClose, s.name, Some(s.id), s.parent, &fields);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let span = obs.span("nothing");
        assert_eq!(span.id(), None);
        span.event("still.nothing", &[]);
        let child = span.child("child");
        child.close_with(&[("x", 1u64.into())]);
        drop(span);
        obs.counter_add("c", 1);
        obs.event("e", &[]);
        obs.flush_metrics();
        obs.flush();
        assert!(obs.metrics().is_empty());
        assert_eq!(format!("{obs:?}"), "Obs { enabled: false }");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn span_lifecycle_emits_open_and_close() {
        let (obs, sink) = Obs::memory();
        let span = obs.span("outer");
        let outer_id = span.id().expect("enabled");
        let child = span.child("inner");
        let child_id = child.id().expect("enabled");
        child.close_with(&[("n", 3u64.into())]);
        drop(span);

        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::SpanOpen);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].parent, Some(outer_id), "child knows its parent");
        let inner_close = &events[2];
        assert_eq!(inner_close.kind, EventKind::SpanClose);
        assert_eq!(inner_close.span, Some(child_id));
        assert_eq!(inner_close.field_u64("n"), Some(3));
        assert!(inner_close.field_u64("elapsed_us").is_some());
        assert_eq!(events[3].name, "outer");
        assert_eq!(events[3].kind, EventKind::SpanClose);
    }

    #[test]
    fn seq_numbers_are_gap_free_and_ordered() {
        let (obs, sink) = Obs::memory();
        for _ in 0..5 {
            obs.event("tick", &[]);
        }
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn span_events_attach_to_the_span() {
        let (obs, sink) = Obs::memory();
        let span = obs.span("s");
        span.event("p", &[("k", "v".into())]);
        let events = sink.events();
        assert_eq!(events[1].span, span.id());
        assert_eq!(events[1].field_str("k"), Some("v"));
    }

    #[test]
    fn metrics_flush_emits_rows() {
        let (obs, sink) = Obs::memory();
        obs.counter_add("probes", 2);
        obs.counter_add("probes", 1);
        obs.histogram_record("conflicts", 7);
        obs.histogram_record("conflicts", 9);
        obs.flush_metrics();
        let metrics: Vec<Event> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Metric)
            .collect();
        assert_eq!(metrics.len(), 2);
        let probes = metrics.iter().find(|e| e.name == "probes").expect("row");
        assert_eq!(probes.field_u64("value"), Some(3));
        let conflicts = metrics.iter().find(|e| e.name == "conflicts").expect("row");
        assert_eq!(conflicts.field_u64("count"), Some(2));
        assert_eq!(conflicts.field_u64("sum"), Some(16));
        assert_eq!(
            obs.metrics().counter("probes"),
            3,
            "flush keeps the registry"
        );
    }

    #[test]
    fn handles_share_state_across_clones_and_threads() {
        let (obs, sink) = Obs::memory();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let obs = obs.clone();
                s.spawn(move || {
                    let span = obs.span_with("worker", &[("worker", i.into())]);
                    obs.counter_add("jobs", 1);
                    span.close_with(&[]);
                });
            }
        });
        assert_eq!(obs.metrics().counter("jobs"), 4);
        let events = sink.events();
        assert_eq!(events.len(), 8, "4 opens + 4 closes");
        let mut ids: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen)
            .filter_map(|e| e.span)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids are unique across threads");
    }

    #[test]
    fn jsonl_trace_roundtrip() {
        let path = std::env::temp_dir().join("etcs_obs_lib_test.jsonl");
        {
            let obs = Obs::jsonl(&path).expect("create");
            let span = obs.span("task.verify");
            span.close_with(&[("feasible", false.into())]);
            obs.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = json::parse(line).expect("valid JSON");
            assert_eq!(
                v.get("name").and_then(json::Json::as_str),
                Some("task.verify")
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
