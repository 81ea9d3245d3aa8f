//! Trace capture and the self-time fold.
//!
//! The traced run installs a [`Tracer`]: an enabled [`Obs`] whose sink
//! buffers events in memory until the benchmark drains them after each
//! request, so a long run never holds more than one request's events.
//!
//! The program's spans are not all linked to their parents: `task.*`,
//! `stage2`, `sat.solve` and `replan.tick` open as root spans. [`fold`]
//! therefore nests spans by interval, not by parent link. Every workload
//! emits its spans from a single thread (one service worker, or the
//! benchmark thread for replanning), so one span lies inside another
//! exactly when it opens after and closes before it. The event sequence
//! numbers order those instants without ties; durations come from the
//! events' microsecond timestamps.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use etcs_obs::{Event, EventKind, Obs, Sink, Value};

#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<Event>>>);

impl Sink for Buffer {
    fn record(&self, event: &Event) {
        self.0
            .lock()
            .expect("trace buffer lock")
            .push(event.clone());
    }
}

/// An enabled observability handle plus the buffer it records into.
pub struct Tracer {
    obs: Obs,
    buffer: Buffer,
}

impl Tracer {
    pub fn new() -> Self {
        let buffer = Buffer::default();
        Tracer {
            obs: Obs::with_sink(buffer.clone()),
            buffer,
        }
    }

    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Every event recorded since the last call, in sequence order.
    pub fn take(&self) -> Vec<Event> {
        let mut events = std::mem::take(&mut *self.buffer.0.lock().expect("trace buffer lock"));
        events.sort_by_key(|e| e.seq);
        events
    }
}

/// One closed span with its self time.
#[derive(Clone, Debug, PartialEq)]
pub struct Folded {
    pub name: &'static str,
    pub self_us: u64,
    /// The fields of the `span_close` event.
    pub fields: Vec<(&'static str, Value)>,
}

impl Folded {
    pub fn field(&self, key: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                Value::U64(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0)
    }
}

struct Interval {
    name: &'static str,
    open_seq: u64,
    close_seq: u64,
    total_us: u64,
    fields: Vec<(&'static str, Value)>,
}

/// Pairs span opens with closes and computes each span's self time: its
/// duration minus the durations of the spans nested directly inside it.
/// Spans still open at the end of `events` are dropped.
pub fn fold(events: &[Event]) -> Vec<Folded> {
    let mut open: HashMap<u64, &Event> = HashMap::new();
    let mut spans = Vec::new();
    for e in events {
        match (e.kind, e.span) {
            (EventKind::SpanOpen, Some(id)) => {
                open.insert(id, e);
            }
            (EventKind::SpanClose, Some(id)) => {
                if let Some(o) = open.remove(&id) {
                    spans.push(Interval {
                        name: e.name,
                        open_seq: o.seq,
                        close_seq: e.seq,
                        total_us: e.t_us.saturating_sub(o.t_us),
                        fields: e.fields.clone(),
                    });
                }
            }
            _ => {}
        }
    }
    spans.sort_by_key(|s| s.open_seq);
    let mut children_us = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while stack
            .last()
            .is_some_and(|&top| spans[top].close_seq < spans[i].open_seq)
        {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children_us[parent] += spans[i].total_us;
        }
        stack.push(i);
    }
    spans
        .into_iter()
        .zip(children_us)
        .map(|(s, children)| Folded {
            name: s.name,
            self_us: s.total_us.saturating_sub(children),
            fields: s.fields,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an event list from `(seq, t_us, open?, name, span id)`.
    fn events(spec: &[(u64, u64, bool, &'static str, u64)]) -> Vec<Event> {
        spec.iter()
            .map(|&(seq, t_us, is_open, name, id)| Event {
                seq,
                t_us,
                kind: if is_open {
                    EventKind::SpanOpen
                } else {
                    EventKind::SpanClose
                },
                name,
                span: Some(id),
                parent: None,
                fields: if is_open {
                    Vec::new()
                } else {
                    vec![("elapsed_us", Value::U64(0))]
                },
            })
            .collect()
    }

    fn self_of(folded: &[Folded], name: &str) -> u64 {
        folded
            .iter()
            .filter(|f| f.name == name)
            .map(|f| f.self_us)
            .sum()
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // job [0,100) ⊃ task [10,90) ⊃ encode [20,50)
        let folded = fold(&events(&[
            (0, 0, true, "serve.job", 1),
            (1, 10, true, "task.generate", 2),
            (2, 20, true, "encode", 3),
            (3, 50, false, "encode", 3),
            (4, 90, false, "task.generate", 2),
            (5, 100, false, "serve.job", 1),
        ]));
        assert_eq!(self_of(&folded, "serve.job"), 20);
        assert_eq!(self_of(&folded, "task.generate"), 50);
        assert_eq!(self_of(&folded, "encode"), 30);
        let total: u64 = folded.iter().map(|f| f.self_us).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn siblings_are_not_nested_in_each_other() {
        // task [0,100) ⊃ probe [10,30), probe [30,70) — the second probe
        // opens at the very microsecond the first one closes.
        let folded = fold(&events(&[
            (0, 0, true, "task.optimize", 1),
            (1, 10, true, "probe", 2),
            (2, 30, false, "probe", 2),
            (3, 30, true, "probe", 3),
            (4, 70, false, "probe", 3),
            (5, 100, false, "task.optimize", 1),
        ]));
        assert_eq!(self_of(&folded, "probe"), 60);
        assert_eq!(self_of(&folded, "task.optimize"), 40);
    }

    #[test]
    fn root_level_solve_nests_inside_the_probe_that_contains_it() {
        // `sat.solve` carries no parent link, but it opens and closes
        // inside the probe, so its time belongs to the probe's children.
        let mut list = events(&[
            (0, 0, true, "task.optimize", 1),
            (1, 5, true, "probe", 2),
            (2, 6, true, "encode", 3),
            (3, 16, false, "encode", 3),
            (4, 17, true, "sat.solve", 4),
            (5, 57, false, "sat.solve", 4),
            (6, 60, false, "probe", 2),
            (7, 61, true, "stage2", 5),
            (8, 62, true, "sat.solve", 6),
            (9, 92, false, "sat.solve", 6),
            (10, 95, false, "stage2", 5),
            (11, 100, false, "task.optimize", 1),
        ]);
        list.iter_mut()
            .filter(|e| e.name == "encode" || e.name == "probe")
            .for_each(|e| e.parent = Some(1));
        let folded = fold(&list);
        assert_eq!(self_of(&folded, "sat.solve"), 70);
        assert_eq!(self_of(&folded, "probe"), 55 - 10 - 40);
        assert_eq!(self_of(&folded, "stage2"), 34 - 30);
        assert_eq!(self_of(&folded, "encode"), 10);
        assert_eq!(
            self_of(&folded, "task.optimize"),
            100 - 55 - 34,
            "root-level solves are not charged to the task a second time"
        );
    }

    #[test]
    fn unclosed_spans_and_point_events_are_ignored() {
        let mut list = events(&[(0, 0, true, "replan.tick", 1)]);
        list.push(Event {
            seq: 1,
            t_us: 3,
            kind: EventKind::Point,
            name: "serve.enqueue",
            span: None,
            parent: None,
            fields: Vec::new(),
        });
        assert!(fold(&list).is_empty());
    }

    #[test]
    fn tracer_drains_what_the_program_records() {
        let tracer = Tracer::new();
        let obs = tracer.obs();
        let outer = obs.span("replan.tick");
        outer
            .child("probe")
            .close_with(&[("conflicts", 4u64.into())]);
        drop(outer);
        let folded = fold(&tracer.take());
        assert_eq!(folded.len(), 2);
        assert_eq!(folded[1].field("conflicts"), 4);
        assert!(tracer.take().is_empty(), "take drains the buffer");
    }
}
