//! A job or a replan record that panics is isolated where it runs: the job
//! ends `failed` and its worker and cache key stay usable, and the record
//! answers `error` while its manager keeps opening and ticking sessions.
//! Both panics are injected through an observability sink, so the program
//! itself carries no hook for them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use etcs_core::EncoderConfig;
use etcs_network::fixtures;
use etcs_obs::{Event, EventKind, Obs, Sink};
use etcs_replan::ReplanConfig;
use etcs_sat::Interrupt;
use etcs_serve::wire::{response_line, Origin};
use etcs_serve::{execute, JobKind, JobOutcome, JobRequest, ReplanManager, ServeConfig, Service};

/// Panics on the first `span_open` of the span named `span`, and only then.
struct PanicFirst {
    span: &'static str,
    fired: AtomicBool,
}

impl Sink for PanicFirst {
    fn record(&self, event: &Event) {
        if event.kind == EventKind::SpanOpen
            && event.name == self.span
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            panic!("injected panic in {}", self.span);
        }
    }
}

fn panic_first(span: &'static str) -> Obs {
    Obs::with_sink(PanicFirst {
        span,
        fired: AtomicBool::new(false),
    })
}

/// Runs `f` on its own thread and fails if it has not returned within
/// `limit`: a wedged service would otherwise hang the test run.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            handle.join().expect("the thread returned a value");
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("the thread panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("no answer within {limit:?}: the service is wedged")
        }
    }
}

#[test]
fn a_panicking_job_fails_and_its_worker_and_key_stay_usable() {
    let verify = JobRequest::new("verify", JobKind::Verify, fixtures::running_example());
    let generate = JobRequest::new("generate", JobKind::Generate, fixtures::running_example());
    let jobs = [verify.clone(), verify.clone(), generate];
    let (responses, stats) = within(Duration::from_secs(30), move || {
        // One worker: if the panic killed it, nothing after it would run.
        let service = Service::with_obs(
            ServeConfig {
                workers: 1,
                queue_capacity: 8,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
            panic_first("task.verify"),
        );
        // One at a time, so the retry is a fresh leader for the same key.
        let responses = jobs.map(|job| service.submit(job).expect("admitted").wait());
        (responses, service.terminal_stats())
    });
    let [failed, retried, other] = responses;

    match &failed.outcome {
        JobOutcome::Failed(message) => {
            assert!(
                message.contains("injected panic in task.verify"),
                "{message}"
            )
        }
        outcome => panic!("the panicking job should fail, got {outcome:?}"),
    }
    let (line, line_failed) = response_line(&failed);
    assert!(line_failed, "a failed job fails the exit code");
    assert!(line.contains("\"status\": \"failed\""), "{line}");

    assert!(!retried.cache_hit, "a failed job is never cached");
    let direct = execute(
        &verify,
        &EncoderConfig::default(),
        &Interrupt::none(),
        &Obs::disabled(),
    );
    assert_eq!(retried.outcome, direct, "the retry equals a direct call");
    assert_eq!(other.outcome.status(), "done");
    assert_eq!((stats.done, stats.failed), (2, 1));
}

#[test]
fn a_panicking_replan_tick_answers_error_and_the_manager_carries_on() {
    let mut manager = ReplanManager::new(
        ReplanConfig::default(),
        Origin::Local,
        panic_first("replan.tick"),
    );
    let open = |session: &str| {
        format!(
            r#"{{"record": "open", "session": "{session}", "scenario": "fixture:running_example"}}"#
        )
    };
    let tick = |session: &str| format!(r#"{{"record": "tick", "session": "{session}"}}"#);

    let (response, failed) = manager.handle(&open("s1"), "line 1");
    assert!(!failed, "{response}");
    let (response, failed) = manager.handle(&tick("s1"), "line 2");
    assert!(failed, "{response}");
    assert!(response.contains("\"record\": \"error\""), "{response}");
    assert!(
        response.contains("injected panic in replan.tick"),
        "{response}"
    );
    // The session went with the panic; its counters stayed.
    let (response, failed) = manager.handle(&tick("s1"), "line 3");
    assert!(failed && response.contains("unknown session"), "{response}");
    assert_eq!(manager.stats().ticks, 1);

    let (response, failed) = manager.handle(&open("s2"), "line 4");
    assert!(!failed, "{response}");
    let (response, failed) = manager.handle(&tick("s2"), "line 5");
    assert!(!failed, "{response}");
    assert!(response.contains("\"record\": \"ticked\""), "{response}");
    assert!(response.contains("\"feasible\": true"), "{response}");
    assert_eq!(manager.stats().ticks, 2);
}
