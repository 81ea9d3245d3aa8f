//! End-to-end tests of the job service: a mixed batch with a warm cache
//! proven bit-identical to direct library calls, the same identity for a
//! duplicate-heavy batch at 1, 2 and 4 workers, cancellation and
//! deadlines that never poison a worker, admission-control rejection,
//! cache-key canonicalisation across reordered inputs, and the
//! observability vocabulary, with each metric flushed once per service.

use std::collections::HashMap;
use std::time::Duration;

use etcs_core::EncoderConfig;
use etcs_network::{fixtures, NetworkBuilder, Scenario};
use etcs_obs::{EventKind, Obs};
use etcs_sat::Interrupt;
use etcs_serve::{
    execute, JobKind, JobOutcome, JobRequest, Priority, RejectReason, ServeConfig, Service,
};

/// A 50+ job batch cycling kinds and fixtures; only seven unique solves.
fn mixed_batch() -> Vec<JobRequest> {
    let running = fixtures::running_example();
    let simple = fixtures::simple_layout();
    let unique: Vec<(JobKind, Scenario)> = vec![
        (JobKind::Verify, running.clone()),
        (JobKind::Generate, running.clone()),
        (JobKind::Optimize, running.clone()),
        (JobKind::OptimizeIncremental, running.clone()),
        (JobKind::Diagnose, running),
        (JobKind::Verify, simple.clone()),
        (JobKind::Generate, simple),
    ];
    (0..56)
        .map(|i| {
            let (kind, scenario) = &unique[i % unique.len()];
            JobRequest::new(format!("job-{i}"), *kind, scenario.clone())
                .with_priority([Priority::High, Priority::Normal, Priority::Low][i % 3])
        })
        .collect()
}

#[test]
fn mixed_batch_warm_cache_is_bit_identical_to_direct_calls() {
    let requests = mixed_batch();
    let config = EncoderConfig::default();

    // Reference payloads via the direct (unqueued, uncached) path, one
    // per unique cache key.
    let mut reference = HashMap::new();
    for request in &requests {
        reference
            .entry(request.cache_key(&config))
            .or_insert_with(|| execute(request, &config, &Interrupt::none(), &Obs::disabled()));
    }
    assert_eq!(reference.len(), 7, "batch has exactly seven unique solves");

    let service = Service::new(ServeConfig {
        workers: 2,
        queue_capacity: 128,
        cache_capacity: 32,
        ..ServeConfig::default()
    });
    let responses = service.run_batch(requests.clone());

    assert_eq!(responses.len(), requests.len());
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.id, request.id, "responses preserve input order");
        let payload = response
            .outcome
            .payload()
            .unwrap_or_else(|| panic!("{} should be done, got {:?}", request.id, response.outcome));
        let expected = reference[&request.cache_key(&config)]
            .payload()
            .expect("reference run completed");
        assert_eq!(payload, expected, "{}: served != direct", request.id);
        assert_eq!(payload.digest(), expected.digest());
    }

    let cache = service.cache_stats().expect("cache enabled");
    assert!(
        cache.hits >= (requests.len() - reference.len()) as u64,
        "warm cache must answer every repeat job (hits = {})",
        cache.hits
    );
    assert_eq!(service.queue_stats().rejected, 0);
}

#[test]
fn served_payloads_match_direct_calls_at_one_two_and_four_workers() {
    // Every kind on the running example, three copies each: cheap jobs,
    // and duplicates that park on a running leader or hit the cache.
    let config = EncoderConfig::default();
    let requests: Vec<JobRequest> = (0..3)
        .flat_map(|copy| {
            JobKind::ALL.map(|kind| {
                JobRequest::new(format!("{kind}-{copy}"), kind, fixtures::running_example())
            })
        })
        .collect();
    let direct: Vec<JobOutcome> = JobKind::ALL
        .iter()
        .map(|&kind| {
            let request = JobRequest::new("direct", kind, fixtures::running_example());
            execute(&request, &config, &Interrupt::none(), &Obs::disabled())
        })
        .collect();

    for workers in [1, 2, 4] {
        let service = Service::new(ServeConfig {
            workers,
            queue_capacity: requests.len(),
            cache_capacity: JobKind::ALL.len(),
            ..ServeConfig::default()
        });
        let cold = service.run_batch(requests.clone());
        let warm = service.run_batch(requests.clone());
        for (i, request) in requests.iter().enumerate() {
            let expected = direct[i % JobKind::ALL.len()]
                .payload()
                .expect("direct run completes");
            for response in [&cold[i], &warm[i]] {
                assert_eq!(
                    response.outcome.payload(),
                    Some(expected),
                    "{} at {workers} workers: served != direct",
                    request.id
                );
            }
            assert!(
                warm[i].cache_hit,
                "{} at {workers} workers: the second pass must hit the cache",
                request.id
            );
        }
    }
}

#[test]
fn cancellation_and_deadline_return_structured_errors_without_poisoning_the_worker() {
    // Single worker, no cache: all three jobs run on the same thread.
    let service = Service::new(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 0,
        ..ServeConfig::default()
    });

    // An oversized optimisation, cancelled as soon as it is submitted.
    let cancelled = service
        .submit(JobRequest::new(
            "cancel-me",
            JobKind::Optimize,
            fixtures::complex_layout(),
        ))
        .expect("admitted");
    cancelled.cancel();

    // An oversized optimisation with a deadline far below its solve time.
    let deadline = service
        .submit(
            JobRequest::new("too-slow", JobKind::Optimize, fixtures::complex_layout())
                .with_deadline(Duration::from_millis(1)),
        )
        .expect("admitted");

    // A cheap job queued behind both: completes iff the worker survived.
    let survivor = service
        .submit(JobRequest::new(
            "after",
            JobKind::Verify,
            fixtures::running_example(),
        ))
        .expect("admitted");

    assert_eq!(cancelled.wait().outcome, JobOutcome::Cancelled);
    assert_eq!(deadline.wait().outcome, JobOutcome::DeadlineExceeded);
    let response = survivor.wait();
    assert!(
        response.outcome.payload().is_some(),
        "worker must stay usable after interrupted jobs, got {:?}",
        response.outcome
    );
}

#[test]
fn full_queue_rejects_with_structured_reason() {
    // Zero queue capacity: admission control rejects deterministically.
    let service = Service::new(ServeConfig {
        workers: 1,
        queue_capacity: 0,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let response = service
        .submit(JobRequest::new(
            "no-room",
            JobKind::Verify,
            fixtures::running_example(),
        ))
        .expect_err("zero-capacity queue admits nothing");
    assert_eq!(response.id, "no-room");
    assert_eq!(
        response.outcome,
        JobOutcome::Rejected(RejectReason::QueueFull {
            capacity: 0,
            depth: 0
        })
    );
    assert_eq!(service.queue_stats().rejected, 1);
}

/// Rebuilds a scenario with every TTD and station member list reversed —
/// semantically identical (membership sets are unordered), byte-different.
fn reverse_member_lists(s: &Scenario) -> Scenario {
    let mut b = NetworkBuilder::new();
    b.nodes(s.network.num_nodes());
    for t in s.network.tracks() {
        b.track(t.from, t.to, t.length, t.name.clone());
    }
    for ttd in s.network.ttds() {
        b.ttd(ttd.name.clone(), ttd.tracks.iter().rev().copied());
    }
    for station in s.network.stations() {
        b.station(
            station.name.clone(),
            station.tracks.iter().rev().copied(),
            station.boundary,
        );
    }
    let mut out = s.clone();
    out.network = b.build().expect("reordered network stays valid");
    out
}

#[test]
fn reordered_member_lists_share_a_cache_entry_with_identical_payloads() {
    let config = EncoderConfig::default();
    let original = JobRequest::new("original", JobKind::Generate, fixtures::running_example());
    let reordered = JobRequest::new(
        "reordered",
        JobKind::Generate,
        reverse_member_lists(&original.scenario),
    );
    assert_eq!(
        original.cache_key(&config),
        reordered.cache_key(&config),
        "member-list order must not reach the cache key"
    );

    let service = Service::new(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        ..ServeConfig::default()
    });
    let responses = service.run_batch(vec![original, reordered]);
    let (cold, warm) = (&responses[0], &responses[1]);
    assert!(!cold.cache_hit);
    assert!(warm.cache_hit, "second submission must hit the cache");
    assert_eq!(
        cold.outcome.payload().expect("done"),
        warm.outcome.payload().expect("done"),
    );
}

#[test]
fn service_emits_the_serve_observability_vocabulary() {
    let (obs, sink) = Obs::memory();
    let mut service = Service::with_obs(
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let request = JobRequest::new("traced", JobKind::Verify, fixtures::running_example());
    let responses = service.run_batch(vec![request.clone(), request]);
    assert!(responses.iter().all(|r| r.outcome.payload().is_some()));
    service.shutdown();

    let events = sink.events();
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for expected in ["serve.enqueue", "serve.admit", "serve.job"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    let job_spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanOpen && e.name == "serve.job")
        .count();
    assert_eq!(job_spans, 2, "one serve.job span per executed job");

    let metrics = obs.metrics();
    assert_eq!(metrics.counter("serve.jobs"), 2);
    assert_eq!(metrics.counter("serve.cache.hits"), 1);
    assert_eq!(metrics.counter("serve.cache.misses"), 1);
}

#[test]
fn shutdown_then_drop_flushes_each_metric_once() {
    let (obs, sink) = Obs::memory();
    let mut service = Service::with_obs(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        obs,
    );
    let request = JobRequest::new("once", JobKind::Verify, fixtures::running_example());
    let responses = service.run_batch(vec![request]);
    assert!(responses[0].outcome.payload().is_some());
    service.shutdown();
    service.shutdown();
    drop(service);

    let events = sink.events();
    let rows: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::Metric)
        .map(|e| e.name)
        .collect();
    assert!(rows.contains(&"serve.jobs"), "no metric rows: {rows:?}");
    let mut distinct = rows.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(rows.len(), distinct.len(), "a metric row repeats: {rows:?}");
}
