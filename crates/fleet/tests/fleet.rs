//! Two-shard loopback integration: a fleet run must produce bit-identical
//! result digests to direct in-process execution, replicate completed
//! entries across shards, survive a shard killed mid-batch without
//! dropping a job, and leave behind histories the consistency checker
//! accepts.

use std::collections::HashMap;
use std::time::Duration;

use etcs_core::EncoderConfig;
use etcs_fleet::wire::{parse_request, Origin, ShardServer, ShardServerConfig};
use etcs_fleet::{check, Fleet, FleetConfig, FleetJob};
use etcs_obs::json;
use etcs_obs::Obs;
use etcs_sat::Interrupt;
use etcs_serve::{execute, JobOutcome, ServeConfig, Service};

fn spawn_shard(name: &str) -> ShardServer {
    let service = Service::new(ServeConfig {
        workers: 2,
        cache_capacity: 64,
        record_history: true,
        ..ServeConfig::default()
    });
    ShardServer::spawn(
        "127.0.0.1:0",
        service,
        ShardServerConfig {
            name: name.into(),
            ..ShardServerConfig::default()
        },
        Obs::disabled(),
    )
    .expect("bind an ephemeral port")
}

/// A batch with twelve distinct fingerprints, so both shards of a
/// two-shard fleet all but certainly own several keys each.
fn request_lines() -> Vec<String> {
    let mut lines = vec![];
    for kind in [
        "verify",
        "generate",
        "optimize",
        "optimize_incremental",
        "diagnose",
    ] {
        lines.push(format!(
            "{{\"id\": \"{kind}-0\", \"kind\": \"{kind}\", \
             \"scenario\": \"fixture:running_example\"}}"
        ));
    }
    // NB: the default verify layout is pure_ttd, so "full" (not
    // "pure_ttd") keeps all twelve fingerprints distinct.
    for (i, layout) in [
        "full",
        "borders:1",
        "borders:2",
        "borders:1,2",
        "borders:1,3",
    ]
    .iter()
    .enumerate()
    {
        lines.push(format!(
            "{{\"id\": \"verify-l{i}\", \"kind\": \"verify\", \
             \"scenario\": \"fixture:running_example\", \"layout\": \"{layout}\"}}"
        ));
    }
    lines.push(
        "{\"id\": \"diagnose-l0\", \"kind\": \"diagnose\", \
         \"scenario\": \"fixture:running_example\", \"layout\": \"borders:2\"}"
            .into(),
    );
    lines.push(
        "{\"id\": \"verify-simple\", \"kind\": \"verify\", \
         \"scenario\": \"fixture:simple_layout\"}"
            .into(),
    );
    lines
}

fn fleet_jobs(lines: &[String]) -> Vec<FleetJob> {
    let encoder = EncoderConfig::default();
    lines
        .iter()
        .enumerate()
        .map(|(index, line)| {
            let request =
                parse_request(line, "test", Origin::Local, false).expect("test lines are valid");
            FleetJob {
                index,
                id: request.id.clone(),
                key: request.cache_key(&encoder),
                spec: line.clone(),
            }
        })
        .collect()
}

/// Digest of each job's payload from direct in-process execution — the
/// single-process ground truth the fleet must reproduce bit-identically.
fn reference_digests(lines: &[String]) -> Vec<String> {
    let encoder = EncoderConfig::default();
    lines
        .iter()
        .map(|line| {
            let request =
                parse_request(line, "ref", Origin::Local, false).expect("test lines are valid");
            match execute(&request, &encoder, &Interrupt::none(), &Obs::disabled()) {
                JobOutcome::Done(payload) => format!("{:032x}", payload.digest()),
                other => panic!("reference execution did not finish: {other:?}"),
            }
        })
        .collect()
}

fn digest_of(line: &str) -> String {
    let parsed = json::parse(line).expect("response lines are JSON");
    parsed
        .get("payload")
        .and_then(|p| p.get("digest"))
        .and_then(|d| d.as_str())
        .unwrap_or_else(|| panic!("no payload digest in: {line}"))
        .to_string()
}

fn quick_fleet(shards: Vec<String>) -> Fleet {
    Fleet::connect(
        FleetConfig {
            shards,
            replicas: 1,
            streams: 2,
            retry_base: Duration::from_millis(10),
            connect_retries: 20,
            connect_delay: Duration::from_millis(50),
            ..FleetConfig::default()
        },
        Obs::disabled(),
    )
    .expect("both shards are up")
}

#[test]
fn two_shard_fleet_matches_direct_execution_and_replicates() {
    let s1 = spawn_shard("s1");
    let s2 = spawn_shard("s2");
    let fleet = quick_fleet(vec![s1.addr().to_string(), s2.addr().to_string()]);

    let lines = request_lines();
    let reference = reference_digests(&lines);

    // Cold batch: every digest must equal direct in-process execution.
    let results = fleet.run_batch(fleet_jobs(&lines), |_| {});
    assert_eq!(results.len(), lines.len());
    let mut by_index = HashMap::new();
    for result in &results {
        assert_eq!(
            result.status, "done",
            "job {}: {}",
            result.index, result.line
        );
        assert!(!result.failed);
        assert_eq!(digest_of(&result.line), reference[result.index]);
        by_index.insert(result.index, result.clone());
    }

    // With one replica and both shards alive, every cold solve was
    // pushed to the other shard: the histories must show every key on
    // both shards, and must satisfy the consistency model.
    let histories = fleet.fetch_histories().expect("both shards answer");
    assert_eq!(histories.len(), 2);
    let report = check(&histories).expect("cold batch is consistent");
    assert_eq!(report.keys, lines.len());
    assert_eq!(
        report.replicated_keys,
        lines.len(),
        "every completed entry is replicated to the peer shard"
    );

    // Warm batch: same jobs, now answered from the shards' caches, with
    // the same digests.
    let warm = fleet.run_batch(fleet_jobs(&lines), |_| {});
    for result in &warm {
        assert_eq!(result.status, "done");
        assert!(result.cache_hit, "job {}: {}", result.index, result.line);
        assert_eq!(digest_of(&result.line), reference[result.index]);
        assert_eq!(
            result.shard, by_index[&result.index].shard,
            "routing is stable while the shard set is stable"
        );
    }

    let histories = fleet.fetch_histories().expect("both shards answer");
    let report = check(&histories).expect("warm batch is consistent");
    assert!(report.hits >= lines.len());

    fleet.shutdown_shards();
    s1.wait();
    s2.wait();
}

#[test]
fn a_shard_killed_mid_batch_loses_no_jobs_and_stays_consistent() {
    let s1 = spawn_shard("s1");
    let s2 = spawn_shard("s2");
    let fleet = quick_fleet(vec![s1.addr().to_string(), s2.addr().to_string()]);

    let lines = request_lines();
    let reference = reference_digests(&lines);

    // Warm both shards (cold solves + replication), and pin down the
    // routing: which shard owns which job.
    let cold = fleet.run_batch(fleet_jobs(&lines), |_| {});
    let on_s2 = cold
        .iter()
        .filter(|r| r.shard.as_deref() == Some("s2"))
        .count();
    let report = check(&fleet.fetch_histories().expect("fetch")).expect("consistent");
    assert_eq!(report.replicated_keys, lines.len());

    // Re-run the batch and kill shard 2 after the second result lands:
    // its queued and in-flight jobs must be re-dispatched onto the
    // survivor, never silently dropped.
    let mut seen = 0usize;
    let results = fleet.run_batch(fleet_jobs(&lines), |_| {
        seen += 1;
        if seen == 2 {
            s2.kill();
        }
    });
    assert_eq!(results.len(), lines.len(), "no job was dropped");
    for result in &results {
        assert_eq!(
            result.status, "done",
            "job {}: {}",
            result.index, result.line
        );
        assert!(!result.failed);
        assert_eq!(
            digest_of(&result.line),
            reference[result.index],
            "failover preserved bit-identical digests"
        );
    }

    // The surviving histories still satisfy the consistency model. (If
    // shard 2 died before answering anything this round, the fleet may
    // still list it as alive but unreachable; fetch then fails on it, so
    // only assert through the checker when the fetch succeeds.)
    if let Ok(histories) = fleet.fetch_histories() {
        check(&histories).expect("post-failover histories are consistent");
    }

    // Sanity: the batch genuinely spanned both shards before the kill —
    // otherwise this test exercised nothing. Twelve distinct keys over
    // two shards make a one-sided split all but impossible.
    assert!(on_s2 > 0, "routing never used shard 2; rework the job set");
    assert!(on_s2 < lines.len(), "routing never used shard 1");

    fleet.shutdown_shards();
    s1.wait();
    s2.wait();
}

#[test]
fn replan_frames_keep_a_warm_session_across_connections() {
    use etcs_fleet::wire::ShardClient;

    let shard = spawn_shard("rp");
    let addr = shard.addr().to_string();

    let mut client = ShardClient::connect(&addr).expect("connect");
    let opened = client
        .replan(
            "{\"record\": \"open\", \"session\": \"dispatch\", \
             \"scenario\": \"fixture:running_example\"}",
        )
        .expect("open");
    assert!(opened.contains("\"record\": \"opened\""), "{opened}");
    let first = client
        .replan("{\"record\": \"tick\", \"session\": \"dispatch\"}")
        .expect("tick");
    assert!(first.contains("\"warm\": false"), "{first}");
    assert!(first.contains("\"feasible\": true"), "{first}");

    // The streamed tick's verdict digest equals the cold
    // optimize_incremental *job*'s for the same scenario — the parity
    // `ci/check.sh` relies on.
    let job = client
        .job(
            "{\"id\": \"cold\", \"kind\": \"optimize_incremental\", \
             \"scenario\": \"fixture:running_example\"}",
        )
        .expect("job");
    let digest_in = |line: &str| {
        let marker = "\"verdict_digest\": \"";
        let at = line.find(marker).expect("has a verdict digest") + marker.len();
        line[at..at + 32].to_owned()
    };
    assert_eq!(
        digest_in(&first),
        digest_in(&job.response),
        "a streamed tick and the cold job agree on the verdict digest"
    );

    client
        .replan(
            "{\"record\": \"delta\", \"session\": \"dispatch\", \
             \"delta\": \"deadline Train 1 : arr 0:04:00\"}",
        )
        .expect("delta");

    // Drop the connection entirely: the session (and its warm cores)
    // lives on the shard, so a fresh connection resumes it.
    drop(client);
    let mut client = ShardClient::connect(&addr).expect("reconnect");
    let second = client
        .replan("{\"record\": \"tick\", \"session\": \"dispatch\"}")
        .expect("tick after reconnect");
    assert!(
        second.contains("\"warm\": true"),
        "deadline delta keeps the core warm across connections: {second}"
    );

    let stats = client.stats().expect("stats");
    let replan = stats.get("replan").expect("stats carry a replan section");
    let counter = |key: &str| replan.get(key).and_then(json::Json::as_f64);
    assert_eq!(counter("ticks"), Some(2.0));
    assert_eq!(counter("warm_hits"), Some(1.0));
    assert_eq!(counter("deadline_misses"), Some(0.0));

    let closed = client
        .replan("{\"record\": \"close\", \"session\": \"dispatch\"}")
        .expect("close");
    assert!(closed.contains("\"record\": \"closed\""), "{closed}");

    client.shutdown().expect("shutdown");
    shard.wait();
}
