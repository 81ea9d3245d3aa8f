//! The replanning differential contract, end to end: replaying a
//! `.delta` trace through a warm [`ReplanSession`] must produce, at
//! every tick, the **bit-identical verdict and proven optima** of a cold
//! [`optimize_incremental`] solve of the same patched scenario — on
//! both the eager warm-core path and the lazy CEGAR path. The witness
//! plan may differ (the session's stage 2 starts from a border guess);
//! verdict and cost vector may not.

use etcs::corpus::{Family, InstanceSpec, SizeClass};
use etcs::prelude::*;
use etcs::replan::{parse_trace, ReplanConfig, ReplanSession, ScenarioDelta, TraceOp};
use etcs::Seconds;

/// The two session configurations under differential test.
fn modes() -> Vec<(&'static str, ReplanConfig)> {
    vec![
        ("eager", ReplanConfig::default()),
        (
            "lazy",
            ReplanConfig {
                lazy: true,
                ..ReplanConfig::default()
            },
        ),
    ]
}

/// The canonical cold answer for a scenario: verdict + optima from a
/// from-scratch incremental solve under the default configuration.
fn cold_reference(scenario: &Scenario) -> (bool, Vec<u64>) {
    let (outcome, _) =
        optimize_incremental(scenario, &EncoderConfig::default()).expect("well-formed");
    match outcome {
        DesignOutcome::Solved { costs, .. } => (true, costs),
        DesignOutcome::Infeasible => (false, Vec::new()),
    }
}

/// Replays `ops` over `base` under `config`, asserting every tick
/// matches the cold reference of the then-current scenario. Returns the
/// number of warm hits so callers can pin the warm/cold split.
fn assert_replay_matches_cold(
    label: &str,
    base: Scenario,
    ops: &[TraceOp],
    config: ReplanConfig,
) -> u64 {
    let mut session = ReplanSession::new(base, config).expect("base scenario is valid");
    for (i, op) in ops.iter().enumerate() {
        match op {
            TraceOp::Delta(d) => {
                session
                    .apply(d)
                    .unwrap_or_else(|e| panic!("{label}: op {i}: {e}"));
            }
            TraceOp::Tick => {
                let r = session.tick();
                assert!(!r.stale, "{label}: tick {} stale without a budget", r.tick);
                let (feasible, costs) = cold_reference(session.current());
                assert_eq!(
                    (r.feasible, &r.costs),
                    (feasible, &costs),
                    "{label}: tick {} diverged from the cold solve",
                    r.tick
                );
            }
        }
    }
    session.stats().warm_hits
}

fn trace(rel: &str) -> Vec<TraceOp> {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("trace ships with the repo");
    parse_trace(&text).expect("trace parses")
}

#[test]
fn running_example_trace_is_bit_identical_across_modes() {
    let ops = trace("scenarios/replay/running_example.delta");
    for (name, config) in modes() {
        let warm = assert_replay_matches_cold(
            &format!("running_example/{name}"),
            fixtures::running_example(),
            &ops,
            config.clone(),
        );
        if config.lazy {
            assert_eq!(warm, 0, "lazy ticks re-encode, never warm");
        } else {
            // Two deadline ticks plus the close→reopen LRU re-hit.
            assert_eq!(warm, 3, "{name}: exemplar is authored to warm 3 of 8 ticks");
        }
    }
}

#[test]
fn grid_ladder_trace_is_bit_identical_across_modes() {
    let ops = trace("scenarios/replay/corpus_grid_ladder.delta");
    let base = || InstanceSpec::new(Family::GridLadder, SizeClass::Small, 0).build();
    for (name, config) in modes() {
        let warm = assert_replay_matches_cold(
            &format!("grid_ladder/{name}"),
            base(),
            &ops,
            config.clone(),
        );
        if !config.lazy {
            assert_eq!(warm, 3, "{name}: every re-solve after the first is warm");
        }
    }
}

/// Every corpus family at Small: a synthesized deadline-churn trace
/// (the core stays fixed, so every tick after the first is warm) agrees
/// with the cold solve at each step.
#[test]
fn synthesized_deadline_churn_agrees_on_every_corpus_family() {
    for family in Family::ALL {
        let scenario = InstanceSpec::new(family, SizeClass::Small, 0).build();
        let horizon = scenario.horizon;
        let train = scenario.schedule.runs()[0].train.name.clone();
        let ops = vec![
            TraceOp::Tick,
            TraceOp::Delta(ScenarioDelta::Deadline {
                train: train.clone(),
                arrival: Some(horizon),
            }),
            TraceOp::Tick,
            TraceOp::Delta(ScenarioDelta::Deadline {
                train: train.clone(),
                arrival: Some(Seconds(horizon.as_u64() / 2)),
            }),
            TraceOp::Tick,
            TraceOp::Delta(ScenarioDelta::Deadline {
                train,
                arrival: None,
            }),
            TraceOp::Tick,
        ];
        let warm =
            assert_replay_matches_cold(family.name(), scenario, &ops, ReplanConfig::default());
        assert_eq!(
            warm,
            3,
            "{}: deadline churn never leaves the core",
            family.name()
        );
    }
}

/// Every corpus family at Small under delay churn, the shape of the
/// `replan_churn` benchmark: 5 s delays rotating over the trains, each
/// followed by a tick and then a deadline delta and a tick. A delay moves
/// a departure, so every delay tick searches a new core from scratch; the
/// deadline ticks are answered from it. Every tick agrees with the cold
/// solve.
#[test]
fn delay_churn_agrees_on_every_corpus_family() {
    const DELAYS: usize = 3;
    for family in Family::ALL {
        let scenario = InstanceSpec::new(family, SizeClass::Small, 0).build();
        let runs = scenario.schedule.runs();
        let mut ops = vec![TraceOp::Tick];
        for k in 0..DELAYS {
            let delayed = &runs[k % runs.len()];
            let other = &runs[(k + 1) % runs.len()];
            ops.push(TraceOp::Delta(ScenarioDelta::Delay {
                train: delayed.train.name.clone(),
                by: Seconds(5),
            }));
            ops.push(TraceOp::Tick);
            ops.push(TraceOp::Delta(ScenarioDelta::Deadline {
                train: other.train.name.clone(),
                arrival: (k % 2 == 0).then_some(scenario.horizon),
            }));
            ops.push(TraceOp::Tick);
        }
        let warm =
            assert_replay_matches_cold(family.name(), scenario, &ops, ReplanConfig::default());
        assert_eq!(
            warm,
            DELAYS as u64,
            "{}: every delay tick is cold, every deadline tick warm",
            family.name()
        );
    }
}
