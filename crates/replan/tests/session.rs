//! Session-level behaviour: warm reuse, cold fallback, staleness, and
//! agreement with the one-shot incremental loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use etcs_core::{optimize_incremental, DesignOutcome, EncoderConfig};
use etcs_network::{fixtures, Seconds};
use etcs_obs::{Event, EventKind, Obs, Sink};
use etcs_replan::{ReplanConfig, ReplanSession, ScenarioDelta};

fn cold_costs(scenario: &etcs_network::Scenario) -> Option<Vec<u64>> {
    let (out, _) = optimize_incremental(scenario, &EncoderConfig::default()).expect("valid");
    match out {
        DesignOutcome::Solved { costs, .. } => Some(costs),
        DesignOutcome::Infeasible => None,
    }
}

#[test]
fn deadline_delta_is_a_warm_hit_with_unchanged_optima() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let first = s.tick();
    assert!(first.feasible && !first.warm && !first.stale);
    s.apply(&ScenarioDelta::Deadline {
        train: "Train 1".into(),
        arrival: Some(Seconds(240)),
    })
    .unwrap();
    let second = s.tick();
    assert!(second.warm, "deadline deltas keep the scenario core");
    assert!(!second.stale);
    assert_eq!(first.costs, second.costs, "optima are core-determined");
    assert!(
        second.conflicts <= first.conflicts,
        "warm tick re-solves on learnt state: {} > {}",
        second.conflicts,
        first.conflicts
    );
    let stats = s.stats();
    assert_eq!(stats.ticks, 2);
    assert_eq!(stats.warm_hits, 1);
    assert_eq!(stats.cold_fallbacks, 1);
    assert_eq!(stats.deadline_misses, 0);
}

#[test]
fn delay_falls_back_cold_and_matches_the_one_shot_loop() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    s.tick();
    s.apply(&ScenarioDelta::Delay {
        train: "Train 1".into(),
        by: Seconds(30),
    })
    .unwrap();
    let r = s.tick();
    assert!(!r.warm, "a departure change invalidates the core");
    let cold = cold_costs(s.current());
    match cold {
        Some(costs) => {
            assert!(r.feasible);
            assert_eq!(r.costs, costs);
        }
        None => assert!(!r.feasible, "session disagrees with cold solve"),
    }
    assert_eq!(s.stats().cold_fallbacks, 2);
}

#[test]
fn tightened_deadline_surfaces_late_trains() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let relaxed = s.tick();
    assert!(relaxed.feasible);
    let completion = relaxed.costs[0];
    // An arrival deadline one step before the proven optimum cannot be
    // met: the plan stands, the report flags the train.
    let impossible = (completion - 2) * s.current().r_t.as_u64();
    s.apply(&ScenarioDelta::Deadline {
        train: "Train 1".into(),
        arrival: Some(Seconds(impossible.max(1))),
    })
    .unwrap();
    let r = s.tick();
    assert!(r.feasible && r.warm);
    // Whether "Train 1" specifically is late depends on which optimal
    // plan the solver found; the report must at least be consistent:
    // every reported train exists and holds a deadline.
    for name in &r.late_trains {
        let run = s
            .current()
            .schedule
            .runs()
            .iter()
            .find(|run| run.train.name == *name)
            .expect("late train is scheduled");
        assert!(run.arrival.is_some(), "late train has a deadline");
    }
}

#[test]
fn close_then_reopen_rehits_the_cached_core() {
    let base = fixtures::running_example();
    let mut s = ReplanSession::new(base.clone(), ReplanConfig::default()).unwrap();
    let first = s.tick();
    assert!(first.feasible);

    // Find a closable track (accepted delta) whose closure still leaves
    // a feasible scenario; the fixture has parallel station tracks.
    let names: Vec<String> = base
        .network
        .tracks()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let mut closed = None;
    for name in names {
        if s.apply(&ScenarioDelta::Close {
            track: name.clone(),
        })
        .is_ok()
        {
            closed = Some(name);
            break;
        }
    }
    let closed = closed.expect("some track closes cleanly");
    let during = s.tick();
    assert!(!during.warm, "topology change is a cold fallback");
    assert_eq!(
        cold_costs(s.current()).is_some(),
        during.feasible,
        "closed-track verdict matches the one-shot loop"
    );

    s.apply(&ScenarioDelta::Reopen { track: closed }).unwrap();
    let after = s.tick();
    assert!(after.warm, "reopening returns to the cached core");
    assert_eq!(
        after.costs, first.costs,
        "restored scenario, restored optima"
    );
    let stats = s.stats();
    assert_eq!(stats.ticks, 3);
    assert_eq!(stats.warm_hits, 1);
    assert_eq!(stats.cold_fallbacks, 2);
}

#[test]
fn cancelled_session_degrades_to_stale_plans() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let fresh = s.tick();
    assert!(fresh.feasible && !fresh.stale);

    s.interrupt().trigger();
    let stale = s.tick();
    assert!(stale.stale, "a triggered session token misses the tick");
    assert!(stale.feasible, "the last valid verdict is echoed");
    assert_eq!(stale.costs, fresh.costs, "the last valid costs are echoed");
    assert_eq!(stale.plan, fresh.plan, "the last valid plan is echoed");
    assert!(stale.late_trains.is_empty(), "no claims about a stale plan");
    let stats = s.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.ticks, 2);
}

#[test]
fn stale_before_any_plan_reports_infeasible_emptiness() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    s.interrupt().trigger();
    let r = s.tick();
    assert!(r.stale);
    assert!(!r.feasible);
    assert!(r.costs.is_empty() && r.plan.is_none());
}

#[test]
fn lazy_sessions_match_eager_optima_and_count_cold() {
    let lazy_cfg = ReplanConfig {
        lazy: true,
        ..ReplanConfig::default()
    };
    let mut lazy = ReplanSession::new(fixtures::running_example(), lazy_cfg).unwrap();
    let mut eager =
        ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    for _ in 0..2 {
        let l = lazy.tick();
        let e = eager.tick();
        assert_eq!(l.feasible, e.feasible);
        assert_eq!(l.costs, e.costs);
        assert!(!l.warm, "lazy ticks re-encode");
    }
    assert_eq!(lazy.stats().cold_fallbacks, 2);
    assert_eq!(lazy.stats().warm_hits, 0);
}

#[test]
fn rejected_delta_counts_and_preserves_ticking() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let first = s.tick();
    s.apply(&ScenarioDelta::Remove {
        train: "nonexistent".into(),
    })
    .expect_err("rejected");
    let second = s.tick();
    assert!(second.warm, "rejected deltas leave the core untouched");
    assert_eq!(first.costs, second.costs);
    let stats = s.stats();
    assert_eq!(stats.rejected_deltas, 1);
    assert_eq!(stats.deltas, 0);
}

#[test]
fn a_tick_on_an_answered_core_makes_no_solver_call() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let first = s.tick();
    assert!(first.feasible && !first.warm && first.solver_calls > 0);
    for arrival in [Some(Seconds(240)), None] {
        s.apply(&ScenarioDelta::Deadline {
            train: "Train 1".into(),
            arrival,
        })
        .unwrap();
        let r = s.tick();
        assert!(r.warm && !r.stale && r.feasible);
        assert_eq!(r.solver_calls, 0, "the core's answer is stored");
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.costs, first.costs, "the answering tick's costs");
        assert_eq!(r.plan, first.plan, "the answering tick's plan");
    }
    assert_eq!(s.stats().warm_hits, 2);
}

/// Blocks the first `probe` span it sees for `stall`: a tick whose budget
/// is at most `stall` then misses it at that probe, on any machine.
struct StallFirstProbe {
    stall: Duration,
    stalled: AtomicBool,
}

impl Sink for StallFirstProbe {
    fn record(&self, event: &Event) {
        if event.kind == EventKind::SpanOpen
            && event.name == "probe"
            && !self.stalled.swap(true, Ordering::SeqCst)
        {
            std::thread::sleep(self.stall);
        }
    }
}

#[test]
fn an_interrupted_tick_leaves_its_core_open_for_the_next_one() {
    let budget = Duration::from_secs(1);
    let obs = Obs::with_sink(StallFirstProbe {
        stall: budget,
        stalled: AtomicBool::new(false),
    });
    let config = ReplanConfig {
        tick_budget: Some(budget),
        ..ReplanConfig::default()
    };
    let mut s = ReplanSession::new_obs(fixtures::running_example(), config, &obs).unwrap();

    let missed = s.tick();
    assert!(
        missed.stale && !missed.warm,
        "the first probe outlasts the budget"
    );
    assert!(!missed.feasible && missed.plan.is_none(), "no earlier plan");

    let resumed = s.tick();
    assert!(resumed.warm, "the interrupted encoding stayed cached");
    assert!(!resumed.stale && resumed.feasible);
    assert!(resumed.solver_calls > 0, "an open core is solved");
    assert_eq!(Some(resumed.costs.clone()), cold_costs(s.current()));

    let answered = s.tick();
    assert!(answered.warm && !answered.stale);
    assert_eq!(
        answered.solver_calls, 0,
        "the resumed tick stored its answer"
    );
    assert_eq!(answered.conflicts, 0);
    assert_eq!(answered.costs, resumed.costs);
    assert_eq!(answered.plan, resumed.plan);

    let stats = s.stats();
    assert_eq!((stats.warm_hits, stats.cold_fallbacks), (2, 1));
    assert_eq!(stats.deadline_misses, 1);
}
