//! Session-level behaviour: warm reuse, cold fallback, staleness, and
//! agreement with the one-shot incremental loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use etcs_core::{optimize_incremental, DesignOutcome, EncoderConfig, Instance, SolvedPlan};
use etcs_network::{fixtures, Scenario, Seconds};
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

/// The trains whose arrival step in `plan`, computed on a fresh open
/// instance of `scenario`, is past their deadline step, in schedule order.
fn late_on_a_fresh_instance(scenario: &Scenario, plan: &SolvedPlan) -> Vec<String> {
    let inst = Instance::new(&scenario.without_arrivals()).expect("valid");
    scenario
        .schedule
        .runs()
        .iter()
        .zip(plan.arrival_steps(&inst))
        .filter(|(run, arrival)| {
            run.arrival
                .is_some_and(|d| arrival.is_none_or(|a| a > scenario.step_of(d)))
        })
        .map(|(run, _)| run.train.name.clone())
        .collect()
}

/// The warm key hashes departure steps: on the running example's 30 s
/// grid, Train 1's first two 5 s delays keep its departure on step 0 and
/// are answered from the stored answer; the third brings it to 15 s,
/// which rounds to step 1, and the tick falls back cold (and finds the
/// open scenario infeasible, as the cold solve does).
#[test]
fn sub_step_delays_are_answered_until_the_departure_step_moves() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    assert_eq!(s.current().r_t, Seconds(30));
    let first = s.tick();
    assert!(first.feasible && !first.warm);
    let plan = first
        .plan
        .as_ref()
        .expect("a feasible tick carries its plan");
    assert_eq!(
        first.late_trains,
        late_on_a_fresh_instance(s.current(), plan)
    );
    for total in [5, 10, 15] {
        s.apply(&ScenarioDelta::Delay {
            train: "Train 1".into(),
            by: Seconds(5),
        })
        .unwrap();
        let r = s.tick();
        assert!(!r.stale, "+{total} s");
        let cold = cold_costs(s.current());
        assert_eq!(r.feasible, cold.is_some(), "+{total} s");
        assert_eq!(r.costs, cold.unwrap_or_default(), "+{total} s");
        let late = r
            .plan
            .as_ref()
            .map_or_else(Vec::new, |plan| late_on_a_fresh_instance(s.current(), plan));
        assert_eq!(r.late_trains, late, "+{total} s");
        if total < 15 {
            assert!(r.warm, "+{total} s keeps every departure step");
            assert_eq!(r.solver_calls, 0, "+{total} s: the core's answer is stored");
            assert_eq!(r.plan, first.plan, "+{total} s: the answering tick's plan");
        } else {
            assert!(!r.warm, "+15 s rounds Train 1's departure to step 1");
            assert!(r.solver_calls > 0);
        }
    }
    let stats = s.stats();
    assert_eq!((stats.warm_hits, stats.cold_fallbacks), (2, 2));
}

#[test]
fn tightened_deadline_surfaces_late_trains() {
    let mut s = ReplanSession::new(fixtures::running_example(), ReplanConfig::default()).unwrap();
    let relaxed = s.tick();
    assert!(relaxed.feasible);
    let plan = relaxed
        .plan
        .clone()
        .expect("a feasible tick carries its plan");
    let train = "Train 1";
    let index = s
        .current()
        .schedule
        .runs()
        .iter()
        .position(|run| run.train.name == train)
        .expect("the fixture schedules Train 1");
    let inst = Instance::new(&s.current().without_arrivals()).unwrap();
    let arrival = plan.arrival_steps(&inst)[index].expect("the plan delivers Train 1");
    // A deadline one step before the planned arrival: the deadline does
    // not move the core, so the plan stands and the report flags the train.
    s.apply(&ScenarioDelta::Deadline {
        train: train.into(),
        arrival: Some(s.current().time_of(arrival - 1)),
    })
    .unwrap();
    let r = s.tick();
    assert!(r.feasible && r.warm && r.solver_calls == 0);
    assert_eq!(r.plan.as_ref(), Some(&plan), "the answered core's plan");
    assert!(r.late_trains.iter().any(|t| t == train), "{r:?}");
    assert_eq!(r.late_trains, late_on_a_fresh_instance(s.current(), &plan));

    s.apply(&ScenarioDelta::Deadline {
        train: train.into(),
        arrival: None,
    })
    .unwrap();
    let r = s.tick();
    assert!(r.feasible && r.warm && r.solver_calls == 0);
    assert!(!r.late_trains.iter().any(|t| t == train), "{r:?}");
    assert_eq!(r.late_trains, late_on_a_fresh_instance(s.current(), &plan));
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

/// Blocks the first span named `span` it sees for `stall`: a tick whose
/// budget is at most `stall` then misses it there, on any machine.
struct StallFirst {
    span: &'static str,
    stall: Duration,
    stalled: AtomicBool,
}

impl Sink for StallFirst {
    fn record(&self, event: &Event) {
        if event.kind == EventKind::SpanOpen
            && event.name == self.span
            && !self.stalled.swap(true, Ordering::SeqCst)
        {
            std::thread::sleep(self.stall);
        }
    }
}

#[test]
fn an_interrupted_tick_leaves_its_core_open_for_the_next_one() {
    let budget = Duration::from_secs(1);
    let obs = Obs::with_sink(StallFirst {
        span: "probe",
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

#[test]
fn a_tick_interrupted_in_stage_2_leaves_its_core_open_for_the_next_one() {
    let budget = Duration::from_secs(1);
    let obs = Obs::with_sink(StallFirst {
        span: "stage2",
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
        "the first stage 2 outlasts the budget"
    );
    assert!(!missed.feasible && missed.plan.is_none(), "no earlier plan");
    assert!(missed.solver_calls > 0, "the probes ran before stage 2");

    let resumed = s.tick();
    assert!(resumed.warm, "the interrupted search stayed cached");
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
