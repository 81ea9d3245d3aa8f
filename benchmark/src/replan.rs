//! `replan_churn`: a dispatcher driving ten replanning sessions round-robin
//! through `ReplanSession::apply` and `ReplanSession::tick`, waiting on each
//! tick. One request is one tick together with the delta before it.

use std::hint::black_box;
use std::time::Instant;

use etcs_core::{optimize_incremental, sub_fingerprints, DesignOutcome, EncoderConfig, Instance};
use etcs_corpus::{Family, SizeClass};
use etcs_network::Scenario;
use etcs_obs::Obs;
use etcs_replan::{ReplanConfig, ReplanSession, ScenarioDelta};

use crate::fold::{fold, Tracer};
use crate::inputs::{self, SessionPlan, SESSIONS, TICKS};
use crate::run::{us, Digest, Phase, Workload};

/// Every tenth tick is re-solved cold after the loop.
const RESOLVE_EVERY: usize = 10;

pub struct Replan {
    plans: Vec<SessionPlan>,
    sessions: Vec<ReplanSession>,
    warm: Scenario,
    obs: Obs,
    next: usize,
    /// Ticks to re-solve cold after the loop: request index, scenario,
    /// verdict, costs.
    resolve: Vec<(usize, Scenario, bool, Vec<u64>)>,
}

impl Replan {
    fn open_sessions(&mut self) {
        self.sessions.clear();
        self.sessions = self
            .plans
            .iter()
            .map(|p| {
                ReplanSession::new_obs(p.base.clone(), ReplanConfig::default(), &self.obs)
                    .expect("corpus scenarios open")
            })
            .collect();
    }
}

impl Workload for Replan {
    const PREFIX: usize = 200;
    /// Four rounds of the ten sessions: one cold round, three warm ones.
    const UNIT: usize = 4 * SESSIONS;

    fn setup(seed: u64, _failures: &mut Vec<String>) -> Self {
        // The sessions use the first distinct moving_block Small scenario;
        // the warm-up uses the second, outside the measured set.
        let warm = inputs::distinct_scenarios(Family::MovingBlock, SizeClass::Small, 2)
            .pop()
            .expect("moving_block Small has several scenarios");
        let mut w = Replan {
            plans: inputs::replan_sessions(seed),
            sessions: Vec::new(),
            warm,
            obs: Obs::disabled(),
            next: 0,
            resolve: Vec::new(),
        };
        w.open_sessions();
        w
    }

    fn warmup(&mut self) {
        let mut session =
            ReplanSession::new(self.warm.clone(), ReplanConfig::default()).expect("warm-up opens");
        black_box(session.tick());
        let train = self.warm.schedule.runs()[0].train.name.clone();
        let clear = ScenarioDelta::Deadline {
            train,
            arrival: None,
        };
        if session.apply(&clear).is_ok() {
            black_box(session.tick());
        }
    }

    fn reset(&mut self, obs: Obs, _failures: &mut Vec<String>) {
        self.obs = obs;
        self.next = 0;
        self.open_sessions();
    }

    fn request(&mut self, tracer: Option<&Tracer>, phase: &mut Phase) {
        let index = phase.index();
        let sessions = self.plans.len();
        if self.next > 0 && self.next.is_multiple_of(sessions * TICKS) {
            self.open_sessions();
        }
        let s = self.next % sessions;
        let round = (self.next / sessions) % TICKS;
        self.next += 1;
        let delta = self.plans[s].deltas[round].as_ref();
        let session = &mut self.sessions[s];
        if let Some(t) = tracer {
            t.take();
        }

        let t0 = Instant::now();
        let applied = delta.map_or(Ok(()), |d| session.apply(d));
        let t1 = Instant::now();
        let report = session.tick();
        let t2 = Instant::now();
        phase.latency(t2 - t0);

        let checks = Instant::now();
        let name = &self.plans[s].base.name;
        if let Err(e) = applied {
            phase.fail(format!("{name} tick {round}: {e}"));
        }
        if report.stale {
            phase.fail(format!("{name} tick {round}: stale plan"));
        }
        match (&report.plan, report.feasible) {
            (Some(plan), true) => {
                let t = Instant::now();
                let inst = Instance::new(&session.current().without_arrivals());
                phase.layers.add_us("core.instance", us(t.elapsed()));
                match inst {
                    Ok(inst) => {
                        let t = Instant::now();
                        let valid = etcs_sim::validate(&inst, plan, false).is_valid();
                        phase.layers.add_us("sim.validate", us(t.elapsed()));
                        if !valid {
                            phase.fail(format!(
                                "{name} tick {round}: the simulator rejects the plan"
                            ));
                        }
                    }
                    Err(e) => phase.fail(format!("{name} tick {round}: {e}")),
                }
            }
            (None, true) => phase.fail(format!("{name} tick {round}: feasible without a plan")),
            _ => {}
        }
        if index.is_multiple_of(RESOLVE_EVERY) {
            self.resolve.push((
                index,
                session.current().clone(),
                report.feasible,
                report.costs.clone(),
            ));
        }
        let mut verdict = Digest::default();
        verdict.add(u128::from(report.feasible));
        report
            .costs
            .iter()
            .for_each(|&c| verdict.add(u128::from(c)));
        phase.output(Self::PREFIX, index, verdict.value(), report.conflicts, 0);

        if let Some(tracer) = tracer {
            // The `replan.delta` span lies inside the timed `apply` call.
            let folded: Vec<_> = fold(&tracer.take())
                .into_iter()
                .filter(|f| f.name != "replan.delta")
                .collect();
            let l = &mut phase.layers;
            let apply = us(t1 - t0);
            l.requests += 1;
            l.latency_us += us(t2 - t0);
            l.add_us("replan.apply", apply);
            l.attributed_us += apply + l.charge_spans(&folded, report.warm);
            l.add("replan.ticks", 1.0);
            l.add("replan.warm_ticks", f64::from(u8::from(report.warm)));
            l.add("replan.cold_fallbacks", f64::from(u8::from(!report.warm)));
            let t = Instant::now();
            black_box(sub_fingerprints(
                session.current(),
                &EncoderConfig::default(),
            ));
            l.add_us("core.fingerprint", us(t.elapsed()));
        }
        phase.exclude(checks);
    }

    fn finish(&mut self, phase: &mut Phase) {
        for (index, scenario, feasible, costs) in self.resolve.drain(..) {
            let cold = optimize_incremental(&scenario, &EncoderConfig::default());
            let agrees = match cold {
                Ok((DesignOutcome::Solved { costs: c, .. }, _)) => feasible && c == costs,
                Ok((DesignOutcome::Infeasible, _)) => !feasible,
                Err(_) => false,
            };
            if !agrees {
                phase.fail_at(
                    index,
                    format!("{}: the tick disagrees with a cold re-solve", scenario.name),
                );
            }
        }
    }

    fn distinct_keys(&self) -> usize {
        // Each session's base core plus one new core per delay.
        self.plans
            .iter()
            .map(|p| {
                1 + p
                    .deltas
                    .iter()
                    .flatten()
                    .filter(|d| d.kind() == "delay")
                    .count()
            })
            .sum()
    }
}
