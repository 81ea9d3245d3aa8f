//! Certifying answers end to end: `certify` and `certify_diagnosis`
//! accept the answer of every driver — eager, incremental and lazy — on
//! fresh proof-logged encodings, and a missed stop deadline is diagnosed
//! as a conflict naming its train.

use etcs::parse_scenario;
use etcs::prelude::*;

/// A single-track line where a slow leader makes a tight follower
/// deadline unachievable: a deadline conflict, not a structural deadlock.
const FOLLOWER: &str = "\
scenario Follower
rs 500
rt 30
horizon 0:10:00

node a-end
node a-end2
node p1
node p2
node b-end

track A1 : a-end - p1 500
track A2 : a-end2 - p1 500
track link : p1 - p2 2000
track B : p2 - b-end 500

ttd TTD-A1 : A1
ttd TTD-A2 : A2
ttd TTD-L : link
ttd TTD-B : B

station A : boundary A1, A2
station B : boundary B

train Slow leader : 200 60
train Tight follower : 200 120

run Slow leader : A -> B dep 0:00:00 arr 0:03:30
run Tight follower : A -> B dep 0:01:00 arr 0:02:30
";

fn follower() -> Scenario {
    parse_scenario(FOLLOWER).expect("valid")
}

/// The station-sidings sample with a Middleton stop deadline for
/// `Local 2`, which departs the western boundary at 0:01:00.
fn stop_case(deadline: &str) -> Scenario {
    let base = include_str!("../scenarios/station_sidings.rail");
    parse_scenario(&format!("{base}stop Local 2 : Middleton arr {deadline}\n")).expect("valid")
}

fn full_layout(scenario: &Scenario) -> VssLayout {
    VssLayout::full(&Instance::new(scenario).expect("valid").net)
}

/// Every driver's answer to `task` on `scenario`, labelled, with the task
/// and config it ran under: eager and lazy, plus the
/// incremental loop for an optimisation.
fn answers(
    scenario: &Scenario,
    task: &TaskKind,
) -> Vec<(&'static str, TaskKind, EncoderConfig, DesignOutcome)> {
    let plain = EncoderConfig::default();
    let eager = |task: &TaskKind, config: EncoderConfig| {
        run(scenario, task, &config, &Run::default())
            .expect("well-formed")
            .0
    };
    let (lazy, _) = etcs::lazy::run(scenario, task, &plain, &Run::default()).expect("well-formed");
    let mut out = vec![
        ("eager", task.clone(), plain, eager(task, plain)),
        ("lazy", task.clone(), plain, lazy),
    ];
    if matches!(task, TaskKind::Optimize) {
        let incremental = TaskKind::OptimizeIncremental;
        let outcome = eager(&incremental, plain);
        out.push(("incremental", incremental, plain, outcome));
    }
    out
}

#[test]
fn every_driver_answer_certifies() {
    let running = fixtures::running_example();
    let cases = [
        (running.clone(), TaskKind::Verify(VssLayout::pure_ttd())),
        (running.clone(), TaskKind::Verify(full_layout(&running))),
        (running.clone(), TaskKind::Generate),
        (follower(), TaskKind::Generate),
        (running, TaskKind::Optimize),
        (fixtures::convoy(), TaskKind::Optimize),
    ];
    for (scenario, task) in &cases {
        for (driver, task, config, outcome) in answers(scenario, task) {
            let cert = certify(scenario, &task, &config, &outcome).unwrap_or_else(|e| {
                panic!("{} {task:?} from the {driver} driver: {e}", scenario.name)
            });
            let sat = matches!(cert.verdict, CertifiedVerdict::ModelChecked);
            assert_eq!(sat, outcome.is_feasible(), "{} {driver}", scenario.name);
        }
    }
}

#[test]
fn every_diagnosis_certifies() {
    let running = fixtures::running_example();
    let pure = VssLayout::pure_ttd();
    let cases = [
        (running.clone(), pure.clone(), "structural"),
        (running.clone(), full_layout(&running), "feasible"),
        (follower(), pure.clone(), "conflict"),
        (stop_case("0:01:00"), pure, "conflict"),
    ];
    let config = EncoderConfig::default();
    for (scenario, layout, expected) in &cases {
        let (d, _) = diagnose(scenario, layout, &config, &Run::default()).expect("well-formed");
        let kind = match d {
            Diagnosis::Feasible => "feasible",
            Diagnosis::Structural => "structural",
            Diagnosis::Conflict { .. } => "conflict",
        };
        assert_eq!(kind, *expected, "{}", scenario.name);
        certify_diagnosis(scenario, layout, &config, &d)
            .unwrap_or_else(|e| panic!("{} {d:?}: {e}", scenario.name));
    }
}

#[test]
fn a_missed_stop_deadline_is_a_conflict_naming_its_train() {
    let config = EncoderConfig::default();
    let late = stop_case("0:01:00");
    let relaxed = stop_case("0:01:30");
    for layout in [VssLayout::pure_ttd(), full_layout(&late)] {
        let (v, _) = verify(&late, &layout, &config).expect("well-formed");
        assert!(
            !v.is_feasible(),
            "Local 2 cannot reach Middleton by 0:01:00"
        );
        let (d, _) = diagnose(&late, &layout, &config, &Run::default()).expect("well-formed");
        let Diagnosis::Conflict { names, .. } = &d else {
            panic!("a missed stop deadline is a deadline conflict, not {d:?}");
        };
        assert_eq!(names, &["Local 2".to_owned()]);
        let cert = certify_diagnosis(&late, &layout, &config, &d).expect("certified");
        assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));

        let (v, _) = verify(&relaxed, &layout, &config).expect("well-formed");
        assert!(v.is_feasible(), "half a minute more makes the stop");
    }
}
