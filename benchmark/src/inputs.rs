//! Seeded input generation. Everything a workload sends derives from
//! `--seed` alone, and the program under test only ever receives the
//! request lines, scenarios and deltas built here.
//!
//! The scenario pools are the same for every seed; the seed decides the
//! order requests arrive in and the details of each replanning delta. Job
//! times on one corpus family vary by up to 10× between scenarios, so a
//! seed-dependent pool made the run-to-run spread of every timing two to
//! three times wider than the machine's own noise.
//!
//! Corpus seeds collide: 2000 Small seeds of a family yield only 7–26
//! distinct scenarios, and `station_throat` Medium about 24. Pools
//! therefore deduplicate by cache key, so a cold workload never asks for a
//! result the service has already cached.

use std::collections::HashSet;

use etcs_core::{EncoderConfig, Instance};
use etcs_corpus::{Family, InstanceSpec, SizeClass};
use etcs_network::{fixtures, write_scenario, NetworkError, Scenario, Seconds};
use etcs_obs::json;
use etcs_replan::ScenarioDelta;
use etcs_serve::wire::parse_request_line;
use etcs_serve::{JobKind, JobRequest};
use etcs_testkit::Rng;

/// Corpus seeds drawn per family while looking for distinct scenarios
/// (about 20 µs each; enough to exhaust every Small family).
const DRAWS: usize = 2000;

/// Seed of the corpus-seed stream every scenario pool is drawn from.
const POOL_SEED: u64 = 2021;

/// One request exactly as a `served` client would send it.
pub struct Job {
    /// The `served` request line.
    pub line: String,
    /// The request as the service parses it from `line`.
    pub request: JobRequest,
    /// The `.rail` text inside the line (for pricing the scenario parser).
    pub rail: String,
    /// The service's cache key for the request.
    pub key: u128,
}

impl Job {
    pub fn new(id: &str, kind: JobKind, layout: Option<&str>, scenario: &Scenario) -> Job {
        let rail = write_scenario(scenario);
        let layout = layout.map_or(String::new(), |l| {
            format!(", \"layout\": {}", json::quote(l))
        });
        let line = format!(
            "{{\"id\": {}, \"kind\": {}, \"scenario\": {}{layout}}}",
            json::quote(id),
            json::quote(kind.name()),
            json::quote(&format!("rail:{rail}")),
        );
        // Parse through the service's own entry point, so the key is the
        // one the service will compute.
        let request = parse_request_line(&line, id, false, None).expect("generated lines parse");
        let key = request.cache_key(&EncoderConfig::default());
        Job {
            line,
            request,
            rail,
            key,
        }
    }

    /// Whether the job's verdict drops the scenario's arrival deadlines.
    pub fn is_optimize(&self) -> bool {
        matches!(
            self.request.kind,
            JobKind::Optimize | JobKind::OptimizeIncremental
        )
    }

    /// The instance the job's task solves, which its plan must validate
    /// on: the optimisation kinds drop the arrival deadlines.
    pub fn solved_instance(&self) -> Result<Instance, NetworkError> {
        if self.is_optimize() {
            Instance::new(&self.request.scenario.without_arrivals())
        } else {
            Instance::new(&self.request.scenario)
        }
    }
}

/// Fisher–Yates shuffle on the corpus RNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn salt(family: Family, size: SizeClass) -> u64 {
    (family as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((size as u64 + 1) << 56)
}

/// Up to `want` scenarios of one family and size with pairwise distinct
/// cache keys, in the order a fixed stream of corpus seeds finds them.
pub fn distinct_scenarios(family: Family, size: SizeClass, want: usize) -> Vec<Scenario> {
    let mut rng = Rng::new(POOL_SEED ^ salt(family, size));
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..DRAWS {
        if out.len() == want {
            break;
        }
        let scenario = InstanceSpec::new(family, size, rng.next_u64()).build();
        let key = JobRequest::new("k", JobKind::Generate, scenario.clone())
            .cache_key(&EncoderConfig::default());
        if seen.insert(key) {
            out.push(scenario);
        }
    }
    out
}

/// `design_encode`: blocks of 16 cold jobs, every block holding each
/// family × kind pair once (shuffled), so any prefix of whole blocks has
/// the same mix. Every job has its own cache key.
pub fn design_encode(seed: u64) -> Vec<Job> {
    const FAMILIES: [Family; 4] = [
        Family::ConvoyChain,
        Family::MovingBlock,
        Family::StationThroat,
        Family::BranchedMesh,
    ];
    const KINDS: [JobKind; 4] = [
        JobKind::Verify,
        JobKind::Generate,
        JobKind::Optimize,
        JobKind::OptimizeIncremental,
    ];
    // `station_throat` Medium has only 22–26 distinct scenarios within
    // `DRAWS` corpus seeds; 20 blocks keep every family at the same count.
    const BLOCKS: usize = 20;
    let scenarios: Vec<Vec<Scenario>> = FAMILIES
        .iter()
        .map(|&f| distinct_scenarios(f, SizeClass::Medium, BLOCKS))
        .collect();
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for block in 0..BLOCKS {
        let mut pairs: Vec<(usize, JobKind)> = (0..FAMILIES.len())
            .flat_map(|f| KINDS.iter().map(move |&k| (f, k)))
            .filter(|&(f, _)| block < scenarios[f].len())
            .collect();
        shuffle(&mut pairs, &mut rng);
        for (f, kind) in pairs {
            let id = format!("enc-{}", jobs.len());
            jobs.push(Job::new(&id, kind, None, &scenarios[f][block]));
        }
    }
    jobs
}

/// `design_search`: 16 distinct `grid_ladder` Small scenarios under both
/// optimisation kinds, in seeded order.
pub fn design_search(seed: u64) -> Vec<Job> {
    let scenarios = distinct_scenarios(Family::GridLadder, SizeClass::Small, 16);
    let mut pairs: Vec<(usize, JobKind)> = (0..scenarios.len())
        .flat_map(|s| [(s, JobKind::Optimize), (s, JobKind::OptimizeIncremental)])
        .collect();
    let mut rng = Rng::new(seed);
    shuffle(&mut pairs, &mut rng);
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (s, kind))| Job::new(&format!("search-{i}"), kind, None, &scenarios[s]))
        .collect()
}

/// The `replica_mix` candidates, per family in a fixed shuffled order:
/// every distinct Small scenario under five request shapes. `grid_ladder`
/// optimisations are left out: at 20–200 ms each they would dominate the
/// pre-solves in set-up.
pub fn replica_candidates() -> Vec<Vec<Job>> {
    const SHAPES: [(JobKind, Option<&str>); 5] = [
        (JobKind::Verify, Some("pure_ttd")),
        (JobKind::Verify, Some("full")),
        (JobKind::Generate, None),
        (JobKind::Optimize, None),
        (JobKind::OptimizeIncremental, None),
    ];
    let mut rng = Rng::new(POOL_SEED);
    Family::ALL
        .iter()
        .map(|&family| {
            let mut jobs: Vec<Job> = distinct_scenarios(family, SizeClass::Small, usize::MAX)
                .iter()
                .enumerate()
                .flat_map(|(s, scenario)| {
                    SHAPES
                        .iter()
                        .filter(move |(kind, _)| {
                            family != Family::GridLadder
                                || matches!(kind, JobKind::Verify | JobKind::Generate)
                        })
                        .enumerate()
                        .map(move |(k, &(kind, layout))| {
                            let id = format!("{}-{s}-{k}", family.name());
                            Job::new(&id, kind, layout, scenario)
                        })
                })
                .collect();
            shuffle(&mut jobs, &mut rng);
            jobs
        })
        .collect()
}

/// A job outside every workload's measured set, run once per process
/// before timing starts.
pub fn warmup_job() -> Job {
    Job::new(
        "warmup",
        JobKind::OptimizeIncremental,
        None,
        &fixtures::running_example(),
    )
}

/// Ticks per replanning session; the first tick of a session applies no
/// delta, so it always builds a cold encoding.
pub const TICKS: usize = 100;

/// Every delay moves a departure by this much: 24 delays rotating over at
/// least two trains move none by more than a minute.
const DELAY_S: u64 = 5;

/// One replanning session: a base scenario and the delta before each tick.
pub struct SessionPlan {
    pub base: Scenario,
    pub deltas: Vec<Option<ScenarioDelta>>,
}

/// Sessions of `replan_churn`.
pub const SESSIONS: usize = 10;

/// `replan_churn`: the running example, one Small instance of every
/// family, and one Medium instance of every family but `grid_ladder`
/// (whose Medium instances take 0.4–3 s per cold tick).
pub fn replan_sessions(seed: u64) -> Vec<SessionPlan> {
    let mut bases = vec![fixtures::running_example()];
    for family in Family::ALL {
        bases.extend(distinct_scenarios(family, SizeClass::Small, 1));
    }
    for family in Family::ALL.into_iter().filter(|&f| f != Family::GridLadder) {
        bases.extend(distinct_scenarios(family, SizeClass::Medium, 1));
    }
    let mut rng = Rng::new(seed);
    bases
        .into_iter()
        .map(|base| {
            let deltas = session_deltas(&base, &mut rng);
            SessionPlan { base, deltas }
        })
        .collect()
}

/// Every fourth tick follows a 5 s delay of the next train in turn (the
/// departure moves, so the core changes and the tick rebuilds cold); the
/// other ticks follow a seeded deadline set or clear on a seeded train
/// (the open encoding ignores deadlines, so they re-solve warm). The delays
/// do not depend on the seed: which train a delay hits changes the cold
/// re-solve's cost, and seeded delays made the run-to-run spread of
/// `latency_p90_ms` twice the machine's own.
fn session_deltas(base: &Scenario, rng: &mut Rng) -> Vec<Option<ScenarioDelta>> {
    let runs = base.schedule.runs();
    let mut delayed = vec![0u64; runs.len()];
    let horizon = base.horizon.as_u64();
    let mut deltas = vec![None];
    for tick in 1..TICKS {
        let delta = if tick % 4 == 0 {
            let t = (tick / 4 - 1) % runs.len();
            delayed[t] += DELAY_S;
            ScenarioDelta::Delay {
                train: runs[t].train.name.clone(),
                by: Seconds(DELAY_S),
            }
        } else {
            let t = rng.below(runs.len());
            let departure = runs[t].departure.as_u64() + delayed[t];
            let earliest = departure + 120;
            let arrival = (rng.below(3) > 0 && earliest < horizon)
                .then(|| Seconds(rng.range(earliest as usize, horizon as usize + 1) as u64));
            ScenarioDelta::Deadline {
                train: runs[t].train.name.clone(),
                arrival,
            }
        };
        deltas.push(Some(delta));
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn mix(jobs: &[Job]) -> BTreeMap<(String, &'static str), usize> {
        let mut counts = BTreeMap::new();
        for job in jobs {
            let family = job
                .request
                .scenario
                .name
                .split('-')
                .nth(1)
                .unwrap_or("")
                .to_owned();
            *counts.entry((family, job.request.kind.name())).or_insert(0) += 1;
        }
        counts
    }

    fn assert_distinct(jobs: &[Job]) {
        let keys: HashSet<u128> = jobs.iter().map(|j| j.key).collect();
        assert_eq!(
            keys.len(),
            jobs.len(),
            "duplicate cache keys in a cold stream"
        );
    }

    #[test]
    fn cold_streams_have_no_duplicate_keys() {
        for seed in [1, 2, 7919] {
            let encode = design_encode(seed);
            assert_eq!(encode.len(), 20 * 16);
            assert_distinct(&encode);
            let search = design_search(seed);
            assert_eq!(search.len(), 32);
            assert_distinct(&search);
        }
    }

    #[test]
    fn replica_candidates_are_distinct() {
        let candidates: Vec<Job> = replica_candidates().into_iter().flatten().collect();
        assert_distinct(&candidates);
    }

    #[test]
    fn seed_changes_the_draw_but_not_the_mix() {
        let (a, b) = (design_encode(1), design_encode(2));
        assert_eq!(mix(&a), mix(&b));
        assert!(mix(&a).values().all(|&n| n == 20));
        let keys = |jobs: &[Job]| jobs.iter().map(|j| j.key).collect::<Vec<_>>();
        assert_ne!(keys(&a), keys(&b));
        // Every block is one family × kind grid, whatever the seed.
        for block in a.chunks(16) {
            assert_eq!(mix(block).len(), 16);
        }
        let (a, b) = (design_search(1), design_search(2));
        assert_eq!(mix(&a), mix(&b));
        assert_ne!(keys(&a), keys(&b));
        assert_eq!(design_search(1).len(), a.len(), "same seed, same inputs");
    }

    #[test]
    fn replan_deltas_apply_cleanly() {
        for seed in [1, 2] {
            let sessions = replan_sessions(seed);
            assert_eq!(sessions.len(), SESSIONS);
            for plan in sessions {
                assert_eq!(plan.deltas.len(), TICKS);
                let delays = plan
                    .deltas
                    .iter()
                    .flatten()
                    .filter(|d| d.kind() == "delay")
                    .count();
                assert_eq!(delays, TICKS / 4 - 1);
                let mut live =
                    etcs_replan::LiveScenario::new(plan.base.clone()).expect("valid base");
                for delta in plan.deltas.iter().flatten() {
                    live.apply(delta)
                        .unwrap_or_else(|e| panic!("{}: {delta:?}: {e}", plan.base.name));
                }
            }
        }
    }
}
