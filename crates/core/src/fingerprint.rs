//! Content-addressed cache keys for task results.
//!
//! [`cache_key`] hashes everything that determines a task's *deterministic*
//! result — network topology, schedule, spatial/temporal resolutions,
//! horizon, task kind (with its layout, where it takes one), and encoder
//! configuration — into a 128-bit fingerprint. Two inputs with the same key
//! produce bit-identical reports (modulo wall-clock fields), which is what
//! lets `etcs-serve`'s result cache answer repeat jobs without solving.
//!
//! # Canonicalisation
//!
//! The hash is deliberately conservative: it only normalises orderings that
//! provably cannot change the solver's output.
//!
//! * **TTD / station member-track lists** are hashed sorted. The encoder
//!   only ever tests membership (`tracks.contains(..)`) and iterates edges
//!   in *edge* order, so listing a TTD's tracks in a different order yields
//!   the same clauses in the same order.
//! * **VSS border sets** are order-canonical by construction
//!   ([`VssLayout`] stores a `BTreeSet`), so insertion order never reaches
//!   the hash.
//! * The **scenario name** is excluded: it appears only in observability
//!   span fields, never in any result.
//!
//! Everything else — track declaration order, TTD/station declaration
//! order, run order — is hashed as-is, because those orders assign the ids
//! the encoding is built from and reordering them can legitimately change
//! which optimal model the solver finds first.
//!
//! The fingerprint is two independently-seeded FNV-1a-64 lanes, each
//! finished with a splitmix64-style avalanche that mixes in the other lane.
//! No cryptographic strength is claimed; the cache only needs collisions to
//! be vanishingly unlikely across a service lifetime of jobs.

use etcs_network::Scenario;

use crate::encoder::{EncoderConfig, TaskKind};

/// The version tag mixed into every [`cache_key`]. Any change to the
/// encoding or decoding pipeline that can alter results must bump this so
/// stale persisted (or replicated) caches can never alias. Distributed
/// components exchange this string in their handshakes: two processes may
/// only share cache entries when their versions agree.
pub const CACHE_KEY_VERSION: &str = "etcs-cache-key-v5";

const FNV_PRIME: u64 = 0x100_0000_01b3;
const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// Incremental two-lane FNV-1a writer with length-prefixed framing, so
/// adjacent variable-length fields can never alias each other.
struct Canon {
    a: u64,
    b: u64,
}

impl Canon {
    fn new() -> Self {
        Canon {
            a: OFFSET_A,
            b: OFFSET_B,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn bool(&mut self, x: bool) {
        self.byte(u8::from(x));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for &byte in s.as_bytes() {
            self.byte(byte);
        }
    }

    /// A domain-separation tag between record kinds.
    fn tag(&mut self, t: u8) {
        self.byte(0xfe);
        self.byte(t);
    }

    fn finish(self) -> u128 {
        fn avalanche(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let hi = avalanche(self.a ^ self.b.rotate_left(32));
        let lo = avalanche(self.b ^ self.a.rotate_left(17));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Computes the content-addressed cache key of a task over `scenario`.
///
/// See the module docs for exactly what is (and is not) canonicalised.
/// The key is versioned (`etcs-cache-key-v5`): any change to the encoding
/// or decoding pipeline that can alter results must bump the version tag so
/// stale persisted caches can never alias. v4 and v5 each dropped the
/// bytes of a removed encoder setting, which changed every key value.
///
/// # Examples
///
/// ```
/// use etcs_core::{cache_key, EncoderConfig, TaskKind};
/// use etcs_network::fixtures;
///
/// let scenario = fixtures::running_example();
/// let config = EncoderConfig::default();
/// let a = cache_key(&scenario, &TaskKind::Generate, &config);
/// let b = cache_key(&scenario, &TaskKind::Optimize, &config);
/// assert_ne!(a, b, "task kinds address distinct results");
/// ```
pub fn cache_key(scenario: &Scenario, task: &TaskKind, config: &EncoderConfig) -> u128 {
    let mut c = Canon::new();
    c.str(CACHE_KEY_VERSION);
    write_config(&mut c, config);
    write_timing(&mut c, scenario);
    write_topology(&mut c, scenario);
    write_schedule(&mut c, scenario, false);
    write_task(&mut c, task);
    c.finish()
}

/// Hashes the encoder configuration (tag `0x01`).
fn write_config(c: &mut Canon, config: &EncoderConfig) {
    c.tag(0x01); // encoder configuration
    c.bool(config.prune_to_goal);
    c.bool(config.allow_immediate_reoccupation);
    c.bool(config.symmetric_movement);
    c.bool(config.trace);
    c.bool(config.proof);
}

/// Hashes the spatial/temporal resolutions and horizon (tag `0x02`).
fn write_timing(c: &mut Canon, scenario: &Scenario) {
    c.tag(0x02); // resolutions and horizon
    c.u64(scenario.r_s.as_u64());
    c.u64(scenario.r_t.as_u64());
    c.u64(scenario.horizon.as_u64());
}

/// Hashes the network topology: tracks, TTDs, stations (tags `0x03`–`0x05`).
fn write_topology(c: &mut Canon, scenario: &Scenario) {
    let net = &scenario.network;
    c.tag(0x03); // topology: declaration order is id order, hash as-is
    c.usize(net.num_nodes());
    c.usize(net.tracks().len());
    for t in net.tracks() {
        c.usize(t.from.index());
        c.usize(t.to.index());
        c.u64(t.length.as_u64());
        c.str(&t.name);
    }
    c.tag(0x04); // TTDs: entry order matters, member order does not
    c.usize(net.ttds().len());
    for ttd in net.ttds() {
        c.str(&ttd.name);
        let mut members: Vec<usize> = ttd.tracks.iter().map(|t| t.index()).collect();
        members.sort_unstable();
        c.usize(members.len());
        for m in members {
            c.usize(m);
        }
    }
    c.tag(0x05); // stations: entry order matters, member order does not
    c.usize(net.stations().len());
    for station in net.stations() {
        c.str(&station.name);
        c.bool(station.boundary);
        let mut members: Vec<usize> = station.tracks.iter().map(|t| t.index()).collect();
        members.sort_unstable();
        c.usize(members.len());
        for m in members {
            c.usize(m);
        }
    }
}

/// Hashes the schedule in run order (tag `0x06`). With `mask_deadlines`
/// the arrival and per-stop deadlines are hashed as if absent — the exact
/// transformation [`Scenario::without_arrivals`] applies — so the masked
/// hash is invariant under deadline-only edits.
fn write_schedule(c: &mut Canon, scenario: &Scenario, mask_deadlines: bool) {
    c.tag(0x06); // schedule, in run order (run order is train-id order)
    c.usize(scenario.schedule.len());
    for run in scenario.schedule.runs() {
        c.str(&run.train.name);
        c.u64(run.train.length.as_u64());
        c.u64(u64::from(run.train.max_speed.as_u32()));
        c.usize(run.origin.index());
        c.usize(run.destination.index());
        c.u64(run.departure.as_u64());
        match run.arrival.filter(|_| !mask_deadlines) {
            Some(a) => {
                c.byte(1);
                c.u64(a.as_u64());
            }
            None => c.byte(0),
        }
        c.usize(run.stops.len());
        for (station, deadline) in &run.stops {
            c.usize(station.index());
            match deadline.as_ref().filter(|_| !mask_deadlines) {
                Some(d) => {
                    c.byte(1);
                    c.u64(d.as_u64());
                }
                None => c.byte(0),
            }
        }
    }
}

/// Hashes only the deadline-carrying schedule fields (tag `0x08`): per run,
/// the arrival option and the per-stop deadline options. Together with the
/// masked schedule hash this covers every schedule byte [`cache_key`] sees.
fn write_deadlines(c: &mut Canon, scenario: &Scenario) {
    c.tag(0x08); // deadlines only (arrivals + stop deadlines)
    c.usize(scenario.schedule.len());
    for run in scenario.schedule.runs() {
        match run.arrival {
            Some(a) => {
                c.byte(1);
                c.u64(a.as_u64());
            }
            None => c.byte(0),
        }
        c.usize(run.stops.len());
        for (_, deadline) in &run.stops {
            match deadline {
                Some(d) => {
                    c.byte(1);
                    c.u64(d.as_u64());
                }
                None => c.byte(0),
            }
        }
    }
}

fn write_task(c: &mut Canon, task: &TaskKind) {
    c.tag(0x07); // task kind (+ layout where the task takes one)
    let layout = match task {
        TaskKind::Verify(layout) => {
            c.byte(0);
            Some(layout)
        }
        TaskKind::Generate => {
            c.byte(1);
            None
        }
        TaskKind::Optimize => {
            c.byte(2);
            None
        }
        TaskKind::OptimizeIncremental => {
            c.byte(3);
            None
        }
        TaskKind::Diagnose(layout) => {
            c.byte(4);
            Some(layout)
        }
    };
    if let Some(layout) = layout {
        // BTreeSet iteration is already sorted: insertion order never
        // reaches the hash.
        c.usize(layout.num_borders());
        for border in layout.borders() {
            c.usize(border.index());
        }
    }
}

/// Component-wise fingerprints of a scenario under one encoder
/// configuration, for warm-start keying in the online replanner.
///
/// [`cache_key`] answers "is this the same *task*"; `SubFingerprints`
/// answers the finer question "which *parts* changed". Each field hashes
/// one independently-editable slice of the input, and [`core`] combines
/// everything that determines the *open* (deadline-free) encodings — the
/// formulas the optimisation searches solve. A delta that only tightens
/// or relaxes deadlines leaves `core` unchanged, so a warm core's search
/// and stored answer (neither depends on the deadlines) stay valid; any
/// other delta moves `core` and forces a cold search.
///
/// [`core`]: SubFingerprints::core
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubFingerprints {
    /// Encoder configuration (flags + solve mode).
    pub config: u128,
    /// Spatial/temporal resolutions and horizon.
    pub timing: u128,
    /// Network topology: tracks, TTDs, stations.
    pub topology: u128,
    /// Schedule with deadlines masked: trains, routes, departures, stops.
    pub schedule: u128,
    /// Deadlines only: arrival and per-stop deadline options.
    pub deadlines: u128,
    /// Everything the open (deadline-free) encoding depends on: config +
    /// timing + topology + masked schedule. Equal to the `core` of
    /// [`Scenario::without_arrivals`] applied to the same scenario.
    pub core: u128,
}

/// Computes the component-wise [`SubFingerprints`] of `scenario` under
/// `config`.
///
/// The components share [`cache_key`]'s canonicalisation and version tag
/// (a cache-key version bump invalidates warm-start keys too, which is
/// exactly right: the encoding changed).
///
/// # Examples
///
/// ```
/// use etcs_core::{sub_fingerprints, EncoderConfig};
/// use etcs_network::fixtures;
///
/// let scenario = fixtures::running_example();
/// let config = EncoderConfig::default();
/// let fps = sub_fingerprints(&scenario, &config);
/// // Dropping every deadline keeps the core (the open encoding is
/// // unchanged) while the deadline component moves.
/// let open = sub_fingerprints(&scenario.without_arrivals(), &config);
/// assert_eq!(fps.core, open.core);
/// ```
pub fn sub_fingerprints(scenario: &Scenario, config: &EncoderConfig) -> SubFingerprints {
    let component = |write: &dyn Fn(&mut Canon)| {
        let mut c = Canon::new();
        c.str(CACHE_KEY_VERSION);
        write(&mut c);
        c.finish()
    };
    let core = {
        let mut c = Canon::new();
        c.str(CACHE_KEY_VERSION);
        write_config(&mut c, config);
        write_timing(&mut c, scenario);
        write_topology(&mut c, scenario);
        write_schedule(&mut c, scenario, true);
        c.finish()
    };
    SubFingerprints {
        config: component(&|c| write_config(c, config)),
        timing: component(&|c| write_timing(c, scenario)),
        topology: component(&|c| write_topology(c, scenario)),
        schedule: component(&|c| write_schedule(c, scenario, true)),
        deadlines: component(&|c| write_deadlines(c, scenario)),
        core,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcs_network::{fixtures, VssLayout};

    fn config() -> EncoderConfig {
        EncoderConfig::default()
    }

    #[test]
    fn key_is_stable_across_calls() {
        let s = fixtures::running_example();
        assert_eq!(
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&s, &TaskKind::Generate, &config()),
        );
    }

    #[test]
    fn key_values_are_pinned() {
        let s = fixtures::running_example();
        let pinned: [(&str, TaskKind, u128); 2] = [
            (
                "generate",
                TaskKind::Generate,
                0x6876139760c79c5b5b323496db82091e,
            ),
            (
                "pure-TTD verify",
                TaskKind::Verify(VssLayout::pure_ttd()),
                0x9ae1e763a61d683c3aff975db59e4a20,
            ),
        ];
        for (label, task, want) in pinned {
            assert_eq!(
                format!("{:032x}", cache_key(&s, &task, &config())),
                format!("{want:032x}"),
                "the {CACHE_KEY_VERSION} key of the running example's {label} task changed: \
                 a changed key value means a changed key function, which must bump \
                 CACHE_KEY_VERSION in the same commit"
            );
        }
    }

    #[test]
    fn task_kinds_get_distinct_keys() {
        let s = fixtures::running_example();
        let layout = VssLayout::pure_ttd();
        let keys = [
            cache_key(&s, &TaskKind::Verify(layout.clone()), &config()),
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&s, &TaskKind::Optimize, &config()),
            cache_key(&s, &TaskKind::OptimizeIncremental, &config()),
            cache_key(&s, &TaskKind::Diagnose(layout), &config()),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "kinds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn scenario_name_is_excluded() {
        let s = fixtures::running_example();
        let mut renamed = s.clone();
        renamed.name = "something else entirely".into();
        assert_eq!(
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&renamed, &TaskKind::Generate, &config()),
        );
    }

    #[test]
    fn config_changes_the_key() {
        let s = fixtures::running_example();
        let mut other = config();
        other.symmetric_movement = !other.symmetric_movement;
        assert_ne!(
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&s, &TaskKind::Generate, &other),
        );
        let mut both = other;
        both.allow_immediate_reoccupation = !both.allow_immediate_reoccupation;
        assert_ne!(
            cache_key(&s, &TaskKind::Generate, &other),
            cache_key(&s, &TaskKind::Generate, &both),
            "two non-default configs address distinct slots"
        );
    }

    #[test]
    fn schedule_changes_the_key() {
        let s = fixtures::running_example();
        let mut tightened = s.clone();
        let mut runs: Vec<_> = tightened.schedule.runs().to_vec();
        runs[0].departure = etcs_network::Seconds(runs[0].departure.as_u64() + 60);
        tightened.schedule = etcs_network::Schedule::new(runs);
        assert_ne!(
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&tightened, &TaskKind::Generate, &config()),
        );
    }

    #[test]
    fn deadline_edits_keep_the_core_sub_fingerprint() {
        let s = fixtures::running_example();
        let fps = sub_fingerprints(&s, &config());
        let open = sub_fingerprints(&s.without_arrivals(), &config());
        assert_eq!(fps.core, open.core, "core ignores deadlines");
        assert_eq!(fps.schedule, open.schedule, "masked schedule too");
        assert_ne!(
            fps.deadlines, open.deadlines,
            "the running example carries arrivals; dropping them must move \
             the deadline component"
        );
        assert_eq!(fps.config, open.config);
        assert_eq!(fps.timing, open.timing);
        assert_eq!(fps.topology, open.topology);
    }

    #[test]
    fn departure_edits_move_the_core_sub_fingerprint() {
        let s = fixtures::running_example();
        let mut delayed = s.clone();
        let mut runs: Vec<_> = delayed.schedule.runs().to_vec();
        runs[0].departure = etcs_network::Seconds(runs[0].departure.as_u64() + 60);
        delayed.schedule = etcs_network::Schedule::new(runs);
        let a = sub_fingerprints(&s, &config());
        let b = sub_fingerprints(&delayed, &config());
        assert_ne!(a.core, b.core, "departures shape the open encoding");
        assert_ne!(a.schedule, b.schedule);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.timing, b.timing);
    }

    #[test]
    fn sub_fingerprint_components_are_pairwise_distinct() {
        let s = fixtures::running_example();
        let fps = sub_fingerprints(&s, &config());
        let keys = [
            fps.config,
            fps.timing,
            fps.topology,
            fps.schedule,
            fps.deadlines,
            fps.core,
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "components {i} and {j} collide");
            }
        }
    }

    #[test]
    fn config_moves_core_but_not_topology() {
        let s = fixtures::running_example();
        let mut asymmetric = config();
        asymmetric.symmetric_movement = false;
        let a = sub_fingerprints(&s, &config());
        let b = sub_fingerprints(&s, &asymmetric);
        assert_ne!(a.config, b.config);
        assert_ne!(
            a.core, b.core,
            "the encoder config reaches the warm-start key"
        );
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.deadlines, b.deadlines);
    }

    #[test]
    fn layout_border_insertion_order_is_canonical() {
        let s = fixtures::running_example();
        let forward = VssLayout::with_borders([
            etcs_network::NodeId::from_index(2),
            etcs_network::NodeId::from_index(5),
            etcs_network::NodeId::from_index(9),
        ]);
        let backward = VssLayout::with_borders([
            etcs_network::NodeId::from_index(9),
            etcs_network::NodeId::from_index(2),
            etcs_network::NodeId::from_index(5),
        ]);
        assert_eq!(
            cache_key(&s, &TaskKind::Verify(forward), &config()),
            cache_key(&s, &TaskKind::Verify(backward), &config()),
        );
    }
}
