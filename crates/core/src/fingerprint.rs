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
//! The fingerprint is [`Fnv2`]: two independently-seeded FNV-1a-64 lanes,
//! each finished with a splitmix64-style avalanche that mixes in the other
//! lane.
//! No cryptographic strength is claimed; the cache only needs collisions to
//! be vanishingly unlikely across a service lifetime of jobs.

use etcs_network::Scenario;

use crate::encoder::{EncoderConfig, TaskKind};

/// The version tag mixed into every [`cache_key`]. Any change to the
/// encoding or decoding pipeline that can alter results must bump this so
/// stale persisted (or replicated) caches can never alias. Distributed
/// components exchange this string in their handshakes: two processes may
/// only share cache entries when their versions agree.
pub const CACHE_KEY_VERSION: &str = "etcs-cache-key-v6";

const FNV_PRIME: u64 = 0x100_0000_01b3;
const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// Incremental two-lane FNV-1a-64 writer with length-prefixed framing, so
/// adjacent variable-length fields can never alias each other. Each lane
/// is finished with a splitmix64-style avalanche that mixes in the other
/// lane. [`cache_key`] hashes inputs with it; `etcs-serve` hashes job
/// payloads with it.
///
/// # Examples
///
/// ```
/// use etcs_core::Fnv2;
///
/// let mut a = Fnv2::new();
/// a.str("ab");
/// a.str("c");
/// let mut b = Fnv2::new();
/// b.str("a");
/// b.str("bc");
/// assert_ne!(a.finish(), b.finish(), "strings are length-prefixed");
/// ```
#[derive(Debug)]
pub struct Fnv2 {
    a: u64,
    b: u64,
}

impl Default for Fnv2 {
    fn default() -> Self {
        Fnv2 {
            a: OFFSET_A,
            b: OFFSET_B,
        }
    }
}

impl Fnv2 {
    /// A writer with both lanes at their offset basis.
    pub fn new() -> Self {
        Fnv2::default()
    }

    /// Hashes one byte into both lanes.
    pub(crate) fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
    }

    /// Hashes the eight little-endian bytes of `x`.
    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    /// Hashes `x` as a `u64`.
    pub(crate) fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Hashes `x` as one byte.
    pub(crate) fn bool(&mut self, x: bool) {
        self.byte(u8::from(x));
    }

    /// Hashes the length of `s`, then its bytes.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for &byte in s.as_bytes() {
            self.byte(byte);
        }
    }

    /// A domain-separation tag between record kinds.
    pub(crate) fn tag(&mut self, t: u8) {
        self.byte(0xfe);
        self.byte(t);
    }

    /// The 128-bit digest: the high half finishes lane `a`, the low half
    /// lane `b`.
    pub fn finish(self) -> u128 {
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
/// The key is versioned (`etcs-cache-key-v6`): any change to the encoding
/// or decoding pipeline that can alter results must bump the version tag so
/// stale persisted caches can never alias. v4, v5 and v6 each dropped the
/// bytes of removed encoder settings, which changed every key value.
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
    let mut c = Fnv2::new();
    c.str(CACHE_KEY_VERSION);
    write_config(&mut c, config);
    write_timing(&mut c, scenario);
    write_topology(&mut c, scenario);
    write_schedule(&mut c, scenario, false);
    write_task(&mut c, task);
    c.finish()
}

/// Hashes the encoder configuration (tag `0x01`).
fn write_config(c: &mut Fnv2, config: &EncoderConfig) {
    c.tag(0x01); // encoder configuration
    c.bool(config.prune_to_goal);
    c.bool(config.trace);
    c.bool(config.proof);
}

/// Hashes the spatial/temporal resolutions and horizon (tag `0x02`).
fn write_timing(c: &mut Fnv2, scenario: &Scenario) {
    c.tag(0x02); // resolutions and horizon
    c.u64(scenario.r_s.as_u64());
    c.u64(scenario.r_t.as_u64());
    c.u64(scenario.horizon.as_u64());
}

/// Hashes the network topology: tracks, TTDs, stations (tags `0x03`–`0x05`).
fn write_topology(c: &mut Fnv2, scenario: &Scenario) {
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

/// Hashes the schedule in run order (tag `0x06`). The `open` view is what
/// the open (deadline-free) encoding reads: the arrival and per-stop
/// deadlines are hashed as if absent — the exact transformation
/// [`Scenario::without_arrivals`] applies — and each departure as its
/// time step [`Scenario::step_of`], the only form in which a departure
/// reaches an [`crate::Instance`]. The open hash is therefore invariant
/// under deadline-only edits and under delays that keep every departure
/// step. The full view hashes departures in seconds.
fn write_schedule(c: &mut Fnv2, scenario: &Scenario, open: bool) {
    c.tag(0x06); // schedule, in run order (run order is train-id order)
    c.usize(scenario.schedule.len());
    for run in scenario.schedule.runs() {
        c.str(&run.train.name);
        c.u64(run.train.length.as_u64());
        c.u64(u64::from(run.train.max_speed.as_u32()));
        c.usize(run.origin.index());
        c.usize(run.destination.index());
        if open {
            c.usize(scenario.step_of(run.departure));
        } else {
            c.u64(run.departure.as_u64());
        }
        match run.arrival.filter(|_| !open) {
            Some(a) => {
                c.byte(1);
                c.u64(a.as_u64());
            }
            None => c.byte(0),
        }
        c.usize(run.stops.len());
        for (station, deadline) in &run.stops {
            c.usize(station.index());
            match deadline.as_ref().filter(|_| !open) {
                Some(d) => {
                    c.byte(1);
                    c.u64(d.as_u64());
                }
                None => c.byte(0),
            }
        }
    }
}

fn write_task(c: &mut Fnv2, task: &TaskKind) {
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

/// The warm-start key of `scenario` under `config`, for the online
/// replanner: a hash of everything that determines the *open*
/// (deadline-free) encodings, the formulas the optimisation searches
/// solve — encoder configuration, resolutions and horizon, topology, and
/// the schedule with its deadlines masked and each departure hashed as its
/// time step.
///
/// [`cache_key`] answers "is this the same *task*"; this key answers "is
/// this the same open *instance*". The encoder sees time only on the grid
/// of resolution `r_t`: a departure reaches the open [`crate::Instance`]
/// only as `dep_step`, and every other input the instance reads (network,
/// resolutions, horizon, train data, stations) is hashed as given. Equal
/// keys therefore mean an equal open instance, equal formulas and equal
/// optima. A delta that only moves deadlines, or delays a train without
/// moving its departure step, leaves the key unchanged, so a warm core's
/// search and stored answer stay valid; any other delta moves it and
/// forces a cold search. [`cache_key`] keeps departures in seconds.
///
/// The key shares [`cache_key`]'s canonicalisation and version tag (a
/// cache-key version bump invalidates warm-start keys too, which is
/// exactly right: the encoding changed).
///
/// # Panics
///
/// Panics if `scenario.r_t` is zero: without a time grid a departure has
/// no step.
///
/// # Examples
///
/// ```
/// use etcs_core::{sub_fingerprints, EncoderConfig};
/// use etcs_network::{fixtures, Schedule, Seconds};
///
/// let scenario = fixtures::running_example();
/// let config = EncoderConfig::default();
/// let core = sub_fingerprints(&scenario, &config);
/// // Dropping every deadline keeps the key: the open encoding is
/// // unchanged.
/// assert_eq!(core, sub_fingerprints(&scenario.without_arrivals(), &config));
/// // So does a 5 s delay on the 30 s grid: the departure step stays.
/// let mut delayed = scenario.clone();
/// let mut runs = delayed.schedule.runs().to_vec();
/// runs[0].departure = Seconds(runs[0].departure.as_u64() + 5);
/// delayed.schedule = Schedule::new(runs);
/// assert_eq!(core, sub_fingerprints(&delayed, &config));
/// ```
pub fn sub_fingerprints(scenario: &Scenario, config: &EncoderConfig) -> u128 {
    let mut c = Fnv2::new();
    c.str(CACHE_KEY_VERSION);
    write_config(&mut c, config);
    write_timing(&mut c, scenario);
    write_topology(&mut c, scenario);
    write_schedule(&mut c, scenario, true);
    c.finish()
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
                0x52fba080c1562060e47a4eecc3720063,
            ),
            (
                "pure-TTD verify",
                TaskKind::Verify(VssLayout::pure_ttd()),
                0x716b69de451f85f409653eed74853f88,
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
        other.prune_to_goal = !other.prune_to_goal;
        assert_ne!(
            cache_key(&s, &TaskKind::Generate, &config()),
            cache_key(&s, &TaskKind::Generate, &other),
        );
        let mut both = other;
        both.trace = !both.trace;
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
    fn deadline_edits_keep_the_core_key() {
        let s = fixtures::running_example();
        assert_eq!(
            sub_fingerprints(&s, &config()),
            sub_fingerprints(&s.without_arrivals(), &config()),
            "the core key ignores deadlines"
        );
    }

    /// The running example with Train 1's departure moved by `by` seconds.
    fn delayed(by: u64) -> Scenario {
        let mut s = fixtures::running_example();
        let mut runs: Vec<_> = s.schedule.runs().to_vec();
        runs[0].departure = etcs_network::Seconds(runs[0].departure.as_u64() + by);
        s.schedule = etcs_network::Schedule::new(runs);
        s
    }

    #[test]
    fn departure_edits_move_the_core_key() {
        let base = sub_fingerprints(&fixtures::running_example(), &config());
        assert_ne!(
            base,
            sub_fingerprints(&delayed(60), &config()),
            "departures shape the open encoding"
        );
    }

    #[test]
    fn sub_step_delays_keep_the_core_key() {
        let base = sub_fingerprints(&fixtures::running_example(), &config());
        assert_eq!(fixtures::running_example().r_t.as_u64(), 30);
        for by in [5, 14] {
            let core = sub_fingerprints(&delayed(by), &config());
            assert_eq!(core, base, "+{by} s keeps the departure step");
        }
    }

    #[test]
    fn a_delay_that_rounds_to_the_next_step_moves_the_core_key() {
        let base = sub_fingerprints(&fixtures::running_example(), &config());
        let core = sub_fingerprints(&delayed(15), &config());
        assert_ne!(core, base, "+15 s rounds to the next step");
    }

    #[test]
    fn every_departure_edit_moves_the_cache_key() {
        let s = fixtures::running_example();
        let key = |s: &Scenario| cache_key(s, &TaskKind::Optimize, &config());
        for by in [1, 5, 14, 15, 30] {
            assert_ne!(key(&s), key(&delayed(by)), "+{by} s");
        }
    }

    #[test]
    fn config_moves_the_core_key() {
        let s = fixtures::running_example();
        let mut unpruned = config();
        unpruned.prune_to_goal = false;
        assert_ne!(
            sub_fingerprints(&s, &config()),
            sub_fingerprints(&s, &unpruned),
            "the encoder config reaches the warm-start key"
        );
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
