//! Parametric scenario synthesis: deterministic single-track lines with
//! crossing loops and opposing traffic ([`single_track_line`]), branching
//! topologies where `arms` arms merge into a shared trunk
//! ([`branched_line`]), ladder/grid meshes of parallel lines joined by
//! crossover rungs ([`grid_ladder`]), and station throats fanning out into
//! parallel sidings ([`station_throat`]).
//!
//! Used by the property-based test suites (random-but-reproducible
//! topologies) and the `etcs-corpus` scenario corpus; also a convenient
//! starting point for custom experiments.

use crate::scenario::Scenario;
use crate::schedule::{Schedule, TrainRun};
use crate::topology::NetworkBuilder;
use crate::train::Train;
use crate::units::{KmPerHour, Meters, Seconds};

/// Parameters for [`single_track_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineConfig {
    /// Number of stations along the line (≥ 2); the termini are two-track
    /// boundary stations.
    pub stations: usize,
    /// Every `loop_every`-th interior station is a two-track crossing loop
    /// (0 = no loops).
    pub loop_every: usize,
    /// Inter-station link length in metres (drawn deterministically in
    /// `link_m ..= 2·link_m`, quantised to `r_s`).
    pub link_m: u64,
    /// Trains per direction.
    pub trains_per_direction: usize,
    /// Departure headway between same-direction trains.
    pub headway: Seconds,
    /// Train speed.
    pub speed: KmPerHour,
    /// Train length in metres.
    pub train_m: u64,
    /// Spatial resolution.
    pub r_s: Meters,
    /// Temporal resolution.
    pub r_t: Seconds,
    /// Scenario horizon.
    pub horizon: Seconds,
    /// Seed for the deterministic length stream.
    pub seed: u64,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            stations: 4,
            loop_every: 2,
            link_m: 1000,
            trains_per_direction: 1,
            headway: Seconds::from_minutes(2),
            speed: KmPerHour(120),
            train_m: 200,
            r_s: Meters(500),
            r_t: Seconds(30),
            horizon: Seconds::from_minutes(15),
            seed: 1,
        }
    }
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Synthesises a single-track line scenario from `cfg`.
///
/// The network is a chain of `cfg.stations` stations; the two termini are
/// two-track boundary stations (so convoys can depart at tight headways),
/// interior stations are plain platforms or, every `loop_every`-th, a
/// two-track crossing loop. Trains run end to end in both directions
/// without arrival deadlines (add your own or run the optimisation task).
///
/// # Panics
///
/// Panics if `cfg.stations < 2`.
///
/// # Examples
///
/// ```
/// use etcs_network::generator::{single_track_line, LineConfig};
/// let scenario = single_track_line(&LineConfig::default());
/// assert_eq!(scenario.network.stations().len(), 4);
/// scenario.validate()?;
/// scenario.discretise()?;
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn single_track_line(cfg: &LineConfig) -> Scenario {
    assert!(cfg.stations >= 2, "a line needs at least two stations");
    let mut seed = cfg.seed | 1;
    let quantum = cfg.r_s.as_u64().max(1);
    let mut draw_link = || {
        let raw = cfg.link_m + xorshift(&mut seed) % (cfg.link_m + 1);
        Meters((raw.div_ceil(quantum)).max(1) * quantum)
    };
    let station_track_len = Meters(quantum);

    let mut b = NetworkBuilder::new();
    let mut ttd = 0usize;
    let mut station_ids = Vec::new();

    // First terminus: two boundary tracks joining at a point.
    let t_end_a = b.node();
    let t_end_a2 = b.node();
    let mut prev = b.node();
    let first_a = b.track(t_end_a, prev, station_track_len, "S0-a");
    let first_b = b.track(t_end_a2, prev, station_track_len, "S0-b");
    ttd += 1;
    b.ttd(format!("TTD{ttd}"), [first_a]);
    ttd += 1;
    b.ttd(format!("TTD{ttd}"), [first_b]);
    station_ids.push(b.station("S0", [first_a, first_b], true));

    for i in 1..cfg.stations {
        let link_len = draw_link();
        let is_last = i == cfg.stations - 1;
        let is_loop = !is_last && cfg.loop_every != 0 && i % cfg.loop_every == 0;
        let west = b.node();
        let link = b.track(prev, west, link_len, format!("link-{i}"));
        ttd += 1;
        b.ttd(format!("TTD{ttd}"), [link]);
        if is_last {
            // Second terminus: two boundary tracks.
            let end1 = b.node();
            let end2 = b.node();
            let ta = b.track(west, end1, station_track_len, format!("S{i}-a"));
            let tb = b.track(west, end2, station_track_len, format!("S{i}-b"));
            ttd += 1;
            b.ttd(format!("TTD{ttd}"), [ta]);
            ttd += 1;
            b.ttd(format!("TTD{ttd}"), [tb]);
            station_ids.push(b.station(format!("S{i}"), [ta, tb], true));
        } else if is_loop {
            let east = b.node();
            let loop_len = Meters(quantum * 2);
            let la = b.track(west, east, loop_len, format!("S{i}-a"));
            let lb = b.track(west, east, loop_len, format!("S{i}-b"));
            ttd += 1;
            b.ttd(format!("TTD{ttd}"), [la]);
            ttd += 1;
            b.ttd(format!("TTD{ttd}"), [lb]);
            station_ids.push(b.station(format!("S{i}"), [la, lb], false));
            prev = east;
            continue;
        } else {
            let east = b.node();
            let platform = b.track(west, east, station_track_len, format!("S{i}-pl"));
            ttd += 1;
            b.ttd(format!("TTD{ttd}"), [platform]);
            station_ids.push(b.station(format!("S{i}"), [platform], false));
            prev = east;
            continue;
        }
    }

    let network = b.build().expect("generated line topology is valid");
    let first = station_ids[0];
    let last = *station_ids.last().expect("at least two stations");

    let mut runs = Vec::new();
    for k in 0..cfg.trains_per_direction {
        let dep = Seconds(cfg.headway.as_u64() * k as u64);
        runs.push(TrainRun::new(
            Train::new(format!("East {k}"), Meters(cfg.train_m), cfg.speed),
            first,
            last,
            dep,
            None,
        ));
        runs.push(TrainRun::new(
            Train::new(format!("West {k}"), Meters(cfg.train_m), cfg.speed),
            last,
            first,
            dep,
            None,
        ));
    }

    Scenario {
        name: format!(
            "line-{}st-{}tr-seed{}",
            cfg.stations, cfg.trains_per_direction, cfg.seed
        ),
        network,
        schedule: Schedule::new(runs),
        r_s: cfg.r_s,
        r_t: cfg.r_t,
        horizon: cfg.horizon,
    }
}

/// Parameters for [`branched_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchConfig {
    /// Arms merging into the shared trunk (2 ≤ `arms` ≤ 19; 2 is the
    /// classic Y-junction, higher values make a star-shaped mesh whose
    /// junction node has degree `arms + 1`). Arm stations are prefixed
    /// `A`, `B`, `C`, … — `T` is reserved for the trunk.
    pub arms: usize,
    /// Interior (plain-platform) stations on each arm between the arm's
    /// boundary terminus and the junction.
    pub arm_stations: usize,
    /// Interior stations on the shared trunk between the junction and the
    /// trunk's boundary terminus.
    pub trunk_stations: usize,
    /// Inter-station link length in metres (drawn deterministically in
    /// `link_m ..= 2·link_m`, quantised to `r_s`).
    pub link_m: u64,
    /// Trains departing from each arm terminus towards the trunk terminus.
    pub trains_per_arm: usize,
    /// Departure headway between same-arm trains.
    pub headway: Seconds,
    /// Train speed.
    pub speed: KmPerHour,
    /// Train length in metres.
    pub train_m: u64,
    /// Spatial resolution.
    pub r_s: Meters,
    /// Temporal resolution.
    pub r_t: Seconds,
    /// Scenario horizon.
    pub horizon: Seconds,
    /// Seed for the deterministic length stream.
    pub seed: u64,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            arms: 2,
            arm_stations: 1,
            trunk_stations: 1,
            link_m: 1000,
            trains_per_arm: 1,
            headway: Seconds::from_minutes(2),
            speed: KmPerHour(120),
            train_m: 200,
            r_s: Meters(500),
            r_t: Seconds(30),
            horizon: Seconds::from_minutes(15),
            seed: 1,
        }
    }
}

/// Synthesises a branching scenario: `cfg.arms` single-track arms (`A`,
/// `B`, `C`, …), each starting at a two-track boundary terminus, merge at
/// a junction node into one shared single-track trunk ending in a
/// two-track boundary terminus (`T`).
///
/// All trains run arm → trunk terminus, so every schedule contends for the
/// junction — the non-linear case the differential encoder/validator tests
/// need: occupation chains across a degree-`arms + 1` node, merge
/// ordering, and VSS borders whose cut sits on the trunk. With `arms > 2`
/// this is the "branched mesh" corpus family: a star of arms funnelling
/// into one trunk.
///
/// # Panics
///
/// Panics if `cfg.trains_per_arm == 0` (an empty schedule makes the
/// scenario trivially feasible and tests nothing) or if `cfg.arms` is
/// outside `2..=26` (arm prefixes are single letters).
///
/// # Examples
///
/// ```
/// use etcs_network::generator::{branched_line, BranchConfig};
/// let scenario = branched_line(&BranchConfig::default());
/// // Termini A0/B0/T0 plus one interior station per arm and trunk.
/// assert_eq!(scenario.network.stations().len(), 6);
/// scenario.validate()?;
/// scenario.discretise()?;
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn branched_line(cfg: &BranchConfig) -> Scenario {
    assert!(cfg.trains_per_arm >= 1, "at least one train per arm");
    assert!(
        (2..=19).contains(&cfg.arms),
        "arms must be in 2..=19 (single-letter prefixes A..S; T is the trunk)"
    );
    let mut seed = cfg.seed | 1;
    let quantum = cfg.r_s.as_u64().max(1);
    let mut draw_link = || {
        let raw = cfg.link_m + xorshift(&mut seed) % (cfg.link_m + 1);
        Meters((raw.div_ceil(quantum)).max(1) * quantum)
    };
    let station_track_len = Meters(quantum);

    let mut b = NetworkBuilder::new();
    let mut ttd = 0usize;
    let mut new_ttd = |b: &mut NetworkBuilder, track| {
        ttd += 1;
        b.ttd(format!("TTD{ttd}"), [track]);
    };

    // One arm: boundary terminus, `arm_stations` interior platforms, then a
    // final link into the shared junction node. Returns the terminus id.
    let junction = b.node();
    let arm = |b: &mut NetworkBuilder,
               new_ttd: &mut dyn FnMut(&mut NetworkBuilder, crate::TrackId),
               draw_link: &mut dyn FnMut() -> Meters,
               prefix: &str| {
        let end1 = b.node();
        let end2 = b.node();
        let mut prev = b.node();
        let ta = b.track(end1, prev, station_track_len, format!("{prefix}0-a"));
        let tb = b.track(end2, prev, station_track_len, format!("{prefix}0-b"));
        new_ttd(b, ta);
        new_ttd(b, tb);
        let terminus = b.station(format!("{prefix}0"), [ta, tb], true);
        for i in 1..=cfg.arm_stations {
            let west = b.node();
            let link = b.track(prev, west, draw_link(), format!("{prefix}-link-{i}"));
            new_ttd(b, link);
            let east = b.node();
            let platform = b.track(west, east, station_track_len, format!("{prefix}{i}-pl"));
            new_ttd(b, platform);
            b.station(format!("{prefix}{i}"), [platform], false);
            prev = east;
        }
        let merge = b.track(prev, junction, draw_link(), format!("{prefix}-merge"));
        new_ttd(b, merge);
        terminus
    };
    let arm_termini: Vec<_> = (0..cfg.arms)
        .map(|i| {
            let prefix = char::from(b'A' + i as u8).to_string();
            arm(&mut b, &mut new_ttd, &mut draw_link, &prefix)
        })
        .collect();

    // The shared trunk, junction → boundary terminus T0.
    let mut prev = junction;
    for i in 1..=cfg.trunk_stations {
        let west = b.node();
        let link = b.track(prev, west, draw_link(), format!("T-link-{i}"));
        new_ttd(&mut b, link);
        let east = b.node();
        let platform = b.track(west, east, station_track_len, format!("T{i}-pl"));
        new_ttd(&mut b, platform);
        b.station(format!("T{i}"), [platform], false);
        prev = east;
    }
    let west = b.node();
    let last_link = b.track(prev, west, draw_link(), "T-link-final");
    new_ttd(&mut b, last_link);
    let end1 = b.node();
    let end2 = b.node();
    let ta = b.track(west, end1, station_track_len, "T0-a");
    let tb = b.track(west, end2, station_track_len, "T0-b");
    new_ttd(&mut b, ta);
    new_ttd(&mut b, tb);
    let trunk_terminus = b.station("T0", [ta, tb], true);

    let network = b.build().expect("generated branch topology is valid");

    let mut runs = Vec::new();
    for k in 0..cfg.trains_per_arm {
        let dep = Seconds(cfg.headway.as_u64() * k as u64);
        for (i, &terminus) in arm_termini.iter().enumerate() {
            let prefix = char::from(b'A' + i as u8);
            runs.push(TrainRun::new(
                Train::new(format!("{prefix} {k}"), Meters(cfg.train_m), cfg.speed),
                terminus,
                trunk_terminus,
                dep,
                None,
            ));
        }
    }

    Scenario {
        name: format!(
            "branch-{}arms-{}a-{}t-{}tr-seed{}",
            cfg.arms, cfg.arm_stations, cfg.trunk_stations, cfg.trains_per_arm, cfg.seed
        ),
        network,
        schedule: Schedule::new(runs),
        r_s: cfg.r_s,
        r_t: cfg.r_t,
        horizon: cfg.horizon,
    }
}

/// Parameters for [`grid_ladder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridConfig {
    /// Parallel single-track lines (≥ 2).
    pub rows: usize,
    /// Stations per line (≥ 3; the two ends are boundary termini).
    pub cols: usize,
    /// Every `rung_every`-th interior column gets crossover rungs joining
    /// each pair of adjacent rows (≥ 1; at least one interior column must
    /// be a rung column or the rows would be disconnected).
    pub rung_every: usize,
    /// Inter-station link length in metres (drawn deterministically in
    /// `link_m ..= 2·link_m`, quantised to `r_s`).
    pub link_m: u64,
    /// Trains per row and direction running the full length of their row.
    pub trains_per_row: usize,
    /// Additional cross trains: train `k` runs from row `k mod (rows-1)`'s
    /// west terminus to row `k mod (rows-1) + 1`'s east terminus, forcing a
    /// route across at least one crossover rung.
    pub cross_trains: usize,
    /// Departure headway between same-origin trains.
    pub headway: Seconds,
    /// Train speed.
    pub speed: KmPerHour,
    /// Train length in metres.
    pub train_m: u64,
    /// Spatial resolution.
    pub r_s: Meters,
    /// Temporal resolution.
    pub r_t: Seconds,
    /// Scenario horizon.
    pub horizon: Seconds,
    /// Seed for the deterministic length stream.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            rows: 2,
            cols: 4,
            rung_every: 2,
            link_m: 1000,
            trains_per_row: 1,
            cross_trains: 1,
            headway: Seconds::from_minutes(2),
            speed: KmPerHour(120),
            train_m: 200,
            r_s: Meters(500),
            r_t: Seconds(30),
            horizon: Seconds::from_minutes(15),
            seed: 1,
        }
    }
}

/// Synthesises a junction-rich ladder/grid scenario: `rows` parallel
/// single-track lines, each a chain of `cols` stations between two
/// two-track boundary termini, joined at every `rung_every`-th interior
/// column by short crossover rungs between adjacent rows.
///
/// Per-row trains run their own line end to end in both directions; cross
/// trains start on one row and finish on the next, so their routes must
/// thread a crossover — every rung column is a degree-3/degree-4 junction
/// cluster, the topology regime the ROADMAP's corpus item asks for.
/// Stations are named `R{row}-S{col}`, rungs `R{row}-X{col}`.
///
/// # Panics
///
/// Panics if `rows < 2`, `cols < 3`, `rung_every == 0`, or no interior
/// column is a rung column (the rows would form a disconnected network).
///
/// # Examples
///
/// ```
/// use etcs_network::generator::{grid_ladder, GridConfig};
/// let scenario = grid_ladder(&GridConfig::default());
/// assert_eq!(scenario.network.stations().len(), 8);
/// scenario.validate()?;
/// scenario.discretise()?;
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn grid_ladder(cfg: &GridConfig) -> Scenario {
    assert!(cfg.rows >= 2, "a ladder needs at least two rows");
    assert!(cfg.cols >= 3, "a ladder needs at least three columns");
    assert!(cfg.rung_every >= 1, "rung_every must be at least 1");
    let rung_cols: Vec<usize> = (1..cfg.cols - 1)
        .filter(|i| i % cfg.rung_every == 0)
        .collect();
    assert!(
        !rung_cols.is_empty(),
        "no interior column is a rung column; the rows would be disconnected"
    );

    let mut seed = cfg.seed | 1;
    let quantum = cfg.r_s.as_u64().max(1);
    let mut draw_link = || {
        let raw = cfg.link_m + xorshift(&mut seed) % (cfg.link_m + 1);
        Meters((raw.div_ceil(quantum)).max(1) * quantum)
    };
    let station_track_len = Meters(quantum);

    let mut b = NetworkBuilder::new();
    let mut ttd = 0usize;
    let mut new_ttd = |b: &mut NetworkBuilder, track| {
        ttd += 1;
        b.ttd(format!("TTD{ttd}"), [track]);
    };

    // Build each row as a single-track chain; remember the termini and the
    // east node of every interior platform for rung attachment.
    let mut west_termini = Vec::with_capacity(cfg.rows);
    let mut east_termini = Vec::with_capacity(cfg.rows);
    let mut platform_east: Vec<Vec<crate::TopoNodeId>> = Vec::with_capacity(cfg.rows);
    for r in 0..cfg.rows {
        let end1 = b.node();
        let end2 = b.node();
        let mut prev = b.node();
        let ta = b.track(end1, prev, station_track_len, format!("R{r}-S0-a"));
        let tb = b.track(end2, prev, station_track_len, format!("R{r}-S0-b"));
        new_ttd(&mut b, ta);
        new_ttd(&mut b, tb);
        west_termini.push(b.station(format!("R{r}-S0"), [ta, tb], true));
        let mut east_nodes = vec![prev];
        for i in 1..cfg.cols {
            let west = b.node();
            let link = b.track(prev, west, draw_link(), format!("R{r}-link-{i}"));
            new_ttd(&mut b, link);
            if i == cfg.cols - 1 {
                let e1 = b.node();
                let e2 = b.node();
                let ta = b.track(west, e1, station_track_len, format!("R{r}-S{i}-a"));
                let tb = b.track(west, e2, station_track_len, format!("R{r}-S{i}-b"));
                new_ttd(&mut b, ta);
                new_ttd(&mut b, tb);
                east_termini.push(b.station(format!("R{r}-S{i}"), [ta, tb], true));
                east_nodes.push(west);
            } else {
                let east = b.node();
                let platform = b.track(west, east, station_track_len, format!("R{r}-S{i}-pl"));
                new_ttd(&mut b, platform);
                b.station(format!("R{r}-S{i}"), [platform], false);
                east_nodes.push(east);
                prev = east;
            }
        }
        platform_east.push(east_nodes);
    }

    // Crossover rungs join adjacent rows at each rung column.
    for &col in &rung_cols {
        for r in 0..cfg.rows - 1 {
            let rung = b.track(
                platform_east[r][col],
                platform_east[r + 1][col],
                station_track_len,
                format!("R{r}-X{col}"),
            );
            new_ttd(&mut b, rung);
        }
    }

    let network = b.build().expect("generated ladder topology is valid");

    let mut runs = Vec::new();
    for r in 0..cfg.rows {
        for k in 0..cfg.trains_per_row {
            let dep = Seconds(cfg.headway.as_u64() * k as u64);
            runs.push(TrainRun::new(
                Train::new(format!("R{r} East {k}"), Meters(cfg.train_m), cfg.speed),
                west_termini[r],
                east_termini[r],
                dep,
                None,
            ));
            runs.push(TrainRun::new(
                Train::new(format!("R{r} West {k}"), Meters(cfg.train_m), cfg.speed),
                east_termini[r],
                west_termini[r],
                dep,
                None,
            ));
        }
    }
    for k in 0..cfg.cross_trains {
        let r = k % (cfg.rows - 1);
        let dep = Seconds(cfg.headway.as_u64() * (k / (cfg.rows - 1)) as u64);
        runs.push(TrainRun::new(
            Train::new(format!("X {k}"), Meters(cfg.train_m), cfg.speed),
            west_termini[r],
            east_termini[r + 1],
            dep,
            None,
        ));
    }

    Scenario {
        name: format!(
            "grid-{}x{}-{}tr-seed{}",
            cfg.rows, cfg.cols, cfg.trains_per_row, cfg.seed
        ),
        network,
        schedule: Schedule::new(runs),
        r_s: cfg.r_s,
        r_t: cfg.r_t,
        horizon: cfg.horizon,
    }
}

/// Parameters for [`station_throat`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThroatConfig {
    /// Parallel siding tracks through the central yard station (≥ 2).
    pub sidings: usize,
    /// Interior (plain-platform) stations on each approach between a
    /// boundary terminus and the yard throat.
    pub approach_stations: usize,
    /// Inter-station link length in metres (drawn deterministically in
    /// `link_m ..= 2·link_m`, quantised to `r_s`).
    pub link_m: u64,
    /// Trains per direction crossing the yard end to end.
    pub trains_per_direction: usize,
    /// Departure headway between same-direction trains.
    pub headway: Seconds,
    /// Train speed.
    pub speed: KmPerHour,
    /// Train length in metres.
    pub train_m: u64,
    /// Spatial resolution.
    pub r_s: Meters,
    /// Temporal resolution.
    pub r_t: Seconds,
    /// Scenario horizon.
    pub horizon: Seconds,
    /// Seed for the deterministic length stream.
    pub seed: u64,
}

impl Default for ThroatConfig {
    fn default() -> Self {
        ThroatConfig {
            sidings: 2,
            approach_stations: 1,
            link_m: 1000,
            trains_per_direction: 1,
            headway: Seconds::from_minutes(2),
            speed: KmPerHour(120),
            train_m: 200,
            r_s: Meters(500),
            r_t: Seconds(30),
            horizon: Seconds::from_minutes(15),
            seed: 1,
        }
    }
}

/// Synthesises a station-throat scenario: two single-track approaches meet
/// a central yard of `sidings` parallel tracks between two throat nodes.
///
/// Opposing trains cross the yard end to end (`W0` ↔ `E0`), so every
/// schedule contends for the two throat nodes (degree `sidings + 1`) — the
/// station-throat regime of real interlockings, where VSS borders inside
/// the sidings decide how many trains can be staged simultaneously.
///
/// # Panics
///
/// Panics if `sidings < 2` or `trains_per_direction == 0`.
///
/// # Examples
///
/// ```
/// use etcs_network::generator::{station_throat, ThroatConfig};
/// let scenario = station_throat(&ThroatConfig::default());
/// // W0 + E0 termini, one approach station each side, the yard.
/// assert_eq!(scenario.network.stations().len(), 5);
/// scenario.validate()?;
/// scenario.discretise()?;
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
pub fn station_throat(cfg: &ThroatConfig) -> Scenario {
    assert!(cfg.sidings >= 2, "a yard needs at least two sidings");
    assert!(cfg.trains_per_direction >= 1, "at least one train each way");
    let mut seed = cfg.seed | 1;
    let quantum = cfg.r_s.as_u64().max(1);
    let mut draw_link = || {
        let raw = cfg.link_m + xorshift(&mut seed) % (cfg.link_m + 1);
        Meters((raw.div_ceil(quantum)).max(1) * quantum)
    };
    let station_track_len = Meters(quantum);

    let mut b = NetworkBuilder::new();
    let mut ttd = 0usize;
    let mut new_ttd = |b: &mut NetworkBuilder, track| {
        ttd += 1;
        b.ttd(format!("TTD{ttd}"), [track]);
    };

    // One approach: boundary terminus, `approach_stations` platforms, then
    // a link into the throat node. Returns the terminus station id.
    let mut approach = |b: &mut NetworkBuilder,
                        new_ttd: &mut dyn FnMut(&mut NetworkBuilder, crate::TrackId),
                        throat: crate::TopoNodeId,
                        prefix: &str| {
        let end1 = b.node();
        let end2 = b.node();
        let mut prev = b.node();
        let ta = b.track(end1, prev, station_track_len, format!("{prefix}0-a"));
        let tb = b.track(end2, prev, station_track_len, format!("{prefix}0-b"));
        new_ttd(b, ta);
        new_ttd(b, tb);
        let terminus = b.station(format!("{prefix}0"), [ta, tb], true);
        for i in 1..=cfg.approach_stations {
            let west = b.node();
            let link = b.track(prev, west, draw_link(), format!("{prefix}-link-{i}"));
            new_ttd(b, link);
            let east = b.node();
            let platform = b.track(west, east, station_track_len, format!("{prefix}{i}-pl"));
            new_ttd(b, platform);
            b.station(format!("{prefix}{i}"), [platform], false);
            prev = east;
        }
        let merge = b.track(prev, throat, draw_link(), format!("{prefix}-throat"));
        new_ttd(b, merge);
        terminus
    };

    let throat_w = b.node();
    let throat_e = b.node();
    let west_terminus = approach(&mut b, &mut new_ttd, throat_w, "W");
    let east_terminus = approach(&mut b, &mut new_ttd, throat_e, "E");

    // The yard: parallel sidings between the two throat nodes, one station
    // holding them all (each siding is its own TTD, so VSS borders inside
    // a siding stay well-defined).
    let mut siding_tracks = Vec::with_capacity(cfg.sidings);
    for s in 0..cfg.sidings {
        let track = b.track(throat_w, throat_e, Meters(quantum * 2), format!("Y-s{s}"));
        new_ttd(&mut b, track);
        siding_tracks.push(track);
    }
    b.station("Yard", siding_tracks, false);

    let network = b.build().expect("generated throat topology is valid");

    let mut runs = Vec::new();
    for k in 0..cfg.trains_per_direction {
        let dep = Seconds(cfg.headway.as_u64() * k as u64);
        runs.push(TrainRun::new(
            Train::new(format!("East {k}"), Meters(cfg.train_m), cfg.speed),
            west_terminus,
            east_terminus,
            dep,
            None,
        ));
        runs.push(TrainRun::new(
            Train::new(format!("West {k}"), Meters(cfg.train_m), cfg.speed),
            east_terminus,
            west_terminus,
            dep,
            None,
        ));
    }

    Scenario {
        name: format!(
            "throat-{}sd-{}tr-seed{}",
            cfg.sidings, cfg.trains_per_direction, cfg.seed
        ),
        network,
        schedule: Schedule::new(runs),
        r_s: cfg.r_s,
        r_t: cfg.r_t,
        horizon: cfg.horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_line_is_valid() {
        let s = single_track_line(&LineConfig::default());
        s.validate().expect("valid");
        let d = s.discretise().expect("discretises");
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn station_count_matches_config() {
        for n in 2..8 {
            let s = single_track_line(&LineConfig {
                stations: n,
                ..LineConfig::default()
            });
            assert_eq!(s.network.stations().len(), n);
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = single_track_line(&LineConfig::default());
        let b = single_track_line(&LineConfig::default());
        assert_eq!(a.network, b.network);
        let c = single_track_line(&LineConfig {
            seed: 99,
            ..LineConfig::default()
        });
        assert_ne!(a.network, c.network, "different seed, different lengths");
    }

    #[test]
    fn loops_appear_at_configured_interval() {
        let s = single_track_line(&LineConfig {
            stations: 7,
            loop_every: 2,
            ..LineConfig::default()
        });
        let loops = s
            .network
            .stations()
            .iter()
            .filter(|st| !st.boundary && st.tracks.len() == 2)
            .count();
        assert_eq!(loops, 2, "stations 2 and 4 are loops");
    }

    #[test]
    fn no_loops_when_disabled() {
        let s = single_track_line(&LineConfig {
            stations: 6,
            loop_every: 0,
            ..LineConfig::default()
        });
        assert!(s
            .network
            .stations()
            .iter()
            .filter(|st| !st.boundary)
            .all(|st| st.tracks.len() == 1));
    }

    #[test]
    #[should_panic(expected = "at least two stations")]
    fn one_station_panics() {
        single_track_line(&LineConfig {
            stations: 1,
            ..LineConfig::default()
        });
    }

    #[test]
    fn default_branch_is_valid() {
        let s = branched_line(&BranchConfig::default());
        s.validate().expect("valid");
        let d = s.discretise().expect("discretises");
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn branch_has_a_degree_three_junction() {
        let s = branched_line(&BranchConfig {
            arm_stations: 0,
            trunk_stations: 0,
            ..BranchConfig::default()
        });
        // Exactly one node joins three plain tracks: both arm merge links
        // and the trunk link.
        let mut incidence = std::collections::BTreeMap::new();
        for t in s.network.tracks() {
            *incidence.entry(t.from).or_insert(0usize) += 1;
            *incidence.entry(t.to).or_insert(0usize) += 1;
        }
        let junctions = incidence.values().filter(|&&d| d >= 3).count();
        assert!(junctions >= 1, "a branch needs a junction node");
    }

    #[test]
    fn branch_station_count_matches_config() {
        for (arms, trunk) in [(0, 0), (1, 2), (2, 1)] {
            let s = branched_line(&BranchConfig {
                arm_stations: arms,
                trunk_stations: trunk,
                ..BranchConfig::default()
            });
            // 3 termini + interiors on both arms + trunk interiors.
            assert_eq!(s.network.stations().len(), 3 + 2 * arms + trunk);
        }
    }

    #[test]
    fn branch_is_deterministic_per_seed() {
        let a = branched_line(&BranchConfig::default());
        let b = branched_line(&BranchConfig::default());
        assert_eq!(a.network, b.network);
        let c = branched_line(&BranchConfig {
            seed: 7,
            ..BranchConfig::default()
        });
        assert_ne!(a.network, c.network, "different seed, different lengths");
    }

    #[test]
    fn branch_trains_start_on_both_arms() {
        let s = branched_line(&BranchConfig {
            trains_per_arm: 2,
            ..BranchConfig::default()
        });
        assert_eq!(s.schedule.len(), 4);
        let runs = s.schedule.runs();
        assert_ne!(runs[0].origin, runs[1].origin, "one train per arm per wave");
        assert_eq!(
            runs[0].destination, runs[1].destination,
            "all trains merge onto the trunk"
        );
    }

    #[test]
    #[should_panic(expected = "at least one train per arm")]
    fn branch_without_trains_panics() {
        branched_line(&BranchConfig {
            trains_per_arm: 0,
            ..BranchConfig::default()
        });
    }

    #[test]
    fn multi_arm_branch_is_valid_and_star_shaped() {
        let s = branched_line(&BranchConfig {
            arms: 4,
            arm_stations: 0,
            trunk_stations: 0,
            ..BranchConfig::default()
        });
        s.validate().expect("valid");
        s.discretise().expect("discretises");
        // 4 arm termini + trunk terminus.
        assert_eq!(s.network.stations().len(), 5);
        // The junction joins all four arm merge links plus the trunk.
        let mut incidence = std::collections::BTreeMap::new();
        for t in s.network.tracks() {
            *incidence.entry(t.from).or_insert(0usize) += 1;
            *incidence.entry(t.to).or_insert(0usize) += 1;
        }
        assert!(incidence.values().any(|&d| d == 5), "degree-5 junction");
        // One train per arm per wave, all bound for the trunk terminus.
        assert_eq!(s.schedule.len(), 4);
        let dest = s.schedule.runs()[0].destination;
        assert!(s.schedule.runs().iter().all(|r| r.destination == dest));
    }

    #[test]
    #[should_panic(expected = "arms must be in 2..=19")]
    fn too_many_arms_panics() {
        branched_line(&BranchConfig {
            arms: 20,
            ..BranchConfig::default()
        });
    }

    #[test]
    fn default_grid_is_valid() {
        let s = grid_ladder(&GridConfig::default());
        s.validate().expect("valid");
        let d = s.discretise().expect("discretises");
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn grid_row_and_station_counts_match_config() {
        for (rows, cols) in [(2, 4), (3, 5), (4, 7)] {
            let s = grid_ladder(&GridConfig {
                rows,
                cols,
                ..GridConfig::default()
            });
            assert_eq!(s.network.stations().len(), rows * cols);
            s.validate().expect("valid");
        }
    }

    #[test]
    fn grid_rungs_make_junction_nodes() {
        let s = grid_ladder(&GridConfig {
            rows: 3,
            cols: 5,
            rung_every: 2,
            ..GridConfig::default()
        });
        let mut incidence = std::collections::BTreeMap::new();
        for t in s.network.tracks() {
            *incidence.entry(t.from).or_insert(0usize) += 1;
            *incidence.entry(t.to).or_insert(0usize) += 1;
        }
        // Interior rows at rung columns touch two rungs: degree 4.
        assert!(
            incidence.values().any(|&d| d >= 4),
            "a 3-row ladder has a degree-4 crossover cluster"
        );
    }

    #[test]
    fn grid_cross_trains_span_rows() {
        let s = grid_ladder(&GridConfig {
            cross_trains: 2,
            ..GridConfig::default()
        });
        let cross: Vec<_> = s
            .schedule
            .runs()
            .iter()
            .filter(|r| r.train.name.starts_with("X "))
            .collect();
        assert_eq!(cross.len(), 2);
        let origin_name = &s.network.stations()[cross[0].origin.index()].name;
        let dest_name = &s.network.stations()[cross[0].destination.index()].name;
        assert!(origin_name.starts_with("R0-"), "{origin_name}");
        assert!(dest_name.starts_with("R1-"), "{dest_name}");
    }

    #[test]
    fn grid_is_deterministic_per_seed() {
        let a = grid_ladder(&GridConfig::default());
        let b = grid_ladder(&GridConfig::default());
        assert_eq!(a.network, b.network);
        assert_eq!(a.schedule, b.schedule);
        let c = grid_ladder(&GridConfig {
            seed: 99,
            ..GridConfig::default()
        });
        assert_ne!(a.network, c.network, "different seed, different lengths");
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn grid_without_rungs_panics() {
        grid_ladder(&GridConfig {
            cols: 3,
            rung_every: 2,
            ..GridConfig::default()
        });
    }

    #[test]
    fn default_throat_is_valid() {
        let s = station_throat(&ThroatConfig::default());
        s.validate().expect("valid");
        let d = s.discretise().expect("discretises");
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn throat_yard_holds_all_sidings() {
        let s = station_throat(&ThroatConfig {
            sidings: 4,
            ..ThroatConfig::default()
        });
        let yard = s
            .network
            .stations()
            .iter()
            .find(|st| st.name == "Yard")
            .expect("yard station");
        assert_eq!(yard.tracks.len(), 4);
        assert!(!yard.boundary);
        // Both throat nodes have degree sidings + 1.
        let mut incidence = std::collections::BTreeMap::new();
        for t in s.network.tracks() {
            *incidence.entry(t.from).or_insert(0usize) += 1;
            *incidence.entry(t.to).or_insert(0usize) += 1;
        }
        assert_eq!(incidence.values().filter(|&&d| d == 5).count(), 2);
    }

    #[test]
    fn throat_is_deterministic_per_seed() {
        let a = station_throat(&ThroatConfig::default());
        let b = station_throat(&ThroatConfig::default());
        assert_eq!(a.network, b.network);
        let c = station_throat(&ThroatConfig {
            seed: 3,
            ..ThroatConfig::default()
        });
        assert_ne!(a.network, c.network, "different seed, different lengths");
    }

    #[test]
    fn trains_run_in_both_directions() {
        let s = single_track_line(&LineConfig {
            trains_per_direction: 3,
            ..LineConfig::default()
        });
        assert_eq!(s.schedule.len(), 6);
        let runs = s.schedule.runs();
        assert_ne!(runs[0].origin, runs[1].origin);
    }
}
