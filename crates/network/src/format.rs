//! A plain-text scenario format (`.rail`) with parser and writer.
//!
//! Scenarios — network, TTD layout, stations, trains and schedule — can be
//! stored in a small line-based format, shared with colleagues, and loaded
//! back. Every bundled fixture round-trips losslessly (`write_scenario` →
//! [`parse_scenario`] → identical scenario).
//!
//! # Format
//!
//! ```text
//! # comments start with '#'
//! scenario Running Example
//! rs 500                      # spatial resolution [m]
//! rt 30                       # temporal resolution [s]
//! horizon 0:05:00
//!
//! node A
//! node P
//! track A-P : A - P 1500      # name : endpoint - endpoint length[m]
//! ttd TTD1 : A-P              # name : member tracks
//! station A : boundary A-P    # name : boundary|interior member tracks
//! train Train 1 : 400 180     # name : length[m] max-speed[km/h]
//! run Train 1 : A -> B dep 0:00:00 arr 0:04:30
//! run Train 2 : A -> B dep 0:01:00            # arrival free
//! stop Train 1 : C arr 0:02:00                # optional intermediate stop
//! ```
//!
//! Names may contain spaces; fields around them are separated by `:`,
//! `-`, `->` and keywords.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::NetworkError;
use crate::scenario::Scenario;
use crate::schedule::{Schedule, TrainRun};
use crate::topology::{NetworkBuilder, StationId, TopoNodeId, TrackId};
use crate::train::Train;
use crate::units::{KmPerHour, Meters, Seconds};

/// Error produced when parsing a `.rail` document fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line number (0 for whole-document errors such as a missing
    /// directive or a validation failure of the completed network).
    pub line: usize,
    /// 1-based column of the offending fragment within the raw line
    /// (0 when the error has no line, or no narrower span than the line).
    pub column: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "scenario parse error: {}", self.message),
            (line, 0) => write!(f, "scenario parse error at line {line}: {}", self.message),
            (line, column) => write!(
                f,
                "scenario parse error at line {line}, column {column}: {}",
                self.message
            ),
        }
    }
}

impl std::error::Error for ParseScenarioError {}

impl From<(usize, String)> for ParseScenarioError {
    fn from((line, message): (usize, String)) -> Self {
        ParseScenarioError {
            line,
            column: 0,
            message,
        }
    }
}

/// 1-based column of `fragment` within `raw`, or 0 when `fragment` is not
/// a subslice of `raw`. Pure pointer arithmetic on the borrowed slices —
/// every parser fragment is carved out of its raw line, so the offset *is*
/// the column (bytes; `.rail` documents are ASCII in practice).
fn column_of(raw: &str, fragment: &str) -> usize {
    let base = raw.as_ptr() as usize;
    let p = fragment.as_ptr() as usize;
    if p >= base && p + fragment.len() <= base + raw.len() {
        p - base + 1
    } else {
        0
    }
}

/// Parses a `.rail` document into a validated [`Scenario`].
///
/// # Errors
///
/// Returns [`ParseScenarioError`] on malformed syntax and wraps
/// [`NetworkError`] diagnostics (with line 0) when the parsed network
/// fails validation.
pub fn parse_scenario(input: &str) -> Result<Scenario, ParseScenarioError> {
    let mut name = String::from("unnamed");
    let mut r_s: Option<Meters> = None;
    let mut r_t: Option<Seconds> = None;
    let mut horizon: Option<Seconds> = None;
    let mut builder = NetworkBuilder::new();
    let mut nodes: BTreeMap<String, TopoNodeId> = BTreeMap::new();
    let mut tracks: BTreeMap<String, TrackId> = BTreeMap::new();
    let mut stations: BTreeMap<String, StationId> = BTreeMap::new();
    let mut trains: BTreeMap<String, (Train, usize)> = BTreeMap::new(); // -> run index
    let mut runs: Vec<TrainRun> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // `err` blames the whole directive (column of its first keyword
        // character); `err_at` narrows the span to the offending fragment,
        // which every reference/number error below points at.
        let err = |message: String| ParseScenarioError {
            line: lineno,
            column: column_of(raw, line),
            message,
        };
        let err_at = |fragment: &str, message: String| ParseScenarioError {
            line: lineno,
            column: column_of(raw, fragment),
            message,
        };
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match keyword {
            "scenario" => name = rest.to_owned(),
            "rs" => {
                let metres = positive(rest).ok_or_else(|| {
                    err_at(rest, format!("invalid rs `{rest}` (positive metres)"))
                })?;
                r_s = Some(Meters(metres));
            }
            "rt" => {
                let secs = positive(rest).ok_or_else(|| {
                    err_at(rest, format!("invalid rt `{rest}` (positive seconds)"))
                })?;
                r_t = Some(Seconds(secs));
            }
            "horizon" => {
                horizon = Some(
                    Seconds::parse_hms(rest)
                        .map_err(|e| err_at(rest, format!("invalid horizon: {e}")))?,
                );
            }
            "node" => {
                if rest.is_empty() {
                    return Err(err("node needs a name".into()));
                }
                if nodes.contains_key(rest) {
                    return Err(err_at(rest, format!("duplicate node `{rest}`")));
                }
                let id = builder.node();
                nodes.insert(rest.to_owned(), id);
            }
            "track" => {
                // <name> : <node> - <node> <length_m>
                let (tname, spec) = rest
                    .split_once(':')
                    .ok_or_else(|| err("track needs `name : a - b length`".into()))?;
                let tname = tname.trim();
                let (ends, len) = spec
                    .trim()
                    .rsplit_once(char::is_whitespace)
                    .ok_or_else(|| err("track needs a length".into()))?;
                let length: u64 = len
                    .parse()
                    .map_err(|_| err_at(len, format!("invalid track length `{len}`")))?;
                // Node names may themselves contain dashes (`westhaven-end`),
                // so the separator is a dash surrounded by whitespace.
                let (a, b) = ends
                    .split_once(" - ")
                    .or_else(|| ends.split_once('-'))
                    .ok_or_else(|| err("track endpoints need `a - b`".into()))?;
                let a = nodes
                    .get(a.trim())
                    .ok_or_else(|| err_at(a.trim(), format!("unknown node `{}`", a.trim())))?;
                let b = nodes
                    .get(b.trim())
                    .ok_or_else(|| err_at(b.trim(), format!("unknown node `{}`", b.trim())))?;
                let id = builder.track(*a, *b, Meters(length), tname);
                tracks.insert(tname.to_owned(), id);
            }
            "ttd" => {
                let (tname, members) = rest
                    .split_once(':')
                    .ok_or_else(|| err("ttd needs `name : tracks…`".into()))?;
                let members = parse_track_list(members, &tracks).map_err(|(f, m)| err_at(f, m))?;
                builder.ttd(tname.trim(), members);
            }
            "station" => {
                let (sname, spec) = rest.split_once(':').ok_or_else(|| {
                    err("station needs `name : boundary|interior tracks…`".into())
                })?;
                let spec = spec.trim();
                let (kind, members) = spec
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("station needs member tracks".into()))?;
                let boundary = match kind {
                    "boundary" => true,
                    "interior" => false,
                    other => return Err(err_at(other, format!("unknown station kind `{other}`"))),
                };
                let members = parse_track_list(members, &tracks).map_err(|(f, m)| err_at(f, m))?;
                let id = builder.station(sname.trim(), members, boundary);
                stations.insert(sname.trim().to_owned(), id);
            }
            "train" => {
                let (tname, spec) = rest
                    .split_once(':')
                    .ok_or_else(|| err("train needs `name : length speed`".into()))?;
                let parts: Vec<&str> = spec.split_whitespace().collect();
                let [length, speed] = parts.as_slice() else {
                    return Err(err("train needs `length[m] speed[km/h]`".into()));
                };
                let length: u64 = length
                    .parse()
                    .map_err(|_| err_at(length, format!("invalid train length `{length}`")))?;
                let speed: u32 = speed
                    .parse()
                    .map_err(|_| err_at(speed, format!("invalid train speed `{speed}`")))?;
                let train = Train::new(tname.trim(), Meters(length), KmPerHour(speed));
                // The writer declares a train once per run, so a repeated
                // declaration must repeat the same train: a different one
                // would not survive a write and re-parse.
                match trains.get(tname.trim()) {
                    Some((known, _)) if *known != train => {
                        return Err(err_at(
                            tname.trim(),
                            format!("train `{}` redeclared differently", tname.trim()),
                        ))
                    }
                    Some(_) => {}
                    None => {
                        trains.insert(tname.trim().to_owned(), (train, usize::MAX));
                    }
                }
            }
            "run" => {
                // <train> : <origin> -> <dest> dep <time> [arr <time>]
                let (tname, spec) = rest
                    .split_once(':')
                    .ok_or_else(|| err("run needs `train : origin -> dest dep …`".into()))?;
                let tname = tname.trim();
                let (train, run_slot) = trains
                    .get_mut(tname)
                    .ok_or_else(|| err_at(tname, format!("unknown train `{tname}`")))?;
                let (route, times) = spec
                    .split_once(" dep ")
                    .ok_or_else(|| err("run needs ` dep <time>`".into()))?;
                let (origin, dest) = route
                    .split_once("->")
                    .ok_or_else(|| err("run route needs `origin -> dest`".into()))?;
                let origin = *stations.get(origin.trim()).ok_or_else(|| {
                    err_at(
                        origin.trim(),
                        format!("unknown station `{}`", origin.trim()),
                    )
                })?;
                let dest = *stations.get(dest.trim()).ok_or_else(|| {
                    err_at(dest.trim(), format!("unknown station `{}`", dest.trim()))
                })?;
                let (dep_text, arr_text) = match times.trim().split_once(" arr ") {
                    Some((d, a)) => (d.trim(), Some(a.trim())),
                    None => (times.trim(), None),
                };
                let departure = Seconds::parse_hms(dep_text)
                    .map_err(|e| err_at(dep_text, format!("invalid departure: {e}")))?;
                let arrival = match arr_text {
                    Some(a) => Some(
                        Seconds::parse_hms(a)
                            .map_err(|e| err_at(a, format!("invalid arrival: {e}")))?,
                    ),
                    None => None,
                };
                *run_slot = runs.len();
                runs.push(TrainRun::new(
                    train.clone(),
                    origin,
                    dest,
                    departure,
                    arrival,
                ));
            }
            "stop" => {
                // <train> : <station> [arr <time>]
                let (tname, spec) = rest
                    .split_once(':')
                    .ok_or_else(|| err("stop needs `train : station [arr <time>]`".into()))?;
                let run_ix = trains
                    .get(tname.trim())
                    .filter(|(_, ix)| *ix != usize::MAX)
                    .ok_or_else(|| {
                        err_at(
                            tname.trim(),
                            format!("stop before run for train `{}`", tname.trim()),
                        )
                    })?
                    .1;
                let (sname, deadline) = match spec.trim().split_once(" arr ") {
                    Some((s, t)) => (
                        s.trim(),
                        Some(
                            Seconds::parse_hms(t.trim())
                                .map_err(|e| err_at(t.trim(), format!("invalid stop time: {e}")))?,
                        ),
                    ),
                    None => (spec.trim(), None),
                };
                let station = *stations
                    .get(sname)
                    .ok_or_else(|| err_at(sname, format!("unknown station `{sname}`")))?;
                runs[run_ix].stops.push((station, deadline));
            }
            other => return Err(err_at(other, format!("unknown keyword `{other}`"))),
        }
    }

    let missing = |what: &str| ParseScenarioError {
        line: 0,
        column: 0,
        message: format!("missing `{what}` directive"),
    };
    let network = builder
        .build()
        .map_err(|e: NetworkError| ParseScenarioError {
            line: 0,
            column: 0,
            message: format!("network validation failed: {e}"),
        })?;
    let scenario = Scenario {
        name,
        network,
        schedule: Schedule::new(runs),
        r_s: r_s.ok_or_else(|| missing("rs"))?,
        r_t: r_t.ok_or_else(|| missing("rt"))?,
        horizon: horizon.ok_or_else(|| missing("horizon"))?,
    };
    scenario.validate().map_err(|e| ParseScenarioError {
        line: 0,
        column: 0,
        message: format!("schedule validation failed: {e}"),
    })?;
    Ok(scenario)
}

/// A resolution: a decimal integer above zero (a zero grid has no steps).
fn positive(text: &str) -> Option<u64> {
    text.parse().ok().filter(|&n| n > 0)
}

fn parse_track_list<'a>(
    text: &'a str,
    tracks: &BTreeMap<String, TrackId>,
) -> Result<Vec<TrackId>, (&'a str, String)> {
    // Track names may contain spaces, so match greedily against the known
    // names: split on two-or-more spaces first; fall back to whitespace.
    let mut out = Vec::new();
    for token in text.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        match tracks.get(token) {
            Some(&id) => out.push(id),
            None => return Err((token, format!("unknown track `{token}`"))),
        }
    }
    if out.is_empty() {
        return Err((text, "empty track list".into()));
    }
    Ok(out)
}

/// Serialises a scenario to the `.rail` text format.
///
/// Node names are synthesised (`n0`, `n1`, …) since the topology stores
/// nodes anonymously.
pub fn write_scenario(scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", scenario.name);
    let _ = writeln!(out, "rs {}", scenario.r_s.as_u64());
    let _ = writeln!(out, "rt {}", scenario.r_t.as_u64());
    let _ = writeln!(out, "horizon {}", scenario.horizon);
    let _ = writeln!(out);
    let net = &scenario.network;
    for i in 0..net.num_nodes() {
        let _ = writeln!(out, "node n{i}");
    }
    for t in net.tracks() {
        let _ = writeln!(
            out,
            "track {} : n{} - n{} {}",
            t.name,
            t.from.index(),
            t.to.index(),
            t.length.as_u64()
        );
    }
    for ttd in net.ttds() {
        let members: Vec<&str> = ttd
            .tracks
            .iter()
            .map(|&t| net.tracks()[t.index()].name.as_str())
            .collect();
        let _ = writeln!(out, "ttd {} : {}", ttd.name, members.join(", "));
    }
    for s in net.stations() {
        let members: Vec<&str> = s
            .tracks
            .iter()
            .map(|&t| net.tracks()[t.index()].name.as_str())
            .collect();
        let kind = if s.boundary { "boundary" } else { "interior" };
        let _ = writeln!(out, "station {} : {kind} {}", s.name, members.join(", "));
    }
    for run in scenario.schedule.runs() {
        let _ = writeln!(
            out,
            "train {} : {} {}",
            run.train.name,
            run.train.length.as_u64(),
            run.train.max_speed.as_u32()
        );
    }
    for run in scenario.schedule.runs() {
        let origin = &net.stations()[run.origin.index()].name;
        let dest = &net.stations()[run.destination.index()].name;
        let _ = write!(
            out,
            "run {} : {origin} -> {dest} dep {}",
            run.train.name, run.departure
        );
        if let Some(arr) = run.arrival {
            let _ = write!(out, " arr {arr}");
        }
        let _ = writeln!(out);
        for &(station, deadline) in &run.stops {
            let sname = &net.stations()[station.index()].name;
            let _ = write!(out, "stop {} : {sname}", run.train.name);
            if let Some(d) = deadline {
                let _ = write!(out, " arr {d}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn all_fixtures_roundtrip() {
        for original in fixtures::all() {
            let text = write_scenario(&original);
            let parsed = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", original.name));
            assert_eq!(parsed.name, original.name);
            assert_eq!(parsed.r_s, original.r_s);
            assert_eq!(parsed.r_t, original.r_t);
            assert_eq!(parsed.horizon, original.horizon);
            assert_eq!(parsed.network, original.network, "{}", original.name);
            assert_eq!(parsed.schedule, original.schedule, "{}", original.name);
        }
    }

    #[test]
    fn minimal_document_parses() {
        let text = "\
scenario Mini
rs 500
rt 30
horizon 0:05:00
node a
node b
track main : a - b 1000
ttd T1 : main
station A : boundary main
train T : 200 120
run T : A -> A dep 0:00:00
";
        let s = parse_scenario(text).expect("parses");
        assert_eq!(s.name, "Mini");
        assert_eq!(s.network.tracks().len(), 1);
        assert_eq!(s.schedule.len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# header comment
scenario C

rs 500   # inline comment
rt 30
horizon 0:01:00
node a
node b
track t : a - b 500
ttd T : t
station S : boundary t
";
        let s = parse_scenario(text).expect("parses");
        assert_eq!(s.name, "C");
    }

    #[test]
    fn stops_attach_to_the_preceding_run() {
        let text = "\
scenario S
rs 500
rt 30
horizon 0:10:00
node a
node b
node c
track t1 : a - b 500
track t2 : b - c 500
ttd T1 : t1
ttd T2 : t2
station A : boundary t1
station M : interior t2
train T : 100 60
run T : A -> A dep 0:00:00 arr 0:08:00
stop T : M arr 0:04:00
";
        let s = parse_scenario(text).expect("parses");
        let run = &s.schedule.runs()[0];
        assert_eq!(run.stops.len(), 1);
        assert_eq!(run.stops[0].1, Some(Seconds(240)));
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "scenario X\nrs 500\nrt 30\nhorizon 0:01:00\nbogus directive\n";
        let e = parse_scenario(text).expect_err("fails");
        assert_eq!(e.line, 5);
        assert_eq!(e.column, 1, "the unknown keyword starts the line");
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn error_reports_columns_of_the_offending_fragment() {
        // `rs nope` — the bad number starts at column 4.
        let e = parse_scenario("scenario X\nrs nope\n").expect_err("fails");
        assert_eq!((e.line, e.column), (2, 4));

        // The unknown node `c` of the track endpoints, not the directive.
        let text = "scenario X\nrs 500\nrt 30\nhorizon 0:01:00\nnode a\ntrack t : a - c 500\n";
        let e = parse_scenario(text).expect_err("fails");
        assert_eq!((e.line, e.column), (6, 15), "{e}");
        assert!(e.message.contains("unknown node `c`"));

        // Leading whitespace and inline comments do not shift the span:
        // the column is measured in the raw line.
        let e = parse_scenario("scenario X\n   rs nope # comment\n").expect_err("fails");
        assert_eq!((e.line, e.column), (2, 7));
    }

    #[test]
    fn a_train_is_declared_once_or_identically() {
        let text = "\
scenario S
rs 500
rt 30
horizon 0:10:00
node a
node b
track t : a - b 500
ttd T : t
station A : boundary t
train X : 100 60
run X : A -> A dep 0:00:00
train X : 100 60
run X : A -> A dep 0:01:00
";
        let s = parse_scenario(text).expect("an identical redeclaration is fine");
        assert_eq!(s.schedule.len(), 2);
        let back = parse_scenario(&write_scenario(&s)).expect("round-trips");
        assert_eq!(back.schedule, s.schedule);
        let e = parse_scenario(&text.replacen(
            "train X : 100 60\nrun X : A -> A dep 0:01",
            "train X : 200 60\nrun X : A -> A dep 0:01",
            1,
        ))
        .expect_err("a different redeclaration is an error");
        assert_eq!((e.line, e.column), (12, 7), "{e}");
        assert!(e.message.contains("redeclared"), "{e}");
    }

    #[test]
    fn zero_resolutions_are_rejected() {
        for (text, want) in [
            ("scenario X\nrs 0\n", "invalid rs `0`"),
            ("scenario X\nrs 500\nrt 0\n", "invalid rt `0`"),
        ] {
            let e = parse_scenario(text).expect_err("fails");
            assert_eq!(e.column, 4, "{e}");
            assert!(e.message.contains(want), "{e}");
        }
    }

    #[test]
    fn column_of_rejects_foreign_fragments() {
        assert_eq!(column_of("abc", "abc"), 1);
        assert_eq!(column_of("abc", &"abc"[1..]), 2);
        assert_eq!(column_of("abc", "elsewhere"), 0);
    }

    #[test]
    fn unknown_references_are_reported() {
        let text = "\
scenario X
rs 500
rt 30
horizon 0:01:00
node a
node b
track t : a - b 500
ttd T : missing
";
        let e = parse_scenario(text).expect_err("fails");
        assert!(e.message.contains("unknown track"));
    }

    #[test]
    fn missing_resolution_is_reported() {
        let text =
            "scenario X\nrt 30\nhorizon 0:01:00\nnode a\nnode b\ntrack t : a - b 500\nttd T : t\n";
        let e = parse_scenario(text).expect_err("fails");
        assert!(e.message.contains("rs"));
    }

    #[test]
    fn network_validation_failures_surface() {
        // Track not covered by any TTD.
        let text = "\
scenario X
rs 500
rt 30
horizon 0:01:00
node a
node b
track t : a - b 500
";
        let e = parse_scenario(text).expect_err("fails");
        assert!(e.message.contains("validation"));
    }

    #[test]
    fn display_of_error_mentions_line() {
        let e = ParseScenarioError {
            line: 7,
            column: 3,
            message: "boom".into(),
        };
        assert!(format!("{e}").contains("line 7, column 3"));
        let whole_line = ParseScenarioError {
            line: 7,
            column: 0,
            message: "boom".into(),
        };
        assert!(format!("{whole_line}").contains("line 7"));
        assert!(!format!("{whole_line}").contains("column"));
    }
}
