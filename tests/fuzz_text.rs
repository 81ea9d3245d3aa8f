//! Grammar-aware mutation fuzzing of every text surface: `.rail`
//! scenarios, `.delta` traces, JSONL job lines (under the wire's rule that
//! a peer may not name a `file:`), wire frames and DIMACS.
//!
//! Each case takes a seed document (the shipped scenarios and traces, the
//! frames of `crates/fleet/tests/protocol.rs`, the documents of
//! `tests/rail_format.rs` and `tests/replay_traces.rs`, and regressions)
//! and applies one to three mutations that know the grammar: token swaps,
//! huge numbers, deleted or doubled delimiters, escapes, deep nesting,
//! line edits, truncation and, rarely, a 1 MiB run of text. The property
//! is the same for every surface: the parser either returns a value that
//! round-trips through the matching writer, or a typed error. It never
//! panics; `etcs_testkit::cases` names the seed of a case that does.
//!
//! Only parsers run here. A fuzzed scenario is never encoded or solved:
//! nothing yet bounds the size of the instance a scenario asks for.
//!
//! `cargo test --test fuzz_text` runs a bounded number of cases;
//! `cargo test --release --test fuzz_text -- --ignored` runs many more.

use etcs::obs::json::{self, Json};
use etcs::replan::{parse_trace, write_trace};
use etcs::sat::{parse_dimacs, write_dimacs, CnfSink, Formula};
use etcs::serve::wire::{parse_request, payload_from_wire, payload_to_wire, Origin};
use etcs::serve::{execute, JobKind, JobRequest};
use etcs::{fixtures, parse_scenario, write_scenario, EncoderConfig};
use etcs_testkit::{cases, Rng};

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// What the mutator knows of one surface's grammar.
struct Grammar {
    /// Characters that separate fields.
    delimiters: &'static [char],
    /// Fragments worth splicing in: keywords and separators.
    keywords: &'static [&'static str],
}

const RAIL: Grammar = Grammar {
    delimiters: &[':', '-', '>', ',', '#', '\n', ' '],
    keywords: &[
        "scenario ",
        "rs ",
        "rt ",
        "horizon ",
        "node ",
        "track ",
        "ttd ",
        "station ",
        "train ",
        "run ",
        "stop ",
        " : ",
        " - ",
        " -> ",
        " dep ",
        " arr ",
        "boundary ",
        "interior ",
    ],
};

const DELTA: Grammar = Grammar {
    delimiters: &[':', '-', '>', '#', '\n', ' '],
    keywords: &[
        "tick",
        "delay ",
        "deadline ",
        "close ",
        "reopen ",
        "remove ",
        "add ",
        " : ",
        " arr ",
        "free",
        " -> ",
        " dep ",
    ],
};

const JSON: Grammar = Grammar {
    delimiters: &['"', '{', '}', '[', ']', ':', ',', '\\'],
    keywords: &[
        "null",
        "true",
        "false",
        "\"kind\": ",
        "\"scenario\": ",
        "\"type\": ",
        "\"payload\": ",
        "\"spec\": ",
        "\"id\": ",
        ", ",
        "-0",
        "1e21",
        "rail:",
        "file:",
        "fixture:",
    ],
};

const DIMACS: Grammar = Grammar {
    delimiters: &[' ', '\n', '-', '0'],
    keywords: &["p cnf ", "c ", "% ", " 0", "-", "\n"],
};

/// Numbers at and past the edges of every integer type the parsers use.
const HUGE: &[&str] = &[
    "0",
    "-1",
    "2147483648",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e999",
    "99999999999999999:00:00",
    "307445734561825861:00",
];

/// Escapes, valid and not, and characters that trip naive scanners.
const ESCAPES: &[&str] = &[
    "\\u+041",
    "\\u-041",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\u00",
    "\\",
    "\\x",
    "\\\\",
    "\\\"",
    "\\n",
    "\\u0000",
    "\u{1f600}",
    "\u{a0}",
    "\u{feff}",
    "\r",
    "\t",
    "#",
];

/// Byte offsets of the char boundaries of `s` (including its end).
fn boundaries(s: &str) -> Vec<usize> {
    s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
}

fn pick_str(rng: &mut Rng, items: &[&'static str]) -> &'static str {
    items[rng.below(items.len())]
}

fn random_boundary(rng: &mut Rng, s: &str) -> usize {
    *rng.pick(&boundaries(s))
}

/// Spans of maximal runs that are neither whitespace nor a delimiter.
fn tokens(s: &str, delimiters: &[char]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in s.char_indices() {
        let separator = c.is_whitespace() || delimiters.contains(&c);
        match (start, separator) {
            (None, false) => start = Some(i),
            (Some(st), true) => {
                spans.push((st, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(st) = start {
        spans.push((st, s.len()));
    }
    spans
}

fn splice(s: &str, at: usize, end: usize, with: &str) -> String {
    format!("{}{with}{}", &s[..at], &s[end..])
}

/// Replacement names: odd characters, keywords and separators of the
/// formats, and a number too large for any field.
const NAMES: &[&str] = &[
    "x",
    "\u{e9}t\u{e9}",
    "a b",
    "n-1",
    "A->B",
    "dep",
    "arr",
    "boundary",
    "\u{a0}x",
    "\u{1f600}",
    "tick",
    "99999999999999999999",
];

/// One grammar-aware mutation of `doc`.
fn mutate(rng: &mut Rng, doc: &str, grammar: &Grammar) -> String {
    match rng.below(15) {
        // Swap two tokens.
        0 | 1 => {
            let spans = tokens(doc, grammar.delimiters);
            if spans.len() < 2 {
                return doc.to_owned();
            }
            let (mut a, mut b) = (*rng.pick(&spans), *rng.pick(&spans));
            if a.0 > b.0 {
                std::mem::swap(&mut a, &mut b);
            }
            if a == b || a.1 > b.0 {
                return doc.to_owned();
            }
            format!(
                "{}{}{}{}{}",
                &doc[..a.0],
                &doc[b.0..b.1],
                &doc[a.1..b.0],
                &doc[a.0..a.1],
                &doc[b.1..]
            )
        }
        // Replace a number (or any token) by a huge one.
        2 | 3 => {
            let spans = tokens(doc, grammar.delimiters);
            let numeric: Vec<(usize, usize)> = spans
                .iter()
                .copied()
                .filter(|&(a, b)| doc[a..b].bytes().any(|c| c.is_ascii_digit()))
                .collect();
            let huge = pick_str(rng, HUGE);
            match (numeric.is_empty(), spans.is_empty()) {
                (false, _) => {
                    let (a, b) = *rng.pick(&numeric);
                    splice(doc, a, b, huge)
                }
                (true, false) => {
                    let (a, b) = *rng.pick(&spans);
                    splice(doc, a, b, huge)
                }
                (true, true) => format!("{doc}{huge}"),
            }
        }
        // Delete or double one delimiter.
        4 | 5 => {
            let at: Vec<(usize, char)> = doc
                .char_indices()
                .filter(|(_, c)| grammar.delimiters.contains(c))
                .collect();
            if at.is_empty() {
                return doc.to_owned();
            }
            let (i, c) = *rng.pick(&at);
            if rng.bool() {
                splice(doc, i, i + c.len_utf8(), "")
            } else {
                splice(doc, i, i, &c.to_string())
            }
        }
        // Insert an escape or an awkward character.
        6 => {
            let at = random_boundary(rng, doc);
            splice(doc, at, at, pick_str(rng, ESCAPES))
        }
        // Splice in a keyword or separator.
        7 => {
            let at = random_boundary(rng, doc);
            splice(doc, at, at, pick_str(rng, grammar.keywords))
        }
        // Nest deeply, around the document or inside it.
        8 => {
            let depth = rng.range(100, 200);
            let (open, close) = if rng.bool() {
                ("[", "]")
            } else {
                ("{\"a\":", "}")
            };
            if rng.bool() {
                format!("{}{doc}{}", open.repeat(depth), close.repeat(depth))
            } else {
                let at = random_boundary(rng, doc);
                splice(doc, at, at, &open.repeat(depth))
            }
        }
        // Duplicate, delete or swap whole lines.
        9 => {
            let mut lines: Vec<&str> = doc.split('\n').collect();
            let i = rng.below(lines.len());
            match rng.below(3) {
                0 => lines.insert(i, lines[i]),
                1 => {
                    lines.remove(i);
                }
                _ => {
                    let j = rng.below(lines.len());
                    lines.swap(i, j);
                }
            }
            lines.join("\n")
        }
        // Truncate.
        10 => doc[..random_boundary(rng, doc)].to_owned(),
        // Rarely, a 1 MiB run of text (a string, a name, a number).
        11 => {
            if rng.below(4) != 0 {
                let at = random_boundary(rng, doc);
                let c = pick_str(rng, &["x", "\u{e9}", "7", " "]);
                return splice(doc, at, at, c);
            }
            let at = random_boundary(rng, doc);
            let unit = pick_str(rng, &["a", "9", "ab\\n", "\u{1f600}"]);
            splice(doc, at, at, &unit.repeat((1 << 20) / unit.len()))
        }
        // Rename a token everywhere, so references still agree.
        12 => {
            let spans = tokens(doc, grammar.delimiters);
            if spans.is_empty() {
                return doc.to_owned();
            }
            let (a, b) = *rng.pick(&spans);
            doc.replace(&doc[a..b], pick_str(rng, NAMES))
        }
        // Widen a gap with more (or odder) whitespace.
        13 => {
            let gaps: Vec<usize> = doc
                .char_indices()
                .filter(|&(_, c)| c == ' ')
                .map(|(i, _)| i)
                .collect();
            if gaps.is_empty() {
                return doc.to_owned();
            }
            let at = *rng.pick(&gaps);
            splice(doc, at, at, pick_str(rng, &[" ", "\t", "  ", "\u{a0}"]))
        }
        // Replace a number by a small one.
        _ => {
            let numbers: Vec<(usize, usize)> = tokens(doc, grammar.delimiters)
                .into_iter()
                .filter(|&(a, b)| doc[a..b].bytes().all(|c| c.is_ascii_digit()))
                .collect();
            if numbers.is_empty() {
                return doc.to_owned();
            }
            let (a, b) = *rng.pick(&numbers);
            let small = pick_str(rng, &["1", "2", "7", "30", "59", "60", "500", "1000"]);
            splice(doc, a, b, small)
        }
    }
}

/// One mutation of a random seed, sometimes two or three.
fn fuzzed(rng: &mut Rng, seeds: &[String], grammar: &Grammar) -> String {
    let mut doc = rng.pick(seeds).clone();
    for _ in 0..1 + usize::from(rng.below(3) == 0) + usize::from(rng.below(3) == 0) {
        doc = mutate(rng, &doc, grammar);
    }
    doc
}

/// The strings and numbers of a JSON value, depth first.
fn leaves(value: &mut Json) -> Vec<&mut Json> {
    if matches!(value, Json::Str(_) | Json::Num(_)) {
        return vec![value];
    }
    match value {
        Json::Arr(items) => items.iter_mut().flat_map(leaves).collect(),
        Json::Obj(members) => members.iter_mut().flat_map(|(_, v)| leaves(v)).collect(),
        _ => Vec::new(),
    }
}

/// A mutation of one JSON string, in the grammar of what it holds: `.rail`
/// text, an embedded JSON document, `.delta` text, or anything else.
fn mutate_string(rng: &mut Rng, s: &str) -> String {
    if let Some(rail) = s.strip_prefix("rail:") {
        return format!("rail:{}", mutate(rng, rail, &RAIL));
    }
    if json::parse(s).is_ok() {
        return mutate_json(rng, s);
    }
    let first = s.split_whitespace().next().unwrap_or("");
    if DELTA.keywords.iter().any(|k| k.trim() == first) {
        return mutate(rng, s, &DELTA);
    }
    mutate(rng, s, &JSON)
}

/// A mutation of a JSON document: half the time a text-level one, which
/// breaks the syntax more often than not; otherwise one string or number
/// inside it changes and the document is written back, so the decoders
/// behind the JSON parser see a valid document with a hostile field.
fn mutate_json(rng: &mut Rng, doc: &str) -> String {
    let Ok(mut value) = json::parse(doc) else {
        return mutate(rng, doc, &JSON);
    };
    let mut all = leaves(&mut value);
    if all.is_empty() || rng.bool() {
        return mutate(rng, doc, &JSON);
    }
    let leaf = all.swap_remove(rng.below(all.len()));
    match leaf {
        Json::Num(n) => {
            *n = *rng.pick(&[
                -1.0,
                0.5,
                2.0,
                4294967296.0,
                9007199254740993.0,
                1.8446744073709552e19,
                1e300,
            ])
        }
        Json::Str(s) => *s = mutate_string(rng, s),
        _ => unreachable!("leaves are strings and numbers"),
    }
    value.to_string()
}

/// [`fuzzed`] for JSON documents, through [`mutate_json`].
fn fuzzed_json(rng: &mut Rng, seeds: &[String]) -> String {
    let mut doc = rng.pick(seeds).clone();
    for _ in 0..1 + usize::from(rng.below(3) == 0) {
        doc = mutate_json(rng, &doc);
    }
    doc
}

/// The head of a document, for failure messages.
fn preview(s: &str) -> String {
    let end = boundaries(s).into_iter().take_while(|&i| i <= 400).last();
    format!("{:?} ({} bytes)", &s[..end.unwrap_or(0)], s.len())
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// `.rail`: a parse writes back to a document that parses to the same
/// scenario, and writing that again changes nothing. Returns whether
/// `text` parsed.
fn check_rail(text: &str) -> bool {
    let scenario = match parse_scenario(text) {
        Ok(scenario) => scenario,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            return false;
        }
    };
    let written = write_scenario(&scenario);
    let back = parse_scenario(&written).unwrap_or_else(|e| {
        panic!(
            "written scenario does not parse: {e}\nwritten: {}\nfrom: {}",
            preview(&written),
            preview(text)
        )
    });
    assert_eq!(back.name, scenario.name);
    assert_eq!(
        (back.r_s, back.r_t, back.horizon),
        (scenario.r_s, scenario.r_t, scenario.horizon)
    );
    assert_eq!(back.network, scenario.network, "from {}", preview(text));
    assert_eq!(back.schedule, scenario.schedule, "from {}", preview(text));
    assert_eq!(write_scenario(&back), written);
    true
}

/// `.delta`: a parse writes back to a trace with the same ops.
fn check_trace(text: &str) -> bool {
    match parse_trace(text) {
        Ok(ops) => {
            let written = write_trace(&ops);
            let back = parse_trace(&written).unwrap_or_else(|e| {
                panic!(
                    "written trace does not parse: {e}\nwritten: {}",
                    preview(&written)
                )
            });
            assert_eq!(back, ops, "from {}", preview(text));
            true
        }
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }
}

/// A request line that means `request`: every field explicit, the
/// scenario inline.
fn request_line(request: &JobRequest) -> String {
    let borders: Vec<String> = request
        .layout
        .borders()
        .iter()
        .map(|b| b.index().to_string())
        .collect();
    let mut line = format!(
        "{{\"id\": {}, \"kind\": {}, \"scenario\": {}, \"layout\": {}, \"priority\": {}",
        json::quote(&request.id),
        json::quote(request.kind.name()),
        json::quote(&format!("rail:{}", write_scenario(&request.scenario))),
        json::quote(&format!("borders:{}", borders.join(","))),
        json::quote(request.priority.name()),
    );
    if let Some(deadline) = request.deadline {
        line.push_str(&format!(", \"deadline_ms\": {}", deadline.as_millis()));
    }
    if request.lazy {
        line.push_str(", \"lazy\": true");
    }
    line.push('}');
    line
}

/// A JSONL job line as a shard reads it: a parse writes back to a line
/// that parses to the same request and the same cache key. A `file:` spec
/// is always an error.
fn check_job_line(line: &str) -> bool {
    let request = match parse_request(line, "job", Origin::Peer) {
        Ok(request) => request,
        Err(e) => {
            assert!(e.starts_with("job: "), "{e}");
            return false;
        }
    };
    let value = json::parse(line).expect("a parsed request is JSON");
    let spec = value
        .get("scenario")
        .and_then(Json::as_str)
        .expect("has a scenario");
    assert!(
        !spec.starts_with("file:"),
        "a peer's file: spec was read: {}",
        preview(line)
    );
    let written = request_line(&request);
    let back = parse_request(&written, "job", Origin::Peer)
        .unwrap_or_else(|e| panic!("written line does not parse: {e}\nfrom {}", preview(line)));
    let config = EncoderConfig::default();
    assert_eq!(
        back.cache_key(&config),
        request.cache_key(&config),
        "from {}",
        preview(line)
    );
    assert_eq!(back.id, request.id);
    assert_eq!(back.kind, request.kind);
    assert_eq!(back.layout, request.layout);
    assert_eq!(back.priority, request.priority);
    assert_eq!(back.deadline, request.deadline);
    assert_eq!(back.lazy, request.lazy);
    check_rail(&write_scenario(&request.scenario))
}

/// A wire frame: JSON that writes back to an equal value, whose payload
/// (if any) decodes to one that encodes and decodes to itself, and whose
/// embedded request line or `.delta` text obeys its own property.
fn check_frame(frame: &str) -> bool {
    let value = match json::parse(frame) {
        Ok(value) => value,
        Err(e) => {
            assert!(e.at <= frame.len(), "{e}");
            return false;
        }
    };
    let written = value.to_string();
    assert_eq!(
        json::parse(&written).as_ref(),
        Ok(&value),
        "from {}",
        preview(frame)
    );
    if let Some(payload) = value.get("payload") {
        if let Ok(decoded) = payload_from_wire(payload) {
            let wire = payload_to_wire(&decoded);
            let again = json::parse(&wire).expect("payload_to_wire writes JSON");
            assert_eq!(payload_from_wire(&again).as_ref(), Ok(&decoded));
        }
    }
    if let Some(spec) = value.get("spec").and_then(Json::as_str) {
        check_bounded_job_line(spec);
    }
    if let Some(record) = value.get("line").and_then(Json::as_str) {
        if let Ok(record) = json::parse(record) {
            if let Some(delta) = record.get("delta").and_then(Json::as_str) {
                check_trace(delta);
            }
        }
    }
    true
}

/// DIMACS: a parse writes back to the same variable count and clauses.
fn check_dimacs(text: &str) -> bool {
    match parse_dimacs(text) {
        Ok(formula) => {
            let written = write_dimacs(&formula);
            let back = parse_dimacs(&written).expect("written DIMACS parses");
            assert_eq!(back.num_vars(), formula.num_vars());
            assert_eq!(back.clauses(), formula.clauses(), "from {}", preview(text));
            true
        }
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

fn files(dir: &str, extension: &str) -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
    let mut paths: Vec<_> = std::fs::read_dir(format!("{root}{dir}"))
        .expect("seed directory ships with the repo")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == extension))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("seed is readable"))
        .collect()
}

/// The minimal document of the `.rail` format's own tests.
const MINI_RAIL: &str = "\
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
run T : A -> A dep 0:00:00 arr 0:04:00
stop T : A arr 0:02:00
";

fn rail_seeds() -> Vec<String> {
    let mut seeds = files("scenarios", "rail");
    seeds.extend(files("scenarios/corpus", "rail"));
    seeds.extend(fixtures::all().iter().map(write_scenario));
    seeds.push(MINI_RAIL.to_owned());
    // Regressions: an overflowing horizon, and a zero time step.
    seeds.push(MINI_RAIL.replace("horizon 0:05:00", "horizon 99999999999999999:00:00"));
    seeds.push(MINI_RAIL.replace("rt 30", "rt 0"));
    // A train declared twice, with a run under each declaration.
    seeds.push(format!(
        "{MINI_RAIL}train T : 300 120\nrun T : A -> A dep 0:01:00 arr 0:04:00\n"
    ));
    seeds
}

fn trace_seeds() -> Vec<String> {
    let mut seeds = files("scenarios/replay", "delta");
    seeds.push(
        "delay Train 1 : 0:01:00\ndeadline Train 1 : arr 0:06:00\ndeadline Train 1 : free\n\
         close A-P\nreopen A-P\nremove Train 1\n\
         add T9 : 100 80 A -> C dep 0:00:30 arr 0:05:00\nadd T10 : 150 120 A -> C dep 0:02:00\ntick\n"
            .to_owned(),
    );
    // Regression: a delay past the end of the clock.
    seeds.push("delay Train 1 : 99999999999999999:00:00\ntick\n".to_owned());
    seeds
}

fn job_line_seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        r#"{"id": "ok", "kind": "verify", "scenario": "fixture:running_example"}"#,
        r#"{"id": "bad", "kind": "fly", "scenario": "fixture:running_example"}"#,
        r#"{"id": "j1", "kind": "optimize", "scenario": "fixture:running_example", "layout": "pure_ttd", "priority": "normal", "deadline_ms": 30000}"#,
        r#"{"id": "j2", "kind": "verify", "scenario": "fixture:running_example", "layout": "full", "priority": "high"}"#,
        // An ignored field: request lines once named a solver portfolio.
        r#"{"id": "j3", "kind": "diagnose", "scenario": "fixture:running_example", "layout": "borders:2,5,9", "lazy": true, "portfolio": 2}"#,
        r#"{"id": "j4", "kind": "optimize_incremental", "scenario": "fixture:convoy", "lazy": true, "priority": "low"}"#,
        r#"{"kind": "generate", "scenario": "file:scenarios/branch_line.rail"}"#,
        // Regressions: a lone surrogate, a signed \u escape and a surrogate
        // pair in the id.
        r#"{"id": "\ud800", "kind": "verify", "scenario": "fixture:running_example"}"#,
        r#"{"id": "\u+041", "kind": "verify", "scenario": "fixture:running_example"}"#,
        r#"{"id": "\ud83d\ude00", "kind": "verify", "scenario": "fixture:running_example"}"#,
    ]
    .map(str::to_owned)
    .to_vec();
    for (i, rail) in files("scenarios", "rail").iter().enumerate() {
        seeds.push(format!(
            "{{\"id\": \"rail-{i}\", \"kind\": \"generate\", \"scenario\": {}}}",
            json::quote(&format!("rail:{rail}"))
        ));
    }
    seeds.push(format!(
        "{{\"kind\": \"verify\", \"scenario\": {}, \"layout\": \"borders:0\"}}",
        json::quote(&format!(
            "rail:{}",
            MINI_RAIL.replace("horizon 0:05:00", "horizon 99999999999999999:00:00")
        ))
    ));
    seeds
}

fn frame_seeds() -> Vec<String> {
    let payload = execute(
        &JobRequest::new("seed", JobKind::Generate, fixtures::running_example()),
        &EncoderConfig::default(),
        &etcs::sat::Interrupt::none(),
        &etcs::obs::Obs::disabled(),
    )
    .payload()
    .map(payload_to_wire)
    .expect("the running example solves");
    let conflict = r#"{"kind": "diagnose", "feasible": false, "costs": [], "diagnosis": {"verdict": "conflict", "trains": [0, 2], "names": ["Train 1", "Train 3"]}, "stats": [1, 2, 3, 4, 5], "solver_calls": 2, "search": [1, 2, 3, 4, 5, 6, 7, 8]}"#;
    let key = "0123456789abcdef0123456789abcdef";
    let mut seeds: Vec<String> = [
        // From crates/fleet/tests/protocol.rs.
        r#"{"type": "hello", "proto": 1, "cache_key": "etcs-cache-key-v5"}"#,
        r#"{"type": "hello", "proto": 999, "cache_key": "etcs-cache-key-v5"}"#,
        "this is not json",
        r#"{"kind": "verify"}"#,
        r#"{"type": "teleport"}"#,
        r#"{"type": "job", "spec": "{\"kind\""#,
        r#"{"type": "stats"}"#,
        r#"{"type": "job", "spec": "{\"id\": \"gone\", \"kind\": \"verify\", \"scenario\": \"fixture:running_example\"}"}"#,
        r#"{"type": "replan", "line": "{\"record\": \"delta\", \"session\": \"s1\", \"delta\": \"deadline Train 1 : arr 0:04:00\\ntick\"}"}"#,
        r#"{"type": "histories", "shard": "s", "cache_key": "etcs-cache-key-v5", "events": [{"seq": 0, "op": "put", "key": "00", "digest": "ff"}]}"#,
    ]
    .map(str::to_owned)
    .to_vec();
    for p in [payload.as_str(), conflict] {
        seeds.push(format!(
            "{{\"type\": \"put\", \"key\": \"{key}\", \"payload\": {p}}}"
        ));
        seeds.push(format!(
            "{{\"type\": \"done\", \"status\": \"done\", \"cache\": \"miss\", \"key\": \"{key}\", \
             \"response\": \"{{}}\", \"payload\": {p}}}"
        ));
    }
    seeds
}

fn dimacs_seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        "c comment\np cnf 3 2\n1 -2 0\n3 0\n",
        "p cnf 3 1\n1 2\n3 0\n",
        "p cnf 4 3\n1 2 0\n-1 3 0\n-2 -3 4 0\n",
        "p cnf 2 2\n1 2 0\n-1 0\n",
        "p cnf 0 0\n",
        "p cnf 2147483648 1\n2147483648 0\n",
    ]
    .map(str::to_owned)
    .to_vec();
    let mut rng = Rng::new(7);
    let mut formula = Formula::new();
    let vars = formula.new_vars(12);
    for _ in 0..20 {
        let clause: Vec<_> = (0..rng.range(1, 4))
            .map(|_| rng.pick(&vars).lit(rng.bool()))
            .collect();
        formula.add_clause_from(&clause);
    }
    seeds.push(write_dimacs(&formula));
    seeds
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Bounded case counts per surface for `cargo test`; the ignored long run
/// multiplies them.
const RAIL_CASES: usize = 400;
const TRACE_CASES: usize = 400;
const JOB_LINE_CASES: usize = 250;
const FRAME_CASES: usize = 250;
const DIMACS_CASES: usize = 400;

/// Checks every seed, then `count` mutants from `mutant`. A fuzzer whose
/// mutants never parse tests only error paths, so at least a tenth of the
/// cases must reach the round trip.
fn fuzz(
    count: usize,
    seeds: &[String],
    mutant: impl Fn(&mut Rng, &[String]) -> String,
    check: impl Fn(&str) -> bool,
) {
    for seed in seeds {
        check(seed);
    }
    let parsed = std::cell::Cell::new(0);
    cases(count, |rng| {
        if check(&mutant(rng, seeds)) {
            parsed.set(parsed.get() + 1);
        }
    });
    assert!(
        parsed.get() * 10 >= count,
        "only {} of {count} mutants parsed",
        parsed.get()
    );
}

/// A request line with a full layout discretises its scenario while it is
/// parsed. The seeds name a full layout only for a fixture; a mutant that
/// pairs one with inline text is skipped.
fn check_bounded_job_line(line: &str) -> bool {
    if line.contains("rail:") && line.contains("full") {
        return false;
    }
    check_job_line(line)
}

fn rail_mutant(rng: &mut Rng, seeds: &[String]) -> String {
    fuzzed(rng, seeds, &RAIL)
}

fn trace_mutant(rng: &mut Rng, seeds: &[String]) -> String {
    fuzzed(rng, seeds, &DELTA)
}

fn dimacs_mutant(rng: &mut Rng, seeds: &[String]) -> String {
    fuzzed(rng, seeds, &DIMACS)
}

fn fuzz_all(factor: usize) {
    fuzz(RAIL_CASES * factor, &rail_seeds(), rail_mutant, check_rail);
    fuzz(
        TRACE_CASES * factor,
        &trace_seeds(),
        trace_mutant,
        check_trace,
    );
    fuzz(
        JOB_LINE_CASES * factor,
        &job_line_seeds(),
        fuzzed_json,
        check_bounded_job_line,
    );
    fuzz(
        FRAME_CASES * factor,
        &frame_seeds(),
        fuzzed_json,
        check_frame,
    );
    fuzz(
        DIMACS_CASES * factor,
        &dimacs_seeds(),
        dimacs_mutant,
        check_dimacs,
    );
}

#[test]
fn rail_documents_parse_to_round_trips_or_typed_errors() {
    fuzz(RAIL_CASES, &rail_seeds(), rail_mutant, check_rail);
}

#[test]
fn delta_traces_parse_to_round_trips_or_typed_errors() {
    fuzz(TRACE_CASES, &trace_seeds(), trace_mutant, check_trace);
}

#[test]
fn job_lines_parse_to_round_trips_or_typed_errors() {
    fuzz(
        JOB_LINE_CASES,
        &job_line_seeds(),
        fuzzed_json,
        check_bounded_job_line,
    );
}

#[test]
fn wire_frames_parse_to_round_trips_or_typed_errors() {
    fuzz(FRAME_CASES, &frame_seeds(), fuzzed_json, check_frame);
}

#[test]
fn dimacs_documents_parse_to_round_trips_or_typed_errors() {
    fuzz(DIMACS_CASES, &dimacs_seeds(), dimacs_mutant, check_dimacs);
}

/// The hostile inputs the fuzzer's mutations are built from, each pinned
/// to its typed error.
#[test]
fn known_hostile_inputs_get_typed_errors() {
    let horizon = MINI_RAIL.replace("horizon 0:05:00", "horizon 99999999999999999:00:00");
    let e = parse_scenario(&horizon).expect_err("overflowing horizon");
    assert_eq!((e.line, e.column), (4, 9), "{e}");
    let e = parse_trace("delay T : 99999999999999999:00:00\n").expect_err("overflowing delay");
    assert_eq!((e.line, e.column), (1, 11), "{e}");
    for text in [r#""\u+041""#, r#""\ud800""#, r#""\udc00\ud800""#] {
        assert!(json::parse(text).is_err(), "{text}");
    }
    assert_eq!(
        json::parse(r#""\ud83d\ude00""#),
        Ok(Json::Str("\u{1f600}".to_owned()))
    );
    let e = parse_request(
        r#"{"kind": "verify", "scenario": "file:scenarios/branch_line.rail"}"#,
        "job",
        Origin::Peer,
    )
    .expect_err("a peer's file: spec");
    assert!(e.contains("read only from local input"), "{e}");
    let unterminated = format!("{{\"id\": \"{}", "x".repeat(4 << 20));
    assert!(json::parse(&unterminated).is_err());
}

#[test]
#[ignore = "long fuzzing run; use --release"]
fn every_surface_survives_a_long_fuzzing_run() {
    fuzz_all(50);
}
