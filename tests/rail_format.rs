//! Integration tests for the shipped `.rail` sample scenarios: every file
//! in `scenarios/` (including the corpus exemplars under
//! `scenarios/corpus/`) must parse, validate and round-trip; the
//! branch-line sample additionally runs the full design pipeline; the
//! checked-in corpus exemplars are pinned byte-for-byte against their
//! generating specs; and corrupted corpus documents must fail with
//! line/column spans pointing at the corruption.

use etcs::corpus::{exemplar_path, exemplar_rail, exemplars, sample_specs, Family, SizeClass};
use etcs::prelude::*;
use etcs::{parse_scenario, write_scenario};

fn scenario_files() -> Vec<std::path::PathBuf> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for dir in [root.to_owned(), format!("{root}/corpus")] {
        files.extend(
            std::fs::read_dir(dir)
                .expect("scenarios/ and scenarios/corpus/ ship with the repo")
                .filter_map(|entry| {
                    let path = entry.expect("readable directory entry").path();
                    (path.extension().is_some_and(|e| e == "rail")).then_some(path)
                }),
        );
    }
    files.sort();
    assert!(
        files.len() >= 9,
        "expected the shipped sample scenarios plus the corpus exemplars, found {files:?}"
    );
    files
}

fn load(path: &std::path::Path) -> Scenario {
    let text = std::fs::read_to_string(path).expect("sample scenario is readable");
    parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn load_sample() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/branch_line.rail");
    let text = std::fs::read_to_string(path).expect("sample scenario ships with the repo");
    parse_scenario(&text).expect("sample scenario parses")
}

#[test]
fn every_shipped_scenario_parses_validates_and_roundtrips() {
    for path in scenario_files() {
        let s = load(&path);
        s.validate()
            .unwrap_or_else(|e| panic!("{}: invalid: {e}", path.display()));
        assert!(
            s.schedule.len() >= 2,
            "{}: trivial schedule",
            path.display()
        );
        let back = parse_scenario(&write_scenario(&s))
            .unwrap_or_else(|e| panic!("{}: roundtrip: {e}", path.display()));
        assert_eq!(back.network, s.network, "{}", path.display());
        assert_eq!(back.schedule, s.schedule, "{}", path.display());
        assert_eq!(
            (back.name, back.r_s, back.r_t, back.horizon),
            (s.name, s.r_s, s.r_t, s.horizon),
            "{}",
            path.display()
        );
    }
}

#[test]
fn sample_scenario_parses_and_validates() {
    let s = load_sample();
    assert_eq!(s.name, "Branch line");
    assert_eq!(s.network.stations().len(), 2);
    assert_eq!(s.network.ttds().len(), 4);
    assert_eq!(s.schedule.len(), 2);
    s.validate().expect("valid");
}

#[test]
fn sample_scenario_roundtrips() {
    let s = load_sample();
    let text = write_scenario(&s);
    let back = parse_scenario(&text).expect("roundtrip parses");
    assert_eq!(back.network, s.network);
    assert_eq!(back.schedule, s.schedule);
}

/// The determinism contract made visible in the repository: every
/// checked-in corpus exemplar must be byte-identical to what its spec
/// generates today. Regenerate with `bench_corpus --emit-exemplars` after
/// bumping the corpus format version.
#[test]
fn corpus_exemplars_match_their_specs_byte_for_byte() {
    let root = env!("CARGO_MANIFEST_DIR");
    for spec in exemplars() {
        let rel = exemplar_path(&spec);
        let on_disk = std::fs::read_to_string(format!("{root}/{rel}"))
            .unwrap_or_else(|e| panic!("{rel}: exemplar ships with the repo: {e}"));
        assert_eq!(
            on_disk,
            exemplar_rail(&spec),
            "{rel}: checked-in exemplar diverged from its spec — \
             rerun `bench_corpus --emit-exemplars` (and bump the corpus \
             format version if the generators changed)"
        );
    }
}

/// Every corpus family round-trips through the `.rail` format at Small
/// and Medium: write → parse → identical network, schedule and metadata.
#[test]
fn corpus_instances_roundtrip_through_rail() {
    for family in Family::ALL {
        for size in [SizeClass::Small, SizeClass::Medium] {
            for spec in sample_specs(family, size, 3, 0x5EED) {
                let s = spec.build();
                let back = parse_scenario(&write_scenario(&s))
                    .unwrap_or_else(|e| panic!("{}: roundtrip: {e}", spec.canonical_name()));
                assert_eq!(back.network, s.network, "{}", spec.canonical_name());
                assert_eq!(back.schedule, s.schedule, "{}", spec.canonical_name());
                assert_eq!(
                    (back.name, back.r_s, back.r_t, back.horizon),
                    (s.name, s.r_s, s.r_t, s.horizon),
                    "{}",
                    spec.canonical_name()
                );
            }
        }
    }
}

/// Corrupting a real corpus document must fail with a line/column span
/// pointing at the corruption — the loader's error-reporting contract,
/// exercised on generated (not hand-written) inputs.
#[test]
fn corrupted_corpus_documents_report_line_and_column() {
    let text = exemplar_rail(&exemplars()[0]);
    let lines: Vec<&str> = text.lines().collect();

    // 1. Corrupt a track length into a non-number.
    let track_ix = lines
        .iter()
        .position(|l| l.starts_with("track "))
        .expect("exemplar has tracks");
    let bad_len = lines[track_ix]
        .rsplit_once(' ')
        .map(|(head, _)| format!("{head} banana"))
        .expect("track line has fields");
    let mut doc: Vec<String> = lines.iter().map(|&l| l.to_owned()).collect();
    doc[track_ix] = bad_len;
    let e = parse_scenario(&doc.join("\n")).expect_err("corrupted length fails");
    assert_eq!(e.line, track_ix + 1);
    assert_eq!(
        e.column,
        doc[track_ix].len() - "banana".len() + 1,
        "column points at the corrupted length: {e}"
    );
    assert!(e.message.contains("banana"), "{e}");

    // 2. Reference an undefined node.
    let mut doc: Vec<String> = lines.iter().map(|&l| l.to_owned()).collect();
    doc[track_ix] = doc[track_ix].replacen("n0", "ghost", 1);
    let e = parse_scenario(&doc.join("\n")).expect_err("unknown node fails");
    assert_eq!(e.line, track_ix + 1);
    assert_eq!(
        e.column as usize,
        doc[track_ix].find("ghost").expect("ghost is in the line") + 1,
        "column points at the unknown node: {e}"
    );
    assert!(e.message.contains("ghost"), "{e}");

    // 3. An unknown directive reports the keyword's own span.
    let doc = format!("{}\nwarp Speed : 9\n", text.trim_end());
    let e = parse_scenario(&doc).expect_err("unknown keyword fails");
    assert_eq!((e.line, e.column), (lines.len() + 1, 1), "{e}");
    assert!(e.message.contains("warp"), "{e}");

    // 4. Truncating the document to half its lines still yields a
    //    structured error (whole-document diagnostics carry line 0), not
    //    a panic.
    let half = lines[..lines.len() / 2].join("\n");
    let e = parse_scenario(&half).expect_err("truncated document fails");
    assert!(
        e.line == 0 || e.line <= lines.len() / 2,
        "diagnostic stays within the truncated document: {e}"
    );
}

#[test]
fn sample_scenario_runs_the_design_pipeline() {
    let s = load_sample();
    let config = EncoderConfig::default();
    let inst = Instance::new(&s).expect("valid");

    // Both intercity trains wait on the single Westhaven station track, so
    // pure TTD operation deadlocks before either can depart — the paper's
    // core motivation in miniature. Certifying the verdict proves it: a
    // DRAT proof the in-repo checker replays.
    let task = TaskKind::Verify(VssLayout::pure_ttd());
    let (v, _) = run(&s, &task, &config, &Run::default()).expect("well-formed");
    assert!(!v.is_feasible());
    let cert = certify(&s, &task, &config, &v).expect("certified");
    assert!(matches!(cert.verdict, CertifiedVerdict::ProofChecked(_)));
    let (d, _) =
        diagnose(&s, &VssLayout::pure_ttd(), &config, &Run::default()).expect("well-formed");
    assert_eq!(d, Diagnosis::Structural);

    // Virtual subsections repair the deadlock.
    let (g, _) = generate(&s, &config).expect("well-formed");
    let plan = g.plan().expect("feasible with VSS");
    assert!(etcs::sim::validate(&inst, plan, true).is_valid());

    // Optimisation still finds the earliest completion.
    let (o, _) = optimize(&s, &config).expect("well-formed");
    let DesignOutcome::Solved { costs, .. } = o else {
        panic!("optimisation succeeds");
    };
    assert!(costs[0] as usize <= s.t_max());
}
