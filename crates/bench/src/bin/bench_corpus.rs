//! Corpus distribution sweep: every instance of a versioned corpus
//! manifest, optimised under every solve configuration.
//!
//! Writes machine-readable results to `BENCH_corpus.json`. Unlike the
//! fixture benches (one row per hand-picked scenario), this harness
//! reports *distributions*: per family × solve mode it aggregates p50 /
//! p90 / max wall time and clause mass over all of the family's
//! instances, plus verdict counts. Every instance is also a differential
//! check — both configurations must agree on verdict and proven
//! optima, and the harness asserts it before writing the artifact. The
//! host's `available_parallelism` is recorded next to the wall times.
//!
//! Usage: `bench_corpus [--smoke] [--out <path>] [--emit-exemplars]`
//!
//! `--smoke` sweeps [`Manifest::smoke`] (every family at Small — what
//! `ci/check.sh` runs in release mode); the default sweeps
//! [`Manifest::standard`], the 55-instance corpus behind the checked-in
//! artifact. `--emit-exemplars` instead (re)generates the checked-in
//! `scenarios/corpus/*.rail` exemplar files from their specs and exits —
//! run it after bumping [`Manifest::FORMAT_VERSION`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use etcs_corpus::{exemplar_path, exemplar_rail, exemplars, Family, Manifest, SolveSetup};

/// One (instance × setup) measurement.
struct Sample {
    wall_ms: f64,
    clauses: usize,
    verdict: &'static str,
}

/// Percentile over a sorted slice: `v[floor(q * (n-1))]`. With this index
/// rule `p50 <= p90 <= max` holds by construction on any input.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

fn dist_json(values: &mut [f64]) -> String {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    format!(
        "{{\"p50\": {:.2}, \"p90\": {:.2}, \"max\": {:.2}}}",
        percentile(values, 0.5),
        percentile(values, 0.9),
        values[values.len() - 1]
    )
}

fn emit_exemplars() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for spec in exemplars() {
        let path = format!("{root}/{}", exemplar_path(&spec));
        std::fs::create_dir_all(
            std::path::Path::new(&path)
                .parent()
                .expect("exemplar paths have a parent"),
        )
        .expect("create scenarios/corpus");
        std::fs::write(&path, exemplar_rail(&spec)).expect("write exemplar");
        eprintln!("wrote {}", exemplar_path(&spec));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--emit-exemplars") {
        emit_exemplars();
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_corpus.json".to_owned());

    let manifest = if smoke {
        Manifest::smoke()
    } else {
        Manifest::standard()
    };
    let specs = manifest.specs();
    eprintln!(
        "== corpus \"{}\" v{}: {} instances, {} families x {} solve modes ==",
        manifest.label,
        manifest.version,
        specs.len(),
        manifest.families().len(),
        SolveSetup::ALL.len()
    );

    // family -> setup -> samples, in manifest order.
    let mut samples: BTreeMap<Family, BTreeMap<&'static str, Vec<Sample>>> = BTreeMap::new();
    let mut agreements = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let scenario = spec.build();
        let mut baseline: Option<(String, Option<Vec<u64>>)> = None;
        for setup in SolveSetup::ALL {
            let t = Instant::now();
            let outcome = setup.optimize(&scenario).expect("valid corpus instance");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            // The differential gate: every configuration must report the
            // same verdict and the same proven optima on every instance.
            let key = (
                outcome.verdict().to_owned(),
                outcome.costs().map(<[u64]>::to_vec),
            );
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(
                    &key,
                    b,
                    "{} diverged on {}",
                    setup.name(),
                    spec.canonical_name()
                ),
            }
            samples
                .entry(spec.family)
                .or_default()
                .entry(setup.name())
                .or_default()
                .push(Sample {
                    wall_ms,
                    clauses: outcome.clauses,
                    verdict: if outcome.costs().is_some() {
                        "solved"
                    } else {
                        "infeasible"
                    },
                });
        }
        agreements += 1;
        eprintln!("  [{}/{}] {} ok", i + 1, specs.len(), spec.canonical_name());
    }

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"corpus\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "standard" }
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"available_parallelism\": {cores},");
    let _ = writeln!(out, "  \"format_version\": {},", manifest.version);
    let _ = writeln!(out, "  \"manifest\": {{");
    let _ = writeln!(out, "    \"label\": \"{}\",", manifest.label);
    let _ = writeln!(out, "    \"total_instances\": {},", manifest.total());
    let _ = writeln!(out, "    \"entries\": [");
    for (i, e) in manifest.entries.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"family\": \"{}\", \"size\": \"{}\", \"count\": {}, \"base_seed\": {}}}",
            e.family.name(),
            e.size.name(),
            e.count,
            e.base_seed
        );
        out.push_str(if i + 1 < manifest.entries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"families\": [");
    let mut ordering_ok = true;
    for (fi, (family, by_setup)) in samples.iter().enumerate() {
        let instances = by_setup.values().next().map_or(0, Vec::len);
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"family\": \"{}\",", family.name());
        let _ = writeln!(out, "      \"instances\": {instances},");
        let _ = writeln!(out, "      \"modes\": [");
        for (si, setup) in SolveSetup::ALL.into_iter().enumerate() {
            let rows = &by_setup[setup.name()];
            let mut wall: Vec<f64> = rows.iter().map(|s| s.wall_ms).collect();
            let mut clauses: Vec<f64> = rows.iter().map(|s| s.clauses as f64).collect();
            let solved = rows.iter().filter(|s| s.verdict == "solved").count();
            let wall_json = dist_json(&mut wall);
            let clause_json = dist_json(&mut clauses);
            ordering_ok &= percentile(&wall, 0.5) <= percentile(&wall, 0.9)
                && percentile(&wall, 0.9) <= wall[wall.len() - 1];
            let _ = write!(
                out,
                "        {{\"mode\": \"{}\", \"wall_ms\": {}, \"clauses\": {}, \
                 \"verdicts\": {{\"solved\": {}, \"infeasible\": {}}}}}",
                setup.name(),
                wall_json,
                clause_json,
                solved,
                rows.len() - solved
            );
            out.push_str(if si + 1 < SolveSetup::ALL.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "      ]");
        let _ = write!(out, "    }}");
        out.push_str(if fi + 1 < samples.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"ordering_ok\": {ordering_ok},");
    let _ = writeln!(out, "  \"differential\": {{");
    let _ = writeln!(out, "    \"instances\": {},", specs.len());
    let _ = writeln!(out, "    \"agreements\": {agreements},");
    let _ = writeln!(out, "    \"modes\": {}", SolveSetup::ALL.len());
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");

    assert!(ordering_ok, "percentile ordering violated");
    assert_eq!(agreements, specs.len(), "differential gate incomplete");
    std::fs::write(&out_path, &out).expect("write benchmark results");
    eprintln!("wrote {out_path}");
}
