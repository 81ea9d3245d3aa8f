//! # etcs-corpus — a seeded, deterministic scenario corpus
//!
//! Every verdict this workspace produced before this crate came from a
//! handful of hand-built fixtures and two synthetic generator lines. This
//! crate turns the generators of `etcs_network::generator` into a proper
//! *corpus*: parameterized scenario [families](Family) spanning
//! junction-rich grids, convoy chains, branched meshes, station throats
//! and a moving-block/hybrid-Level-3 family (Engels & Wille,
//! arXiv:2405.18977), each scaling from today's fixture sizes
//! ([`SizeClass::Small`]) up to hundreds of trains ([`SizeClass::Huge`]).
//!
//! The unit of the corpus is an [`InstanceSpec`] — family × size × seed —
//! whose [`build`](InstanceSpec::build) is a pure function: equal specs
//! yield byte-identical scenarios, on every platform, forever (bumping
//! [`Manifest::FORMAT_VERSION`] is the escape hatch when a family's
//! construction must change). A versioned [`Manifest`] names a whole
//! corpus; [`Manifest::standard`] is what the `bench_corpus` binary sweeps
//! and [`Manifest::smoke`] is the CI-sized subset.
//!
//! Every instance the corpus emits is valid by construction: it passes
//! [`Scenario::validate`], discretises, round-trips through the `.rail`
//! format, and its traced CNF passes the `etcs-lint` audit with zero
//! errors — the crate's test suite pins all four properties per family.
//!
//! [`SolveSetup`] is the companion wiring: the two solve configurations
//! (eager / lazy) the corpus is swept across, dispatching to the matching
//! `etcs-core`/`etcs-lazy` task loop.
//!
//! ## Quick start
//!
//! ```
//! use etcs_corpus::{Family, InstanceSpec, SizeClass};
//!
//! let spec = InstanceSpec::new(Family::GridLadder, SizeClass::Small, 42);
//! let scenario = spec.build();
//! scenario.validate()?;
//! assert_eq!(scenario.name, spec.canonical_name());
//! // Equal specs build byte-identical scenarios.
//! assert_eq!(spec.build().network, scenario.network);
//! # Ok::<(), etcs_network::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod family;
mod manifest;
mod solve;

pub use family::{sample, sample_specs, Family, InstanceSpec, SizeClass};
pub use manifest::{Manifest, ManifestEntry};
pub use solve::{OptimizeOutcome, SolveSetup};

use etcs_network::Scenario;

/// The corpus exemplar specs checked in under `scenarios/corpus/` — one
/// small and one large instance for each of the three headline families
/// introduced by this crate. `tests/rail_format.rs` pins the checked-in
/// files byte-for-byte against these specs (the determinism contract made
/// visible in the repository), and the CI `served` smoke loads them
/// through the service's `.rail` file loader.
pub fn exemplars() -> Vec<InstanceSpec> {
    vec![
        InstanceSpec::new(Family::GridLadder, SizeClass::Small, 1),
        InstanceSpec::new(Family::GridLadder, SizeClass::Large, 1),
        InstanceSpec::new(Family::StationThroat, SizeClass::Small, 1),
        InstanceSpec::new(Family::StationThroat, SizeClass::Large, 1),
        InstanceSpec::new(Family::MovingBlock, SizeClass::Small, 1),
        InstanceSpec::new(Family::MovingBlock, SizeClass::Large, 1),
    ]
}

/// The repository-relative path of an exemplar's checked-in `.rail` file.
pub fn exemplar_path(spec: &InstanceSpec) -> String {
    format!(
        "scenarios/corpus/{}_{}.rail",
        spec.family.name(),
        spec.size.name()
    )
}

/// Renders an exemplar spec to its `.rail` document (the exact bytes the
/// checked-in file must contain).
pub fn exemplar_rail(spec: &InstanceSpec) -> String {
    etcs_network::write_scenario(&spec.build())
}

/// Builds every exemplar scenario (spec + scenario pairs).
pub fn build_exemplars() -> Vec<(InstanceSpec, Scenario)> {
    exemplars().into_iter().map(|s| (s, s.build())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplars_cover_three_families_small_and_large() {
        let specs = exemplars();
        assert_eq!(specs.len(), 6);
        let families: std::collections::BTreeSet<_> =
            specs.iter().map(|s| s.family.name()).collect();
        assert_eq!(families.len(), 3);
        for f in &families {
            let sizes: Vec<_> = specs
                .iter()
                .filter(|s| s.family.name() == *f)
                .map(|s| s.size)
                .collect();
            assert!(sizes.contains(&SizeClass::Small), "{f}");
            assert!(sizes.contains(&SizeClass::Large), "{f}");
        }
    }

    #[test]
    fn exemplar_paths_are_distinct() {
        let paths: std::collections::BTreeSet<_> = exemplars().iter().map(exemplar_path).collect();
        assert_eq!(paths.len(), 6);
        assert!(paths
            .iter()
            .all(|p| p.starts_with("scenarios/corpus/") && p.ends_with(".rail")));
    }

    #[test]
    fn traced_corpus_encodings_are_lint_clean() {
        // Lint-clean by construction: the traced generation CNF of one
        // Small instance per family passes the full audit with zero
        // findings.
        let config = etcs_core::EncoderConfig {
            trace: true,
            ..etcs_core::EncoderConfig::default()
        };
        for family in Family::ALL {
            let spec = InstanceSpec::new(family, SizeClass::Small, 3);
            let inst = etcs_core::Instance::new(&spec.build()).expect("valid corpus instance");
            let enc = etcs_core::encode(&inst, &config, &etcs_core::TaskKind::Generate);
            let findings = enc.trace.expect("tracing on").lint();
            assert!(
                findings.is_empty(),
                "{}: corpus encodings must be lint-clean:\n{}",
                spec.canonical_name(),
                etcs_lint::render_report(&findings)
            );
        }
    }

    #[test]
    fn exemplar_rail_parses_back() {
        for (spec, scenario) in build_exemplars() {
            let text = exemplar_rail(&spec);
            let back = etcs_network::parse_scenario(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.canonical_name()));
            assert_eq!(back.network, scenario.network, "{}", spec.canonical_name());
        }
    }
}
