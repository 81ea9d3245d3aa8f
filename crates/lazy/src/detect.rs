//! The counterexample oracle: finds concrete violated instances of the
//! deferred constraint families in a candidate plan.
//!
//! The scan mirrors `etcs-sim`'s validator rules for the three lazy
//! families — shared segments, missing VSS borders, trains passing through
//! one another — but at *instance* granularity (the validator deduplicates
//! per train pair and step, which is too coarse to drive refinement). A
//! move's swept path includes its endpoints, exactly as in the encoder's
//! collision constraint, so every reported instance is one the refiner
//! can block.

use etcs_core::{ConstraintFamilies, Instance, SolvedPlan};
use etcs_network::EdgeId;

/// One concrete violated instance of a deferred constraint family.
///
/// Every variant carries exactly the indices needed to emit the blocking
/// clause the eager encoder would have emitted for (or one implied by) the
/// same instance — see `clause_for` in the refiner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LazyViolation {
    /// Two trains occupy the same segment at one step.
    Shared {
        /// Offending step.
        step: usize,
        /// The contested segment.
        edge: EdgeId,
        /// The two trains (schedule indices, `trains.0 < trains.1`).
        trains: (usize, usize),
    },
    /// Two trains share a TTD with no active VSS border on the chain
    /// between their segments.
    MissingBorder {
        /// Offending step.
        step: usize,
        /// The two trains (`trains.0 < trains.1`).
        trains: (usize, usize),
        /// The occupied segments (`edges.0` by `trains.0`).
        edges: (EdgeId, EdgeId),
    },
    /// A train's move sweeps a segment another train occupies.
    PassThrough {
        /// Step of the move's start.
        step: usize,
        /// The moving train.
        mover: usize,
        /// The train in its way.
        other: usize,
        /// The move's start segment (occupied by `mover` at `step`).
        from: EdgeId,
        /// The move's end segment (occupied by `mover` at `step + 1`).
        to: EdgeId,
        /// The swept segment `other` occupies.
        edge: EdgeId,
        /// The step (`step` or `step + 1`) at which `other` is on `edge`.
        at: usize,
    },
}

impl LazyViolation {
    /// A stable short label for the violated family, matching the
    /// `sim.mismatch` vocabulary of `etcs-sim`.
    pub fn kind(&self) -> &'static str {
        match self {
            LazyViolation::Shared { .. } => "shared",
            LazyViolation::MissingBorder { .. } => "border",
            LazyViolation::PassThrough { .. } => "pass",
        }
    }
}

/// Scans `plan` for violated instances of the deferred families, in
/// deterministic order (time-major, then train pairs, then segments).
///
/// Under [`ConstraintFamilies::ALL`] nothing was deferred: the solver
/// already enforced every family, so the scan is skipped and the list is
/// empty.
pub fn detect(inst: &Instance, plan: &SolvedPlan, eager: ConstraintFamilies) -> Vec<LazyViolation> {
    let mut out = Vec::new();
    let num_trains = plan.plans.len();
    if eager == ConstraintFamilies::ALL || num_trains < 2 {
        return out; // nothing deferred, or every lazy family is pairwise
    }
    let net = &inst.net;
    let layout = &plan.layout;

    for t in 0..inst.t_max {
        for i in 0..num_trains {
            for j in (i + 1)..num_trains {
                let pi = &plan.plans[i].positions[t];
                let pj = &plan.plans[j].positions[t];
                for &e in pi {
                    for &f in pj {
                        if e == f {
                            out.push(LazyViolation::Shared {
                                step: t,
                                edge: e,
                                trains: (i, j),
                            });
                            continue;
                        }
                        if net.segment(e).ttd != net.segment(f).ttd {
                            continue;
                        }
                        let between = net.between(e, f).expect("same-TTD edges connect");
                        if !between.iter().any(|&n| layout.is_border(net, n)) {
                            out.push(LazyViolation::MissingBorder {
                                step: t,
                                trains: (i, j),
                                edges: (e, f),
                            });
                        }
                    }
                }
            }
        }
    }

    // The same (from, to) move pairs recur at every step, and
    // `path_edges` is the expensive part of the scan — cache per call.
    let mut path_cache: std::collections::BTreeMap<(EdgeId, EdgeId, u32), Vec<EdgeId>> =
        std::collections::BTreeMap::new();
    for (mover, (p, spec)) in plan.plans.iter().zip(&inst.trains).enumerate() {
        for t in spec.dep_step..inst.t_max.saturating_sub(1) {
            let now = &p.positions[t];
            let next = &p.positions[t + 1];
            if now.is_empty() || next.is_empty() {
                continue;
            }
            for &e in now {
                for &f in next {
                    if e == f {
                        continue;
                    }
                    if !matches!(inst.dist(e, f), Some(d) if d >= 1 && d <= spec.speed) {
                        continue;
                    }
                    let path = path_cache
                        .entry((e, f, spec.speed))
                        .or_insert_with(|| net.path_edges(e, f, spec.speed));
                    for &g in path.iter() {
                        for (other, q) in plan.plans.iter().enumerate() {
                            if other == mover {
                                continue;
                            }
                            for at in [t, t + 1] {
                                if q.positions[at].contains(&g) {
                                    out.push(LazyViolation::PassThrough {
                                        step: t,
                                        mover,
                                        other,
                                        from: e,
                                        to: f,
                                        edge: g,
                                        at,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    out
}
