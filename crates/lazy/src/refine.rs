//! Refinement: activating the constraint family slice behind every
//! violated instance a round's detector found.
//!
//! Every emitted clause is one the eager encoder would have emitted for
//! the same family (separation) or mirrors its sweep-variable factoring
//! exactly (pass-through), so the refined relaxation is always implied by
//! the full eager encoding. That implication is the soundness argument of
//! the whole loop — see `DESIGN.md` §12.

use std::collections::BTreeMap;

use etcs_core::{Encoding, Instance};
use etcs_network::{EdgeId, NodeKind, TtdId};
use etcs_obs::Span;
use etcs_sat::{CnfSink, Lit};

use crate::detect::LazyViolation;

/// The constraint *family slice* a violated instance activates.
/// Refinement is family × time-band granular: one shared/missing-border
/// instance activates the separation family of its TTD, one pass-through
/// instance the sweep family of its `(from, to)` move — every instance
/// the eager encoder would have emitted for that family, across all
/// trains, within the violation's [`BAND`]-step time band. Two violations
/// with equal signatures expand to the same slice, so only one of them is
/// ever encoded.
///
/// Instance-pointwise blocking (the first implementation) made the solver
/// slide the same conflict one step or one train over, round after round,
/// re-discovering the eager family one instance at a time; activating
/// across trains makes one round per conflict site suffice. The time
/// banding is the other half of the bargain: conflicts cluster in the
/// steps where schedules actually cross, so a family activated for all
/// `t_max` steps would mostly emit clauses the solver never touches. A
/// family slice that never sees a violation costs nothing — that is the
/// lazy win this trades instance-precision for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Signature {
    /// Separation family of one TTD (shared + missing-border), one band.
    Separation(u32, u32),
    /// Sweep family of one `(from, to)` move, one band.
    Pass(u32, u32, u32),
}

/// Width of an activation time band, in steps. Violations cluster in the
/// steps where schedules actually cross, so activating a family for all
/// `t_max` steps would mostly emit clauses the solver never touches —
/// banding keeps the refined formula proportional to the *conflicting*
/// part of the horizon. Wider bands converge in fewer rounds; narrower
/// bands keep the formula smaller. Eight steps (a few headways at the
/// default temporal resolution) balances the two on the shipped regimes.
const BAND: usize = 8;

/// The step range a band covers, clipped to `limit`.
fn band_steps(band: u32, limit: usize) -> std::ops::Range<usize> {
    let lo = band as usize * BAND;
    lo..((band as usize + 1) * BAND).min(limit)
}

fn v_step(v: &LazyViolation) -> usize {
    match *v {
        LazyViolation::Shared { step, .. }
        | LazyViolation::MissingBorder { step, .. }
        | LazyViolation::PassThrough { step, .. } => step,
    }
}

fn signature(inst: &Instance, v: &LazyViolation) -> Signature {
    let band = (v_step(v) / BAND) as u32;
    match *v {
        LazyViolation::Shared { edge, .. } => {
            Signature::Separation(inst.net.segment(edge).ttd.0, band)
        }
        LazyViolation::MissingBorder { edges: (e, _), .. } => {
            Signature::Separation(inst.net.segment(e).ttd.0, band)
        }
        LazyViolation::PassThrough { from, to, .. } => {
            Signature::Pass(from.index() as u32, to.index() as u32, band)
        }
    }
}

/// Cross-round refinement state: which families are already active, and
/// the sweep variables allocated so far (shared across pass families,
/// exactly as the eager encoder shares them across moves — without the
/// sharing, the flat resolvent form emits several times the eager clause
/// mass on dense scenarios, and the bigger formula eats the lazy win).
pub(crate) struct RefineState {
    encoded: Vec<Signature>,
    /// `(mover, step, segment)` → sweep literal: "the mover crosses the
    /// segment during the step", excluding every other train from it.
    sweep: BTreeMap<(usize, usize, u32), Lit>,
}

impl RefineState {
    pub(crate) fn new() -> Self {
        RefineState {
            encoded: Vec::new(),
            sweep: BTreeMap::new(),
        }
    }
}

/// Emits the full separation family of one TTD: for every same-TTD
/// segment pair and every train pair, the shared-segment exclusion
/// (`e == f`) or the missing-border clause (`e != f`, skipped when a
/// forced TTD border already separates the pair) — clause-for-clause what
/// the eager encoder's `separation` group holds for this TTD.
fn emit_separation(enc: &mut Encoding, inst: &Instance, ttd: u32, band: u32) -> usize {
    let steps = band_steps(band, inst.t_max);
    let num_trains = inst.trains.len();
    let edges = inst.net.ttd_edges(TtdId(ttd)).to_vec();
    let mut added = 0usize;
    for (a, &e) in edges.iter().enumerate() {
        for &f in &edges[a..] {
            if e == f {
                for i in 0..num_trains {
                    for j in (i + 1)..num_trains {
                        for t in steps.clone() {
                            let (Some(occ_i), Some(occ_j)) =
                                (enc.vars.occ_lit(i, t, e), enc.vars.occ_lit(j, t, e))
                            else {
                                continue;
                            };
                            enc.solver.add_clause([!occ_i, !occ_j]);
                            added += 1;
                        }
                    }
                }
                continue;
            }
            let mut borders = Vec::new();
            let mut forced = false;
            for n in inst.net.between(e, f).expect("same-TTD edges connect") {
                if inst.net.node_kind(n) == NodeKind::TtdBorder {
                    forced = true; // a forced border already separates the pair
                    break;
                }
                if let Some(b) = enc.vars.border[n.index()] {
                    borders.push(b.positive());
                }
            }
            if forced {
                continue;
            }
            // Ordered train pairs: `i` on `e` and `j` on `f` is a
            // different eager clause from `i` on `f` and `j` on `e`.
            for i in 0..num_trains {
                for j in 0..num_trains {
                    if i == j {
                        continue;
                    }
                    for t in steps.clone() {
                        let (Some(occ_i), Some(occ_j)) =
                            (enc.vars.occ_lit(i, t, e), enc.vars.occ_lit(j, t, f))
                        else {
                            continue;
                        };
                        let mut clause = vec![!occ_i, !occ_j];
                        clause.extend_from_slice(&borders);
                        enc.solver.add_clause(clause);
                        added += 1;
                    }
                }
            }
        }
    }
    added
}

/// Emits the full sweep family of one `(from, to)` move, mirroring the
/// eager factoring: a sweep variable per `(mover, step, swept segment)` —
/// shared with every other activated move through [`RefineState`] — with
/// one ternary `occ_from ∧ occ_to ⇒ sweep` per move and two exclusivity
/// binaries `sweep ⇒ ¬occ_other` per other train, emitted once when the
/// variable is allocated.
///
/// The per-mover guards replay the eager ones exactly: the move distance
/// must be within the mover's speed, the swept path is *that* mover's
/// (paths depend on speed), and uncontested segments are skipped. The
/// auxiliary variables keep the loop sound: any model of the full eager
/// encoding extends to them (set each sweep variable to `occ_from ∧
/// occ_to` over its activated moves; the exclusivity binaries then hold
/// because the eager no-passing clauses do), so UNSAT of the refined
/// relaxation still transfers to the full formula, and a violation-free
/// witness extends the same way.
fn emit_pass(
    enc: &mut Encoding,
    inst: &Instance,
    state: &mut RefineState,
    from: EdgeId,
    to: EdgeId,
    band: u32,
) -> usize {
    let steps = band_steps(band, inst.t_max.saturating_sub(1));
    let num_trains = inst.trains.len();
    let mut added = 0usize;
    for mover in 0..num_trains {
        let spec = &inst.trains[mover];
        if !matches!(inst.dist(from, to), Some(d) if d >= 1 && d <= spec.speed) {
            continue;
        }
        let path = inst.net.path_edges(from, to, spec.speed);
        for t in steps.clone() {
            if t < spec.dep_step {
                continue;
            }
            let (Some(occ_e), Some(occ_f)) = (
                enc.vars.occ_lit(mover, t, from),
                enc.vars.occ_lit(mover, t + 1, to),
            ) else {
                continue;
            };
            for &g in &path {
                let contested = (0..num_trains).any(|other| {
                    other != mover
                        && (enc.vars.occ_lit(other, t, g).is_some()
                            || enc.vars.occ_lit(other, t + 1, g).is_some())
                });
                if !contested {
                    continue;
                }
                let key = (mover, t, g.index() as u32);
                let s = match state.sweep.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = CnfSink::new_var(&mut enc.solver).positive();
                        state.sweep.insert(key, s);
                        for other in 0..num_trains {
                            if other == mover {
                                continue;
                            }
                            for at in [t, t + 1] {
                                if let Some(occ_g) = enc.vars.occ_lit(other, at, g) {
                                    enc.solver.add_clause([!s, !occ_g]);
                                    added += 1;
                                }
                            }
                        }
                        s
                    }
                };
                enc.solver.add_clause([!occ_e, !occ_f, s]);
                added += 1;
            }
        }
    }
    added
}

/// One refinement round: activates the family slice of every violation
/// on the persistent solver and emits a `lazy.refine` span under
/// `round`. Returns the number of clauses added.
///
/// Panics if no clause could be emitted for a non-empty violation list —
/// that would mean the loop cannot make progress and would spin forever,
/// so it is a bug, not a recoverable state. (A detected instance's own
/// occupancy variables exist by construction — the decoder read them —
/// so its family always contributes at least one fresh clause.)
pub(crate) fn refine(
    round: &Span,
    enc: &mut Encoding,
    inst: &Instance,
    state: &mut RefineState,
    violations: &[LazyViolation],
) -> usize {
    let span = round.child_with("lazy.refine", &[("violations", violations.len().into())]);
    let mut added = 0usize;
    for v in violations {
        let sig = signature(inst, v);
        if state.encoded.contains(&sig) {
            continue; // the family is already fully active
        }
        state.encoded.push(sig);
        added += match sig {
            Signature::Separation(ttd, band) => emit_separation(enc, inst, ttd, band),
            Signature::Pass(_, _, band) => {
                let LazyViolation::PassThrough { from, to, .. } = *v else {
                    unreachable!("pass signature from a pass violation")
                };
                emit_pass(enc, inst, state, from, to, band)
            }
        };
    }
    span.close_with(&[("clauses", added.into())]);
    assert!(
        added > 0 || violations.is_empty(),
        "refinement made no progress on {} violations — the loop would not terminate",
        violations.len()
    );
    added
}
