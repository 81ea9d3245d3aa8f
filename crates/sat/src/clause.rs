//! Clause storage for the CDCL solver.
//!
//! Every clause lives in one flat arena ([`ClauseDb`]), MiniSat style, and
//! is addressed by a [`ClauseRef`] — the offset of its first word. A clause
//! occupies
//!
//! ```text
//! [header] [lbd] [activity lo] [activity hi] [lit 0] [lit 1] ...
//!           \_______ learnt clauses only _______/
//! ```
//!
//! where the header packs the literal count with the `learnt` and
//! `deleted` flags. Building a 200k-clause encoding is therefore a handful
//! of vector growths instead of 200k small allocations, dropping it is one
//! free, and a watch visit reads the header and the literals from one cache
//! line.
//!
//! Deleting a clause only sets its flag; stripping a literal shrinks the
//! header's count in place. Both leave dead words behind, which
//! [`ClauseDb::compact`] reclaims by sliding the live clauses down in
//! insertion order. Compaction moves every clause, so it may only run when
//! nothing outside the database holds a [`ClauseRef`] (no reasons, watches
//! about to be rebuilt).

use crate::types::Lit;

/// Handle to a clause inside a [`ClauseDb`]: the arena offset of its
/// header. The top bit is never part of an offset; watch lists use it to
/// mark binary clauses (see [`ClauseRef::binary`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) struct ClauseRef(u32);

const BINARY_FLAG: u32 = 1 << 31;

impl ClauseRef {
    /// The same clause, flagged as binary for an implicit watcher.
    #[inline]
    pub(crate) fn binary(self) -> ClauseRef {
        ClauseRef(self.0 | BINARY_FLAG)
    }

    /// `true` when the handle carries the binary flag.
    #[inline]
    pub(crate) fn is_binary(self) -> bool {
        self.0 & BINARY_FLAG != 0
    }

    /// The handle without the binary flag (the arena offset).
    #[inline]
    pub(crate) fn plain(self) -> ClauseRef {
        ClauseRef(self.0 & !BINARY_FLAG)
    }

    #[inline]
    fn offset(self) -> usize {
        debug_assert!(!self.is_binary(), "strip the binary flag before access");
        self.0 as usize
    }
}

const LEARNT: u32 = 1 << 30;
const DELETED: u32 = 1 << 31;
const LEN_MASK: u32 = LEARNT - 1;
/// Extra words of a learnt clause: lbd and the two halves of the activity.
const LEARNT_EXTRA: usize = 3;

/// Flat arena of clauses addressed by [`ClauseRef`].
///
/// Metadata words are stored as raw bit patterns in the same `Lit` vector
/// as the literals, which keeps the arena one allocation without unsafe
/// reinterpretation.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    mem: Vec<Lit>,
    /// Every clause not yet compacted away, in insertion order.
    refs: Vec<ClauseRef>,
    /// Dead words (deleted clauses, stripped literals) awaiting compaction.
    wasted: usize,
    /// Number of live (non-deleted) learnt clauses.
    num_learnt: usize,
    /// Number of live problem clauses.
    num_problem: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a clause and returns its handle.
    ///
    /// The caller must guarantee `lits.len() >= 2`; unit and empty clauses
    /// are handled by the solver before reaching the database.
    pub(crate) fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "database clauses must have >= 2 literals");
        let offset = u32::try_from(self.mem.len())
            .ok()
            .filter(|&o| o & BINARY_FLAG == 0)
            .expect("clause arena exceeds 2^31 words");
        let mut header = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n <= LEN_MASK)
            .expect("clause exceeds 2^30 literals");
        let r = ClauseRef(offset);
        if learnt {
            header |= LEARNT;
            self.num_learnt += 1;
        } else {
            self.num_problem += 1;
        }
        self.mem.push(Lit(header));
        if learnt {
            self.mem.push(Lit(lbd));
            self.mem.extend([Lit(0), Lit(0)]); // activity 0.0
        }
        self.mem.extend_from_slice(lits);
        self.refs.push(r);
        r
    }

    #[inline]
    fn header(&self, r: ClauseRef) -> u32 {
        self.mem[r.offset()].0
    }

    /// Arena index of the first literal.
    #[inline]
    fn lits_start(&self, r: ClauseRef) -> usize {
        let extra = if self.header(r) & LEARNT != 0 {
            LEARNT_EXTRA
        } else {
            0
        };
        r.offset() + 1 + extra
    }

    /// Words the clause occupies now (header, metadata, literals).
    fn words(&self, r: ClauseRef) -> usize {
        self.lits_start(r) - r.offset() + self.len(r)
    }

    #[inline]
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = self.lits_start(r);
        &self.mem[start..start + self.len(r)]
    }

    #[inline]
    pub(crate) fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let start = self.lits_start(r);
        let len = self.len(r);
        &mut self.mem[start..start + len]
    }

    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        (self.header(r) & LEN_MASK) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.header(r) & LEARNT != 0
    }

    /// Literal-block distance at learning time (lower = more valuable).
    /// Learnt clauses only.
    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(r));
        self.mem[r.offset() + 1].0
    }

    /// Bump-and-decay activity, the reduction tiebreaker. Learnt clauses
    /// only.
    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        debug_assert!(self.is_learnt(r));
        let lo = self.mem[r.offset() + 2].0 as u64;
        let hi = self.mem[r.offset() + 3].0 as u64;
        f64::from_bits(hi << 32 | lo)
    }

    pub(crate) fn set_activity(&mut self, r: ClauseRef, activity: f64) {
        debug_assert!(self.is_learnt(r));
        let bits = activity.to_bits();
        self.mem[r.offset() + 2] = Lit(bits as u32);
        self.mem[r.offset() + 3] = Lit((bits >> 32) as u32);
    }

    /// Removes the literal at `i` (order-destroying swap-remove); the
    /// freed word stays dead until the next compaction.
    pub(crate) fn swap_remove(&mut self, r: ClauseRef, i: usize) -> Lit {
        let lits = self.lits_mut(r);
        let last = lits.len() - 1;
        let removed = lits[i];
        lits[i] = lits[last];
        self.mem[r.offset()].0 -= 1;
        self.wasted += 1;
        removed
    }

    /// Marks a clause deleted; its words stay dead until the next
    /// compaction.
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        debug_assert!(!self.is_deleted(r), "double delete of clause {r:?}");
        if self.is_learnt(r) {
            self.num_learnt -= 1;
        } else {
            self.num_problem -= 1;
        }
        self.wasted += self.words(r);
        self.mem[r.offset()].0 |= DELETED;
    }

    #[inline]
    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.header(r) & DELETED != 0
    }

    /// Live learnt-clause count.
    #[inline]
    pub(crate) fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Live problem-clause count.
    #[inline]
    pub(crate) fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Handles of all live clauses, in insertion order.
    pub(crate) fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.refs.iter().copied().filter(|&r| !self.is_deleted(r))
    }

    /// Handles of live learnt clauses (candidates for reduction), in
    /// insertion order.
    pub(crate) fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.iter_refs().filter(|&r| self.is_learnt(r)).collect()
    }

    /// Reclaims dead words once they make up a fifth of the arena, sliding
    /// live clauses down in insertion order. Returns `true` when it moved
    /// clauses: every outstanding [`ClauseRef`] is then stale, so callers
    /// must hold none (no reasons) and rebuild their watch lists.
    pub(crate) fn compact_if_wasteful(&mut self) -> bool {
        if self.wasted * 5 <= self.mem.len() {
            return false;
        }
        self.compact();
        true
    }

    /// Unconditional order-preserving compaction (see
    /// [`ClauseDb::compact_if_wasteful`]).
    fn compact(&mut self) {
        let mut to = 0usize;
        let mut kept = 0usize;
        for k in 0..self.refs.len() {
            let r = self.refs[k];
            if self.is_deleted(r) {
                continue;
            }
            let words = self.words(r);
            self.mem.copy_within(r.offset()..r.offset() + words, to);
            self.refs[kept] = ClauseRef(to as u32);
            kept += 1;
            to += words;
        }
        self.refs.truncate(kept);
        self.mem.truncate(to);
        self.mem.shrink_to(to + to / 2);
        self.wasted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(ix: &[usize]) -> Vec<Lit> {
        ix.iter().map(|&i| Var::from_index(i).positive()).collect()
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut db = ClauseDb::new();
        let p = db.push(&lits(&[0, 1, 2]), false, 0);
        let l = db.push(&lits(&[3, 4]), true, 7);
        assert_eq!(db.lits(p), lits(&[0, 1, 2]).as_slice());
        assert_eq!(db.lits(l), lits(&[3, 4]).as_slice());
        assert!(!db.is_learnt(p));
        assert!(db.is_learnt(l));
        assert_eq!(db.lbd(l), 7);
        assert_eq!(db.activity(l), 0.0);
        db.set_activity(l, 1.5e-300);
        assert_eq!(db.activity(l), 1.5e-300);
        db.set_activity(l, 3.25e99);
        assert_eq!(db.activity(l), 3.25e99);
        assert_eq!(
            db.lits(l),
            lits(&[3, 4]).as_slice(),
            "activity words are apart"
        );
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnt(), 1);
    }

    #[test]
    fn delete_flags_and_counts() {
        let mut db = ClauseDb::new();
        let p = db.push(&lits(&[0, 1]), false, 0);
        let l = db.push(&lits(&[2, 3]), true, 2);
        assert_eq!(db.num_learnt(), 1);
        db.delete(l);
        assert!(db.is_deleted(l));
        assert!(!db.is_deleted(p));
        assert_eq!(db.num_learnt(), 0);
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![p]);
        db.delete(p);
        assert_eq!(db.num_problem(), 0);
        assert_eq!(db.iter_refs().count(), 0);
    }

    #[test]
    fn learnt_refs_only_live_learnt() {
        let mut db = ClauseDb::new();
        db.push(&lits(&[0, 1]), false, 0);
        let l1 = db.push(&lits(&[2, 3]), true, 2);
        let l2 = db.push(&lits(&[4, 5]), true, 3);
        db.delete(l1);
        assert_eq!(db.learnt_refs(), vec![l2]);
    }

    #[test]
    fn swap_remove_strips_in_place() {
        let mut db = ClauseDb::new();
        let r = db.push(&lits(&[0, 1, 2]), false, 0);
        let next = db.push(&lits(&[5, 6]), true, 2);
        let removed = db.swap_remove(r, 0);
        assert_eq!(removed, Var::from_index(0).positive());
        assert_eq!(db.lits(r), lits(&[2, 1]).as_slice());
        assert_eq!(
            db.lits(next),
            lits(&[5, 6]).as_slice(),
            "neighbour untouched"
        );
        assert_eq!(db.lbd(next), 2);
    }

    #[test]
    fn compaction_keeps_order_and_remaps_refs() {
        let mut db = ClauseDb::new();
        let mut live = Vec::new();
        for i in 0..40usize {
            let learnt = i % 3 == 0;
            let r = db.push(&lits(&[i, i + 100, i + 200]), learnt, i as u32);
            if learnt {
                db.set_activity(r, i as f64 * 0.5);
            }
            if i % 2 == 0 {
                db.delete(r);
            } else {
                live.push((i, learnt));
            }
        }
        // Strip one literal of the first live clause: its dead word must
        // not survive compaction either.
        let first = db.iter_refs().next().expect("live clauses");
        db.swap_remove(first, 2);
        let before = db.mem.len();
        assert!(db.compact_if_wasteful(), "half the clauses are dead");
        assert!(db.mem.len() < before);
        let refs: Vec<ClauseRef> = db.iter_refs().collect();
        assert_eq!(refs.len(), live.len());
        for (k, (&r, &(i, learnt))) in refs.iter().zip(&live).enumerate() {
            let expect = if k == 0 {
                lits(&[i, i + 100])
            } else {
                lits(&[i, i + 100, i + 200])
            };
            assert_eq!(db.lits(r), expect.as_slice(), "clause {i} in order");
            assert_eq!(db.is_learnt(r), learnt);
            if learnt {
                assert_eq!(db.lbd(r), i as u32);
                assert_eq!(db.activity(r), i as f64 * 0.5);
            }
        }
        assert_eq!(db.num_learnt() + db.num_problem(), live.len());
        assert!(!db.compact_if_wasteful(), "nothing left to reclaim");
    }

    #[test]
    fn binary_flag_round_trips() {
        let mut db = ClauseDb::new();
        db.push(&lits(&[0, 1, 2]), false, 0);
        let r = db.push(&lits(&[3, 4]), false, 0);
        let w = r.binary();
        assert!(w.is_binary());
        assert!(!r.is_binary());
        assert_eq!(w.plain(), r);
        assert_eq!(db.lits(w.plain()), lits(&[3, 4]).as_slice());
    }
}
