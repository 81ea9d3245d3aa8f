//! Indexed binary max-heap ordering variables by VSIDS activity.

use crate::types::Var;

/// Max-heap over variables keyed by an external activity table.
///
/// The heap stores positions per variable so that `decrease`/`increase`
/// operations after activity bumps are `O(log n)`, and membership tests are
/// `O(1)`.
#[derive(Debug, Default)]
pub(crate) struct VarHeap {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// `pos[v] == usize::MAX` when `v` is not in the heap.
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a new variable slot (initially absent from the heap).
    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        self.pos.resize(num_vars, ABSENT);
    }

    #[inline]
    pub(crate) fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != ABSENT
    }

    /// `true` when no variable is queued. Only exercised by tests; the
    /// solver detects exhaustion via `pop_max` returning `None`.
    #[allow(dead_code)]
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `v`; no-op if already present.
    pub(crate) fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        let i = self.heap.len();
        self.heap.push(v.0);
        self.sift_up(i, activity);
    }

    /// Removes and returns the maximum-activity variable.
    pub(crate) fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap non-empty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    /// Restores heap order after `v`'s activity increased.
    pub(crate) fn update(&mut self, v: Var, activity: &[f64]) {
        let p = self.pos[v.index()];
        if p != ABSENT {
            self.sift_up(p, activity);
        }
    }

    /// Number of queued variables. Only exercised by tests.
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Moves the variable at `i` up past every parent of lower activity.
    /// The variable is held in a hole that is written once at its final
    /// slot; the comparisons are those of a swap per level, so the layout
    /// (ties included) is the same.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let key = activity[x as usize];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if key <= activity[p as usize] {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i;
            i = parent;
        }
        self.heap[i] = x;
        self.pos[x as usize] = i;
    }

    /// Moves the variable at `i` down below every child of higher
    /// activity, by the same hole technique as [`VarHeap::sift_up`]. At
    /// each level the left child is taken if it beats the variable, and
    /// the right child if it beats the best of the two so far, exactly as
    /// a swap per level would choose.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let x = self.heap[i];
        let key = activity[x as usize];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let (mut best, mut best_key) = (i, key);
            let left = activity[self.heap[l] as usize];
            if left > best_key {
                (best, best_key) = (l, left);
            }
            let r = l + 1;
            if r < n && activity[self.heap[r] as usize] > best_key {
                best = r;
            }
            if best == i {
                break;
            }
            let c = self.heap[best];
            self.heap[i] = c;
            self.pos[c as usize] = i;
            i = best;
        }
        self.heap[i] = x;
        self.pos[x as usize] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = VarHeap::new();
        h.grow_to(5);
        for i in 0..5 {
            h.insert(v(i), &activity);
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| h.pop_max(&activity).map(Var::index)).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = VarHeap::new();
        h.grow_to(2);
        h.insert(v(0), &activity);
        h.insert(v(0), &activity);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_after_bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new();
        h.grow_to(3);
        for i in 0..3 {
            h.insert(v(i), &activity);
        }
        activity[0] = 10.0;
        h.update(v(0), &activity);
        assert_eq!(h.pop_max(&activity), Some(v(0)));
    }

    #[test]
    fn pop_empty_is_none() {
        let mut h = VarHeap::new();
        h.grow_to(1);
        assert!(h.is_empty());
        assert_eq!(h.pop_max(&[0.0]), None);
    }

    /// The swap-per-level sifts the hole sifts replaced, kept as the
    /// reference whose layout they must reproduce.
    impl VarHeap {
        fn insert_by_swaps(&mut self, v: Var, activity: &[f64]) {
            if self.contains(v) {
                return;
            }
            let i = self.heap.len();
            self.heap.push(v.0);
            self.pos[v.index()] = i;
            self.sift_up_by_swaps(i, activity);
        }

        fn pop_max_by_swaps(&mut self, activity: &[f64]) -> Option<Var> {
            let top = *self.heap.first()?;
            let last = self.heap.pop().expect("heap non-empty");
            self.pos[top as usize] = ABSENT;
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.pos[last as usize] = 0;
                self.sift_down_by_swaps(0, activity);
            }
            Some(Var(top))
        }

        fn update_by_swaps(&mut self, v: Var, activity: &[f64]) {
            let p = self.pos[v.index()];
            if p != ABSENT {
                self.sift_up_by_swaps(p, activity);
            }
        }

        fn sift_up_by_swaps(&mut self, mut i: usize, activity: &[f64]) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                    break;
                }
                self.swap(i, parent);
                i = parent;
            }
        }

        fn sift_down_by_swaps(&mut self, mut i: usize, activity: &[f64]) {
            loop {
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                let mut best = i;
                if l < self.heap.len()
                    && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
                {
                    best = l;
                }
                if r < self.heap.len()
                    && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
                {
                    best = r;
                }
                if best == i {
                    break;
                }
                self.swap(i, best);
                i = best;
            }
        }

        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.pos[self.heap[a] as usize] = a;
            self.pos[self.heap[b] as usize] = b;
        }
    }

    /// Drives the hole sifts and the swap reference through one seeded
    /// stream of inserts, bump-then-updates and pops over activities full
    /// of ties (the encoder seeds every occupancy variable of a time step
    /// with the same activity), and requires the same pop order and the
    /// same `heap` and `pos` arrays after every operation.
    #[test]
    fn hole_sifts_match_the_swap_reference() {
        for seed in 1..=20u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let n = 1 + next(200) as usize;
            // Few distinct activity levels, as `seed_decision_order` gives.
            let mut activity: Vec<f64> = (0..n).map(|_| 1.0 / (next(6) as f64 + 2.0)).collect();
            let (mut hole, mut reference) = (VarHeap::new(), VarHeap::new());
            hole.grow_to(n);
            reference.grow_to(n);
            for _ in 0..4 * n {
                let v = v(next(n as u64) as usize);
                match next(3) {
                    0 => {
                        hole.insert(v, &activity);
                        reference.insert_by_swaps(v, &activity);
                    }
                    1 => {
                        // Bumps by a few fixed amounts keep ties common.
                        activity[v.index()] += [0.5, 1.0, 0.25][next(3) as usize];
                        hole.update(v, &activity);
                        reference.update_by_swaps(v, &activity);
                    }
                    _ => assert_eq!(
                        hole.pop_max(&activity),
                        reference.pop_max_by_swaps(&activity)
                    ),
                }
                assert_eq!(hole.heap, reference.heap, "heap layout, seed {seed}");
                assert_eq!(hole.pos, reference.pos, "positions, seed {seed}");
            }
            while let Some(top) = reference.pop_max_by_swaps(&activity) {
                assert_eq!(hole.pop_max(&activity), Some(top));
                assert_eq!(hole.heap, reference.heap);
                assert_eq!(hole.pos, reference.pos);
            }
            assert!(hole.is_empty());
        }
    }

    #[test]
    fn contains_tracks_membership() {
        let activity = vec![1.0];
        let mut h = VarHeap::new();
        h.grow_to(1);
        assert!(!h.contains(v(0)));
        h.insert(v(0), &activity);
        assert!(h.contains(v(0)));
        h.pop_max(&activity);
        assert!(!h.contains(v(0)));
    }
}
