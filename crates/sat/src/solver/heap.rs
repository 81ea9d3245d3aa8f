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
        self.pos[v.index()] = i;
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
            self.pos[last as usize] = 0;
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

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
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

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
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
