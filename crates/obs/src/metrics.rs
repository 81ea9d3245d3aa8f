//! Named counters and histograms.
//!
//! The registry is plain data — the [`Obs`](crate::Obs) handle wraps one in
//! a mutex and exposes lock-free-when-disabled update helpers, but the
//! registry itself is also usable standalone (e.g. to aggregate per-worker
//! snapshots).

use std::collections::BTreeMap;

/// A streaming histogram: running count/sum/min/max plus power-of-two
/// buckets (`bucket[i]` counts samples in `[2^i, 2^{i+1})`, with 0 in
/// bucket 0). Enough to read off medians-by-decade and tails without
/// storing samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in `[2^i, 2^{i+1})` (index 0 also counts zero samples).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// A registry of named metrics. Names are `&'static str` by design: every
/// metric the workspace emits is declared at an instrumentation site, and
/// static names keep the hot-path update allocation-free.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter (creating it at 0).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into a histogram (creating it empty).
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Folds another registry into this one (counters add, histograms
    /// merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("probes"), 0);
        m.counter_add("probes", 2);
        m.counter_add("probes", 3);
        assert_eq!(m.counter("probes"), 5);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("probes", 5)]);
    }

    #[test]
    fn histogram_tracks_shape() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert!((h.mean() - 206.0).abs() < 1e-9);
        assert_eq!(h.bucket(0), 2, "0 and 1 land in bucket 0");
        assert_eq!(h.bucket(1), 2, "2 and 3 land in bucket 1");
        assert_eq!(h.bucket(10), 1, "1024 lands in bucket 10");
    }

    #[test]
    fn histogram_merge_is_fieldwise() {
        let mut a = Histogram::default();
        a.record(4);
        let mut b = Histogram::default();
        b.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);
        let mut empty = Histogram::default();
        empty.merge(&a);
        assert_eq!(empty, a);
        let snapshot = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, snapshot, "merging empty is a no-op");
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("probes", 1);
        a.histogram_record("conflicts", 8);
        let mut b = MetricsRegistry::new();
        b.counter_add("probes", 2);
        b.histogram_record("conflicts", 16);
        a.merge(&b);
        assert_eq!(a.counter("probes"), 3);
        assert_eq!(a.histogram("conflicts").expect("present").count, 2);
        assert!(!a.is_empty());
    }
}
