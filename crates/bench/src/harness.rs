//! A minimal, dependency-free benchmark harness with a Criterion-shaped API.
//!
//! The workspace builds fully offline, so the `criterion` crate is not
//! available. This module provides the small slice of its surface the bench
//! targets use — [`Criterion`], [`BenchmarkGroup`], [`Bencher`],
//! [`BenchmarkId`], [`BatchSize`],
//! [`criterion_group!`](crate::criterion_group),
//! [`criterion_main!`](crate::criterion_main) — so each bench file only
//! swaps its `use criterion::…` line.
//!
//! Measurement model: after a warm-up period, each benchmark runs
//! `sample_size` timed samples (bounded by `measurement_time`) and reports
//! min / median / mean per-iteration wall-clock time to stdout. No statistics
//! beyond that — these numbers position runtimes against the paper's
//! Table I magnitudes, they are not micro-benchmark grade.

use std::fmt;
use std::time::{Duration, Instant};

/// How batched inputs are grouped per timing sample (API compatibility only;
/// every batch size runs one setup per measured routine call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state: setup cost is negligible next to the routine.
    #[default]
    SmallInput,
    /// Larger per-iteration state.
    LargeInput,
    /// Each sample gets exactly one input.
    PerIteration,
}

/// A two-part benchmark identifier, `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    /// Total routine time and iteration count accumulated for this sample.
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        let out = routine();
        self.elapsed += start.elapsed();
        self.iters += 1;
        drop(out);
    }

    /// Times `routine` on a fresh input from `setup`; setup time is excluded.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let input = setup();
        let start = Instant::now();
        let out = routine(input);
        self.elapsed += start.elapsed();
        self.iters += 1;
        drop(out);
    }
}

/// A named group of benchmarks sharing sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Bounds the total time spent collecting samples for one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Sets the untimed warm-up period before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark under this group's configuration.
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let samples = run_samples(
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut f,
        );
        self.criterion.report(&full, &samples);
        self
    }

    /// Runs one parameterised benchmark; the input is passed by reference.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (kept for API compatibility; reporting is immediate).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, Summary)>,
}

#[derive(Clone, Copy, Debug)]
struct Summary {
    min: Duration,
    median: Duration,
    mean: Duration,
    samples: usize,
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_millis(500),
        }
    }

    /// Runs one benchmark with default sampling configuration.
    pub fn bench_function(&mut self, id: impl fmt::Display, mut f: impl FnMut(&mut Bencher)) {
        let samples = run_samples(
            10,
            Duration::from_millis(500),
            Duration::from_secs(5),
            &mut f,
        );
        self.report(&id.to_string(), &samples);
    }

    fn report(&mut self, name: &str, samples: &[Duration]) {
        let summary = summarize(samples);
        let name = name.trim_end_matches('/');
        println!(
            "bench {:<48} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
            name,
            fmt_duration(summary.min),
            fmt_duration(summary.median),
            fmt_duration(summary.mean),
            summary.samples,
        );
        self.results.push((name.to_string(), summary));
    }
}

fn run_samples(
    sample_size: usize,
    warm_up: Duration,
    budget: Duration,
    f: &mut impl FnMut(&mut Bencher),
) -> Vec<Duration> {
    // Warm-up: run untimed until the warm-up budget elapses (at least once).
    let warm_start = Instant::now();
    loop {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        if warm_start.elapsed() >= warm_up {
            break;
        }
    }

    let mut samples = Vec::with_capacity(sample_size);
    let start = Instant::now();
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        if b.iters > 0 {
            samples.push(b.elapsed / b.iters as u32);
        }
        // Respect the measurement budget, but always keep >= 1 sample.
        if start.elapsed() >= budget && !samples.is_empty() {
            break;
        }
    }
    if samples.is_empty() {
        samples.push(Duration::ZERO);
    }
    samples
}

fn summarize(samples: &[Duration]) -> Summary {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let total: Duration = sorted.iter().sum();
    Summary {
        min,
        median,
        mean: total / sorted.len() as u32,
        samples: sorted.len(),
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_and_report() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(3)
                .warm_up_time(Duration::ZERO)
                .measurement_time(Duration::from_millis(50));
            let mut runs = 0u32;
            g.bench_function("spin", |b| b.iter(|| runs += 1));
            g.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, &n| {
                b.iter_batched(|| vec![0u8; n], |v| v.len(), BatchSize::SmallInput)
            });
            g.finish();
            assert!(runs >= 3, "warm-up plus samples must run the routine");
        }
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].0, "unit/spin");
        assert_eq!(c.results[1].0, "unit/param/7");
    }

    #[test]
    fn benchmark_id_renders_slash_separated() {
        assert_eq!(
            BenchmarkId::new("stations/verify", 4).to_string(),
            "stations/verify/4"
        );
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.00 s");
    }
}
