//! Order statistics and process counters read from `/proc`.

/// `USER_HZ`: the unit of the CPU fields of `/proc/self/stat` (100 on every
/// mainstream Linux target).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The Harrell–Davis estimate of quantile `p` (in `0..1`) of an ascending
/// slice: a weighted mean of all order statistics, with weights from the
/// Beta(p(n+1), (1−p)(n+1)) distribution.
///
/// Every workload mixes request types whose latencies form separate
/// clusters. A single order statistic jumps across the gap between two
/// clusters when noise reorders a few requests near the rank; this
/// weighted mean moves by those few requests' share of the weight instead.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let nf = n as f64;
    let (a, b) = (p * (nf + 1.0), (1.0 - p) * (nf + 1.0));
    // Weights beyond 12 standard deviations of the Beta mean are below
    // 1e-30; skip them so long runs stay cheap.
    let sd = (p * (1.0 - p) / (nf + 2.0)).sqrt();
    let lo = (((p - 12.0 * sd) * nf).floor().max(0.0)) as usize;
    let hi = (((p + 12.0 * sd) * nf).ceil() as usize).min(n);
    let mut below = beta_cdf(a, b, lo as f64 / nf);
    let mut sum = 0.0;
    for (i, &x) in sorted.iter().enumerate().take(hi).skip(lo) {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / nf);
        sum += (cdf - below) * x;
        below = cdf;
    }
    sum
}

/// The regularised incomplete beta function I_x(a, b).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of the incomplete beta function (modified
/// Lentz's method).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Median of unordered values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), or `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (m, n) = (ld + 1, 4);
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// User plus system CPU seconds of this process, all threads included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the numeric fields follow the
    // last `)`. utime and stime are fields 14 and 15 of proc(5), i.e. the
    // 12th and 13th after the name.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn harrell_davis_quantiles() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // A symmetric sample has its centre as the median.
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&sorted, 0.5) - 51.0).abs() < 1e-9);
        // For an evenly spaced sample the estimate is p·n + 1/2, up to
        // terms far below this tolerance.
        assert!((quantile(&sorted, 0.9) - 91.4).abs() < 1e-6);
        assert!((beta_cdf(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        // Weights sum to one: a constant sample returns the constant.
        let flat = vec![3.5; 80_000];
        assert!((quantile(&flat, 0.9) - 3.5).abs() < 1e-9);
        // Two clusters of 16 and 16 values: the median sits between them
        // instead of on either edge.
        let mut two: Vec<f64> = (0..16).map(|i| 40.0 + f64::from(i) * 0.01).collect();
        two.extend((0..16).map(|i| 60.0 + f64::from(i) * 0.01));
        let m = quantile(&two, 0.5);
        assert!(m > 45.0 && m < 55.0, "{m}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_advances() {
        let before = process_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before);
    }
}
