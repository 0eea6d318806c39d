//! Order statistics used by every workload: median, quartiles and the
//! tail-percentile rule.

/// Sorted copy of `xs` (NaN-free input; `+inf` marks a failed request).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method) does.
///
/// # Panics
/// With fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
///
/// # Panics
/// On an empty slice or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(xs);
    v[rank_index(v.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    // Small epsilon so 90% of 100 samples is rank 90, not 91 after
    // floating-point rounding.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest of the conventional percentiles that still has at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// `median, tail percentile (n samples)` for a report line, the tail
/// being the highest percentile with ten samples beyond it.
pub fn describe_ms(xs: &[f64]) -> String {
    match tail_percentile(xs.len()) {
        Some(p) => {
            format!("p50 {:.3} ms, p{p} {:.3} ms (n={})", median(xs), percentile(xs, p), xs.len())
        }
        None => format!("p50 {:.3} ms (n={})", median(xs), xs.len()),
    }
}

/// `median [q1, q3]` for a report line.
pub fn describe_spread(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return format!("{:.4}", median(xs));
    }
    let [q1, q2, q3] = quartiles(xs);
    format!("{q2:.4} [q1 {q1:.4}, q3 {q3:.4}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn failures_sort_last() {
        let xs = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&xs, 100.0), f64::INFINITY);
        assert_eq!(median(&xs), 2.0);
    }
}
