//! The host-time estimator: order statistics over round times.
//!
//! This host is bimodal (README "Estimator"): identical rounds
//! alternate for seconds at a time between a fast and a ~1.5× slower
//! mode caused by a memory-side neighbour, so medians do not repeat
//! within a tenth. The lower decile does, which is why every host-time
//! metric is computed from [`p10`]; the median, p90 and n are printed
//! beside it.

/// Rank-based percentile of `sorted` (ascending): the element of rank
/// `ceil(q * n)`, 1-based, clamped to `1..=n`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn rank_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The lower decile used for host-time metrics: rank `ceil(0.1 * n)`;
/// the second-smallest when `n < 20` (the smallest alone is one lucky
/// round, and with fewer than 20 samples rank `ceil(0.1 n)` would be
/// it); the only sample when `n == 1`.
pub fn p10_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "p10 of no samples");
    if sorted.len() < 20 {
        sorted[1.min(sorted.len() - 1)]
    } else {
        rank_percentile(sorted, 0.1)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// [`p10_sorted`] of unsorted samples.
pub fn p10(samples: &[f64]) -> f64 {
    p10_sorted(&sorted(samples))
}

/// Median: the mean of the two middle elements for even `n`.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// What is printed beside every host-time metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub median: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            p10: p10_sorted(&s),
            median: median(&s),
            p90: rank_percentile(&s, 0.9),
        }
    }

    /// Share of rounds slower than 1.25 × p10: the contention the
    /// estimator filtered out (`bench.host.slow_mode_share`).
    pub fn slow_share(samples: &[f64]) -> f64 {
        let cut = 1.25 * p10(samples);
        samples.iter().filter(|&&x| x > cut).count() as f64 / samples.len() as f64
    }
}

/// Relative quartile spread `(Q3 - Q1) / median`, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// acceptance rule of the benchmark contract, reproduced so `selfcheck`
/// judges by the same number.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        // Position k(n+1)/4, 1-based; the index is clamped to the
        // sample range and the line through the two neighbours is
        // extended past it, as CPython does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)).abs() / med.abs()
    }
}

/// Times `blocks` blocks of `ops` operations each and returns the p10
/// nanoseconds per operation. `block` runs one block and must pass its
/// inputs and results through `black_box` itself.
pub fn time_blocks(blocks: usize, ops: usize, mut block: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let t = std::time::Instant::now();
        block();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    p10(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p10_is_second_smallest_below_twenty_samples() {
        assert_eq!(p10(&[5.0]), 5.0);
        assert_eq!(p10(&[5.0, 3.0]), 5.0);
        let v: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(p10(&v), 2.0);
    }

    #[test]
    fn p10_is_rank_ceil_tenth_from_twenty_samples() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(p10(&v), 2.0, "ceil(0.1 * 20) = 2");
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(p10(&v), 3.0, "ceil(0.1 * 21) = 3");
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(p10(&v), 15.0);
    }

    #[test]
    fn median_and_p90() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.p90), (10, 1.0, 9.0));
        assert_eq!(s.p10, 2.0);
    }

    #[test]
    fn slow_share_counts_rounds_above_the_fast_mode() {
        let mut v = vec![1.0; 30];
        v.extend([1.5; 10]);
        assert_eq!(Summary::slow_share(&v), 0.25);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] in
        // CPython; clamped interpolation gives the same.
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
