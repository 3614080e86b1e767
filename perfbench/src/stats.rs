//! The order statistics the benchmark reports.
//!
//! Percentiles are nearest-rank: the reported value is always one of the
//! samples, so a tail figure never interpolates between two latencies
//! that were actually observed.

/// How many samples must lie beyond a reported tail percentile, counted
/// in flushes: in a batched workload the queries of one flush share a
/// latency, so ten samples from one flush are still one observation.
pub const TAIL_FLUSHES: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank with at least `p`% of samples at or
/// below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    // The small epsilon keeps e.g. 0.99 · 100 = 99.00000000000001 from
    // rounding up to rank 100.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median (nearest-rank p50) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Median, or NaN when nothing was measured (the runner then names the
/// metric as missing).
pub fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Whether `n` samples, taken in flushes of `per_flush` queries that
/// share one latency, support percentile `p`: at least
/// [`TAIL_FLUSHES`] whole flushes must lie beyond it.
pub fn tail_supported(n: usize, per_flush: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_FLUSHES * per_flush.max(1)
}

/// The fewest flushes of `per_flush` queries that support percentile
/// `p` by [`tail_supported`].
pub fn tail_flushes(per_flush: usize, p: f64) -> u64 {
    let per_flush = per_flush.max(1);
    (1..)
        .find(|&f| tail_supported(f * per_flush, per_flush, p))
        .expect("some flush count supports any p < 100") as u64
}

/// The part of `total` its measured `parts` do not account for. Shown,
/// not hidden: a large remainder is work no layer metric covers.
pub fn remainder(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        assert_eq!(percentile(&[3.5], 50.0), 3.5);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
    }

    #[test]
    fn exact_products_do_not_round_up_a_rank() {
        // 0.99 · 100 is 99.00000000000001 in f64; the rank stays 99.
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(3, 50.0), 2);
    }

    #[test]
    fn median_sorts_first_and_takes_the_lower_middle() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_for_single_queries() {
        // p99 of 1000: rank 990, ten beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(tail_supported(1000, 1, 99.0));
        assert!(!tail_supported(999, 1, 99.0));
        assert!(!tail_supported(0, 1, 99.0));
    }

    #[test]
    fn tail_needs_ten_flushes_beyond_for_batches() {
        // 64-query flushes: p80 needs 640 samples beyond, i.e. 50 flushes.
        assert!(tail_supported(50 * 64, 64, 80.0));
        assert!(!tail_supported(49 * 64, 64, 80.0));
        // The same count of single queries would have sufficed for p99.
        assert!(tail_supported(49 * 64, 1, 99.0));
        assert_eq!(tail_flushes(64, 80.0), 50);
        assert_eq!(tail_flushes(64, 90.0), 100);
        assert_eq!(tail_flushes(1, 99.0), 1000);
    }

    #[test]
    fn remainder_is_what_the_parts_leave() {
        // register 154 = decompose 41 + plan 49 + remainder 64.
        assert_eq!(remainder(154.0, &[41.0, 49.0]), 64.0);
        assert_eq!(remainder(4.0, &[]), 4.0);
        // Parts that overshoot show as a negative remainder.
        assert_eq!(remainder(10.0, &[6.0, 5.0]), -1.0);
    }
}
