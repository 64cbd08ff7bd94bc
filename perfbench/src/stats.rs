//! Sample statistics: the median and the tail-percentile rule.

/// Percentiles tried for the tail, highest first. The tail is the highest
/// of these that leaves at least [`MIN_BEYOND`] samples above it.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
///
/// Returns the sample at 1-based rank `⌈p/100 · n⌉` and the number of
/// samples ranked beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // The epsilon keeps float error in `p` (99.9 is inexact) from pushing an
    // exact rank up by one.
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Median (nearest-rank p50) of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(samples), 50.0).0
}

/// A tail percentile chosen by the ≥ [`MIN_BEYOND`] rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when there are too few samples for any.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    TAIL_LADDER.iter().find_map(|&percentile| {
        let (value, beyond) = nearest_rank(&sorted, percentile);
        (beyond >= MIN_BEYOND).then_some(Tail {
            percentile,
            value,
            beyond,
            samples: sorted.len(),
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 50.0), (50.0, 50));
        assert_eq!(nearest_rank(&s, 99.0), (99.0, 1));
        assert_eq!(nearest_rank(&s, 100.0), (100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 10 000 samples: p99.9 leaves 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
        // 999 samples: p99 leaves only 9, so p95 is used.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
    }

    #[test]
    fn tail_is_unreported_without_enough_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None, "even p50 leaves only 9 beyond");
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut s = ramp(500);
        s.reverse();
        assert_eq!(tail(&s), tail(&ramp(500)));
    }
}
