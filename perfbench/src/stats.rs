//! Order statistics for the benchmark's reports.

/// Tail percentiles the helper may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A reported tail: which percentile, its value, and its support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reported (100 means "the maximum": too few samples
    /// for any percentile of the ladder).
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50)
/// that has at least [`MIN_BEYOND`] samples beyond its nearest rank.
/// With too few samples for any of them the maximum is reported, with
/// `percentile` 100 and `beyond` 0. Infinite samples (failed
/// requests) sort last, so they count as missing every limit.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    for p in LADDER {
        // Nearest rank: the smallest rank r with r/n ≥ p/100 (the
        // slack absorbs rounding in p·n/100).
        let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
        if n - rank >= MIN_BEYOND {
            return Tail { percentile: p, value: s[rank - 1], beyond: n - rank, samples: n };
        }
    }
    Tail { percentile: 100.0, value: s[n - 1], beyond: 0, samples: n }
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
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 has only 9 beyond, so p95 is reported.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        // 10 000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.9);
        assert_eq!(tail(&xs).beyond, 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[2.0, 7.0, 5.0]);
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (100.0, 7.0, 0, 3));
        // 20 samples: p50 (rank 10) is the first with 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in xs.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert!(tail(&xs).value.is_infinite());
    }
}
