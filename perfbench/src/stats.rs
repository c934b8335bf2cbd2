//! Order statistics for reporting timings.

/// Median (mean of the two middle values for an even count).
/// Panics on an empty slice: every reported timing has a sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail is chosen from, in per-mille, highest last.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
const BEYOND: usize = 10;

/// The tail of a timing distribution: the highest percentile of
/// [`LADDER`] that has at least ten samples beyond it, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 90.0). 100.0 when fewer than 20 samples
    /// support no percentile of the ladder; `value` is then the maximum.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Tail of `values` (see [`Tail`]), with the sample count.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank, in whole numbers so that e.g. p90 of 100 samples
    // is rank 90 with exactly 10 beyond it.
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    match LADDER.iter().rev().find(|&&p| n - rank(p) >= BEYOND) {
        Some(&p) => Tail {
            pct: p as f64 / 10.0,
            value: v[rank(p) - 1],
            n,
        },
        None => Tail {
            pct: 100.0,
            value: v[n - 1],
            n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 40 samples: p75 leaves 10 beyond, p90 only 4.
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value), (75.0, 30.0));
        // 30 samples: only the median has 10 beyond.
        let t = tail(&ramp(30));
        assert_eq!((t.pct, t.value), (50.0, 15.0));
    }

    #[test]
    fn tail_without_support_reports_the_maximum() {
        let t = tail(&ramp(19));
        assert_eq!((t.pct, t.value, t.n), (100.0, 19.0, 19));
        let t = tail(&[7.0]);
        assert_eq!((t.pct, t.value, t.n), (100.0, 7.0, 1));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 20..3000 {
            let v = ramp(n);
            let t = tail(&v);
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n}: {t:?} has {beyond} beyond");
        }
    }
}
