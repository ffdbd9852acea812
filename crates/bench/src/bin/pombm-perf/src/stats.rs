//! Sample summaries: median, quartiles and the sample count.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles`, the method the benchmark's spread rule is
//! stated in, so a quartile printed here is the one a reader recomputes.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail it claims to describe is a guess.
pub const MIN_BEYOND: usize = 10;

/// The summary of one metric over the units of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile, when [`MIN_BEYOND`] samples lie below it.
    pub p25: Option<f64>,
    /// Third quartile, when [`MIN_BEYOND`] samples lie above it.
    pub p75: Option<f64>,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            median: quantile(&sorted, 0.5),
            p25: reportable(n, 0.25).then(|| quantile(&sorted, 0.25)),
            p75: reportable(n, 0.75).then(|| quantile(&sorted, 0.75)),
            n,
        }
    }
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond quantile
/// `q`: below it for a lower quantile, above it for an upper one.
pub fn reportable(n: usize, q: f64) -> bool {
    let tail = if q < 0.5 { q } else { 1.0 - q };
    (n as f64 * tail).floor() as usize >= MIN_BEYOND
}

/// Quantile `q` of an ascending sample by the exclusive method: position
/// `(n + 1)·q` between the two nearest ranks, the lower rank clamped to
/// `1..n-1` exactly as Python clamps it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (n as f64 + 1.0) * q;
    let lower = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - lower as f64;
    sorted[lower - 1] + (sorted[lower] - sorted[lower - 1]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.25), 2.75);
        assert_eq!(quantile(&sorted, 0.5), 5.5);
        assert_eq!(quantile(&sorted, 0.75), 8.25);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.75), 4.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!reportable(39, 0.75));
        assert!(reportable(40, 0.75));
        assert!(reportable(40, 0.25));
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        assert!(reportable(20, 0.5));
        let short = Summary::of(&[1.0; 39]);
        assert_eq!((short.p25, short.p75, short.n), (None, None, 39));
        let long: Vec<f64> = (0..40).map(f64::from).collect();
        let s = Summary::of(&long);
        assert_eq!((s.p25, s.p75), (Some(9.25), Some(29.75)));
    }
}
