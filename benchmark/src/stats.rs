//! Order statistics over a handful of samples.
//!
//! Fifteen rounds support a median and quartiles and nothing above them:
//! a percentile needs at least ten samples beyond it, so no p90/p99 is
//! ever reported from this ledger.

use serde::{Deserialize, Serialize};

/// Five-number summary of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Samples summarised.
    pub n: u64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice (`p` in `[0, 1]`).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

impl Summary {
    /// Summarise `xs`; an empty input gives an all-zero summary.
    pub fn of(xs: &[f64]) -> Summary {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len() as u64,
            min: sorted.first().copied().unwrap_or(0.0),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Relative difference `|a - b| / min(|a|, |b|)`; 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

/// An estimate from the odd-numbered samples against the same estimate
/// from the even-numbered ones, as a relative difference: how far two
/// halves of one run, interleaved in time, disagree. With fewer than two
/// samples there is nothing to compare and the answer is 0.
pub fn split_half_diff(xs: &[f64], estimate: impl Fn(&[f64]) -> f64) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let odd: Vec<f64> = xs.iter().copied().step_by(2).collect();
    let even: Vec<f64> = xs.iter().copied().skip(1).step_by(2).collect();
    rel_diff(estimate(&odd), estimate(&even))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_takes_the_middle_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
    }

    #[test]
    fn even_count_interpolates() {
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert!((s.iqr_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[7.5]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert_eq!(s.iqr_ratio(), 0.0);
    }

    #[test]
    fn no_samples_summarise_to_zero() {
        let s = Summary::of(&[]);
        assert_eq!((s.n, s.median, s.iqr_ratio()), (0, 0.0, 0.0));
    }

    #[test]
    fn split_half_compares_interleaved_halves() {
        // Odd-position samples {1, 1, 1}, even-position {2, 2}.
        assert_eq!(split_half_diff(&[1.0, 2.0, 1.0, 2.0, 1.0], median), 1.0);
        assert_eq!(split_half_diff(&[3.0, 3.0, 3.0, 3.0], median), 0.0);
        assert_eq!(split_half_diff(&[3.0], median), 0.0);
    }

    #[test]
    fn rel_diff_is_symmetric_and_safe_at_zero() {
        assert_eq!(rel_diff(1.0, 1.1), rel_diff(1.1, 1.0));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
