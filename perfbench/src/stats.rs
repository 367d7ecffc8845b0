//! Order statistics for timing samples.

use std::fmt;

/// Samples a tail percentile needs strictly beyond it before it is
/// reported (the percentile's rank leaves at least this many larger
/// samples).
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail percentile was asked of too few samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    pub percentile: u32,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it; at least {} are required",
            self.percentile, self.samples, self.beyond, MIN_BEYOND_TAIL
        )
    }
}

/// Nearest-rank percentile: the smallest sample with at least
/// `p`% of the samples at or below it, and how many samples lie beyond
/// that rank.
fn nearest_rank(sorted: &[f64], percentile: u32) -> (f64, usize) {
    let n = sorted.len();
    let rank = (percentile as usize * n).div_ceil(100).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count). `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Tail percentile that refuses to answer unless at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(samples: &[f64], percentile: u32) -> Result<f64, TooFewSamples> {
    let v = sorted(samples);
    let (value, beyond) = if v.is_empty() {
        (f64::NAN, 0)
    } else {
        nearest_rank(&v, percentile)
    };
    if beyond < MIN_BEYOND_TAIL {
        return Err(TooFewSamples {
            percentile,
            samples: v.len(),
            beyond,
        });
    }
    Ok(value)
}

/// Smallest sample count for which [`tail`] answers at `percentile`.
pub fn min_samples_for(percentile: u32) -> usize {
    (1..)
        .find(|&n| n - (percentile as usize * n).div_ceil(100).clamp(1, n) >= MIN_BEYOND_TAIL)
        .expect("some sample count leaves enough beyond any percentile below 100")
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_requires_ten_samples_beyond() {
        // p80 of 49 samples: rank 40, 9 beyond -> refused.
        let err = tail(&ramp(49), 80).unwrap_err();
        assert_eq!(err.beyond, 9);
        // p80 of 50 samples: rank 40, 10 beyond -> answered.
        assert_eq!(tail(&ramp(50), 80), Ok(39.0));
        // p90 needs 100 samples.
        assert!(tail(&ramp(99), 90).is_err());
        assert_eq!(tail(&ramp(100), 90), Ok(89.0));
        assert!(tail(&[], 50).is_err());
    }

    #[test]
    fn min_samples_matches_the_tail_rule() {
        for p in [50, 80, 90, 95] {
            let n = min_samples_for(p);
            assert!(tail(&ramp(n), p).is_ok(), "p{p} at n={n}");
            assert!(tail(&ramp(n - 1), p).is_err(), "p{p} at n={}", n - 1);
        }
        assert_eq!(min_samples_for(80), 50);
        assert_eq!(min_samples_for(90), 100);
    }
}
