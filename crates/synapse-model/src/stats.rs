//! Statistics over repeated measurements.
//!
//! The paper reports means with error bars denoting a 99 % confidence
//! interval (E.3: "for all data points, the width of the confidence
//! interval is no more than 6.6 % of the value of the data point"), and
//! error percentages of emulation relative to application runs. This
//! module implements those computations with a small-sample Student-t
//! table for the 99 % level.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Two-sided Student-t critical values at the 99 % confidence level for
/// `df = 1..=30` degrees of freedom. Beyond 30 we fall back to the
/// normal quantile 2.576.
const T99: [f64; 30] = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
    2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
    2.771, 2.763, 2.756, 2.750,
];

/// Critical value of the two-sided 99 % Student-t distribution for the
/// given degrees of freedom (clamped to the normal quantile for large
/// `df`).
pub fn t99(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= T99.len() {
        T99[df - 1]
    } else {
        2.576
    }
}

/// Summary statistics of a series of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n = 1).
    pub std: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a series. Errors on an empty input or non-finite data.
    pub fn of(values: &[f64]) -> Result<Summary, ModelError> {
        if values.is_empty() {
            return Err(ModelError::EmptySeries);
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(ModelError::InvalidValue {
                field: "values",
                reason: format!("non-finite observation {bad}"),
            });
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Summary {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        })
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.std / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the 99 % confidence interval of the mean.
    /// Zero for a single observation with zero variance convention
    /// would be misleading, so `n = 1` yields infinity (unknown spread).
    pub fn ci99(&self) -> f64 {
        if self.n <= 1 {
            if self.std == 0.0 && self.n == 1 {
                // A single noiseless (deterministic) observation: the
                // interval collapses.
                return 0.0;
            }
            return f64::INFINITY;
        }
        t99(self.n - 1) * self.stderr()
    }

    /// Relative CI half-width (CI99 / |mean|), the "width no more than
    /// 6.6 % of the value" check from E.3. `None` when the mean is 0.
    pub fn ci99_rel(&self) -> Option<f64> {
        if self.mean == 0.0 {
            None
        } else {
            Some(self.ci99() / self.mean.abs())
        }
    }

    /// Coefficient of variation (std / |mean|). `None` when mean is 0.
    pub fn cv(&self) -> Option<f64> {
        if self.mean == 0.0 {
            None
        } else {
            Some(self.std / self.mean.abs())
        }
    }
}

/// Convenience: 99 % CI half-width of a raw series.
pub fn ci99_halfwidth(values: &[f64]) -> Result<f64, ModelError> {
    Ok(Summary::of(values)?.ci99())
}

/// Error percentage of a measured value against a reference, as the
/// paper's second y-axes report it: `|measured - reference| /
/// reference * 100`.
///
/// Returns `None` when the reference is zero (undefined).
pub fn error_pct(measured: f64, reference: f64) -> Option<f64> {
    diff_pct(measured, reference).map(f64::abs)
}

/// Signed difference percentage (`(measured - reference) / reference *
/// 100`), used where the paper distinguishes faster vs slower (E.2:
/// Stampede converges to ~-40 %, Archer to ~+33 %). The one place the
/// workspace writes a relative error.
#[inline]
pub fn diff_pct(measured: f64, reference: f64) -> Option<f64> {
    if reference == 0.0 {
        None
    } else {
        Some((measured - reference) / reference * 100.0)
    }
}

/// Online mean/variance accumulator (Welford). Used by watchers that
/// summarize high-frequency raw readings between samples without
/// storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Running sample variance (n-1; 0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Running sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Known dataset: population std = 2, sample std = sqrt(32/7)
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn summary_rejects_empty_and_nonfinite() {
        assert!(matches!(Summary::of(&[]), Err(ModelError::EmptySeries)));
        assert!(Summary::of(&[1.0, f64::NAN]).is_err());
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn single_observation_summary() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci99(), 0.0);
    }

    #[test]
    fn t_table_monotone_and_converging() {
        assert!(t99(1) > t99(2));
        assert!(t99(5) > t99(30));
        assert!((t99(1000) - 2.576).abs() < 1e-12);
        assert!(t99(0).is_infinite());
    }

    #[test]
    fn ci99_matches_hand_computation() {
        // n = 5, std = 1 -> ci = t99(4) / sqrt(5)
        let vals = [0.0, 0.5, 1.0, 1.5, 2.0];
        let s = Summary::of(&vals).unwrap();
        let expect = t99(4) * s.std / (5f64).sqrt();
        assert!((s.ci99() - expect).abs() < 1e-12);
    }

    #[test]
    fn relative_ci_and_cv() {
        let s = Summary::of(&[10.0, 10.0, 10.0, 10.0]).unwrap();
        assert_eq!(s.ci99_rel(), Some(0.0));
        assert_eq!(s.cv(), Some(0.0));
        let z = Summary::of(&[-1.0, 1.0]).unwrap();
        assert!(z.ci99_rel().is_none()); // mean is zero
    }

    #[test]
    fn error_and_diff_percentages() {
        assert!((error_pct(140.0, 100.0).unwrap() - 40.0).abs() < 1e-12);
        assert!((error_pct(60.0, 100.0).unwrap() - 40.0).abs() < 1e-12);
        assert!((diff_pct(60.0, 100.0).unwrap() + 40.0).abs() < 1e-12);
        assert!(error_pct(1.0, 0.0).is_none());
        assert!(diff_pct(1.0, 0.0).is_none());
    }

    #[test]
    fn welford_agrees_with_summary() {
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for v in vals {
            w.push(v);
        }
        let s = Summary::of(&vals).unwrap();
        assert!((w.mean() - s.mean).abs() < 1e-12);
        assert!((w.std() - s.std).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert_eq!(w.variance(), 0.0);
        let mut w1 = Welford::new();
        w1.push(7.0);
        assert_eq!(w1.mean(), 7.0);
        assert_eq!(w1.std(), 0.0);
    }
}
