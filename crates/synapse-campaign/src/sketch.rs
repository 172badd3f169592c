//! Mergeable fixed-bucket quantile sketch.
//!
//! The live-aggregates plane ([`crate::live`]) needs per-slice
//! quantiles that can be (a) updated in O(1) per point, (b) merged
//! associatively across workers so a cluster run and a single-process
//! run agree, and (c) shipped over the wire in a few hundred bytes.
//! Exact order statistics need the whole series; this sketch trades a
//! bounded *relative* error for all three properties.
//!
//! The design is a sign-symmetric logarithmic histogram (the DDSketch
//! family): value magnitudes are bucketed by `ceil(log_γ(|v| /
//! MIN_MAG))` with γ = [`GAMMA`], negative values mirror into negative
//! bucket keys, and `|v| ≤ MIN_MAG` collapses into bucket 0. Bucket
//! keys ascend with value, so a rank walk over the sparse
//! `(key, count)` vector yields nearest-rank quantiles whose relative
//! error is at most [`RELATIVE_ERROR`] = (γ−1)/(γ+1) (< 1 %), plus
//! [`MIN_MAG`] of absolute slack around zero. Merging is bucket-wise
//! counter addition — exactly commutative, and associative up to f64
//! summation order in the exact moments carried alongside
//! (count/sum/min/max are tracked exactly; only quantiles are
//! approximate).

use serde_json::{json, Value};

/// Bucket growth factor: consecutive bucket boundaries differ by γ.
pub const GAMMA: f64 = 1.02;

/// Worst-case relative error of a quantile answer, (γ−1)/(γ+1).
pub const RELATIVE_ERROR: f64 = (GAMMA - 1.0) / (GAMMA + 1.0);

/// Magnitude floor: `|v| ≤ MIN_MAG` lands in the zero bucket, so
/// quantile answers also carry up to this much absolute slack.
pub const MIN_MAG: f64 = 1e-9;

/// A mergeable quantile sketch with exact first moments.
///
/// `count`, `sum`, `abs_sum`, `min` and `max` are exact; quantiles are
/// within [`RELATIVE_ERROR`] relative (plus [`MIN_MAG`] absolute)
/// error of the nearest-rank order statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Sparse log-γ buckets as `(key, count)`, sorted by key: key
    /// ascends with value, so iteration order is value order. A flat
    /// sorted vector because the hot operation is "bump the count
    /// under this key" two dozen times per landed point — a binary
    /// search over contiguous memory — while a new bucket (an insert
    /// in the middle) is rare and bounded by the value range.
    buckets: Vec<(i64, u64)>,
    count: u64,
    sum: f64,
    abs_sum: f64,
    min: f64,
    max: f64,
}

/// Bucket key for a value: 0 for near-zero, else the γ-log magnitude
/// index signed by the value. The same in every sketch, so a caller
/// folding one value into many ([`crate::live`]: a slice per axis)
/// works it out once and uses [`QuantileSketch::observe_keyed`].
pub(crate) fn key_of(v: f64) -> i64 {
    let mag = v.abs();
    if mag <= MIN_MAG {
        return 0;
    }
    let k = ((mag / MIN_MAG).ln() / GAMMA.ln()).ceil().max(1.0) as i64;
    if v < 0.0 {
        -k
    } else {
        k
    }
}

/// Representative value of a bucket: the midpoint (in relative terms)
/// of the magnitude range `(MIN_MAG·γ^(k−1), MIN_MAG·γ^k]`, which
/// bounds the error symmetrically at (γ−1)/(γ+1).
fn representative(key: i64) -> f64 {
    if key == 0 {
        return 0.0;
    }
    let mag = MIN_MAG * GAMMA.powi(key.unsigned_abs() as i32) * 2.0 / (1.0 + GAMMA);
    if key < 0 {
        -mag
    } else {
        mag
    }
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: Vec::new(),
            count: 0,
            sum: 0.0,
            abs_sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. O(log buckets); buckets are bounded by
    /// the value range, not the observation count.
    pub fn observe(&mut self, v: f64) {
        self.observe_keyed(v, key_of(v));
    }

    /// [`observe`](QuantileSketch::observe) with `key = key_of(v)`
    /// already in hand.
    pub(crate) fn observe_keyed(&mut self, v: f64, key: i64) {
        if !v.is_finite() {
            return; // simulator metrics are finite; never poison the sketch
        }
        self.add(key, 1);
        self.count += 1;
        self.sum += v;
        self.abs_sum += v.abs();
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Add `n` to the bucket under `key`, creating it in key order.
    fn add(&mut self, key: i64, n: u64) {
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (key, n)),
        }
    }

    /// Fold another sketch into this one. Bucket-wise addition:
    /// exactly commutative, and independent of how observations were
    /// split across the inputs.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for &(k, n) in &other.buckets {
            self.add(k, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.abs_sum += other.abs_sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact mean of absolute values (`None` when empty).
    pub fn mean_abs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.abs_sum / self.count as f64)
    }

    /// Exact minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile for `q ∈ [0, 1]`, within
    /// [`RELATIVE_ERROR`] relative + [`MIN_MAG`] absolute error of the
    /// exact order statistic ([`crate::Percentiles::of`] convention:
    /// rank `ceil(q·n)`, 1-indexed, floored at 1). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // Ranks 1 and n are the exact extremes — answer them exactly
        // instead of with their bucket representative.
        if rank <= 1 {
            return Some(self.min);
        }
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for &(k, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // The exact min/max are known: clamping costs nothing
                // and pins q=0/q=1 to the true extremes.
                return Some(representative(k).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The [`crate::Percentiles`] summary this sketch approximates:
    /// `n`/`mean`/`min`/`max` exact, `p50`/`p95`/`p99` within the
    /// sketch error bound. `None` when empty.
    pub fn percentiles(&self) -> Option<crate::Percentiles> {
        Some(crate::Percentiles {
            n: usize::try_from(self.count).ok().filter(|&n| n > 0)?,
            mean: self.mean()?,
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
            min: self.min,
            max: self.max,
        })
    }

    /// Wire digest: a JSON object with the exact moments and the
    /// sparse buckets as `[[key, count], ...]` pairs (ascending key).
    /// The shape is versioned by the enclosing protocol, not here.
    pub fn digest(&self) -> Value {
        let pairs: Vec<Value> = self
            .buckets
            .iter()
            .map(|&(k, n)| Value::Array(vec![json!(k), json!(n)]))
            .collect();
        let (min, max) = if self.count > 0 {
            (self.min, self.max)
        } else {
            (0.0, 0.0)
        };
        json!({
            "count": self.count,
            "sum": self.sum,
            "abs_sum": self.abs_sum,
            "min": min,
            "max": max,
            "buckets": Value::Array(pairs),
        })
    }

    /// Parse a [`QuantileSketch::digest`] back. `None` on any shape
    /// mismatch — callers treat a malformed digest as absent, never as
    /// an error that could wedge a lease.
    pub fn from_digest(v: &Value) -> Option<QuantileSketch> {
        let count = v.get("count")?.as_u64()?;
        if count == 0 {
            return Some(QuantileSketch::new());
        }
        let mut buckets: Vec<(i64, u64)> = Vec::new();
        let mut total = 0u64;
        for pair in v.get("buckets")?.as_array()? {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            let k = pair[0].as_i64()?;
            let n = pair[1].as_u64()?;
            // Pairs may come in any order; a repeated key may not.
            let Err(at) = buckets.binary_search_by_key(&k, |&(k, _)| k) else {
                return None;
            };
            if n == 0 {
                return None;
            }
            buckets.insert(at, (k, n));
            total = total.checked_add(n)?;
        }
        if total != count {
            return None;
        }
        let min = v.get("min")?.as_f64()?;
        let max = v.get("max")?.as_f64()?;
        if min > max {
            return None;
        }
        Some(QuantileSketch {
            buckets,
            count,
            sum: v.get("sum")?.as_f64()?,
            abs_sum: v.get("abs_sum")?.as_f64()?,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    /// The documented bound, with MIN_MAG slack for near-zero values.
    fn within_bound(sketch: f64, exact: f64) -> bool {
        (sketch - exact).abs() <= RELATIVE_ERROR * exact.abs() + MIN_MAG
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn exact_moments_are_exact() {
        let s = sketch_of(&[3.0, -1.0, 2.0, 0.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(1.0));
        assert_eq!(s.mean_abs(), Some(1.5));
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn quantiles_track_known_series_within_bound() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 / 7.0).collect();
        let s = sketch_of(&values);
        let exact = crate::Percentiles::of(&values).unwrap();
        for (q, e) in [(0.5, exact.p50), (0.95, exact.p95), (0.99, exact.p99)] {
            let got = s.quantile(q).unwrap();
            assert!(within_bound(got, e), "q={q}: got {got}, exact {e}");
        }
        assert_eq!(s.quantile(0.0), Some(values[0]), "clamped to exact min");
        assert_eq!(s.quantile(1.0), Some(values[999]), "clamped to exact max");
    }

    #[test]
    fn negative_and_zero_values_keep_value_order() {
        // Sorted: -50, -0.5, 0, 0.5, 50 — nearest rank 2/3/4 at
        // q = 0.25/0.5/0.75.
        let values = [0.5, -50.0, 0.0, 50.0, -0.5];
        let s = sketch_of(&values);
        let q25 = s.quantile(0.25).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        assert!(q25 < 0.0 && within_bound(q25, -0.5), "{q25}");
        assert!(q75 > 0.0 && within_bound(q75, 0.5), "{q75}");
        assert!(within_bound(s.quantile(0.5).unwrap(), 0.0));
        assert_eq!(s.quantile(0.0), Some(-50.0));
        assert_eq!(s.quantile(1.0), Some(50.0));
    }

    #[test]
    fn merge_is_commutative_and_split_merge_matches_the_whole() {
        let all: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin() * 40.0).collect();
        let (a, b) = (sketch_of(&all[..123]), sketch_of(&all[123..]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is exactly commutative");
        // Against the sequentially-built whole: every bucket-derived
        // answer is identical; only the running `sum` may differ in
        // f64 grouping, so the mean is compared with an ulp margin.
        let whole = sketch_of(&all);
        assert_eq!(ab.count(), whole.count());
        assert_eq!(ab.min(), whole.min());
        assert_eq!(ab.max(), whole.max());
        for q in [0.1, 0.25, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(ab.quantile(q), whole.quantile(q), "q={q}");
        }
        let (m, w) = (ab.mean().unwrap(), whole.mean().unwrap());
        assert!((m - w).abs() <= 1e-12 * w.abs().max(1.0), "{m} vs {w}");
    }

    #[test]
    fn digest_roundtrip() {
        let s = sketch_of(&[1.5, -2.5, 0.0, 1e6, 1e-12]);
        let back = QuantileSketch::from_digest(&s.digest()).unwrap();
        assert_eq!(back, s);
        let empty = QuantileSketch::from_digest(&QuantileSketch::new().digest()).unwrap();
        assert_eq!(empty, QuantileSketch::new());
    }

    #[test]
    fn malformed_digests_are_rejected() {
        let s = sketch_of(&[1.0, 2.0]);
        let mut d = s.digest();
        if let Value::Object(obj) = &mut d {
            obj.insert("count".into(), json!(99));
        }
        assert_eq!(
            QuantileSketch::from_digest(&d),
            None,
            "bucket total must match count"
        );
        assert_eq!(QuantileSketch::from_digest(&json!({"x": 1})), None);
        assert_eq!(QuantileSketch::from_digest(&json!(null)), None);
    }
}
