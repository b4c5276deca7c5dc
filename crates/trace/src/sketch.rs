//! A deterministic streaming quantile sketch with bounded *relative*
//! error, in the spirit of DDSketch: values are counted in logarithmic
//! buckets `(γ^(i-1), γ^i]` with `γ = (1+α)/(1-α)`, so any quantile
//! estimate is within `α` of the true sample value — regardless of how
//! many samples stream through — while memory stays bounded by the
//! *dynamic range* of the data, not its volume.
//!
//! Unlike randomized sketches (KLL, sampling reservoirs), bucketing is a
//! pure function of the value, so identical input streams produce
//! identical sketches in any order-preserving replay — exactly the
//! property the seed-sweep determinism harness asserts.

use std::collections::BTreeMap;

use faasim_simcore::{nearest_rank_index, Summary};

/// Smallest value tracked with relative error; anything below (including
/// zero) lands in a dedicated zero bucket reported as `0.0`.
const MIN_TRACKED: f64 = 1e-9;

/// Streaming quantile sketch with a guaranteed relative error bound.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Log-bucket counts, keyed by `ceil(ln(v) / ln γ)`. A `BTreeMap`
    /// keeps iteration (and therefore quantile walks and `Debug` output)
    /// deterministic.
    buckets: BTreeMap<i32, u64>,
    zeros: u64,
    /// Exact running count, sum, min and max of the (clamped) samples.
    summary: Summary,
}

impl QuantileSketch {
    /// A sketch whose quantile estimates are within `alpha` relative
    /// error (`0 < alpha < 1`) of the true sample values.
    pub fn new(alpha: f64) -> QuantileSketch {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zeros: 0,
            summary: Summary::new(),
        }
    }

    /// The default 1% relative-error sketch used by the replay harness.
    pub fn with_default_error() -> QuantileSketch {
        QuantileSketch::new(0.01)
    }

    /// The configured relative error bound `α`.
    pub fn relative_error(&self) -> f64 {
        self.alpha
    }

    /// Record one (non-negative) sample.
    pub fn insert(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.summary.record(v);
        if v < MIN_TRACKED {
            self.zeros += 1;
        } else {
            let idx = (v.ln() / self.ln_gamma).ceil() as i32;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    /// Exact count, mean, min and max of the samples recorded.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Mean of all samples (exact, not sketched).
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Number of live buckets — the sketch's memory footprint, bounded by
    /// the data's dynamic range, not the sample count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zeros > 0)
    }

    /// Estimate the `q`-quantile by the nearest-rank rule of
    /// [`faasim_simcore::nearest_rank`], so differential tests compare
    /// like with like. The estimate is within `α` relative error of the
    /// sample an exact sorted-vector lookup would return.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.summary.count();
        if count == 0 {
            return 0.0;
        }
        let target = nearest_rank_index(count, q) as u64;
        let mut cum = self.zeros;
        if target < cum {
            return 0.0;
        }
        for (&idx, &n) in &self.buckets {
            cum += n;
            if target < cum {
                // Harmonic midpoint of (γ^(i-1), γ^i]: relative error to
                // any value in the bucket is at most (γ-1)/(γ+1) = α.
                return 2.0 * self.gamma.powi(idx) / (self.gamma + 1.0);
            }
        }
        self.summary.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_zero() {
        let s = QuantileSketch::with_default_error();
        assert_eq!(s.summary().count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_within_bound() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(0.302);
        let est = s.p50();
        assert!((est - 0.302).abs() <= 0.01 * 0.302 + 1e-12, "est {est}");
    }

    #[test]
    fn uniform_ramp_quantiles_within_bound() {
        let mut s = QuantileSketch::new(0.01);
        let mut exact: Vec<f64> = Vec::new();
        for i in 1..=10_000u64 {
            let v = i as f64 / 1000.0;
            s.insert(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let idx = ((exact.len() - 1) as f64 * q).round() as usize;
            let truth = exact[idx];
            let est = s.quantile(q);
            assert!(
                (est - truth).abs() <= 0.01 * truth + 1e-12,
                "q={q}: est {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn zeros_are_exact() {
        let mut s = QuantileSketch::new(0.05);
        for _ in 0..10 {
            s.insert(0.0);
        }
        s.insert(5.0);
        assert_eq!(s.p50(), 0.0);
        let top = s.quantile(1.0);
        assert!((top - 5.0).abs() <= 0.05 * 5.0, "top {top}");
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = QuantileSketch::new(0.01);
        for i in 0..1_000_000u64 {
            // Six decades of dynamic range.
            s.insert(1e-3 + (i % 997) as f64);
        }
        assert!(s.bucket_count() < 2000, "buckets {}", s.bucket_count());
    }
}
