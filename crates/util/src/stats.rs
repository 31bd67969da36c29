//! Small statistical helpers: running moments and geometric means.
//!
//! DCPerf's suite-level score is "the geometric mean of all benchmark's
//! scores" (§3.1), and hook time-series (CPU utilization, power samples)
//! need a streaming mean, min and max without storing every sample — both live here.

/// Streaming mean/min/max accumulator.
///
/// # Examples
///
/// ```
/// use dcperf_util::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert_eq!((s.min(), s.max()), (2.0, 9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n2 = other.n as f64;
        let total = self.n as f64 + n2;
        self.mean += (other.mean - self.mean) * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Geometric mean of a slice of positive values.
///
/// This is the suite-level aggregation DCPerf uses for its overall score.
/// Returns `None` if the slice is empty or any value is non-positive or
/// non-finite (a geomean over such values is meaningless).
///
/// # Examples
///
/// ```
/// use dcperf_util::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0, 16.0]).unwrap();
/// assert!((g - 4.0).abs() < 1e-12);
/// assert!(geometric_mean(&[]).is_none());
/// assert!(geometric_mean(&[1.0, 0.0]).is_none());
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for &v in values {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        log_sum += v.ln();
    }
    Some((log_sum / values.len() as f64).exp())
}

/// Weighted geometric mean: `exp(Σ wᵢ ln xᵢ / Σ wᵢ)`.
///
/// The paper weighs production workload scores "by each workload's power
/// consumption in our fleet" (§4.1); this is the aggregation used there.
///
/// Returns `None` on empty input, length mismatch, non-positive values, or
/// non-positive total weight.
pub fn weighted_geometric_mean(values: &[f64], weights: &[f64]) -> Option<f64> {
    if values.is_empty() || values.len() != weights.len() {
        return None;
    }
    let mut log_sum = 0.0;
    let mut w_sum = 0.0;
    for (&v, &w) in values.iter().zip(weights) {
        if !(v.is_finite() && v > 0.0 && w.is_finite() && w >= 0.0) {
            return None;
        }
        log_sum += w * v.ln();
        w_sum += w;
    }
    if w_sum <= 0.0 {
        return None;
    }
    Some((log_sum / w_sum).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn running_stats_matches_direct_computation() {
        let xs = [3.5, -1.0, 10.0, 0.25, 6.75, 2.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 50.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert_eq!((a.min(), a.max()), (whole.min(), whole.max()));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(5.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn geomean_basic() {
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[7.0]).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_degenerate_input() {
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
        assert!(geometric_mean(&[f64::NAN]).is_none());
        assert!(geometric_mean(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn weighted_geomean_reduces_to_geomean_with_equal_weights() {
        let vals = [1.5, 2.5, 9.0];
        let w = [1.0, 1.0, 1.0];
        let a = weighted_geometric_mean(&vals, &w).unwrap();
        let b = geometric_mean(&vals).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn weighted_geomean_weighting_pulls_toward_heavy_item() {
        let vals = [1.0, 100.0];
        let light = weighted_geometric_mean(&vals, &[1.0, 1.0]).unwrap();
        let heavy = weighted_geometric_mean(&vals, &[1.0, 9.0]).unwrap();
        assert!(heavy > light);
    }

    #[test]
    fn weighted_geomean_rejects_mismatch() {
        assert!(weighted_geometric_mean(&[1.0], &[]).is_none());
        assert!(weighted_geometric_mean(&[1.0], &[0.0]).is_none());
        assert!(weighted_geometric_mean(&[], &[]).is_none());
    }
}
