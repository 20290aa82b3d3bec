//! Streaming summary statistics.
//!
//! [`Summary`] uses Welford's online algorithm so it can accumulate millions
//! of observations in O(1) memory with good numerical behaviour. It is used
//! by MPIBench to report the min/average rows that conventional benchmarks
//! (Mpptest, SKaMPI, Pallas) would produce, alongside the full histograms.

/// Online summary of a stream of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Build a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(
            x.is_finite(),
            "Summary::add requires finite values, got {x}"
        );
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another summary into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample (Bessel-corrected) variance, or `None` if fewer than 2 points.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean (uses sample variance).
    pub fn stderr_mean(&self) -> Option<f64> {
        self.sample_variance()
            .map(|v| (v / self.count as f64).sqrt())
    }

    /// Coefficient of variation (stddev / mean), or `None` if mean is 0/empty.
    pub fn cv(&self) -> Option<f64> {
        match (self.stddev(), self.mean()) {
            (Some(s), Some(m)) if m != 0.0 => Some(s / m),
            _ => None,
        }
    }

    /// Decompose into `(count, mean, m2, min, max, sum)` for serialisation.
    pub fn to_parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max, self.sum)
    }

    /// Reassemble from the parts produced by [`Summary::to_parts`].
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> Self {
        Summary {
            count,
            mean,
            m2,
            min,
            max,
            sum,
        }
    }
}

/// Compute the `q`-quantile (0 ≤ q ≤ 1) of a **sorted** slice using linear
/// interpolation between order statistics (type-7 quantile, the R default).
///
/// Panics in debug builds if the slice is not sorted.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "slice must be sorted"
    );
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_reports_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.stddev(), None);
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.add(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
        assert_eq!(s.variance(), Some(0.0));
        assert_eq!(s.sample_variance(), None);
    }

    #[test]
    fn known_moments() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), Some(5.0));
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((s.stddev().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let whole = Summary::from_slice(&xs);
        let mut a = Summary::from_slice(&xs[..37]);
        let b = Summary::from_slice(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&xs, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&xs, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&xs, -1.0), Some(1.0));
        assert_eq!(quantile_sorted(&xs, 2.0), Some(3.0));
    }

    #[test]
    fn stderr_shrinks_with_n() {
        let a = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let many: Vec<f64> = std::iter::repeat_n([1.0, 2.0, 3.0, 4.0], 100)
            .flatten()
            .collect();
        let b = Summary::from_slice(&many);
        assert!(b.stderr_mean().unwrap() < a.stderr_mean().unwrap());
    }
}
