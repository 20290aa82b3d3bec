//! Fixed-bin-width histograms of communication times.
//!
//! A [`Histogram`] is the concrete representation of the "performance
//! distributions" (plotted as PDFs) that MPIBench produces and that PEVPM
//! samples from. Bins are half-open intervals `[origin + i*width, origin +
//! (i+1)*width)`. Observations below `origin` are clamped into bin 0 (they
//! can only arise from clock-sync error injection); observations beyond the
//! last bin extend the histogram, so the tail — including the retransmission
//! timeout outliers the paper highlights — is always retained exactly.

use crate::summary::Summary;
use rand::Rng;

/// Maximum number of bins a histogram will allocate. Guards against
/// degenerate bin widths blowing up memory; outliers beyond this range are
/// clamped into the final bin (and still included in the summary).
pub const MAX_BINS: usize = 4_000_000;

/// A fixed-bin-width histogram over `f64` values (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    origin: f64,
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
    /// Exact summary of every observation added (not binned).
    summary: Summary,
}

impl Histogram {
    /// Create an empty histogram with bins starting at `origin` and the
    /// given `bin_width`.
    ///
    /// # Panics
    /// Panics if `bin_width` is not strictly positive and finite.
    pub fn new(origin: f64, bin_width: f64) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin_width must be positive and finite, got {bin_width}"
        );
        assert!(origin.is_finite(), "origin must be finite");
        Histogram {
            origin,
            bin_width,
            counts: Vec::new(),
            total: 0,
            summary: Summary::new(),
        }
    }

    /// Build a histogram from samples, choosing the origin as the sample
    /// minimum and the given bin width.
    pub fn from_samples(samples: &[f64], bin_width: f64) -> Self {
        let origin = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let origin = if origin.is_finite() { origin } else { 0.0 };
        let mut h = Histogram::new(origin, bin_width);
        for &s in samples {
            h.add(s);
        }
        h
    }

    /// Bin start coordinate (left edge of bin 0).
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// Width of every bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Number of allocated bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the histogram has no observations.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact (unbinned) summary statistics of all added observations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the bin containing `x` (after clamping below `origin` and
    /// above [`MAX_BINS`]).
    fn bin_index(&self, x: f64) -> usize {
        if x <= self.origin {
            return 0;
        }
        let idx = ((x - self.origin) / self.bin_width) as usize;
        idx.min(MAX_BINS - 1)
    }

    /// Left edge of bin `i`.
    pub fn bin_left(&self, i: usize) -> f64 {
        self.origin + i as f64 * self.bin_width
    }

    /// Midpoint of bin `i`.
    pub fn bin_mid(&self, i: usize) -> f64 {
        self.origin + (i as f64 + 0.5) * self.bin_width
    }

    /// Record an observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Histogram::add requires finite values");
        let idx = self.bin_index(x);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.summary.add(x);
    }

    /// Merge another histogram with identical geometry into this one.
    ///
    /// # Panics
    /// Panics if origins or bin widths differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.origin, other.origin, "histogram origins differ");
        assert_eq!(
            self.bin_width, other.bin_width,
            "histogram bin widths differ"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.summary.merge(&other.summary);
    }

    /// Probability mass of bin `i` (0 if out of range or empty histogram).
    pub fn pdf(&self, i: usize) -> f64 {
        if self.total == 0 || i >= self.counts.len() {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Iterate over `(bin_midpoint, probability_mass)` pairs, the series
    /// plotted in the paper's Figures 3 and 4.
    pub fn pdf_series(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.counts.len()).map(|i| (self.bin_mid(i), self.pdf(i)))
    }

    /// Cumulative probability of observing a value in bins `0..=i`.
    pub fn cdf(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let end = (i + 1).min(self.counts.len());
        let c: u64 = self.counts[..end].iter().sum();
        c as f64 / self.total as f64
    }

    /// Mode: midpoint of the most populated bin (first on ties).
    pub fn mode(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))?;
        Some(self.bin_mid(idx))
    }

    /// Inverse CDF at probability `q` with linear interpolation *within* the
    /// selected bin. `quantile(0.0)` = exact observed minimum, `quantile(1.0)`
    /// = exact observed maximum (from the unbinned summary), so the support
    /// of sampled values always matches the support of the data.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.summary.min();
        }
        if q == 1.0 {
            return self.summary.max();
        }
        let target = q * self.total as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= target {
                // Interpolate within bin i.
                let frac = (target - cum) / c as f64;
                let lo = self
                    .bin_left(i)
                    .max(self.summary.min().unwrap_or(self.bin_left(i)));
                let hi = (self.bin_left(i) + self.bin_width)
                    .min(self.summary.max().unwrap_or(f64::INFINITY));
                let hi = hi.max(lo);
                return Some(lo + frac * (hi - lo));
            }
            cum = next;
        }
        self.summary.max()
    }

    /// Draw a random value distributed according to the histogram
    /// (inverse-CDF a.k.a. Smirnov transform with intra-bin interpolation).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        self.quantile(rng.gen::<f64>())
    }

    /// Fraction of mass at or beyond `x` — used to quantify outlier tails
    /// (e.g. retransmission-timeout events).
    pub fn tail_mass(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let first = self.bin_index(x);
        let c: u64 = self.counts[first.min(self.counts.len())..].iter().sum();
        c as f64 / self.total as f64
    }

    /// Reassemble a histogram from serialised parts. `total` is recomputed
    /// from the counts; the summary carries the exact statistics.
    pub fn from_parts(origin: f64, bin_width: f64, counts: Vec<u64>, summary: Summary) -> Self {
        let total = counts.iter().sum();
        let mut h = Histogram::new(origin, bin_width);
        h.counts = counts;
        h.total = total;
        h.summary = summary;
        h
    }

    /// Rebin into a histogram with `factor`-times coarser bins (factor ≥ 1).
    /// Used by the bin-granularity ablation (Abl-bins).
    pub fn coarsen(&self, factor: usize) -> Histogram {
        assert!(factor >= 1, "coarsen factor must be >= 1");
        let mut h = Histogram::new(self.origin, self.bin_width * factor as f64);
        if !self.counts.is_empty() {
            h.counts = vec![0; self.counts.len().div_ceil(factor)];
            for (i, &c) in self.counts.iter().enumerate() {
                h.counts[i / factor] += c;
            }
        }
        h.total = self.total;
        h.summary = self.summary.clone();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn add_places_values_in_correct_bins() {
        let mut h = Histogram::new(0.0, 1.0);
        for x in [0.1, 0.9, 1.0, 1.5, 3.99] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 2, 0, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn below_origin_clamps_to_first_bin() {
        let mut h = Histogram::new(10.0, 1.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1]);
        // Summary keeps the exact value.
        assert_eq!(h.summary().min(), Some(5.0));
    }

    #[test]
    fn pdf_and_cdf_are_consistent() {
        let mut h = Histogram::new(0.0, 1.0);
        for x in [0.5, 0.5, 1.5, 2.5] {
            h.add(x);
        }
        assert!((h.pdf(0) - 0.5).abs() < 1e-12);
        assert!((h.pdf(1) - 0.25).abs() < 1e-12);
        assert!((h.cdf(0) - 0.5).abs() < 1e-12);
        assert!((h.cdf(2) - 1.0).abs() < 1e-12);
        let mass: f64 = h.pdf_series().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints_match_exact_extremes() {
        let samples = [1.02, 3.7, 2.2, 9.9, 4.4];
        let h = Histogram::from_samples(&samples, 0.5);
        assert_eq!(h.quantile(0.0), Some(1.02));
        assert_eq!(h.quantile(1.0), Some(9.9));
    }

    #[test]
    fn quantile_is_monotone() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 37.0) % 100.0).collect();
        let h = Histogram::from_samples(&samples, 1.0);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev - 1e-12, "quantile not monotone at {i}");
            prev = q;
        }
    }

    #[test]
    fn sampling_reproduces_mean() {
        let samples: Vec<f64> = (0..2000).map(|i| 100.0 + (i % 50) as f64).collect();
        let h = Histogram::from_samples(&samples, 1.0);
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 20000;
        let mean: f64 = (0..n).map(|_| h.sample(&mut rng).unwrap()).sum::<f64>() / n as f64;
        let true_mean = h.summary().mean().unwrap();
        assert!(
            (mean - true_mean).abs() / true_mean < 0.01,
            "sampled mean {mean} vs true {true_mean}"
        );
    }

    #[test]
    fn merge_matches_bulk_build() {
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..100).map(|i| 5.0 + i as f64 * 0.07).collect();
        let mut h1 = Histogram::new(0.0, 0.25);
        for &x in &a {
            h1.add(x);
        }
        let mut h2 = Histogram::new(0.0, 0.25);
        for &x in &b {
            h2.add(x);
        }
        h1.merge(&h2);

        let mut whole = Histogram::new(0.0, 0.25);
        for &x in a.iter().chain(b.iter()) {
            whole.add(x);
        }
        assert_eq!(h1.counts(), whole.counts());
        assert_eq!(h1.total(), whole.total());
        // Welford merge differs from sequential accumulation only by fp
        // rounding; compare moments with tolerance.
        let m1 = h1.summary().mean().unwrap();
        let m2 = whole.summary().mean().unwrap();
        assert!((m1 - m2).abs() < 1e-9);
        assert!(
            (h1.summary().variance().unwrap() - whole.summary().variance().unwrap()).abs() < 1e-9
        );
    }

    #[test]
    #[should_panic(expected = "bin widths differ")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 1.0);
        let b = Histogram::new(0.0, 2.0);
        a.merge(&b);
    }

    #[test]
    fn mode_picks_heaviest_bin() {
        let mut h = Histogram::new(0.0, 1.0);
        for x in [0.5, 2.5, 2.6, 2.7, 5.5] {
            h.add(x);
        }
        assert_eq!(h.mode(), Some(2.5));
    }

    #[test]
    fn tail_mass_counts_outliers() {
        let mut h = Histogram::new(0.0, 0.001);
        for _ in 0..99 {
            h.add(0.0001);
        }
        h.add(0.2); // RTO-like outlier
        assert!((h.tail_mass(0.1) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn coarsen_preserves_total_and_summary() {
        let samples: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let h = Histogram::from_samples(&samples, 0.01);
        let c = h.coarsen(10);
        assert_eq!(c.total(), h.total());
        assert_eq!(c.summary(), h.summary());
        assert!((c.bin_width() - 0.1).abs() < 1e-12);
        assert_eq!(
            c.counts().iter().sum::<u64>(),
            h.counts().iter().sum::<u64>()
        );
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new(0.0, 1.0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mode(), None);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(h.sample(&mut rng), None);
    }
}
