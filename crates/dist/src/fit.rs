//! Parametric fits to measured communication-time distributions.
//!
//! §2 of the paper notes that "it is also possible to use parametrised
//! functions to model the PDFs, based on fits to the histograms using
//! standard functions". Communication-time distributions have a hard lower
//! bound (the contention-free minimum), a peak near the mean and a rapidly
//! decaying right tail, so the natural candidates are *shifted* (three- or
//! two-parameter) versions of right-skewed families:
//!
//! - [`FitKind::ShiftedExponential`] — `min + Exp(λ)`;
//! - [`FitKind::ShiftedLogNormal`] — `min + LogNormal(μ, σ)`;
//! - [`FitKind::ShiftedGamma`] — `min + Gamma(k, θ)`.
//!
//! All are fitted by the method of moments against the histogram's exact
//! summary statistics, which is fast, deterministic and adequate for the
//! modelling use-case (PEVPM only needs to *sample* from the fit).

use crate::histogram::Histogram;
use crate::summary::Summary;
use rand::Rng;

/// The quantile at a rendered fit's top edge, `1 - 2^-30`.
const RENDER_TOP_Q: f64 = 1.0 - 1.0 / (1u64 << 30) as f64;

/// The mass a rendered fit counts, `2^40`: enough that rounding a knot's
/// cumulative mass to a whole count moves it by far less than the render
/// error.
const RENDER_MASS: u64 = 1 << 40;

/// Documented bound on a rendered fit's inverse CDF relative to
/// [`ParametricFit::quantile`] over `q ≤ 0.999`. Asserted by
/// `tests/prop_compiled.rs`.
pub const RENDER_REL_ERROR: f64 = 1e-3;

/// The most times [`ParametricFit::cdf_knots`] halves its range: a bin
/// this deep is kept whatever its error, so the render always ends.
const RENDER_DEPTH: u32 = 64;

/// Families of parametric distribution used to model communication times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitKind {
    /// `shift + Exponential(rate)`.
    ShiftedExponential,
    /// `shift + LogNormal(mu, sigma)`.
    ShiftedLogNormal,
    /// `shift + Gamma(shape, scale)`.
    ShiftedGamma,
}

/// A fitted parametric model of a communication-time distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricFit {
    /// Which family this fit belongs to.
    pub kind: FitKind,
    /// Location shift (the contention-free minimum time).
    pub shift: f64,
    /// First shape parameter: rate (exp), mu (log-normal), shape k (gamma).
    pub p1: f64,
    /// Second shape parameter: unused (exp, set to 0), sigma (log-normal),
    /// scale theta (gamma).
    pub p2: f64,
}

impl ParametricFit {
    /// Fit the given family to a histogram by the method of moments, using
    /// the histogram's exact summary (min/mean/variance).
    ///
    /// Returns `None` for an empty histogram or one with zero variance that
    /// the family cannot represent (a degenerate point mass is representable
    /// by every family via a zero-scale limit, which we encode explicitly).
    pub fn fit(kind: FitKind, hist: &Histogram) -> Option<ParametricFit> {
        Self::fit_summary(kind, hist.summary())
    }

    /// Fit from summary statistics directly.
    pub fn fit_summary(kind: FitKind, s: &Summary) -> Option<ParametricFit> {
        if s.is_empty() {
            return None;
        }
        let min = s.min()?;
        let mean = s.mean()?;
        let var = s.variance()?;
        // Excess over the hard minimum. Nudge the shift slightly below min so
        // the minimum itself has positive density under the fit.
        let shift = min;
        let m = (mean - shift).max(1e-300);
        match kind {
            FitKind::ShiftedExponential => {
                // E[X-shift] = 1/rate.
                Some(ParametricFit {
                    kind,
                    shift,
                    p1: 1.0 / m,
                    p2: 0.0,
                })
            }
            FitKind::ShiftedLogNormal => {
                if var <= 0.0 {
                    return Some(ParametricFit {
                        kind,
                        shift,
                        p1: m.ln(),
                        p2: 0.0,
                    });
                }
                // For LogNormal: mean = exp(mu + s^2/2), var = (exp(s^2)-1)exp(2mu+s^2).
                let cv2 = var / (m * m);
                let sigma2 = (1.0 + cv2).ln();
                let mu = m.ln() - sigma2 / 2.0;
                Some(ParametricFit {
                    kind,
                    shift,
                    p1: mu,
                    p2: sigma2.sqrt(),
                })
            }
            FitKind::ShiftedGamma => {
                if var <= 0.0 {
                    // Degenerate: point mass at mean, encoded as huge shape.
                    return Some(ParametricFit {
                        kind,
                        shift,
                        p1: f64::INFINITY,
                        p2: 0.0,
                    });
                }
                // mean = k*theta, var = k*theta^2.
                let theta = var / m;
                let k = m / theta;
                Some(ParametricFit {
                    kind,
                    shift,
                    p1: k,
                    p2: theta,
                })
            }
        }
    }

    /// Mean of the fitted distribution.
    pub fn mean(&self) -> f64 {
        match self.kind {
            FitKind::ShiftedExponential => self.shift + 1.0 / self.p1,
            FitKind::ShiftedLogNormal => self.shift + (self.p1 + self.p2 * self.p2 / 2.0).exp(),
            FitKind::ShiftedGamma => {
                if self.p1.is_infinite() {
                    self.shift
                } else {
                    self.shift + self.p1 * self.p2
                }
            }
        }
    }

    /// Variance of the fitted distribution.
    pub fn variance(&self) -> f64 {
        match self.kind {
            FitKind::ShiftedExponential => 1.0 / (self.p1 * self.p1),
            FitKind::ShiftedLogNormal => {
                let s2 = self.p2 * self.p2;
                (s2.exp() - 1.0) * (2.0 * self.p1 + s2).exp()
            }
            FitKind::ShiftedGamma => {
                if self.p1.is_infinite() {
                    0.0
                } else {
                    self.p1 * self.p2 * self.p2
                }
            }
        }
    }

    /// CDF of the fitted distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let y = x - self.shift;
        if y <= 0.0 {
            return 0.0;
        }
        match self.kind {
            FitKind::ShiftedExponential => 1.0 - (-self.p1 * y).exp(),
            FitKind::ShiftedLogNormal => {
                if self.p2 == 0.0 {
                    return if y.ln() >= self.p1 { 1.0 } else { 0.0 };
                }
                normal_cdf((y.ln() - self.p1) / self.p2)
            }
            FitKind::ShiftedGamma => {
                if self.p1.is_infinite() {
                    return 1.0;
                }
                gamma_cdf(self.p1, y / self.p2)
            }
        }
    }

    /// Inverse CDF at `q` (clamped to `[0, 1]`) by numerical bisection.
    ///
    /// This is the *exact* (to f64 bisection convergence) quantile: 80
    /// halvings of a bracket that starts at `mean + 20σ` and doubles until
    /// it covers `q`. It places the top knot of
    /// [`ParametricFit::cdf_knots`], and it is the reference a rendered fit
    /// is checked against.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.shift;
        }
        let mut lo = self.shift;
        let mut hi = self.mean() + 20.0 * self.variance().sqrt().max(1e-12);
        while self.cdf(hi) < q && hi - self.shift < 1e12 {
            hi = self.shift + (hi - self.shift) * 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// This fit rendered as a piecewise-linear CDF, the form a fitted cell
    /// is compiled and drawn in by the one inverse CDF every cell shares.
    /// Knots `(x, count)` run from `(shift, 0)` to `(quantile(1 - 2^-30),
    /// 2^40)`; each count is `round(cdf(x) · 2^40)`, and the top knot takes
    /// the rest of the mass. The bin between two knots is drawn as a
    /// histogram bin is, by linear interpolation.
    ///
    /// Knots are placed by halving `[shift, top]`. A bin is kept once, at
    /// its quarter points and midpoint, interpolating its CDF puts each
    /// point within a quarter of [`RENDER_REL_ERROR`] times the bin's left
    /// edge of where the fit's CDF does, or once the whole bin is that
    /// narrow. Bins so fall dense where the density bends, as near the
    /// shift of a heavy tail, and sparse where it is nearly straight. For
    /// a positive shift, the render's quantiles up to `q = 0.999` stay
    /// within [`RENDER_REL_ERROR`] of [`ParametricFit::quantile`], relative
    /// to it. `None` where the shift or the top edge is not finite.
    pub fn cdf_knots(&self) -> Option<Vec<(f64, u64)>> {
        let top = self.quantile(RENDER_TOP_Q);
        if !(self.shift.is_finite() && top.is_finite()) {
            return None;
        }
        let tol = RENDER_REL_ERROR / 4.0;
        let mid = 0.5 * (self.shift + top);
        let mut knots = vec![(self.shift, 0.0)];
        // Bins to decide, leftmost last, each starting at the last knot
        // kept: its midpoint and right edge, each with its CDF, and depth.
        let mut todo = vec![((mid, self.cdf(mid)), (top, self.cdf(top)), 0)];
        while let Some(((m, fm), (b, fb), depth)) = todo.pop() {
            let (a, fa) = knots[knots.len() - 1];
            let (l, r) = (0.5 * (a + m), 0.5 * (m + b));
            let (fl, fr) = (self.cdf(l), self.cdf(r));
            // At a point `t` of the way across, the interpolated quantile
            // of the CDF there lies `width · miss / mass` from the point.
            let miss = |t: f64, f: f64| (fa + t * (fb - fa) - f).abs();
            let miss = miss(0.25, fl).max(miss(0.5, fm)).max(miss(0.75, fr));
            let (width, room) = (b - a, tol * a.abs());
            if depth == RENDER_DEPTH || width <= room || width * miss <= room * (fb - fa) {
                knots.push((b, fb));
            } else {
                todo.push(((r, fr), (b, fb), depth + 1));
                todo.push(((l, fl), (m, fm), depth + 1));
            }
        }
        let mut below = 0;
        let mut knots: Vec<(f64, u64)> = knots
            .into_iter()
            .map(|(x, cdf)| {
                // A CDF approximation that dips by a rounding step counts
                // 0 more.
                let count = (cdf.clamp(0.0, 1.0) * RENDER_MASS as f64).round() as u64;
                below = count.max(below);
                (x, below)
            })
            .collect();
        if let Some(top) = knots.last_mut() {
            top.1 = RENDER_MASS;
        }
        Some(knots)
    }

    /// Draw one sample from the fitted distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.kind {
            FitKind::ShiftedExponential => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                self.shift - u.ln() / self.p1
            }
            FitKind::ShiftedLogNormal => {
                let z = sample_standard_normal(rng);
                self.shift + (self.p1 + self.p2 * z).exp()
            }
            FitKind::ShiftedGamma => {
                if self.p1.is_infinite() {
                    self.shift
                } else {
                    self.shift + sample_gamma(rng, self.p1) * self.p2
                }
            }
        }
    }
}

impl ParametricFit {
    /// Kolmogorov–Smirnov distance between this fit's CDF and a
    /// histogram's binned empirical CDF (evaluated at bin right edges).
    pub fn ks_to_histogram(&self, hist: &Histogram) -> f64 {
        if hist.is_empty() {
            return 0.0;
        }
        let mut d: f64 = 0.0;
        for i in 0..hist.num_bins() {
            let x = hist.bin_left(i) + hist.bin_width();
            d = d.max((self.cdf(x) - hist.cdf(i)).abs());
        }
        d
    }

    /// Fit all three families and return the one with the smallest KS
    /// distance to the histogram, together with that distance. `None` for
    /// an empty histogram.
    ///
    /// This automates §2's "parametrised functions to model the PDFs,
    /// based on fits to the histograms using standard functions": a fitted
    /// database is hundreds of times smaller than the raw histograms while
    /// (for unimodal distributions) predicting nearly as well — see the
    /// `abl_fit_models` bench.
    pub fn best_fit(hist: &Histogram) -> Option<(ParametricFit, f64)> {
        [
            FitKind::ShiftedExponential,
            FitKind::ShiftedLogNormal,
            FitKind::ShiftedGamma,
        ]
        .into_iter()
        .filter_map(|kind| {
            let f = ParametricFit::fit(kind, hist)?;
            let ks = f.ks_to_histogram(hist);
            ks.is_finite().then_some((f, ks))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, ample for fitting/QC purposes).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function, Abramowitz & Stegun 7.1.26.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Sample a standard normal via the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample Gamma(shape, 1) via Marsaglia–Tsang, with the boost trick for
/// shape < 1.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "gamma shape must be positive"
    );
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Regularised lower incomplete gamma function P(a, x) by series/continued
/// fraction (Numerical Recipes style).
pub fn gamma_cdf(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a,x) = 1 - P(a,x).
        let mut b = x + 1.0 - a;
        let mut c = 1e308;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = (an * d + b).recip_guard();
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

trait RecipGuard {
    fn recip_guard(self) -> f64;
}
impl RecipGuard for f64 {
    fn recip_guard(self) -> f64 {
        if self.abs() < 1e-300 {
            1e300
        } else {
            1.0 / self
        }
    }
}

/// Natural log of the gamma function (Lanczos approximation).
pub fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 7] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
        0.0,
    ];
    let mut ser = 1.000000000190015;
    let mut denom = x;
    for g in G.iter().take(6) {
        denom += 1.0;
        ser += g / denom;
    }
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    -tmp + (2.5066282746310005 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ecdf;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn hist_from(xs: &[f64]) -> Histogram {
        Histogram::from_samples(xs, 0.01)
    }

    #[test]
    fn exponential_fit_matches_moments() {
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 + (i as f64 + 0.5) / 500.0).collect();
        let h = hist_from(&xs);
        let f = ParametricFit::fit(FitKind::ShiftedExponential, &h).unwrap();
        assert!((f.shift - h.summary().min().unwrap()).abs() < 1e-12);
        assert!((f.mean() - h.summary().mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn lognormal_fit_matches_mean_and_variance() {
        let mut rng = SmallRng::seed_from_u64(7);
        let truth = ParametricFit {
            kind: FitKind::ShiftedLogNormal,
            shift: 2.0,
            p1: -1.0,
            p2: 0.5,
        };
        let xs: Vec<f64> = (0..20000).map(|_| truth.sample(&mut rng)).collect();
        let h = hist_from(&xs);
        let f = ParametricFit::fit(FitKind::ShiftedLogNormal, &h).unwrap();
        assert!((f.mean() - h.summary().mean().unwrap()).abs() < 1e-6);
        let fitted_total_var = f.variance();
        let data_var = h.summary().variance().unwrap();
        assert!(
            (fitted_total_var - data_var).abs() / data_var < 1e-6,
            "var mismatch: {fitted_total_var} vs {data_var}"
        );
    }

    #[test]
    fn gamma_fit_matches_mean_and_variance() {
        let mut rng = SmallRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..20000)
            .map(|_| 0.5 + sample_gamma(&mut rng, 3.0) * 0.2)
            .collect();
        let h = hist_from(&xs);
        let f = ParametricFit::fit(FitKind::ShiftedGamma, &h).unwrap();
        assert!((f.mean() - h.summary().mean().unwrap()).abs() < 1e-9);
        assert!((f.variance() - h.summary().variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn sampling_from_fit_recovers_fit_moments() {
        let mut rng = SmallRng::seed_from_u64(11);
        for kind in [
            FitKind::ShiftedExponential,
            FitKind::ShiftedLogNormal,
            FitKind::ShiftedGamma,
        ] {
            let f = match kind {
                FitKind::ShiftedExponential => ParametricFit {
                    kind,
                    shift: 1.0,
                    p1: 2.0,
                    p2: 0.0,
                },
                FitKind::ShiftedLogNormal => ParametricFit {
                    kind,
                    shift: 1.0,
                    p1: 0.0,
                    p2: 0.3,
                },
                FitKind::ShiftedGamma => ParametricFit {
                    kind,
                    shift: 1.0,
                    p1: 4.0,
                    p2: 0.25,
                },
            };
            let n = 40000;
            let mean: f64 = (0..n).map(|_| f.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - f.mean()).abs() / f.mean() < 0.02,
                "{kind:?}: sampled mean {mean} vs analytic {}",
                f.mean()
            );
        }
    }

    #[test]
    fn cdf_of_samples_is_consistent_ks() {
        let mut rng = SmallRng::seed_from_u64(13);
        let f = ParametricFit {
            kind: FitKind::ShiftedGamma,
            shift: 0.0,
            p1: 2.5,
            p2: 1.0,
        };
        let xs: Vec<f64> = (0..5000).map(|_| f.sample(&mut rng)).collect();
        let e = Ecdf::new(&xs);
        let d = e.ks_distance_to(|x| f.cdf(x));
        // KS ~ 1.36/sqrt(n) at 5%: allow generous margin.
        assert!(d < 0.03, "KS distance {d} too large");
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn gamma_cdf_reference_values() {
        // Gamma(1, x) is Exp(1): CDF(1) = 1 - e^-1.
        assert!((gamma_cdf(1.0, 1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        // Gamma(k) median sanity: CDF at mean is a bit above 0.5 for small k.
        let c = gamma_cdf(3.0, 3.0);
        assert!(c > 0.5 && c < 0.7, "gamma_cdf(3,3) = {c}");
        assert_eq!(gamma_cdf(2.0, 0.0), 0.0);
    }

    #[test]
    fn ln_gamma_reference_values() {
        // ln Γ(1) = 0, ln Γ(2) = 0, ln Γ(5) = ln 24.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn best_fit_picks_the_generating_family() {
        let mut rng = SmallRng::seed_from_u64(21);
        // Strongly skewed exponential data: exponential should win (or at
        // worst gamma with shape ~1, which is the same family).
        let truth = ParametricFit {
            kind: FitKind::ShiftedExponential,
            shift: 1.0,
            p1: 10.0,
            p2: 0.0,
        };
        let xs: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        let h = hist_from(&xs);
        let (fit, ks) = ParametricFit::best_fit(&h).unwrap();
        assert!(ks < 0.05, "best fit KS too large: {ks}");
        assert!((fit.mean() - h.summary().mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn ks_to_histogram_detects_bad_fits() {
        // Bimodal data: no single shifted family fits well.
        let mut xs = vec![1.0; 500];
        xs.extend(std::iter::repeat_n(10.0, 500));
        let h = Histogram::from_samples(&xs, 0.1);
        let (_, ks) = ParametricFit::best_fit(&h).unwrap();
        assert!(ks > 0.15, "bimodal data should fit poorly, ks = {ks}");
    }

    #[test]
    fn best_fit_of_empty_histogram_is_none() {
        let h = Histogram::new(0.0, 1.0);
        assert!(ParametricFit::best_fit(&h).is_none());
    }

    #[test]
    fn degenerate_zero_variance_input() {
        let h = hist_from(&[2.0, 2.0, 2.0]);
        for kind in [
            FitKind::ShiftedExponential,
            FitKind::ShiftedLogNormal,
            FitKind::ShiftedGamma,
        ] {
            let f = ParametricFit::fit(kind, &h).unwrap();
            let mut rng = SmallRng::seed_from_u64(3);
            let s = f.sample(&mut rng);
            assert!(s >= 2.0 - 1e-9, "{kind:?} sampled {s} below the minimum");
        }
    }

    #[test]
    fn empty_histogram_yields_no_fit() {
        let h = Histogram::new(0.0, 1.0);
        assert!(ParametricFit::fit(FitKind::ShiftedGamma, &h).is_none());
    }
}
