//! The compiled sampling fast path: allocation-free Monte-Carlo draws.
//!
//! [`crate::DistTable`] is the flexible, mutable benchmark database, but its
//! query path allocates four `Vec`s per draw (size axis, size axis as f64,
//! per-column contention axis, neighbour list) and walks histogram counts
//! linearly to invert the CDF. PEVPM draws one sample *per message*, so for
//! a 64-process Jacobi run the interpreted path performs millions of
//! allocations per evaluation.
//!
//! [`CompiledTable`] is an immutable compilation of a `DistTable` that
//! removes all of that:
//!
//! - per-op size axes and per-column contention axes are flattened into
//!   sorted slices, so neighbour selection is pure `partition_point` with
//!   zero allocation;
//! - each [`crate::CommDist`] becomes a [`CompiledDist`]: histograms carry
//!   inclusive cumulative counts plus a [`GUIDE_CELLS`]-entry guide table
//!   (cut-point method), turning the inverse CDF into an `O(1)` start index
//!   and a short forward scan that lands on the same bin as the interpreted
//!   linear walk, so the result is **bitwise identical** to it (cumulative
//!   counts are integers below 2^53, so the float prefix is exact). It is
//!   lane-batched (`W = 1` is one lane): one pass scans every lane up to a
//!   `+∞` sentinel bin, a second interpolates them all; parametric fits
//!   carry a monotone quantile lookup table with linear interpolation,
//!   replacing the 80-iteration CDF bisection per draw (the exact bisection
//!   is retained for the tail beyond [`LUT_TAIL_Q`] and, with
//!   [`CompileOptions::exact_quantiles`], for every draw);
//! - a query splits into *resolve* ([`CompiledTable::resolve`]: bracket
//!   the up-to-4 neighbour cells and weigh them, once per `(op, size,
//!   contention)`) and *quantile* (the inverse CDF, once per draw), so a
//!   caller drawing several variates from one query point pays for the
//!   lookup once. The blended minimum rides along as a field of the
//!   resolved cell. The table keeps no memo of its own: resolving is a
//!   pure function, and a caller that repeats queries (the VM, whose
//!   contention is a small-integer scoreboard population) keeps the
//!   answers it needs, without a lock;
//! - the draws of one query point are taken together
//!   ([`ResolvedCell::quantiles`], one lane per variate): the distribution
//!   kind is dispatched once per neighbour cell, not once per lane, and
//!   the inverse CDF is compiled into the calling crate (`#[inline]`); a
//!   cell named twice by a blend is inverted once; and the per-cell
//!   results ([`CellParts`]) carry over to a later resolution of the same
//!   draws, which differs only in its weights wherever the same cells
//!   bracket it. Unit weights (an on-grid cell) skip the divide exactly.
//!
//! Compilation also *validates* the table: an empty histogram (nothing to
//! sample) is a hard [`CompileError`] instead of a silent 0.0 draw.
//!
//! The contract, enforced by property tests (`tests/prop_compiled.rs`):
//! for histogram and point distributions, `CompiledTable::sample_at`
//! matches `DistTable::sample_at` **draw-for-draw on the same RNG stream**
//! (bitwise). For `Fit` distributions the LUT introduces a bounded
//! interpolation error: relative error ≤ [`LUT_REL_ERROR`] against the
//! exact bisection for quantiles in `[0, LUT_TAIL_Q]` at [`LUT_POINTS`]
//! knots (tail quantiles always use the exact bisection).

use crate::fit::ParametricFit;
use crate::table::{size_weight_log2, CommDist, DistKey, DistTable, Op};
use rand::Rng;

/// Quantile beyond which compiled `Fit` distributions fall back to the
/// exact bisection instead of the lookup table: the extreme right tail of
/// shifted-exponential/log-normal/gamma fits is too curved for uniform-grid
/// linear interpolation. 127/128 — exactly representable, so the LUT region
/// boundary is stable.
pub const LUT_TAIL_Q: f64 = 0.992_187_5;

/// Documented relative-error bound of the `Fit` quantile LUT against the
/// exact bisection over `q ∈ [0, LUT_TAIL_Q]` at [`LUT_POINTS`] knots.
/// Asserted by `tests/prop_compiled.rs`.
pub const LUT_REL_ERROR: f64 = 1e-3;

/// Knots in each `Fit` quantile lookup table (uniform in `q` over
/// `[0, LUT_TAIL_Q]`): enough to keep the relative interpolation error
/// under [`LUT_REL_ERROR`].
pub const LUT_POINTS: usize = 1025;

/// Errors raised while compiling a [`DistTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A grid cell holds a histogram with no observations: there is nothing
    /// to sample, and silently drawing 0.0 seconds would corrupt
    /// predictions.
    EmptyHistogram {
        /// The offending grid coordinate.
        key: DistKey,
    },
    /// A grid cell carries a NaN or infinite quantity (histogram geometry,
    /// fit parameter, point mass, or a quantile-LUT knot). Sampling it
    /// would propagate the poison into every blended prediction.
    NonFinite {
        /// The offending grid coordinate.
        key: DistKey,
        /// Which quantity was non-finite.
        what: &'static str,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EmptyHistogram { key } => write!(
                f,
                "empty histogram at op={} size={} contention={}: \
                 nothing to sample from",
                key.op, key.size, key.contention
            ),
            CompileError::NonFinite { key, what } => write!(
                f,
                "non-finite {what} at op={} size={} contention={}: \
                 refusing to compile a poisoned cell",
                key.op, key.size, key.contention
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Options controlling table compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileOptions {
    /// Answer every `Fit` quantile with the exact 80-iteration bisection
    /// instead of the lookup table (the CLI's `--exact-quantiles`). Slow;
    /// used to bound LUT error and for bit-exact reproduction of pre-LUT
    /// results.
    pub exact_quantiles: bool,
}

// -------------------------------------------------------------- dists --

/// Cells of the inverse-CDF guide table: cell `j` covers the quantiles
/// `[j/K, (j+1)/K)`. A power of two, so `q * K` is exact and the cell of
/// `q` is decided without rounding.
pub const GUIDE_CELLS: usize = 256;

/// One histogram bin, laid out for the inverse CDF: everything the
/// interpolation reads sits next to the cumulative count the scan compares.
#[derive(Debug, Clone, PartialEq)]
struct Bin {
    /// The predecessor's `cum` (0 for the first bin).
    prev: f64,
    /// Inclusive cumulative count of bins `0..=i`. Counts are integers far
    /// below 2^53, so the value is exact and comparisons against
    /// `q * total` are bitwise identical to the interpreted running-sum
    /// walk in [`crate::Histogram::quantile`].
    cum: f64,
    /// Left edge clamped to the observed minimum.
    lo: f64,
    /// Clamped right edge minus `lo` (never negative).
    span: f64,
}

/// A histogram compiled for `O(1)` exact inverse-CDF evaluation.
///
/// `guide[j]` is the first bin whose cumulative count reaches
/// `(j / K) * total`. A quantile `q` in cell `j` has `q >= j/K` exactly
/// (`q * K` is a power-of-two scaling), and rounding is monotone, so
/// `q * total >= (j/K) * total` as computed: the bin of `q` is never left
/// of `guide[j]`, and a forward scan from there stops on exactly the bin a
/// binary search — or the interpreted walk — would have found. `bins` ends
/// in a sentinel whose count is `+∞`, so no scan runs off the end.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHist {
    bins: Vec<Bin>,
    /// `GUIDE_CELLS + 1` entries: `q = 1` has a cell of its own.
    guide: Vec<u32>,
    total: f64,
    min: f64,
    max: f64,
    mean: f64,
}

impl CompiledHist {
    fn new(h: &crate::Histogram, min: f64, max: f64, mean: f64) -> Self {
        let mut bins = Vec::with_capacity(h.counts().len() + 1);
        let mut running: u64 = 0;
        for (i, &c) in h.counts().iter().enumerate() {
            let prev = running as f64;
            running += c;
            let left = h.origin() + i as f64 * h.bin_width();
            let lo = left.max(min);
            let hi = (left + h.bin_width()).min(max).max(lo);
            bins.push(Bin {
                prev,
                cum: running as f64,
                lo,
                span: hi - lo,
            });
        }
        let total = h.total() as f64;
        // Past every real bin: interpolates to `max` at any finite target.
        bins.push(Bin {
            prev: running as f64,
            cum: f64::INFINITY,
            lo: max,
            span: 0.0,
        });
        let mut guide = Vec::with_capacity(GUIDE_CELLS + 1);
        let mut i = 0usize;
        for j in 0..=GUIDE_CELLS {
            let cut = (j as f64 / GUIDE_CELLS as f64) * total;
            while bins[i].cum < cut {
                i += 1;
            }
            guide.push(i as u32);
        }
        CompiledHist {
            bins,
            guide,
            total,
            min,
            max,
            mean,
        }
    }

    /// The inverse CDF of every lane, each bitwise
    /// [`crate::Histogram::quantile`] (a NaN lane answers `max`, as the
    /// interpreted walk does).
    #[inline]
    #[allow(clippy::needless_range_loop)]
    fn quantiles<const W: usize>(&self, q: &[f64; W]) -> [f64; W] {
        let mut bin = [0usize; W];
        let mut target = [0.0; W];
        for l in 0..W {
            let q = q[l].clamp(0.0, 1.0);
            let t = q * self.total;
            // First bin whose inclusive cumulative count reaches `t`: never
            // a zero-count bin (it shares its predecessor's count), as in the
            // interpreted walk. `as i32` is one instruction where `as usize`
            // branches on baseline x86-64; a NaN lane lands in cell 0.
            let mut i = self.guide[(q * GUIDE_CELLS as f64) as i32 as usize] as usize;
            i += (self.bins[i].cum < t) as usize;
            i += (self.bins[i].cum < t) as usize;
            while self.bins[i].cum < t {
                i += 1;
            }
            (bin[l], target[l]) = (i, t);
        }
        let mut out = [0.0; W];
        for l in 0..W {
            let b = &self.bins[bin[l]];
            let frac = (target[l] - b.prev) / (b.cum - b.prev);
            out[l] = if q[l] <= 0.0 {
                self.min
            } else if q[l] < 1.0 {
                b.lo + frac * b.span
            } else {
                self.max
            };
        }
        out
    }
}

/// A parametric fit compiled to a monotone quantile lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFit {
    fit: ParametricFit,
    /// Quantile knots at `q = k * LUT_TAIL_Q / (len - 1)`; empty in
    /// exact-quantiles mode.
    lut: Vec<f64>,
    mean: f64,
    min: f64,
}

impl CompiledFit {
    #[inline]
    fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.fit.shift;
        }
        if self.lut.is_empty() || q > LUT_TAIL_Q {
            return self.fit.quantile(q);
        }
        let t = q * (self.lut.len() - 1) as f64 / LUT_TAIL_Q;
        let i = (t as usize).min(self.lut.len() - 2);
        let frac = t - i as f64;
        self.lut[i] + frac * (self.lut[i + 1] - self.lut[i])
    }
}

/// One grid distribution compiled for fast repeated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledDist {
    /// Empirical histogram with a cumulative-count prefix array.
    Hist(CompiledHist),
    /// Parametric fit with a quantile lookup table.
    Fit(CompiledFit),
    /// Degenerate point mass.
    Point(f64),
}

/// Flip the lowest mantissa bit of a finite non-zero value — a one-ULP
/// divergence between the compiled and interpreted sampling paths, used
/// to prove the conformance harness actually detects compiled-path bugs.
#[cfg(feature = "divergence-injection")]
fn divergence_nudge(v: f64) -> f64 {
    if v.is_finite() && v != 0.0 {
        f64::from_bits(v.to_bits() ^ 1)
    } else {
        v
    }
}

impl CompiledDist {
    /// Compile one distribution; `key` names the cell in errors.
    pub fn compile(
        key: DistKey,
        dist: &CommDist,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        let finite = |v: f64, what: &'static str| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(CompileError::NonFinite { key, what })
            }
        };
        Ok(match dist {
            CommDist::Hist(h) => {
                if h.is_empty() {
                    return Err(CompileError::EmptyHistogram { key });
                }
                finite(h.origin(), "histogram origin")?;
                finite(h.bin_width(), "histogram bin width")?;
                CompiledDist::Hist(CompiledHist::new(
                    h,
                    finite(h.summary().min().unwrap_or(0.0), "histogram min")?,
                    finite(h.summary().max().unwrap_or(0.0), "histogram max")?,
                    finite(h.summary().mean().unwrap_or(0.0), "histogram mean")?,
                ))
            }
            CommDist::Fit(f) => {
                finite(f.shift, "fit shift")?;
                finite(f.p1, "fit parameter p1")?;
                finite(f.p2, "fit parameter p2")?;
                let lut = if opts.exact_quantiles {
                    Vec::new()
                } else {
                    (0..LUT_POINTS)
                        .map(|k| {
                            finite(
                                f.quantile(k as f64 * LUT_TAIL_Q / (LUT_POINTS - 1) as f64),
                                "fit quantile-LUT knot",
                            )
                        })
                        .collect::<Result<Vec<f64>, CompileError>>()?
                };
                CompiledDist::Fit(CompiledFit {
                    mean: finite(f.mean(), "fit mean")?,
                    min: f.shift,
                    fit: f.clone(),
                    lut,
                })
            }
            CommDist::Point(v) => CompiledDist::Point(finite(*v, "point mass")?),
        })
    }

    /// Inverse CDF at `q` (clamped to `[0, 1]`). Bitwise identical to
    /// [`CommDist::quantile`] for `Hist`/`Point`; LUT-approximate for
    /// `Fit` unless compiled with `exact_quantiles`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles(&[q])[0]
    }

    /// [`CompiledDist::quantile`] of every lane of `q`, each bitwise the
    /// scalar call: the kind is dispatched once for all lanes and the
    /// inverse CDF is compiled into the caller's crate, next to its loop.
    #[inline]
    pub fn quantiles<const W: usize>(&self, q: &[f64; W]) -> [f64; W] {
        let v = match self {
            CompiledDist::Hist(h) => h.quantiles(q),
            CompiledDist::Fit(f) => q.map(|q| f.quantile(q)),
            CompiledDist::Point(v) => [*v; W],
        };
        #[cfg(feature = "divergence-injection")]
        let v = v.map(divergence_nudge);
        v
    }

    /// Mean of the distribution (precomputed at compile time; bitwise
    /// identical to [`CommDist::mean`]).
    pub fn mean(&self) -> f64 {
        match self {
            CompiledDist::Hist(h) => h.mean,
            CompiledDist::Fit(f) => f.mean,
            CompiledDist::Point(v) => *v,
        }
    }

    /// Minimum (0-quantile; bitwise identical to [`CommDist::min`]).
    pub fn min(&self) -> f64 {
        match self {
            CompiledDist::Hist(h) => h.min,
            CompiledDist::Fit(f) => f.min,
            CompiledDist::Point(v) => *v,
        }
    }
}

// -------------------------------------------------------------- blend --

/// Up to four neighbour distributions with bilinear weights: the compiled,
/// fixed-size analogue of the interpreted `Vec<(&CommDist, f64)>`.
#[derive(Debug, Clone, Copy, Default)]
struct Blend {
    /// Cells `idx[..n]`, zero past `n`: equal cells, equal arrays.
    idx: [u32; 4],
    w: [f64; 4],
    n: u8,
    /// Sum of `w`, accumulated in index order.
    wsum: f64,
    /// Blended minimum (the 0-quantile), filled in with `wsum` when the
    /// blend is built.
    min: f64,
}

impl Blend {
    #[inline]
    fn push(&mut self, idx: u32, w: f64) {
        self.idx[self.n as usize] = idx;
        self.w[self.n as usize] = w;
        self.n += 1;
    }
}

/// Index-returning variant of [`crate::table::bracket`] over a
/// pre-flattened f64 axis.
/// Axes hold distinct values, so the value-level and index-level brackets
/// select identical neighbours.
#[inline]
fn bracket_idx(axis: &[f64], x: f64) -> Option<(usize, usize, f64)> {
    // Mirror `bracket`: NaN has no bracket (and would index out of
    // bounds below, since it compares false against everything).
    if axis.is_empty() || x.is_nan() {
        return None;
    }
    let n = axis.len();
    if x <= axis[0] {
        return Some((0, 0, 0.0));
    }
    if x >= axis[n - 1] {
        return Some((n - 1, n - 1, 0.0));
    }
    let hi = axis.partition_point(|&a| a <= x);
    let (lo_f, hi_f) = (axis[hi - 1], axis[hi]);
    if (hi_f - lo_f).abs() < f64::EPSILON {
        return Some((hi - 1, hi, 0.0));
    }
    Some((hi - 1, hi, (x - lo_f) / (hi_f - lo_f)))
}

// ---------------------------------------------------------------- grid --

/// All distributions of one operation, flattened: `sizes` is the sorted
/// size axis; column `s` spans `dists[col_start[s]..col_start[s + 1]]`,
/// sorted by contention.
#[derive(Clone)]
struct OpGrid {
    op: Op,
    sizes: Vec<u64>,
    sizes_f: Vec<f64>,
    /// `log2(size + 1)` per size-axis point, for `size_weight_log2`.
    sizes_log2: Vec<f64>,
    col_start: Vec<u32>,
    conts: Vec<u32>,
    conts_f: Vec<f64>,
    dists: Vec<CompiledDist>,
    /// Distinct contention levels across all columns (the compiled
    /// equivalent of [`DistTable::contentions`]).
    all_conts: Vec<u32>,
}

impl std::fmt::Debug for OpGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpGrid")
            .field("op", &self.op)
            .field("sizes", &self.sizes)
            .field("cells", &self.dists.len())
            .finish()
    }
}

impl OpGrid {
    /// The up-to-four neighbours of `(size, contention)` with bilinear
    /// weights — the allocation-free mirror of `DistTable::neighbours`,
    /// replicating its iteration order and skip rules exactly (including
    /// degenerate zero-weight corners) so blended sums are bitwise equal.
    /// A NaN coordinate has no bracket, hence no blend.
    fn blend(&self, size: f64, contention: f64) -> Option<Blend> {
        let (i_lo, i_hi, _) = bracket_idx(&self.sizes_f, size)?;
        let (s_lo, s_hi) = (self.sizes[i_lo], self.sizes[i_hi]);
        let ws = size_weight_log2(self.sizes_log2[i_lo], self.sizes_log2[i_hi], size);
        let mut b = Blend::default();
        for (si, wsize) in [(i_lo, 1.0 - ws), (i_hi, ws)] {
            if wsize == 0.0 && s_lo != s_hi {
                continue;
            }
            let (c0, c1) = (self.col_start[si] as usize, self.col_start[si + 1] as usize);
            let Some((j_lo, j_hi, wc)) = bracket_idx(&self.conts_f[c0..c1], contention) else {
                continue;
            };
            let (c_lo, c_hi) = (self.conts[c0 + j_lo], self.conts[c0 + j_hi]);
            for (cj, wcont) in [(j_lo, 1.0 - wc), (j_hi, wc)] {
                if wcont == 0.0 && c_lo != c_hi {
                    continue;
                }
                b.push((c0 + cj) as u32, wsize * wcont);
            }
        }
        if b.n == 0 {
            return None;
        }
        for k in 0..b.n as usize {
            b.wsum += b.w[k];
        }
        if b.wsum > 0.0 {
            b.min = self.reduce(&b, CompiledDist::min);
        }
        Some(b)
    }

    /// Weighted reduction over the blend, mirroring the interpreted
    /// accumulation order so results stay bitwise identical. Callers
    /// check `wsum > 0` first.
    #[inline]
    fn reduce(&self, b: &Blend, mut f: impl FnMut(&CompiledDist) -> f64) -> f64 {
        let mut sum = 0.0;
        for k in 0..b.n as usize {
            sum += f(&self.dists[b.idx[k] as usize]) * b.w[k];
        }
        sum / b.wsum
    }
}

/// One `(op, size, contention)` query point resolved to its blended
/// neighbour cells: what every draw at that point shares. Resolve once,
/// then call [`ResolvedCell::quantile`] per variate, or
/// [`ResolvedCell::quantiles`] for several at once.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedCell<'t> {
    grid: &'t OpGrid,
    blend: Blend,
}

/// Each neighbour cell's inverse CDF of one draw vector, tagged with the
/// cells they came from — grid and cell indices, never the weights, which
/// is all that differs between two resolutions bracketed by the same
/// cells. One per draw vector: [`ResolvedCell::quantiles`] trusts that
/// whatever it finds here was inverted from the `u` it is given now.
#[derive(Debug, Clone, Copy)]
pub struct CellParts<'t, const W: usize> {
    grid: Option<&'t OpGrid>,
    idx: [u32; 4],
    n: u8,
    q: [[f64; W]; 4],
}

impl<const W: usize> Default for CellParts<'_, W> {
    /// Nothing inverted yet.
    fn default() -> Self {
        CellParts {
            grid: None,
            idx: [0; 4],
            n: 0,
            q: [[0.0; W]; 4],
        }
    }
}

impl<const W: usize> CellParts<'_, W> {
    /// Forget every inversion, in place, as if just made by `default`.
    pub fn clear(&mut self) {
        self.grid = None;
    }
}

impl<'t> ResolvedCell<'t> {
    /// Interpolated inverse CDF at probability `q`. Bitwise identical to
    /// [`DistTable::quantile_at`] for histogram/point grids.
    #[inline]
    pub fn quantile(&self, q: f64) -> f64 {
        self.grid.reduce(&self.blend, |d| d.quantile(q))
    }

    /// [`ResolvedCell::quantile`] of every lane of `u`, bit for bit, with
    /// each neighbour cell inverted at most once per draw vector: a cell
    /// named twice by this blend (a clamped axis repeats its end cell with
    /// weight zero) or already present in `parts` (an earlier resolution
    /// of the same draws at another contention level) is copied, not
    /// inverted again. `parts` is left describing this cell.
    #[inline]
    pub fn quantiles<const W: usize>(
        &self,
        u: &[f64; W],
        parts: &mut CellParts<'t, W>,
    ) -> [f64; W] {
        let b = &self.blend;
        let n = b.n as usize;
        let same_grid = parts.grid.is_some_and(|g| std::ptr::eq(g, self.grid));
        if !same_grid || parts.n != b.n || parts.idx != b.idx {
            // Set aside what may be reused: the loop overwrites it.
            let old = same_grid.then_some(*parts);
            for k in 0..n {
                let cell = b.idx[k];
                let carried = old.as_ref().and_then(|old| {
                    let j = old.idx[..old.n as usize].iter().position(|&i| i == cell)?;
                    Some(old.q[j])
                });
                parts.q[k] = if let Some(j) = b.idx[..k].iter().position(|&i| i == cell) {
                    parts.q[j]
                } else if let Some(q) = carried {
                    q
                } else {
                    self.grid.dists[cell as usize].quantiles(u)
                };
            }
            (parts.grid, parts.idx, parts.n) = (Some(self.grid), b.idx, b.n);
        }
        // `reduce`'s accumulation, lane by lane.
        let mut sum = [0.0; W];
        for k in 0..n {
            for (sum, part) in sum.iter_mut().zip(&parts.q[k]) {
                *sum += part * b.w[k];
            }
        }
        // `x / 1.0` is `x`, bit for bit.
        if b.wsum == 1.0 {
            return sum;
        }
        sum.map(|sum| sum / b.wsum)
    }

    /// Interpolated minimum (bitwise identical to [`DistTable::min_at`],
    /// and to `quantile(0.0)`): computed when the cell was first blended.
    #[inline]
    pub fn min(&self) -> f64 {
        self.blend.min
    }

    /// Interpolated mean (bitwise identical to [`DistTable::mean_at`]).
    pub fn mean(&self) -> f64 {
        self.grid.reduce(&self.blend, CompiledDist::mean)
    }
}

// --------------------------------------------------------------- table --

/// An immutable compilation of a [`DistTable`] for allocation-free queries.
///
/// Produced once by [`CompiledTable::compile`]; shared immutably (plain
/// data with no interior mutability, so parallel Monte-Carlo replication
/// workers query one `&CompiledTable` without synchronising).
#[derive(Debug, Clone)]
pub struct CompiledTable {
    /// Indexed by [`Op::index`]; `None` where the op has no data.
    grids: Vec<Option<OpGrid>>,
    options: CompileOptions,
    len: usize,
}

impl CompiledTable {
    /// Compile with default [`CompileOptions`].
    pub fn compile(table: &DistTable) -> Result<Self, CompileError> {
        Self::compile_with(table, CompileOptions::default())
    }

    /// Compile with explicit options. Validates the table: empty
    /// histograms are a hard error.
    pub fn compile_with(table: &DistTable, options: CompileOptions) -> Result<Self, CompileError> {
        // `DistTable::iter` yields keys in (op, size, contention) order, so
        // each op's grid streams out as complete size columns with sorted
        // contention levels — exactly the flat layout OpGrid wants.
        struct Builder {
            op: Op,
            sizes: Vec<u64>,
            col_start: Vec<u32>,
            conts: Vec<u32>,
            dists: Vec<CompiledDist>,
        }
        let mut builders: Vec<Option<Builder>> = (0..Op::ALL.len()).map(|_| None).collect();
        for (key, dist) in table.iter() {
            let b = builders[key.op.index()].get_or_insert_with(|| Builder {
                op: key.op,
                sizes: Vec::new(),
                col_start: Vec::new(),
                conts: Vec::new(),
                dists: Vec::new(),
            });
            if b.sizes.last() != Some(&key.size) {
                b.col_start.push(b.conts.len() as u32);
                b.sizes.push(key.size);
            }
            b.conts.push(key.contention);
            b.dists.push(CompiledDist::compile(key, dist, &options)?);
        }
        let mut len = 0usize;
        let mut grids: Vec<Option<OpGrid>> = (0..Op::ALL.len()).map(|_| None).collect();
        for (slot, b) in grids.iter_mut().zip(builders) {
            let Some(mut b) = b else { continue };
            b.col_start.push(b.conts.len() as u32);
            let mut all_conts = b.conts.clone();
            all_conts.sort_unstable();
            all_conts.dedup();
            len += b.dists.len();
            *slot = Some(OpGrid {
                op: b.op,
                sizes_f: b.sizes.iter().map(|&s| s as f64).collect(),
                sizes_log2: b.sizes.iter().map(|&s| (s as f64 + 1.0).log2()).collect(),
                sizes: b.sizes,
                col_start: b.col_start,
                conts_f: b.conts.iter().map(|&c| c as f64).collect(),
                conts: b.conts,
                dists: b.dists,
                all_conts,
            });
        }
        Ok(CompiledTable {
            grids,
            options,
            len,
        })
    }

    /// The options this table was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Number of compiled grid cells across all operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no distributions were compiled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Operations present, in [`Op::ALL`] order.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.grids.iter().filter_map(|g| g.as_ref().map(|g| g.op))
    }

    /// Sorted distinct message sizes measured for `op` (flat slice; no
    /// allocation — use this instead of [`DistTable::sizes`] in hot code).
    pub fn sizes(&self, op: Op) -> &[u64] {
        self.grids[op.index()]
            .as_ref()
            .map(|g| g.sizes.as_slice())
            .unwrap_or(&[])
    }

    /// Sorted distinct contention levels measured for `op` (flat slice; no
    /// allocation — use this instead of [`DistTable::contentions`] in hot
    /// code).
    pub fn contentions(&self, op: Op) -> &[u32] {
        self.grids[op.index()]
            .as_ref()
            .map(|g| g.all_conts.as_slice())
            .unwrap_or(&[])
    }

    #[inline]
    fn grid(&self, op: Op) -> Option<&OpGrid> {
        self.grids[op.index()].as_ref()
    }

    /// Resolve a query point to its blended cell, shared by every draw at
    /// that point. `None` where the table has no
    /// data (missing op, NaN coordinate, zero total weight) — exactly where
    /// [`CompiledTable::quantile_at`] answers `None`, whatever the `q`.
    #[inline]
    pub fn resolve(&self, op: Op, size: f64, contention: f64) -> Option<ResolvedCell<'_>> {
        let grid = self.grid(op)?;
        let blend = grid.blend(size, contention)?;
        (blend.wsum > 0.0).then_some(ResolvedCell { grid, blend })
    }

    /// Interpolated inverse CDF at probability `q` for the query point.
    /// Bitwise identical to [`DistTable::quantile_at`] for histogram/point
    /// grids.
    pub fn quantile_at(&self, op: Op, size: f64, contention: f64, q: f64) -> Option<f64> {
        Some(self.resolve(op, size, contention)?.quantile(q))
    }

    /// Draw one communication time: one uniform variate, blended across
    /// neighbour quantile functions — the same single-draw discipline as
    /// [`DistTable::sample_at`], so RNG streams stay aligned.
    pub fn sample_at<R: Rng + ?Sized>(
        &self,
        op: Op,
        size: f64,
        contention: f64,
        rng: &mut R,
    ) -> Option<f64> {
        let u = rng.gen::<f64>();
        self.quantile_at(op, size, contention, u)
    }

    /// Interpolated mean at the query point (bitwise identical to
    /// [`DistTable::mean_at`]).
    pub fn mean_at(&self, op: Op, size: f64, contention: f64) -> Option<f64> {
        Some(self.resolve(op, size, contention)?.mean())
    }

    /// Interpolated minimum at the query point (bitwise identical to
    /// [`DistTable::min_at`]).
    pub fn min_at(&self, op: Op, size: f64, contention: f64) -> Option<f64> {
        Some(self.resolve(op, size, contention)?.min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::sample::PointKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid_table() -> DistTable {
        let mut t = DistTable::new();
        for &size in &[64u64, 1024, 16384] {
            for &c in &[1u32, 4, 32] {
                let samples: Vec<f64> = (0..200)
                    .map(|i| (size as f64) * 1e-7 * (c as f64) + ((i * 37) % 100) as f64 * 1e-6)
                    .collect();
                t.insert(
                    DistKey {
                        op: Op::Isend,
                        size,
                        contention: c,
                    },
                    CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
                );
            }
        }
        // A ragged column: one size measured at an extra contention level.
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 1024,
                contention: 64,
            },
            CommDist::Point(3.3e-3),
        );
        t
    }

    #[test]
    fn compiled_matches_interpreted_on_and_off_grid() {
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        assert_eq!(c.len(), t.len());
        for &size in &[1.0, 64.0, 300.0, 1024.0, 5000.0, 16384.0, 1e9] {
            for &cont in &[0.0, 1.0, 2.5, 4.0, 17.0, 32.0, 64.0, 500.0] {
                for &q in &[0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
                    let a = t.quantile_at(Op::Isend, size, cont, q);
                    let b = c.quantile_at(Op::Isend, size, cont, q);
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "quantile mismatch at size={size} cont={cont} q={q}: {a:?} vs {b:?}"
                    );
                }
                assert_eq!(
                    t.mean_at(Op::Isend, size, cont).map(f64::to_bits),
                    c.mean_at(Op::Isend, size, cont).map(f64::to_bits)
                );
                assert_eq!(
                    t.min_at(Op::Isend, size, cont).map(f64::to_bits),
                    c.min_at(Op::Isend, size, cont).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn sample_at_is_draw_for_draw_identical() {
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        let mut r1 = SmallRng::seed_from_u64(99);
        let mut r2 = SmallRng::seed_from_u64(99);
        for i in 0..500 {
            let size = 32.0 + (i * 97 % 20000) as f64;
            let cont = (i % 50) as f64;
            let a = t.sample_at(Op::Isend, size, cont, &mut r1).unwrap();
            let b = c.sample_at(Op::Isend, size, cont, &mut r2).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "draw {i} diverged: {a} vs {b}");
        }
    }

    #[test]
    fn missing_op_is_none() {
        let c = CompiledTable::compile(&grid_table()).unwrap();
        assert_eq!(c.quantile_at(Op::Barrier, 1.0, 1.0, 0.5), None);
        assert!(c.sizes(Op::Barrier).is_empty());
        assert!(c.contentions(Op::Barrier).is_empty());
    }

    #[test]
    fn axes_match_interpreted_accessors() {
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        assert_eq!(c.sizes(Op::Isend), t.sizes(Op::Isend).as_slice());
        assert_eq!(
            c.contentions(Op::Isend),
            t.contentions(Op::Isend).as_slice()
        );
        assert_eq!(c.ops().collect::<Vec<_>>(), t.ops().collect::<Vec<_>>());
    }

    #[test]
    fn empty_histogram_is_a_compile_error() {
        let mut t = DistTable::new();
        t.insert(
            DistKey {
                op: Op::Send,
                size: 8,
                contention: 1,
            },
            CommDist::Hist(Histogram::new(0.0, 1.0)),
        );
        let err = CompiledTable::compile(&t).unwrap_err();
        assert!(matches!(err, CompileError::EmptyHistogram { key } if key.size == 8));
        assert!(t.validate().is_err());
        assert!(grid_table().validate().is_ok());
    }

    #[test]
    fn fit_lut_tracks_exact_bisection() {
        let fit = ParametricFit {
            kind: crate::FitKind::ShiftedLogNormal,
            shift: 2.5e-4,
            p1: -8.0,
            p2: 0.6,
        };
        let mut t = DistTable::new();
        t.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention: 1,
            },
            CommDist::Fit(fit.clone()),
        );
        let lut = CompiledTable::compile(&t).unwrap();
        let exact = CompiledTable::compile_with(
            &t,
            CompileOptions {
                exact_quantiles: true,
            },
        )
        .unwrap();
        for i in 0..=1000 {
            let q = i as f64 / 1000.0 * LUT_TAIL_Q;
            let a = lut.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap();
            let e = exact.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap();
            let rel = (a - e).abs() / e.abs().max(1e-300);
            assert!(
                rel <= LUT_REL_ERROR,
                "q={q}: lut {a} vs exact {e} ({rel:e})"
            );
        }
        // Tail quantiles fall back to the exact bisection in both modes.
        for &q in &[LUT_TAIL_Q + 1e-6, 0.999, 0.99999, 1.0] {
            let a = lut.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap();
            let e = exact.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap();
            assert_eq!(a.to_bits(), e.to_bits(), "tail q={q}");
        }
        // Exact mode matches the interpreted table bitwise everywhere.
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert_eq!(
                exact
                    .quantile_at(Op::Send, 1024.0, 1.0, q)
                    .map(f64::to_bits),
                t.quantile_at(Op::Send, 1024.0, 1.0, q).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn zero_and_negative_zero_answer_alike() {
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        for ((size, cont), (nsize, ncont)) in [
            ((1024.0, 0.0), (1024.0, -0.0)),
            ((0.0, 2.0), (-0.0, 2.0)),
            ((0.0, 0.0), (-0.0, -0.0)),
        ] {
            let plus = c.quantile_at(Op::Isend, size, cont, 0.5).unwrap();
            let minus = c.quantile_at(Op::Isend, nsize, ncont, 0.5).unwrap();
            assert_eq!(plus.to_bits(), minus.to_bits(), "size={size} cont={cont}");
            let interpreted = t.quantile_at(Op::Isend, nsize, ncont, 0.5).unwrap();
            assert_eq!(plus.to_bits(), interpreted.to_bits());
        }
    }

    #[test]
    fn nan_queries_are_none_and_never_touch_the_cache() {
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        assert_eq!(c.quantile_at(Op::Isend, f64::NAN, 1.0, 0.5), None);
        assert_eq!(c.quantile_at(Op::Isend, 1024.0, f64::NAN, 0.5), None);
        assert_eq!(c.mean_at(Op::Isend, f64::NAN, f64::NAN), None);
        assert_eq!(c.min_at(Op::Isend, f64::NAN, 1.0), None);
        // The interpreted path agrees (no panic, no value).
        assert_eq!(t.quantile_at(Op::Isend, f64::NAN, 1.0, 0.5), None);
    }

    #[test]
    fn non_finite_cells_are_compile_errors() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = DistTable::new();
            t.insert(
                DistKey {
                    op: Op::Send,
                    size: 64,
                    contention: 1,
                },
                CommDist::Point(v),
            );
            let err = CompiledTable::compile(&t).unwrap_err();
            assert!(
                matches!(err, CompileError::NonFinite { key, .. } if key.size == 64),
                "point mass {v} must not compile: {err}"
            );
        }
        let mut t = DistTable::new();
        t.insert(
            DistKey {
                op: Op::Send,
                size: 64,
                contention: 1,
            },
            CommDist::Fit(ParametricFit {
                kind: crate::FitKind::ShiftedExponential,
                shift: 1e-4,
                p1: f64::NAN,
                p2: 0.0,
            }),
        );
        assert!(matches!(
            CompiledTable::compile(&t).unwrap_err(),
            CompileError::NonFinite { .. }
        ));
    }

    #[test]
    fn collapsed_tables_compile_to_points() {
        let t = grid_table().collapsed(PointKind::Minimum);
        let c = CompiledTable::compile(&t).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let v = c.sample_at(Op::Isend, 64.0, 1.0, &mut rng).unwrap();
        assert_eq!(
            v.to_bits(),
            t.min_at(Op::Isend, 64.0, 1.0).unwrap().to_bits()
        );
    }
}
