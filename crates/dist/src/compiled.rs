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
//!   inclusive cumulative counts plus a guide table of up to
//!   [`GUIDE_CELLS`] cells (cut-point method), turning the inverse CDF into
//!   an `O(1)` start index and a short forward scan that lands on the same
//!   bin as the interpreted linear walk, so the result is **bitwise
//!   identical** to it (cumulative counts are integers below 2^53, so the
//!   float prefix is exact); a guide cell that lies inside one bin names
//!   that bin outright and skips the scan (one probe). It is
//!   lane-batched (`W = 1` is one lane): one pass scans every lane up to a
//!   `+∞` sentinel bin, a second interpolates them all. A parametric fit
//!   is rendered into histogram bins first, one between each two knots of
//!   its piecewise-linear CDF ([`crate::ParametricFit::cdf_knots`]), and
//!   compiled like any histogram, so every cell is drawn by this one rule;
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
//! sample) is a hard [`CompileError`] instead of a silent 0.0 draw, and so
//! is a fit whose render is not finite.
//!
//! The contract, enforced by property tests (`tests/prop_compiled.rs`):
//! for histogram and point distributions, `CompiledTable::sample_at`
//! matches `DistTable::sample_at` **draw-for-draw on the same RNG stream**
//! (bitwise). A `Fit` cell answers as its rendered CDF does, within
//! [`crate::fit::RENDER_REL_ERROR`] of the fit's own bisected quantile
//! relative to it; the interpreted [`CommDist::quantile`] still bisects.

use crate::table::{size_weight_log2, CommDist, DistKey, DistTable, Op};
use rand::Rng;

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
    /// fit parameter, the top edge of a rendered fit, or a point mass).
    /// Sampling it would propagate the poison into every blended
    /// prediction.
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

// -------------------------------------------------------------- dists --

/// The most cells an inverse-CDF guide table has. A histogram's guide has
/// `K` cells, cell `j` covering the quantiles `[j/K, (j+1)/K)`: a power of
/// two, so `q * K` is exact and the cell of `q` is decided without
/// rounding. `K` is `CELLS_PER_BIN` (8) per bin rounded up, at most this
/// (a 100-bin benchmark histogram gets all 1024), so that most cells lie
/// inside one bin ([`CompiledHist`]) while a table of small histograms
/// keeps small guides.
pub const GUIDE_CELLS: usize = 1024;

/// Guide cells per histogram bin: below the cap, at most one cell in this
/// many holds a bin boundary, so at least 7 in 8 lie inside one bin.
const CELLS_PER_BIN: usize = 8;

/// Set on a guide entry whose cell lies inside one bin: that bin is the
/// answer for every `q` of the cell, with no scan.
const SINGLE_BIN: u32 = 1 << 31;

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
///
/// The same argument bounds the bin from above: `q < (j+1)/K`, so
/// `q * total <= ((j+1)/K) * total` as computed, and the bin of `q` is
/// never right of `guide[j+1]`. Where `guide[j] == guide[j+1]` the cell
/// lies inside that one bin, and its entry carries `SINGLE_BIN`: the
/// lane reads its bin off the guide and does not scan. The cell of `q = 1`
/// is a single point and always carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHist {
    bins: Vec<Bin>,
    /// `K + 1` entries, each a bin index, with [`SINGLE_BIN`] set where the
    /// cell lies inside that bin: `q = 1` has a cell of its own.
    guide: Vec<u32>,
    /// `K`, the guide's cell count.
    cells: f64,
    total: f64,
    min: f64,
    max: f64,
}

impl CompiledHist {
    /// A histogram's bins, each clamped to the observed `[min, max]`.
    fn new(h: &crate::Histogram, min: f64, max: f64) -> Self {
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
        Self::with_guide(bins, min, max)
    }

    /// A fit's rendered CDF ([`crate::ParametricFit::cdf_knots`]): one bin
    /// between each two knots.
    fn from_knots(knots: &[(f64, u64)]) -> Self {
        let mut bins = Vec::with_capacity(knots.len());
        for k in knots.windows(2) {
            bins.push(Bin {
                prev: k[0].1 as f64,
                cum: k[1].1 as f64,
                lo: k[0].0,
                span: k[1].0 - k[0].0,
            });
        }
        Self::with_guide(bins, knots[0].0, knots[knots.len() - 1].0)
    }

    /// `bins` and the guide over them, after a `+∞` sentinel bin; `bins`
    /// has room for the sentinel.
    fn with_guide(mut bins: Vec<Bin>, min: f64, max: f64) -> Self {
        let nbins = bins.len();
        let total = bins.last().map_or(0.0, |b| b.cum);
        // Past every real bin: interpolates to `max` at any finite target.
        bins.push(Bin {
            prev: total,
            cum: f64::INFINITY,
            lo: max,
            span: 0.0,
        });
        let cells = nbins
            .saturating_mul(CELLS_PER_BIN)
            .min(GUIDE_CELLS)
            .next_power_of_two();
        let mut guide = Vec::with_capacity(cells + 1);
        let mut i = 0usize;
        for j in 0..=cells {
            let cut = (j as f64 / cells as f64) * total;
            while bins[i].cum < cut {
                i += 1;
            }
            guide.push(i as u32);
        }
        for j in 0..=cells {
            if j == cells || guide[j] == guide[j + 1] {
                guide[j] |= SINGLE_BIN;
            }
        }
        CompiledHist {
            bins,
            guide,
            cells: cells as f64,
            total,
            min,
            max,
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
            let entry = self.guide[(q * self.cells) as i32 as usize];
            let mut i = (entry & !SINGLE_BIN) as usize;
            if entry & SINGLE_BIN == 0 {
                i += (self.bins[i].cum < t) as usize;
                i += (self.bins[i].cum < t) as usize;
                while self.bins[i].cum < t {
                    i += 1;
                }
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

    /// The share of the guide's cells below `q = 1` that lie inside one
    /// bin, so that a lane landing there inverts with one probe.
    pub fn single_bin_share(&self) -> f64 {
        let single = self.guide[..self.guide.len() - 1]
            .iter()
            .filter(|&&entry| entry & SINGLE_BIN != 0)
            .count();
        single as f64 / self.cells
    }
}

/// One grid distribution compiled for fast repeated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledDist {
    /// Empirical histogram, or a rendered fit, with a cumulative-count
    /// prefix array.
    Hist(CompiledHist),
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
    /// Compile one distribution; `key` names the cell in errors. A fit is
    /// compiled as the bins of its [`crate::ParametricFit::cdf_knots`].
    pub fn compile(key: DistKey, dist: &CommDist) -> Result<Self, CompileError> {
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
                let min = finite(h.summary().min().unwrap_or(0.0), "histogram min")?;
                let max = finite(h.summary().max().unwrap_or(0.0), "histogram max")?;
                // The average baseline samples the mean of this cell.
                finite(h.summary().mean().unwrap_or(0.0), "histogram mean")?;
                CompiledDist::Hist(CompiledHist::new(h, min, max))
            }
            CommDist::Fit(f) => {
                finite(f.shift, "fit shift")?;
                // `+∞` is the point mass a zero-variance gamma fit encodes.
                if f.p1 != f64::INFINITY {
                    finite(f.p1, "fit parameter p1")?;
                }
                finite(f.p2, "fit parameter p2")?;
                finite(f.mean(), "fit mean")?;
                let knots = f.cdf_knots().ok_or(CompileError::NonFinite {
                    key,
                    what: "fit top quantile",
                })?;
                CompiledDist::Hist(CompiledHist::from_knots(&knots))
            }
            CommDist::Point(v) => CompiledDist::Point(finite(*v, "point mass")?),
        })
    }

    /// Inverse CDF at `q` (clamped to `[0, 1]`). Bitwise identical to
    /// [`CommDist::quantile`] for `Hist`/`Point`; a `Fit` answers as its
    /// rendered CDF.
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
            CompiledDist::Point(v) => [*v; W],
        };
        #[cfg(feature = "divergence-injection")]
        let v = v.map(divergence_nudge);
        v
    }

    /// Minimum (0-quantile; bitwise identical to [`CommDist::min`]).
    pub fn min(&self) -> f64 {
        match self {
            CompiledDist::Hist(h) => h.min,
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
#[derive(Clone, PartialEq)]
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
    /// The grid of `op` from its size axis, each column's start in `conts`
    /// and `dists` (without the closing end), and its cells in
    /// (size, contention) order.
    fn new(
        op: Op,
        sizes: Vec<u64>,
        mut col_start: Vec<u32>,
        conts: Vec<u32>,
        dists: Vec<CompiledDist>,
    ) -> OpGrid {
        col_start.push(conts.len() as u32);
        let mut all_conts = conts.clone();
        all_conts.sort_unstable();
        all_conts.dedup();
        OpGrid {
            op,
            sizes_f: sizes.iter().map(|&s| s as f64).collect(),
            sizes_log2: sizes.iter().map(|&s| (s as f64 + 1.0).log2()).collect(),
            sizes,
            col_start,
            conts_f: conts.iter().map(|&c| c as f64).collect(),
            conts,
            dists,
            all_conts,
        }
    }

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
}

// --------------------------------------------------------------- table --

/// An immutable compilation of a [`DistTable`] for allocation-free queries.
///
/// Produced once by [`CompiledTable::compile`]; shared immutably (plain
/// data with no interior mutability, so parallel Monte-Carlo replication
/// workers query one `&CompiledTable` without synchronising).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTable {
    /// Indexed by [`Op::index`]; `None` where the op has no data.
    grids: Vec<Option<OpGrid>>,
    len: usize,
}

impl CompiledTable {
    /// Compile every cell. Validates the table: an empty histogram or a
    /// non-finite quantity is a hard error.
    pub fn compile(table: &DistTable) -> Result<Self, CompileError> {
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
            b.dists.push(CompiledDist::compile(key, dist)?);
        }
        let grids = builders
            .into_iter()
            .map(|b| b.map(|b| OpGrid::new(b.op, b.sizes, b.col_start, b.conts, b.dists)))
            .collect();
        Ok(CompiledTable::from_grids(grids))
    }

    fn from_grids(grids: Vec<Option<OpGrid>>) -> CompiledTable {
        let len = grids.iter().flatten().map(|g| g.dists.len()).sum();
        CompiledTable { grids, len }
    }

    /// The cells at contention level `level` alone: what compiling
    /// [`DistTable::at_contention`] of the source table gives, cut from
    /// this compilation instead of compiling the slice again.
    pub fn at_contention(&self, level: u32) -> CompiledTable {
        let grids = self
            .grids
            .iter()
            .map(|grid| {
                let g = grid.as_ref()?;
                let (mut sizes, mut col_start, mut dists) = (Vec::new(), Vec::new(), Vec::new());
                for (s, &size) in g.sizes.iter().enumerate() {
                    let column = g.col_start[s] as usize..g.col_start[s + 1] as usize;
                    if let Ok(j) = g.conts[column.clone()].binary_search(&level) {
                        col_start.push(dists.len() as u32);
                        sizes.push(size);
                        dists.push(g.dists[column.start + j].clone());
                    }
                }
                let conts = vec![level; dists.len()];
                (!dists.is_empty()).then(|| OpGrid::new(g.op, sizes, col_start, conts, dists))
            })
            .collect();
        CompiledTable::from_grids(grids)
    }

    /// The compiled cell at `key`, if the table has one there.
    pub fn cell(&self, key: DistKey) -> Option<&CompiledDist> {
        let g = self.grid(key.op)?;
        let s = g.sizes.binary_search(&key.size).ok()?;
        let column = g.col_start[s] as usize..g.col_start[s + 1] as usize;
        let j = g.conts[column.clone()]
            .binary_search(&key.contention)
            .ok()?;
        Some(&g.dists[column.start + j])
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{ParametricFit, RENDER_REL_ERROR};
    use crate::histogram::Histogram;
    use crate::sample::PointKind;
    use crate::FitKind;
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
        // The compiled quantiles of the table and of its collapsed forms:
        // a collapsed table answers the interpreted mean or minimum at
        // every probability, which is what the baseline modes sample.
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        let avg = CompiledTable::compile(&t.collapsed(PointKind::Average)).unwrap();
        let min = CompiledTable::compile(&t.collapsed(PointKind::Minimum)).unwrap();
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
                    assert_eq!(
                        t.mean_at(Op::Isend, size, cont).map(f64::to_bits),
                        avg.quantile_at(Op::Isend, size, cont, q).map(f64::to_bits)
                    );
                    assert_eq!(
                        t.min_at(Op::Isend, size, cont).map(f64::to_bits),
                        min.quantile_at(Op::Isend, size, cont, q).map(f64::to_bits)
                    );
                }
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

    fn fit_cell(kind: FitKind, shift: f64, p1: f64, p2: f64) -> (ParametricFit, CompiledDist) {
        let fit = ParametricFit {
            kind,
            shift,
            p1,
            p2,
        };
        let key = DistKey {
            op: Op::Send,
            size: 1024,
            contention: 1,
        };
        let cell = CompiledDist::compile(key, &CommDist::Fit(fit.clone())).unwrap();
        (fit, cell)
    }

    #[test]
    fn a_rendered_fit_tracks_the_bisected_quantile() {
        // Benchmark-like fits of each family, a log-normal whose tail runs
        // thousands of medians out, and the tiny gamma shape that a cell
        // with timeout outliers fits to.
        for (kind, p1, p2) in [
            (FitKind::ShiftedExponential, 4e3, 0.0),
            (FitKind::ShiftedLogNormal, -8.0, 0.6),
            (FitKind::ShiftedGamma, 2.5, 4e-5),
            (FitKind::ShiftedLogNormal, -8.0, 1.5),
            (FitKind::ShiftedGamma, 0.01, 0.02),
        ] {
            let (fit, cell) = fit_cell(kind, 2.5e-4, p1, p2);
            assert!(matches!(cell, CompiledDist::Hist(_)), "{kind:?}");
            let near_shift = (1..=30).map(|e| 0.5f64.powi(e));
            for q in (0..=999).map(|i| i as f64 / 1000.0).chain(near_shift) {
                let (got, want) = (cell.quantile(q), fit.quantile(q));
                let rel = (got - want).abs() / want;
                assert!(
                    rel <= RENDER_REL_ERROR,
                    "{fit:?} q={q}: render {got} vs bisection {want} ({rel:e})"
                );
            }
            // The rendered CDF's own mean, bin by bin, is the fit's.
            let knots = fit.cdf_knots().unwrap();
            let mass = knots[knots.len() - 1].1 as f64;
            let mean = knots
                .windows(2)
                .map(|k| (k[1].1 - k[0].1) as f64 * 0.5 * (k[0].0 + k[1].0))
                .sum::<f64>()
                / mass;
            assert!(
                (mean - fit.mean()).abs() <= RENDER_REL_ERROR * fit.mean(),
                "{fit:?}: rendered mean {mean} vs {}",
                fit.mean()
            );
            assert_eq!(cell.min().to_bits(), fit.shift.to_bits(), "{kind:?}");
            assert_eq!(
                cell.quantile(0.0).to_bits(),
                fit.shift.to_bits(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn degenerate_fits_compile_to_finite_draws_from_their_shift() {
        // What `ParametricFit::fit_summary` writes for a zero-variance
        // cell: a gamma's infinite shape, a log-normal's zero sigma, and
        // an exponential whose rate is the reciprocal of a 1e-300 excess.
        let shift = 3e-4;
        for (kind, p1, p2) in [
            (FitKind::ShiftedGamma, f64::INFINITY, 0.0),
            (FitKind::ShiftedLogNormal, (2e-5f64).ln(), 0.0),
            (FitKind::ShiftedExponential, 1e300, 0.0),
        ] {
            let (fit, cell) = fit_cell(kind, shift, p1, p2);
            assert_eq!(cell.min().to_bits(), shift.to_bits(), "{kind:?}");
            for i in 0..=100 {
                let v = cell.quantile(i as f64 / 100.0);
                assert!(v.is_finite() && v >= shift, "{kind:?}: {v}");
                assert!(v <= fit.quantile(1.0) * (1.0 + 1e-12), "{kind:?}: {v}");
            }
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
        assert_eq!(c.quantile_at(Op::Isend, f64::NAN, f64::NAN, 0.5), None);
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
                kind: FitKind::ShiftedExponential,
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
    fn a_contention_slice_cut_from_a_compilation_is_the_slice_compiled() {
        // Level 64 is measured at one size only, and 7 at none.
        let t = grid_table();
        let c = CompiledTable::compile(&t).unwrap();
        for level in [1, 4, 32, 64, 7] {
            let sliced = CompiledTable::compile(&t.at_contention(level)).unwrap();
            assert_eq!(c.at_contention(level), sliced, "level {level}");
        }
    }

    fn compiled_hist(h: Histogram) -> CompiledHist {
        let key = DistKey {
            op: Op::Send,
            size: 1,
            contention: 1,
        };
        match CompiledDist::compile(key, &CommDist::Hist(h)) {
            Ok(CompiledDist::Hist(c)) => c,
            other => panic!("a histogram compiles to a histogram: {other:?}"),
        }
    }

    #[test]
    fn a_guide_has_eight_cells_per_bin_up_to_its_cap() {
        for (samples, bins, cells) in [
            (vec![1.5], 1, 8),
            ((0..16).map(|i| i as f64 + 0.5).collect::<Vec<_>>(), 16, 128),
            ((0..100).map(|i| i as f64 + 0.5).collect(), 100, GUIDE_CELLS),
            (
                (0..3000).map(|i| i as f64 + 0.5).collect(),
                3000,
                GUIDE_CELLS,
            ),
        ] {
            let h = Histogram::from_samples(&samples, 1.0);
            assert_eq!(h.counts().len(), bins);
            let c = compiled_hist(h);
            assert_eq!(
                (c.guide.len(), c.cells),
                (cells + 1, cells as f64),
                "{bins} bins"
            );
        }
    }

    #[test]
    fn a_guide_cell_straddling_two_bins_is_never_flagged() {
        // Bin masses 1, 2, 1 of 4: the cuts at 1/4 and 3/4 fall on bin
        // boundaries, so the cells just below them straddle two bins.
        let c = compiled_hist(Histogram::from_samples(&[0.5, 1.5, 1.5, 2.5], 1.0));
        let cells = c.guide.len() - 1;
        let mut straddling = 0;
        for j in 0..cells {
            let (lo, hi) = (c.guide[j] & !SINGLE_BIN, c.guide[j + 1] & !SINGLE_BIN);
            assert_eq!(c.guide[j] & SINGLE_BIN != 0, lo == hi, "cell {j}");
            straddling += usize::from(lo != hi);
        }
        assert_eq!(straddling, 2, "the cells below the cuts at 1/4 and 3/4");
        assert_ne!(c.guide[cells] & SINGLE_BIN, 0, "q = 1 is one point");
        assert_eq!(c.single_bin_share(), (cells - 2) as f64 / cells as f64);
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
