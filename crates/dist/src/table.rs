//! The benchmark database: distributions keyed by operation, message size
//! and contention level.
//!
//! §5 of the paper: "These probability distributions are a function of
//! message size and the total number of messages on the scoreboard (i.e.
//! contention level)." MPIBench only measures a grid of (size, contention)
//! points, but PEVPM queries arbitrary coordinates, so [`DistTable`] performs
//! **bilinear quantile interpolation**: a query draws one uniform variate
//! `u`, evaluates the inverse CDF of the (up to four) surrounding grid
//! distributions at `u`, and blends the resulting quantile values with
//! bilinear weights (linear in `log2(size)`, linear in contention). This
//! interpolates *between distributions* rather than between densities, which
//! preserves monotonicity and support bounds.

use crate::fit::ParametricFit;
use crate::histogram::Histogram;
use crate::sample::PointKind;
use rand::Rng;
use std::collections::BTreeMap;

/// MPI operations MPIBench can characterise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Blocking standard-mode send (matching receive included).
    Send,
    /// Nonblocking send (the paper's headline measurements, Figs 1–4).
    Isend,
    /// Blocking receive.
    Recv,
    /// Barrier synchronisation.
    Barrier,
    /// Broadcast from a root.
    Bcast,
    /// Reduce to a root.
    Reduce,
    /// Allreduce.
    Allreduce,
    /// Gather to a root.
    Gather,
    /// Scatter from a root.
    Scatter,
    /// Allgather.
    Allgather,
    /// All-to-all personalised exchange.
    Alltoall,
}

impl Op {
    /// All operations, for iteration in benchmarks.
    pub const ALL: [Op; 11] = [
        Op::Send,
        Op::Isend,
        Op::Recv,
        Op::Barrier,
        Op::Bcast,
        Op::Reduce,
        Op::Allreduce,
        Op::Gather,
        Op::Scatter,
        Op::Allgather,
        Op::Alltoall,
    ];

    /// Stable lowercase name used in the `.dist` file format.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Send => "send",
            Op::Isend => "isend",
            Op::Recv => "recv",
            Op::Barrier => "barrier",
            Op::Bcast => "bcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Gather => "gather",
            Op::Scatter => "scatter",
            Op::Allgather => "allgather",
            Op::Alltoall => "alltoall",
        }
    }

    /// Parse from the stable name.
    pub fn from_name(s: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|o| o.name() == s)
    }

    /// The other point-to-point send flavour: benchmark databases often
    /// measure only one of `Send`/`Isend`, so samplers retry a query the
    /// table cannot answer on the sibling (`Isend` for `Send`, `Send` for
    /// everything else).
    pub fn p2p_sibling(self) -> Op {
        if self == Op::Send {
            Op::Isend
        } else {
            Op::Send
        }
    }

    /// Position of this operation in [`Op::ALL`]: a dense index used for
    /// flat per-op storage (e.g. [`crate::compiled::CompiledTable`]).
    pub fn index(self) -> usize {
        match self {
            Op::Send => 0,
            Op::Isend => 1,
            Op::Recv => 2,
            Op::Barrier => 3,
            Op::Bcast => 4,
            Op::Reduce => 5,
            Op::Allreduce => 6,
            Op::Gather => 7,
            Op::Scatter => 8,
            Op::Allgather => 9,
            Op::Alltoall => 10,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Grid coordinate of one measured distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DistKey {
    /// The MPI operation measured.
    pub op: Op,
    /// Message size in bytes.
    pub size: u64,
    /// Contention level: the number of messages simultaneously in flight
    /// during the measurement (for an n×p paired exchange this is n·p/2).
    pub contention: u32,
}

/// One communication-time distribution: empirical histogram, parametric fit
/// or degenerate single point.
#[derive(Debug, Clone, PartialEq)]
pub enum CommDist {
    /// Full empirical histogram (the paper's preferred representation).
    Hist(Histogram),
    /// Parametric fit (compact alternative noted in §2).
    Fit(ParametricFit),
    /// Degenerate point distribution (min/avg baseline prediction modes).
    Point(f64),
}

impl CommDist {
    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            CommDist::Hist(h) => h.summary().mean().unwrap_or(0.0),
            CommDist::Fit(f) => f.mean(),
            CommDist::Point(v) => *v,
        }
    }

    /// Minimum (0-quantile).
    pub fn min(&self) -> f64 {
        match self {
            CommDist::Hist(h) => h.summary().min().unwrap_or(0.0),
            CommDist::Fit(f) => f.shift,
            CommDist::Point(v) => *v,
        }
    }

    /// Inverse CDF at `q` (clamped to `[0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        match self {
            CommDist::Hist(h) => h.quantile(q).unwrap_or(0.0),
            CommDist::Fit(f) => f.quantile(q),
            CommDist::Point(v) => *v,
        }
    }

    /// Draw one sample.
    ///
    /// # Panics
    /// Panics on an empty histogram: an empty distribution has no samples
    /// to draw, and silently returning a 0.0 communication time would
    /// corrupt predictions. Empty histograms are rejected up front by
    /// [`DistTable::validate`], which both the `.dist` loader and
    /// [`crate::compiled::CompiledTable::compile`] run, so this panic is
    /// unreachable for tables that came through either path.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            CommDist::Hist(h) => h
                .sample(rng)
                .expect("empty histogram in CommDist::sample (run DistTable::validate)"),
            CommDist::Fit(f) => f.sample(rng),
            CommDist::Point(v) => *v,
        }
    }

    /// True for a histogram with no observations — a distribution nothing
    /// can be drawn from. See [`DistTable::validate`].
    pub fn is_vacuous(&self) -> bool {
        matches!(self, CommDist::Hist(h) if h.is_empty())
    }

    /// Collapse to a degenerate point distribution at the given statistic.
    pub fn collapse(&self, kind: PointKind) -> CommDist {
        match kind {
            PointKind::Minimum => CommDist::Point(self.min()),
            PointKind::Average => CommDist::Point(self.mean()),
        }
    }
}

/// A database of communication-time distributions on a (size, contention)
/// grid per operation, with bilinear quantile interpolation between grid
/// points and clamping outside the grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistTable {
    /// `op -> (size, contention) -> distribution`. BTreeMaps keep the grid
    /// ordered so neighbour lookup is a range scan.
    entries: BTreeMap<Op, BTreeMap<(u64, u32), CommDist>>,
}

impl DistTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the distribution at a grid point.
    pub fn insert(&mut self, key: DistKey, dist: CommDist) {
        self.entries
            .entry(key.op)
            .or_default()
            .insert((key.size, key.contention), dist);
    }

    /// Exact lookup of a grid point.
    pub fn get(&self, key: &DistKey) -> Option<&CommDist> {
        self.entries.get(&key.op)?.get(&(key.size, key.contention))
    }

    /// Number of stored grid points across all operations.
    pub fn len(&self) -> usize {
        self.entries.values().map(|m| m.len()).sum()
    }

    /// True if the table holds no distributions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all `(key, dist)` entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (DistKey, &CommDist)> {
        self.entries.iter().flat_map(|(&op, m)| {
            m.iter().map(move |(&(size, contention), d)| {
                (
                    DistKey {
                        op,
                        size,
                        contention,
                    },
                    d,
                )
            })
        })
    }

    /// Operations present in the table.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.entries.keys().copied()
    }

    /// Distinct message sizes measured for `op`.
    ///
    /// PERF regression note: this allocates a fresh `Vec` on every call
    /// (the BTreeMap keys are already size-ordered, so no sort is needed,
    /// but the collection itself is O(n) heap work). Hot loops — anything
    /// per-message or per-draw — must not call this; they go through
    /// [`crate::compiled::CompiledTable`], whose axes are flat slices
    /// precomputed once at compile time.
    pub fn sizes(&self, op: Op) -> Vec<u64> {
        // Keys iterate in (size, contention) order, so the projected sizes
        // are already sorted; dedup alone suffices.
        let mut v: Vec<u64> = self
            .entries
            .get(&op)
            .map(|m| m.keys().map(|&(s, _)| s).collect())
            .unwrap_or_default();
        debug_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        v.dedup();
        v
    }

    /// Distinct contention levels measured for `op`.
    ///
    /// PERF regression note: allocates and sorts per call (contentions are
    /// *not* globally ordered in the `(size, contention)` key space). Hot
    /// loops must use [`crate::compiled::CompiledTable`] instead.
    pub fn contentions(&self, op: Op) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .entries
            .get(&op)
            .map(|m| m.keys().map(|&(_, c)| c).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Check that every stored distribution can actually be sampled from:
    /// empty histograms (no observations) are rejected with the offending
    /// grid key. Run by the `.dist` loader and by
    /// [`crate::compiled::CompiledTable::compile`], so a vacuous
    /// distribution is a hard error at load/compile time instead of a
    /// silent 0.0 communication time at sampling time.
    pub fn validate(&self) -> Result<(), crate::compiled::CompileError> {
        for (key, dist) in self.iter() {
            if dist.is_vacuous() {
                return Err(crate::compiled::CompileError::EmptyHistogram { key });
            }
        }
        Ok(())
    }

    /// The up-to-four surrounding grid distributions of `(size, contention)`
    /// with their bilinear weights. Returns `None` if the op has no data.
    ///
    /// PERF regression note: allocates four `Vec`s per call. This is the
    /// reference implementation that `CompiledTable`'s zero-allocation
    /// blend is property-tested against draw-for-draw; keep them in
    /// lockstep (both route through [`bracket`] / [`size_weight_log2`]).
    fn neighbours(&self, op: Op, size: f64, contention: f64) -> Option<Vec<(&CommDist, f64)>> {
        let grid = self.entries.get(&op)?;
        if grid.is_empty() {
            return None;
        }
        let sizes = self.sizes(op);
        let (s_lo, s_hi, _) = bracket(&sizes.iter().map(|&s| s as f64).collect::<Vec<_>>(), size)
            .map(|(a, b, w)| (a as u64, b as u64, w))?;
        let ws = size_weight(s_lo, s_hi, size);

        // Contention axes can differ per size column; bracket per column.
        let mut out: Vec<(&CommDist, f64)> = Vec::with_capacity(4);
        for (s, wsize) in [(s_lo, 1.0 - ws), (s_hi, ws)] {
            if wsize == 0.0 && s_lo != s_hi {
                continue;
            }
            let col: Vec<u32> = grid
                .range((s, 0)..=(s, u32::MAX))
                .map(|(&(_, c), _)| c)
                .collect();
            let Some((c_lo, c_hi, wc)) = bracket(&col, contention) else {
                continue;
            };
            for (c, wcont) in [(c_lo, 1.0 - wc), (c_hi, wc)] {
                if wcont == 0.0 && c_lo != c_hi {
                    continue;
                }
                if let Some(d) = grid.get(&(s, c)) {
                    out.push((d, wsize * wcont));
                }
            }
        }
        // Deduplicate degenerate corners (same dist appearing twice with the
        // weights already summing correctly is fine for blending).
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Interpolated inverse CDF at probability `q` for the query point.
    pub fn quantile_at(&self, op: Op, size: f64, contention: f64, q: f64) -> Option<f64> {
        let nb = self.neighbours(op, size, contention)?;
        let wsum: f64 = nb.iter().map(|(_, w)| w).sum();
        if wsum <= 0.0 {
            return None;
        }
        Some(nb.iter().map(|(d, w)| d.quantile(q) * w).sum::<f64>() / wsum)
    }

    /// Draw one communication time for the query point: one uniform variate,
    /// blended across neighbour quantile functions.
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

    /// Interpolated mean at the query point.
    pub fn mean_at(&self, op: Op, size: f64, contention: f64) -> Option<f64> {
        let nb = self.neighbours(op, size, contention)?;
        let wsum: f64 = nb.iter().map(|(_, w)| w).sum();
        if wsum <= 0.0 {
            return None;
        }
        Some(nb.iter().map(|(d, w)| d.mean() * w).sum::<f64>() / wsum)
    }

    /// Interpolated minimum at the query point.
    pub fn min_at(&self, op: Op, size: f64, contention: f64) -> Option<f64> {
        let nb = self.neighbours(op, size, contention)?;
        let wsum: f64 = nb.iter().map(|(_, w)| w).sum();
        if wsum <= 0.0 {
            return None;
        }
        Some(nb.iter().map(|(d, w)| d.min() * w).sum::<f64>() / wsum)
    }

    /// A new table whose distributions are all collapsed to single-point
    /// statistics — the paper's "simplistic" baseline prediction inputs.
    pub fn collapsed(&self, kind: PointKind) -> DistTable {
        let mut t = DistTable::new();
        for (k, d) in self.iter() {
            t.insert(k, d.collapse(kind));
        }
        t
    }

    /// A new table keeping only the given contention level (e.g. 1 for the
    /// 2×1 ping-pong baseline that conventional benchmarks measure). The
    /// resulting table answers *every* contention query with that data.
    pub fn at_contention(&self, level: u32) -> DistTable {
        let mut t = DistTable::new();
        for (k, d) in self.iter() {
            if k.contention == level {
                t.insert(k, d.clone());
            }
        }
        t
    }

    /// Merge another table into this one (replacing colliding keys).
    pub fn merge(&mut self, other: &DistTable) {
        for (k, d) in other.iter() {
            self.insert(k, d.clone());
        }
    }

    /// A new table whose histogram cells are replaced by best-fitting
    /// parametric models (§2's compact "parametrised functions"). Cells
    /// that are already points or fits are kept; histograms that fail to
    /// fit are kept as histograms.
    pub fn fitted(&self) -> DistTable {
        let mut t = DistTable::new();
        for (k, d) in self.iter() {
            let d2 = match d {
                CommDist::Hist(h) => match ParametricFit::best_fit(h) {
                    Some((f, _)) => CommDist::Fit(f),
                    None => d.clone(),
                },
                other => other.clone(),
            };
            t.insert(k, d2);
        }
        t
    }
}

/// Surrounding grid coordinates of `x` in a sorted axis, with the blend
/// weight of the upper neighbour. Clamped at the edges.
///
/// Shared by the interpreted [`DistTable`] path and the compiled
/// [`crate::compiled::CompiledTable`] path so both select bitwise-identical
/// neighbours and weights.
pub(crate) fn bracket<T: Copy + PartialOrd + Into<f64>>(axis: &[T], x: f64) -> Option<(T, T, f64)> {
    // NaN compares false against every neighbour, which would walk the
    // binary search off the front of the axis; there is no meaningful
    // bracket for it either way.
    if axis.is_empty() || x.is_nan() {
        return None;
    }
    let first = axis[0];
    let last = axis[axis.len() - 1];
    if x <= first.into() {
        return Some((first, first, 0.0));
    }
    if x >= last.into() {
        return Some((last, last, 0.0));
    }
    let hi_idx = axis.partition_point(|&a| a.into() <= x);
    let lo = axis[hi_idx - 1];
    let hi = axis[hi_idx];
    let (lo_f, hi_f) = (lo.into(), hi.into());
    if (hi_f - lo_f).abs() < f64::EPSILON {
        return Some((lo, hi, 0.0));
    }
    Some((lo, hi, (x - lo_f) / (hi_f - lo_f)))
}

/// Weight along the size axis is computed in log2 space, since message
/// sizes are sampled geometrically and time grows ~linearly in size so
/// log-space blending is much closer to linear interpolation of latency
/// curves on the geometric grid used by MPIBench. Shared by the interpreted
/// and compiled lookup paths.
pub(crate) fn size_weight(lo: u64, hi: u64, size: f64) -> f64 {
    size_weight_log2(((lo as f64) + 1.0).log2(), ((hi as f64) + 1.0).log2(), size)
}

/// [`size_weight`] given each axis point's `log2(size + 1)`, which the
/// compiled lookup keeps per point. Below 2^40 bytes `l == h` is `lo == hi`.
pub(crate) fn size_weight_log2(l: f64, h: f64, size: f64) -> f64 {
    if l == h {
        return 0.0;
    }
    (((size + 1.0).log2() - l) / (h - l)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn point_table() -> DistTable {
        // Grid: sizes {100, 1000}, contentions {1, 10}; value = size + 1000*contention
        let mut t = DistTable::new();
        for &size in &[100u64, 1000] {
            for &c in &[1u32, 10] {
                t.insert(
                    DistKey {
                        op: Op::Isend,
                        size,
                        contention: c,
                    },
                    CommDist::Point(size as f64 + 1000.0 * c as f64),
                );
            }
        }
        t
    }

    #[test]
    fn exact_grid_points_roundtrip() {
        let t = point_table();
        let k = DistKey {
            op: Op::Isend,
            size: 100,
            contention: 1,
        };
        assert_eq!(t.get(&k), Some(&CommDist::Point(1100.0)));
        assert_eq!(t.mean_at(Op::Isend, 100.0, 1.0), Some(1100.0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn clamping_outside_grid() {
        let t = point_table();
        // Below smallest size and contention -> corner value.
        assert_eq!(t.mean_at(Op::Isend, 1.0, 0.0), Some(1100.0));
        // Beyond largest -> other corner.
        assert_eq!(t.mean_at(Op::Isend, 1e9, 100.0), Some(11000.0));
    }

    #[test]
    fn contention_interpolation_is_linear() {
        let t = point_table();
        let v = t.mean_at(Op::Isend, 100.0, 5.5).unwrap();
        assert!((v - (100.0 + 1000.0 * 5.5)).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn size_interpolation_is_log_space() {
        let t = point_table();
        let v = t.mean_at(Op::Isend, 316.0, 1.0).unwrap(); // ~geometric mid
        let w = (316.0f64 + 1.0).log2() - (100.0f64 + 1.0).log2();
        let span = (1000.0f64 + 1.0).log2() - (100.0f64 + 1.0).log2();
        let expect = 1000.0 + 100.0 * (1.0 - w / span) + 1000.0 * (w / span);
        assert!((v - expect).abs() < 1e-9, "got {v}, expected {expect}");
    }

    #[test]
    fn sampling_from_interpolated_point_is_deterministic() {
        let t = point_table();
        let mut rng = SmallRng::seed_from_u64(5);
        let v = t.sample_at(Op::Isend, 100.0, 1.0, &mut rng).unwrap();
        assert_eq!(v, 1100.0);
    }

    #[test]
    fn missing_op_returns_none() {
        let t = point_table();
        assert_eq!(t.mean_at(Op::Barrier, 0.0, 1.0), None);
        assert_eq!(t.quantile_at(Op::Bcast, 10.0, 1.0, 0.5), None);
    }

    #[test]
    fn collapsed_table_uses_point_statistics() {
        let mut t = DistTable::new();
        let h = Histogram::from_samples(&[1.0, 2.0, 3.0], 0.5);
        t.insert(
            DistKey {
                op: Op::Send,
                size: 8,
                contention: 1,
            },
            CommDist::Hist(h),
        );
        let avg = t.collapsed(PointKind::Average);
        let min = t.collapsed(PointKind::Minimum);
        assert_eq!(avg.mean_at(Op::Send, 8.0, 1.0), Some(2.0));
        assert_eq!(min.mean_at(Op::Send, 8.0, 1.0), Some(1.0));
        // Sampling from a collapsed table always yields the point value.
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(min.sample_at(Op::Send, 8.0, 1.0, &mut rng), Some(1.0));
        }
    }

    #[test]
    fn at_contention_ignores_other_levels() {
        let t = point_table();
        let pp = t.at_contention(1);
        // Every contention query now answers with the level-1 data.
        assert_eq!(pp.mean_at(Op::Isend, 100.0, 50.0), Some(1100.0));
        assert_eq!(pp.len(), 2);
    }

    #[test]
    fn histogram_cells_blend_quantiles() {
        let mut t = DistTable::new();
        let lo = Histogram::from_samples(&[10.0, 10.0, 10.0], 1.0);
        let hi = Histogram::from_samples(&[20.0, 20.0, 20.0], 1.0);
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 100,
                contention: 1,
            },
            CommDist::Hist(lo),
        );
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 100,
                contention: 3,
            },
            CommDist::Hist(hi),
        );
        let mid = t.quantile_at(Op::Isend, 100.0, 2.0, 0.5).unwrap();
        assert!((mid - 15.0).abs() < 1e-9, "got {mid}");
    }

    #[test]
    fn merge_overrides_and_extends() {
        let mut a = point_table();
        let mut b = DistTable::new();
        b.insert(
            DistKey {
                op: Op::Isend,
                size: 100,
                contention: 1,
            },
            CommDist::Point(7.0),
        );
        b.insert(
            DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 4,
            },
            CommDist::Point(9.0),
        );
        a.merge(&b);
        assert_eq!(a.mean_at(Op::Isend, 100.0, 1.0), Some(7.0));
        assert_eq!(a.mean_at(Op::Barrier, 0.0, 4.0), Some(9.0));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn fitted_table_replaces_histograms_and_preserves_moments() {
        let mut t = DistTable::new();
        let xs: Vec<f64> = (0..2000)
            .map(|i| 1.0 + ((i * 37) % 100) as f64 * 0.01)
            .collect();
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 1024,
                contention: 4,
            },
            CommDist::Hist(Histogram::from_samples(&xs, 0.01)),
        );
        t.insert(
            DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 4,
            },
            CommDist::Point(2.0),
        );
        let f = t.fitted();
        assert_eq!(f.len(), 2);
        assert!(matches!(
            f.get(&DistKey {
                op: Op::Isend,
                size: 1024,
                contention: 4
            }),
            Some(CommDist::Fit(_))
        ));
        assert!(matches!(
            f.get(&DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 4
            }),
            Some(CommDist::Point(_))
        ));
        // The fitted mean matches the data mean (method of moments).
        let m_h = t.mean_at(Op::Isend, 1024.0, 4.0).unwrap();
        let m_f = f.mean_at(Op::Isend, 1024.0, 4.0).unwrap();
        assert!((m_h - m_f).abs() / m_h < 1e-9);
    }

    #[test]
    fn iter_is_deterministic_and_complete() {
        let t = point_table();
        let keys: Vec<DistKey> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 4);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn op_names_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("nonsense"), None);
    }
}
