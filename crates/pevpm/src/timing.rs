//! Timing models: where the virtual machine gets communication times from.
//!
//! The paper's central claim is that *how* you turn benchmark data into
//! per-message times decides prediction quality. The options compared in
//! Figure 6 are all expressible here:
//!
//! - [`PredictionMode::FullDistribution`] over the full `n×p` benchmark
//!   database — the PEVPM method (Monte-Carlo sampling, contention-aware);
//! - [`PredictionMode::Average`] / [`PredictionMode::Minimum`] — collapse
//!   each distribution to a single point (what conventional benchmarks
//!   report);
//! - combined with either the full contention-indexed database or a
//!   ping-pong-only (`2×1`) slice via [`TimingModel::pingpong_only`].
//!
//! A purely analytic [`TimingModel::hockney`] (`T = l + b/W`) is included
//! as the classic textbook baseline.
//!
//! A query has two halves: [`TimingModel::resolve`] settles everything the
//! draw does not decide (which table cells, with what weights) and
//! [`ResolvedTime::quantiles`] inverts every replica lane's draw there.
//! The VM prices each message twice with one draw, at post and at match:
//! it keeps its resolutions by contention level (`resolve_p2p_memo`) and
//! each message keeps its per-cell inversions ([`CellParts`]), so the
//! second pricing inverts only in cells the first did not touch.

use pevpm_dist::{
    CellParts, CompileOptions, CompiledTable, DistTable, Op, PointKind, ResolvedCell,
};
use rand::Rng;

/// How per-message times are drawn from the benchmark data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionMode {
    /// Sample the full probability distribution (the PEVPM method).
    FullDistribution,
    /// Use the distribution's mean (conventional benchmarks).
    Average,
    /// Use the distribution's minimum (ideal ping-pong).
    Minimum,
}

impl std::fmt::Display for PredictionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictionMode::FullDistribution => write!(f, "dist"),
            PredictionMode::Average => write!(f, "avg"),
            PredictionMode::Minimum => write!(f, "min"),
        }
    }
}

/// A source of communication times for the PEVPM virtual machine.
#[derive(Debug, Clone)]
pub enum TimingModel {
    /// Empirical: backed by an MPIBench database.
    Empirical {
        /// The benchmark database (possibly pre-collapsed or sliced).
        table: DistTable,
        /// The table compiled for the allocation-free sampling fast path
        /// ([`pevpm_dist::compiled`]). `None` only for models built with
        /// [`TimingModel::interpreted`], which exists so benchmarks can
        /// measure the compiled path's speedup; every normal constructor
        /// compiles. Queries answer bitwise identically either way for
        /// histogram/point tables.
        compiled: Option<CompiledTable>,
        /// Sampling mode.
        mode: PredictionMode,
        /// If set, every query uses this fixed contention level instead of
        /// the scoreboard's (the "2×1 ping-pong data" baselines).
        fixed_contention: Option<f64>,
    },
    /// Analytic Hockney model `T = latency + bytes / bandwidth`,
    /// contention-blind.
    Hockney {
        /// Link latency in seconds.
        latency: f64,
        /// Effective bandwidth in bytes per second.
        bandwidth: f64,
    },
}

/// A `(op, size, contention)` query resolved against a [`TimingModel`]:
/// everything about a message's time that does not depend on the draw.
/// The VM resolves once per message and inverts every replica lane's draw
/// in one [`ResolvedTime::quantiles`] call, so the table lookup and the
/// dispatch on the cell's kind are shared by the lanes.
#[derive(Debug, Clone, Copy)]
pub enum ResolvedTime<'t> {
    /// Full-distribution sampling from the compiled table.
    Cell(ResolvedCell<'t>),
    /// Full-distribution sampling through the interpreted [`DistTable`]
    /// (the reference path): every quantile is a whole table query.
    Interpreted {
        /// The table to query.
        table: &'t DistTable,
        /// The operation that has data (after any Send↔Isend fallback).
        op: Op,
        /// Message size queried.
        size: f64,
        /// Contention level queried.
        contention: f64,
        /// The 0-quantile, from the query that established there is data.
        floor: f64,
    },
    /// Point modes and the analytic model: one time whatever the draw.
    Fixed(f64),
}

impl<'t> ResolvedTime<'t> {
    /// The time at each lane's probability `u[l]` — what
    /// [`TimingModel::quantile_time`] answers for the resolved query, bit
    /// for bit. `parts` belongs to this draw vector (start it at
    /// `CellParts::default()`): the compiled table leaves its per-cell
    /// inversions there, so resolving the same draws again at another
    /// contention level inverts only the cells that are new; the
    /// reference path and the point modes answer lane by lane without it.
    #[inline]
    pub fn quantiles<const W: usize>(
        &self,
        u: &[f64; W],
        parts: &mut CellParts<'t, W>,
    ) -> [f64; W] {
        match self {
            ResolvedTime::Cell(cell) => cell.quantiles(u, parts),
            ResolvedTime::Interpreted {
                table,
                op,
                size,
                contention,
                ..
            } => u.map(|u| {
                table
                    .quantile_at(*op, *size, *contention, u)
                    .expect("a resolved query has data at every probability")
            }),
            ResolvedTime::Fixed(t) => [*t; W],
        }
    }

    /// `quantile(0.0)` without the lookup: the distribution's minimum in
    /// full-distribution mode, the point statistic in the point modes.
    #[inline]
    pub fn floor(&self) -> f64 {
        match self {
            ResolvedTime::Cell(cell) => cell.min(),
            ResolvedTime::Interpreted { floor, .. } => *floor,
            ResolvedTime::Fixed(t) => *t,
        }
    }
}

/// One evaluation's memo of point-to-point resolutions, indexed by
/// contention level: see [`TimingModel::resolve_p2p_memo`].
pub(crate) type ResolveMemo<'t> = Vec<Option<((Op, u64), ResolvedTime<'t>)>>;

impl TimingModel {
    /// Compile `table` for the sampling fast path.
    ///
    /// # Panics
    /// Panics when the table fails validation (an empty histogram —
    /// nothing to sample from). The `.dist` loader rejects such tables at
    /// parse time, so this fires only on malformed programmatic tables.
    fn compile(table: &DistTable, options: CompileOptions) -> CompiledTable {
        CompiledTable::compile_with(table, options)
            .unwrap_or_else(|e| panic!("invalid benchmark table: {e}"))
    }

    /// The PEVPM method: full distributions, contention-indexed.
    ///
    /// # Panics
    /// Panics on a table with an empty histogram (see
    /// [`DistTable::validate`]).
    pub fn distributions(table: DistTable) -> Self {
        Self::distributions_with(table, CompileOptions::default())
    }

    /// [`TimingModel::distributions`] with explicit compile options — e.g.
    /// `exact_quantiles` to answer `Fit` quantiles by the exact bisection
    /// instead of the lookup table (the CLI's `--exact-quantiles`).
    ///
    /// # Panics
    /// Panics on a table with an empty histogram.
    pub fn distributions_with(table: DistTable, options: CompileOptions) -> Self {
        TimingModel::Empirical {
            compiled: Some(Self::compile(&table, options)),
            table,
            mode: PredictionMode::FullDistribution,
            fixed_contention: None,
        }
    }

    /// The PEVPM method *without* the compiled fast path: every query runs
    /// the interpreted [`DistTable`] lookup. Exists so benchmarks can
    /// measure the compiled path's speedup; predictions are bitwise
    /// identical for histogram/point tables.
    pub fn interpreted(table: DistTable) -> Self {
        TimingModel::Empirical {
            table,
            compiled: None,
            mode: PredictionMode::FullDistribution,
            fixed_contention: None,
        }
    }

    /// Point-statistic mode over the full contention-indexed database
    /// ("averages from MPIBench n×p process benchmarks" in §6).
    ///
    /// # Panics
    /// Panics on a table with an empty histogram.
    pub fn point(table: DistTable, kind: PointKind) -> Self {
        let mode = match kind {
            PointKind::Average => PredictionMode::Average,
            PointKind::Minimum => PredictionMode::Minimum,
        };
        TimingModel::Empirical {
            compiled: Some(Self::compile(&table, CompileOptions::default())),
            table,
            mode,
            fixed_contention: None,
        }
    }

    /// Restrict the database to its lowest measured contention level (the
    /// 2×1 ping-pong slice) and answer every query from it — what a
    /// conventional benchmark provides.
    ///
    /// # Panics
    /// Panics on a table with an empty histogram.
    pub fn pingpong_only(table: &DistTable, mode: PredictionMode) -> Self {
        let level = table
            .ops()
            .flat_map(|op| table.contentions(op))
            .min()
            .unwrap_or(1);
        let table = table.at_contention(level);
        TimingModel::Empirical {
            compiled: Some(Self::compile(&table, CompileOptions::default())),
            table,
            mode,
            fixed_contention: Some(level as f64),
        }
    }

    /// The analytic `T = l + b/W` model.
    pub fn hockney(latency: f64, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        TimingModel::Hockney { latency, bandwidth }
    }

    /// Draw the end-to-end time for one message of `size` bytes under
    /// `contention` concurrent messages.
    pub fn comm_time<R: Rng + ?Sized>(
        &self,
        op: Op,
        size: f64,
        contention: f64,
        rng: &mut R,
    ) -> Option<f64> {
        self.quantile_time(op, size, contention, rng.gen::<f64>())
    }

    /// The end-to-end time at a given probability `u` of the distribution
    /// for `(op, size, contention)`. In the point modes the result is the
    /// mean/minimum regardless of `u`. The PEVPM virtual machine draws one
    /// `u` per message and reuses it for both the sender-side cost and the
    /// transit time, so correlated effects (e.g. the intra-node vs
    /// inter-node modes of a bimodal SMP distribution) stay correlated.
    pub fn quantile_time(&self, op: Op, size: f64, contention: f64, u: f64) -> Option<f64> {
        match self {
            TimingModel::Empirical {
                table,
                compiled,
                mode,
                fixed_contention,
            } => {
                let c = fixed_contention.unwrap_or(contention);
                match (mode, compiled) {
                    (PredictionMode::FullDistribution, Some(ct)) => ct.quantile_at(op, size, c, u),
                    (PredictionMode::FullDistribution, None) => table.quantile_at(op, size, c, u),
                    (PredictionMode::Average, Some(ct)) => ct.mean_at(op, size, c),
                    (PredictionMode::Average, None) => table.mean_at(op, size, c),
                    (PredictionMode::Minimum, Some(ct)) => ct.min_at(op, size, c),
                    (PredictionMode::Minimum, None) => table.min_at(op, size, c),
                }
            }
            TimingModel::Hockney { latency, bandwidth } => Some(latency + size / bandwidth),
        }
    }

    /// Resolve `(op, size, contention)` once, for any number of
    /// [`ResolvedTime::quantiles`] draws. `None` exactly where
    /// [`TimingModel::quantile_time`] is `None` (that depends on the query
    /// alone, never on the probability).
    pub fn resolve(&self, op: Op, size: f64, contention: f64) -> Option<ResolvedTime<'_>> {
        if let TimingModel::Empirical {
            table,
            compiled,
            mode: PredictionMode::FullDistribution,
            fixed_contention,
        } = self
        {
            let c = fixed_contention.unwrap_or(contention);
            return match compiled {
                Some(ct) => ct.resolve(op, size, c).map(ResolvedTime::Cell),
                None => {
                    table
                        .quantile_at(op, size, c, 0.0)
                        .map(|floor| ResolvedTime::Interpreted {
                            table,
                            op,
                            size,
                            contention: c,
                            floor,
                        })
                }
            };
        }
        // Point modes and the analytic model answer the same whatever the
        // probability.
        self.quantile_time(op, size, contention, 0.0)
            .map(ResolvedTime::Fixed)
    }

    /// [`TimingModel::resolve`] with the Send↔Isend fallback (benchmark
    /// databases often measure only one of the two point-to-point
    /// flavours).
    pub fn resolve_p2p(&self, op: Op, size: f64, contention: f64) -> Option<ResolvedTime<'_>> {
        self.resolve(op, size, contention)
            .or_else(|| self.resolve(op.p2p_sibling(), size, contention))
    }

    /// [`TimingModel::resolve_p2p`] at an integer contention level through
    /// the caller's `memo`: the answer is a pure function of the arguments
    /// and the level is a small integer, so one slot per level, holding
    /// the last `(op, size)` resolved there, turns a repeat into an index
    /// and a compare. A query without data is not kept.
    pub(crate) fn resolve_p2p_memo<'t>(
        &'t self,
        memo: &mut ResolveMemo<'t>,
        op: Op,
        size: f64,
        population: usize,
    ) -> Option<ResolvedTime<'t>> {
        let key = (op, size.to_bits());
        if let Some(Some((hit, time))) = memo.get(population) {
            if *hit == key {
                return Some(*time);
            }
        }
        let time = self.resolve_p2p(op, size, population as f64)?;
        if population >= memo.len() {
            memo.resize(population + 1, None);
        }
        memo[population] = Some((key, time));
        Some(time)
    }

    /// The fraction of a message's end-to-end time spent on the sender
    /// side (software overhead + first-link NIC serialisation, plus the
    /// mean queueing of back-to-back sends) before the sender can proceed.
    /// Calibrated against the Jacobi halo exchange; see EXPERIMENTS.md.
    pub const SENDER_SHARE: f64 = 0.56;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_dist::{CommDist, DistKey, Histogram};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn table() -> DistTable {
        let mut t = DistTable::new();
        for &(c, lo) in &[(1u32, 100.0f64), (8, 200.0)] {
            let h = Histogram::from_samples(&[lo, lo + 10.0, lo + 20.0], 1.0);
            t.insert(
                DistKey {
                    op: Op::Send,
                    size: 1024,
                    contention: c,
                },
                CommDist::Hist(h),
            );
        }
        t
    }

    #[test]
    fn distribution_mode_is_contention_aware() {
        let m = TimingModel::distributions(table());
        let mut rng = SmallRng::seed_from_u64(1);
        let lo = m.comm_time(Op::Send, 1024.0, 1.0, &mut rng).unwrap();
        let hi = m.comm_time(Op::Send, 1024.0, 8.0, &mut rng).unwrap();
        assert!((100.0..=120.0).contains(&lo), "lo = {lo}");
        assert!((200.0..=220.0).contains(&hi), "hi = {hi}");
    }

    #[test]
    fn average_and_minimum_modes_are_points() {
        let avg = TimingModel::point(table(), PointKind::Average);
        let min = TimingModel::point(table(), PointKind::Minimum);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..5 {
            assert_eq!(avg.comm_time(Op::Send, 1024.0, 1.0, &mut rng), Some(110.0));
            assert_eq!(min.comm_time(Op::Send, 1024.0, 1.0, &mut rng), Some(100.0));
        }
    }

    #[test]
    fn pingpong_slice_ignores_contention() {
        let m = TimingModel::pingpong_only(&table(), PredictionMode::Average);
        let mut rng = SmallRng::seed_from_u64(1);
        // Queries at high contention still answer from the 2×1 slice.
        assert_eq!(m.comm_time(Op::Send, 1024.0, 64.0, &mut rng), Some(110.0));
    }

    #[test]
    fn hockney_is_linear_in_size() {
        let m = TimingModel::hockney(1e-4, 12.5e6);
        let mut rng = SmallRng::seed_from_u64(1);
        let t1 = m.comm_time(Op::Send, 0.0, 1.0, &mut rng).unwrap();
        let t2 = m.comm_time(Op::Send, 12.5e6, 99.0, &mut rng).unwrap();
        assert!((t1 - 1e-4).abs() < 1e-12);
        assert!((t2 - 1.0001).abs() < 1e-9);
    }

    #[test]
    fn compiled_and_interpreted_models_agree_bitwise() {
        let fast = TimingModel::distributions(table());
        let slow = TimingModel::interpreted(table());
        for &size in &[1.0, 512.0, 1024.0, 4096.0] {
            for &c in &[0.5, 1.0, 3.0, 8.0, 20.0] {
                for i in 0..=10 {
                    let u = i as f64 / 10.0;
                    assert_eq!(
                        fast.quantile_time(Op::Send, size, c, u).map(f64::to_bits),
                        slow.quantile_time(Op::Send, size, c, u).map(f64::to_bits),
                        "size={size} c={c} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn resolved_queries_answer_like_one_shot_queries() {
        // Every kind of model, on and off grid: resolve-then-quantile is
        // `quantile_time`, `floor` is the 0-quantile, and a Send query
        // against an Isend-only table resolves through the fallback.
        let mut isend_only = DistTable::new();
        for (k, d) in table().iter() {
            isend_only.insert(DistKey { op: Op::Isend, ..k }, d.clone());
        }
        let models = [
            TimingModel::distributions(table()),
            TimingModel::interpreted(table()),
            TimingModel::point(table(), PointKind::Average),
            TimingModel::pingpong_only(&table(), PredictionMode::Minimum),
            TimingModel::hockney(1e-4, 12.5e6),
            TimingModel::distributions(isend_only.clone()),
            TimingModel::interpreted(isend_only),
        ];
        for (m, model) in models.iter().enumerate() {
            for &size in &[1.0, 1024.0, 4096.0] {
                for &c in &[0.5, 1.0, 3.0, 20.0] {
                    let time = model
                        .resolve_p2p(Op::Send, size, c)
                        .unwrap_or_else(|| panic!("model {m} has send data"));
                    let one_shot = |u: f64| {
                        model
                            .quantile_time(Op::Send, size, c, u)
                            .or_else(|| model.quantile_time(Op::Isend, size, c, u))
                            .unwrap()
                    };
                    // One draw vector, resolved once cold and once with its
                    // own parts in hand.
                    let u: [f64; 11] = std::array::from_fn(|i| i as f64 / 10.0);
                    let mut parts = CellParts::default();
                    for pass in 0..2 {
                        let times = time.quantiles(&u, &mut parts);
                        for (u, t) in u.iter().zip(times) {
                            assert_eq!(
                                t.to_bits(),
                                one_shot(*u).to_bits(),
                                "model {m} size={size} c={c} u={u} pass {pass}"
                            );
                        }
                    }
                    assert_eq!(time.floor().to_bits(), one_shot(0.0).to_bits());
                }
            }
            // A NaN size has no table cell (the analytic model computes
            // with it).
            if !matches!(model, TimingModel::Hockney { .. }) {
                assert!(model.resolve_p2p(Op::Send, f64::NAN, 1.0).is_none());
            }
        }
        // Without the fallback an Isend-only table has nothing for Send.
        assert!(models[5].resolve(Op::Send, 1024.0, 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid benchmark table")]
    fn empty_histogram_table_is_rejected_at_construction() {
        let mut t = DistTable::new();
        t.insert(
            DistKey {
                op: Op::Send,
                size: 8,
                contention: 1,
            },
            CommDist::Hist(Histogram::new(0.0, 1.0)),
        );
        let _ = TimingModel::distributions(t);
    }

    #[test]
    fn missing_data_yields_none() {
        let m = TimingModel::distributions(DistTable::new());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(m.comm_time(Op::Send, 1.0, 1.0, &mut rng), None);
    }
}
