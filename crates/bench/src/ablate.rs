//! Ablations of design choices the paper calls out.
//!
//! - **Abl-bins** (§6): "the small prediction errors … were mainly due to
//!   the granularity (i.e. histogram bin size) of the benchmark results …
//!   these errors could be reduced even further by using smaller bin
//!   sizes". We coarsen the benchmark histograms by increasing factors and
//!   watch the prediction drift and the information loss (KS distance).
//! - **Abl-clock** (§2): MPIBench's defining feature is its precise global
//!   clock. We inject clock-synchronisation error into the benchmark and
//!   quantify the distortion of the measured distributions.

use crate::fig6;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::{CommDist, DistTable, Ecdf};
use pevpm_mpibench::{run_p2p, ClockModel, P2pConfig};

/// Coarsen every histogram in a table by `factor`.
pub fn coarsen_table(table: &DistTable, factor: usize) -> DistTable {
    let mut out = DistTable::new();
    for (k, d) in table.iter() {
        let d2 = match d {
            CommDist::Hist(h) => CommDist::Hist(h.coarsen(factor)),
            other => other.clone(),
        };
        out.insert(k, d2);
    }
    out
}

/// One bin-granularity ablation row.
#[derive(Debug, Clone)]
pub struct BinRow {
    /// Coarsening factor applied to the benchmark histograms.
    pub factor: usize,
    /// PEVPM prediction with the coarsened table.
    pub predicted: f64,
    /// Relative deviation from the finest-grained prediction.
    pub drift: f64,
}

/// Abl-bins: prediction sensitivity to histogram bin width.
pub fn run_bins(
    shape: pevpm_mpibench::MachineShape,
    jacobi_cfg: &JacobiConfig,
    factors: &[usize],
    bench_reps: usize,
    seed: u64,
) -> Vec<BinRow> {
    let table = fig6::shape_table(shape, &fig6::jacobi_sizes(jacobi_cfg), bench_reps, seed);
    let model = jacobi::model(jacobi_cfg);
    let nprocs = shape.nodes * shape.ppn;

    let base = evaluate(
        &model,
        &EvalConfig::new(nprocs).with_seed(seed),
        &TimingModel::distributions(table.clone()),
    )
    .expect("baseline prediction failed")
    .makespan;

    // Each coarsening factor re-evaluates the same model independently;
    // fan the factors across all cores.
    pevpm::replicate::parallel_map(factors.len(), 0, |i| {
        let factor = factors[i];
        let coarse = coarsen_table(&table, factor);
        let predicted = evaluate(
            &model,
            &EvalConfig::new(nprocs).with_seed(seed),
            &TimingModel::distributions(coarse),
        )
        .expect("coarse prediction failed")
        .makespan;
        BinRow {
            factor,
            predicted,
            drift: (predicted - base) / base,
        }
    })
}

/// Result of the parametric-fit ablation (§2's "parametrised functions").
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Prediction from the raw histogram database.
    pub hist_prediction: f64,
    /// Prediction from the best-fit parametric database.
    pub fit_prediction: f64,
    /// Serialised size of the histogram database (`.dist` bytes).
    pub hist_bytes: usize,
    /// Serialised size of the fitted database.
    pub fit_bytes: usize,
    /// Worst per-cell KS distance of the chosen fits.
    pub worst_ks: f64,
}

impl FitResult {
    /// Relative disagreement between fitted and histogram predictions.
    pub fn drift(&self) -> f64 {
        (self.fit_prediction - self.hist_prediction) / self.hist_prediction
    }

    /// Compression factor of the fitted database.
    pub fn compression(&self) -> f64 {
        self.hist_bytes as f64 / self.fit_bytes.max(1) as f64
    }
}

/// Abl-fit: replace the benchmark histograms by best-fit parametric models
/// and compare predictions and database sizes.
pub fn run_fits(
    shape: pevpm_mpibench::MachineShape,
    jacobi_cfg: &JacobiConfig,
    bench_reps: usize,
    seed: u64,
) -> FitResult {
    use pevpm_dist::{CommDist, ParametricFit};

    let table = fig6::shape_table(shape, &fig6::jacobi_sizes(jacobi_cfg), bench_reps, seed);
    let fitted = table.fitted();
    let worst_ks = table
        .iter()
        .filter_map(|(_, d)| match d {
            CommDist::Hist(h) => ParametricFit::best_fit(h).map(|(_, ks)| ks),
            _ => None,
        })
        .fold(0.0, f64::max);

    let model = jacobi::model(jacobi_cfg);
    let nprocs = shape.nodes * shape.ppn;
    let predict = |t: pevpm_dist::DistTable| {
        evaluate(
            &model,
            &EvalConfig::new(nprocs).with_seed(seed),
            &TimingModel::distributions(t),
        )
        .expect("fit-ablation prediction failed")
        .makespan
    };

    FitResult {
        hist_prediction: predict(table.clone()),
        fit_prediction: predict(fitted.clone()),
        hist_bytes: pevpm_dist::io::write_table(&table).len(),
        fit_bytes: pevpm_dist::io::write_table(&fitted).len(),
        worst_ks,
    }
}

/// One clock-skew ablation row.
#[derive(Debug, Clone)]
pub struct ClockRow {
    /// Maximum injected per-rank clock offset (seconds).
    pub max_offset: f64,
    /// Mean of the measured distribution under this skew.
    pub mean: f64,
    /// KS distance between the skewed and clean measured distributions.
    pub ks: f64,
}

/// Abl-clock: distribution distortion under clock-synchronisation error.
pub fn run_clock(
    nodes: usize,
    size: u64,
    offsets: &[f64],
    reps: usize,
    seed: u64,
) -> Vec<ClockRow> {
    let base_cfg = P2pConfig {
        warmup: 4,
        ..P2pConfig::perseus(nodes, 1, vec![size], reps, seed)
    };
    let clean = run_p2p(&base_cfg).expect("clean benchmark failed");
    let clean_ecdf = Ecdf::new(&clean.by_size[0].samples);

    // Skew levels are independent benchmark runs; fan them across cores.
    pevpm::replicate::parallel_map(offsets.len(), 0, |i| {
        let off = offsets[i];
        let mut cfg = base_cfg.clone();
        cfg.clock = Some(ClockModel::skewed(nodes, off, seed ^ 0xc10c));
        let res = run_p2p(&cfg).expect("skewed benchmark failed");
        let s = &res.by_size[0];
        ClockRow {
            max_offset: off,
            mean: s.summary.mean().unwrap_or(0.0),
            ks: clean_ecdf.ks_distance(&Ecdf::new(&s.samples)),
        }
    })
}

/// Render both ablations.
pub fn render_bins(rows: &[BinRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x", r.factor),
                crate::report::secs(r.predicted),
                crate::report::pct(r.drift),
            ]
        })
        .collect();
    crate::report::table(&["bin-coarsening", "prediction", "drift"], &body)
}

/// Render the clock ablation table.
pub fn render_clock(rows: &[ClockRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                crate::report::secs(r.max_offset),
                crate::report::secs(r.mean),
                format!("{:.3}", r.ks),
            ]
        })
        .collect();
    crate::report::table(&["max-skew", "measured-mean", "KS-vs-clean"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_mpibench::MachineShape;

    #[test]
    fn coarse_bins_drift_but_mildly() {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 30,
            serial_secs: 3.24e-3,
        };
        let rows = run_bins(MachineShape { nodes: 4, ppn: 1 }, &cfg, &[1, 4, 16], 20, 5);
        assert_eq!(rows.len(), 3);
        // Identity coarsening = no drift.
        assert!(rows[0].drift.abs() < 1e-12);
        // Sampled quantiles stay bounded: even 16× coarsening moves the
        // prediction by at most a few percent.
        assert!(rows[2].drift.abs() < 0.05, "drift {}", rows[2].drift);
    }

    #[test]
    fn fitted_databases_predict_close_to_histograms() {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 30,
            serial_secs: 3.24e-3,
        };
        let res = run_fits(MachineShape { nodes: 4, ppn: 1 }, &cfg, 25, 7);
        assert!(
            res.drift().abs() < 0.03,
            "fit prediction drift {:.2}% (hist {}, fit {})",
            res.drift() * 100.0,
            res.hist_prediction,
            res.fit_prediction
        );
        assert!(
            res.compression() > 3.0,
            "fitted database should be much smaller: {}x",
            res.compression()
        );
        assert!(res.worst_ks < 0.35, "fits too poor: KS {}", res.worst_ks);
    }

    #[test]
    fn clock_skew_distorts_distributions_monotonically() {
        // The KS statistic saturates at 0.5 once every pair's clock
        // displacement exceeds the ~30 µs support of the clean 1 KB
        // distribution, so the monotonicity probe must stay in the
        // sub-saturation regime: 10 µs (partial overlap) vs 100 µs
        // (fully displaced). See EXPERIMENTS.md (Abl-clock).
        let rows = run_clock(4, 1024, &[0.0, 1e-5, 1e-4], 40, 6);
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].ks < 0.05,
            "zero skew should match clean: {}",
            rows[0].ks
        );
        assert!(
            rows[2].ks > rows[1].ks,
            "bigger skew should distort more: {} vs {}",
            rows[1].ks,
            rows[2].ks
        );
        assert!(rows[2].ks > 0.2, "0.1 ms skew must be clearly visible");
    }
}
