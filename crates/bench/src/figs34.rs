//! Figures 3 & 4: sampled performance profiles (PDFs) of individual
//! MPI_Isend times.
//!
//! - Figure 3: small messages (0–1024 B) with 64×2 processes — high
//!   contention for the per-node NIC and the backplane. Distributions show
//!   a bounded minimum, a peak near the mean, and a fast-decaying tail.
//! - Figure 4: large messages with 64×1 processes — backplane saturation.
//!   Distributions grow long tails, with detached outliers "at values
//!   related to the network's retransmission timeout parameters".

use pevpm_dist::{Ecdf, Histogram};
use pevpm_mpibench::{run_p2p, P2pConfig};

/// Configuration of a PDF experiment.
#[derive(Debug, Clone)]
pub struct PdfConfig {
    /// Nodes × processes-per-node.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// Message sizes whose PDFs are produced.
    pub sizes: Vec<u64>,
    /// Repetitions per size.
    pub repetitions: usize,
    /// Seed.
    pub seed: u64,
    /// Histogram bins.
    pub bins: usize,
}

impl PdfConfig {
    /// Figure 3: 64×2, sizes 0–1024 B.
    pub fn fig3() -> Self {
        PdfConfig {
            nodes: 64,
            ppn: 2,
            sizes: vec![64, 256, 512, 1024],
            repetitions: 60,
            seed: 3,
            bins: 60,
        }
    }

    /// Figure 4: 64×1, large messages into saturation.
    pub fn fig4() -> Self {
        PdfConfig {
            nodes: 64,
            ppn: 1,
            sizes: vec![16 * 1024, 32 * 1024, 64 * 1024, 256 * 1024],
            repetitions: 15,
            seed: 4,
            bins: 60,
        }
    }
}

/// One size's distribution with summary statistics.
#[derive(Debug, Clone)]
pub struct PdfSeries {
    /// Message size.
    pub size: u64,
    /// Histogram over the observed per-message times.
    pub hist: Histogram,
    /// Exact empirical CDF (kept for tail analysis).
    pub ecdf: Ecdf,
}

/// Run the experiment: per-size PDFs of individual message times.
pub fn run(cfg: &PdfConfig) -> Vec<PdfSeries> {
    let p2p = P2pConfig::perseus(
        cfg.nodes,
        cfg.ppn,
        cfg.sizes.clone(),
        cfg.repetitions,
        cfg.seed,
    );
    let res = run_p2p(&p2p).expect("PDF benchmark failed");
    res.by_size
        .iter()
        .map(|s| PdfSeries {
            size: s.size,
            hist: pevpm_mpibench::histogram_from_samples(&s.samples, cfg.bins),
            ecdf: Ecdf::new(&s.samples),
        })
        .collect()
}

/// Render PDFs as ASCII histograms with the paper's qualitative markers
/// (min, mode, mean, max, outlier tail mass beyond 100 ms).
pub fn render(series: &[PdfSeries]) -> String {
    let mut out = String::new();
    for s in series {
        let sum = s.hist.summary();
        out.push_str(&format!(
            "== size {} B: min {} mode {} mean {} max {} | tail>100ms {:.1}% ==\n",
            s.size,
            crate::report::secs(sum.min().unwrap_or(0.0)),
            crate::report::secs(s.hist.mode().unwrap_or(0.0)),
            crate::report::secs(sum.mean().unwrap_or(0.0)),
            crate::report::secs(sum.max().unwrap_or(0.0)),
            s.hist.tail_mass(0.1) * 100.0
        ));
        // Print only populated bins (the RTO gap would otherwise produce
        // thousands of empty lines).
        let max_mass = s
            .hist
            .pdf_series()
            .map(|(_, m)| m)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        for (mid, mass) in s.hist.pdf_series() {
            if mass > 0.0 {
                out.push_str(&format!(
                    "  {:>10} {:<40} {:.3}\n",
                    crate::report::secs(mid),
                    crate::report::bar(mass / max_mass, 40),
                    mass
                ));
            }
        }
    }
    out
}

/// The Figure-3 shape test: smooth rise from a bounded minimum, peak close
/// to the mean, fast decay (quantified as p99 within a few× the median).
pub fn is_fig3_shape(s: &PdfSeries) -> bool {
    let sum = s.hist.summary();
    let (Some(min), Some(mean)) = (sum.min(), sum.mean()) else {
        return false;
    };
    let Some(mode) = s.hist.mode() else {
        return false;
    };
    let Some(p99) = s.ecdf.quantile(0.99) else {
        return false;
    };
    let Some(med) = s.ecdf.quantile(0.5) else {
        return false;
    };
    min > 0.0 && (mode - mean).abs() / mean < 0.35 && p99 < med * 3.0
}

/// The Figure-4 shape test: long tail and/or detached RTO outliers.
pub fn is_fig4_shape(s: &PdfSeries) -> bool {
    let Some(med) = s.ecdf.quantile(0.5) else {
        return false;
    };
    let Some(max) = s.ecdf.quantile(1.0) else {
        return false;
    };
    // Outliers beyond 100 ms (RTO scale) or a very stretched tail.
    (max > 0.1 && s.hist.tail_mass(0.1) > 0.0) || max > med * 5.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_like_distributions_at_modest_scale() {
        let series = run(&PdfConfig {
            nodes: 16,
            ppn: 2,
            sizes: vec![256, 1024],
            repetitions: 40,
            seed: 5,
            bins: 40,
        });
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(
                is_fig3_shape(s),
                "size {}: min {:?} mean {:?} mode {:?}",
                s.size,
                s.hist.summary().min(),
                s.hist.summary().mean(),
                s.hist.mode()
            );
        }
    }

    #[test]
    fn fig4_like_tails_under_saturation() {
        let series = run(&PdfConfig {
            nodes: 64,
            ppn: 1,
            sizes: vec![32 * 1024],
            repetitions: 12,
            seed: 6,
            bins: 40,
        });
        assert!(is_fig4_shape(&series[0]), "expected saturation tail");
    }

    #[test]
    fn render_is_compact_despite_outlier_gap() {
        let series = run(&PdfConfig {
            nodes: 8,
            ppn: 1,
            sizes: vec![512],
            repetitions: 20,
            seed: 7,
            bins: 30,
        });
        let text = render(&series);
        assert!(text.lines().count() < 60, "render too long:\n{text}");
        assert!(text.contains("size 512"));
    }
}
