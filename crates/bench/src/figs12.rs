//! Figures 1 & 2: average MPI_Isend times vs message size for `n×p`
//! machine shapes, plus the `min` (contention-free) curve — and the
//! in-text claims T-70% (1 KB contention penalty) and T-knee (16 KB
//! eager→rendezvous knee, ~81 Mbit/s two-process goodput at 16 KB).

use pevpm_mpibench::{run_sweep, MachineShape, SweepConfig, SweepResult};

/// Configuration for the Figure 1/2 sweeps.
#[derive(Debug, Clone)]
pub struct FigsConfig {
    /// Machine shapes (lines of the figure).
    pub shapes: Vec<MachineShape>,
    /// Message sizes (x axis).
    pub sizes: Vec<u64>,
    /// Repetitions per point.
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
}

impl FigsConfig {
    /// Figure 1: small messages (64 B – 4 KB).
    pub fn fig1() -> Self {
        FigsConfig {
            shapes: pevpm_mpibench::paper_shapes(),
            sizes: pevpm_mpibench::size_grid(64, 4096),
            repetitions: 50,
            seed: 1,
        }
    }

    /// Figure 2: large messages (1 KB – 256 KB).
    pub fn fig2() -> Self {
        FigsConfig {
            shapes: pevpm_mpibench::paper_shapes(),
            sizes: pevpm_mpibench::size_grid(1024, 256 * 1024),
            repetitions: 25,
            seed: 2,
        }
    }
}

/// Run the sweep behind a figure.
pub fn run(cfg: &FigsConfig) -> SweepResult {
    run_sweep(&SweepConfig {
        shapes: cfg.shapes.clone(),
        sizes: cfg.sizes.clone(),
        repetitions: cfg.repetitions,
        seed: cfg.seed,
        bins: pevpm_mpibench::HIST_BINS,
    })
    .expect("sweep failed")
}

/// Render the figure's series: one row per size, one column per shape
/// (average µs), plus the `min` column (the fastest message observed in
/// the least-loaded configuration).
pub fn render(res: &SweepResult) -> String {
    let mut header: Vec<String> = vec!["size".into()];
    header.extend(
        res.runs
            .iter()
            .map(|r| format!("{}x{} avg", r.nodes, r.ppn)),
    );
    header.push("min".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let nsizes = res.runs.first().map(|r| r.by_size.len()).unwrap_or(0);
    let mut rows = Vec::new();
    for si in 0..nsizes {
        let size = res.runs[0].by_size[si].size;
        let mut row = vec![size.to_string()];
        let mut min = f64::INFINITY;
        for run in &res.runs {
            let s = &run.by_size[si];
            row.push(format!("{:.1}", s.summary.mean().unwrap_or(0.0) * 1e6));
            min = min.min(s.summary.min().unwrap_or(f64::INFINITY));
        }
        row.push(format!("{:.1}", min * 1e6));
        rows.push(row);
    }
    crate::report::table(&header_refs, &rows)
}

/// The T-70% claim: ratio of the 1 KB average at the largest `n×1` shape
/// to the 2×1 average. The paper reports ≈1.7 on Perseus.
pub fn contention_penalty_1k(res: &SweepResult) -> Option<f64> {
    let t2 = res
        .run_for(MachineShape { nodes: 2, ppn: 1 })?
        .by_size
        .iter()
        .find(|s| s.size == 1024)?
        .summary
        .mean()?;
    let big = res
        .runs
        .iter()
        .filter(|r| r.ppn == 1)
        .max_by_key(|r| r.nodes)?;
    let tn = big
        .by_size
        .iter()
        .find(|s| s.size == 1024)?
        .summary
        .mean()?;
    Some(tn / t2)
}

/// The T-knee claim: effective two-process goodput (Mbit/s) per size, and
/// the size at which the marginal per-byte cost jumps (the protocol knee).
pub fn knee_analysis(res: &SweepResult) -> (Vec<(u64, f64)>, Option<u64>) {
    let Some(run) = res.run_for(MachineShape { nodes: 2, ppn: 1 }) else {
        return (Vec::new(), None);
    };
    let goodput: Vec<(u64, f64)> = run
        .by_size
        .iter()
        .filter_map(|s| {
            let mean = s.summary.mean()?;
            Some((s.size, s.size as f64 * 8.0 / mean / 1e6))
        })
        .collect();

    // Knee: compare each point against the local linear extrapolation of
    // the two preceding points. A protocol switch shows up as an excess
    // over the extrapolated line (the rendezvous handshake), which is
    // subtle relative to wire time — the paper itself says the knee is
    // only visible on "closer inspection".
    let mut knee = None;
    let mut worst = 0.0;
    for w in run.by_size.windows(3) {
        let (a, b, c) = (&w[0], &w[1], &w[2]);
        let (Some(ta), Some(tb), Some(tc)) = (a.summary.mean(), b.summary.mean(), c.summary.mean())
        else {
            continue;
        };
        let slope = (tb - ta) / (b.size - a.size) as f64;
        let t_ext = tb + slope * (c.size - b.size) as f64;
        let excess = tc - t_ext;
        let threshold = (0.02 * t_ext).max(25e-6);
        if excess > threshold && excess > worst {
            worst = excess;
            knee = Some(c.size);
        }
    }
    (goodput, knee)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_result() -> SweepResult {
        run(&FigsConfig {
            shapes: vec![
                MachineShape { nodes: 2, ppn: 1 },
                MachineShape { nodes: 32, ppn: 1 },
            ],
            sizes: vec![1024, 4096, 8192, 16384, 32768],
            repetitions: 12,
            seed: 3,
        })
    }

    #[test]
    fn render_produces_one_row_per_size() {
        let res = small_result();
        let text = render(&res);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 5, "{text}");
        assert!(lines[0].contains("2x1 avg"));
        assert!(lines[0].contains("min"));
    }

    #[test]
    fn contention_penalty_exceeds_one() {
        let res = small_result();
        let p = contention_penalty_1k(&res).unwrap();
        assert!(p > 1.05, "penalty {p}");
    }

    #[test]
    fn knee_detected_at_rendezvous_threshold() {
        let res = small_result();
        let (goodput, knee) = knee_analysis(&res);
        assert_eq!(goodput.len(), 5);
        // Goodput grows with size below saturation.
        assert!(goodput[1].1 > goodput[0].1);
        assert_eq!(knee, Some(16384), "knee at the 16 KB protocol switch");
    }
}
