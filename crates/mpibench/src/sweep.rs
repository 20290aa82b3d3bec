//! Full benchmark sweeps: run the p2p benchmark over a grid of `n×p`
//! machine configurations and message sizes, producing both the
//! figure-ready series (average/min lines per configuration) and the
//! benchmark database ([`DistTable`]) that PEVPM samples from.

use crate::p2p::{run_p2p, P2pConfig, P2pResult, HIST_BINS};
use pevpm_dist::{DistTable, Op};
use pevpm_mpisim::SimError;

/// A machine configuration in the paper's `n×p` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of nodes.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
}

impl std::fmt::Display for MachineShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.nodes, self.ppn)
    }
}

/// The configuration grid used throughout the paper's figures:
/// n ∈ {2,4,8,16,32,64} × p ∈ {1,2}.
pub fn paper_shapes() -> Vec<MachineShape> {
    let mut v = Vec::new();
    for &ppn in &[1usize, 2] {
        for &nodes in &[2usize, 4, 8, 16, 32, 64] {
            v.push(MachineShape { nodes, ppn });
        }
    }
    v
}

/// Geometric size grid `lo..=hi` doubling each step.
pub fn size_grid(lo: u64, hi: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = lo.max(1);
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// Configuration of a full p2p sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Machine shapes to test.
    pub shapes: Vec<MachineShape>,
    /// Message sizes.
    pub sizes: Vec<u64>,
    /// Timed repetitions per (shape, size).
    pub repetitions: usize,
    /// Base RNG seed; each shape uses a distinct derived seed.
    pub seed: u64,
    /// Histogram bins used when building the benchmark database.
    pub bins: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shapes: paper_shapes(),
            sizes: size_grid(64, 4096),
            repetitions: 100,
            seed: 20040101,
            bins: HIST_BINS,
        }
    }
}

/// Result of a sweep: per-shape p2p results plus the merged database.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One p2p result per machine shape, in `shapes` order.
    pub runs: Vec<P2pResult>,
    /// The benchmark database (op = Isend) keyed by size × contention.
    pub table: DistTable,
}

impl SweepResult {
    /// The run for a given shape, if it was in the sweep.
    pub fn run_for(&self, shape: MachineShape) -> Option<&P2pResult> {
        self.runs
            .iter()
            .find(|r| r.nodes == shape.nodes && r.ppn == shape.ppn)
    }
}

/// Run the sweep. This is the expensive entry point behind Figures 1–4.
/// Shapes are independent simulations, so they fan out across all
/// available cores; see [`run_sweep_threads`] for an explicit count.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepResult, SimError> {
    run_sweep_threads(cfg, 0)
}

/// [`run_sweep`] with an explicit worker-thread count (`0` = all cores,
/// `1` = serial). Each shape derives its world seed from the shape index
/// alone (`replica_seed(cfg.seed, i)`), and results are merged into the
/// database in shape order, so the output is bitwise identical at any
/// thread count.
pub fn run_sweep_threads(cfg: &SweepConfig, threads: usize) -> Result<SweepResult, SimError> {
    let runs = crate::p2p::replicated(cfg.shapes.len(), threads, |i| {
        let shape = cfg.shapes[i];
        run_p2p(&P2pConfig::perseus(
            shape.nodes,
            shape.ppn,
            cfg.sizes.clone(),
            cfg.repetitions,
            pevpm::replicate::replica_seed(cfg.seed, i as u64),
        ))
    })?;
    let mut table = DistTable::new();
    for res in &runs {
        res.add_to_table(&mut table, Op::Isend, cfg.bins);
    }
    Ok(SweepResult { runs, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_twelve_shapes() {
        let shapes = paper_shapes();
        assert_eq!(shapes.len(), 12);
        assert_eq!(shapes[0].to_string(), "2x1");
        assert_eq!(shapes[11].to_string(), "64x2");
    }

    #[test]
    fn size_grid_doubles() {
        assert_eq!(size_grid(64, 1024), vec![64, 128, 256, 512, 1024]);
        assert_eq!(size_grid(1, 1), vec![1]);
    }

    #[test]
    fn sweep_is_bitwise_identical_at_any_thread_count() {
        let cfg = SweepConfig {
            shapes: vec![
                MachineShape { nodes: 2, ppn: 1 },
                MachineShape { nodes: 4, ppn: 1 },
                MachineShape { nodes: 2, ppn: 2 },
            ],
            sizes: vec![256, 512],
            repetitions: 8,
            seed: 5,
            bins: 32,
        };
        let serial = run_sweep_threads(&cfg, 1).unwrap();
        for threads in [2usize, 4] {
            let par = run_sweep_threads(&cfg, threads).unwrap();
            assert_eq!(serial.runs.len(), par.runs.len());
            for (a, b) in serial.runs.iter().zip(&par.runs) {
                assert_eq!((a.nodes, a.ppn), (b.nodes, b.ppn), "shape order changed");
                for (sa, sb) in a.by_size.iter().zip(&b.by_size) {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&sa.samples), bits(&sb.samples));
                }
            }
            assert_eq!(serial.table.len(), par.table.len());
        }
    }

    #[test]
    fn small_sweep_builds_table() {
        let cfg = SweepConfig {
            shapes: vec![
                MachineShape { nodes: 2, ppn: 1 },
                MachineShape { nodes: 4, ppn: 1 },
            ],
            sizes: vec![256, 1024],
            repetitions: 15,
            seed: 5,
            bins: 20,
        };
        let res = run_sweep(&cfg).unwrap();
        assert_eq!(res.runs.len(), 2);
        // Table holds 2 shapes × 2 sizes = 4 histograms; exchange mode
        // records n concurrent messages per shape.
        assert_eq!(res.table.len(), 4);
        assert_eq!(res.table.contentions(Op::Isend), vec![2, 4]);
        assert!(res.run_for(MachineShape { nodes: 4, ppn: 1 }).is_some());
        assert!(res.run_for(MachineShape { nodes: 64, ppn: 2 }).is_none());
    }
}
