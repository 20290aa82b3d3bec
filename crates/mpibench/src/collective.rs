//! Collective-operation benchmark driver.
//!
//! MPIBench's second headline capability (§2): because every process reads
//! the same global clock, the benchmark can record the completion time of a
//! collective **at every process**, not just at one designated rank the way
//! conventional benchmarks do. Samples here are per-process completion
//! times measured from the synchronised start of each repetition.

use crate::clock::ClockModel;
use crate::p2p::histogram_from_samples;
use pevpm_dist::{CollOp, CommDist, DistKey, DistTable, Summary};
use pevpm_mpisim::{Proc, ReduceOp, SimError, World, WorldConfig};
use std::cell::RefCell;

/// Run one `op` of `bytes` bytes on `rank`: the one mapping from a
/// collective to mpisim calls, shared by the benchmark and the
/// co-simulator. Bcast and reduce are rooted at rank 0; reduce and
/// allreduce sum a real payload of `bytes / 8` (at least one) `f64`s; a
/// barrier ignores `bytes`.
pub async fn perform(rank: &mut Proc, op: CollOp, bytes: u64) {
    match op {
        CollOp::Barrier => rank.barrier().await,
        CollOp::Bcast => rank.bcast_size(0, bytes).await,
        CollOp::Reduce => {
            let data = vec![1.0f64; (bytes as usize / 8).max(1)];
            let _ = rank.reduce_f64s(0, &data, ReduceOp::Sum).await;
        }
        CollOp::Allreduce => {
            let data = vec![1.0f64; (bytes as usize / 8).max(1)];
            let _ = rank.allreduce_f64s(&data, ReduceOp::Sum).await;
        }
        CollOp::Alltoall => rank.alltoall_size(bytes).await,
    }
}

/// Configuration of one collective benchmark run.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// World under test.
    pub world: WorldConfig,
    /// Collective to benchmark.
    pub op: CollOp,
    /// Message sizes to sweep (a single `0` for barrier).
    pub sizes: Vec<u64>,
    /// Timed repetitions per size.
    pub repetitions: usize,
    /// Untimed warmup repetitions.
    pub warmup: usize,
    /// Clock model (perfect by default).
    pub clock: Option<ClockModel>,
}

/// Per-size distribution of per-process completion times.
#[derive(Debug, Clone)]
pub struct CollSizeResult {
    /// Message size in bytes.
    pub size: u64,
    /// One completion-time sample per (process, repetition).
    pub samples: Vec<f64>,
    /// Exact summary of the samples.
    pub summary: Summary,
}

/// Result of a collective benchmark run.
#[derive(Debug, Clone)]
pub struct CollResult {
    /// The collective that was measured.
    pub op: CollOp,
    /// Ranks in the world.
    pub nranks: usize,
    /// Per-size results.
    pub by_size: Vec<CollSizeResult>,
}

impl CollResult {
    /// Average completion time per size.
    pub fn avg_series(&self) -> Vec<(u64, f64)> {
        self.by_size
            .iter()
            .map(|r| (r.size, r.summary.mean().unwrap_or(0.0)))
            .collect()
    }

    /// Insert histograms into a benchmark database. Collectives are
    /// recorded at contention level = nranks (every process participates).
    pub fn add_to_table(&self, table: &mut DistTable, bins: usize) {
        for r in &self.by_size {
            table.insert(
                DistKey {
                    op: self.op.op(),
                    size: r.size,
                    contention: self.nranks as u32,
                },
                CommDist::Hist(histogram_from_samples(&r.samples, bins)),
            );
        }
    }
}

/// Run a collective benchmark: per repetition, all ranks synchronise, then
/// each records its own completion time for the collective.
pub fn run_collective(cfg: &CollConfig) -> Result<CollResult, SimError> {
    let n = cfg.world.nranks();
    let nsizes = cfg.sizes.len();
    let clock = cfg.clock.clone().unwrap_or_else(|| ClockModel::perfect(n));

    let stamps = RefCell::new(vec![vec![Vec::new(); nsizes]; n]);
    let (op, reps, warmup) = (cfg.op, cfg.repetitions, cfg.warmup);

    World::run_async(cfg.world.clone(), async |rank| {
        let r = rank.rank();
        for (si, &size) in cfg.sizes.iter().enumerate() {
            for _ in 0..warmup {
                perform(rank, op, size).await;
            }
            let mut local = Vec::with_capacity(reps);
            for _ in 0..reps {
                rank.barrier().await;
                let t0 = clock.read(r, rank.now());
                perform(rank, op, size).await;
                let t1 = clock.read(r, rank.now());
                local.push((t1 - t0).max(0.0));
            }
            stamps.borrow_mut()[r][si] = local;
        }
    })?;

    let stamps = stamps.into_inner();
    let mut by_size = Vec::with_capacity(nsizes);
    for (si, &size) in cfg.sizes.iter().enumerate() {
        let mut samples = Vec::with_capacity(reps * n);
        for per_rank in stamps.iter() {
            samples.extend_from_slice(&per_rank[si]);
        }
        let summary = Summary::from_slice(&samples);
        by_size.push(CollSizeResult {
            size,
            samples,
            summary,
        });
    }
    Ok(CollResult {
        op: cfg.op,
        nranks: n,
        by_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_dist::Op;

    fn quick(op: CollOp, nodes: usize, sizes: Vec<u64>) -> CollResult {
        run_collective(&CollConfig {
            world: WorldConfig::perseus(nodes, 1, 1),
            op,
            sizes,
            repetitions: 10,
            warmup: 2,
            clock: None,
        })
        .unwrap()
    }

    #[test]
    fn barrier_scales_with_rank_count() {
        let small = quick(CollOp::Barrier, 2, vec![0]);
        let large = quick(CollOp::Barrier, 16, vec![0]);
        let m_small = small.by_size[0].summary.mean().unwrap();
        let m_large = large.by_size[0].summary.mean().unwrap();
        assert!(
            m_large > m_small,
            "barrier should cost more at 16 ranks: {m_small} vs {m_large}"
        );
    }

    #[test]
    fn bcast_collects_samples_from_every_rank() {
        let res = quick(CollOp::Bcast, 4, vec![256, 1024]);
        assert_eq!(res.by_size.len(), 2);
        // 4 ranks × 10 reps.
        assert_eq!(res.by_size[0].samples.len(), 40);
        // Larger broadcasts take longer.
        assert!(res.by_size[1].summary.mean().unwrap() > res.by_size[0].summary.mean().unwrap());
    }

    #[test]
    fn reduce_and_allreduce_run() {
        let r = quick(CollOp::Reduce, 4, vec![64]);
        assert!(r.by_size[0].summary.mean().unwrap() > 0.0);
        let a = quick(CollOp::Allreduce, 4, vec![64]);
        // Allreduce = reduce + bcast, so it must cost more than reduce.
        assert!(a.by_size[0].summary.mean().unwrap() > r.by_size[0].summary.mean().unwrap());
    }

    #[test]
    fn alltoall_is_the_most_expensive() {
        let b = quick(CollOp::Bcast, 4, vec![1024]);
        let a = quick(CollOp::Alltoall, 4, vec![1024]);
        assert!(a.by_size[0].summary.mean().unwrap() > b.by_size[0].summary.mean().unwrap());
    }

    #[test]
    fn table_insertion_records_contention_as_nranks() {
        let res = quick(CollOp::Bcast, 4, vec![256]);
        let mut t = DistTable::new();
        res.add_to_table(&mut t, 32);
        assert!(t
            .get(&DistKey {
                op: Op::Bcast,
                size: 256,
                contention: 4
            })
            .is_some());
    }
}
