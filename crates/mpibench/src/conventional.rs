//! Conventional MPI benchmarking, reproduced for comparison.
//!
//! §2 of the paper: Mpptest, MPBench, SKaMPI and the Pallas benchmarks
//! "all determine the average communication time … using essentially the
//! same approach: they measure the time taken for many repetitions of an
//! MPI operation and then compute the average". This module implements
//! that methodology faithfully — a rank-0-local stopwatch around a batch
//! of ping-pongs — so its blind spots can be demonstrated against
//! MPIBench's per-message global-clock measurements:
//!
//! 1. it reports a single number, hiding the distribution (no tails, no
//!    RTO outliers — the very information PEVPM needs);
//! 2. it measures an *idle* network (one pair at a time), so it cannot see
//!    contention at all;
//! 3. batched non-resynchronised loops let pipelining smear what each
//!    "repetition" means.

use crate::p2p::{run_p2p, P2pConfig};
use pevpm_dist::Summary;
use pevpm_mpisim::{Proc, SimError, World, WorldConfig};
use std::cell::RefCell;

/// Result of a conventional ping-pong benchmark: one number per size.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Message size.
    pub size: u64,
    /// The reported "time per message": round-trip / 2, averaged over the
    /// whole batch by rank 0's local stopwatch.
    pub avg: f64,
}

/// Run the conventional benchmark: ranks 0 and 1 ping-pong `reps` times
/// per size; rank 0 times the whole batch locally and divides.
pub fn run_pingpong(
    world: WorldConfig,
    sizes: &[u64],
    reps: usize,
) -> Result<Vec<PingPongResult>, SimError> {
    assert!(world.nranks() >= 2, "ping-pong needs two ranks");
    let out = RefCell::new(Vec::new());

    World::run_async(world, async |rank| {
        if rank.rank() > 1 {
            return;
        }
        for (si, &size) in sizes.iter().enumerate() {
            barrier2(rank).await; // pairwise sync between ranks 0 and 1
            let t0 = rank.now();
            for _ in 0..reps {
                if rank.rank() == 0 {
                    rank.send_size(1, si as u64, size).await;
                    let _ = rank.recv(1, si as u64).await;
                } else {
                    let _ = rank.recv(0, si as u64).await;
                    rank.send_size(0, si as u64, size).await;
                }
            }
            if rank.rank() == 0 {
                let elapsed = rank.now().since(t0).as_secs_f64();
                out.borrow_mut().push(PingPongResult {
                    size,
                    avg: elapsed / (2.0 * reps as f64),
                });
            }
        }
    })?;

    Ok(out.into_inner())
}

/// What the conventional number misses, per size: MPIBench's per-message
/// statistics under real contention at the same machine shape.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Message size.
    pub size: u64,
    /// Conventional ping-pong average (idle network, round-trip halves).
    pub conventional_avg: f64,
    /// MPIBench per-message summary under the loaded `n×p` exchange.
    pub mpibench: Summary,
    /// 99th percentile of the MPIBench distribution.
    pub p99: f64,
}

impl Comparison {
    /// How much slower the loaded-network average is than the conventional
    /// number — the contention the single number cannot see.
    pub fn hidden_contention_factor(&self) -> f64 {
        self.mpibench.mean().unwrap_or(0.0) / self.conventional_avg
    }
}

/// Run both methodologies on the same machine shape and pair the results.
pub fn compare(
    nodes: usize,
    ppn: usize,
    sizes: &[u64],
    reps: usize,
    seed: u64,
) -> Result<Vec<Comparison>, SimError> {
    let pp = run_pingpong(WorldConfig::perseus(nodes, ppn, seed), sizes, reps)?;
    let mb = run_p2p(&P2pConfig::perseus(nodes, ppn, sizes.to_vec(), reps, seed))?;
    Ok(pp
        .into_iter()
        .zip(mb.by_size)
        .map(|(conv, loaded)| {
            let ecdf = pevpm_dist::Ecdf::new(&loaded.samples);
            Comparison {
                size: conv.size,
                conventional_avg: conv.avg,
                p99: ecdf.quantile(0.99).unwrap_or(0.0),
                mpibench: loaded.summary,
            }
        })
        .collect())
}

/// Minimal two-rank synchronisation used by the ping-pong driver (a full
/// `barrier()` would involve all ranks, which the conventional tools do
/// not do for a pairwise test).
async fn barrier2(rank: &mut Proc) {
    const TAG: u64 = (1 << 40) + 99;
    if rank.rank() == 0 {
        rank.send_size(1, TAG, 0).await;
        let _ = rank.recv(1, TAG).await;
    } else if rank.rank() == 1 {
        let _ = rank.recv(0, TAG).await;
        rank.send_size(0, TAG, 0).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_reports_one_number_per_size() {
        let res = run_pingpong(WorldConfig::perseus(2, 1, 5), &[256, 1024], 30).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res[0].avg > 0.0 && res[1].avg > res[0].avg);
        // Era-plausible one-way 1 KB time.
        assert!(res[1].avg > 1e-4 && res[1].avg < 1e-3, "avg {}", res[1].avg);
    }

    #[test]
    fn conventional_number_hides_contention() {
        // At 32x1 the loaded exchange is visibly slower than the idle
        // ping-pong, but the conventional tool cannot tell.
        let cmp = compare(32, 1, &[1024], 30, 7).unwrap();
        let c = &cmp[0];
        assert!(
            c.hidden_contention_factor() > 1.05,
            "loaded mean should exceed idle ping-pong: {:.3}",
            c.hidden_contention_factor()
        );
        // And the distribution information (p99 tail) exceeds what the
        // single number suggests.
        assert!(c.p99 > c.conventional_avg * 1.1);
    }

    #[test]
    fn pingpong_matches_mpibench_on_idle_two_rank_machine() {
        // With only two ranks the methodologies must roughly agree — the
        // differences appear only under load.
        let cmp = compare(2, 1, &[1024], 40, 9).unwrap();
        let c = &cmp[0];
        let rel = (c.mpibench.mean().unwrap() - c.conventional_avg).abs() / c.conventional_avg;
        assert!(rel < 0.10, "idle disagreement {:.1}%", rel * 100.0);
    }
}
