//! Point-to-point benchmark driver.
//!
//! Reproduces MPIBench's p2p methodology (§2–3 of the paper): ranks are
//! paired across the machine (rank `i` with rank `i + n/2`, so pairs span
//! switches and stress the backplane exactly as in the paper's 64×1
//! analysis), all pairs communicate **simultaneously**, and each individual
//! message is timed on the globally synchronised clock as
//! `t_recv_complete(receiver) − t_send_start(sender)` — something ordinary
//! ping-pong benchmarks cannot do. Periodic barriers stop the pairs
//! drifting apart, but the timed operations themselves run under full
//! contention.

use crate::clock::ClockModel;
use pevpm_dist::{CommDist, DistKey, DistTable, Op};
use pevpm_dist::{Histogram, Summary};
use pevpm_mpisim::{SimError, TraceEvent, World, WorldConfig};
use std::cell::RefCell;

/// Pairing pattern for the point-to-point test.
///
/// Following Grove's MPIBench methodology, the pattern is chosen to match
/// the contention structure of interest: `HalfSplit` stresses the
/// inter-switch backplane (the paper's Figures 1–4 setup), while `Ring`
/// reproduces the locality of regular-local applications (each rank talks
/// to its neighbours, mixing intra-node/intra-switch paths exactly as a
/// halo exchange does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPattern {
    /// Rank `i` pairs with `i + n/2` (spans the machine; the default and
    /// the paper's contention-heavy setup).
    HalfSplit,
    /// Rank `2i` pairs with `2i+1` (mostly same-switch neighbours).
    Adjacent,
    /// Every rank sends to `(i+1) % n` and receives from `(i-1+n) % n`
    /// (always bidirectionally active; `Direction` is ignored).
    Ring,
}

impl PairPattern {
    /// The peer of `rank` in a world of `n` ranks, plus whether this rank
    /// is the pair's *primary* (the only sender in one-way mode; the
    /// even-phase sender in exchange mode). Not meaningful for `Ring`, nor
    /// for a rank count [`P2pConfig::check`] refuses.
    pub fn peer(self, rank: usize, n: usize) -> (usize, bool) {
        match self {
            PairPattern::HalfSplit => {
                if rank < n / 2 {
                    (rank + n / 2, true)
                } else {
                    (rank - n / 2, false)
                }
            }
            PairPattern::Adjacent => {
                if rank.is_multiple_of(2) {
                    (rank + 1, true)
                } else {
                    (rank - 1, false)
                }
            }
            PairPattern::Ring => ((rank + 1) % n, true),
        }
    }

    /// `(send_to, recv_from, sends_here, recvs_here)` for a rank under
    /// this pattern and traffic direction, in a world of `n` ranks that
    /// [`P2pConfig::check`] accepts.
    pub fn role(self, rank: usize, n: usize, direction: Direction) -> (usize, usize, bool, bool) {
        match self {
            PairPattern::Ring => ((rank + 1) % n, (rank + n - 1) % n, true, true),
            _ => {
                let (peer, primary) = self.peer(rank, n);
                let exchange = direction == Direction::Exchange;
                (peer, peer, primary || exchange, !primary || exchange)
            }
        }
    }

    /// Number of simultaneously in-flight messages under this pattern.
    pub fn concurrency(self, n: usize, direction: Direction) -> u32 {
        match self {
            PairPattern::Ring => n as u32,
            _ => match direction {
                Direction::OneWay => (n / 2) as u32,
                Direction::Exchange => n as u32,
            },
        }
    }
}

/// Whether traffic flows one way per pair or both ways simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only the primary of each pair sends.
    OneWay,
    /// Both ends of each pair send simultaneously — the paper's "processes
    /// exchanging messages" setup (Figure 3), with twice the network load.
    Exchange,
}

/// Equal-width bins in every histogram a benchmark database records.
pub const HIST_BINS: usize = 100;

/// Configuration of one point-to-point benchmark run. Build it with
/// [`P2pConfig::new`], which holds MPIBench's recipe, and override only
/// what a run changes.
#[derive(Debug, Clone)]
pub struct P2pConfig {
    /// World (cluster + placement) under test.
    pub world: WorldConfig,
    /// Message sizes to sweep.
    pub sizes: Vec<u64>,
    /// Timed repetitions per size.
    pub repetitions: usize,
    /// Untimed warmup repetitions per size.
    pub warmup: usize,
    /// Resynchronise with a barrier every this many repetitions. 1 (the
    /// default) re-aligns all pairs before every timed operation so
    /// measured times are per-message transfer times, not pipeline
    /// backlogs.
    pub sync_every: usize,
    /// Pairing pattern.
    pub pattern: PairPattern,
    /// One-way or bidirectional-exchange traffic.
    pub direction: Direction,
    /// Clock model used to *read* timestamps (perfect by default).
    pub clock: Option<ClockModel>,
}

impl P2pConfig {
    /// MPIBench's recipe for `repetitions` timed messages per size on
    /// `world`: a tenth as many untimed warmups (at least two), a barrier
    /// before every timed message, the perfect global clock, and
    /// `HalfSplit` pairs exchanging both ways.
    pub fn new(world: WorldConfig, sizes: Vec<u64>, repetitions: usize) -> Self {
        P2pConfig {
            world,
            sizes,
            repetitions,
            warmup: (repetitions / 10).max(2),
            sync_every: 1,
            pattern: PairPattern::HalfSplit,
            direction: Direction::Exchange,
            clock: None,
        }
    }

    /// [`P2pConfig::new`] on an `nodes × ppn` Perseus configuration.
    pub fn perseus(
        nodes: usize,
        ppn: usize,
        sizes: Vec<u64>,
        repetitions: usize,
        seed: u64,
    ) -> Self {
        Self::new(WorldConfig::perseus(nodes, ppn, seed), sizes, repetitions)
    }

    /// Why this run cannot produce a database, if it cannot: fewer than
    /// two ranks, an odd rank count under a pattern that pairs ranks, or
    /// no timed repetition to fill a histogram with.
    pub fn check(&self) -> Result<(), String> {
        let n = self.world.nranks();
        if n < 2 {
            return Err(format!("a p2p benchmark needs at least two ranks, not {n}"));
        }
        if self.pattern != PairPattern::Ring && !n.is_multiple_of(2) {
            return Err(format!(
                "the {:?} pattern pairs ranks and needs an even rank count, not {n}",
                self.pattern
            ));
        }
        if self.repetitions == 0 {
            return Err("a p2p benchmark needs at least one timed repetition".into());
        }
        Ok(())
    }
}

/// Distribution of individual-message times for one (size, world) point.
#[derive(Debug, Clone)]
pub struct P2pSizeResult {
    /// Message size in bytes.
    pub size: u64,
    /// Individual message times in seconds (one per timed message).
    pub samples: Vec<f64>,
    /// Exact summary of the samples.
    pub summary: Summary,
}

impl P2pSizeResult {
    /// Histogram of the samples with `bins` bins spanning the data.
    pub fn histogram(&self, bins: usize) -> Histogram {
        histogram_from_samples(&self.samples, bins)
    }
}

/// Full result of a point-to-point benchmark run.
#[derive(Debug, Clone)]
pub struct P2pResult {
    /// Nodes in the tested world (`n` of `n×p`).
    pub nodes: usize,
    /// Processes per node (`p` of `n×p`).
    pub ppn: usize,
    /// Number of simultaneously in-flight messages (= the contention level
    /// recorded in the benchmark database): n/2 for one-way traffic, n for
    /// bidirectional exchange.
    pub pairs: u32,
    /// Per-size distributions, in the order of `P2pConfig::sizes`.
    pub by_size: Vec<P2pSizeResult>,
    /// Per-rank operation timelines of the benchmark execution; `Some`
    /// when `P2pConfig::world.record_trace` is set. For merged
    /// multi-replica results ([`run_p2p_reps`]) this is the first
    /// replica's trace.
    pub traces: Option<Vec<Vec<TraceEvent>>>,
}

impl P2pResult {
    /// The average-time series (size, mean seconds) — a Figure 1/2 line.
    pub fn avg_series(&self) -> Vec<(u64, f64)> {
        self.by_size
            .iter()
            .map(|r| (r.size, r.summary.mean().unwrap_or(0.0)))
            .collect()
    }

    /// Insert this run's histograms into a benchmark database.
    pub fn add_to_table(&self, table: &mut DistTable, op: Op, bins: usize) {
        for r in &self.by_size {
            table.insert(
                DistKey {
                    op,
                    size: r.size,
                    contention: self.pairs,
                },
                CommDist::Hist(r.histogram(bins)),
            );
        }
    }
}

/// Build a histogram over samples with `bins` equal bins spanning
/// `[min, max]`. Degenerate spans get a single tiny bin.
pub fn histogram_from_samples(samples: &[f64], bins: usize) -> Histogram {
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !min.is_finite() || !max.is_finite() {
        return Histogram::new(0.0, 1e-6);
    }
    let span = (max - min).max(1e-9);
    let width = span / bins.max(1) as f64;
    let mut h = Histogram::new(min, width);
    for &s in samples {
        h.add(s);
    }
    h
}

/// Per-rank stamp logs for one run: send-start and receive-completion
/// timestamps, indexed `[size][rep]`.
#[derive(Debug, Clone, Default)]
struct Stamps {
    sends: Vec<Vec<f64>>,
    recvs: Vec<Vec<f64>>,
}

/// Run the point-to-point benchmark. Every timed message contributes one
/// sample: receive-completion time at the destination minus send-start time
/// at the source, both read from the global clock (possibly skewed by the
/// configured [`ClockModel`]). Panics on a configuration
/// [`P2pConfig::check`] refuses.
pub fn run_p2p(cfg: &P2pConfig) -> Result<P2pResult, SimError> {
    cfg.check().unwrap_or_else(|e| panic!("{e}"));
    let n = cfg.world.nranks();
    let nsizes = cfg.sizes.len();
    let clock = cfg.clock.clone().unwrap_or_else(|| ClockModel::perfect(n));

    let stamps = RefCell::new(vec![
        Stamps {
            sends: vec![Vec::new(); nsizes],
            recvs: vec![Vec::new(); nsizes],
        };
        n
    ]);
    let (reps, warmup, sync_every) = (cfg.repetitions, cfg.warmup, cfg.sync_every.max(1));
    let (pattern, direction) = (cfg.pattern, cfg.direction);

    let report = World::run_async(cfg.world.clone(), async |rank| {
        let r = rank.rank();
        let (send_to, recv_from, sends_here, recvs_here) = pattern.role(r, n, direction);
        for (si, &size) in cfg.sizes.iter().enumerate() {
            rank.barrier().await;
            for _ in 0..warmup {
                if sends_here {
                    let req = rank.isend_size(send_to, si as u64, size);
                    if recvs_here {
                        let _ = rank.recv(recv_from, si as u64).await;
                    }
                    rank.wait(req).await;
                } else {
                    let _ = rank.recv(recv_from, si as u64).await;
                }
            }
            let mut sends: Vec<f64> = Vec::with_capacity(reps);
            let mut recvs: Vec<f64> = Vec::with_capacity(reps);
            for rep in 0..reps {
                if rep % sync_every == 0 {
                    rank.barrier().await;
                }
                if sends_here {
                    let t0 = clock.read(r, rank.now());
                    let req = rank.isend_size(send_to, si as u64, size);
                    if recvs_here {
                        let _ = rank.recv(recv_from, si as u64).await;
                        recvs.push(clock.read(r, rank.now()));
                    }
                    rank.wait(req).await;
                    sends.push(t0);
                } else {
                    let _ = rank.recv(recv_from, si as u64).await;
                    recvs.push(clock.read(r, rank.now()));
                }
            }
            let mut log = stamps.borrow_mut();
            log[r].sends[si] = sends;
            log[r].recvs[si] = recvs;
        }
    })?;

    // Pair up stamps: sample = recv_complete(dst) − send_start(src).
    let stamps = stamps.into_inner();
    let mut by_size = Vec::with_capacity(nsizes);
    for (si, &size) in cfg.sizes.iter().enumerate() {
        let mut samples = Vec::new();
        for r in 0..n {
            let (send_to, _, sends_here, _) = cfg.pattern.role(r, n, cfg.direction);
            if !sends_here {
                continue;
            }
            let sends = &stamps[r].sends[si];
            let recvs = &stamps[send_to].recvs[si];
            assert_eq!(sends.len(), recvs.len(), "stamp logs out of step");
            for (t0, t1) in sends.iter().zip(recvs) {
                samples.push((t1 - t0).max(0.0));
            }
        }
        let summary = Summary::from_slice(&samples);
        by_size.push(P2pSizeResult {
            size,
            samples,
            summary,
        });
    }

    Ok(P2pResult {
        nodes: cfg.world.cluster.nodes,
        ppn: cfg.world.procs_per_node,
        pairs: cfg.pattern.concurrency(n, cfg.direction),
        by_size,
        traces: report.traces,
    })
}

/// `run(i)` for `i` in `0..n` on the replication pool: every run's result
/// in index order, or the failure a serial loop would have met first — the
/// lowest failing index at any thread count.
pub(crate) fn replicated(
    n: usize,
    threads: usize,
    run: impl Fn(usize) -> Result<P2pResult, SimError> + Sync,
) -> Result<Vec<P2pResult>, SimError> {
    use pevpm::replicate::JobError;
    let (outcomes, _) = pevpm::replicate::isolated_map(n, threads, run);
    let first_failure: Result<Vec<_>, _> = outcomes.into_iter().collect();
    first_failure.map_err(|e| match e {
        JobError::Err(e) => e,
        JobError::Panic(p) => SimError::ReplicaPanic {
            index: p.index,
            message: p.message,
        },
    })
}

/// Run `reps` independent replications of the benchmark and merge their
/// samples into one result, fanning replicas across up to `threads`
/// worker threads (`0` = all cores, `1` = serial).
///
/// Replica `i` re-runs the full benchmark with the world seed
/// `replica_seed(cfg.world.seed, i)`; merged samples are appended in
/// replica order, so the result is bitwise identical at any thread count.
/// This is how a benchmark gathers more repetitions than one simulated
/// run provides without serialising the extra work.
pub fn run_p2p_reps(cfg: &P2pConfig, reps: usize, threads: usize) -> Result<P2pResult, SimError> {
    let base_seed = cfg.world.seed;
    let runs = replicated(reps.max(1), threads, |i| {
        let mut c = cfg.clone();
        c.world.seed = pevpm::replicate::replica_seed(base_seed, i as u64);
        run_p2p(&c)
    })?;

    let mut merged = runs[0].clone();
    for run in &runs[1..] {
        for (acc, r) in merged.by_size.iter_mut().zip(&run.by_size) {
            debug_assert_eq!(acc.size, r.size);
            acc.samples.extend_from_slice(&r.samples);
        }
    }
    for s in &mut merged.by_size {
        s.summary = Summary::from_slice(&s.samples);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_patterns() {
        assert_eq!(PairPattern::HalfSplit.peer(0, 8), (4, true));
        assert_eq!(PairPattern::HalfSplit.peer(5, 8), (1, false));
        assert_eq!(PairPattern::Adjacent.peer(0, 8), (1, true));
        assert_eq!(PairPattern::Adjacent.peer(7, 8), (6, false));
    }

    #[test]
    fn two_rank_pingpong_gives_reasonable_times() {
        let cfg = P2pConfig::perseus(2, 1, vec![64, 1024], 40, 1);
        let res = run_p2p(&cfg).unwrap();
        assert_eq!(res.pairs, 2, "exchange mode: both directions in flight");
        assert_eq!(res.by_size.len(), 2);
        for r in &res.by_size {
            // Exchange mode: one sample per direction per repetition.
            assert_eq!(r.samples.len(), 80);
            let mean = r.summary.mean().unwrap();
            // Fast-Ethernet-era small-message latencies: tens of µs to ~1 ms.
            assert!(mean > 1e-5 && mean < 2e-3, "size {} mean {mean}", r.size);
        }
        // Bigger message must be slower.
        let m64 = res.by_size[0].summary.mean().unwrap();
        let m1k = res.by_size[1].summary.mean().unwrap();
        assert!(m1k > m64);
    }

    #[test]
    fn contention_raises_average_times() {
        let sizes = vec![1024u64];
        let lo = run_p2p(&P2pConfig::perseus(2, 1, sizes.clone(), 50, 1)).unwrap();
        let hi = run_p2p(&P2pConfig::perseus(16, 1, sizes, 50, 1)).unwrap();
        let m_lo = lo.by_size[0].summary.mean().unwrap();
        let m_hi = hi.by_size[0].summary.mean().unwrap();
        assert!(
            m_hi > m_lo,
            "16x1 should be slower than 2x1 under contention: {m_lo} vs {m_hi}"
        );
    }

    #[test]
    fn series_extraction_and_table_insertion() {
        let cfg = P2pConfig::perseus(2, 1, vec![64, 256], 20, 1);
        let res = run_p2p(&cfg).unwrap();
        let avg = res.avg_series();
        assert_eq!(avg.len(), 2);

        let mut table = DistTable::new();
        res.add_to_table(&mut table, Op::Isend, 64);
        assert_eq!(table.len(), 2);
        assert!(table.mean_at(Op::Isend, 64.0, 2.0).is_some());
    }

    #[test]
    fn replicated_runs_merge_deterministically_at_any_thread_count() {
        let cfg = P2pConfig::perseus(2, 1, vec![512], 10, 9);
        let serial = run_p2p_reps(&cfg, 3, 1).unwrap();
        // Exchange mode: 2 samples per repetition per replica.
        assert_eq!(serial.by_size[0].samples.len(), 3 * 2 * 10);
        let bits = |r: &P2pResult| -> Vec<Vec<u64>> {
            r.by_size
                .iter()
                .map(|s| s.samples.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for threads in [2usize, 4] {
            let par = run_p2p_reps(&cfg, 3, threads).unwrap();
            assert_eq!(bits(&serial), bits(&par), "{threads} threads");
            assert_eq!(
                serial.by_size[0].summary.mean().unwrap().to_bits(),
                par.by_size[0].summary.mean().unwrap().to_bits()
            );
        }
        // Replica 0 derives seed base+0, so its samples lead the merge and
        // equal a plain single run.
        let solo = run_p2p(&cfg).unwrap();
        assert_eq!(
            &serial.by_size[0].samples[..solo.by_size[0].samples.len()],
            &solo.by_size[0].samples[..]
        );
    }

    #[test]
    fn one_way_mode_halves_concurrency() {
        let mut cfg = P2pConfig::perseus(4, 1, vec![512], 10, 1);
        cfg.direction = Direction::OneWay;
        let res = run_p2p(&cfg).unwrap();
        assert_eq!(res.pairs, 2);
        assert_eq!(res.by_size[0].samples.len(), 2 * 10);
    }

    #[test]
    fn clock_skew_distorts_measurements() {
        let sizes = vec![512u64];
        let mut cfg = P2pConfig::perseus(2, 1, sizes, 50, 1);
        // One-way timing: every sample is shifted by the same receiver−sender
        // offset. (Exchange would average the +δ and −δ directions and the
        // shift would cancel out of the mean.)
        cfg.direction = Direction::OneWay;
        let clean = run_p2p(&cfg).unwrap();
        cfg.clock = Some(ClockModel::skewed(2, 5e-4, 9));
        let skewed = run_p2p(&cfg).unwrap();
        let d = (skewed.by_size[0].summary.mean().unwrap()
            - clean.by_size[0].summary.mean().unwrap())
        .abs();
        assert!(
            d > 1e-5,
            "clock skew should shift one-way measurements, d={d}"
        );
    }

    #[test]
    fn histogram_from_degenerate_samples() {
        let h = histogram_from_samples(&[1.0, 1.0, 1.0], 10);
        assert_eq!(h.total(), 3);
        let h = histogram_from_samples(&[], 10);
        assert!(h.is_empty());
    }
}
