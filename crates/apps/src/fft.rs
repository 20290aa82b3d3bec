//! Distributed 1-D FFT — the paper's regular-global communication class
//! (§6 mentions a Fast Fourier Transform validated in refs [9, 10]).
//!
//! The implementation is the classic four-step (Bailey) factorisation of an
//! N = N1·N2 transform:
//!
//! 1. for each n1: length-N2 FFT over n2 of `x[n1 + N1·n2]`;
//! 2. twiddle multiply by `ω_N^(n1·k2)`;
//! 3. **global transpose** (personalised all-to-all — the regular-global
//!    communication phase);
//! 4. for each k2: length-N1 FFT over n1; output `X[N2·k1 + k2]`.
//!
//! Rank p owns a block of `n1` rows before the transpose and a block of
//! `k2` columns after. Real `f64` complex arithmetic throughout, verified
//! against a naive O(N²) DFT in the tests. Virtual compute time is charged
//! per butterfly stage via a calibrated flop rate.

use pevpm::model::build::*;
use pevpm::model::CollOp;
use pevpm::Model;
use pevpm_mpisim::{decode_f64s, encode_f64s, RunReport, SimError, World, WorldConfig};
use std::cell::RefCell;

/// Configuration of the distributed FFT.
#[derive(Debug, Clone)]
pub struct FftConfig {
    /// Row dimension N1 (power of two, divisible by the rank count).
    pub n1: usize,
    /// Column dimension N2 (power of two, divisible by the rank count).
    pub n2: usize,
    /// Sustained flop rate used to charge virtual compute time
    /// (flops/sec); ~50 Mflop/s is P-III-era for FFT kernels.
    pub flops_per_sec: f64,
    /// Number of back-to-back transforms (iterations) to run.
    pub iterations: usize,
}

impl Default for FftConfig {
    fn default() -> Self {
        FftConfig {
            n1: 64,
            n2: 64,
            flops_per_sec: 50e6,
            iterations: 1,
        }
    }
}

impl FftConfig {
    /// Total transform length.
    pub fn n(&self) -> usize {
        self.n1 * self.n2
    }

    /// Bytes exchanged with each peer in the transpose (complex f64).
    pub fn alltoall_block_bytes(&self, nranks: usize) -> u64 {
        ((self.n() / nranks / nranks) * 16) as u64
    }

    /// Flops for one rank's share of one transform (both local FFT phases
    /// + twiddles), using 5·L·log2(L) per length-L FFT.
    pub fn flops_per_rank(&self, nranks: usize) -> f64 {
        let rows1 = self.n1 / nranks; // rows FFT'd in step 1
        let rows2 = self.n2 / nranks; // columns FFT'd in step 4
        let f1 = rows1 as f64 * 5.0 * self.n2 as f64 * (self.n2 as f64).log2();
        let f2 = rows2 as f64 * 5.0 * self.n1 as f64 * (self.n1 as f64).log2();
        let tw = 6.0 * (rows1 * self.n2) as f64;
        f1 + f2 + tw
    }
}

/// Result of a measured FFT execution.
#[derive(Debug, Clone)]
pub struct FftRun {
    /// World run report.
    pub report: RunReport,
    /// Total virtual time in seconds.
    pub time: f64,
    /// The full transform output gathered at rank 0 (interleaved re/im),
    /// in natural `X[k]` order. Empty for multi-iteration benchmark runs.
    pub output: Vec<f64>,
}

/// In-place iterative radix-2 Cooley–Tukey FFT over interleaved complex
/// `(re, im)` pairs.
pub fn fft_inplace(data: &mut [(f64, f64)]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit reversal.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for j in 0..len / 2 {
                let (ar, ai) = data[i + j];
                let (br, bi) = data[i + j + len / 2];
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                data[i + j] = (ar + tr, ai + ti);
                data[i + j + len / 2] = (ar - tr, ai - ti);
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Naive O(N²) DFT reference for verification.
pub fn dft_reference(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &(re, im)) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
            }
            acc
        })
        .collect()
}

/// Deterministic synthetic input signal.
pub fn test_signal(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            (
                (x * 0.37).sin() + 0.5 * (x * 0.11).cos(),
                0.25 * (x * 0.23).sin(),
            )
        })
        .collect()
}

fn pack(rows: &[Vec<(f64, f64)>], cols: std::ops::Range<usize>) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len() * cols.len() * 2);
    for row in rows {
        for c in cols.clone() {
            out.push(row[c].0);
            out.push(row[c].1);
        }
    }
    out
}

/// Run the real distributed FFT on a simulated MPI world. If
/// `cfg.iterations == 1` the result is gathered and returned in natural
/// order for verification.
pub fn run_measured(world: WorldConfig, cfg: &FftConfig) -> Result<FftRun, SimError> {
    let p = world.nranks();
    assert!(cfg.n1.is_power_of_two() && cfg.n2.is_power_of_two());
    assert!(
        cfg.n1.is_multiple_of(p) && cfg.n2.is_multiple_of(p),
        "rank count must divide N1 and N2"
    );
    let gathered = RefCell::new(Vec::new());

    let report = World::run_async(world, async |rank| {
        let me = rank.rank();
        let nr = rank.nranks();
        let (n1, n2) = (cfg.n1, cfg.n2);
        let n = n1 * n2;
        let rows1 = n1 / nr;
        let rows2 = n2 / nr;
        let compute_secs = cfg.flops_per_rank(nr) / cfg.flops_per_sec;

        for _iter in 0..cfg.iterations {
            // Step 0: rank `me` owns n1 rows [me*rows1, (me+1)*rows1);
            // row n1idx holds x[n1idx + N1*n2idx] for all n2idx.
            let sig = test_signal(n);
            let mut rows: Vec<Vec<(f64, f64)>> = (0..rows1)
                .map(|r| {
                    let n1idx = me * rows1 + r;
                    (0..n2).map(|n2idx| sig[n1idx + n1 * n2idx]).collect()
                })
                .collect();

            // Step 1: length-N2 FFT of each row.
            for row in rows.iter_mut() {
                fft_inplace(row);
            }
            // Step 2: twiddle by ω_N^(n1·k2).
            for (r, row) in rows.iter_mut().enumerate() {
                let n1idx = (me * rows1 + r) as f64;
                for (k2, v) in row.iter_mut().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * n1idx * k2 as f64 / n as f64;
                    let (c, s) = (ang.cos(), ang.sin());
                    *v = (v.0 * c - v.1 * s, v.0 * s + v.1 * c);
                }
            }
            rank.compute_secs(compute_secs * 0.5).await;

            // Step 3: global transpose. Peer q gets our rows' entries for
            // its k2 block [q*rows2, (q+1)*rows2).
            let chunks: Vec<pevpm_mpisim::Bytes> = (0..nr)
                .map(|q| encode_f64s(&pack(&rows, q * rows2..(q + 1) * rows2)))
                .collect();
            let got = rank.alltoall(chunks).await;

            // Reassemble: now rank owns k2 block; columns[k2local][n1idx].
            let mut cols: Vec<Vec<(f64, f64)>> = vec![vec![(0.0, 0.0); n1]; rows2];
            for (q, blob) in got.iter().enumerate() {
                let vals = decode_f64s(blob);
                // Block layout: rows1 rows × rows2 cols, interleaved.
                for r in 0..rows1 {
                    for (c, col) in cols.iter_mut().enumerate() {
                        let idx = (r * rows2 + c) * 2;
                        col[q * rows1 + r] = (vals[idx], vals[idx + 1]);
                    }
                }
            }

            // Step 4: length-N1 FFT along n1 for each k2.
            for col in cols.iter_mut() {
                fft_inplace(col);
            }
            rank.compute_secs(compute_secs * 0.5).await;

            // Verification gather (single iteration only): X[N2·k1 + k2].
            if cfg.iterations == 1 {
                let flat = pack(&cols, 0..n1);
                let all = rank.gather(0, encode_f64s(&flat)).await;
                if let Some(parts) = all {
                    let mut output = vec![0.0f64; 2 * n];
                    for (q, blob) in parts.iter().enumerate() {
                        let vals = decode_f64s(blob);
                        for c in 0..rows2 {
                            let k2 = q * rows2 + c;
                            for k1 in 0..n1 {
                                let idx = (c * n1 + k1) * 2;
                                let k = n2 * k1 + k2;
                                output[2 * k] = vals[idx];
                                output[2 * k + 1] = vals[idx + 1];
                            }
                        }
                    }
                    gathered.replace(output);
                }
            }
        }
    })?;

    Ok(FftRun {
        time: report.virtual_time.as_secs_f64(),
        report,
        output: gathered.into_inner(),
    })
}

/// The PEVPM model of the distributed FFT: two serial butterfly phases
/// around an all-to-all transpose, per iteration.
pub fn model(cfg: &FftConfig) -> Model {
    Model::new()
        .with_param("n1", cfg.n1 as f64)
        .with_param("n2", cfg.n2 as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("flops", cfg.flops_per_sec)
        .with_stmt(looped(
            "iterations",
            vec![
                labelled(
                    serial(
                        "(n1/numprocs*5*n2*log2(n2) + 6*n1*n2/numprocs) / flops / 2 \
                         + (n2/numprocs*5*n1*log2(n1)) / flops / 2",
                    ),
                    "fft-phase-1",
                ),
                labelled(
                    collective(CollOp::Alltoall, "n1*n2*16/(numprocs*numprocs)"),
                    "fft-transpose",
                ),
                labelled(
                    serial(
                        "(n1/numprocs*5*n2*log2(n2) + 6*n1*n2/numprocs) / flops / 2 \
                         + (n2/numprocs*5*n1*log2(n1)) / flops / 2",
                    ),
                    "fft-phase-2",
                ),
            ],
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_fft_matches_dft() {
        let input = test_signal(64);
        let mut fast = input.clone();
        fft_inplace(&mut fast);
        let slow = dft_reference(&input);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f.0 - s.0).abs() < 1e-9 && (f.1 - s.1).abs() < 1e-9);
        }
    }

    #[test]
    fn distributed_fft_matches_dft() {
        let cfg = FftConfig {
            n1: 8,
            n2: 8,
            flops_per_sec: 50e6,
            iterations: 1,
        };
        let input = test_signal(64);
        let reference = dft_reference(&input);
        for p in [1usize, 2, 4] {
            let run = run_measured(WorldConfig::ideal(p, 1), &cfg).unwrap();
            assert_eq!(run.output.len(), 128);
            for (k, r) in reference.iter().enumerate() {
                let (re, im) = (run.output[2 * k], run.output[2 * k + 1]);
                assert!(
                    (re - r.0).abs() < 1e-8 && (im - r.1).abs() < 1e-8,
                    "p={p} k={k}: ({re},{im}) vs ({},{})",
                    r.0,
                    r.1
                );
            }
        }
    }

    #[test]
    fn measured_time_scales_down_with_ranks() {
        let cfg = FftConfig {
            n1: 64,
            n2: 64,
            flops_per_sec: 50e6,
            iterations: 4,
        };
        let t1 = run_measured(WorldConfig::ideal(1, 1), &cfg).unwrap().time;
        let t4 = run_measured(WorldConfig::ideal(4, 1), &cfg).unwrap().time;
        assert!(t4 < t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn model_parameters_are_bound() {
        let m = model(&FftConfig::default());
        assert!(
            m.free_variables().iter().all(|v| m.params.contains_key(v)),
            "unbound model params"
        );
    }

    #[test]
    fn model_compute_matches_measured_compute() {
        // With an all-zero-cost network both forms should agree on compute.
        let cfg = FftConfig {
            n1: 32,
            n2: 32,
            flops_per_sec: 50e6,
            iterations: 2,
        };
        let m = model(&cfg);
        let mut table = pevpm_dist::DistTable::new();
        table.insert(
            pevpm_dist::DistKey {
                op: pevpm_dist::Op::Alltoall,
                size: 1,
                contention: 1,
            },
            pevpm_dist::CommDist::Point(0.0),
        );
        let timing = pevpm::TimingModel::distributions(table);
        let pred = pevpm::evaluate(&m, &pevpm::EvalConfig::new(4), &timing).unwrap();
        let expect = 2.0 * cfg.flops_per_rank(4) / cfg.flops_per_sec;
        assert!(
            (pred.makespan - expect).abs() / expect < 0.05,
            "pred {} vs expect {expect}",
            pred.makespan
        );
    }
}
