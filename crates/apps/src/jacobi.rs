//! The Jacobi Iteration — the paper's §6 evaluation application
//! (regular-local communication class).
//!
//! Two forms are provided:
//!
//! - [`run_measured`] executes a *real* Jacobi program — actual `f32`
//!   stencil arithmetic on a 1-D row decomposition with halo exchange —
//!   on the simulated MPI world. Its virtual duration is the reproduction's
//!   "measured" execution time, and its numeric result is verifiable
//!   against a serial reference.
//! - [`model`] builds the equivalent PEVPM directive model (structurally
//!   identical to the paper's Figure 5 annotations; the annotation-derived
//!   variant is available via [`pevpm::parse_annotations`] on
//!   [`pevpm::JACOBI_FIG5`]).
//!
//! The communication structure is the paper's even/odd phased halo
//! exchange: even ranks send both halo rows first and then receive; odd
//! ranks receive first and then send.

use pevpm::model::build::*;
use pevpm::Model;
use pevpm_mpisim::{Proc, ReduceOp, RunReport, SimError, World, WorldConfig};
use std::cell::Cell;

/// Configuration of a Jacobi run / model.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Grid is `xsize × xsize` (the paper uses 256 so the problem fits in
    /// cache at every process count).
    pub xsize: usize,
    /// Iterations to run (the paper's evaluation uses 1000).
    pub iterations: usize,
    /// Measured serial compute time for one whole-grid iteration on one
    /// processor; each rank's per-iteration compute time is this over
    /// `numprocs`. The paper's Figure 5 constant is `3.24/numprocs` with
    /// no unit; we interpret it as **milliseconds** (3.24 ms/iteration ≈
    /// 80 Mflop/s on the 500 MHz P-III, and consistent with the paper's
    /// 11 h 15 m total processor time over 100 000-iteration runs),
    /// since 3.24 s/iteration would imply an absurd 80 flop/s.
    pub serial_secs: f64,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            xsize: 256,
            iterations: 1000,
            serial_secs: 3.24e-3,
        }
    }
}

impl JacobiConfig {
    /// Halo-row message size in bytes (`xsize * sizeof(float)`).
    pub fn halo_bytes(&self) -> u64 {
        (self.xsize * 4) as u64
    }
}

/// Result of a measured Jacobi execution.
#[derive(Debug, Clone)]
pub struct JacobiRun {
    /// The world's run report (virtual duration, network stats, …).
    pub report: RunReport,
    /// Total virtual execution time in seconds.
    pub time: f64,
    /// Sum over the final grid (identical across process counts for the
    /// same `xsize`/`iterations` — the correctness check).
    pub checksum: f64,
}

const TAG_UP: u64 = 1; // toward rank-1
const TAG_DOWN: u64 = 2; // toward rank+1

fn encode_f32s(row: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 4);
    for v in row {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack a halo payload into the ghost row it is for.
fn decode_f32s_into(bytes: &[u8], row: &mut [f32]) {
    assert_eq!(bytes.len(), row.len() * 4, "halo payload is not one row");
    for (v, c) in row.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes(c.try_into().unwrap());
    }
}

/// The initial condition: top boundary row = 1, all else 0 (a standard
/// heat-plate setup; any fixed boundary works for verification).
fn initial_row(global_row: usize, xsize: usize) -> Vec<f32> {
    if global_row == 0 {
        vec![1.0; xsize]
    } else {
        vec![0.0; xsize]
    }
}

/// One row of the five-point stencil from the rows above, at and below
/// it; the first and last columns are fixed. The sum associates as
/// `((left + up) + right) + down` everywhere it is computed, so serial
/// and distributed grids agree bit for bit.
fn stencil_row(up: &[f32], mid: &[f32], down: &[f32], out: &mut [f32]) {
    let x = mid.len();
    // One length for all four, so the loop carries no bounds checks.
    let (up, down, out) = (&up[..x], &down[..x], &mut out[..x]);
    out[0] = mid[0];
    out[x - 1] = mid[x - 1];
    for k in 1..x - 1 {
        out[k] = 0.25 * (mid[k - 1] + up[k] + mid[k + 1] + down[k]);
    }
}

/// Serial reference implementation, used by tests and for checksums.
pub fn serial_reference(xsize: usize, iterations: usize) -> f64 {
    let mut grid: Vec<Vec<f32>> = (0..xsize).map(|r| initial_row(r, xsize)).collect();
    let mut next = grid.clone();
    for _ in 0..iterations {
        for j in 1..xsize - 1 {
            stencil_row(&grid[j - 1], &grid[j], &grid[j + 1], &mut next[j]);
        }
        std::mem::swap(&mut grid, &mut next);
    }
    grid.iter().flatten().map(|&v| v as f64).sum()
}

/// Execute the real Jacobi program on a simulated MPI world.
///
/// `world.nranks()` must divide `cfg.xsize`.
pub fn run_measured(world: WorldConfig, cfg: &JacobiConfig) -> Result<JacobiRun, SimError> {
    measure(world, cfg, run_rank)
}

fn measure(
    world: WorldConfig,
    cfg: &JacobiConfig,
    program: impl AsyncFn(&mut Proc, &JacobiConfig, &Cell<f64>),
) -> Result<JacobiRun, SimError> {
    let nranks = world.nranks();
    assert!(
        cfg.xsize.is_multiple_of(nranks),
        "xsize {} must be divisible by nranks {nranks}",
        cfg.xsize
    );
    let checksum = Cell::new(0.0f64);
    let report = World::run_async(world, async |rank| program(rank, cfg, &checksum).await)?;
    Ok(JacobiRun {
        time: report.virtual_time.as_secs_f64(),
        report,
        checksum: checksum.get(),
    })
}

/// One rank's slab of the grid, and the rows of the next iteration.
struct Slab {
    /// Rows `1..=rows` are this rank's; 0 and `rows + 1` are ghost rows.
    grid: Vec<Vec<f32>>,
    next: Vec<Vec<f32>>,
    rows: usize,
    first_global: usize,
}

impl Slab {
    fn new(rank: &Proc, x: usize) -> Self {
        let rows = x / rank.nranks();
        let first_global = rank.rank() * rows;
        let grid: Vec<Vec<f32>> = std::iter::once(vec![0.0; x])
            .chain((0..rows).map(|j| initial_row(first_global + j, x)))
            .chain(std::iter::once(vec![0.0; x]))
            .collect();
        Slab {
            next: grid.clone(),
            grid,
            rows,
            first_global,
        }
    }

    /// Stencil update of local row `j` (global boundary rows are fixed).
    fn update_row(&mut self, j: usize) {
        let (grid, gj) = (&self.grid, self.first_global + j - 1);
        if gj == 0 || gj == grid[j].len() - 1 {
            self.next[j].copy_from_slice(&grid[j]);
        } else {
            stencil_row(&grid[j - 1], &grid[j], &grid[j + 1], &mut self.next[j]);
        }
    }

    fn swap(&mut self) {
        for j in 1..=self.rows {
            std::mem::swap(&mut self.grid[j], &mut self.next[j]);
        }
    }

    /// Verification: global checksum to rank 0.
    async fn reduce_checksum(&self, rank: &mut Proc, checksum: &Cell<f64>) {
        let own = &self.grid[1..=self.rows];
        let local: f64 = own.iter().flatten().map(|&v| v as f64).sum();
        if let Some(total) = rank.reduce_f64s(0, &[local], ReduceOp::Sum).await {
            checksum.set(total[0]);
        }
    }
}

/// One rank of [`run_measured`]: the program itself, for a world that
/// wants to run something around it. Rank 0 leaves the grid's checksum in
/// `checksum`.
pub async fn run_rank(rank: &mut Proc, cfg: &JacobiConfig, checksum: &Cell<f64>) {
    let (r, n) = (rank.rank(), rank.nranks());
    let mut slab = Slab::new(rank, cfg.xsize);
    let rows = slab.rows;
    let per_iter = cfg.serial_secs / n as f64;
    let even = r % 2 == 0;

    for _ in 0..cfg.iterations {
        // Halo exchange with the paper's even/odd phasing.
        let grid = &mut slab.grid;
        if even {
            if r != 0 {
                rank.send(r - 1, TAG_UP, encode_f32s(&grid[1])).await;
            }
            if r != n - 1 {
                rank.send(r + 1, TAG_DOWN, encode_f32s(&grid[rows])).await;
                let (_, p) = rank.recv(r + 1, TAG_UP).await;
                decode_f32s_into(&p, &mut grid[rows + 1]);
            }
            if r != 0 {
                let (_, p) = rank.recv(r - 1, TAG_DOWN).await;
                decode_f32s_into(&p, &mut grid[0]);
            }
        } else {
            if r != n - 1 {
                let (_, p) = rank.recv(r + 1, TAG_UP).await;
                decode_f32s_into(&p, &mut grid[rows + 1]);
            }
            let (_, p) = rank.recv(r - 1, TAG_DOWN).await;
            decode_f32s_into(&p, &mut grid[0]);
            rank.send(r - 1, TAG_UP, encode_f32s(&grid[1])).await;
            if r != n - 1 {
                rank.send(r + 1, TAG_DOWN, encode_f32s(&grid[rows])).await;
            }
        }

        for j in 1..=rows {
            slab.update_row(j);
        }
        slab.swap();

        // Charge the calibrated serial compute time for this iteration.
        rank.compute_secs(per_iter).await;
    }
    slab.reduce_checksum(rank, checksum).await;
}

/// Execute an *overlap-optimised* Jacobi variant: nonblocking halo
/// receives and sends are posted first, the interior rows (which do not
/// need halo data) are computed while the messages fly, and only the
/// boundary rows wait for the halos. The PEVPM counterpart is
/// [`model_overlap`]; comparing the two models *before writing this code*
/// is exactly the design-stage question §1 motivates PEVPM with.
pub fn run_measured_overlap(world: WorldConfig, cfg: &JacobiConfig) -> Result<JacobiRun, SimError> {
    measure(world, cfg, run_rank_overlap)
}

async fn run_rank_overlap(rank: &mut Proc, cfg: &JacobiConfig, checksum: &Cell<f64>) {
    let (r, n) = (rank.rank(), rank.nranks());
    let mut slab = Slab::new(rank, cfg.xsize);
    let rows = slab.rows;

    // Split the calibrated compute time: interior rows overlap the halo
    // exchange; the two boundary rows are computed after the waits.
    let per_iter = cfg.serial_secs / n as f64;
    let boundary_frac = if rows > 0 {
        (2.0 / rows as f64).min(1.0)
    } else {
        1.0
    };
    let interior_secs = per_iter * (1.0 - boundary_frac);
    let boundary_secs = per_iter * boundary_frac;

    for _ in 0..cfg.iterations {
        // Post all nonblocking halo traffic up front.
        let grid = &slab.grid;
        let rx_up = (r != 0).then(|| rank.irecv(r - 1, TAG_DOWN));
        let rx_down = (r != n - 1).then(|| rank.irecv(r + 1, TAG_UP));
        let tx_up = (r != 0).then(|| rank.isend(r - 1, TAG_UP, encode_f32s(&grid[1])));
        let tx_down = (r != n - 1).then(|| rank.isend(r + 1, TAG_DOWN, encode_f32s(&grid[rows])));

        // Interior rows overlap the transfers.
        for j in 2..rows {
            slab.update_row(j);
        }
        rank.compute_secs(interior_secs).await;

        // Complete the halos, then the boundary rows.
        if let Some(req) = rx_up {
            let (_, p) = rank.wait(req).await.expect("halo receive");
            decode_f32s_into(&p, &mut slab.grid[0]);
        }
        if let Some(req) = rx_down {
            let (_, p) = rank.wait(req).await.expect("halo receive");
            decode_f32s_into(&p, &mut slab.grid[rows + 1]);
        }
        slab.update_row(1);
        if rows >= 2 {
            slab.update_row(rows);
        }
        rank.compute_secs(boundary_secs).await;
        if let Some(req) = tx_up {
            rank.wait(req).await;
        }
        if let Some(req) = tx_down {
            rank.wait(req).await;
        }
        slab.swap();
    }
    slab.reduce_checksum(rank, checksum).await;
}

/// The PEVPM model of the overlap-optimised variant ([`run_measured_overlap`]):
/// nonblocking sends, nonblocking halo receives waited *after* the interior
/// compute.
pub fn model_overlap(cfg: &JacobiConfig) -> Model {
    use pevpm::model::Stmt;
    let halo = "xsize*sizeof(float)";
    let rows_per_proc = cfg.xsize; // per proc: xsize/numprocs, symbolic below
    let _ = rows_per_proc;
    Model::new()
        .with_param("xsize", cfg.xsize as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("tserial", cfg.serial_secs)
        .with_stmt(looped(
            "iterations",
            vec![
                // Post receives (handles) and sends.
                runon(
                    "procnum != 0",
                    vec![Stmt::Message {
                        kind: pevpm::MsgKind::Irecv,
                        size: e(halo),
                        from: e("procnum-1"),
                        to: e("procnum"),
                        handle: Some("up".into()),
                        label: Some("halo-irecv-up".into()),
                    }],
                ),
                runon(
                    "procnum != numprocs-1",
                    vec![Stmt::Message {
                        kind: pevpm::MsgKind::Irecv,
                        size: e(halo),
                        from: e("procnum+1"),
                        to: e("procnum"),
                        handle: Some("down".into()),
                        label: Some("halo-irecv-down".into()),
                    }],
                ),
                runon(
                    "procnum != 0",
                    vec![labelled(
                        isend(halo, "procnum", "procnum-1"),
                        "halo-isend-up",
                    )],
                ),
                runon(
                    "procnum != numprocs-1",
                    vec![labelled(
                        isend(halo, "procnum", "procnum+1"),
                        "halo-isend-down",
                    )],
                ),
                // Interior compute overlaps the transfers.
                labelled(
                    serial("tserial/numprocs * (1 - min(2*numprocs/(xsize), 1))"),
                    "stencil-interior",
                ),
                // Boundary rows need the halos.
                runon("procnum != 0", vec![labelled(wait("up"), "halo-wait-up")]),
                runon(
                    "procnum != numprocs-1",
                    vec![labelled(wait("down"), "halo-wait-down")],
                ),
                labelled(
                    serial("tserial/numprocs * min(2*numprocs/(xsize), 1)"),
                    "stencil-boundary",
                ),
            ],
        ))
}

/// Build the parametric PEVPM model of the Jacobi program — structurally
/// the paper's Figure 5 annotations, with `xsize`, `iterations` and the
/// serial constant (`tserial`) kept symbolic.
pub fn model(cfg: &JacobiConfig) -> Model {
    let halo = "xsize*sizeof(float)";
    Model::new()
        .with_param("xsize", cfg.xsize as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("tserial", cfg.serial_secs)
        .with_stmt(looped(
            "iterations",
            vec![
                runon2(
                    "procnum % 2 == 0",
                    vec![
                        runon(
                            "procnum != 0",
                            vec![labelled(send(halo, "procnum", "procnum-1"), "halo-send-up")],
                        ),
                        runon(
                            "procnum != numprocs-1",
                            vec![
                                labelled(send(halo, "procnum", "procnum+1"), "halo-send-down"),
                                labelled(recv(halo, "procnum+1", "procnum"), "halo-recv-down"),
                            ],
                        ),
                        runon(
                            "procnum != 0",
                            vec![labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up")],
                        ),
                    ],
                    "procnum % 2 != 0",
                    vec![
                        runon(
                            "procnum != numprocs-1",
                            vec![labelled(
                                recv(halo, "procnum+1", "procnum"),
                                "halo-recv-down",
                            )],
                        ),
                        labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up"),
                        labelled(send(halo, "procnum", "procnum-1"), "halo-send-up"),
                        runon(
                            "procnum != numprocs-1",
                            vec![labelled(
                                send(halo, "procnum", "procnum+1"),
                                "halo-send-down",
                            )],
                        ),
                    ],
                ),
                labelled(serial("tserial/numprocs"), "stencil-compute"),
            ],
        ))
}

/// An ensemble of independent Jacobi regions: `numprocs` ranks split into
/// contiguous blocks of `region_size`, each block running the §6 halo
/// exchange among itself only (halos never cross a region boundary).
///
/// This is the parameter-sweep shape clusters actually run — many
/// same-sized replicas of one stencil at different inputs — and the
/// canonical *decomposable* workload for the DAG scheduler: the
/// dependency analysis condenses it into `numprocs / region_size`
/// mutually independent components, so `EvalConfig::with_eval_threads`
/// can evaluate the regions concurrently (bitwise identically at any
/// worker count), whereas the plain [`model`] is one strongly-connected
/// halo chain. Kept for `perf/`'s `pevpm.dag_speedup` probe; it is in
/// `pevpm::dag`'s deletion set.
///
/// `region_size` must divide the process count and be ≥ 2 (a region of
/// one rank has no exchange partner).
pub fn ensemble_model(cfg: &JacobiConfig, region_size: usize) -> Model {
    assert!(region_size >= 2, "a Jacobi region needs at least 2 ranks");
    let halo = "xsize*sizeof(float)";
    // Region-local boundary guards: rank r is its region's top row when
    // `r % rsize == 0` and bottom row when `r % rsize == rsize-1`. Each
    // region is exactly [`model`] on `rsize` ranks, so the per-rank
    // stencil share is `tserial/rsize`.
    let not_top = "procnum % rsize != 0";
    let not_bottom = "procnum % rsize != rsize-1";
    Model::new()
        .with_param("xsize", cfg.xsize as f64)
        .with_param("iterations", cfg.iterations as f64)
        .with_param("tserial", cfg.serial_secs)
        .with_param("rsize", region_size as f64)
        .with_stmt(looped(
            "iterations",
            vec![
                runon2(
                    "procnum % 2 == 0",
                    vec![
                        runon(
                            not_top,
                            vec![labelled(send(halo, "procnum", "procnum-1"), "halo-send-up")],
                        ),
                        runon(
                            not_bottom,
                            vec![
                                labelled(send(halo, "procnum", "procnum+1"), "halo-send-down"),
                                labelled(recv(halo, "procnum+1", "procnum"), "halo-recv-down"),
                            ],
                        ),
                        runon(
                            not_top,
                            vec![labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up")],
                        ),
                    ],
                    "procnum % 2 != 0",
                    vec![
                        runon(
                            not_bottom,
                            vec![labelled(
                                recv(halo, "procnum+1", "procnum"),
                                "halo-recv-down",
                            )],
                        ),
                        runon(
                            not_top,
                            vec![
                                labelled(recv(halo, "procnum-1", "procnum"), "halo-recv-up"),
                                labelled(send(halo, "procnum", "procnum-1"), "halo-send-up"),
                            ],
                        ),
                        runon(
                            not_bottom,
                            vec![labelled(
                                send(halo, "procnum", "procnum+1"),
                                "halo-send-down",
                            )],
                        ),
                    ],
                ),
                labelled(serial("tserial/rsize"), "stencil-compute"),
            ],
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm::timing::TimingModel;
    use pevpm::vm::{evaluate, EvalConfig};

    #[test]
    fn serial_reference_conserves_boundary() {
        // The top boundary stays 1.0; heat diffuses downward, so the
        // checksum grows with iterations.
        let c0 = serial_reference(16, 0);
        let c10 = serial_reference(16, 10);
        assert_eq!(c0, 16.0);
        assert!(c10 > c0);
    }

    #[test]
    fn measured_matches_serial_reference() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 8,
            serial_secs: 0.001,
        };
        let reference = serial_reference(16, 8);
        for nodes in [1usize, 2, 4] {
            let run = run_measured(WorldConfig::ideal(nodes, 1), &cfg).unwrap();
            assert!(
                (run.checksum - reference).abs() < 1e-6,
                "{nodes} ranks: checksum {} vs reference {reference}",
                run.checksum
            );
        }
    }

    #[test]
    fn measured_time_includes_compute_and_comm() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 4,
            serial_secs: 0.1,
        };
        let run = run_measured(WorldConfig::ideal(2, 1), &cfg).unwrap();
        // At least the per-rank compute: 4 iterations × 0.1/2 s.
        assert!(run.time >= 0.2, "time {}", run.time);
        // Messages: 4 iterations × 2 (one each way across the single cut).
        assert_eq!(run.report.messages as usize, 4 * 2 + 1 /* reduce */);
    }

    #[test]
    fn model_matches_fig5_structure() {
        let cfg = JacobiConfig::default();
        let m = model(&cfg);
        assert!(
            m.check_bindings(&Default::default()).is_ok(),
            "unbound model params"
        );
        // Evaluate with an analytic timing model; must not deadlock for
        // various process counts.
        for n in [1usize, 2, 4, 8] {
            let p = evaluate(
                &m,
                &EvalConfig::new(n).with_param("iterations", 3.0),
                &TimingModel::hockney(100e-6, 12.5e6),
            )
            .unwrap();
            assert!(p.makespan > 0.0);
        }
    }

    #[test]
    fn ensemble_model_decomposes_into_independent_regions() {
        let cfg = JacobiConfig {
            xsize: 64,
            iterations: 4,
            serial_secs: 1e-4,
        };
        let m = ensemble_model(&cfg, 2);
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let eval_cfg = EvalConfig::new(8).with_seed(3);
        let plan = pevpm::dag::plan(&m, &eval_cfg).expect("analysis");
        assert_eq!(plan.components, 8 / 2, "one component per region");
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);

        // The decomposed evaluation is thread-invariant, and every region
        // runs the same exchange so all ranks finish alike.
        let serial = evaluate(&m, &eval_cfg, &timing).unwrap();
        for eval_threads in [1usize, 2, 8] {
            let c = eval_cfg.clone().with_eval_threads(eval_threads);
            let p = evaluate(&m, &c, &timing).unwrap();
            assert_eq!(
                p.makespan.to_bits(),
                evaluate(&m, &eval_cfg.clone().with_eval_threads(1), &timing)
                    .unwrap()
                    .makespan
                    .to_bits(),
                "eval-threads={eval_threads} diverged"
            );
        }
        assert!(serial.makespan > 0.0);
        // Same per-iteration message count as four independent 2-rank
        // Jacobis: 2 messages per cut per iteration, one cut per region.
        assert_eq!(serial.messages, 4 * 2 * 4);
    }

    #[test]
    fn model_speedup_behaviour_is_sane() {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 10,
            serial_secs: 3.24,
        };
        let m = model(&cfg);
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let t1 = evaluate(&m, &EvalConfig::new(1), &timing).unwrap().makespan;
        let t4 = evaluate(&m, &EvalConfig::new(4), &timing).unwrap().makespan;
        let speedup = t1 / t4;
        assert!(
            speedup > 2.0 && speedup < 4.0,
            "4-proc speedup should be sublinear but real: {speedup}"
        );
    }

    #[test]
    fn overlap_variant_is_numerically_identical() {
        let cfg = JacobiConfig {
            xsize: 16,
            iterations: 8,
            serial_secs: 0.001,
        };
        let reference = serial_reference(16, 8);
        for nodes in [1usize, 2, 4] {
            let run = run_measured_overlap(WorldConfig::ideal(nodes, 1), &cfg).unwrap();
            assert!(
                (run.checksum - reference).abs() < 1e-6,
                "{nodes} ranks: {} vs {reference}",
                run.checksum
            );
        }
    }

    #[test]
    fn overlap_variant_is_faster_when_comm_bound() {
        // Small compute, real network: overlap must beat the phased code.
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 40,
            serial_secs: 3.24e-3,
        };
        let phased = run_measured(WorldConfig::perseus(16, 1, 3), &cfg)
            .unwrap()
            .time;
        let overlap = run_measured_overlap(WorldConfig::perseus(16, 1, 3), &cfg)
            .unwrap()
            .time;
        assert!(
            overlap < phased,
            "overlap {overlap} should beat phased {phased}"
        );
    }

    #[test]
    fn overlap_model_predicts_the_improvement() {
        // The design-stage question: does PEVPM predict the same ranking
        // and roughly the same gain as actually implementing both codes?
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 40,
            serial_secs: 3.24e-3,
        };
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let phased = evaluate(&model(&cfg), &EvalConfig::new(16), &timing)
            .unwrap()
            .makespan;
        let overlap = evaluate(&model_overlap(&cfg), &EvalConfig::new(16), &timing)
            .unwrap()
            .makespan;
        assert!(
            overlap < phased,
            "model should predict overlap wins: {overlap} vs {phased}"
        );
    }

    #[test]
    fn fig5_annotations_agree_with_programmatic_model() {
        // The paper-listing model and the programmatic model must predict
        // the same makespan under a deterministic timing model, except for
        // the paper's hard-coded unguarded interior sends (identical for
        // even interior ranks).
        let fig5 = pevpm::parse_annotations(pevpm::JACOBI_FIG5).unwrap();
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let p_fig5 = evaluate(
            &fig5,
            &EvalConfig::new(4)
                .with_param("xsize", 256.0)
                .with_param("iterations", 5.0),
            &timing,
        )
        .unwrap();
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 5,
            serial_secs: 3.24,
        };
        let p_prog = evaluate(&model(&cfg), &EvalConfig::new(4), &timing).unwrap();
        let rel = (p_fig5.makespan - p_prog.makespan).abs() / p_prog.makespan;
        assert!(
            rel < 0.02,
            "fig5 {} vs programmatic {}",
            p_fig5.makespan,
            p_prog.makespan
        );
    }
}
