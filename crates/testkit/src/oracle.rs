//! The oracle hierarchy: bitwise differential, statistical (KS),
//! metamorphic, and diagnostics checks over one [`TestProgram`].
//!
//! Every check is a pure function of `(program, table, seed)` so a
//! failure replays exactly and the shrinker can re-run it on candidate
//! reductions.

use crate::corun;
use crate::program::TestProgram;
use pevpm::replicate::replica_seed;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig, PevpmError, Prediction};
use pevpm::Program;
use pevpm_dist::{DistTable, Ecdf};
use pevpm_mpibench::MachineShape;
use pevpm_mpisim::{FaultPlan, WorldConfig};
use std::fmt;

/// A confirmed oracle violation. `Display` is deterministic — it appears
/// verbatim in counterexample artifacts and golden files.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Two evaluation paths disagreed bitwise.
    Differential {
        /// Name of the first evaluation path.
        left: &'static str,
        /// Name of the second evaluation path.
        right: &'static str,
        /// Replication index at which they diverged.
        replication: usize,
        /// Which field diverged (`makespan`, `finish_times[i]`, …).
        field: String,
        /// The first path's value, rendered exactly.
        left_value: String,
        /// The second path's value, rendered exactly.
        right_value: String,
    },
    /// The two-sample KS statistic exceeded the critical value.
    Ks {
        /// Observed KS distance.
        distance: f64,
        /// Critical value at `alpha`.
        critical: f64,
        /// Significance level used.
        alpha: f64,
        /// Predicted-sample count.
        predicted: usize,
        /// Simulated-sample count.
        simulated: usize,
    },
    /// Doubling every message size shrank a replication's makespan.
    MetamorphicScaling {
        /// Replication index that violated dominance.
        replication: usize,
        /// Base-program makespan.
        base: f64,
        /// Scaled-program makespan.
        scaled: f64,
    },
    /// An empty fault plan changed the co-simulated makespan.
    FaultIdentity {
        /// Makespan with `faults: None`.
        without: f64,
        /// Makespan with `faults: Some(FaultPlan::default())`.
        with_plan: f64,
    },
    /// A diagnostics-mode program produced the wrong outcome class.
    Diagnostics {
        /// What happened, including what was expected.
        outcome: String,
    },
    /// The adaptive replication engine violated its stopping contract.
    Adaptive {
        /// Which part of the contract broke (`determinism`,
        /// `stop-point`, `prefix`, `ci-agreement`).
        check: &'static str,
        /// What was observed, rendered exactly.
        detail: String,
    },
    /// An oracle could not even run the program (evaluation or
    /// co-simulation error outside the accepted diagnostic classes).
    Error {
        /// Which step failed.
        context: String,
        /// The underlying error.
        error: String,
    },
}

impl Failure {
    /// Stable short name of the violated oracle, used in artifact
    /// headers and file names.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Differential { .. } => "differential",
            Failure::Ks { .. } => "ks",
            Failure::MetamorphicScaling { .. } => "metamorphic-scaling",
            Failure::FaultIdentity { .. } => "fault-identity",
            Failure::Diagnostics { .. } => "diagnostics",
            Failure::Adaptive { .. } => "adaptive",
            Failure::Error { .. } => "error",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Differential {
                left,
                right,
                replication,
                field,
                left_value,
                right_value,
            } => write!(
                f,
                "{left} vs {right} diverge at replication {replication}: \
                 {field} = {left_value} vs {right_value}"
            ),
            Failure::Ks {
                distance,
                critical,
                alpha,
                predicted,
                simulated,
            } => write!(
                f,
                "KS distance {distance:.4} exceeds critical {critical:.4} \
                 (alpha {alpha}, n={predicted} predicted vs m={simulated} simulated)"
            ),
            Failure::MetamorphicScaling {
                replication,
                base,
                scaled,
            } => write!(
                f,
                "doubling message sizes shrank replication {replication}: \
                 base {base:.9e} > scaled {scaled:.9e}"
            ),
            Failure::FaultIdentity { without, with_plan } => write!(
                f,
                "empty FaultPlan changed the makespan: {without:.9e} \
                 (no plan) vs {with_plan:.9e} (empty plan)"
            ),
            Failure::Diagnostics { outcome } => write!(f, "{outcome}"),
            Failure::Adaptive { check, detail } => {
                write!(f, "adaptive {check} contract violated: {detail}")
            }
            Failure::Error { context, error } => write!(f, "{context}: {error}"),
        }
    }
}

fn eval_err(context: &str, e: &PevpmError) -> Failure {
    Failure::Error {
        context: context.to_string(),
        error: format!("{e:?}"),
    }
}

/// Compare two predictions field-by-field at bit precision.
fn compare(
    left: &'static str,
    right: &'static str,
    replication: usize,
    a: &Prediction,
    b: &Prediction,
) -> Result<(), Failure> {
    let fail = |field: String, lv: String, rv: String| Failure::Differential {
        left,
        right,
        replication,
        field,
        left_value: lv,
        right_value: rv,
    };
    if a.makespan.to_bits() != b.makespan.to_bits() {
        return Err(fail(
            "makespan".into(),
            format!("{:.17e}", a.makespan),
            format!("{:.17e}", b.makespan),
        ));
    }
    if a.finish_times.len() != b.finish_times.len() {
        return Err(fail(
            "finish_times.len".into(),
            a.finish_times.len().to_string(),
            b.finish_times.len().to_string(),
        ));
    }
    for (i, (x, y)) in a.finish_times.iter().zip(&b.finish_times).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(fail(
                format!("finish_times[{i}]"),
                format!("{x:.17e}"),
                format!("{y:.17e}"),
            ));
        }
    }
    for (field, xs, ys) in [
        ("compute_time", &a.compute_time, &b.compute_time),
        ("send_time", &a.send_time, &b.send_time),
        ("blocked_time", &a.blocked_time, &b.blocked_time),
    ] {
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(fail(
                    format!("{field}[{i}]"),
                    format!("{x:.17e}"),
                    format!("{y:.17e}"),
                ));
            }
        }
    }
    for (field, x, y) in [
        ("messages", a.messages, b.messages),
        ("steps", a.steps, b.steps),
        ("sb_peak", a.sb_peak as u64, b.sb_peak as u64),
    ] {
        if x != y {
            return Err(fail(field.into(), x.to_string(), y.to_string()));
        }
    }
    if a.races != b.races {
        return Err(fail(
            "races".into(),
            format!("{:?}", a.races),
            format!("{:?}", b.races),
        ));
    }
    // Label sets first (in label order, so the rendering is
    // deterministic), then each label's loss.
    fn labels(p: &Prediction) -> Vec<&str> {
        p.loss_by_label.iter().map(|(label, _)| label).collect()
    }
    if labels(a) != labels(b) {
        return Err(fail(
            "loss_by_label.keys".into(),
            format!("{:?}", labels(a)),
            format!("{:?}", labels(b)),
        ));
    }
    for label in labels(a) {
        let (x, y) = (a.loss_by_label[label], b.loss_by_label[label]);
        if x.to_bits() != y.to_bits() {
            return Err(fail(
                format!("loss_by_label[{label}]"),
                format!("{x:.17e}"),
                format!("{y:.17e}"),
            ));
        }
    }
    Ok(())
}

/// Oracle 1 — the interpreted, compiled, and unfolded-lowering evaluation
/// paths must agree bitwise on every replication, and so must the
/// lock-step lanes with the scalar engine ([`check_lanes`]).
///
/// "Unfolded" evaluates through the compiled timing model a program
/// lowered without constant folding ([`Program::lower`]), so the lowering
/// pipeline itself is differentially exercised, not just the sampler.
pub fn check_differential(
    prog: &TestProgram,
    table: &DistTable,
    seed: u64,
    replications: usize,
) -> Result<(), Failure> {
    let model = prog.to_model();
    let interp = TimingModel::interpreted(table.clone());
    let compiled = TimingModel::distributions(table.clone());
    let unfolded = Program::lower(&model, false);
    for r in 0..replications {
        let cfg = EvalConfig::new(prog.nprocs).with_seed(replica_seed(seed, r as u64));
        let a = evaluate(&model, &cfg, &interp).map_err(|e| eval_err("interpreted", &e))?;
        let b = evaluate(&model, &cfg, &compiled).map_err(|e| eval_err("compiled", &e))?;
        let c = unfolded
            .evaluate(&cfg, &compiled)
            .map_err(|e| eval_err("unfolded", &e))?;
        compare("interpreted", "compiled", r, &a, &b)?;
        compare("compiled", "unfolded", r, &b, &c)?;
    }
    check_lanes(prog, table, seed)?;
    check_lane_sampler(prog, table, seed)
}

/// Oracle 1, sampler half at full lane width — one lock-step group of
/// eight drawing from the compiled table must equal, replica for replica,
/// the same group drawing through the interpreted reference path. The
/// other two halves imply it when both pass; this one compares the lanes'
/// batched inverse CDF with the reference directly, so a failure names
/// them and the `divergence-injection` drill can aim at them
/// ([`check_lanes`] compares the compiled sampler with itself and is
/// blind to a defect every lane width shares).
pub fn check_lane_sampler(prog: &TestProgram, table: &DistTable, seed: u64) -> Result<(), Failure> {
    let (left, right) = ("lanes-interpreted", "lanes");
    let model = prog.to_model();
    let cfg = EvalConfig::new(prog.nprocs).with_seed(seed).with_threads(1);
    let a = monte_carlo(&model, &cfg, &TimingModel::interpreted(table.clone()), 8)
        .map_err(|e| eval_err(left, &e))?;
    let b = monte_carlo(&model, &cfg, &TimingModel::distributions(table.clone()), 8)
        .map_err(|e| eval_err(right, &e))?;
    for (r, (a, b)) in a.runs.iter().zip(&b.runs).enumerate() {
        compare(left, right, r, a, b)?;
    }
    Ok(())
}

/// Replication counts the lanes check sweeps: below, at and above one
/// lock-step group of eight, and two groups plus a remainder.
pub const LANE_REPS: [usize; 6] = [1, 2, 7, 8, 9, 17];

/// Oracle 1, lanes half — every replication of a `monte_carlo` batch must
/// equal a standalone `evaluate` at its replica seed in every field,
/// however the batch was packed into lock-step lane groups: for each
/// replication count in [`LANE_REPS`], at 1, 2 and 3 worker threads, with
/// independent and with antithetic seeding. Programs with wildcard
/// receives exercise the stand-down path (the group re-runs its replicas
/// one at a time); everything else runs in lanes to the end.
pub fn check_lanes(prog: &TestProgram, table: &DistTable, seed: u64) -> Result<(), Failure> {
    let model = prog.to_model();
    let timing = TimingModel::distributions(table.clone());
    let most = LANE_REPS.iter().copied().max().unwrap_or(0);
    for (scalar, lanes, antithetic) in [
        ("scalar", "lanes", false),
        ("scalar-antithetic", "lanes-antithetic", true),
    ] {
        let mut base = EvalConfig::new(prog.nprocs).with_seed(seed);
        base.antithetic = antithetic;
        let mut solos = Vec::with_capacity(most);
        for r in 0..most {
            let mut cfg = base.clone();
            let pair = if antithetic { r / 2 } else { r };
            cfg.seed = replica_seed(seed, pair as u64);
            cfg.mirror = antithetic && r % 2 == 1;
            solos.push(evaluate(&model, &cfg, &timing).map_err(|e| eval_err(scalar, &e))?);
        }
        for reps in LANE_REPS {
            for threads in [1, 2, 3] {
                let cfg = base.clone().with_threads(threads);
                let mc =
                    monte_carlo(&model, &cfg, &timing, reps).map_err(|e| eval_err(lanes, &e))?;
                if mc.runs.len() != reps {
                    return Err(Failure::Differential {
                        left: scalar,
                        right: lanes,
                        replication: mc.runs.len().min(reps),
                        field: "runs.len".into(),
                        left_value: reps.to_string(),
                        right_value: mc.runs.len().to_string(),
                    });
                }
                for (r, run) in mc.runs.iter().enumerate() {
                    compare(scalar, lanes, r, &solos[r], run)?;
                }
            }
        }
    }
    Ok(())
}

/// Worker counts the DAG oracle sweeps. 1 exercises the scheduler with
/// no concurrency, 2 the smallest concurrent shape, 8 more workers than
/// most generated programs have components (idle-worker paths).
pub const DAG_THREADS: [(&str, usize); 3] = [("dag-t1", 1), ("dag-t2", 2), ("dag-t8", 8)];

/// Oracle 5 — the DAG scheduler must agree with itself bitwise at every
/// worker count, and reproduce the serial engine exactly whenever the
/// decomposition stands down (single component, or an analysis fallback).
///
/// Evaluation *errors* are part of the contract too: every path must
/// reach the same disposition, and failing paths must report the same
/// error — a thread count must never change what diagnostic a program
/// produces.
pub fn check_dag(
    prog: &TestProgram,
    table: &DistTable,
    seed: u64,
    replications: usize,
) -> Result<(), Failure> {
    let model = prog.to_model();
    let timing = TimingModel::distributions(table.clone());
    // Whether the decomposition stands down for this program: then the
    // DAG path is documented to be bitwise the serial engine, not just
    // thread-invariant. (A plan error means evaluation errors too; the
    // disposition check below covers it.)
    let plan_cfg = EvalConfig::new(prog.nprocs).with_seed(seed);
    let stands_down = pevpm::dag::plan(&model, &plan_cfg)
        .map(|p| p.components <= 1 || p.fallback.is_some())
        .unwrap_or(false);
    for r in 0..replications {
        let cfg = EvalConfig::new(prog.nprocs).with_seed(replica_seed(seed, r as u64));
        let serial = evaluate(&model, &cfg, &timing);
        let runs: Vec<(&'static str, Result<Prediction, PevpmError>)> = DAG_THREADS
            .iter()
            .map(|&(name, t)| {
                let c = cfg.clone().with_eval_threads(t);
                (name, evaluate(&model, &c, &timing))
            })
            .collect();
        let disposition = |res: &Result<Prediction, PevpmError>| match res {
            Ok(_) => String::new(),
            Err(e) => format!("{e:?}"),
        };
        let error_diff =
            |left: &'static str, right: &'static str, lv: &str, rv: &str| Failure::Differential {
                left,
                right,
                replication: r,
                field: "error".into(),
                left_value: if lv.is_empty() {
                    "ok".into()
                } else {
                    lv.into()
                },
                right_value: if rv.is_empty() {
                    "ok".into()
                } else {
                    rv.into()
                },
            };
        // Thread-count invariance is unconditional: every DAG worker
        // count reaches the same disposition with the same payload.
        let base_err = disposition(&runs[0].1);
        for (name, res) in &runs[1..] {
            let err = disposition(res);
            if err != base_err {
                return Err(error_diff(runs[0].0, name, &base_err, &err));
            }
        }
        // Serial agreement (including the exact error — e.g. a deadlock's
        // reported time) only when the decomposition stands down. A
        // multi-component deadlock legitimately reports component-local
        // virtual time, so only the disposition is compared there.
        let serial_err = disposition(&serial);
        if stands_down {
            if serial_err != base_err {
                return Err(error_diff("serial", runs[0].0, &serial_err, &base_err));
            }
        } else if serial_err.is_empty() != base_err.is_empty() {
            return Err(error_diff("serial", runs[0].0, &serial_err, &base_err));
        }
        let Ok(ref base) = runs[0].1 else {
            continue; // every path errored identically
        };
        for (name, res) in &runs[1..] {
            compare(runs[0].0, name, r, base, res.as_ref().expect("checked ok"))?;
        }
        if stands_down {
            compare(
                "serial",
                runs[0].0,
                r,
                serial.as_ref().expect("checked ok"),
                base,
            )?;
        }
    }
    Ok(())
}

/// Critical value of the two-sample KS test at significance `alpha` for
/// sample sizes `n` and `m`: `c(α)·sqrt((n+m)/(n·m))` with
/// `c(α) = sqrt(-ln(α/2)/2)`.
pub fn ks_critical(alpha: f64, n: usize, m: usize) -> f64 {
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((n + m) as f64) / ((n * m) as f64)).sqrt()
}

/// Outcome of a passing KS check, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsReport {
    /// Observed two-sample KS distance.
    pub distance: f64,
    /// Critical value it stayed under.
    pub critical: f64,
}

/// mpisim quantises virtual time to whole nanoseconds while the PEVPM
/// clock is a plain f64, so a degenerate (near-point-mass) makespan
/// distribution — e.g. a pure-compute program — can sit one quantum apart
/// on the two sides. KS distance between two point masses is 1.0 no
/// matter how close they are, so before failing we check whether the
/// sorted samples are pointwise within the quantisation error; if so the
/// distributions are identical for every purpose this oracle gates.
fn pointwise_close(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a: Vec<f64> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    a.iter().zip(&b).all(|(x, y)| (x - y).abs() <= 2e-9)
}

/// Oracle 2 — the predicted makespan distribution must pass a two-sample
/// KS test against mpisim co-simulation on the same machine.
///
/// `table` must be the MPIBench measurement of `shape`
/// ([`crate::tables::bench_table`]); predicted samples are Monte-Carlo
/// replications, simulated samples are co-simulations under fresh world
/// seeds. `alpha` is deliberately small: the oracle gates *gross*
/// mismatches (wrong matching, lost contention, broken sampling), not the
/// residual modelling error the paper itself quantifies at a few percent.
pub fn check_ks(
    prog: &TestProgram,
    table: &DistTable,
    shape: MachineShape,
    alpha: f64,
    predicted_runs: usize,
    simulated_runs: usize,
    seed: u64,
) -> Result<KsReport, Failure> {
    assert_eq!(
        shape.nodes * shape.ppn,
        prog.nprocs,
        "benchmarked shape must match the program's process count"
    );
    let model = prog.to_model();
    let cfg = EvalConfig::new(prog.nprocs).with_seed(seed);
    let timing = TimingModel::distributions(table.clone());
    let mc = monte_carlo(&model, &cfg, &timing, predicted_runs)
        .map_err(|e| eval_err("monte-carlo prediction", &e))?;
    let predicted: Vec<f64> = mc.runs.iter().map(|p| p.makespan).collect();

    let mut simulated = Vec::with_capacity(simulated_runs);
    for i in 0..simulated_runs {
        let world = WorldConfig::perseus(
            shape.nodes,
            shape.ppn,
            replica_seed(seed ^ 0x5151_5151, i as u64),
        );
        let t = corun::simulate(prog, world).map_err(|e| Failure::Error {
            context: format!("co-simulation {i}"),
            error: format!("{e:?}"),
        })?;
        simulated.push(t);
    }

    let d = Ecdf::new(&predicted).ks_distance(&Ecdf::new(&simulated));
    let critical = ks_critical(alpha, predicted.len(), simulated.len());
    if d > critical && !pointwise_close(&predicted, &simulated) {
        return Err(Failure::Ks {
            distance: d,
            critical,
            alpha,
            predicted: predicted.len(),
            simulated: simulated.len(),
        });
    }
    Ok(KsReport {
        distance: d,
        critical,
    })
}

/// Oracle 3a — scaling every message size up by `factor` must never
/// shrink any replication's predicted makespan.
///
/// This is an *exact* per-replication check, not a statistical tendency:
/// `table` must have the dominance property
/// ([`crate::tables::synthetic_table`] over the base **and** scaled size
/// grids), and the program must be wildcard-free (wildcard matching is
/// arrival-order dependent, so rescaling may legally re-match).
pub fn check_scaling(
    prog: &TestProgram,
    table: &DistTable,
    factor: u64,
    seed: u64,
    replications: usize,
) -> Result<(), Failure> {
    assert!(
        !prog.has_wildcards(),
        "the exact scaling oracle requires wildcard-free programs"
    );
    let base_model = prog.to_model();
    let scaled_model = prog.scaled_sizes(factor).to_model();
    let timing = TimingModel::distributions(table.clone());
    for r in 0..replications {
        let cfg = EvalConfig::new(prog.nprocs).with_seed(replica_seed(seed, r as u64));
        let base =
            evaluate(&base_model, &cfg, &timing).map_err(|e| eval_err("base evaluation", &e))?;
        let scaled = evaluate(&scaled_model, &cfg, &timing)
            .map_err(|e| eval_err("scaled evaluation", &e))?;
        if scaled.makespan < base.makespan {
            return Err(Failure::MetamorphicScaling {
                replication: r,
                base: base.makespan,
                scaled: scaled.makespan,
            });
        }
    }
    Ok(())
}

/// Oracle 3b — co-simulating under `faults: Some(FaultPlan::default())`
/// must be bitwise identical to `faults: None`.
pub fn check_fault_identity(
    prog: &TestProgram,
    shape: MachineShape,
    seed: u64,
) -> Result<(), Failure> {
    let world = WorldConfig::perseus(shape.nodes, shape.ppn, seed);
    let mut faulted = world.clone();
    faulted.cluster.faults = Some(FaultPlan::default());
    let sim = |w: WorldConfig, what: &str| {
        corun::simulate(prog, w).map_err(|e| Failure::Error {
            context: what.to_string(),
            error: format!("{e:?}"),
        })
    };
    let without = sim(world, "co-simulation without plan")?;
    let with_plan = sim(faulted, "co-simulation with empty plan")?;
    if without.to_bits() != with_plan.to_bits() {
        return Err(Failure::FaultIdentity { without, with_plan });
    }
    Ok(())
}

/// Oracle 4 — diagnostics conformance for maybe-deadlocking programs.
///
/// A program with orphan receives has more receives than sends, so some
/// receive can never match: the VM must report a deadlock (or exhaust a
/// budget while stuck), never complete and never crash. A program
/// without orphans is deadlock-free by construction and must complete.
pub fn check_diagnostics(prog: &TestProgram, table: &DistTable, seed: u64) -> Result<(), Failure> {
    let model = prog.to_model();
    let cfg = EvalConfig::new(prog.nprocs).with_seed(seed);
    let timing = TimingModel::distributions(table.clone());
    let outcome = evaluate(&model, &cfg, &timing);
    match (prog.has_orphans(), outcome) {
        (false, Ok(_)) => Ok(()),
        (true, Err(PevpmError::Deadlock { .. })) | (true, Err(PevpmError::Budget(_))) => Ok(()),
        (true, Ok(p)) => Err(Failure::Diagnostics {
            outcome: format!(
                "program with orphan receives completed (makespan {:.9e}) \
                 instead of deadlocking",
                p.makespan
            ),
        }),
        (false, Err(e)) => Err(Failure::Diagnostics {
            outcome: format!("deadlock-free-by-construction program failed: {e:?}"),
        }),
        (true, Err(e)) => Err(Failure::Diagnostics {
            outcome: format!("expected a deadlock/budget diagnostic, got: {e:?}"),
        }),
    }
}

/// Stopping policy the adaptive oracle checks under: loose enough that
/// most generated programs converge before the ceiling, tight enough
/// that noisy ones run past the floor.
pub const ADAPTIVE_PRECISION: f64 = 0.05;

/// Replication ceiling of the adaptive oracle (also the fixed-batch
/// length the adaptive run is compared against).
pub const ADAPTIVE_MAX_REPS: usize = 12;

/// Oracle 6 — the adaptive replication engine against its reference
/// stopping rule. Three deterministic checks per program:
///
/// - **determinism** — two adaptive runs with the same (seed,
///   precision) choose the same rep count and agree bitwise on the
///   mean;
/// - **stop-point / prefix** — the engine stops exactly where
///   [`pevpm::stats::AdaptivePolicy::stop_point`] says on the
///   fixed-batch makespan stream, and each adaptive replication agrees
///   bitwise with the fixed replication at its index (adaptive mode is
///   a truncation, never a re-sampling);
/// - **ci-agreement** — the adaptive mean lies within a generous
///   multiple of its own reported half-width of the full fixed-batch
///   mean (the calibration claim: stopping early loses precision, not
///   correctness).
pub fn check_adaptive(prog: &TestProgram, table: &DistTable, seed: u64) -> Result<(), Failure> {
    use pevpm::stats::AdaptivePolicy;

    let model = prog.to_model();
    let timing = TimingModel::distributions(table.clone());
    let policy = AdaptivePolicy::new(ADAPTIVE_PRECISION)
        .with_min_reps(2)
        .with_max_reps(ADAPTIVE_MAX_REPS);
    let fixed_cfg = EvalConfig::new(prog.nprocs).with_seed(seed);
    let adaptive_cfg = fixed_cfg.clone().with_adaptive(policy);

    let fixed = monte_carlo(&model, &fixed_cfg, &timing, ADAPTIVE_MAX_REPS)
        .map_err(|e| eval_err("fixed batch", &e))?;
    let run = || monte_carlo(&model, &adaptive_cfg, &timing, ADAPTIVE_MAX_REPS);
    let first = run().map_err(|e| eval_err("adaptive batch", &e))?;
    let second = run().map_err(|e| eval_err("adaptive re-run", &e))?;

    let report = first.adaptive.ok_or_else(|| Failure::Adaptive {
        check: "stop-point",
        detail: "adaptive run returned no report".into(),
    })?;
    let re_report = second.adaptive.expect("adaptive re-run must report");
    if report.reps != re_report.reps || first.mean.to_bits() != second.mean.to_bits() {
        return Err(Failure::Adaptive {
            check: "determinism",
            detail: format!(
                "re-run chose {} rep(s), mean {:.17e}; first chose {} rep(s), mean {:.17e}",
                re_report.reps, second.mean, report.reps, first.mean
            ),
        });
    }

    let stream: Vec<f64> = fixed.runs.iter().map(|p| p.makespan).collect();
    let expected = policy.stop_point(&stream);
    if report.reps != expected {
        return Err(Failure::Adaptive {
            check: "stop-point",
            detail: format!(
                "engine stopped at {} rep(s), the reference rule says {expected} \
                 (precision {ADAPTIVE_PRECISION}, bounds {}..={})",
                report.reps, policy.min_reps, policy.max_reps
            ),
        });
    }
    for (i, (a, b)) in first.runs.iter().zip(&fixed.runs).enumerate() {
        if a.makespan.to_bits() != b.makespan.to_bits() {
            return Err(Failure::Adaptive {
                check: "prefix",
                detail: format!(
                    "replication {i}: adaptive {:.17e} vs fixed {:.17e}",
                    a.makespan, b.makespan
                ),
            });
        }
    }

    // Calibration slack: 4× the larger of the achieved and requested
    // relative half-widths. The fixed mean is itself an estimate, so an
    // exact 1× bound would be wrong ~5% of the time by design.
    let rel = if report.rel_half_width.is_finite() {
        report.rel_half_width.max(ADAPTIVE_PRECISION)
    } else {
        ADAPTIVE_PRECISION
    };
    let slack = 4.0 * rel * first.mean.abs();
    if (first.mean - fixed.mean).abs() > slack {
        return Err(Failure::Adaptive {
            check: "ci-agreement",
            detail: format!(
                "adaptive mean {:.17e} ({} rep(s)) vs fixed mean {:.17e} ({} rep(s)) \
                 differs by more than {slack:.3e}",
                first.mean, report.reps, fixed.mean, ADAPTIVE_MAX_REPS
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::tables::synthetic_table;

    fn table_for(cfg: &GenConfig) -> DistTable {
        let mut sizes = cfg.sizes.clone();
        sizes.extend(cfg.sizes.iter().map(|s| s * 2));
        synthetic_table(&sizes, 11)
    }

    #[test]
    fn differential_oracle_accepts_generated_programs() {
        let cfg = GenConfig::differential();
        let table = table_for(&cfg);
        for seed in 0..10 {
            let p = generate(&cfg, seed);
            check_differential(&p, &table, seed, 2).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn dag_oracle_accepts_generated_programs() {
        let cfg = GenConfig::differential();
        let table = table_for(&cfg);
        for seed in 0..10 {
            let p = generate(&cfg, seed);
            check_dag(&p, &table, seed, 2).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn dag_oracle_requires_identical_errors_across_thread_counts() {
        // A maybe-deadlocking corpus exercises the error-disposition arm:
        // deadlocks must reproduce identically at every worker count.
        let cfg = GenConfig::maybe_deadlocking();
        let table = table_for(&cfg);
        let mut errored = 0;
        for seed in 0..30 {
            let p = generate(&cfg, seed);
            check_dag(&p, &table, seed, 1).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            if p.has_orphans() {
                errored += 1;
            }
        }
        assert!(errored > 0, "corpus never exercised the error arm");
    }

    #[test]
    fn scaling_oracle_accepts_wildcard_free_programs() {
        let cfg = GenConfig::metamorphic();
        let table = table_for(&cfg);
        for seed in 0..10 {
            let p = generate(&cfg, seed);
            check_scaling(&p, &table, 2, seed, 2).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn diagnostics_oracle_accepts_both_outcomes() {
        let cfg = GenConfig::maybe_deadlocking();
        let table = table_for(&cfg);
        let (mut deadlocked, mut completed) = (0, 0);
        for seed in 0..30 {
            let p = generate(&cfg, seed);
            check_diagnostics(&p, &table, seed).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            if p.has_orphans() {
                deadlocked += 1;
            } else {
                completed += 1;
            }
        }
        assert!(deadlocked > 0 && completed > 0, "{deadlocked}/{completed}");
    }

    #[test]
    fn adaptive_oracle_accepts_generated_programs() {
        let cfg = GenConfig::adaptive();
        let table = table_for(&cfg);
        for seed in 0..10 {
            let p = generate(&cfg, seed);
            check_adaptive(&p, &table, seed).unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn ks_critical_matches_known_values() {
        // c(0.05) ≈ 1.358; equal n=m=100 gives 1.358·sqrt(2/100).
        let crit = ks_critical(0.05, 100, 100);
        assert!((crit - 1.358 * (0.02f64).sqrt()).abs() < 1e-3, "{crit}");
        // Smaller alpha → larger critical value.
        assert!(ks_critical(0.001, 100, 100) > crit);
    }

    #[test]
    fn failure_display_is_deterministic() {
        let f = Failure::Differential {
            left: "interpreted",
            right: "compiled",
            replication: 3,
            field: "makespan".into(),
            left_value: "1".into(),
            right_value: "2".into(),
        };
        assert_eq!(
            f.to_string(),
            "interpreted vs compiled diverge at replication 3: makespan = 1 vs 2"
        );
        assert_eq!(f.kind(), "differential");
    }
}
