//! The Monte-Carlo loop of §6: replications in seed order on the
//! replication pool, full groups of eight as lock-step lanes, fixed or
//! adaptive (sequential-stopping) batch length.

use super::engine::{finish_prediction, prepare, run_lanes, Halt, Lane, LANES};
use super::{EvalConfig, McPrediction, PevpmError, Prediction};
use crate::lower::Program;
use crate::model::Model;
use crate::timing::TimingModel;

/// Evaluate a model `replications` times with consecutive seeds derived
/// from `cfg.seed` and aggregate the makespans.
///
/// §6 of the paper: "since the PEVPM execution samples from PDFs of
/// communication times, many iterations are needed to give an accurate
/// average … The PEVPM approach is like a Monte Carlo simulation of
/// performance, and the number of iterations can be chosen so that the
/// statistical error in the mean is negligibly small." For programs that
/// are not internally iterative, independent replications serve the same
/// purpose; `stderr` quantifies the remaining statistical error.
///
/// With [`EvalConfig::adaptive`] set, `replications` is ignored and the
/// batch ends at the first replication index `n >= min_reps` whose prefix
/// of successful makespans (in index order) meets the precision target,
/// else at `max_reps`. Replications are computed in chunks sized to the
/// worker pool and any overshoot past the stopping index is discarded, so
/// the chosen count, the surviving runs and the aggregate are invariant to
/// thread count and chunk width. A fixed batch is the same loop with
/// floor = ceiling = `replications` and no stopping test: its first chunk
/// is the whole batch. Failed replications contribute no sample but count
/// toward the ceiling.
///
/// Lowers the model once ([`Program::new`]) and runs
/// [`Program::monte_carlo`].
pub fn monte_carlo(
    model: &Model,
    cfg: &EvalConfig,
    timing: &TimingModel,
    replications: usize,
) -> Result<McPrediction, PevpmError> {
    Program::new(model).monte_carlo(cfg, timing, replications)
}

impl Program {
    /// [`monte_carlo`] over this program, every replica an
    /// [`Program::evaluate`] of it.
    pub fn monte_carlo(
        &self,
        cfg: &EvalConfig,
        timing: &TimingModel,
        replications: usize,
    ) -> Result<McPrediction, PevpmError> {
        let (floor, ceiling) = match &cfg.adaptive {
            Some(policy) => {
                policy.validate().map_err(PevpmError::Config)?;
                (policy.min_reps, policy.max_reps)
            }
            None => {
                assert!(replications > 0, "need at least one replication");
                (replications, replications)
            }
        };
        let start = std::time::Instant::now();
        // The outer pool keeps the requested `threads` width and each replica's
        // DAG scheduler gets the per-job share, so `threads × eval_threads`
        // never oversubscribes the host. The cap is result-neutral: DAG
        // predictions are bitwise identical at any eval-thread count >= 1.
        let budget = crate::replicate::ThreadBudget::from_host();
        let outer = budget.outer(cfg.threads, ceiling);
        let inner_eval = budget.inner(outer, cfg.eval_threads);

        // Replica i is seeded from (cfg.seed, i) alone and outcomes fold in
        // index order, so neither the thread count, the lane packing nor the
        // chunk width can change a replica, the stopping index or the
        // aggregate. Each replication runs panic-isolated: a worker that panics
        // (bad timing table, hostile model) is a recorded failure, not a
        // process abort.
        let mut runs: Vec<Prediction> = Vec::new();
        let mut failures: Vec<(usize, String)> = Vec::new();
        let mut first_failure: Option<PevpmError> = None;
        let mut makespans = pevpm_dist::Summary::new();
        let mut workers: Vec<crate::replicate::WorkerStat> = Vec::new();
        let mut attempted = 0usize;
        let mut reps_run = 0usize;
        let mut converged = false;
        while !converged && reps_run < ceiling {
            // The first chunk covers the floor; later chunks keep the pool full
            // — one lock-step lane group per worker when the evaluation runs in
            // lanes.
            let pool_full = outer.max(1) * lane_width(cfg, inner_eval);
            let want = if reps_run == 0 {
                floor.max(pool_full)
            } else {
                pool_full
            };
            let chunk = want.min(ceiling - reps_run);
            let (outcomes, profile) =
                run_replicas(self, cfg, timing, reps_run..reps_run + chunk, inner_eval);
            workers.extend(profile.workers);
            attempted += chunk;
            for outcome in outcomes {
                match outcome {
                    Ok(p) => {
                        makespans.add(p.makespan);
                        runs.push(p);
                    }
                    Err(job_err) => {
                        failures.push((reps_run, job_err.to_string()));
                        if first_failure.is_none() {
                            first_failure = Some(job_error_to_pevpm(job_err, reps_run));
                        }
                    }
                }
                reps_run += 1;
                converged = cfg.adaptive.as_ref().is_some_and(|policy| {
                    reps_run >= policy.min_reps && stopping_satisfied(policy, &makespans)
                });
                if converged {
                    break;
                }
            }
        }
        let wall_secs = start.elapsed().as_secs_f64();

        // k-of-n quorum over the replications actually run (clamped, so an
        // early-stopped batch is never unsatisfiable). Without a quorum every
        // replication must succeed and the lowest-index failure is returned —
        // the one a serial loop would have hit first.
        let required = cfg.quorum.unwrap_or(reps_run).clamp(1, reps_run);
        if let Some(first) = first_failure {
            if runs.len() < required {
                if cfg.quorum.is_none() {
                    return Err(first);
                }
                return Err(PevpmError::QuorumFailed {
                    succeeded: runs.len(),
                    required,
                    total: reps_run,
                    first_failure: Box::new(first),
                });
            }
        }

        let adaptive = cfg.adaptive.as_ref().map(|policy| {
            let stream: Vec<f64> = runs.iter().map(|p| p.makespan).collect();
            crate::stats::AdaptiveReport {
                precision: policy.precision,
                confidence: policy.confidence,
                min_reps: policy.min_reps,
                max_reps: policy.max_reps,
                reps: reps_run,
                rel_half_width: crate::stats::rel_half_width(&makespans, policy.confidence)
                    .unwrap_or(f64::INFINITY),
                converged,
                drift: crate::stats::detect_drift(&stream, crate::stats::DRIFT_ALPHA),
            }
        });
        Ok(McPrediction {
            mean: makespans.mean().unwrap_or(0.0),
            stderr: makespans.stderr_mean().unwrap_or(0.0),
            min: makespans.min().unwrap_or(0.0),
            max: makespans.max().unwrap_or(0.0),
            makespans,
            wall_secs,
            evals_per_sec: if wall_secs > 0.0 {
                attempted as f64 / wall_secs
            } else {
                0.0
            },
            profile: crate::replicate::ReplicateProfile { workers, wall_secs },
            runs,
            failures,
            adaptive,
        })
    }
}

/// Replica `i`'s lane: the derived seed and — under
/// [`EvalConfig::antithetic`] — the paired seed with the mirror flag on odd
/// replicas. Independent seeding is `base + i`
/// ([`crate::replicate::replica_seed`]): a replica depends on its index,
/// never on the thread or lane group that ran it.
fn replica_lane(cfg: &EvalConfig, i: usize) -> Lane {
    if cfg.antithetic {
        Lane {
            seed: crate::replicate::replica_seed(cfg.seed, (i / 2) as u64),
            mirror: i % 2 == 1,
        }
    } else {
        Lane {
            seed: crate::replicate::replica_seed(cfg.seed, i as u64),
            mirror: cfg.mirror,
        }
    }
}

/// Per-replica configuration for a one-lane evaluation: the replica's
/// [`Lane`] plus the per-job eval-thread share.
pub(super) fn replica_cfg(cfg: &EvalConfig, i: usize, inner_eval: usize) -> EvalConfig {
    let lane = replica_lane(cfg, i);
    let mut c = cfg.clone();
    c.seed = lane.seed;
    c.mirror = lane.mirror;
    c.eval_threads = inner_eval;
    c
}

/// Replicas per pool job: [`LANES`], unless the evaluation wants the DAG
/// scheduler or a timeline — then every replica runs one lane at a time.
fn lane_width(cfg: &EvalConfig, inner_eval: usize) -> usize {
    if inner_eval == 0 && !cfg.record_timeline {
        LANES
    } else {
        1
    }
}

type ReplicaResult = Result<Prediction, crate::replicate::JobError<PevpmError>>;

/// Evaluate replicas `range` of the batch on the replication pool, in
/// index order. Full groups of [`lane_width`] consecutive replicas run in
/// lock step, the remainder one lane at a time. The width never shows in a
/// result: each lane is bitwise its own `evaluate`.
fn run_replicas(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
    range: std::ops::Range<usize>,
    inner_eval: usize,
) -> (Vec<ReplicaResult>, crate::replicate::ReplicateProfile) {
    let width = lane_width(cfg, inner_eval);
    let mut groups = Vec::new();
    let mut next = range.start;
    while next < range.end {
        let len = if range.end - next >= width { width } else { 1 };
        groups.push(next..next + len);
        next += len;
    }
    crate::replicate::isolated_groups_profiled(&groups, cfg.threads, |group| {
        run_group(program, cfg, timing, group, inner_eval)
    })
}

/// One pool job: replicas `group` as a lock-step lane group if it is a full
/// one, else (or if the lanes stand down, or anything in the group panics
/// — some lane's draw did, and only a re-run can say whose) one at a time
/// under the usual panic isolation, so errors, quorum accounting and
/// diagnostics are exactly those of separate evaluations.
fn run_group(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
    group: std::ops::Range<usize>,
    inner_eval: usize,
) -> Vec<ReplicaResult> {
    if group.len() == LANES {
        let lanes =
            std::panic::AssertUnwindSafe(|| evaluate_lanes(program, cfg, timing, group.start));
        if let Ok(Some(results)) = std::panic::catch_unwind(lanes) {
            return results
                .into_iter()
                .map(|r| r.map_err(crate::replicate::JobError::Err))
                .collect();
        }
    }
    group
        .map(|i| {
            crate::replicate::isolated(i, || {
                program.evaluate(&replica_cfg(cfg, i, inner_eval), timing)
            })
        })
        .collect()
}

/// Replicas `first .. first + LANES` in lock step; `None` if the lanes
/// stood down.
fn evaluate_lanes(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
    first: usize,
) -> Option<Vec<Result<Prediction, PevpmError>>> {
    let setup = match prepare(program, cfg) {
        Ok(setup) => setup,
        Err(e) => return Some(vec![Err(e); LANES]),
    };
    let lanes: [Lane; LANES] = std::array::from_fn(|l| replica_lane(cfg, first + l));
    match run_lanes(&setup, cfg, timing, lanes, None, &[]) {
        Ok(outcomes) => Some(
            outcomes
                .into_iter()
                .map(|outcome| Ok(finish_prediction(&setup, cfg, outcome)))
                .collect(),
        ),
        Err(Halt::StandDown) => None,
        Err(Halt::Uniform(e)) => Some(vec![Err(e); LANES]),
        Err(Halt::PerLane(errors)) => Some(errors.into_iter().map(Err).collect()),
    }
}

fn job_error_to_pevpm(job_err: crate::replicate::JobError<PevpmError>, i: usize) -> PevpmError {
    match job_err {
        crate::replicate::JobError::Err(e) => e,
        crate::replicate::JobError::Panic(p) => PevpmError::ReplicaPanic {
            index: p.index.unwrap_or(i),
            message: p.message,
        },
    }
}

/// The engine's stopping test, one prefix at a time. Kept separate from
/// [`crate::stats::AdaptivePolicy::satisfied`] so the divergence drill can
/// perturb the *engine* while the conformance oracle replays the clean
/// reference rule against it.
#[cfg(not(feature = "divergence-injection"))]
fn stopping_satisfied(policy: &crate::stats::AdaptivePolicy, s: &pevpm_dist::Summary) -> bool {
    policy.satisfied(s)
}

/// Divergence drill hook (compile-time, like the DAG seed rotation): the
/// injected engine believes it has one more degree of freedom than it
/// does, which makes the half-width test too permissive — the adaptive
/// oracle must catch the resulting early stop as a divergence from the
/// reference [`crate::stats::AdaptivePolicy::stop_point`].
#[cfg(feature = "divergence-injection")]
fn stopping_satisfied(policy: &crate::stats::AdaptivePolicy, s: &pevpm_dist::Summary) -> bool {
    let (Some(mean), Some(var)) = (s.mean(), s.sample_variance()) else {
        return false;
    };
    if s.count() < 2 || mean == 0.0 {
        return false;
    }
    let hw = crate::stats::ci_half_width(s.count() + 1, var.sqrt(), policy.confidence);
    hw / mean.abs() <= policy.precision
}
