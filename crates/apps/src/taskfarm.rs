//! Bag-of-tasks / task farm — the paper's irregular communication class
//! (§6 mentions a "bag of tasks (or task farm)" validated in refs [9, 10]).
//!
//! The **measured** program is a genuine dynamic farm: a master (rank 0)
//! hands tasks to whichever worker asks next (wildcard receive), so the
//! schedule is data-dependent and non-deterministic in structure — exactly
//! the behaviour class PEVPM's decision-point machinery exists for.
//!
//! The **model** uses PEVPM wildcard receives (`from = -1`) at the master
//! and a static round-robin reply target — the standard modelling
//! approximation for a dynamic farm (documented in DESIGN.md): with i.i.d.
//! task costs and many tasks per worker, the round-robin and dynamic
//! schedules converge in total time.

use pevpm::model::build::*;
use pevpm::model::{MsgKind, Stmt};
use pevpm::Model;
use pevpm_mpisim::{RunReport, SimError, SrcSel, World, WorldConfig};
use std::cell::RefCell;

const TAG_REQ: u64 = 10;
const TAG_TASK: u64 = 11;
const TAG_STOP: u64 = 12;

/// Configuration of a farm run / model.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Total number of tasks.
    pub tasks: usize,
    /// Mean per-task compute time in seconds.
    pub work_mean_secs: f64,
    /// Half-width of the uniform spread around the mean (0 = constant
    /// work).
    pub work_spread_secs: f64,
    /// Size of a task-description message.
    pub task_bytes: u64,
    /// Size of a result message.
    pub result_bytes: u64,
    /// Seed for per-task work times.
    pub seed: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            tasks: 64,
            work_mean_secs: 0.05,
            work_spread_secs: 0.02,
            task_bytes: 256,
            result_bytes: 1024,
            seed: 99,
        }
    }
}

impl FarmConfig {
    /// Deterministic per-task work time (splitmix64 hash of task id).
    pub fn work_secs(&self, task: u64) -> f64 {
        let mut z = task
            .wrapping_add(self.seed)
            .wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (self.work_mean_secs + (2.0 * u - 1.0) * self.work_spread_secs).max(0.0)
    }

    /// Total serial work across all tasks.
    pub fn total_work(&self) -> f64 {
        (0..self.tasks as u64).map(|t| self.work_secs(t)).sum()
    }
}

/// Result of a measured farm execution.
#[derive(Debug, Clone)]
pub struct FarmRun {
    /// World run report.
    pub report: RunReport,
    /// Total virtual time in seconds.
    pub time: f64,
    /// How many tasks each worker processed (index 0 is the master: 0).
    pub tasks_done: Vec<usize>,
}

/// Execute the dynamic task farm. Requires at least 2 ranks.
pub fn run_measured(world: WorldConfig, cfg: &FarmConfig) -> Result<FarmRun, SimError> {
    let n = world.nranks();
    assert!(n >= 2, "a farm needs a master and at least one worker");
    let done = RefCell::new(vec![0; n]);

    let report = World::run_async(world, async |rank| {
        let me = rank.rank();
        if me == 0 {
            // Master: serve tasks to whoever asks.
            let mut next_task = 0usize;
            let mut stopped = 0usize;
            let workers = rank.nranks() - 1;
            while stopped < workers {
                let (meta, _) = rank.recv(SrcSel::Any, TAG_REQ).await;
                if next_task < cfg.tasks {
                    // Encode the task id in the payload.
                    rank.send(
                        meta.src,
                        TAG_TASK,
                        (next_task as u64).to_le_bytes().to_vec(),
                    )
                    .await;
                    next_task += 1;
                } else {
                    rank.send_size(meta.src, TAG_STOP, 8).await;
                    stopped += 1;
                }
            }
        } else {
            // Worker: request, work, repeat.
            let mut count = 0usize;
            loop {
                rank.send_size(0, TAG_REQ, cfg.result_bytes.min(64)).await;
                let (meta, payload) = rank.recv(0, pevpm_mpisim::TagSel::Any).await;
                if meta.tag == TAG_STOP {
                    break;
                }
                let task = u64::from_le_bytes(payload[..8].try_into().unwrap());
                rank.compute_secs(cfg.work_secs(task)).await;
                count += 1;
            }
            done.borrow_mut()[me] = count;
        }
    })?;

    Ok(FarmRun {
        time: report.virtual_time.as_secs_f64(),
        report,
        tasks_done: done.into_inner(),
    })
}

/// The PEVPM model of the farm (static round-robin approximation, mean
/// task cost; wildcard receives at the master).
pub fn model(cfg: &FarmConfig) -> Model {
    // Worker w handles ceil-share tasks; for simplicity the model requires
    // tasks % workers == 0 and distributes evenly.
    let req = Stmt::Message {
        kind: MsgKind::Send,
        size: e("64"),
        from: e("procnum"),
        to: e("0"),
        handle: None,
        label: Some("farm-request".into()),
    };
    let reply_any = Stmt::Message {
        kind: MsgKind::Recv,
        size: e("64"),
        from: e("0-1"), // wildcard
        to: e("0"),
        handle: None,
        label: Some("farm-master-recv".into()),
    };
    Model::new()
        .with_param("tasks", cfg.tasks as f64)
        .with_param("taskbytes", cfg.task_bytes as f64)
        .with_param("work", cfg.work_mean_secs)
        .with_stmt(Stmt::Runon {
            branches: vec![
                (
                    e("procnum == 0"),
                    vec![looped_var(
                        "tasks + numprocs - 1",
                        "i",
                        vec![
                            reply_any,
                            labelled(
                                send_expr("taskbytes", "0", "i % (numprocs-1) + 1"),
                                "farm-dispatch",
                            ),
                        ],
                    )],
                ),
                (
                    e("procnum != 0"),
                    vec![
                        looped(
                            "tasks / (numprocs - 1)",
                            vec![
                                req.clone(),
                                labelled(recv_expr("taskbytes", "0", "procnum"), "farm-task-recv"),
                                labelled(serial("work"), "farm-work"),
                            ],
                        ),
                        // Final request answered by a stop message.
                        req,
                        labelled(recv_expr("taskbytes", "0", "procnum"), "farm-stop-recv"),
                    ],
                ),
            ],
        })
}

fn send_expr(size: &str, from: &str, to: &str) -> Stmt {
    Stmt::Message {
        kind: MsgKind::Send,
        size: e(size),
        from: e(from),
        to: e(to),
        handle: None,
        label: None,
    }
}

fn recv_expr(size: &str, from: &str, to: &str) -> Stmt {
    Stmt::Message {
        kind: MsgKind::Recv,
        size: e(size),
        from: e(from),
        to: e(to),
        handle: None,
        label: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_times_are_deterministic_and_bounded() {
        let cfg = FarmConfig::default();
        for t in 0..64u64 {
            let w = cfg.work_secs(t);
            assert_eq!(w, cfg.work_secs(t));
            assert!((0.03 - 1e-12..=0.07 + 1e-12).contains(&w), "w = {w}");
        }
        // Times vary between tasks.
        assert_ne!(cfg.work_secs(1), cfg.work_secs(2));
    }

    #[test]
    fn farm_completes_all_tasks() {
        let cfg = FarmConfig {
            tasks: 20,
            ..Default::default()
        };
        let run = run_measured(WorldConfig::ideal(5, 1), &cfg).unwrap();
        assert_eq!(run.tasks_done.iter().sum::<usize>(), 20);
        assert_eq!(run.tasks_done[0], 0, "master does no tasks");
        // Every worker got at least one task (work ≫ comm here).
        for w in 1..5 {
            assert!(
                run.tasks_done[w] > 0,
                "worker {w} starved: {:?}",
                run.tasks_done
            );
        }
    }

    #[test]
    fn farm_time_scales_with_workers() {
        let cfg = FarmConfig {
            tasks: 24,
            ..Default::default()
        };
        let t2 = run_measured(WorldConfig::ideal(3, 1), &cfg).unwrap().time; // 2 workers
        let t4 = run_measured(WorldConfig::ideal(5, 1), &cfg).unwrap().time; // 4 workers
        assert!(t4 < t2, "t2={t2} t4={t4}");
        // Lower bound: total work / workers.
        assert!(t4 >= cfg.total_work() / 4.0 * 0.9);
    }

    #[test]
    fn dynamic_schedule_balances_uneven_work() {
        // Strong spread: dynamic assignment should not leave any worker
        // with a wildly larger share of the *time* than others.
        let cfg = FarmConfig {
            tasks: 40,
            work_mean_secs: 0.05,
            work_spread_secs: 0.045,
            ..Default::default()
        };
        let run = run_measured(WorldConfig::ideal(5, 1), &cfg).unwrap();
        let ideal = cfg.total_work() / 4.0;
        assert!(
            run.time < ideal * 1.25,
            "dynamic farm too unbalanced: {} vs ideal {ideal}",
            run.time
        );
    }

    #[test]
    fn model_evaluates_and_matches_total_work() {
        let cfg = FarmConfig {
            tasks: 24,
            work_spread_secs: 0.0, // constant work → model is exact
            ..Default::default()
        };
        let m = model(&cfg);
        assert!(
            m.free_variables().iter().all(|v| m.params.contains_key(v)),
            "unbound model params"
        );
        let timing = pevpm::TimingModel::hockney(100e-6, 12.5e6);
        let pred = pevpm::evaluate(&m, &pevpm::EvalConfig::new(4), &timing).unwrap();
        // 3 workers × 8 tasks × 0.05 s plus comm overheads.
        let floor = 8.0 * cfg.work_mean_secs;
        assert!(
            pred.makespan >= floor && pred.makespan < floor * 1.5,
            "makespan {} vs floor {floor}",
            pred.makespan
        );
        // The dispatch target `i % (numprocs-1) + 1` reads the loop
        // variable: recorded before the VM began to keep loop-invariant
        // expressions, and equal without constant folding.
        assert_eq!(pred.makespan.to_bits(), 0.40216533759999995f64.to_bits());
        assert_eq!((pred.steps, pred.messages), (144, 54));
        let unfolded = pevpm::EvalConfig::new(4).without_const_fold();
        let unfolded = pevpm::evaluate(&m, &unfolded, &timing).unwrap();
        assert_eq!(unfolded.makespan.to_bits(), pred.makespan.to_bits());
    }

    #[test]
    fn model_and_measured_agree_for_constant_work() {
        let cfg = FarmConfig {
            tasks: 24,
            work_mean_secs: 0.05,
            work_spread_secs: 0.0,
            ..Default::default()
        };
        let measured = run_measured(WorldConfig::ideal(4, 1), &cfg).unwrap().time;
        let timing = pevpm::TimingModel::hockney(60e-6, 12.5e6);
        let predicted = pevpm::evaluate(&model(&cfg), &pevpm::EvalConfig::new(4), &timing)
            .unwrap()
            .makespan;
        let rel = (predicted - measured).abs() / measured;
        assert!(
            rel < 0.2,
            "farm prediction off by {:.0}%: measured {measured}, predicted {predicted}",
            rel * 100.0
        );
    }
}
