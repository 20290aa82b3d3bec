//! Intra-evaluation parallelism: concurrent scheduling of the components
//! `pevpm::analyze` condenses a program into.
//!
//! **This module is a deletion set.** No user surface reaches it any more
//! (`--eval-threads`, the daemon's default and the wire field went in
//! PR 20): the only way in is [`EvalConfig::with_eval_threads`], and the
//! only non-test caller of that is `perf/src/probes.rs`, for
//! `pevpm.dag_speedup` — which has read below 1 on every host it ran on,
//! while every paper application condenses to one component and stands
//! down, and any `eval_threads >= 1` forfeits the lock-step lanes
//! (`driver.rs`' `lane_width`). `perf/` changes only in a `benchmark` PR;
//! once one has dropped that probe (ROADMAP "The `benchmark` PR", *Release
//! the pins*), "The deletion PR" after it deletes, and nothing else in the
//! repository notices:
//!
//! - this file, `pub mod dag` and `pub use dag::DagPlan` in `lib.rs`, and
//!   `tests/dag.rs`;
//! - [`EvalConfig::eval_threads`] and [`EvalConfig::with_eval_threads`],
//!   and the `eval_threads > 0` branch of [`Program::evaluate_in`]
//!   (`vm/engine/tables.rs`);
//! - `vm/driver.rs`: `inner_eval` — the `budget.inner(..)` line of
//!   `monte_carlo`, the parameter of `run_replicas`, `run_group`,
//!   `replica_cfg` and `lane_width` (a timeline is then the only thing
//!   that narrows a lane group);
//! - `vm/engine.rs`: the `active` mask and `injected` messages of
//!   `run_lowered` / `run_lanes`, `ExternalMsg`, `VmOutcome::external`,
//!   and their re-exports in `vm/mod.rs`;
//! - `pevpm_apps::jacobi::ensemble_model` and its test (written to give
//!   the scheduler independent components; nothing else wants it);
//! - [`plan`]'s pins: `pevpm-apps`' `tests/dag_plan.rs` and the plan half
//!   of `tests/endpoints.rs` (the engine's error texts there stay);
//! - testkit Oracle 5: `oracle::{check_dag, DAG_THREADS}` and its two
//!   tests, `campaign::Mode::Dag`, `dag_smoke`, the merge-order drill in
//!   `tests/divergence.rs` with `maybe_perturb_seeds` and its line in this
//!   crate's `divergence-injection` feature comment, and `dag` in
//!   `pevpm fuzz --mode` (`cli/src/fuzz.rs`, USAGE);
//! - the `dag.*` metric names, DESIGN.md "Intra-evaluation parallelism",
//!   the *DAG evaluation* bullet of ROADMAP "The deletion PR".
//!
//! [`crate::replicate::ThreadBudget`] and `pevpm::analyze` stay.
//!
//! Until then: the condensation is a DAG, each component runs on the
//! serial engine against its own scoreboard partition, and components
//! with no unfinished predecessors run concurrently ([`crate::replicate`]).
//!
//! Determinism contract (the same one PR 1's `base + i` seeding gives
//! replications): predictions are **bitwise identical at any
//! `eval_threads >= 1`**. Every component's RNG stream is a pure function
//! of `(cfg.seed, component index)`, cross-component messages carry
//! arrival times fixed by the sending component, and merges walk
//! components in index order — so the thread count can only change wall
//! time, never a bit of the prediction. Programs that condense to a
//! single component (and programs the analysis declines) take the
//! unrestricted engine path with `cfg.seed` itself, which is bit-for-bit
//! the serial evaluation.

use crate::analyze::{condense, Decision};
use crate::lower::Program;
use crate::model::Model;
use crate::replicate::{self, JobError};
use crate::timing::TimingModel;
use crate::vm::{self, EvalConfig, PevpmError, Prediction};

/// The scheduler's decomposition of one program, as reported to callers
/// (the conformance oracle keys its expectations on `components`).
#[derive(Debug, Clone)]
pub struct DagPlan {
    /// Number of SCC components the ranks condensed into.
    pub components: usize,
    /// Edges in the condensed DAG.
    pub edges: usize,
    /// Why the analysis declined and the evaluation will take the serial
    /// path (`None` when the decomposition is in effect). Single-component
    /// programs also run serially but are not a fallback.
    pub fallback: Option<String>,
}

/// Analyse a model without evaluating it: how would the DAG scheduler
/// decompose it? Used by the serial-vs-DAG oracle to know when bitwise
/// identity with the serial engine is required.
pub fn plan(model: &Model, cfg: &EvalConfig) -> Result<DagPlan, PevpmError> {
    let program = Program::new(model);
    let setup = vm::prepare(&program, cfg)?;
    let (components, edges, fallback) = match condense(&setup, cfg) {
        Decision::Fallback(reason) => (1, 0, Some(reason.to_string())),
        Decision::Single => (1, 0, None),
        Decision::Dag(a) => (a.components.len(), a.edges.len(), None),
    };
    Ok(DagPlan {
        components,
        edges,
        fallback,
    })
}

/// Component seed: a splitmix64-style mix of `(base seed, component
/// index)`. Decorrelates per-component RNG streams while staying a pure
/// function of its inputs — the root of the thread-count-invariance
/// contract.
fn component_seed(base: u64, comp: u64) -> u64 {
    let mut z = base ^ comp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Divergence drill hook (compile-time, like `pevpm-dist`'s ULP
/// injection): rotating the component→seed assignment when the scheduler
/// actually runs concurrently simulates a merge-order bug, which the
/// serial-vs-DAG oracle must catch as a thread-count divergence.
#[cfg(feature = "divergence-injection")]
fn maybe_perturb_seeds(seeds: &mut [u64], eval_threads: usize) {
    if eval_threads > 1 && seeds.len() > 1 {
        seeds.rotate_left(1);
    }
}

#[cfg(not(feature = "divergence-injection"))]
fn maybe_perturb_seeds(_seeds: &mut [u64], _eval_threads: usize) {}

/// Evaluate via the DAG scheduler. Entry point for
/// [`Program::evaluate`] when `cfg.eval_threads >= 1`.
pub(crate) fn evaluate_dag(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
) -> Result<Prediction, PevpmError> {
    let setup = vm::prepare(program, cfg)?;
    let analysis = match condense(&setup, cfg) {
        Decision::Dag(a) => a,
        decision => {
            // Single component or declined: the serial engine is the
            // component run — seeded with cfg.seed itself, this is
            // bit-for-bit the historical evaluation.
            let outcome = vm::run_lowered(&setup, cfg, timing, cfg.seed, None, &[])?;
            if let Some(registry) = &cfg.metrics {
                registry.counter("dag.evaluations").inc();
                registry.gauge("dag.components").set(1.0);
                registry.gauge("dag.workers").set(1.0);
                registry.gauge("dag.critical_path_fraction").set(1.0);
                if matches!(decision, Decision::Fallback(_)) {
                    registry.counter("dag.fallbacks").inc();
                }
            }
            return Ok(vm::finish_prediction(&setup, cfg, outcome));
        }
    };

    let ncomp = analysis.components.len();
    let mut seeds: Vec<u64> = (0..ncomp)
        .map(|c| component_seed(cfg.seed, c as u64))
        .collect();
    maybe_perturb_seeds(&mut seeds, cfg.eval_threads);

    // Activity masks per component.
    let masks: Vec<Vec<bool>> = analysis
        .components
        .iter()
        .map(|members| {
            let mut mask = vec![false; cfg.nprocs];
            for &p in members {
                mask[p] = true;
            }
            mask
        })
        .collect();

    // Kahn waves over the condensation: a component runs once all its
    // predecessors have, so every cross-component message it consumes is
    // already collected (with a fixed arrival) before it starts.
    let mut indeg = vec![0usize; ncomp];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for &(u, v) in &analysis.edges {
        succ[u].push(v);
        pred[v].push(u);
        indeg[v] += 1;
    }

    let mut outcomes: Vec<Option<vm::VmOutcome>> = (0..ncomp).map(|_| None).collect();
    let mut pending: Vec<Vec<vm::ExternalMsg>> = vec![Vec::new(); ncomp];
    let mut wave: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    let mut max_workers = 0usize;
    let mut worker_idle: Vec<f64> = Vec::new();

    while !wave.is_empty() {
        let workers = cfg.eval_threads.max(1).min(wave.len());
        max_workers = max_workers.max(workers);
        let run = {
            let wave = &wave;
            let pending = &pending;
            let setup = &setup;
            let seeds = &seeds;
            let masks = &masks;
            move |i: usize| {
                let c = wave[i];
                vm::run_lowered(setup, cfg, timing, seeds[c], Some(&masks[c]), &pending[c])
            }
        };
        let (results, profile) = replicate::isolated_map(wave.len(), workers, run);
        let results = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| match e {
                JobError::Err(e) => e,
                JobError::Panic(p) => PevpmError::ReplicaPanic {
                    index: p.index.unwrap_or(0),
                    message: p.message,
                },
            })?;
        for w in &profile.workers {
            worker_idle.push((profile.wall_secs - w.busy_secs).max(0.0));
        }
        // Route boundary messages to their destination components in wave
        // order: ordering is by (component index, collection order), a
        // pure function of the decomposition — never of thread timing.
        for (i, outcome) in results.into_iter().enumerate() {
            let c = wave[i];
            for ext in &outcome.external {
                pending[analysis.comp_of[ext.to]].push(ext.clone());
            }
            outcomes[c] = Some(outcome);
        }
        let mut next: Vec<usize> = Vec::new();
        for &c in &wave {
            for &s in &succ[c] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
        }
        next.sort_unstable();
        wave = next;
    }

    let outcomes: Vec<vm::VmOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every DAG component is scheduled"))
        .collect();

    // Deterministic merge, walking components in index order: per-rank
    // quantities come from the owning component, counters sum, the
    // scoreboard peak is the worst component's.
    let mut merged = vm::VmOutcome {
        clocks: vec![0.0; cfg.nprocs],
        compute_time: vec![0.0; cfg.nprocs],
        send_time: vec![0.0; cfg.nprocs],
        blocked_time: vec![0.0; cfg.nprocs],
        messages: 0,
        steps: 0,
        sb_peak: 0,
        races: Vec::new(),
        loss: vec![None; setup.lowered.labels.len()],
        timeline: cfg
            .record_timeline
            .then(|| (0..cfg.nprocs).map(|_| Vec::new()).collect()),
        external: Vec::new(),
    };
    for (c, outcome) in outcomes.iter().enumerate() {
        for &p in &analysis.components[c] {
            merged.clocks[p] = outcome.clocks[p];
            merged.compute_time[p] = outcome.compute_time[p];
            merged.send_time[p] = outcome.send_time[p];
            merged.blocked_time[p] = outcome.blocked_time[p];
        }
        merged.messages += outcome.messages;
        merged.steps += outcome.steps;
        merged.sb_peak = merged.sb_peak.max(outcome.sb_peak);
        merged.races.extend(outcome.races.iter().cloned());
        for (merged, loss) in merged.loss.iter_mut().zip(&outcome.loss) {
            if let Some(loss) = loss {
                *merged = Some(merged.unwrap_or(0.0) + loss);
            }
        }
    }
    if let Some(timeline) = &mut merged.timeline {
        for (c, outcome) in outcomes.iter().enumerate() {
            if let Some(t) = &outcome.timeline {
                for &p in &analysis.components[c] {
                    timeline[p] = t[p].clone();
                }
            }
        }
    }

    if let Some(registry) = &cfg.metrics {
        registry.counter("dag.evaluations").inc();
        registry.gauge("dag.components").set(ncomp as f64);
        registry.gauge("dag.workers").set(max_workers as f64);
        // Critical-path fraction: longest directive-weighted chain through
        // the condensation over total directives. 1.0 = fully serial
        // structure; 1/ncomp = perfectly parallel.
        let steps: Vec<u64> = outcomes.iter().map(|o| o.steps).collect();
        let total: u64 = steps.iter().sum();
        // Component ids follow minimum rank, not topological order, so
        // relax to a fixed point (the DAG has <= nprocs nodes).
        let mut chain = vec![0u64; ncomp];
        let mut changed = true;
        while changed {
            changed = false;
            for c in 0..ncomp {
                let best_pred = pred[c].iter().map(|&u| chain[u]).max().unwrap_or(0);
                let v = best_pred + steps[c];
                if v > chain[c] {
                    chain[c] = v;
                    changed = true;
                }
            }
        }
        let critical = chain.iter().copied().max().unwrap_or(0);
        let fraction = if total == 0 {
            1.0
        } else {
            critical as f64 / total as f64
        };
        registry.gauge("dag.critical_path_fraction").set(fraction);
        let idle = registry.histogram("dag.worker_idle_secs", 0.0, 1.0, 64);
        for secs in &worker_idle {
            idle.record(*secs);
        }
    }

    Ok(vm::finish_prediction(&setup, cfg, merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build::*;
    use crate::model::{CollOp, Model};

    /// Ranks {0,1} ping-pong among themselves; ranks {2,3} likewise.
    /// Two SCCs, no cross edges.
    fn two_island_model() -> Model {
        Model::new()
            .with_stmt(runon2(
                "procnum == 0",
                vec![send("256", "0", "1"), recv("256", "1", "0")],
                "procnum == 1",
                vec![recv("256", "0", "1"), send("256", "1", "0")],
            ))
            .with_stmt(runon2(
                "procnum == 2",
                vec![send("256", "2", "3"), recv("256", "3", "2")],
                "procnum == 3",
                vec![recv("256", "2", "3"), send("256", "3", "2")],
            ))
    }

    #[test]
    fn component_seed_is_stable() {
        assert_eq!(component_seed(1, 0), component_seed(1, 0));
        assert_ne!(component_seed(1, 0), component_seed(1, 1));
        assert_ne!(component_seed(1, 1), component_seed(2, 1));
    }

    #[test]
    fn two_islands_decompose() {
        let model = two_island_model();
        let cfg = EvalConfig::new(4);
        let p = plan(&model, &cfg).expect("plan");
        assert_eq!(p.components, 2);
        assert_eq!(p.edges, 0);
        assert!(p.fallback.is_none());
    }

    #[test]
    fn collectives_stay_single_component() {
        let model = Model::new().with_stmt(collective(CollOp::Barrier, "0"));
        let cfg = EvalConfig::new(4);
        let p = plan(&model, &cfg).expect("plan");
        assert_eq!(p.components, 1);
    }

    #[test]
    fn pipeline_chain_condenses_per_rank() {
        // 0 → 1 → 2, receives only: three components in a chain.
        let model = Model::new()
            .with_stmt(runon2(
                "procnum == 0",
                vec![send("64", "0", "1")],
                "procnum == 1",
                vec![recv("64", "0", "1"), send("64", "1", "2")],
            ))
            .with_stmt(runon("procnum == 2", vec![recv("64", "1", "2")]));
        let cfg = EvalConfig::new(3);
        let p = plan(&model, &cfg).expect("plan");
        assert_eq!(p.components, 3);
        assert_eq!(p.edges, 2);
    }
}
