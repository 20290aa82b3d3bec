//! Intra-evaluation parallelism: SCC/DAG decomposition of the model
//! program and concurrent component scheduling.
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
//!   and the `eval_threads > 0` branch of [`Program::evaluate`];
//! - `vm/driver.rs`: `inner_eval` — the `budget.inner(..)` line of
//!   `monte_carlo`, the parameter of `run_replicas`, `run_group`,
//!   `replica_cfg` and `lane_width` (a timeline is then the only thing
//!   that narrows a lane group);
//! - `vm/engine.rs`: the `active` mask and `injected` messages of
//!   `run_lowered` / `run_lanes`, `ExternalMsg`, `VmOutcome::external`,
//!   and their re-exports in `vm/mod.rs`;
//! - `pevpm_apps::jacobi::ensemble_model` and its test (written to give
//!   the scheduler independent components; nothing else wants it);
//! - testkit Oracle 5: `oracle::{check_dag, DAG_THREADS}` and its two
//!   tests, `campaign::Mode::Dag`, `dag_smoke`, the merge-order drill in
//!   `tests/divergence.rs` with `maybe_perturb_seeds` and its line in this
//!   crate's `divergence-injection` feature comment, and `dag` in
//!   `pevpm fuzz --mode` (`cli/src/fuzz.rs`, USAGE);
//! - the `dag.*` metric names, DESIGN.md "Intra-evaluation parallelism",
//!   the *DAG evaluation* bullet of ROADMAP "The deletion PR".
//!
//! [`crate::replicate::ThreadBudget`] stays: the daemon splits the host
//! between its connection workers with it. The abstract endpoint walk
//! below (`analyze` down to `tarjan`) moves instead of going: it is the
//! substrate of ROADMAP "Static communication analysis as a pass of its
//! own".
//!
//! Until then, what it does.
//!
//! The virtual ranks of a lowered program plus its message endpoints form
//! a dependency graph: an edge `p → q` means q's progress can wait on p
//! (an eager send feeds a receive), and a cycle (Jacobi halo-exchange
//! rings, rendezvous pairs, wildcard races) means the ranks must be
//! co-scheduled. Tarjan's SCC condenses the cycles into components; the
//! condensation is a DAG, and each component can be evaluated by the
//! existing serial sweep/match engine against its own scoreboard
//! partition. Components with no unfinished predecessors run concurrently
//! on a scoped pool ([`crate::replicate`]).
//!
//! Determinism contract (the same one PR 1's `base + i` seeding gives
//! replications): predictions are **bitwise identical at any
//! `eval_threads >= 1`**. Every component's RNG stream is a pure function
//! of `(cfg.seed, component index)`, cross-component messages carry
//! arrival times fixed by the sending component, and merges walk
//! components in index order — so the thread count can only change wall
//! time, never a bit of the prediction. Programs that condense to a
//! single component (and programs the analysis declines, e.g. any
//! collective) take the unrestricted engine path with `cfg.seed` itself,
//! which is bit-for-bit the serial evaluation.
//!
//! Graph construction runs the directive program *abstractly*: control
//! flow in the directive language is time-independent (expressions read
//! parameters and loop variables, never clocks), so endpoints can be
//! enumerated without evaluating timing. Loop bodies whose
//! endpoint-relevant expressions don't reference the induction variable
//! are walked once; anything the analysis cannot bound (step cap,
//! expression errors the real run would also hit) falls back to the
//! serial path rather than guessing.

use crate::lower::{LExpr, LStmt, Lowered, Program};
use crate::model::{Model, MsgKind};
use crate::replicate::{self, JobError};
use crate::timing::TimingModel;
use crate::vm::{self, EvalConfig, PevpmError, Prediction};
use std::collections::BTreeSet;

/// Per-process directive cap for the abstract graph walk. Expansion of a
/// variable-endpoint loop costs one unit per iteration; beyond the cap
/// the analysis falls back to the serial engine instead of spinning.
const ANALYSIS_STEP_CAP: u64 = 1 << 18;

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
    let program = Program::lower(model, cfg.const_fold);
    let setup = vm::prepare(&program, cfg)?;
    Ok(match analyze(&setup, cfg) {
        Decision::Fallback(reason) => DagPlan {
            components: 1,
            edges: 0,
            fallback: Some(reason.to_string()),
        },
        Decision::Single => DagPlan {
            components: 1,
            edges: 0,
            fallback: None,
        },
        Decision::Dag(a) => DagPlan {
            components: a.components.len(),
            edges: a.edges.len(),
            fallback: None,
        },
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

enum Decision {
    /// The analysis declined (collective, step cap, abstract-eval error);
    /// run the serial engine, which reproduces any real error exactly.
    Fallback(&'static str),
    /// Everything condensed into one component: the serial engine *is*
    /// the component run.
    Single,
    /// A genuine multi-component DAG.
    Dag(Analysis),
}

struct Analysis {
    /// Component id of each rank; components are numbered by ascending
    /// minimum rank.
    comp_of: Vec<usize>,
    /// Member ranks per component, ascending.
    components: Vec<Vec<usize>>,
    /// Condensed DAG edges `(from component, to component)`, sorted,
    /// deduplicated.
    edges: Vec<(usize, usize)>,
}

enum Bail {
    /// A collective joins every rank: one component by construction.
    Collective,
    /// Step cap or an expression error — decline, don't guess.
    Decline(&'static str),
}

/// Abstract walk of one rank's directive chain, collecting message edges.
struct Tracer<'a> {
    lowered: &'a Lowered,
    env: Vec<Option<f64>>,
    p: usize,
    nprocs: usize,
    steps: u64,
    /// Directed edges out of every rank (dedup via set).
    adj: &'a mut Vec<BTreeSet<usize>>,
    /// Static senders per destination rank, for the wildcard pass.
    senders_to: &'a mut Vec<BTreeSet<usize>>,
    /// Ranks that execute at least one wildcard receive.
    wildcards: &'a mut BTreeSet<usize>,
}

impl Tracer<'_> {
    fn bump(&mut self) -> Result<(), Bail> {
        self.steps += 1;
        if self.steps > ANALYSIS_STEP_CAP {
            return Err(Bail::Decline("analysis step cap exceeded"));
        }
        Ok(())
    }

    fn walk(&mut self, stmts: &[LStmt]) -> Result<(), Bail> {
        let names = &self.lowered.names;
        for stmt in stmts {
            self.bump()?;
            match stmt {
                LStmt::Serial { .. } | LStmt::Wait { .. } => {}
                LStmt::Loop { count, var, body } => {
                    let n = count
                        .expr
                        .eval_usize(&self.env, names)
                        .map_err(|_| Bail::Decline("abstract evaluation failed"))?
                        as u64;
                    if n == 0 || body.is_empty() {
                        continue;
                    }
                    match var {
                        Some(slot) if block_references(body, *slot) => {
                            // Endpoint-relevant expressions read the
                            // induction variable: expand every iteration.
                            for i in 0..n {
                                self.env[*slot as usize] = Some(i as f64);
                                self.walk(body)?;
                            }
                            self.env[*slot as usize] = None;
                        }
                        Some(slot) => {
                            // Iteration-invariant endpoints: one pass
                            // covers the whole loop.
                            self.env[*slot as usize] = Some(0.0);
                            self.walk(body)?;
                            self.env[*slot as usize] = None;
                        }
                        None => self.walk(body)?,
                    }
                }
                LStmt::Runon { branches } => {
                    for (cond, body) in branches {
                        if cond
                            .expr
                            .eval_bool(&self.env, names)
                            .map_err(|_| Bail::Decline("abstract evaluation failed"))?
                        {
                            self.walk(body)?;
                            break;
                        }
                    }
                }
                LStmt::Message {
                    kind,
                    size,
                    from,
                    to,
                    ..
                } => self.message(*kind, &size.expr, &from.expr, &to.expr)?,
                LStmt::Collective { .. } => return Err(Bail::Collective),
            }
        }
        Ok(())
    }

    /// Mirror the VM's endpoint evaluation; anything the VM would reject
    /// as `BadModel` declines the analysis, so the serial path reproduces
    /// the real error.
    fn message(
        &mut self,
        kind: MsgKind,
        size: &LExpr,
        from: &LExpr,
        to: &LExpr,
    ) -> Result<(), Bail> {
        let names = &self.lowered.names;
        let bad = |_| Bail::Decline("abstract evaluation failed");
        let from_raw = from.eval(&self.env, names).map_err(bad)?;
        let wildcard = from_raw < -0.5 && kind == MsgKind::Recv;
        let from_v = if wildcard {
            0
        } else if !from_raw.is_finite() || from_raw < -0.5 {
            return Err(Bail::Decline("abstract evaluation failed"));
        } else {
            from_raw.round() as usize
        };
        let to_v = to.eval_usize(&self.env, names).map_err(bad)?;
        if (!wildcard && from_v >= self.nprocs) || to_v >= self.nprocs {
            return Err(Bail::Decline("message endpoint out of range"));
        }
        match kind {
            MsgKind::Send | MsgKind::Isend => {
                if from_v != self.p {
                    return Err(Bail::Decline("send executed by a foreign rank"));
                }
                let size_v = size.eval(&self.env, names).map_err(bad)?;
                self.adj[self.p].insert(to_v);
                self.senders_to[to_v].insert(self.p);
                // A rendezvous send blocks until the receiver matches:
                // the dependency runs both ways.
                if kind == MsgKind::Send && size_v >= vm::RNDV_THRESHOLD_BYTES {
                    self.adj[to_v].insert(self.p);
                }
            }
            MsgKind::Recv | MsgKind::Irecv => {
                if to_v != self.p {
                    return Err(Bail::Decline("recv executed by a foreign rank"));
                }
                if kind == MsgKind::Irecv && wildcard {
                    return Err(Bail::Decline("wildcard irecv"));
                }
                if wildcard {
                    self.wildcards.insert(self.p);
                } else {
                    // A blocking (or waited-on) receive makes p's clock
                    // depend on the sender's send times.
                    self.adj[from_v].insert(self.p);
                }
            }
        }
        Ok(())
    }
}

/// Does any endpoint-relevant expression in `stmts` read loop-variable
/// `slot`? Relevant: message endpoints and sizes (size picks rendezvous
/// semantics), runon conditions, nested loop counts. Serial times and
/// wait handles can't change the edge set.
fn block_references(stmts: &[LStmt], slot: u32) -> bool {
    stmts.iter().any(|s| match s {
        LStmt::Serial { .. } | LStmt::Wait { .. } => false,
        LStmt::Collective { .. } => false,
        LStmt::Loop { count, body, .. } => {
            count.expr.references(slot) || block_references(body, slot)
        }
        LStmt::Runon { branches } => branches
            .iter()
            .any(|(c, b)| c.expr.references(slot) || block_references(b, slot)),
        LStmt::Message { size, from, to, .. } => {
            [from, to, size].iter().any(|e| e.expr.references(slot))
        }
    })
}

/// Iterative Tarjan SCC over `adj`; returns an arbitrary component id per
/// node (renumbered by the caller).
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: u32 = u32::MAX;
    let n = adj.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![usize::MAX; n];
    let mut next_index = 0u32;
    let mut ncomp = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));

        while let Some(&(v, child)) = call.last() {
            if child < adj[v].len() {
                call.last_mut().expect("non-empty").1 += 1;
                let w = adj[v][child];
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    comp_of
}

fn analyze(setup: &vm::EvalSetup<'_>, cfg: &EvalConfig) -> Decision {
    let n = cfg.nprocs;
    if n <= 1 {
        return Decision::Single;
    }
    let lowered = setup.lowered;
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut senders_to: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut wildcards: BTreeSet<usize> = BTreeSet::new();
    for p in 0..n {
        let mut env = setup.base.clone();
        env[lowered.procnum as usize] = Some(p as f64);
        let mut tracer = Tracer {
            lowered,
            env,
            p,
            nprocs: n,
            steps: 0,
            adj: &mut adj,
            senders_to: &mut senders_to,
            wildcards: &mut wildcards,
        };
        match tracer.walk(&lowered.stmts) {
            Ok(()) => {}
            Err(Bail::Collective) => return Decision::Single,
            Err(Bail::Decline(reason)) => return Decision::Fallback(reason),
        }
    }
    // A wildcard receive races every static sender to that rank: the race
    // must be resolved inside one component, so the edges run both ways.
    for &r in &wildcards {
        let senders: Vec<usize> = senders_to[r].iter().copied().collect();
        for s in senders {
            adj[s].insert(r);
            adj[r].insert(s);
        }
    }

    let adj_vec: Vec<Vec<usize>> = adj.iter().map(|s| s.iter().copied().collect()).collect();
    let raw = tarjan(&adj_vec);

    // Renumber components by ascending minimum member rank, so component
    // indices (and hence seeds and merge order) are canonical.
    let ncomp = raw.iter().map(|&c| c + 1).max().unwrap_or(0);
    if ncomp <= 1 {
        return Decision::Single;
    }
    let mut first_rank = vec![usize::MAX; ncomp];
    for p in 0..n {
        first_rank[raw[p]] = first_rank[raw[p]].min(p);
    }
    let mut order: Vec<usize> = (0..ncomp).collect();
    order.sort_by_key(|&c| first_rank[c]);
    let mut renum = vec![0usize; ncomp];
    for (new_id, &old_id) in order.iter().enumerate() {
        renum[old_id] = new_id;
    }
    let comp_of: Vec<usize> = raw.iter().map(|&c| renum[c]).collect();
    let mut components: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for p in 0..n {
        components[comp_of[p]].push(p);
    }
    let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (p, outs) in adj_vec.iter().enumerate() {
        for &q in outs {
            let (a, b) = (comp_of[p], comp_of[q]);
            if a != b {
                edge_set.insert((a, b));
            }
        }
    }
    Decision::Dag(Analysis {
        comp_of,
        components,
        edges: edge_set.into_iter().collect(),
    })
}

/// Evaluate via the DAG scheduler. Entry point for
/// [`Program::evaluate`] when `cfg.eval_threads >= 1`.
pub(crate) fn evaluate_dag(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
) -> Result<Prediction, PevpmError> {
    let setup = vm::prepare(program, cfg)?;
    let analysis = match analyze(&setup, cfg) {
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
        loss: vec![0.0; setup.lowered.labels.len()],
        loss_touched: vec![false; setup.lowered.labels.len()],
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
        for (slot, loss) in outcome.loss.iter().enumerate() {
            merged.loss[slot] += loss;
            merged.loss_touched[slot] |= outcome.loss_touched[slot];
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

    #[test]
    fn tarjan_finds_ring_and_isolated_rank() {
        let adj = vec![vec![1], vec![2], vec![0], vec![]];
        let comp = tarjan(&adj);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn tarjan_handles_chains_and_self_cycles() {
        // 0 → 1, 1 → 1 (self loop), 2 isolated.
        let adj = vec![vec![1], vec![1], vec![]];
        let comp = tarjan(&adj);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[2]);
    }
}
