//! What the engine runs in, apart from its hot loop: the metric handles
//! and tallies, the [`Tables`] of one evaluation and the [`Scratch`] that
//! keeps them between evaluations, and the machine's construction from
//! them and teardown into them.

use super::{finish_with, EvalSetup, Frame, Halt, Lane, Proc, Vm, VmOutcome};
use crate::lower::{Lowered, Memo};
use crate::scoreboard::{recycle, Handle, PairFifo, PairId, Slab};
use crate::timing::{ResolveMemo, TimingModel};
use crate::vm::msg::{MsgLanes, SbMsg};
use crate::vm::{EvalConfig, LossByLabel, PevpmError, Prediction};
use crate::Program;
use pevpm_obs::{Counter, FixedHistogram, Registry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Bin count / range of the engine's contention histograms: contention
/// levels are scoreboard populations, integers that rarely exceed a few
/// hundred; one bin per level up to 256 (clamped above).
const CONTENTION_BINS: usize = 256;

/// The engine's metric handles, under fixed names only (`vm.*` in
/// DESIGN.md), resolved once per registry ([`Registry::handles`]).
pub(super) struct VmHandles {
    sweep_phases: Arc<Counter>,
    match_phases: Arc<Counter>,
    contention: Arc<FixedHistogram>,
    occupancy: Arc<FixedHistogram>,
    pub(super) evaluations: Arc<Counter>,
    pub(super) steps: Arc<Counter>,
    pub(super) messages: Arc<Counter>,
    pub(super) races: Arc<Counter>,
    pub(super) sb_peak: Arc<FixedHistogram>,
}

impl VmHandles {
    pub(super) fn resolve(registry: &Registry) -> VmHandles {
        let levels = |name| registry.histogram(name, 0.0, CONTENTION_BINS as f64, CONTENTION_BINS);
        VmHandles {
            sweep_phases: registry.counter("vm.sweep_phases"),
            match_phases: registry.counter("vm.match_phases"),
            contention: levels("vm.contention_at_injection"),
            occupancy: levels("vm.scoreboard_occupancy"),
            evaluations: registry.counter("vm.evaluations"),
            steps: registry.counter("vm.steps"),
            messages: registry.counter("vm.messages"),
            races: registry.counter("vm.races"),
            sb_peak: levels("vm.sb_peak"),
        }
    }
}

/// Per-event metrics of one lane group, tallied locally and added to the
/// registry when the group is done: each event then counts once per lane,
/// exactly what that many separate evaluations would have recorded, and a
/// group that stands down leaves no trace for its re-run to double.
pub(super) struct VmMetrics {
    handles: Arc<VmHandles>,
    lanes: u64,
    pub(super) sweeps: u64,
    pub(super) matches: u64,
    /// Events per integer scoreboard population.
    pub(super) contention_at: Vec<u64>,
    pub(super) occupancy_at: Vec<u64>,
    /// Whether dropping the tally records it. A single lane always records
    /// (even the part-way counts of an evaluation that panics, as before);
    /// a wider group only once it has run to a result or a failure of its
    /// own.
    pub(super) record_on_drop: bool,
}

impl VmMetrics {
    /// Tallies for `lanes` lanes, kept in `contention_at` and
    /// `occupancy_at` (emptied first).
    fn resolve(
        registry: &Registry,
        lanes: usize,
        mut contention_at: Vec<u64>,
        mut occupancy_at: Vec<u64>,
    ) -> VmMetrics {
        contention_at.clear();
        occupancy_at.clear();
        VmMetrics {
            handles: registry.handles(VmHandles::resolve),
            lanes: lanes as u64,
            sweeps: 0,
            matches: 0,
            contention_at,
            occupancy_at,
            record_on_drop: lanes == 1,
        }
    }

    pub(super) fn tally(levels: &mut Vec<u64>, population: usize) {
        if population >= levels.len() {
            levels.resize(population + 1, 0);
        }
        levels[population] += 1;
    }

    /// Record the tally now, if it is to be recorded at all, and hand back
    /// its two buffers.
    fn into_tallies(mut self) -> (Vec<u64>, Vec<u64>) {
        self.record();
        (
            std::mem::take(&mut self.contention_at),
            std::mem::take(&mut self.occupancy_at),
        )
    }

    /// Add the tally to the registry, once.
    fn record(&mut self) {
        if !std::mem::take(&mut self.record_on_drop) {
            return;
        }
        let handles = &self.handles;
        handles.sweep_phases.add(self.sweeps * self.lanes);
        handles.match_phases.add(self.matches * self.lanes);
        for (hist, levels) in [
            (&handles.contention, &self.contention_at),
            (&handles.occupancy, &self.occupancy_at),
        ] {
            for (population, &n) in levels.iter().enumerate() {
                if n > 0 {
                    hist.record_n(population as f64, n * self.lanes);
                }
            }
        }
    }
}

impl Drop for VmMetrics {
    fn drop(&mut self) {
        self.record();
    }
}

/// The tables one evaluation runs in: the per-process rows, the
/// scoreboard and its pair index, the resolution memo, the loss
/// accumulators and the metric tallies. [`Vm::new`] empties and sizes
/// them and [`Vm::into_tables`] gives them back, so a [`Scratch`] that
/// keeps them from one evaluation to the next allocates none of them once
/// warm. What each holds is documented on [`Vm`].
pub(super) struct Tables<'m, const W: usize> {
    procs: Vec<Proc<W>>,
    env: Vec<Option<f64>>,
    frames: Vec<Frame<'m>>,
    handles: Vec<Option<(usize, PairId, u64)>>,
    resolved: ResolveMemo<'m>,
    expr_memo: Vec<Memo>,
    scoreboard: Slab<SbMsg, MsgLanes<'m, W>>,
    fifo: PairFifo,
    fresh: Vec<Handle>,
    loss: Vec<Option<[f64; W]>>,
    races: Vec<Race>,
    contention_at: Vec<u64>,
    occupancy_at: Vec<u64>,
}

impl<const W: usize> Default for Tables<'_, W> {
    fn default() -> Self {
        Tables {
            procs: Vec::new(),
            env: Vec::new(),
            frames: Vec::new(),
            handles: Vec::new(),
            resolved: Vec::new(),
            expr_memo: Vec::new(),
            scoreboard: Slab::new(),
            fifo: PairFifo::new(0),
            fresh: Vec::new(),
            loss: Vec::new(),
            races: Vec::new(),
            contention_at: Vec::new(),
            occupancy_at: Vec::new(),
        }
    }
}

impl<const W: usize> Tables<'_, W> {
    /// The tables, emptied of everything that borrows the last
    /// evaluation's program and timing model, for the next one.
    fn recycle<'n>(self) -> Tables<'n, W> {
        Tables {
            frames: recycle(self.frames),
            resolved: recycle(self.resolved),
            scoreboard: self.scoreboard.recycle(),
            procs: self.procs,
            env: self.env,
            handles: self.handles,
            expr_memo: self.expr_memo,
            fifo: self.fifo,
            fresh: self.fresh,
            loss: self.loss,
            races: self.races,
            contention_at: self.contention_at,
            occupancy_at: self.occupancy_at,
        }
    }
}

/// An evaluation's working tables, kept between evaluations: the owner of
/// one — a daemon connection worker, say — evaluates through it with
/// [`Program::evaluate_in`], and once warm an evaluation allocates only
/// the [`Prediction`] it returns. Every evaluation starts from emptied
/// tables, so what one leaves behind cannot reach the next: a scratch
/// answers exactly as a fresh [`Program::evaluate`] does.
#[derive(Default)]
pub struct Scratch {
    tables: Tables<'static, 1>,
    /// The bound parameter slots every process starts from.
    base: Vec<Option<f64>>,
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").finish_non_exhaustive()
    }
}

/// A wildcard receive by `proc` (its directive's label slot `label`) that
/// had `candidates` messages to choose from and matched `sender`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Race {
    pub(super) proc: usize,
    pub(super) label: Option<u32>,
    pub(super) candidates: usize,
    pub(super) sender: usize,
}

impl Race {
    fn describe(&self, lowered: &Lowered) -> String {
        let label = lowered
            .label(self.label)
            .unwrap_or("<unlabelled wildcard recv>");
        format!(
            "wildcard receive at {label} had {} candidate senders (matched {})",
            self.candidates, self.sender
        )
    }
}

impl Program {
    /// [`Program::evaluate`], run in `scratch`'s tables: the same
    /// prediction, bitwise, and once the scratch is warm the only
    /// allocations are the prediction's own. The DAG scheduler
    /// ([`EvalConfig::eval_threads`] `>= 1`) does not use the scratch.
    pub fn evaluate_in(
        &self,
        scratch: &mut Scratch,
        cfg: &EvalConfig,
        timing: &TimingModel,
    ) -> Result<Prediction, PevpmError> {
        if cfg.eval_threads > 0 {
            return crate::dag::evaluate_dag(self, cfg, timing);
        }
        assert!(cfg.nprocs > 0, "need at least one process");
        let mut base = std::mem::take(&mut scratch.base);
        let lowered = match self.bind_into(&cfg.params, cfg.nprocs, &mut base) {
            Ok(lowered) => lowered,
            Err(e) => {
                scratch.base = base;
                return Err(e.into());
            }
        };
        let setup = EvalSetup { lowered, base };
        let lane = Lane {
            seed: cfg.seed,
            mirror: cfg.mirror,
        };
        let tables = std::mem::take(&mut scratch.tables);
        let mut vm = Vm::new(&setup, cfg, timing, [lane], None, tables);
        let predicted = vm.run().map_err(Halt::into_single).map(|()| {
            let loss = LossByLabel::from_slots(&lowered.labels, |slot| vm.loss[slot].map(|[l]| l));
            finish_with(cfg, vm.outcome(0), loss)
        });
        scratch.tables = vm.into_tables().recycle();
        scratch.base = setup.base;
        predicted
    }
}

// Lane loops walk several `[_; W]` arrays in step; an index says so best.
#[allow(clippy::needless_range_loop)]
impl<'m, const W: usize> Vm<'m, W> {
    /// A machine at the start of an evaluation of `setup` in `tables`,
    /// emptied and sized for it: what it returns is the same whatever the
    /// tables held before.
    pub(super) fn new(
        setup: &EvalSetup<'m>,
        cfg: &'m EvalConfig,
        timing: &'m TimingModel,
        lanes: [Lane; W],
        active: Option<&[bool]>,
        tables: Tables<'m, W>,
    ) -> Self {
        #[cfg(test)]
        crate::vm::tests::poison::check(&lanes);
        let Tables {
            mut procs,
            mut env,
            mut frames,
            mut handles,
            mut resolved,
            mut expr_memo,
            mut scoreboard,
            mut fifo,
            mut fresh,
            mut loss,
            mut races,
            contention_at,
            occupancy_at,
        } = tables;
        let lowered = setup.lowered;
        let nprocs = cfg.nprocs;
        let slots = lowered.names.len();
        env.clear();
        env.reserve(nprocs * slots);
        for p in 0..nprocs {
            env.extend_from_slice(&setup.base);
            env[p * slots + lowered.procnum as usize] = Some(p as f64);
        }
        let unused = Frame {
            stmts: &[],
            idx: 0,
            remaining: 0,
            var: None,
        };
        frames.clear();
        frames.resize(nprocs * lowered.depth, unused);
        procs.clear();
        procs.extend((0..nprocs).map(|p| {
            // Inactive processes never run: no stack — they just read as
            // finished with zero clocks.
            let idle = active.is_some_and(|a| !a[p]);
            if !idle {
                frames[p * lowered.depth] = Frame {
                    stmts: &lowered.stmts,
                    idx: 0,
                    remaining: 1,
                    var: None,
                };
            }
            Proc {
                depth: usize::from(!idle),
                blocked: None,
                finished: idle || lowered.stmts.is_empty(),
                coll_count: 0,
                clock: [0.0; W],
                compute_time: [0.0; W],
                send_time: [0.0; W],
                blocked_time: [0.0; W],
            }
        }));
        handles.clear();
        handles.resize(nprocs * lowered.handles.len(), None);
        resolved.clear();
        expr_memo.clear();
        expr_memo.resize(nprocs * lowered.sites, Memo::default());
        scoreboard.clear();
        fifo.clear(nprocs);
        fresh.clear();
        fresh.reserve(nprocs);
        loss.clear();
        loss.resize(lowered.labels.len(), None);
        races.clear();
        let (metrics, idle_tallies) = match cfg.metrics.as_deref() {
            Some(registry) => (
                Some(VmMetrics::resolve(registry, W, contention_at, occupancy_at)),
                Default::default(),
            ),
            None => (None, (contention_at, occupancy_at)),
        };
        Vm {
            cfg,
            timing,
            lowered,
            procs,
            env,
            frames,
            handles,
            resolved,
            expr_memo,
            sites: lowered.sites,
            scoreboard,
            fifo,
            fresh,
            rng: lanes.map(|lane| SmallRng::seed_from_u64(lane.seed)),
            mirror: lanes.map(|lane| lane.mirror),
            steps: 0,
            started: std::time::Instant::now(),
            sb_peak: 0,
            messages: 0,
            loss,
            races,
            metrics,
            idle_tallies,
            timeline: cfg
                .record_timeline
                .then(|| (0..nprocs).map(|_| Vec::new()).collect()),
        }
    }

    /// Lane `l`'s results, but for its loss accumulators and outgoing
    /// messages (left empty). The first call takes the timeline.
    pub(super) fn outcome(&mut self, l: usize) -> VmOutcome {
        VmOutcome {
            clocks: self.procs.iter().map(|p| p.clock[l]).collect(),
            compute_time: self.procs.iter().map(|p| p.compute_time[l]).collect(),
            send_time: self.procs.iter().map(|p| p.send_time[l]).collect(),
            blocked_time: self.procs.iter().map(|p| p.blocked_time[l]).collect(),
            messages: self.messages,
            steps: self.steps,
            sb_peak: self.sb_peak,
            races: self.race_reports(),
            loss: Vec::new(),
            timeline: self.timeline.take(),
            external: Vec::new(),
        }
    }

    /// `(proc, description)` of each distinct race seen: races repeat (a
    /// receive in a loop races on every lap), and each report is a
    /// `String`, so the repeats go before anything is written.
    fn race_reports(&mut self) -> Vec<(usize, String)> {
        self.races.sort_unstable();
        self.races.dedup();
        let lowered = self.lowered;
        self.races
            .iter()
            .map(|race| (race.proc, race.describe(lowered)))
            .collect()
    }

    /// The machine's tables, its metric tally recorded first.
    pub(super) fn into_tables(self) -> Tables<'m, W> {
        let (contention_at, occupancy_at) = self
            .metrics
            .map_or(self.idle_tallies, VmMetrics::into_tallies);
        Tables {
            procs: self.procs,
            env: self.env,
            frames: self.frames,
            handles: self.handles,
            resolved: self.resolved,
            expr_memo: self.expr_memo,
            scoreboard: self.scoreboard,
            fifo: self.fifo,
            fresh: self.fresh,
            loss: self.loss,
            races: self.races,
            contention_at,
            occupancy_at,
        }
    }
}
