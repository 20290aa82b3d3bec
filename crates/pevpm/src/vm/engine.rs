//! The sweep/match virtual machine of §5, generic over `W` replica lanes
//! (`W == 1` is the scalar engine). The hot loop — `step`, `post_send`,
//! `match_phase`, `draw_u` — and the types it touches live together here,
//! but for the scoreboard's entries (`super::msg`) and what the machine is
//! built from and torn down into: its metric tallies and the tables a
//! [`Scratch`] keeps between evaluations (`tables`).

mod tables;

use super::msg::{MsgLanes, SbMsg};
use super::{
    BudgetAxis, BudgetReport, EvalConfig, LossByLabel, PevpmError, Prediction, SpanKind,
    TimelineSpan, RNDV_THRESHOLD_BYTES,
};
use crate::analyze::{endpoints, Misfit};
use crate::expr::ExprError;
use crate::lower::{LStmt, Lowered, Memo, Program, Strings};
use crate::model::{CollOp, Model, MsgKind};
use crate::scoreboard::{Handle, PairFifo, PairId, Slab};
use crate::timing::{ResolveMemo, TimingModel};
use pevpm_dist::{CellParts, Op};
use rand::rngs::SmallRng;
pub use tables::Scratch;
use tables::{Race, Tables, VmHandles, VmMetrics};

// ------------------------------------------------------------------ VM --

/// Replica lanes of a lock-step group: [`monte_carlo`] evaluates this many
/// replications with one instruction stream (see DESIGN.md "Lock-step
/// lanes"); everything else runs the same engine at a width of one.
pub(super) const LANES: usize = 8;

/// What distinguishes one lane of a group from the next: its RNG seed and
/// whether its draws are mirrored ([`EvalConfig::mirror`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct Lane {
    pub(super) seed: u64,
    pub(super) mirror: bool,
}

/// Why a lane group stopped short of a result.
pub(super) enum Halt {
    /// Something whose outcome can differ between lanes came up (a
    /// wildcard receive, a lane over the virtual-time budget): the group's
    /// replicas are re-run one lane at a time. Never raised at `W == 1`.
    StandDown,
    /// A failure that does not depend on the draws, identical in every
    /// lane.
    Uniform(PevpmError),
    /// A failure every lane hits at the same step but reports with its own
    /// clocks (deadlock, step budget): one error per lane.
    PerLane(Vec<PevpmError>),
}

impl From<PevpmError> for Halt {
    fn from(e: PevpmError) -> Self {
        Halt::Uniform(e)
    }
}

impl From<ExprError> for Halt {
    fn from(e: ExprError) -> Self {
        Halt::Uniform(e.into())
    }
}

/// Why a process is blocked. Labels are slots in [`Lowered::labels`], so
/// blocking and unblocking a process never copies label strings — part of
/// the allocation-free hot-path contract.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// Waiting for message `seq` from `from`, given with the id of its
    /// scoreboard pair; `None` = wildcard source (`from = -1` in the
    /// directive, i.e. MPI_ANY_SOURCE).
    Recv {
        from: Option<(usize, PairId)>,
        seq: u64,
        label: Option<u32>,
    },
    /// Blocking rendezvous send: waiting for scoreboard message `msg` to be
    /// consumed by its receiver. The slab handle stays valid however many
    /// other messages are matched and removed in the meantime.
    SendRndv { msg: Handle, label: Option<u32> },
    /// Waiting at collective instance `instance`.
    Collective {
        op: CollOp,
        size: f64,
        instance: u64,
        label: Option<u32>,
    },
}

impl Block {
    /// What the process waits for, its label read from `labels`.
    fn describe(&self, labels: &Strings) -> String {
        let at = self
            .label()
            .map(|l| format!(" at {}", &labels[l as usize]))
            .unwrap_or_default();
        match self {
            Block::Recv { from, seq, .. } => format!(
                "Recv(from={}, seq={seq}){at}",
                from.map(|(f, _)| f.to_string())
                    .unwrap_or_else(|| "ANY".into()),
            ),
            Block::SendRndv { msg, .. } => format!("Send[rendezvous](msg={msg}){at}"),
            Block::Collective { op, instance, .. } => {
                format!("Collective({op:?}, instance={instance}){at}")
            }
        }
    }

    fn label(&self) -> Option<u32> {
        match self {
            Block::Recv { label, .. }
            | Block::SendRndv { label, .. }
            | Block::Collective { label, .. } => *label,
        }
    }
}

/// One level of the directive interpreter's control stack.
#[derive(Clone, Copy)]
struct Frame<'m> {
    stmts: &'m [LStmt],
    idx: usize,
    /// Remaining iterations of this block (loops re-enter; plain blocks
    /// have 1).
    remaining: u64,
    /// Loop induction variable: `(slot, total_iterations)`. The current
    /// 0-based index is `total - remaining`.
    var: Option<(u32, u64)>,
}

/// One virtual process. Control state (its rows of the [`Vm`]'s
/// environment, frame and handle tables, blocked reason) is
/// seed-independent and shared by the lanes; clocks and time accounts are
/// per lane.
struct Proc<const W: usize> {
    /// Live frames of its control stack (its row of [`Vm::frames`]).
    depth: usize,
    /// Why the process is blocked, and each lane's clock when it blocked.
    blocked: Option<(Block, [f64; W])>,
    finished: bool,
    coll_count: u64,
    clock: [f64; W],
    /// Whether `clock` may have moved since it last passed the sweep's
    /// virtual-time check: set wherever a clock is written (a serial step,
    /// an eager send, a wake-up by the match phase or a collective), so a
    /// clock that has not moved is not checked again.
    moved: bool,
    compute_time: [f64; W],
    send_time: [f64; W],
    blocked_time: [f64; W],
}

impl<const W: usize> Proc<W> {
    /// Set the clock to `wake`, when the match phase unblocks the process.
    fn wake_at(&mut self, wake: [f64; W]) {
        (self.clock, self.moved) = (wake, true);
    }
}

/// The sweep/match engine over `W` replica lanes. Everything that does not
/// depend on the seed — statement decode, expression evaluation, endpoint
/// checks, FIFO matching, blocked/finished state, contention level, step
/// and message counts — is one value executed once; clocks, time accounts,
/// draws, departures, arrivals, loss accumulators and the RNG are `[_; W]`.
/// `W == 1` is the scalar engine.
struct Vm<'m, const W: usize> {
    cfg: &'m EvalConfig,
    timing: &'m TimingModel,
    /// The lowered program, for its name, label and handle tables.
    lowered: &'m Lowered,
    procs: Vec<Proc<W>>,
    /// The per-process tables, one buffer each for the whole evaluation
    /// with a fixed stride per process. `env`: slot environments (a row of
    /// `lowered.names.len()` slots, `None` = unbound; see
    /// [`crate::lower`]). `frames`: control stacks (a row of the program's
    /// static nesting depth, [`Lowered::depth`]). `handles`: outstanding
    /// nonblocking receives (a row of one slot per interned handle:
    /// `(source, its pair, reserved per-pair sequence number)`).
    env: Vec<Option<f64>>,
    frames: Vec<Frame<'m>>,
    handles: Vec<Option<(usize, PairId, u64)>>,
    /// What [`TimingModel::resolve_p2p_memo`] has resolved so far.
    resolved: ResolveMemo<'m>,
    /// One row of `sites` [`Memo`] entries per process, flat: what each
    /// decided statement did the first time the process ran it.
    memo: Vec<Memo>,
    sites: usize,
    /// In-flight messages: a generational slab, so matches remove in O(1)
    /// and rendezvous senders hold stable [`Handle`]s.
    scoreboard: Slab<SbMsg, MsgLanes<'m, W>>,
    /// Per (from, to) sequence counters and FIFO queues over the slab.
    fifo: PairFifo,
    /// Messages posted since the last match phase: the ones whose arrival
    /// it has yet to sample.
    fresh: Vec<Handle>,
    rng: [SmallRng; W],
    /// Mirror the lane's draws (`u → 1 - u`, see [`EvalConfig::mirror`]).
    mirror: [bool; W],
    steps: u64,
    /// Wall-clock start of the evaluation, for a budget report's
    /// `wall_secs`.
    started: std::time::Instant,
    sb_peak: usize,
    messages: u64,
    /// Per-label loss accumulators, indexed by label slot; `None` until
    /// the label sees an attributable event (so the reported map has
    /// exactly the keys the string-keyed version had).
    loss: Vec<Option<[f64; W]>>,
    /// Wildcard races seen, written out as reports by [`Vm::outcome`].
    /// Wildcards are matched by arrival time, so they only ever run at
    /// `W == 1`.
    races: Vec<Race>,
    metrics: Option<VmMetrics>,
    /// The tally buffers of [`Tables`], kept for the next evaluation when
    /// this one records no metrics.
    idle_tallies: (Vec<u64>, Vec<u64>),
    /// Per-proc predicted timelines, when `cfg.record_timeline` (recorded
    /// from lane 0: timelines are only requested at `W == 1`).
    timeline: Option<Vec<Vec<TimelineSpan>>>,
}

/// The shared evaluation prologue: parameters checked and bound over the
/// program's default slots ([`Program::bind`]). The serial engine runs it
/// once per evaluation; the DAG scheduler ([`crate::dag`]) runs it once
/// and shares it across component runs.
pub(crate) struct EvalSetup<'p> {
    pub(crate) lowered: &'p Lowered,
    pub(crate) base: Vec<Option<f64>>,
}

pub(crate) fn prepare<'p>(
    program: &'p Program,
    cfg: &EvalConfig,
) -> Result<EvalSetup<'p>, PevpmError> {
    assert!(cfg.nprocs > 0, "need at least one process");
    let (lowered, base) = program.bind(&cfg.params, cfg.nprocs)?;
    Ok(EvalSetup { lowered, base })
}

/// A message crossing a component boundary in the DAG schedule: posted by
/// a finished upstream component, consumed by a downstream one. Its
/// arrival time is already fixed (sampled in the sender's component), so
/// downstream injection is deterministic and consumes no RNG. Rendezvous
/// sends can never cross a boundary — their sender/receiver edge pair puts
/// both ends in the same SCC — so external messages are always eager.
#[derive(Debug, Clone)]
pub(crate) struct ExternalMsg {
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) size: f64,
    pub(crate) kind: MsgKind,
    pub(crate) arrival: f64,
}

/// Raw per-run results of the sweep/match engine, before race
/// deduplication and report materialisation. The serial path feeds one of
/// these straight to [`finish_prediction`]; the DAG scheduler merges one
/// per component first.
pub(crate) struct VmOutcome {
    pub(crate) clocks: Vec<f64>,
    pub(crate) compute_time: Vec<f64>,
    pub(crate) send_time: Vec<f64>,
    pub(crate) blocked_time: Vec<f64>,
    pub(crate) messages: u64,
    pub(crate) steps: u64,
    pub(crate) sb_peak: usize,
    pub(crate) races: Vec<(usize, String)>,
    /// Loss per label slot; `None` for a label that saw no event.
    pub(crate) loss: Vec<Option<f64>>,
    pub(crate) timeline: Option<Vec<Vec<TimelineSpan>>>,
    /// In-flight messages addressed to inactive processes at run end, in
    /// deterministic (dest, sender, FIFO) order. Always empty for
    /// unrestricted runs.
    pub(crate) external: Vec<ExternalMsg>,
}

/// Run the sweep/match engine over the prepared program at a width of one
/// lane. `active` limits the run to a subset of processes (inactive ones
/// start finished and are never swept); `injected` preloads
/// cross-component messages with fixed arrivals. The unrestricted call —
/// `active: None`, no injections, seed `cfg.seed` — is bit-for-bit the
/// historical serial evaluation.
pub(crate) fn run_lowered(
    setup: &EvalSetup<'_>,
    cfg: &EvalConfig,
    timing: &TimingModel,
    seed: u64,
    active: Option<&[bool]>,
    injected: &[ExternalMsg],
) -> Result<VmOutcome, PevpmError> {
    let lane = Lane {
        seed,
        mirror: cfg.mirror,
    };
    match run_lanes::<1>(setup, cfg, timing, [lane], active, injected) {
        Ok(mut outcomes) => Ok(outcomes.remove(0)),
        Err(halt) => Err(halt.into_single()),
    }
}

impl Halt {
    /// The one lane's error.
    fn into_single(self) -> PevpmError {
        match self {
            Halt::Uniform(e) => e,
            Halt::PerLane(mut errors) => errors.remove(0),
            Halt::StandDown => unreachable!("a single lane has nothing to diverge from"),
        }
    }
}

/// Run the engine over `W` replica lanes in lock step: one outcome per
/// lane, each bitwise what [`run_lowered`] returns for that lane alone.
#[allow(clippy::needless_range_loop)]
pub(super) fn run_lanes<const W: usize>(
    setup: &EvalSetup<'_>,
    cfg: &EvalConfig,
    timing: &TimingModel,
    lanes: [Lane; W],
    active: Option<&[bool]>,
    injected: &[ExternalMsg],
) -> Result<Vec<VmOutcome>, Halt> {
    let mut vm = Vm::new(setup, cfg, timing, lanes, active, Tables::default());
    // Preload cross-component messages. Their sequence numbers come from
    // the sender-side counters, which are otherwise unused here: the
    // senders are inactive in this run.
    for m in injected {
        let h = vm.scoreboard.insert(SbMsg {
            from: m.from,
            size: m.size,
            kind: m.kind,
            sender_blocked: false,
            arrived: true,
        });
        let (_, lanes) = vm.scoreboard.entry_mut(h).expect("just inserted");
        (lanes.depart, lanes.arrival) = ([m.arrival; W], [m.arrival; W]);
        let pair = vm.fifo.id(m.from, m.to);
        vm.fifo.push(pair, h);
    }
    vm.sb_peak = vm.scoreboard.len();
    let ran = vm.run();
    if let Some(metrics) = &mut vm.metrics {
        metrics.record_on_drop = !matches!(ran, Err(Halt::StandDown));
    }
    ran?;

    // Collect sends left addressed to inactive processes: they cross the
    // component boundary. Arrivals not yet sampled get one at the final
    // scoreboard population, replaying the stored draw — the same rule
    // `match_phase` would apply on its next pass.
    let mut external: Vec<Vec<ExternalMsg>> = vec![Vec::new(); W];
    if let Some(active) = active {
        let contention = vm.scoreboard.len() as f64;
        for (from, to, h) in vm.fifo.in_flight() {
            if active[to] {
                continue;
            }
            let (m, lanes) = vm
                .scoreboard
                .entry_mut(h)
                .expect("in-flight handles are live");
            let mut arrival = lanes.arrival;
            if !m.arrived {
                let op = op_for_kind(m.kind);
                let Some(time) = timing.resolve_p2p(op, m.size, contention) else {
                    return Err(PevpmError::MissingTiming { op, size: m.size }.into());
                };
                let transit = time.quantiles(&lanes.u, &mut lanes.parts);
                for l in 0..W {
                    arrival[l] = lanes.depart[l] + transit[l].max(0.0);
                }
            }
            for (l, out) in external.iter_mut().enumerate() {
                out.push(ExternalMsg {
                    from,
                    to,
                    size: m.size,
                    kind: m.kind,
                    arrival: arrival[l],
                });
            }
        }
    }

    Ok(external
        .into_iter()
        .enumerate()
        .map(|(l, external)| VmOutcome {
            loss: vm
                .loss
                .iter()
                .map(|lanes| lanes.map(|lanes| lanes[l]))
                .collect(),
            external,
            ..vm.outcome(l)
        })
        .collect())
}

/// The shared evaluation epilogue: stable race reporting, the loss report
/// in label order, end-of-run registry aggregates, and the [`Prediction`].
pub(crate) fn finish_prediction(
    setup: &EvalSetup<'_>,
    cfg: &EvalConfig,
    outcome: VmOutcome,
) -> Prediction {
    let loss = LossByLabel::from_slots(&setup.lowered.labels, |slot| outcome.loss[slot]);
    finish_with(cfg, outcome, loss)
}

/// [`finish_prediction`] with the loss report already built.
fn finish_with(cfg: &EvalConfig, mut outcome: VmOutcome, loss_by_label: LossByLabel) -> Prediction {
    // Stable race reporting: sorted by (proc, description) and
    // deduplicated, so the vector is identical however replications are
    // scheduled and repeated candidates collapse to one report.
    outcome.races.sort_unstable();
    outcome.races.dedup();

    let finish_times = outcome.clocks;
    let makespan = finish_times.iter().cloned().fold(0.0, f64::max);

    // End-of-run aggregates go to the registry in one pass (cheap, and
    // keeps the per-event hot path down to the phase/histogram hooks).
    // Labels come from the model, so the loss report stays in the
    // prediction: a shared registry gains no name per directive.
    if let Some(registry) = &cfg.metrics {
        let handles = registry.handles(VmHandles::resolve);
        handles.evaluations.inc();
        handles.steps.add(outcome.steps);
        handles.messages.add(outcome.messages);
        handles.races.add(outcome.races.len() as u64);
        handles.sb_peak.record(outcome.sb_peak as f64);
    }

    Prediction {
        nprocs: cfg.nprocs,
        makespan,
        compute_time: outcome.compute_time,
        send_time: outcome.send_time,
        blocked_time: outcome.blocked_time,
        finish_times,
        messages: outcome.messages,
        loss_by_label,
        races: outcome.races,
        steps: outcome.steps,
        sb_peak: outcome.sb_peak,
        timeline: outcome.timeline.unwrap_or_default(),
    }
}

/// Evaluate a model: the public entry point of the PEVPM engine. Lowers
/// the model ([`Program::new`]) and runs [`Program::evaluate`].
pub fn evaluate(
    model: &Model,
    cfg: &EvalConfig,
    timing: &TimingModel,
) -> Result<Prediction, PevpmError> {
    Program::new(model).evaluate(cfg, timing)
}

impl Program {
    /// Evaluate the program once.
    ///
    /// With [`EvalConfig::eval_threads`] `== 0` (the default) this is the
    /// classic serial sweep/match evaluation; `>= 1` routes through the
    /// SCC/DAG component scheduler in [`crate::dag`].
    pub fn evaluate(
        &self,
        cfg: &EvalConfig,
        timing: &TimingModel,
    ) -> Result<Prediction, PevpmError> {
        self.evaluate_in(&mut Scratch::default(), cfg, timing)
    }
}

// Lane loops walk several `[_; W]` arrays in step; an index says so best.
#[allow(clippy::needless_range_loop)]
impl<'m, const W: usize> Vm<'m, W> {
    fn run(&mut self) -> Result<(), Halt> {
        loop {
            let advanced_sweep = self.sweep()?;
            if self.procs.iter().all(|p| p.finished) {
                return Ok(());
            }
            let advanced_match = self.match_phase()?;
            if !advanced_sweep && !advanced_match {
                let blocked = self.blocked_report();
                return Err(Halt::PerLane(
                    (0..W)
                        .map(|l| PevpmError::Deadlock {
                            time: self.latest_clock(l),
                            blocked: blocked.clone(),
                        })
                        .collect(),
                ));
            }
        }
    }

    /// `(procnum, description)` of every blocked process.
    fn blocked_report(&self) -> Vec<(usize, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let (block, _) = p.blocked.as_ref()?;
                Some((i, block.describe(&self.lowered.labels)))
            })
            .collect()
    }

    /// Largest process clock of lane `l`.
    fn latest_clock(&self, l: usize) -> f64 {
        self.procs.iter().map(|p| p.clock[l]).fold(0.0, f64::max)
    }

    /// Build the structured abort report for an exhausted budget axis, one
    /// per lane: partial per-process results plus the deadlock-style
    /// blocked list.
    fn budget_error(&self, axis: BudgetAxis) -> Halt {
        let wall_secs = self.started.elapsed().as_secs_f64();
        let finished: Vec<bool> = self.procs.iter().map(|p| p.finished).collect();
        let blocked = self.blocked_report();
        Halt::PerLane(
            (0..W)
                .map(|l| {
                    PevpmError::Budget(Box::new(BudgetReport {
                        axis,
                        steps: self.steps,
                        virtual_time: self.latest_clock(l),
                        wall_secs,
                        clocks: self.procs.iter().map(|p| p.clock[l]).collect(),
                        finished: finished.clone(),
                        blocked: blocked.clone(),
                    }))
                })
                .collect(),
        )
    }

    /// Record a timeline span for proc `p` (zero-length spans dropped, so
    /// spans tile each process's clock exactly).
    fn record_span(&mut self, p: usize, kind: SpanKind, start: f64, end: f64, label: Option<&str>) {
        if let Some(timeline) = &mut self.timeline {
            if end > start {
                timeline[p].push(TimelineSpan {
                    kind,
                    start,
                    end,
                    label: label.map(str::to_string),
                });
            }
        }
    }

    /// Run every unblocked process to its next decision point. Returns
    /// whether any process executed at least one directive.
    fn sweep(&mut self) -> Result<bool, Halt> {
        if let Some(m) = &mut self.metrics {
            m.sweeps += 1;
        }
        let budget = self.cfg.budget;
        let mut advanced = false;
        for p in 0..self.procs.len() {
            while !self.procs[p].finished && self.procs[p].blocked.is_none() {
                advanced |= self.step(p)?;
                self.steps += 1;
                if self.steps > budget.max_steps {
                    return Err(self.budget_error(BudgetAxis::Steps));
                }
                // A livelocked model (e.g. an unbounded loop of serial
                // work) never deadlocks — the clock axis is what stops it.
                // Lanes cross it at different steps, so a group that sees
                // one do so stands down. A clock that has not moved since
                // it passed passes again.
                let proc = &mut self.procs[p];
                if std::mem::take(&mut proc.moved)
                    && proc
                        .clock
                        .iter()
                        .any(|&clock| clock > budget.max_virtual_secs)
                {
                    if W > 1 {
                        return Err(Halt::StandDown);
                    }
                    return Err(self.budget_error(BudgetAxis::VirtualTime));
                }
            }
        }
        Ok(advanced)
    }

    /// Execute one directive (or control-flow transition) on process `p`.
    /// Returns false only when the process just finished.
    fn step(&mut self, p: usize) -> Result<bool, Halt> {
        let lowered = self.lowered;
        let slots = lowered.names.len();
        let row = p * slots;
        let stack = p * lowered.depth;
        let held = p * lowered.handles.len();
        // Pop exhausted frames / re-enter loops.
        loop {
            let depth = self.procs[p].depth;
            if depth == 0 {
                self.procs[p].finished = true;
                return Ok(false);
            }
            let frame = &mut self.frames[stack + depth - 1];
            if frame.idx < frame.stmts.len() {
                break;
            }
            if frame.remaining > 1 {
                frame.remaining -= 1;
                frame.idx = 0;
                if let Some((slot, total)) = frame.var {
                    let iter = (total - frame.remaining) as f64;
                    // Laps overwrite the binding in place: a slot store,
                    // no hashing, no allocation.
                    self.env[row + slot as usize] = Some(iter);
                }
            } else {
                self.procs[p].depth -= 1;
                if let Some((slot, _)) = frame.var {
                    self.env[row + slot as usize] = None;
                }
            }
        }

        let names = &lowered.names;
        let env = &self.env[row..row + slots];
        let memo = &mut self.memo[p * self.sites..][..self.sites];
        let frame = &mut self.frames[stack + self.procs[p].depth - 1];
        // Copy the `&'m [LStmt]` out of the frame so `stmt` borrows the
        // lowered model, not the frame — labels can then be threaded
        // through as `&'m str` while `self` is mutably borrowed.
        let stmts: &'m [LStmt] = frame.stmts;
        let stmt = &stmts[frame.idx];
        frame.idx += 1;

        match stmt {
            LStmt::Serial { time, label, site } => {
                let t = match Memo::read(memo, *site) {
                    Memo::Value(t) => t,
                    _ => {
                        let t = time.eval(env, names)?;
                        if t < 0.0 {
                            let label = self.lowered.label(*label);
                            return Err(PevpmError::BadModel(format!(
                                "negative serial time {t} at {label:?}"
                            ))
                            .into());
                        }
                        Memo::keep(memo, *site, Memo::Value(t));
                        t
                    }
                };
                let proc = &mut self.procs[p];
                let start = proc.clock[0];
                for l in 0..W {
                    proc.clock[l] += t;
                    proc.compute_time[l] += t;
                }
                proc.moved = true;
                if self.timeline.is_some() {
                    self.record_span(
                        p,
                        SpanKind::Compute,
                        start,
                        start + t,
                        self.lowered.label(*label),
                    );
                }
            }
            LStmt::Loop {
                count,
                var,
                body,
                site,
            } => {
                let n = match Memo::read(memo, *site) {
                    Memo::Count(n) => n,
                    _ => {
                        let n = count.eval_usize(env, names)? as u64;
                        Memo::keep(memo, *site, Memo::Count(n));
                        n
                    }
                };
                if n > 0 && !body.is_empty() {
                    if let Some(slot) = *var {
                        self.env[row + slot as usize] = Some(0.0);
                    }
                    self.push_frame(
                        p,
                        Frame {
                            stmts: body,
                            idx: 0,
                            remaining: n,
                            var: var.map(|slot| (slot, n)),
                        },
                    );
                }
            }
            LStmt::Runon { branches, site } => {
                let taken = match Memo::read(memo, *site) {
                    Memo::Branch(taken) => taken,
                    _ => {
                        let mut taken = branches.len();
                        for (i, (cond, _)) in branches.iter().enumerate() {
                            if cond.eval_bool(env, names)? {
                                taken = i;
                                break;
                            }
                        }
                        Memo::keep(memo, *site, Memo::Branch(taken));
                        taken
                    }
                };
                if let Some((_, body)) = branches.get(taken).filter(|(_, body)| !body.is_empty()) {
                    self.push_frame(
                        p,
                        Frame {
                            stmts: body,
                            idx: 0,
                            remaining: 1,
                            var: None,
                        },
                    );
                }
            }
            LStmt::Wait { handle, label } => {
                let Some((from, pair, seq)) = self.handles[held + *handle as usize].take() else {
                    let handle_name = &self.lowered.handles[*handle as usize];
                    let label = self.lowered.label(*label);
                    return Err(PevpmError::BadModel(format!(
                        "proc {p}: Wait on unbound handle {handle_name:?} at {label:?}"
                    ))
                    .into());
                };
                let clock = self.procs[p].clock;
                self.procs[p].blocked = Some((
                    Block::Recv {
                        from: Some((from, pair)),
                        seq,
                        label: *label,
                    },
                    clock,
                ));
            }
            LStmt::Message {
                kind,
                size,
                from,
                to,
                handle,
                label,
                site,
            } => {
                // `ltext` is the label as the plain optional string the
                // diagnostics print, read only if one is printed.
                let ltext = LabelText(lowered, *label);
                let bad_model = |message: String| Halt::from(PevpmError::BadModel(message));
                // The size, and the peer and the pair between them
                // (`None`: any source).
                let (size_v, peer) = match Memo::read(memo, *site) {
                    Memo::Message { size, peer, pair } => (size, Some((peer, pair))),
                    Memo::AnySource => (0.0, None),
                    _ => {
                        // The endpoints by the one rule (`analyze::endpoints`),
                        // the size evaluated before a broken rule is reported.
                        let from_raw = from.eval(env, names)?;
                        let ends = endpoints(*kind, p, self.cfg.nprocs, from_raw, || {
                            to.eval_usize(env, names)
                        })?;
                        let size_v = size.eval(env, names)?;
                        let ends = ends.map_err(|misfit| {
                            bad_model(match misfit {
                                Misfit::OutOfRange { to } => format!(
                                    "message endpoint out of range: from={from_raw} to={to} \
                                     (numprocs={}) at {ltext:?}",
                                    self.cfg.nprocs
                                ),
                                Misfit::ForeignSend { from } => format!(
                                    "proc {p} executing a send whose from={from} at {ltext:?}"
                                ),
                                Misfit::ForeignRecv { to } if *kind == MsgKind::Irecv => format!(
                                    "proc {p} executing an irecv whose to={to} at {ltext:?}"
                                ),
                                Misfit::ForeignRecv { to } => {
                                    format!("proc {p} executing a recv whose to={to} at {ltext:?}")
                                }
                            })
                        })?;
                        let peer = match (kind, ends.from) {
                            (MsgKind::Send | MsgKind::Isend, _) => {
                                Some((ends.to, self.fifo.id(p, ends.to)))
                            }
                            (_, from_v) => from_v.map(|from_v| (from_v, self.fifo.id(from_v, p))),
                        };
                        let entry = match peer {
                            Some((peer, pair)) => Memo::Message {
                                size: size_v,
                                peer,
                                pair,
                            },
                            None => Memo::AnySource,
                        };
                        Memo::keep(memo, *site, entry);
                        (size_v, peer)
                    }
                };
                match (kind, peer) {
                    (MsgKind::Send | MsgKind::Isend, Some((_, pair))) => {
                        self.post_send(p, *kind, size_v, pair, *label);
                    }
                    (MsgKind::Recv, peer) => {
                        // A wildcard receive takes whichever candidate
                        // arrives first — the one thing in a match that
                        // looks at a lane's times.
                        if peer.is_none() && W > 1 {
                            return Err(Halt::StandDown);
                        }
                        self.block_recv(p, peer, *label);
                    }
                    (MsgKind::Irecv, Some((from_v, pair))) => {
                        let Some(h) = handle else {
                            return Err(bad_model(format!(
                                "MPI_Irecv without a handle at {ltext:?}"
                            )));
                        };
                        let h = *h as usize;
                        if self.handles[held + h].is_some() {
                            let h = &self.lowered.handles[h];
                            return Err(bad_model(format!(
                                "proc {p}: handle {h:?} already outstanding at {ltext:?}"
                            )));
                        }
                        // Reserve the per-pair FIFO slot now (post order),
                        // but don't block: the matching wait is a separate
                        // decision point, and anything executed in between
                        // overlaps the transfer.
                        let seq = self.fifo.reserve(pair);
                        self.handles[held + h] = Some((from_v, pair, seq));
                    }
                    _ => unreachable!("only a Recv takes any source"),
                }
            }
            LStmt::Collective {
                op,
                size,
                label,
                site,
            } => {
                let size_v = match Memo::read(memo, *site) {
                    Memo::Value(size_v) => size_v,
                    _ => {
                        let size_v = size.eval(env, names)?;
                        Memo::keep(memo, *site, Memo::Value(size_v));
                        size_v
                    }
                };
                let inst = self.procs[p].coll_count;
                let clock = self.procs[p].clock;
                self.procs[p].blocked = Some((
                    Block::Collective {
                        op: *op,
                        size: size_v,
                        instance: inst,
                        label: *label,
                    },
                    clock,
                ));
            }
        }
        Ok(true)
    }

    /// Block process `p` in a receive from `from` (the source and its
    /// pair; `None`: any source), reserving the pair's next sequence number.
    fn block_recv(&mut self, p: usize, from: Option<(usize, PairId)>, label: Option<u32>) {
        let seq = from.map_or(0, |(_, pair)| self.fifo.reserve(pair));
        self.procs[p].blocked = Some((Block::Recv { from, seq, label }, self.procs[p].clock));
    }

    /// Push a frame onto process `p`'s control stack, which the program's
    /// static nesting depth bounds.
    fn push_frame(&mut self, p: usize, frame: Frame<'m>) {
        let depth = &mut self.procs[p].depth;
        self.frames[p * self.lowered.depth + *depth] = frame;
        *depth += 1;
    }

    /// The generator lane `l` draws from: its own.
    #[cfg(not(feature = "divergence-injection"))]
    #[inline]
    fn rng_lane(l: usize) -> usize {
        l
    }

    /// Divergence drill hook (compile-time, like the DAG seed rotation): a
    /// lane-index slip — the last lane of a group reads lane 0's generator
    /// — which the lanes-vs-scalar oracle must catch in both lanes.
    #[cfg(feature = "divergence-injection")]
    fn rng_lane(l: usize) -> usize {
        if W > 1 && l == W - 1 {
            0
        } else {
            l
        }
    }

    /// Lane `l`'s next Monte-Carlo probability coordinate. Every quantile
    /// lookup in the engine draws through here so that an antithetic
    /// replica ([`EvalConfig::mirror`]) sees exactly the mirrored stream
    /// `u → 1 - u` of its paired replica — same draw count, same order.
    /// `comm_time(…, rng)` ≡ `quantile_time(…, rng.gen())`, so routing
    /// draws through this helper is bitwise neutral when not mirrored.
    #[inline]
    fn draw_u(&mut self, l: usize) -> f64 {
        let u: f64 = rand::Rng::gen(&mut self.rng[Self::rng_lane(l)]);
        if self.mirror[l] {
            1.0 - u
        } else {
            u
        }
    }

    fn post_send(&mut self, p: usize, kind: MsgKind, size: f64, pair: PairId, label: Option<u32>) {
        self.messages += 1;
        let rndv = kind == MsgKind::Send && size >= RNDV_THRESHOLD_BYTES;
        let population = self.scoreboard.len() + 1;
        if let Some(m) = &mut self.metrics {
            VmMetrics::tally(&mut m.contention_at, population);
        }
        // One Monte-Carlo draw per message and lane: the sender-side cost
        // uses the same probability coordinate as the transit time will at
        // match time, so correlated (e.g. intra- vs inter-node) path modes
        // stay correlated. The sender occupies its NIC for a *path-mode*
        // dependent time but not for the downstream congestion the full
        // sample includes, so the cost blends the distribution minimum
        // with the correlated quantile (calibrated weight 0.4). The table
        // lookup is the lanes' common part; a table without data for the
        // message costs the sender nothing here and fails the match phase.
        let time =
            self.timing
                .resolve_p2p_memo(&mut self.resolved, op_for_kind(kind), size, population);
        let u: [f64; W] = std::array::from_fn(|l| self.draw_u(l));
        let depart = self.procs[p].clock;
        let msg = self.scoreboard.insert(SbMsg {
            from: p,
            size,
            kind,
            sender_blocked: rndv,
            arrived: false,
        });
        // Lanes are written where they lie, and inverted into in place; a
        // reused slot still holds its last message's inversions.
        let (_, lanes) = self.scoreboard.entry_mut(msg).expect("just inserted");
        (lanes.depart, lanes.u) = (depart, u);
        lanes.parts.clear();
        let mut local = [0.0; W];
        if let Some(time) = &time {
            let floor = time.floor();
            let full = time.quantiles(&lanes.u, &mut lanes.parts);
            for l in 0..W {
                local[l] = TimingModel::SENDER_SHARE * (floor + 0.4 * (full[l] - floor));
            }
        }
        self.fifo.push(pair, msg);
        self.fresh.push(msg);
        self.sb_peak = self.sb_peak.max(self.scoreboard.len());
        if rndv {
            self.procs[p].blocked = Some((Block::SendRndv { msg, label }, depart));
        } else {
            let proc = &mut self.procs[p];
            for l in 0..W {
                proc.clock[l] += local[l];
                proc.send_time[l] += local[l];
            }
            proc.moved = true;
            // Send-side costs are part of the loss report too.
            if let Some(l) = label {
                self.add_loss(l, local);
            }
            if self.timeline.is_some() {
                self.record_span(
                    p,
                    SpanKind::Send,
                    depart[0],
                    depart[0] + local[0],
                    self.lowered.label(label),
                );
            }
        }
    }

    /// Determine arrival times, match messages to receives, resolve
    /// collectives. Returns whether any process was unblocked.
    fn match_phase(&mut self) -> Result<bool, Halt> {
        // 1. Determine arrival times for newly posted messages at the
        //    current contention level (scoreboard population), using each
        //    message's own Monte-Carlo draws.
        let population = self.scoreboard.len();
        if let Some(m) = &mut self.metrics {
            m.matches += 1;
            VmMetrics::tally(&mut m.occupancy_at, population);
        }
        // No RNG is consumed here — each message replays its stored draws
        // `u` — so the order of the list cannot perturb the draw sequence.
        for h in self.fresh.drain(..) {
            let (m, lanes) = self.scoreboard.entry_mut(h).expect("only a match removes");
            let op = op_for_kind(m.kind);
            let Some(time) =
                self.timing
                    .resolve_p2p_memo(&mut self.resolved, op, m.size, population)
            else {
                return Err(PevpmError::MissingTiming { op, size: m.size }.into());
            };
            let transit = time.quantiles(&lanes.u, &mut lanes.parts);
            for l in 0..W {
                lanes.arrival[l] = lanes.depart[l] + transit[l].max(0.0);
            }
            m.arrived = true;
        }

        let mut woke = false;

        // 2. Match blocked receives in per-pair FIFO order — a directed
        //    receive names its message by sequence number and never looks
        //    at an arrival time, so the match is the same in every lane.
        //    Wildcard receives take the FIFO-head message with the
        //    earliest arrival across all senders.
        for p in 0..self.procs.len() {
            let Some((Block::Recv { from, seq, .. }, _)) = self.procs[p].blocked.as_ref() else {
                continue;
            };
            let (from, seq) = (*from, *seq);
            let handle = match from {
                Some((_, pair)) => self.fifo.take(pair, seq),
                None => self.take_wildcard(p),
            };
            let Some(handle) = handle else {
                continue; // no matching message posted yet
            };
            let (_, lanes) = self
                .scoreboard
                .entry(handle)
                .expect("fifo handles are live");
            let mut wake = self.procs[p].clock;
            for l in 0..W {
                wake[l] = wake[l].max(lanes.arrival[l]);
            }
            let msg = self.scoreboard.remove(handle).expect("live above");
            debug_assert!(msg.arrived, "sampled above");
            let sender = msg.from;

            let (block, since) = self.procs[p].blocked.take().unwrap();
            self.account_block(p, &block, since, wake);
            self.procs[p].wake_at(wake);
            woke = true;

            if msg.sender_blocked {
                // Rendezvous: the sender completes when the receiver does.
                if let Some((Block::SendRndv { .. }, s_since)) = self.procs[sender].blocked {
                    let (sblock, _) = self.procs[sender].blocked.take().unwrap();
                    let mut swake = self.procs[sender].clock;
                    for l in 0..W {
                        swake[l] = swake[l].max(wake[l]);
                    }
                    self.account_block(sender, &sblock, s_since, swake);
                    self.procs[sender].wake_at(swake);
                }
            }
        }

        // 3. Resolve collectives once every process waits on the same
        //    instance.
        let all_coll = self
            .procs
            .iter()
            .all(|p| matches!(p.blocked, Some((Block::Collective { .. }, _))) && !p.finished);
        if all_coll && !self.procs.is_empty() {
            let first = match &self.procs[0].blocked {
                Some((
                    Block::Collective {
                        op, size, instance, ..
                    },
                    _,
                )) => (*op, *size, *instance),
                _ => unreachable!(),
            };
            let same = self.procs.iter().all(|p| match &p.blocked {
                Some((
                    Block::Collective {
                        op, size, instance, ..
                    },
                    _,
                )) => (*op, *size, *instance) == first,
                _ => false,
            });
            if same {
                let mut enter_max = [0.0f64; W];
                for proc in &self.procs {
                    let since = proc.blocked.as_ref().unwrap().1;
                    for l in 0..W {
                        enter_max[l] = enter_max[l].max(since[l]);
                    }
                }
                let (op, size, _) = first;
                let dop = op.op();
                let Some(time) = self.timing.resolve(dop, size, self.cfg.nprocs as f64) else {
                    return Err(PevpmError::MissingTiming { op: dop, size }.into());
                };
                for p in 0..self.procs.len() {
                    let (block, since) = self.procs[p].blocked.take().unwrap();
                    let u: [f64; W] = std::array::from_fn(|l| self.draw_u(l));
                    let took = time.quantiles(&u, &mut CellParts::default());
                    let mut wake = [0.0; W];
                    for l in 0..W {
                        wake[l] = enter_max[l] + took[l].max(0.0);
                    }
                    self.account_block(p, &block, since, wake);
                    let proc = &mut self.procs[p];
                    for l in 0..W {
                        proc.clock[l] = proc.clock[l].max(wake[l]);
                    }
                    proc.moved = true;
                    proc.coll_count += 1;
                }
                woke = true;
            }
        }

        Ok(woke)
    }

    /// The message a wildcard receive at `p` takes: per-pair FIFO heads
    /// only, earliest arrival wins (ties broken by sender rank for
    /// determinism). Arrival order is a lane's own, so wildcards only run
    /// at `W == 1` (wider groups stand down when one is posted).
    fn take_wildcard(&mut self, p: usize) -> Option<Handle> {
        debug_assert_eq!(W, 1, "lane groups stand down at a wildcard receive");
        let mut best: Option<(f64, Handle, usize)> = None;
        let mut candidates = 0usize;
        for (sender, h) in self.fifo.heads(p) {
            candidates += 1;
            let (m, lanes) = self.scoreboard.entry(h).expect("fifo handles are live");
            debug_assert!(m.arrived, "sampled by the match phase");
            let a = lanes.arrival[0];
            if best.is_none() || (a, sender) < (best.unwrap().0, best.unwrap().2) {
                best = Some((a, h, sender));
            }
        }
        let (_, h, sender) = best?;
        if candidates > 1 {
            // Multiple in-flight messages could have matched: which one
            // wins depends on timing — a potential race (paper §5).
            self.races.push(Race {
                proc: p,
                label: self.procs[p].blocked.as_ref().and_then(|(b, _)| b.label()),
                candidates,
                sender,
            });
        }
        // Consume this pair's FIFO head.
        let consumed = self.fifo.consume_head(sender, p);
        debug_assert_eq!(consumed, Some(h));
        Some(h)
    }

    /// Attribute `dt` seconds of loss per lane to `label`: an indexed add
    /// on the slot accumulator — no hashing, no allocation.
    fn add_loss(&mut self, label: u32, dt: [f64; W]) {
        let loss = self.loss[label as usize].get_or_insert([0.0; W]);
        for l in 0..W {
            loss[l] += dt[l];
        }
    }

    fn account_block(&mut self, p: usize, block: &Block, since: [f64; W], wake: [f64; W]) {
        let mut dt = [0.0; W];
        for l in 0..W {
            dt[l] = (wake[l] - since[l]).max(0.0);
            self.procs[p].blocked_time[l] += dt[l];
        }
        if let Some(label) = block.label() {
            self.add_loss(label, dt);
        }
        if self.timeline.is_some() && dt[0] > 0.0 {
            let (since, dt) = (since[0], dt[0]);
            match self.lowered.label(block.label()) {
                Some(label) => {
                    self.record_span(p, SpanKind::Blocked, since, since + dt, Some(label))
                }
                None => {
                    let name = block.describe(&self.lowered.labels);
                    self.record_span(p, SpanKind::Blocked, since, since + dt, Some(&name));
                }
            }
        }
    }
}

/// A directive's label as the diagnostics print it (`Some("halo")` or
/// `None`), read from the label table only when it is printed.
struct LabelText<'m>(&'m Lowered, Option<u32>);

impl std::fmt::Debug for LabelText<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.label(self.1).fmt(f)
    }
}

fn op_for_kind(kind: MsgKind) -> Op {
    match kind {
        MsgKind::Send => Op::Send,
        MsgKind::Isend => Op::Isend,
        MsgKind::Recv | MsgKind::Irecv => Op::Recv,
    }
}
