//! The Performance Evaluating Virtual Parallel Machine.
//!
//! Implements the evaluation algorithm of §5: virtual processes execute the
//! directive program in interleaved **sweep** and **match** phases.
//!
//! - *Sweep*: every runnable process executes directives — advancing its
//!   virtual clock through `Serial` segments and posting `Send`/`Isend`
//!   message metadata onto the **contention scoreboard** — until it reaches
//!   a *decision point* (a blocking receive, a rendezvous-size blocking
//!   send, or a collective).
//! - *Match*: every scoreboard message that does not yet have an arrival
//!   time gets one by Monte-Carlo sampling from the timing model, as a
//!   function of its size and the **current scoreboard population** (the
//!   contention level). Arrived messages are matched to blocked receives in
//!   per-pair FIFO order; matched receivers resume at
//!   `max(block time, arrival)`, and matched messages leave the scoreboard.
//!
//! Evaluation alternates phases until every process finishes. If neither
//! phase can make progress the program is deadlocked, and the VM reports
//! which processes are blocked where — the paper's "automatically discover
//! program deadlock" capability. Blocked time is attributed to directive
//! labels, giving the per-source performance-loss report of §5.

use crate::expr::{Env, ExprError};
use crate::lower::{LStmt, Label, Names};
use crate::model::{CollOp, Model, MsgKind};
use crate::scoreboard::{Handle, PairFifo, Slab};
use crate::timing::TimingModel;
use pevpm_dist::Op;
use pevpm_obs::{Counter, FixedHistogram, Registry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Number of virtual processes (`numprocs`).
    pub nprocs: usize,
    /// Extra parameter bindings, overriding the model's defaults.
    pub params: Env,
    /// RNG seed for Monte-Carlo sampling.
    pub seed: u64,
    /// Messages at least this large use blocking-rendezvous semantics for
    /// `Send` (the sender cannot complete before the receiver matches).
    pub rndv_threshold: f64,
    /// Resource limits for one evaluation: a runaway (livelocked or
    /// hostile) model is aborted with a structured
    /// [`PevpmError::Budget`] carrying partial results instead of
    /// spinning forever.
    pub budget: RunBudget,
    /// Replication quorum for [`monte_carlo`]: the prediction completes
    /// (with the failures surfaced in [`McPrediction::failures`]) if at
    /// least this many replications succeed. `None` requires **all**
    /// replications to succeed; the lowest-index failure is then the
    /// error returned, at any thread count.
    pub quorum: Option<usize>,
    /// Worker threads for replicated evaluation ([`monte_carlo`]):
    /// `0` = all available cores, `1` = serial. Results are bitwise
    /// identical at any setting (see [`crate::replicate`]).
    pub threads: usize,
    /// Worker threads for intra-evaluation DAG scheduling
    /// ([`crate::dag`]): `0` (the default) runs the classic serial
    /// sweep/match engine; any value `>= 1` decomposes the program into
    /// SCC components and evaluates independent components concurrently.
    /// Predictions are bitwise identical at every value `>= 1`, and match
    /// the serial engine exactly whenever the program condenses to a
    /// single component (see DESIGN.md). When nested under [`monte_carlo`]
    /// the effective value is capped by the shared
    /// [`crate::replicate::ThreadBudget`].
    pub eval_threads: usize,
    /// Metrics sink. When installed the VM records sweep/match phase
    /// counts, the contention level at every message injection, scoreboard
    /// occupancy, and per-directive loss attribution into it (see the
    /// `vm.*` names in DESIGN.md). `None` (the default) costs one branch
    /// per event.
    pub metrics: Option<Arc<Registry>>,
    /// Record per-process virtual timelines ([`Prediction::timeline`]) for
    /// Chrome-trace export. Off by default: timelines allocate per
    /// directive executed.
    pub record_timeline: bool,
    /// Constant-fold expressions during lowering (the default). Folding is
    /// a pure optimisation, so disabling it must not change any prediction
    /// bit — the differential conformance harness (`pevpm-testkit`) runs
    /// fuzzed programs both ways to enforce exactly that.
    pub const_fold: bool,
    /// Sequential-stopping policy for [`monte_carlo`]. `None` (the
    /// default) runs the fixed replication count passed to `monte_carlo`.
    /// `Some(policy)` runs the same replications in the same seed order —
    /// its runs are a bitwise prefix of the fixed batch — until the
    /// relative Student-t CI half-width on the mean drops below
    /// [`crate::stats::AdaptivePolicy::precision`], bounded by the policy's
    /// `min_reps`/`max_reps`; the fixed `replications` argument is then
    /// ignored. The chosen replication count is itself deterministic for
    /// a given (seed, policy) — see DESIGN.md "Adaptive statistics".
    pub adaptive: Option<crate::stats::AdaptivePolicy>,
    /// Antithetic seed pairing for [`monte_carlo`] (variance reduction):
    /// replicas `2j` and `2j+1` share derived seed `base + j`, with the
    /// odd replica's Monte-Carlo probability draws mirrored (`u → 1 - u`).
    /// Negatively correlated pairs tighten the CI of the mean for
    /// monotone-ish responses at no extra evaluations. Off by default —
    /// it changes the per-replica seed stream, so fixed-reps baselines
    /// only hold with it off.
    pub antithetic: bool,
    /// Mirror every Monte-Carlo probability draw (`u → 1 - u`) in this
    /// evaluation. Set per-replica by [`monte_carlo`] to implement
    /// [`EvalConfig::antithetic`]; not useful to set directly.
    pub mirror: bool,
}

impl EvalConfig {
    /// Defaults for `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        EvalConfig {
            nprocs,
            params: Env::default(),
            seed: 1,
            rndv_threshold: 16.0 * 1024.0,
            budget: RunBudget::default(),
            quorum: None,
            threads: 0,
            eval_threads: 0,
            metrics: None,
            record_timeline: false,
            const_fold: true,
            adaptive: None,
            antithetic: false,
            mirror: false,
        }
    }

    /// Builder: bind a parameter.
    pub fn with_param(mut self, name: &str, value: f64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the replication worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: set the intra-evaluation DAG worker count (`0` = serial
    /// engine, `>= 1` = DAG scheduler; see [`EvalConfig::eval_threads`]).
    pub fn with_eval_threads(mut self, eval_threads: usize) -> Self {
        self.eval_threads = eval_threads;
        self
    }

    /// Builder: install a metrics registry.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Builder: record per-process timelines.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Builder: set the evaluation budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder: set the replication quorum (`k` of n must succeed).
    pub fn with_quorum(mut self, k: usize) -> Self {
        self.quorum = Some(k);
        self
    }

    /// Builder: disable constant folding in the lowering pass (a
    /// differential-testing hook; see [`EvalConfig::const_fold`]).
    pub fn without_const_fold(mut self) -> Self {
        self.const_fold = false;
        self
    }

    /// Builder: enable adaptive sequential stopping for [`monte_carlo`]
    /// (see [`EvalConfig::adaptive`]).
    pub fn with_adaptive(mut self, policy: crate::stats::AdaptivePolicy) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Builder: enable antithetic seed pairing for [`monte_carlo`] (see
    /// [`EvalConfig::antithetic`]).
    pub fn with_antithetic(mut self) -> Self {
        self.antithetic = true;
        self
    }
}

/// Resource limits for a single evaluation.
///
/// The defaults keep the historical safety valve (500 M directive
/// executions) and leave the time axes unlimited. Note that a *wall*-time
/// limit makes failure timing-dependent (results of successful runs stay
/// bitwise deterministic; whether a borderline run fails may vary) — use
/// the step or virtual-time axes when reproducible aborts matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunBudget {
    /// Maximum directive executions per evaluation.
    pub max_steps: u64,
    /// Maximum virtual time any process clock may reach, seconds.
    pub max_virtual_secs: f64,
    /// Maximum wall-clock seconds per evaluation (checked every 64 Ki
    /// steps).
    pub max_wall_secs: f64,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_steps: 500_000_000,
            max_virtual_secs: f64::INFINITY,
            max_wall_secs: f64::INFINITY,
        }
    }
}

impl RunBudget {
    /// Builder: cap directive executions.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Builder: cap virtual time.
    pub fn with_max_virtual_secs(mut self, secs: f64) -> Self {
        self.max_virtual_secs = secs;
        self
    }

    /// Builder: cap wall-clock time.
    pub fn with_max_wall_secs(mut self, secs: f64) -> Self {
        self.max_wall_secs = secs;
        self
    }
}

/// Which [`RunBudget`] axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetAxis {
    /// `max_steps`.
    Steps,
    /// `max_virtual_secs`.
    VirtualTime,
    /// `max_wall_secs`.
    WallTime,
}

impl BudgetAxis {
    /// Human-readable axis name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetAxis::Steps => "step limit",
            BudgetAxis::VirtualTime => "virtual-time limit",
            BudgetAxis::WallTime => "wall-time limit",
        }
    }
}

/// Diagnostic report attached to [`PevpmError::Budget`]: where the
/// evaluation was when the budget fired, in the same shape as the
/// deadlock report, plus the partial per-process results.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// The exhausted axis.
    pub axis: BudgetAxis,
    /// Directive executions performed.
    pub steps: u64,
    /// Largest process clock at abort, seconds.
    pub virtual_time: f64,
    /// Wall-clock seconds elapsed in the evaluation.
    pub wall_secs: f64,
    /// Partial result: each process's virtual clock at abort.
    pub clocks: Vec<f64>,
    /// Partial result: which processes had already finished.
    pub finished: Vec<bool>,
    /// Deadlock-style diagnostic: `(procnum, description)` of every
    /// process blocked at abort (a livelocked model typically has none —
    /// that is what distinguishes it from a deadlock).
    pub blocked: Vec<(usize, String)>,
}

impl std::fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.finished.iter().filter(|&&x| x).count();
        write!(
            f,
            "evaluation budget exceeded ({}) at t={:.6}s after {} steps ({:.3}s wall): {}/{} procs finished",
            self.axis.name(),
            self.virtual_time,
            self.steps,
            self.wall_secs,
            done,
            self.finished.len()
        )?;
        for (p, d) in &self.blocked {
            write!(f, " [proc {p}: {d}]")?;
        }
        Ok(())
    }
}

/// What a [`TimelineSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Serial` directive computation.
    Compute,
    /// Local (sender-side) cost of an eager send.
    Send,
    /// Blocked in a receive, rendezvous send or collective.
    Blocked,
}

impl SpanKind {
    /// Lower-case category name (Chrome-trace `cat`).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Blocked => "blocked",
        }
    }
}

/// One span of a virtual process's predicted timeline. Spans tile each
/// process's clock exactly: the durations of a process's spans sum to its
/// finish time (zero-length spans are dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSpan {
    /// What the process was doing.
    pub kind: SpanKind,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds), `>= start`.
    pub end: f64,
    /// Directive label, when the directive carried one.
    pub label: Option<String>,
}

/// The result of one PEVPM evaluation.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Number of processes evaluated.
    pub nprocs: usize,
    /// Predicted finish time of each process (seconds).
    pub finish_times: Vec<f64>,
    /// Predicted program completion time: max of the finish times.
    pub makespan: f64,
    /// Time each process spent in `Serial` computation.
    pub compute_time: Vec<f64>,
    /// Time each process spent in local send costs.
    pub send_time: Vec<f64>,
    /// Time each process spent blocked in receives / rendezvous sends /
    /// collectives.
    pub blocked_time: Vec<f64>,
    /// Total messages posted to the scoreboard.
    pub messages: u64,
    /// Blocked time attributed to directive labels (the performance-loss
    /// report).
    pub loss_by_label: HashMap<String, f64>,
    /// Potential race conditions: wildcard receives that had more than one
    /// candidate message at match time, so a different Monte-Carlo draw
    /// (or a different real-machine timing) could deliver a different
    /// message. The paper (§5) notes PEVPM "can … help programmers trace
    /// down race conditions"; each entry is `(procnum, description)`,
    /// sorted and deduplicated so reports are stable across replication
    /// orders.
    pub races: Vec<(usize, String)>,
    /// Directive executions performed by this evaluation (sweep steps).
    pub steps: u64,
    /// Peak number of in-flight messages on the contention scoreboard.
    pub sb_peak: usize,
    /// Per-process predicted timelines; non-empty only when
    /// [`EvalConfig::record_timeline`] was set. Export with
    /// [`crate::trace_export::chrome_trace`].
    pub timeline: Vec<Vec<TimelineSpan>>,
}

/// Evaluation failures.
#[derive(Debug, Clone)]
pub enum PevpmError {
    /// Expression evaluation failed.
    Expr(ExprError),
    /// No process can make progress.
    Deadlock {
        /// Virtual time of the deadlock.
        time: f64,
        /// `(procnum, description)` of every blocked process.
        blocked: Vec<(usize, String)>,
    },
    /// The timing model has no data for a queried operation.
    MissingTiming {
        /// The operation queried.
        op: Op,
        /// The message size queried.
        size: f64,
    },
    /// The model is malformed (e.g. a Send whose `from` is another rank).
    BadModel(String),
    /// The evaluation configuration is invalid (e.g. an adaptive policy
    /// with `min_reps < 2` — a one-sample CI half-width is undefined).
    Config(String),
    /// A [`RunBudget`] limit was hit; the report carries the partial
    /// results and a deadlock-style diagnostic.
    Budget(Box<BudgetReport>),
    /// A replication worker panicked ([`monte_carlo`] isolates worker
    /// panics instead of aborting the process).
    ReplicaPanic {
        /// Index of the panicking replication.
        index: usize,
        /// The panic payload.
        message: String,
    },
    /// Fewer than the required quorum of replications succeeded.
    QuorumFailed {
        /// Replications that succeeded.
        succeeded: usize,
        /// Quorum that was required.
        required: usize,
        /// Total replications attempted.
        total: usize,
        /// The lowest-index failure (what a serial loop would have hit
        /// first).
        first_failure: Box<PevpmError>,
    },
}

impl std::fmt::Display for PevpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PevpmError::Expr(e) => write!(f, "{e}"),
            PevpmError::Deadlock { time, blocked } => {
                write!(f, "deadlock at t={time:.6}s:")?;
                for (p, d) in blocked {
                    write!(f, " [proc {p}: {d}]")?;
                }
                Ok(())
            }
            PevpmError::MissingTiming { op, size } => {
                write!(f, "timing model has no data for op={op} size={size}")
            }
            PevpmError::BadModel(m) => write!(f, "bad model: {m}"),
            PevpmError::Config(m) => write!(f, "invalid configuration: {m}"),
            PevpmError::Budget(report) => write!(f, "{report}"),
            PevpmError::ReplicaPanic { index, message } => {
                write!(f, "replication {index} panicked: {message}")
            }
            PevpmError::QuorumFailed {
                succeeded,
                required,
                total,
                first_failure,
            } => write!(
                f,
                "replication quorum failed: {succeeded}/{total} succeeded, {required} required; first failure: {first_failure}"
            ),
        }
    }
}

impl std::error::Error for PevpmError {}

impl From<ExprError> for PevpmError {
    fn from(e: ExprError) -> Self {
        PevpmError::Expr(e)
    }
}

// ------------------------------------------------------------------ VM --

/// Replica lanes of a lock-step group: [`monte_carlo`] evaluates this many
/// replications with one instruction stream (see DESIGN.md "Lock-step
/// lanes"); everything else runs the same engine at a width of one.
const LANES: usize = 8;

/// What distinguishes one lane of a group from the next: its RNG seed and
/// whether its draws are mirrored ([`EvalConfig::mirror`]).
#[derive(Debug, Clone, Copy)]
struct Lane {
    seed: u64,
    mirror: bool,
}

/// Why a lane group stopped short of a result.
enum Halt {
    /// Something whose outcome can differ between lanes came up (a
    /// wildcard receive, a lane over the virtual-time budget): the group's
    /// replicas are re-run one lane at a time. Never raised at `W == 1`.
    StandDown,
    /// A failure that does not depend on the draws, identical in every
    /// lane.
    Uniform(PevpmError),
    /// A failure every lane hits at the same step but reports with its own
    /// clocks (deadlock, step or wall budget): one error per lane.
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

/// A scoreboard entry: one message in flight, with its times in `W` replica
/// lanes. Pair identity and FIFO position live in the [`PairFifo`] index,
/// not here.
#[derive(Debug, Clone)]
struct SbMsg<const W: usize> {
    from: usize,
    size: f64,
    kind: MsgKind,
    sender_blocked: bool,
    /// Whether `arrival` has been sampled yet (by a match phase).
    arrived: bool,
    depart: [f64; W],
    /// The message's Monte-Carlo draw (probability coordinate). Shared by
    /// the sender-side cost and the transit-time lookup so that both land
    /// on the same mode of a multi-modal distribution.
    u: [f64; W],
    arrival: [f64; W],
}

/// Why a process is blocked. Labels borrow from the model (`'m`), so
/// blocking and unblocking a process never copies label strings — part of
/// the allocation-free hot-path contract.
#[derive(Debug, Clone, Copy)]
enum Block<'m> {
    /// Waiting for message `seq` from `from`; `None` = wildcard source
    /// (`from = -1` in the directive, i.e. MPI_ANY_SOURCE).
    Recv {
        from: Option<usize>,
        seq: u64,
        label: Option<Label<'m>>,
    },
    /// Blocking rendezvous send: waiting for scoreboard message `msg` to be
    /// consumed by its receiver. The slab handle stays valid however many
    /// other messages are matched and removed in the meantime.
    SendRndv {
        msg: Handle,
        label: Option<Label<'m>>,
    },
    /// Waiting at collective instance `instance`.
    Collective {
        op: CollOp,
        size: f64,
        instance: u64,
        label: Option<Label<'m>>,
    },
}

impl<'m> Block<'m> {
    fn describe(&self) -> String {
        match self {
            Block::Recv { from, seq, label } => format!(
                "Recv(from={}, seq={seq}){}",
                from.map(|f| f.to_string()).unwrap_or_else(|| "ANY".into()),
                label.map(|l| format!(" at {}", l.text)).unwrap_or_default()
            ),
            Block::SendRndv { msg, label } => format!(
                "Send[rendezvous](msg={msg}){}",
                label.map(|l| format!(" at {}", l.text)).unwrap_or_default()
            ),
            Block::Collective {
                op,
                instance,
                label,
                ..
            } => format!(
                "Collective({op:?}, instance={instance}){}",
                label.map(|l| format!(" at {}", l.text)).unwrap_or_default()
            ),
        }
    }

    fn label(&self) -> Option<Label<'m>> {
        match self {
            Block::Recv { label, .. }
            | Block::SendRndv { label, .. }
            | Block::Collective { label, .. } => *label,
        }
    }
}

/// One level of the directive interpreter's control stack.
struct Frame<'m> {
    stmts: &'m [LStmt<'m>],
    idx: usize,
    /// Remaining iterations of this block (loops re-enter; plain blocks
    /// have 1).
    remaining: u64,
    /// Loop induction variable: `(slot, total_iterations)`. The current
    /// 0-based index is `total - remaining`.
    var: Option<(u32, u64)>,
}

/// One virtual process. Control state (environment, frame stack, blocked
/// reason, handles) is seed-independent and shared by the lanes; clocks and
/// time accounts are per lane.
struct Proc<'m, const W: usize> {
    /// Slot-indexed variable environment (see [`crate::lower`]); `None` =
    /// unbound.
    env: Vec<Option<f64>>,
    stack: Vec<Frame<'m>>,
    /// Why the process is blocked, and each lane's clock when it blocked.
    blocked: Option<(Block<'m>, [f64; W])>,
    finished: bool,
    coll_count: u64,
    /// Outstanding nonblocking-receive handles, indexed by interned handle
    /// slot: `(source, reserved per-pair sequence number)`.
    handles: Vec<Option<(usize, u64)>>,
    clock: [f64; W],
    compute_time: [f64; W],
    send_time: [f64; W],
    blocked_time: [f64; W],
}

/// Bin count / range of the engine's contention histograms: contention
/// levels are scoreboard populations, integers that rarely exceed a few
/// hundred; one bin per level up to 256 (clamped above).
const CONTENTION_BINS: usize = 256;

/// Per-event metrics of one lane group, tallied locally and added to the
/// registry when the group is done: each event then counts once per lane,
/// exactly what that many separate evaluations would have recorded, and a
/// group that stands down leaves no trace for its re-run to double.
struct VmMetrics {
    sweep_phases: Arc<Counter>,
    match_phases: Arc<Counter>,
    contention: Arc<FixedHistogram>,
    occupancy: Arc<FixedHistogram>,
    lanes: u64,
    sweeps: u64,
    matches: u64,
    /// Events per integer scoreboard population.
    contention_at: Vec<u64>,
    occupancy_at: Vec<u64>,
    /// Whether dropping the tally records it. A single lane always records
    /// (even the part-way counts of an evaluation that panics, as before);
    /// a wider group only once it has run to a result or a failure of its
    /// own.
    record_on_drop: bool,
}

impl VmMetrics {
    fn resolve(registry: &Registry, lanes: usize) -> VmMetrics {
        VmMetrics {
            sweep_phases: registry.counter("vm.sweep_phases"),
            match_phases: registry.counter("vm.match_phases"),
            contention: registry.histogram(
                "vm.contention_at_injection",
                0.0,
                CONTENTION_BINS as f64,
                CONTENTION_BINS,
            ),
            occupancy: registry.histogram(
                "vm.scoreboard_occupancy",
                0.0,
                CONTENTION_BINS as f64,
                CONTENTION_BINS,
            ),
            lanes: lanes as u64,
            sweeps: 0,
            matches: 0,
            contention_at: Vec::new(),
            occupancy_at: Vec::new(),
            record_on_drop: lanes == 1,
        }
    }

    fn tally(levels: &mut Vec<u64>, population: usize) {
        if population >= levels.len() {
            levels.resize(population + 1, 0);
        }
        levels[population] += 1;
    }
}

impl Drop for VmMetrics {
    fn drop(&mut self) {
        if !self.record_on_drop {
            return;
        }
        self.sweep_phases.add(self.sweeps * self.lanes);
        self.match_phases.add(self.matches * self.lanes);
        for (hist, levels) in [
            (&self.contention, &self.contention_at),
            (&self.occupancy, &self.occupancy_at),
        ] {
            for (population, &n) in levels.iter().enumerate() {
                if n > 0 {
                    hist.record_n(population as f64, n * self.lanes);
                }
            }
        }
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
    /// Variable-name table of the lowered model, for error messages.
    names: &'m Names,
    procs: Vec<Proc<'m, W>>,
    /// In-flight messages: a generational slab, so matches remove in O(1)
    /// and rendezvous senders hold stable [`Handle`]s.
    scoreboard: Slab<SbMsg<W>>,
    /// Per (from, to) sequence counters and FIFO queues over the slab.
    fifo: PairFifo,
    rng: [SmallRng; W],
    /// Mirror the lane's draws (`u → 1 - u`, see [`EvalConfig::mirror`]).
    mirror: [bool; W],
    steps: u64,
    /// Wall-clock start of the evaluation, for the budget's wall axis.
    started: std::time::Instant,
    sb_peak: usize,
    messages: u64,
    /// Per-label loss accumulators, indexed by [`Label::slot`]; `touched`
    /// marks labels that saw at least one attributable event (so the
    /// reported map has exactly the keys the string-keyed version had).
    loss: Vec<[f64; W]>,
    loss_touched: Vec<bool>,
    /// Wildcard-race reports. Wildcards are matched by arrival time, so
    /// they only ever run at `W == 1`.
    races: Vec<(usize, String)>,
    metrics: Option<VmMetrics>,
    /// Per-proc predicted timelines, when `cfg.record_timeline` (recorded
    /// from lane 0: timelines are only requested at `W == 1`).
    timeline: Option<Vec<Vec<TimelineSpan>>>,
}

/// The shared evaluation prologue: parameters merged and checked, the
/// directive tree lowered, and the base variable environment built. The
/// serial engine runs it once per evaluation; the DAG scheduler
/// ([`crate::dag`]) runs it once and shares it across component runs.
pub(crate) struct EvalSetup<'m> {
    pub(crate) lowered: crate::lower::LoweredModel<'m>,
    pub(crate) base: Vec<Option<f64>>,
}

pub(crate) fn prepare<'m>(model: &'m Model, cfg: &EvalConfig) -> Result<EvalSetup<'m>, PevpmError> {
    assert!(cfg.nprocs > 0, "need at least one process");
    let mut merged = model.params.clone();
    for (k, v) in &cfg.params {
        merged.insert(k.clone(), *v);
    }
    model.check_bindings(&merged).map_err(PevpmError::from)?;

    // Compile the directive tree to slot-indexed form once; the sweep loop
    // then resolves variables by array index, not string hash.
    let lowered =
        crate::lower::lower_model_with(model, cfg.const_fold).map_err(PevpmError::from)?;
    let mut base: Vec<Option<f64>> = vec![None; lowered.names.len()];
    for (k, v) in &merged {
        if let Some(slot) = lowered.names.get(k) {
            base[slot as usize] = Some(*v);
        }
    }
    // Standard variables override same-named parameters, as in
    // `standard_env`.
    base[lowered.numprocs as usize] = Some(cfg.nprocs as f64);
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
    pub(crate) loss: Vec<f64>,
    pub(crate) loss_touched: Vec<bool>,
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
        Err(Halt::Uniform(e)) => Err(e),
        Err(Halt::PerLane(mut errors)) => Err(errors.remove(0)),
        Err(Halt::StandDown) => unreachable!("a single lane has nothing to diverge from"),
    }
}

/// Run the engine over `W` replica lanes in lock step: one outcome per
/// lane, each bitwise what [`run_lowered`] returns for that lane alone.
#[allow(clippy::needless_range_loop)]
fn run_lanes<const W: usize>(
    setup: &EvalSetup<'_>,
    cfg: &EvalConfig,
    timing: &TimingModel,
    lanes: [Lane; W],
    active: Option<&[bool]>,
    injected: &[ExternalMsg],
) -> Result<Vec<VmOutcome>, Halt> {
    #[cfg(test)]
    tests::poison::check(&lanes);
    let lowered = &setup.lowered;
    let procs: Vec<Proc<W>> = (0..cfg.nprocs)
        .map(|p| {
            // Inactive processes never run: no environment clone, no
            // stack — they just read as finished with zero clocks.
            let idle = active.is_some_and(|a| !a[p]);
            let mut env = Vec::new();
            if !idle {
                env = setup.base.clone();
                env[lowered.procnum as usize] = Some(p as f64);
            }
            Proc {
                env,
                stack: if idle {
                    Vec::new()
                } else {
                    vec![Frame {
                        stmts: &lowered.stmts,
                        idx: 0,
                        remaining: 1,
                        var: None,
                    }]
                },
                blocked: None,
                finished: idle || lowered.stmts.is_empty(),
                coll_count: 0,
                handles: if idle {
                    Vec::new()
                } else {
                    vec![None; lowered.nhandles]
                },
                clock: [0.0; W],
                compute_time: [0.0; W],
                send_time: [0.0; W],
                blocked_time: [0.0; W],
            }
        })
        .collect();

    let mut vm = Vm {
        cfg,
        timing,
        names: &lowered.names,
        procs,
        scoreboard: Slab::new(),
        fifo: PairFifo::new(cfg.nprocs),
        rng: lanes.map(|lane| SmallRng::seed_from_u64(lane.seed)),
        mirror: lanes.map(|lane| lane.mirror),
        steps: 0,
        started: std::time::Instant::now(),
        sb_peak: 0,
        messages: 0,
        loss: vec![[0.0; W]; lowered.labels.len()],
        loss_touched: vec![false; lowered.labels.len()],
        races: Vec::new(),
        metrics: cfg
            .metrics
            .as_deref()
            .map(|registry| VmMetrics::resolve(registry, W)),
        timeline: cfg
            .record_timeline
            .then(|| (0..cfg.nprocs).map(|_| Vec::new()).collect()),
    };
    // Preload cross-component messages. Their sequence numbers come from
    // the sender-side counters, which are otherwise unused here: the
    // senders are inactive in this run.
    for m in injected {
        let seq = vm.fifo.next_send_seq(m.from, m.to);
        let h = vm.scoreboard.insert(SbMsg {
            from: m.from,
            size: m.size,
            kind: m.kind,
            sender_blocked: false,
            arrived: true,
            depart: [m.arrival; W],
            u: [0.0; W],
            arrival: [m.arrival; W],
        });
        vm.fifo.enqueue(m.from, m.to, seq, h);
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
            let m = vm.scoreboard.get(h).expect("in-flight handles are live");
            let mut arrival = m.arrival;
            if !m.arrived {
                let op = op_for_kind(m.kind);
                let time = timing
                    .resolve_p2p(op, m.size, contention)
                    .ok_or(PevpmError::MissingTiming { op, size: m.size })?;
                for l in 0..W {
                    arrival[l] = m.depart[l] + time.quantile(m.u[l]).max(0.0);
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

    let mut timeline = vm.timeline.take();
    Ok(external
        .into_iter()
        .enumerate()
        .map(|(l, external)| VmOutcome {
            clocks: vm.procs.iter().map(|p| p.clock[l]).collect(),
            compute_time: vm.procs.iter().map(|p| p.compute_time[l]).collect(),
            send_time: vm.procs.iter().map(|p| p.send_time[l]).collect(),
            blocked_time: vm.procs.iter().map(|p| p.blocked_time[l]).collect(),
            messages: vm.messages,
            steps: vm.steps,
            sb_peak: vm.sb_peak,
            races: vm.races.clone(),
            loss: vm.loss.iter().map(|lanes| lanes[l]).collect(),
            loss_touched: vm.loss_touched.clone(),
            timeline: timeline.take(),
            external,
        })
        .collect())
}

/// The shared evaluation epilogue: stable race reporting, the label-keyed
/// loss report, end-of-run registry aggregates, and the [`Prediction`].
pub(crate) fn finish_prediction(
    setup: &EvalSetup<'_>,
    cfg: &EvalConfig,
    mut outcome: VmOutcome,
) -> Prediction {
    // Stable race reporting: sorted by (proc, description) and
    // deduplicated, so the vector is identical however replications are
    // scheduled and repeated candidates collapse to one report.
    outcome.races.sort();
    outcome.races.dedup();

    let finish_times = outcome.clocks;
    let makespan = finish_times.iter().cloned().fold(0.0, f64::max);

    // Materialise the label-keyed loss report from the slot accumulators.
    let mut loss_by_label: HashMap<String, f64> = HashMap::new();
    for (i, name) in setup.lowered.labels.list().iter().enumerate() {
        if outcome.loss_touched[i] {
            loss_by_label.insert(name.clone(), outcome.loss[i]);
        }
    }

    // End-of-run aggregates go to the registry in one pass (cheap, and
    // keeps the per-event hot path down to the phase/histogram hooks).
    if let Some(registry) = &cfg.metrics {
        registry.counter("vm.evaluations").inc();
        registry.counter("vm.steps").add(outcome.steps);
        registry.counter("vm.messages").add(outcome.messages);
        registry.counter("vm.races").add(outcome.races.len() as u64);
        registry
            .histogram("vm.sb_peak", 0.0, CONTENTION_BINS as f64, CONTENTION_BINS)
            .record(outcome.sb_peak as f64);
        for (label, loss) in &loss_by_label {
            registry.gauge(&format!("vm.loss_secs.{label}")).add(*loss);
        }
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

/// Evaluate a model: the public entry point of the PEVPM engine.
///
/// With [`EvalConfig::eval_threads`] `== 0` (the default) this is the
/// classic serial sweep/match evaluation; `>= 1` routes through the
/// SCC/DAG component scheduler in [`crate::dag`].
pub fn evaluate(
    model: &Model,
    cfg: &EvalConfig,
    timing: &TimingModel,
) -> Result<Prediction, PevpmError> {
    if cfg.eval_threads > 0 {
        return crate::dag::evaluate_dag(model, cfg, timing);
    }
    let setup = prepare(model, cfg)?;
    let outcome = run_lowered(&setup, cfg, timing, cfg.seed, None, &[])?;
    Ok(finish_prediction(&setup, cfg, outcome))
}

/// Aggregate of several independent Monte-Carlo evaluations.
#[derive(Debug, Clone)]
pub struct McPrediction {
    /// Mean predicted makespan over the replications.
    pub mean: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Smallest replication makespan.
    pub min: f64,
    /// Largest replication makespan.
    pub max: f64,
    /// Welford summary of the replication makespans (mean/stderr/min/max
    /// above are read out of it).
    pub makespans: pevpm_dist::Summary,
    /// Wall-clock seconds the replication batch took.
    pub wall_secs: f64,
    /// Replication throughput (evaluations per wall-clock second).
    pub evals_per_sec: f64,
    /// How the batch spread over worker threads (replica counts, busy vs
    /// idle wall time per worker).
    pub profile: crate::replicate::ReplicateProfile,
    /// The individual replications, in seed order.
    pub runs: Vec<Prediction>,
    /// Replications that failed, as `(replication index, description)`,
    /// in index order. Non-empty only when [`EvalConfig::quorum`] allowed
    /// the batch to complete despite failures — the prediction then
    /// aggregates the surviving runs and this field is the warning.
    pub failures: Vec<(usize, String)>,
    /// What the sequential stopping rule did: replication count chosen,
    /// achieved relative half-width, convergence, and the drift verdict.
    /// `None` for fixed-reps runs ([`EvalConfig::adaptive`] unset).
    pub adaptive: Option<crate::stats::AdaptiveReport>,
}

impl McPrediction {
    /// Total directive executions swept across every replication.
    pub fn total_steps(&self) -> u64 {
        self.runs.iter().map(|p| p.steps).sum()
    }

    /// Mean directive executions per replication.
    pub fn mean_steps(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.total_steps() as f64 / self.runs.len() as f64
        }
    }

    /// Largest contention-scoreboard peak seen by any replication.
    pub fn max_sb_peak(&self) -> usize {
        self.runs.iter().map(|p| p.sb_peak).max().unwrap_or(0)
    }

    /// Histogram of the replication makespans with `bins` equal-width bins
    /// spanning the observed range.
    pub fn makespan_histogram(&self, bins: usize) -> pevpm_dist::Histogram {
        let samples: Vec<f64> = self.runs.iter().map(|p| p.makespan).collect();
        let lo = self.makespans.min().unwrap_or(0.0);
        let hi = self.makespans.max().unwrap_or(0.0);
        let width = ((hi - lo) / bins.max(1) as f64).max(f64::EPSILON * lo.abs().max(1.0));
        pevpm_dist::Histogram::from_samples(&samples, width)
    }
}

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
pub fn monte_carlo(
    model: &Model,
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
            run_replicas(model, cfg, timing, reps_run..reps_run + chunk, inner_eval);
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
fn replica_cfg(cfg: &EvalConfig, i: usize, inner_eval: usize) -> EvalConfig {
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
    model: &Model,
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
        run_group(model, cfg, timing, group, inner_eval)
    })
}

/// One pool job: replicas `group` as a lock-step lane group if it is a full
/// one, else (or if the lanes stand down, or anything in the group panics
/// — some lane's draw did, and only a re-run can say whose) one at a time
/// under the usual panic isolation, so errors, quorum accounting and
/// diagnostics are exactly those of separate evaluations.
fn run_group(
    model: &Model,
    cfg: &EvalConfig,
    timing: &TimingModel,
    group: std::ops::Range<usize>,
    inner_eval: usize,
) -> Vec<ReplicaResult> {
    if group.len() == LANES {
        let lanes =
            std::panic::AssertUnwindSafe(|| evaluate_lanes(model, cfg, timing, group.start));
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
                evaluate(model, &replica_cfg(cfg, i, inner_eval), timing)
            })
        })
        .collect()
}

/// Replicas `first .. first + LANES` in lock step; `None` if the lanes
/// stood down.
fn evaluate_lanes(
    model: &Model,
    cfg: &EvalConfig,
    timing: &TimingModel,
    first: usize,
) -> Option<Vec<Result<Prediction, PevpmError>>> {
    let setup = match prepare(model, cfg) {
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
            .filter_map(|(i, p)| p.blocked.as_ref().map(|(b, _)| (i, b.describe())))
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
                // one do so stands down.
                if self.procs[p]
                    .clock
                    .iter()
                    .any(|&clock| clock > budget.max_virtual_secs)
                {
                    if W > 1 {
                        return Err(Halt::StandDown);
                    }
                    return Err(self.budget_error(BudgetAxis::VirtualTime));
                }
                // The wall clock is only consulted every 64 Ki steps: an
                // Instant read per directive would dominate the hot path.
                if self.steps & 0xFFFF == 0
                    && self.started.elapsed().as_secs_f64() > budget.max_wall_secs
                {
                    return Err(self.budget_error(BudgetAxis::WallTime));
                }
            }
        }
        Ok(advanced)
    }

    /// Execute one directive (or control-flow transition) on process `p`.
    /// Returns false only when the process just finished.
    fn step(&mut self, p: usize) -> Result<bool, Halt> {
        // Pop exhausted frames / re-enter loops.
        loop {
            let Some(frame) = self.procs[p].stack.last_mut() else {
                self.procs[p].finished = true;
                return Ok(false);
            };
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
                    self.procs[p].env[slot as usize] = Some(iter);
                }
            } else {
                let popped = self.procs[p].stack.pop().unwrap();
                if let Some((slot, _)) = popped.var {
                    self.procs[p].env[slot as usize] = None;
                }
            }
        }

        let names = self.names;
        let frame = self.procs[p].stack.last_mut().unwrap();
        // Copy the `&'m [LStmt]` out of the frame so `stmt` borrows the
        // lowered model, not the frame — labels can then be threaded
        // through as `&'m str` while `self` is mutably borrowed.
        let stmts: &'m [LStmt<'m>] = frame.stmts;
        let stmt = &stmts[frame.idx];
        frame.idx += 1;

        match stmt {
            LStmt::Serial { time, label } => {
                let t = time.eval(&self.procs[p].env, names)?;
                if t < 0.0 {
                    let label = label.map(|l| l.text);
                    return Err(PevpmError::BadModel(format!(
                        "negative serial time {t} at {label:?}"
                    ))
                    .into());
                }
                let proc = &mut self.procs[p];
                let start = proc.clock[0];
                for l in 0..W {
                    proc.clock[l] += t;
                    proc.compute_time[l] += t;
                }
                if self.timeline.is_some() {
                    self.record_span(
                        p,
                        SpanKind::Compute,
                        start,
                        start + t,
                        label.map(|l| l.text),
                    );
                }
            }
            LStmt::Loop { count, var, body } => {
                let n = count.eval_usize(&self.procs[p].env, names)? as u64;
                if n > 0 && !body.is_empty() {
                    if let Some(slot) = *var {
                        self.procs[p].env[slot as usize] = Some(0.0);
                    }
                    self.procs[p].stack.push(Frame {
                        stmts: body,
                        idx: 0,
                        remaining: n,
                        var: var.map(|slot| (slot, n)),
                    });
                }
            }
            LStmt::Runon { branches } => {
                for (cond, body) in branches {
                    if cond.eval_bool(&self.procs[p].env, names)? {
                        if !body.is_empty() {
                            self.procs[p].stack.push(Frame {
                                stmts: body,
                                idx: 0,
                                remaining: 1,
                                var: None,
                            });
                        }
                        break;
                    }
                }
            }
            LStmt::Wait {
                handle,
                handle_name,
                label,
            } => {
                let Some((from, seq)) = self.procs[p].handles[*handle as usize].take() else {
                    let label = label.map(|l| l.text);
                    return Err(PevpmError::BadModel(format!(
                        "proc {p}: Wait on unbound handle {handle_name:?} at {label:?}"
                    ))
                    .into());
                };
                let clock = self.procs[p].clock;
                self.procs[p].blocked = Some((
                    Block::Recv {
                        from: Some(from),
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
                handle_name,
                label,
            } => {
                // `from = -1` (or any negative value) on a Recv means
                // MPI_ANY_SOURCE. `ltext` is the label as the plain
                // optional string the diagnostics print.
                let ltext = label.map(|l| l.text);
                let bad_model = |message: String| Halt::from(PevpmError::BadModel(message));
                let from_raw = from.eval(&self.procs[p].env, names)?;
                let wildcard = from_raw < -0.5 && *kind == MsgKind::Recv;
                // Reuse the evaluation above rather than walking the
                // expression again, replicating `eval_usize` validation.
                let from_v = if wildcard {
                    0
                } else if !from_raw.is_finite() || from_raw < -0.5 {
                    return Err(ExprError {
                        message: format!("expected a non-negative integer, got {from_raw}"),
                    }
                    .into());
                } else {
                    from_raw.round() as usize
                };
                let to_v = to.eval_usize(&self.procs[p].env, names)?;
                let size_v = size.eval(&self.procs[p].env, names)?;
                if (!wildcard && from_v >= self.cfg.nprocs) || to_v >= self.cfg.nprocs {
                    return Err(bad_model(format!(
                        "message endpoint out of range: from={from_raw} to={to_v} \
                         (numprocs={}) at {ltext:?}",
                        self.cfg.nprocs
                    )));
                }
                match kind {
                    MsgKind::Send | MsgKind::Isend => {
                        if from_v != p {
                            return Err(bad_model(format!(
                                "proc {p} executing a send whose from={from_v} at {ltext:?}"
                            )));
                        }
                        self.post_send(p, *kind, size_v, to_v, *label);
                    }
                    MsgKind::Recv => {
                        if to_v != p {
                            return Err(bad_model(format!(
                                "proc {p} executing a recv whose to={to_v} at {ltext:?}"
                            )));
                        }
                        let clock = self.procs[p].clock;
                        if wildcard {
                            // A wildcard receive takes whichever candidate
                            // arrives first — the one thing in a match that
                            // looks at a lane's times.
                            if W > 1 {
                                return Err(Halt::StandDown);
                            }
                            self.procs[p].blocked = Some((
                                Block::Recv {
                                    from: None,
                                    seq: 0,
                                    label: *label,
                                },
                                clock,
                            ));
                        } else {
                            let seq = self.fifo.reserve_recv(from_v, p);
                            self.procs[p].blocked = Some((
                                Block::Recv {
                                    from: Some(from_v),
                                    seq,
                                    label: *label,
                                },
                                clock,
                            ));
                        }
                    }
                    MsgKind::Irecv => {
                        if to_v != p {
                            return Err(bad_model(format!(
                                "proc {p} executing an irecv whose to={to_v} at {ltext:?}"
                            )));
                        }
                        if wildcard {
                            return Err(bad_model(format!(
                                "wildcard MPI_Irecv is not supported at {ltext:?}"
                            )));
                        }
                        let Some(h) = handle else {
                            return Err(bad_model(format!(
                                "MPI_Irecv without a handle at {ltext:?}"
                            )));
                        };
                        let h = *h as usize;
                        if self.procs[p].handles[h].is_some() {
                            let h = handle_name.unwrap_or_default();
                            return Err(bad_model(format!(
                                "proc {p}: handle {h:?} already outstanding at {ltext:?}"
                            )));
                        }
                        // Reserve the per-pair FIFO slot now (post order),
                        // but don't block: the matching wait is a separate
                        // decision point, and anything executed in between
                        // overlaps the transfer.
                        let seq = self.fifo.reserve_recv(from_v, p);
                        self.procs[p].handles[h] = Some((from_v, seq));
                    }
                }
            }
            LStmt::Collective { op, size, label } => {
                let size_v = size.eval(&self.procs[p].env, names)?;
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

    fn post_send(
        &mut self,
        p: usize,
        kind: MsgKind,
        size: f64,
        to: usize,
        label: Option<Label<'m>>,
    ) {
        let seq = self.fifo.next_send_seq(p, to);
        self.messages += 1;
        let rndv = kind == MsgKind::Send && size >= self.cfg.rndv_threshold;
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
        let time = self
            .timing
            .resolve_p2p(op_for_kind(kind), size, population as f64);
        let u: [f64; W] = std::array::from_fn(|l| self.draw_u(l));
        let mut local = [0.0; W];
        if let Some(time) = &time {
            let floor = time.floor();
            for l in 0..W {
                local[l] =
                    TimingModel::SENDER_SHARE * (floor + 0.4 * (time.quantile(u[l]) - floor));
            }
        }
        let depart = self.procs[p].clock;
        let msg = self.scoreboard.insert(SbMsg {
            from: p,
            size,
            kind,
            sender_blocked: rndv,
            arrived: false,
            depart,
            u,
            arrival: [0.0; W],
        });
        self.fifo.enqueue(p, to, seq, msg);
        self.sb_peak = self.sb_peak.max(self.scoreboard.len());
        if rndv {
            self.procs[p].blocked = Some((Block::SendRndv { msg, label }, depart));
        } else {
            let proc = &mut self.procs[p];
            for l in 0..W {
                proc.clock[l] += local[l];
                proc.send_time[l] += local[l];
            }
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
                    label.map(|l| l.text),
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
        // `u` — so slab iteration order cannot perturb the draw sequence.
        let timing = self.timing;
        for m in self.scoreboard.iter_mut() {
            if !m.arrived {
                let op = op_for_kind(m.kind);
                let time = timing
                    .resolve_p2p(op, m.size, population as f64)
                    .ok_or(PevpmError::MissingTiming { op, size: m.size })?;
                for l in 0..W {
                    m.arrival[l] = m.depart[l] + time.quantile(m.u[l]).max(0.0);
                }
                m.arrived = true;
            }
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
                Some(from) => self.fifo.take(from, p, seq),
                None => self.take_wildcard(p),
            };
            let Some(handle) = handle else {
                continue; // no matching message posted yet
            };
            let msg = self
                .scoreboard
                .remove(handle)
                .expect("fifo handles are live");
            debug_assert!(msg.arrived, "sampled above");
            let sender = msg.from;

            let (block, since) = self.procs[p].blocked.take().unwrap();
            let mut wake = self.procs[p].clock;
            for l in 0..W {
                wake[l] = wake[l].max(msg.arrival[l]);
            }
            self.account_block(p, &block, since, wake);
            self.procs[p].clock = wake;
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
                    self.procs[sender].clock = swake;
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
                let dop = op_for_coll(op);
                let time = self
                    .timing
                    .resolve(dop, size, self.cfg.nprocs as f64)
                    .ok_or(PevpmError::MissingTiming { op: dop, size })?;
                for p in 0..self.procs.len() {
                    let (block, since) = self.procs[p].blocked.take().unwrap();
                    let mut wake = [0.0; W];
                    for l in 0..W {
                        let u = self.draw_u(l);
                        wake[l] = enter_max[l] + time.quantile(u).max(0.0);
                    }
                    self.account_block(p, &block, since, wake);
                    let proc = &mut self.procs[p];
                    for l in 0..W {
                        proc.clock[l] = proc.clock[l].max(wake[l]);
                    }
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
            let m = self.scoreboard.get(h).expect("fifo handles are live");
            debug_assert!(m.arrived, "sampled by the match phase");
            let a = m.arrival[0];
            if best.is_none() || (a, sender) < (best.unwrap().0, best.unwrap().2) {
                best = Some((a, h, sender));
            }
        }
        let (_, h, sender) = best?;
        if candidates > 1 {
            // Multiple in-flight messages could have matched: which one
            // wins depends on timing — a potential race (paper §5).
            let label = self.procs[p]
                .blocked
                .as_ref()
                .and_then(|(b, _)| b.label())
                .map(|l| l.text)
                .unwrap_or("<unlabelled wildcard recv>")
                .to_string();
            self.races.push((
                p,
                format!(
                    "wildcard receive at {label} had {candidates} candidate \
                     senders (matched {sender})"
                ),
            ));
        }
        // Consume this pair's FIFO head.
        let consumed = self.fifo.consume_head(sender, p);
        debug_assert_eq!(consumed, Some(h));
        Some(h)
    }

    /// Attribute `dt` seconds of loss per lane to `label`: an indexed add
    /// on the slot accumulator — no hashing, no allocation.
    fn add_loss(&mut self, label: Label<'m>, dt: [f64; W]) {
        let i = label.slot as usize;
        for l in 0..W {
            self.loss[i][l] += dt[l];
        }
        self.loss_touched[i] = true;
    }

    fn account_block(&mut self, p: usize, block: &Block<'m>, since: [f64; W], wake: [f64; W]) {
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
            match block.label() {
                Some(label) => {
                    self.record_span(p, SpanKind::Blocked, since, since + dt, Some(label.text))
                }
                None => {
                    let name = block.describe();
                    self.record_span(p, SpanKind::Blocked, since, since + dt, Some(&name));
                }
            }
        }
    }
}

fn op_for_kind(kind: MsgKind) -> Op {
    match kind {
        MsgKind::Send => Op::Send,
        MsgKind::Isend => Op::Isend,
        MsgKind::Recv | MsgKind::Irecv => Op::Recv,
    }
}

fn op_for_coll(op: CollOp) -> Op {
    match op {
        CollOp::Barrier => Op::Barrier,
        CollOp::Bcast => Op::Bcast,
        CollOp::Reduce => Op::Reduce,
        CollOp::Allreduce => Op::Allreduce,
        CollOp::Alltoall => Op::Alltoall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build::*;
    use crate::model::{Model, Stmt};
    use pevpm_dist::{CommDist, DistKey, DistTable};

    /// Test hook: an evaluation holding the poisoned seed in any lane
    /// panics as it starts — the stand-in for a draw that panics for one
    /// replica only (no public table can be made to).
    pub(super) mod poison {
        use super::super::Lane;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// No test seeds its replicas anywhere near this.
        const NONE: u64 = 0x5EED_0FF5_EED0_FF00;
        static SEED: AtomicU64 = AtomicU64::new(NONE);

        pub(in super::super) fn check(lanes: &[Lane]) {
            let poisoned = SEED.load(Ordering::Relaxed);
            if lanes.iter().any(|lane| lane.seed == poisoned) {
                panic!("poisoned replica seed {poisoned:#x}");
            }
        }

        /// Poison `seed` until the guard drops.
        pub(in super::super) struct Guard;

        pub(in super::super) fn set(seed: u64) -> Guard {
            SEED.store(seed, Ordering::Relaxed);
            Guard
        }

        impl Drop for Guard {
            fn drop(&mut self) {
                SEED.store(NONE, Ordering::Relaxed);
            }
        }
    }

    /// A timing model where every p2p message takes exactly `t` seconds.
    fn fixed_timing(t: f64) -> TimingModel {
        let mut table = DistTable::new();
        for op in [Op::Send, Op::Isend] {
            for &size in &[1u64, 1 << 30] {
                table.insert(
                    DistKey {
                        op,
                        size,
                        contention: 1,
                    },
                    CommDist::Point(t),
                );
            }
        }
        TimingModel::distributions(table)
    }

    #[test]
    fn serial_only_model() {
        let m = Model::new().with_stmt(serial("2.5"));
        let p = evaluate(&m, &EvalConfig::new(4), &fixed_timing(0.0)).unwrap();
        assert_eq!(p.makespan, 2.5);
        assert!(p.finish_times.iter().all(|&t| t == 2.5));
        assert_eq!(p.compute_time[0], 2.5);
        assert_eq!(p.messages, 0);
    }

    #[test]
    fn serial_scales_with_numprocs() {
        let m = Model::new().with_stmt(serial("8.0/numprocs"));
        let p = evaluate(&m, &EvalConfig::new(8), &fixed_timing(0.0)).unwrap();
        assert_eq!(p.makespan, 1.0);
    }

    #[test]
    fn simple_send_recv_pipelines_time() {
        // proc 0 computes 1 s then sends to proc 1, which waits.
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![serial("1.0"), send("100", "0", "1")],
            "procnum == 1",
            vec![recv("100", "0", "1")],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.25)).unwrap();
        // proc 1 resumes at depart(1.0) + 0.25.
        assert!(
            (p.finish_times[1] - 1.25).abs() < 1e-12,
            "{:?}",
            p.finish_times
        );
        assert!((p.blocked_time[1] - 1.25).abs() < 1e-12);
        assert_eq!(p.messages, 1);
    }

    #[test]
    fn loop_repeats_body() {
        let m = Model::new().with_stmt(looped("10", vec![serial("0.1")]));
        let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
        assert!((p.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nested_loops_multiply() {
        let m = Model::new().with_stmt(looped("3", vec![looped("4", vec![serial("1")])]));
        let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
        assert!((p.makespan - 12.0).abs() < 1e-9);
    }

    #[test]
    fn runon_selects_first_matching_branch() {
        let m = Model::new().with_stmt(runon2(
            "procnum < 2",
            vec![serial("1")],
            "procnum >= 2",
            vec![serial("5")],
        ));
        let p = evaluate(&m, &EvalConfig::new(4), &fixed_timing(0.0)).unwrap();
        assert_eq!(p.finish_times, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn ping_pong_round_trip() {
        let m = Model::new().with_stmt(looped(
            "5",
            vec![runon2(
                "procnum == 0",
                vec![send("64", "0", "1"), recv("64", "1", "0")],
                "procnum == 1",
                vec![recv("64", "0", "1"), send("64", "1", "0")],
            )],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        // Each iteration costs ~2 × 0.1 s (plus tiny local send costs).
        assert!(
            p.makespan >= 0.99 && p.makespan < 1.2,
            "makespan {}",
            p.makespan
        );
    }

    #[test]
    fn deadlock_detected_on_mutual_recv() {
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![recv("8", "1", "0")],
            "procnum == 1",
            vec![recv("8", "0", "1")],
        ));
        let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
        match err {
            PevpmError::Deadlock { blocked, .. } => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn fifo_ordering_between_pair() {
        // Two sends of different sizes; receives must match in order.
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("10", "0", "1"), send("20", "0", "1")],
            "procnum == 1",
            vec![recv("10", "0", "1"), recv("20", "0", "1")],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert_eq!(p.messages, 2);
        assert!(p.makespan > 0.0);
    }

    #[test]
    fn rendezvous_send_blocks_sender() {
        // Large blocking send: sender cannot finish before the receiver's
        // 5 s of prior computation.
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("1000000", "0", "1")],
            "procnum == 1",
            vec![serial("5"), recv("1000000", "0", "1")],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert!(
            p.finish_times[0] >= 5.0,
            "rendezvous sender finished early: {:?}",
            p.finish_times
        );
    }

    #[test]
    fn eager_send_does_not_block_sender() {
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("100", "0", "1")],
            "procnum == 1",
            vec![serial("5"), recv("100", "0", "1")],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert!(
            p.finish_times[0] < 1.0,
            "eager sender blocked: {:?}",
            p.finish_times
        );
    }

    #[test]
    fn out_of_range_endpoint_is_model_error() {
        let m = Model::new().with_stmt(send("8", "procnum", "procnum+1"));
        let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
        assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
    }

    #[test]
    fn missing_timing_is_reported() {
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("8", "0", "1")],
            "procnum == 1",
            vec![recv("8", "0", "1")],
        ));
        let empty = TimingModel::distributions(DistTable::new());
        let err = evaluate(&m, &EvalConfig::new(2), &empty).unwrap_err();
        assert!(matches!(err, PevpmError::MissingTiming { .. }), "{err}");
    }

    #[test]
    fn collective_synchronises_all_procs() {
        let mut table = DistTable::new();
        table.insert(
            DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 4,
            },
            CommDist::Point(0.5),
        );
        let timing = TimingModel::distributions(table);
        let m = Model::new()
            .with_stmt(serial("procnum + 1")) // staggered entry: 1..4 s
            .with_stmt(collective(CollOp::Barrier, "0"));
        let p = evaluate(&m, &EvalConfig::new(4), &timing).unwrap();
        // Everyone leaves at slowest entry (4.0) + 0.5.
        for &t in &p.finish_times {
            assert!((t - 4.5).abs() < 1e-9, "{:?}", p.finish_times);
        }
    }

    #[test]
    fn loss_attribution_by_label() {
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![serial("2"), send("8", "0", "1")],
            "procnum == 1",
            vec![labelled(recv("8", "0", "1"), "halo-recv")],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        let loss = p.loss_by_label.get("halo-recv").copied().unwrap_or(0.0);
        assert!((loss - 2.1).abs() < 1e-9, "loss = {loss}");
    }

    #[test]
    fn deterministic_given_seed() {
        // A model whose timing has real spread.
        let mut table = DistTable::new();
        let h = pevpm_dist::Histogram::from_samples(
            &(0..100)
                .map(|i| 0.01 + (i as f64) * 1e-4)
                .collect::<Vec<_>>(),
            1e-4,
        );
        table.insert(
            DistKey {
                op: Op::Send,
                size: 64,
                contention: 1,
            },
            CommDist::Hist(h),
        );
        let timing = TimingModel::distributions(table);
        let m = Model::new().with_stmt(looped(
            "20",
            vec![runon2(
                "procnum == 0",
                vec![send("64", "0", "1")],
                "procnum == 1",
                vec![recv("64", "0", "1")],
            )],
        ));
        let run = |seed| {
            evaluate(&m, &EvalConfig::new(2).with_seed(seed), &timing)
                .unwrap()
                .makespan
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn loop_induction_variable_binds_in_body() {
        // sum of i for i in 0..5 as serial time: 0+1+2+3+4 = 10 (×0.1 s).
        let m = Model::new().with_stmt(looped_var("5", "i", vec![serial("0.1 * i")]));
        let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
        assert!((p.makespan - 1.0).abs() < 1e-9, "makespan {}", p.makespan);
    }

    #[test]
    fn induction_variable_scopes_to_loop() {
        // After the loop, `i` must be unbound again.
        let m = Model::new()
            .with_stmt(looped_var("3", "i", vec![serial("i")]))
            .with_stmt(serial("i"));
        let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap_err();
        assert!(matches!(err, PevpmError::Expr(_)), "{err}");
    }

    #[test]
    fn wildcard_recv_takes_earliest_arrival() {
        // Procs 1 and 2 send to proc 0 at different times; two wildcard
        // receives must complete in arrival order.
        let m = Model::new().with_stmt(Stmt::Runon {
            branches: vec![
                (
                    e("procnum == 0"),
                    vec![
                        recv("8", "0-1", "0"), // from = -1 → ANY
                        recv("8", "0-1", "0"),
                    ],
                ),
                (e("procnum == 1"), vec![serial("2"), send("8", "1", "0")]),
                (e("procnum == 2"), vec![serial("1"), send("8", "2", "0")]),
            ],
        });
        let p = evaluate(&m, &EvalConfig::new(3), &fixed_timing(0.1)).unwrap();
        // First wildcard matches proc 2's message (arrival 1.1), second
        // matches proc 1's (arrival 2.1).
        assert!(
            (p.finish_times[0] - 2.1).abs() < 1e-9,
            "{:?}",
            p.finish_times
        );
    }

    #[test]
    fn wildcard_respects_per_pair_fifo() {
        // One sender, two messages; wildcard receives must take them in
        // send order even though both have arrivals.
        let m = Model::new().with_stmt(Stmt::Runon {
            branches: vec![
                (
                    e("procnum == 0"),
                    vec![recv("8", "0-1", "0"), recv("8", "0-1", "0")],
                ),
                (
                    e("procnum == 1"),
                    vec![send("8", "1", "0"), send("8", "1", "0")],
                ),
            ],
        });
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert_eq!(p.messages, 2);
        assert!(p.makespan > 0.0);
    }

    #[test]
    fn irecv_wait_overlaps_communication_with_compute() {
        // Blocking version: recv then compute — comm and compute serialise.
        let blocking = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1"), serial("0.5")],
        ));
        // Overlapped version: irecv, compute, wait.
        let overlapped = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![irecv("64", "0", "1", "h"), serial("0.5"), wait("h")],
        ));
        let timing = fixed_timing(0.3);
        let tb = evaluate(&blocking, &EvalConfig::new(2), &timing)
            .unwrap()
            .makespan;
        let to = evaluate(&overlapped, &EvalConfig::new(2), &timing)
            .unwrap()
            .makespan;
        // Blocking: 0.3 + 0.5 ≈ 0.8; overlapped: max(0.3, 0.5) ≈ 0.5.
        assert!((tb - 0.8).abs() < 0.02, "blocking {tb}");
        assert!((to - 0.5).abs() < 0.02, "overlapped {to}");
    }

    #[test]
    fn irecv_respects_fifo_against_blocking_recv() {
        // Two messages; the irecv posted first reserves the first slot.
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1"), send("64", "0", "1")],
            "procnum == 1",
            vec![
                irecv("64", "0", "1", "h1"),
                recv("64", "0", "1"),
                wait("h1"),
            ],
        ));
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert_eq!(p.messages, 2);
    }

    #[test]
    fn wait_on_unbound_handle_is_model_error() {
        let m = Model::new().with_stmt(wait("nope"));
        let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.1)).unwrap_err();
        assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
    }

    #[test]
    fn duplicate_handle_is_model_error() {
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("8", "0", "1"), send("8", "0", "1")],
            "procnum == 1",
            vec![irecv("8", "0", "1", "h"), irecv("8", "0", "1", "h")],
        ));
        let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
        assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
    }

    #[test]
    fn monte_carlo_aggregates_replications() {
        let mut table = DistTable::new();
        let samples: Vec<f64> = (0..500).map(|i| 0.01 + (i % 53) as f64 * 1e-4).collect();
        table.insert(
            DistKey {
                op: Op::Send,
                size: 64,
                contention: 1,
            },
            CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 1e-4)),
        );
        let timing = TimingModel::distributions(table);
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1")],
        ));
        let mc = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 50).unwrap();
        assert_eq!(mc.runs.len(), 50);
        assert!(mc.min <= mc.mean && mc.mean <= mc.max);
        assert!(mc.stderr > 0.0, "stochastic timing must produce spread");
        assert!(mc.min < mc.max);
        // More replications shrink the standard error.
        let mc2 = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 400).unwrap();
        assert!(mc2.stderr < mc.stderr);
        // Deterministic overall.
        let mc3 = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 50).unwrap();
        assert_eq!(mc.mean, mc3.mean);
    }

    #[test]
    fn monte_carlo_with_point_timing_has_zero_spread() {
        let m = Model::new().with_stmt(serial("1.0"));
        let mc = monte_carlo(&m, &EvalConfig::new(2), &fixed_timing(0.0), 5).unwrap();
        assert_eq!(mc.stderr, 0.0);
        assert_eq!(mc.min, mc.max);
    }

    #[test]
    fn wildcard_race_is_reported() {
        // Both senders post before the receiver can match: two candidates
        // for one wildcard receive -> race report.
        let m = Model::new().with_stmt(Stmt::Runon {
            branches: vec![
                (
                    e("procnum == 0"),
                    vec![
                        serial("10"), // let both sends land first
                        labelled(recv("8", "0-1", "0"), "racy-recv"),
                        recv("8", "0-1", "0"),
                    ],
                ),
                (e("procnum != 0"), vec![send("8", "procnum", "0")]),
            ],
        });
        let p = evaluate(&m, &EvalConfig::new(3), &fixed_timing(0.1)).unwrap();
        assert!(!p.races.is_empty(), "expected a race report");
        assert_eq!(p.races[0].0, 0);
        assert!(p.races[0].1.contains("racy-recv"), "{:?}", p.races);
        assert!(p.races[0].1.contains("2 candidate"), "{:?}", p.races);
    }

    #[test]
    fn single_candidate_wildcard_is_not_a_race() {
        let m = Model::new().with_stmt(Stmt::Runon {
            branches: vec![
                (e("procnum == 0"), vec![recv("8", "0-1", "0")]),
                (e("procnum == 1"), vec![send("8", "1", "0")]),
            ],
        });
        let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
        assert!(p.races.is_empty(), "{:?}", p.races);
    }

    #[test]
    fn unbound_parameter_is_rejected() {
        let m = Model::new().with_stmt(serial("mystery"));
        let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap_err();
        assert!(matches!(err, PevpmError::Expr(_)), "{err}");
    }

    #[test]
    fn metrics_registry_records_engine_activity() {
        let registry = Arc::new(Registry::new());
        let m = Model::new().with_stmt(looped(
            "5",
            vec![runon2(
                "procnum == 0",
                vec![send("64", "0", "1")],
                "procnum == 1",
                vec![labelled(recv("64", "0", "1"), "ring-recv")],
            )],
        ));
        let cfg = EvalConfig::new(2).with_metrics(registry.clone());
        let p = evaluate(&m, &cfg, &fixed_timing(0.1)).unwrap();

        assert_eq!(registry.counter("vm.evaluations").get(), 1);
        assert_eq!(registry.counter("vm.steps").get(), p.steps);
        assert_eq!(registry.counter("vm.messages").get(), p.messages);
        assert!(registry.counter("vm.sweep_phases").get() > 0);
        assert!(registry.counter("vm.match_phases").get() > 0);
        let contention = registry.histogram("vm.contention_at_injection", 0.0, 1.0, 1);
        assert_eq!(contention.count(), p.messages, "one sample per injection");
        let occupancy = registry.histogram("vm.scoreboard_occupancy", 0.0, 1.0, 1);
        assert!(occupancy.count() > 0);
        let loss = registry.gauge("vm.loss_secs.ring-recv").get();
        let expected = p.loss_by_label.get("ring-recv").copied().unwrap();
        assert!((loss - expected).abs() < 1e-12, "loss {loss} vs {expected}");
    }

    #[test]
    fn metrics_accumulate_across_monte_carlo_replicas() {
        let registry = Arc::new(Registry::new());
        let m = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1")],
        ));
        let cfg = EvalConfig::new(2)
            .with_metrics(registry.clone())
            .with_threads(2);
        let mc = monte_carlo(&m, &cfg, &fixed_timing(0.1), 8).unwrap();
        assert_eq!(registry.counter("vm.evaluations").get(), 8);
        assert_eq!(registry.counter("vm.steps").get(), mc.total_steps());
        assert_eq!(mc.max_sb_peak(), 1);
        assert!((mc.mean_steps() - mc.total_steps() as f64 / 8.0).abs() < 1e-12);
        assert_eq!(mc.profile.total_jobs(), 8);
    }

    /// Histogram spread, so lanes draw different times.
    fn spread_timing() -> TimingModel {
        let samples: Vec<f64> = (0..200).map(|i| 1e-3 + (i % 41) as f64 * 1e-5).collect();
        let mut table = DistTable::new();
        table.insert(
            DistKey {
                op: Op::Send,
                size: 64,
                contention: 1,
            },
            CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 2e-5)),
        );
        TimingModel::distributions(table)
    }

    fn ring(wildcard_tail: bool) -> Model {
        let mut m = Model::new().with_stmt(looped(
            "4",
            vec![
                send("64", "procnum", "(procnum + 1) % numprocs"),
                labelled(
                    recv("64", "(procnum - 1) % numprocs", "procnum"),
                    "ring-recv",
                ),
            ],
        ));
        if wildcard_tail {
            m = m.with_stmt(Stmt::Runon {
                branches: vec![
                    (e("procnum == 0"), vec![recv("64", "0-1", "0")]),
                    (e("procnum == 1"), vec![send("64", "1", "0")]),
                ],
            });
        }
        m
    }

    #[test]
    fn lane_group_records_what_separate_evaluations_record() {
        // One lock-step group of eight must leave the registry exactly as
        // eight evaluations do — also when it stands down part-way (the
        // wildcard tail) and its replicas are evaluated again.
        let timing = spread_timing();
        for wildcard_tail in [false, true] {
            let model = ring(wildcard_tail);
            let lanes = Arc::new(Registry::new());
            let cfg = EvalConfig::new(3).with_seed(40).with_threads(1);
            let mc =
                monte_carlo(&model, &cfg.clone().with_metrics(lanes.clone()), &timing, 8).unwrap();
            let solo = Arc::new(Registry::new());
            for i in 0..8 {
                let c = replica_cfg(&cfg, i, 0).with_metrics(solo.clone());
                let p = evaluate(&model, &c, &timing).unwrap();
                assert_eq!(p.makespan.to_bits(), mc.runs[i].makespan.to_bits());
            }
            for name in [
                "vm.sweep_phases",
                "vm.match_phases",
                "vm.steps",
                "vm.evaluations",
                "vm.messages",
            ] {
                assert_eq!(
                    lanes.counter(name).get(),
                    solo.counter(name).get(),
                    "{name}, wildcard tail {wildcard_tail}"
                );
            }
            assert_eq!(lanes.counter("vm.evaluations").get(), 8);
            for name in ["vm.contention_at_injection", "vm.scoreboard_occupancy"] {
                let (a, b) = (
                    lanes.histogram(name, 0.0, 1.0, 1),
                    solo.histogram(name, 0.0, 1.0, 1),
                );
                assert!(a.count() > 0, "{name} recorded nothing");
                assert_eq!(a.bin_counts(), b.bin_counts(), "{name}");
                assert_eq!(a.sum().to_bits(), b.sum().to_bits(), "{name} sum");
                assert_eq!((a.min(), a.max()), (b.min(), b.max()), "{name} range");
            }
            let (a, b) = (
                lanes.gauge("vm.loss_secs.ring-recv").get(),
                solo.gauge("vm.loss_secs.ring-recv").get(),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "loss gauge");
        }
    }

    #[test]
    fn poisoned_replica_stands_its_group_down_and_fails_alone() {
        // Replica 5's evaluation panics. The group of eight it sits in
        // cannot say whose draw it was, so it stands down; the one-lane
        // re-run attributes the panic, and the k-of-n quorum aggregates
        // the seven survivors — each still its own evaluation.
        let timing = spread_timing();
        let model = ring(false);
        let base = 0xD1CE_0000_0000;
        let _poisoned = poison::set(crate::replicate::replica_seed(base, 5));
        let cfg = EvalConfig::new(3).with_seed(base).with_threads(1);

        let mc = monte_carlo(&model, &cfg.clone().with_quorum(7), &timing, 8).unwrap();
        assert_eq!(mc.failures.len(), 1);
        let (index, what) = &mc.failures[0];
        assert_eq!(*index, 5);
        assert!(
            what.starts_with("replication 5 panicked: poisoned replica seed"),
            "{what}"
        );
        assert_eq!(mc.runs.len(), 7);
        assert_eq!(mc.profile.total_jobs(), 8);
        let survivors = (0..8).filter(|&i| i != 5);
        for (i, run) in survivors.zip(&mc.runs) {
            let solo = evaluate(&model, &replica_cfg(&cfg, i, 0), &timing).unwrap();
            assert_eq!(
                solo.makespan.to_bits(),
                run.makespan.to_bits(),
                "replica {i}"
            );
            assert_eq!(solo.finish_times, run.finish_times, "replica {i}");
        }

        // All-must-succeed and a quorum out of reach report it as before.
        match monte_carlo(&model, &cfg, &timing, 8).unwrap_err() {
            PevpmError::ReplicaPanic { index: 5, .. } => {}
            other => panic!("expected replica 5's panic, got {other}"),
        }
        match monte_carlo(&model, &cfg.clone().with_quorum(8), &timing, 8).unwrap_err() {
            PevpmError::QuorumFailed {
                succeeded: 7,
                required: 8,
                total: 8,
                first_failure,
            } => assert!(matches!(
                *first_failure,
                PevpmError::ReplicaPanic { index: 5, .. }
            )),
            other => panic!("expected QuorumFailed, got {other}"),
        }
    }

    #[test]
    fn timeline_spans_tile_each_process_clock() {
        let m = Model::new().with_stmt(looped(
            "3",
            vec![runon2(
                "procnum == 0",
                vec![serial("0.5"), send("64", "0", "1")],
                "procnum == 1",
                vec![recv("64", "0", "1"), serial("0.2")],
            )],
        ));
        let p = evaluate(&m, &EvalConfig::new(2).with_timeline(), &fixed_timing(0.1)).unwrap();
        assert_eq!(p.timeline.len(), 2);
        for (proc_, spans) in p.timeline.iter().enumerate() {
            assert!(!spans.is_empty(), "proc {proc_} has no spans");
            let mut sum = 0.0;
            for s in spans {
                assert!(s.end >= s.start, "span {s:?} runs backwards");
                sum += s.end - s.start;
            }
            assert!(
                (sum - p.finish_times[proc_]).abs() < 1e-9,
                "proc {proc_}: spans sum to {sum}, finish {}",
                p.finish_times[proc_]
            );
        }
    }
}
