//! What an evaluation is asked to do: [`EvalConfig`] and its [`RunBudget`].

#[cfg(doc)]
use super::{monte_carlo, McPrediction, PevpmError, Prediction};
use crate::expr::Env;
use pevpm_obs::Registry;
use std::sync::Arc;

/// Messages at least this large (bytes) use blocking-rendezvous semantics
/// for `Send`: the sender cannot complete before the receiver matches.
pub const RNDV_THRESHOLD_BYTES: f64 = 16.0 * 1024.0;

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Number of virtual processes (`numprocs`).
    pub nprocs: usize,
    /// Extra parameter bindings, overriding the model's defaults.
    pub params: Env,
    /// RNG seed for Monte-Carlo sampling.
    pub seed: u64,
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
    /// single component. When nested under [`monte_carlo`] the effective
    /// value is capped by the shared [`crate::replicate::ThreadBudget`].
    /// No CLI flag, daemon setting or wire field sets it: it is kept for
    /// `perf/`'s `pevpm.dag_speedup` probe and goes with [`crate::dag`]
    /// (see that module's deletion set). [`EvalConfig::threads`] is the
    /// thread knob.
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
            budget: RunBudget::default(),
            quorum: None,
            threads: 0,
            eval_threads: 0,
            metrics: None,
            record_timeline: false,
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
/// executions) and leave virtual time unlimited. Both axes count what the
/// evaluation does, not how long it takes, so whether a run aborts is as
/// reproducible as its result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunBudget {
    /// Maximum directive executions per evaluation.
    pub max_steps: u64,
    /// Maximum virtual time any process clock may reach, seconds.
    pub max_virtual_secs: f64,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_steps: 500_000_000,
            max_virtual_secs: f64::INFINITY,
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
}
