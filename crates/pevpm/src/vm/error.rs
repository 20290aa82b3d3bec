//! How an evaluation fails: [`PevpmError`] and the budget-abort report.

#[cfg(doc)]
use super::{monte_carlo, RunBudget};
use crate::expr::ExprError;
use pevpm_dist::Op;

/// Which [`RunBudget`] axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetAxis {
    /// `max_steps`.
    Steps,
    /// `max_virtual_secs`.
    VirtualTime,
}

impl BudgetAxis {
    /// Human-readable axis name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetAxis::Steps => "step limit",
            BudgetAxis::VirtualTime => "virtual-time limit",
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
