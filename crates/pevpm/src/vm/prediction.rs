//! What an evaluation returns: one [`Prediction`], or the [`McPrediction`]
//! aggregate of a Monte-Carlo batch.

#[cfg(doc)]
use super::EvalConfig;
use std::collections::HashMap;

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
}
