//! What an evaluation returns: one [`Prediction`], or the [`McPrediction`]
//! aggregate of a Monte-Carlo batch.

#[cfg(doc)]
use super::EvalConfig;
use crate::lower::Strings;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

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
    pub loss_by_label: LossByLabel,
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

/// Blocked time by directive label — the performance-loss report — as a
/// list in label order, holding only the labels that saw an attributable
/// event. The names are the lowered program's own table, shared, so an
/// evaluation builds the report with one allocation and no string.
#[derive(Clone)]
pub struct LossByLabel {
    names: Arc<Strings>,
    /// `(label slot in names, loss)`, in label order.
    losses: Vec<(u32, f64)>,
}

impl LossByLabel {
    /// The report of the labels `names` lists, `loss(slot)` giving each
    /// one's loss (`None`: no event).
    pub(crate) fn from_slots(names: &Arc<Strings>, loss: impl Fn(usize) -> Option<f64>) -> Self {
        let count = (0..names.len())
            .filter(|&slot| loss(slot).is_some())
            .count();
        let mut losses = Vec::with_capacity(count);
        for slot in 0..names.len() {
            if let Some(l) = loss(slot) {
                losses.push((slot as u32, l));
            }
        }
        // Label names are distinct, so the order is total.
        losses.sort_unstable_by(|a, b| names[a.0 as usize].cmp(&names[b.0 as usize]));
        LossByLabel {
            names: Arc::clone(names),
            losses,
        }
    }

    /// A report of the given `(label, loss)` pairs; of a repeated label
    /// the last loss is kept.
    pub fn new<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
        let mut pairs: Vec<(&str, f64)> = pairs.into_iter().collect();
        // Stable: of a run of equal labels the last is the last given.
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut names = Strings::default();
        let mut losses = Vec::with_capacity(pairs.len());
        for (i, &(label, loss)) in pairs.iter().enumerate() {
            if pairs.get(i + 1).is_some_and(|next| next.0 == label) {
                continue;
            }
            losses.push((names.len() as u32, loss));
            names.push(label);
        }
        LossByLabel {
            names: Arc::new(names),
            losses,
        }
    }

    /// Every `(label, loss)`, in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.losses
            .iter()
            .map(|&(slot, loss)| (&self.names[slot as usize], loss))
    }

    /// The loss under `label`, if that label saw an attributable event.
    pub fn get(&self, label: &str) -> Option<f64> {
        self.find(label).copied()
    }

    fn find(&self, label: &str) -> Option<&f64> {
        let i = self
            .losses
            .binary_search_by(|&(slot, _)| self.names[slot as usize].cmp(label))
            .ok()?;
        Some(&self.losses[i].1)
    }

    /// How many labels the report holds.
    pub fn len(&self) -> usize {
        self.losses.len()
    }

    /// True if no label saw an attributable event.
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty()
    }

    /// Every `(label, loss)`, costliest first and equal losses in label
    /// order (a NaN loss counts as the costliest). Each item is found by a
    /// pass over the report, without sorting or allocating: a loss report
    /// is read for its first few lines.
    pub fn costliest(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        // Costlier first, then earlier in label order: a total order over
        // positions in the report.
        let before = |i: usize, j: usize| {
            let (a, b) = (self.losses[i].1, self.losses[j].1);
            b.total_cmp(&a).then(i.cmp(&j)) == Ordering::Less
        };
        let mut last: Option<usize> = None;
        std::iter::from_fn(move || {
            let next = (0..self.losses.len())
                .filter(|&i| last.is_none_or(|l| before(l, i)))
                .reduce(|best, i| if before(i, best) { i } else { best })?;
            last = Some(next);
            Some((
                &self.names[self.losses[next].0 as usize],
                self.losses[next].1,
            ))
        })
    }
}

impl std::ops::Index<&str> for LossByLabel {
    type Output = f64;

    /// The loss under `label`; panics if the label saw no event.
    fn index(&self, label: &str) -> &f64 {
        self.find(label)
            .unwrap_or_else(|| panic!("no loss under label {label:?}"))
    }
}

impl fmt::Debug for LossByLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
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
