//! Deterministic parallel replication engine.
//!
//! Monte-Carlo prediction (§6 of the paper) and benchmark sweeps both run
//! many *independent* replications — same computation, different derived
//! seed. This module fans those replications across OS threads (scoped
//! threads over an atomic work counter) while keeping the results
//! **bitwise identical to the serial path at any thread count**:
//!
//! - replica `i` derives its RNG seed as [`replica_seed`]`(base, i)` — the
//!   same `base.wrapping_add(i)` scheme the serial loops always used, so a
//!   replica's draws depend only on `(base_seed, replica_index)`, never on
//!   which thread ran it;
//! - outcomes come back in replica-index order, so aggregation sees the
//!   exact sequence the serial loop would have produced;
//! - every replica runs and every outcome comes back, failures and caught
//!   panics included, so which jobs execute does not depend on the thread
//!   count either; a caller that wants *the* error `collect()`s the
//!   outcomes and gets the **lowest-index** failure — the one a serial
//!   loop would have hit first.
//!
//! There is one loop, [`isolated_groups_profiled`]; [`isolated_map`] is its
//! singleton-group case and [`parallel_map`] that for jobs that cannot
//! fail. Thread counts are expressed as `0 = use all available
//! parallelism`; `1` runs the loop on the calling thread.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pevpm_obs::diag::panic_message;

/// A replication worker panicked. Carried inside [`JobError::Panic`] so a
/// worker panic reaches the caller as a value instead of unwinding (or
/// aborting) through the replication harness — critical once replication
/// runs inside a long-lived service rather than a one-shot CLI process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPanic {
    /// Index of the panicking replica, when the panic is attributable to
    /// one specific job (`None` for harness-level failures outside any
    /// job closure).
    pub index: Option<usize>,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for ReplicaPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "replication {i} panicked: {}", self.message),
            None => write!(f, "replication worker panicked: {}", self.message),
        }
    }
}

/// Why one replication job failed, for the panic-isolated map.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError<E> {
    /// The job returned an error.
    Err(E),
    /// The job panicked; the payload carries the replica index and panic
    /// message.
    Panic(ReplicaPanic),
}

impl<E: std::fmt::Display> std::fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Err(e) => write!(f, "{e}"),
            JobError::Panic(p) => write!(f, "{p}"),
        }
    }
}

/// What one replication worker did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStat {
    /// Replicas this worker executed.
    pub jobs: usize,
    /// Wall-clock seconds the worker spent inside replica evaluations.
    pub busy_secs: f64,
}

/// Profile of one replication batch: how the work spread over workers and
/// how much of their wall time was useful. Surfaced in
/// [`McPrediction::profile`](crate::vm::McPrediction) and the `tcost`
/// report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicateProfile {
    /// Per-worker statistics, in worker-spawn order (a single entry for
    /// the serial path).
    pub workers: Vec<WorkerStat>,
    /// Wall-clock seconds from batch start to the last worker finishing.
    pub wall_secs: f64,
}

impl ReplicateProfile {
    /// Total replicas executed.
    pub fn total_jobs(&self) -> usize {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Summed busy seconds across workers.
    pub fn busy_secs(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_secs).sum()
    }

    /// Fraction of worker wall time spent evaluating, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.workers.len() as f64 * self.wall_secs;
        if total <= 0.0 {
            0.0
        } else {
            (self.busy_secs() / total).clamp(0.0, 1.0)
        }
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a configured thread count: `0` means "all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Seed for replica `index` of a replication batch with base seed `base`.
///
/// This is the workspace-wide seeding contract: every replicated loop
/// (Monte-Carlo evaluation, benchmark repetitions, figure rows) derives
/// per-replica seeds this way, which is what makes parallel execution
/// bitwise-reproducible.
pub fn replica_seed(base: u64, index: u64) -> u64 {
    base.wrapping_add(index)
}

/// Shared worker budget for nested parallelism: an outer pool (the
/// daemon's connection workers, or a replication pool) whose jobs each run
/// an inner one (a request's replication pool, or a DAG-scheduled
/// evaluation under [`EvalConfig::eval_threads`](crate::vm::EvalConfig)).
/// An explicit outer width is honoured verbatim and the inner level gets
/// the per-job share of the total, so the two levels combined never spawn
/// more than `max(budget, outer)` workers. Capping the inner level is
/// result-neutral: predictions are bitwise identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    total: usize,
}

impl ThreadBudget {
    /// Budget of `total` workers; `0` means "all available cores".
    pub fn new(total: usize) -> Self {
        ThreadBudget {
            total: resolve_threads(total),
        }
    }

    /// Budget covering the host's hardware threads.
    pub fn from_host() -> Self {
        ThreadBudget::new(0)
    }

    /// Total workers in the budget (at least 1).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Outer (replication) pool width for `requested` threads over `jobs`
    /// jobs: an explicit request is honoured verbatim, `0` = all cores,
    /// never wider than the job count.
    pub fn outer(&self, requested: usize, jobs: usize) -> usize {
        resolve_threads(requested).min(jobs.max(1))
    }

    /// Inner (intra-evaluation) worker count each of `outer` concurrent
    /// jobs may use: the per-job share of the budget, clamped to the
    /// request. `requested == 0` (inner parallelism disabled) stays `0`.
    /// The budget is raised to at least the outer width first, so an
    /// explicitly oversized outer pool leaves each job one inner worker
    /// rather than zero.
    pub fn inner(&self, outer: usize, requested: usize) -> usize {
        if requested == 0 {
            return 0;
        }
        let outer = outer.max(1);
        let total = self.total.max(outer);
        (total / outer).clamp(1, requested)
    }
}

/// Run `job` as replica `i` under [`catch_unwind`], mapping both failure
/// modes into [`JobError`]: the per-replica panic isolation of every map
/// in this module.
pub fn isolated<T, E>(i: usize, job: impl FnOnce() -> Result<T, E>) -> Result<T, JobError<E>> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(r) => r.map_err(JobError::Err),
        Err(payload) => Err(JobError::Panic(ReplicaPanic {
            index: Some(i),
            message: panic_message(&*payload),
        })),
    }
}

/// The one replication loop: run `f` over `groups` — consecutive index
/// ranges that tile `0..n`, in order — on up to `threads` workers and
/// return **every** index's outcome, flattened in index order, plus the
/// batch's [`ReplicateProfile`] (which counts replicas, not groups).
///
/// `f(group)` returns one outcome per index of the group and isolates each
/// replica itself with [`isolated`] (a lock-step lane group of
/// [`crate::vm::monte_carlo`] shares one evaluation, so only it can say
/// which replica a failure belongs to). Every group runs whatever the
/// others return, at any thread count, so a caller that wants the first
/// failure `collect()`s the outcomes — the lowest failing index, the one a
/// serial loop would have hit first — and a caller with a quorum policy
/// counts them. A panicking replica is a value in its slot and its worker
/// moves on; the panic message still prints to stderr, which is the wanted
/// diagnostic. A failure of the harness itself — `f` unwinding outside
/// [`isolated`], or returning the wrong number of outcomes — fails every
/// index with the same unattributed [`ReplicaPanic`] instead of unwinding
/// into the caller.
///
/// Profiling costs two `Instant::now` calls per group and cannot affect a
/// result: replica seeding is index-derived, never time-derived.
pub fn isolated_groups_profiled<T, E, F>(
    groups: &[Range<usize>],
    threads: usize,
    f: F,
) -> (Vec<Result<T, JobError<E>>>, ReplicateProfile)
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Vec<Result<T, JobError<E>>> + Sync,
{
    let batch_start = Instant::now();
    let threads = resolve_threads(threads).min(groups.len());
    // Workers claim group indices from one counter; the serial path is the
    // same worker run on the calling thread.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut stat = WorkerStat::default();
        let mut done = Vec::new();
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = groups.get(g) else {
                break (stat, done);
            };
            let t0 = Instant::now();
            let outcomes = f(group.clone());
            stat.busy_secs += t0.elapsed().as_secs_f64();
            stat.jobs += group.len();
            assert_eq!(outcomes.len(), group.len(), "one outcome per replica");
            done.push((g, outcomes));
        }
    };
    let joined: Vec<std::thread::Result<_>> = if threads <= 1 {
        vec![catch_unwind(AssertUnwindSafe(worker))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let wall_secs = batch_start.elapsed().as_secs_f64();

    let mut workers = Vec::with_capacity(joined.len());
    let mut done = Vec::with_capacity(groups.len());
    for bucket in joined {
        match bucket {
            Ok((stat, ran)) => {
                workers.push(stat);
                done.extend(ran);
            }
            Err(payload) => {
                let panic = ReplicaPanic {
                    index: None,
                    message: panic_message(&*payload),
                };
                let n = groups.iter().map(Range::len).sum();
                let failed = (0..n).map(|_| Err(JobError::Panic(panic.clone())));
                return (failed.collect(), ReplicateProfile::default());
            }
        }
    }
    // Every group was claimed exactly once: ordering by group restores
    // index order.
    done.sort_unstable_by_key(|(g, _)| *g);
    let outcomes = done.into_iter().flat_map(|(_, outcomes)| outcomes);
    (outcomes.collect(), ReplicateProfile { workers, wall_secs })
}

/// [`isolated_groups_profiled`] over singleton groups: `f(i)` for every
/// `i` in `0..n`, each under [`isolated`].
pub fn isolated_map<T, E, F>(
    n: usize,
    threads: usize,
    f: F,
) -> (Vec<Result<T, JobError<E>>>, ReplicateProfile)
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let singles: Vec<Range<usize>> = (0..n).map(|i| i..i + 1).collect();
    isolated_groups_profiled(&singles, threads, |group| {
        vec![isolated(group.start, || f(group.start))]
    })
}

/// [`isolated_map`] for jobs that cannot fail (the figure-row loops of
/// `pevpm-bench`): results in index order. `f(i)` must depend only on `i`
/// (plus captured immutable state) — then the output is identical at any
/// thread count. A panicking job is re-raised on the calling thread, a
/// clean unwind rather than a cross-thread abort.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (outcomes, _) = isolated_map(n, threads, |i| Ok::<T, std::convert::Infallible>(f(i)));
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(v) => v,
            Err(JobError::Err(e)) => match e {},
            Err(JobError::Panic(p)) => panic!("{p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Run `body` with the default panic hook silenced: the panics in these
    /// tests are deliberate and their backtraces would pollute the output.
    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        // The hook is process-wide and tests run in parallel: two swaps
        // interleaved would leave the silent hook installed for good.
        static HOOK: Mutex<()> = Mutex::new(());
        let _one_at_a_time = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(prev);
        out
    }

    /// The first failure, the way `mpibench` and `dag.rs` ask for it.
    fn first_failure<T, E>(outcomes: Vec<Result<T, JobError<E>>>) -> Result<Vec<T>, JobError<E>> {
        outcomes.into_iter().collect()
    }

    /// Jobs 2 and 7 panic, 3 and 8 fail, the rest succeed.
    fn mixed(i: usize) -> Result<usize, String> {
        match i % 5 {
            2 => panic!("boom at {i}"),
            3 => Err(format!("err at {i}")),
            _ => Ok(i * 10),
        }
    }

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let serial = parallel_map(37, 1, |i| i * i);
        assert_eq!(serial, (0..37).map(|i| i * i).collect::<Vec<_>>());
        for threads in [2, 3, 4, 8] {
            assert_eq!(parallel_map(37, threads, |i| i * i), serial);
        }
    }

    #[test]
    fn errors_report_the_lowest_failing_index() {
        // ... and a failure stops neither the serial loop nor a worker: the
        // same jobs run at every thread count.
        for threads in [1, 2, 4, 8] {
            let ran = Mutex::new(Vec::new());
            let (outcomes, _) = isolated_map(100, threads, |i| {
                ran.lock().unwrap().push(i);
                if i % 7 == 3 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(first_failure(outcomes).unwrap_err(), JobError::Err(3));
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert_eq!(ran, (0..100).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn panicking_job_surfaces_err_not_abort() {
        for threads in [1usize, 4] {
            let (outcomes, _) = quietly(|| isolated_map(8, threads, |i| mixed(i + 5)));
            let expected = ReplicaPanic {
                index: Some(2),
                message: "boom at 7".to_string(),
            };
            assert_eq!(
                first_failure(outcomes).unwrap_err(),
                JobError::Panic(expected.clone())
            );
            // The infallible map re-raises it on the calling thread.
            let rows = quietly(|| catch_unwind(|| parallel_map(8, threads, |i| mixed(i + 5).ok())));
            assert_eq!(panic_message(&*rows.unwrap_err()), expected.to_string());
        }
    }

    #[test]
    fn panic_beats_error_when_it_has_the_lower_index() {
        for threads in [1usize, 4] {
            let (outcomes, _) = quietly(|| isolated_map(10, threads, mixed));
            match first_failure(outcomes).unwrap_err() {
                JobError::Panic(p) => assert_eq!(p.index, Some(2)),
                other => panic!("job 2 panics before job 3 fails, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(5), 5);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn replica_seeds_match_the_serial_convention() {
        assert_eq!(replica_seed(10, 0), 10);
        assert_eq!(replica_seed(10, 3), 13);
        assert_eq!(replica_seed(u64::MAX, 1), 0, "wrapping, not saturating");
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn profile_accounts_for_every_job() {
        for threads in [1usize, 3] {
            let (out, profile) = isolated_map(25, threads, Ok::<_, ()>);
            assert_eq!(out.len(), 25);
            assert_eq!(profile.total_jobs(), 25);
            assert_eq!(profile.workers.len(), threads.min(25));
            assert!(profile.wall_secs >= 0.0);
            assert!(profile.busy_secs() >= 0.0);
            let u = profile.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
            // Replicas, not pool jobs: two lane groups of eight and three
            // stragglers are five jobs and nineteen replicas.
            let groups = [0..8, 8..16, 16..17, 17..18, 18..19];
            let (out, profile) = isolated_groups_profiled(&groups, threads, |group| {
                group.map(|i| isolated(i, || Ok::<_, ()>(i))).collect()
            });
            assert_eq!(first_failure(out).unwrap(), (0..19).collect::<Vec<_>>());
            assert_eq!(profile.total_jobs(), 19);
            assert_eq!(profile.workers.len(), threads);
        }
    }

    #[test]
    fn profile_on_error_still_reports_lowest_index() {
        let (outcomes, profile) = isolated_map(10, 4, |i| if i >= 4 { Err(i) } else { Ok(i) });
        assert_eq!(profile.total_jobs(), 10, "failed jobs still counted");
        assert_eq!(first_failure(outcomes).unwrap_err(), JobError::Err(4));
    }

    #[test]
    fn isolated_map_survives_panicking_jobs() {
        for threads in [1usize, 4] {
            let (out, profile) = quietly(|| isolated_map(12, threads, mixed));
            assert_eq!(out.len(), 12);
            assert_eq!(profile.total_jobs(), 12, "panicked jobs still counted");
            // Every worker outlived the panics it caught.
            assert_eq!(profile.workers.len(), threads);
            for (i, r) in out.iter().enumerate() {
                match (i % 5, r) {
                    (2, Err(JobError::Panic(p))) => {
                        assert_eq!(p.index, Some(i));
                        assert!(p.message.contains(&format!("boom at {i}")));
                    }
                    (3, Err(JobError::Err(m))) => assert!(m.contains(&format!("err at {i}"))),
                    (_, Ok(v)) => assert_eq!(*v, i * 10),
                    other => panic!("index {i}: unexpected outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn harness_level_failure_fails_every_index() {
        // A group job that unwinds outside `isolated` is the harness
        // failing, not a replica: no index can be blamed, so all of them
        // fail alike and nothing reaches the caller as a panic.
        let groups = [0..2, 2..4, 4..6];
        for threads in [1usize, 3] {
            let (out, profile) = quietly(|| {
                isolated_groups_profiled(&groups, threads, |group| {
                    assert!(group.start != 2, "group job fell over");
                    group.map(Ok::<_, JobError<()>>).collect()
                })
            });
            assert_eq!(out.len(), 6);
            assert_eq!(profile, ReplicateProfile::default());
            for r in out {
                match r {
                    Err(JobError::Panic(p)) => {
                        assert_eq!(p.index, None);
                        assert!(p.message.contains("group job fell over"), "{p}");
                    }
                    other => panic!("expected a harness failure, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_profile_is_harmless() {
        let p = ReplicateProfile::default();
        assert_eq!(p.total_jobs(), 0);
        assert_eq!(p.utilization(), 0.0);
    }

    #[test]
    fn thread_budget_splits_without_oversubscribing() {
        let b = ThreadBudget::new(16);
        assert_eq!(b.total(), 16);
        // 8 outer workers × 2 inner workers = exactly the budget.
        assert_eq!(b.inner(8, 8), 2);
        // The inner level never exceeds the request...
        assert_eq!(b.inner(2, 3), 3);
        assert_eq!(b.inner(1, 4), 4);
        // ...and a disabled inner level stays disabled.
        assert_eq!(b.inner(8, 0), 0);
    }

    #[test]
    fn thread_budget_never_starves_a_job() {
        // An outer pool wider than the budget still leaves each job one
        // inner worker — `outer × inner` is then exactly `outer`, the
        // width the user explicitly asked for.
        let b = ThreadBudget::new(4);
        assert_eq!(b.inner(8, 8), 1);
        assert_eq!(b.inner(100, 2), 1);
    }

    #[test]
    fn thread_budget_outer_honours_requests_and_job_counts() {
        let b = ThreadBudget::new(4);
        // Explicit request honoured verbatim (the `--threads` contract)…
        assert_eq!(b.outer(8, 100), 8);
        // …but never wider than the job count.
        assert_eq!(b.outer(8, 3), 3);
        // `0` = all cores.
        assert_eq!(b.outer(0, usize::MAX), available_threads());
        assert!(b.outer(0, 1) == 1);
    }

    #[test]
    fn thread_budget_product_is_bounded() {
        // The invariant the regression guards: for any request pair, the
        // spawned worker product stays within max(budget, outer).
        for total in [1usize, 2, 4, 8, 64] {
            let b = ThreadBudget::new(total);
            for outer_req in [1usize, 2, 7, 8, 33] {
                for inner_req in [1usize, 2, 8, 19] {
                    let outer = b.outer(outer_req, 1000);
                    let inner = b.inner(outer, inner_req);
                    assert!(
                        outer * inner <= b.total().max(outer),
                        "budget {total}: {outer_req}×{inner_req} spawned {outer}×{inner}"
                    );
                }
            }
        }
    }
}
