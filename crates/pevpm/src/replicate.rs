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
//! - results are written back in replica-index order, so aggregation sees
//!   the exact sequence the serial loop would have produced;
//! - on error, the error of the **lowest-index** failing replica is
//!   reported — the one the serial loop would have hit first.
//!
//! Thread counts are expressed as `0 = use all available parallelism`;
//! `1` forces the serial path.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
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

/// Shared worker budget for nested parallelism: an outer replication pool
/// whose jobs each run an inner DAG-scheduled evaluation
/// (`--threads × --eval-threads`). An explicit outer width is honoured
/// verbatim and the inner scheduler gets the per-job share of the total,
/// so the two levels combined never spawn more than
/// `max(budget, outer)` workers. Capping the inner level is
/// result-neutral: DAG predictions are bitwise identical at any worker
/// count `>= 1`.
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

/// Map `f` over `0..n` on up to `threads` worker threads, returning the
/// results in index order. `f(i)` must depend only on `i` (plus captured
/// immutable state) — then the output is identical at any thread count.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_parallel_map(n, threads, |i| Ok::<T, std::convert::Infallible>(f(i))) {
        Ok(v) => v,
        Err(JobError::Err(e)) => match e {},
        // Infallible jobs can still panic; re-raise on the caller thread
        // (a clean unwind, never a cross-thread abort).
        Err(JobError::Panic(p)) => panic!("{p}"),
    }
}

/// [`parallel_map`] for fallible jobs. Returns the first (lowest-index)
/// failure if any job fails, matching what a serial loop would report; a
/// panicking job surfaces as [`JobError::Panic`] rather than unwinding
/// through (or aborting) the harness.
pub fn try_parallel_map<T, E, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, JobError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_parallel_map_profiled(n, threads, f).map(|(out, _)| out)
}

/// Run `job` as replica `i` under [`catch_unwind`], mapping both failure
/// modes into [`JobError`]: the panic-isolation primitive every map in
/// this module is built on.
pub fn isolated<T, E>(i: usize, job: impl FnOnce() -> Result<T, E>) -> Result<T, JobError<E>> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(r) => r.map_err(JobError::Err),
        Err(payload) => Err(JobError::Panic(ReplicaPanic {
            index: Some(i),
            message: panic_message(payload),
        })),
    }
}

/// [`try_parallel_map`] that additionally reports a [`ReplicateProfile`]:
/// per-worker replica counts and busy wall time. Profiling costs two
/// `Instant::now` calls per replica — negligible against any real
/// evaluation — and does not affect results (replica seeding is
/// index-derived, never time-derived).
pub fn try_parallel_map_profiled<T, E, F>(
    n: usize,
    threads: usize,
    f: F,
) -> Result<(Vec<T>, ReplicateProfile), JobError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_parallel_map_weighted(n, threads, |_| 1, f)
}

/// [`try_parallel_map_profiled`] where job `i` stands for `weight(i)`
/// replicas: [`WorkerStat::jobs`] counts replicas, so a profile reads the
/// same whether replicas ran one per job or several.
fn try_parallel_map_weighted<T, E, F>(
    n: usize,
    threads: usize,
    weight: impl Fn(usize) -> usize + Sync,
    f: F,
) -> Result<(Vec<T>, ReplicateProfile), JobError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    let batch_start = Instant::now();
    if threads <= 1 || n <= 1 {
        let mut stat = WorkerStat::default();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            let r = isolated(i, || f(i));
            stat.busy_secs += t0.elapsed().as_secs_f64();
            stat.jobs += weight(i);
            out.push(r?);
        }
        let profile = ReplicateProfile {
            workers: vec![stat],
            wall_secs: batch_start.elapsed().as_secs_f64(),
        };
        return Ok((out, profile));
    }

    // One worker's output: its stats plus the (index, result) pairs it ran.
    // Each job runs under `catch_unwind`, so a panicking job is recorded in
    // its slot as a value and the worker thread itself never unwinds —
    // `join()` below cannot fail for a job-level panic.
    type Bucket<T, E> = (WorkerStat, Vec<(usize, Result<T, JobError<E>>)>);
    let next = AtomicUsize::new(0);
    let buckets: Vec<Bucket<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut stat = WorkerStat::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        local.push((i, isolated(i, || f(i))));
                        stat.busy_secs += t0.elapsed().as_secs_f64();
                        stat.jobs += weight(i);
                    }
                    (stat, local)
                })
            })
            .collect();
        let mut buckets = Vec::with_capacity(handles.len());
        for h in handles {
            match h.join() {
                Ok(b) => buckets.push(b),
                // Unreachable for job panics (caught above); covers panics
                // in the worker's own bookkeeping or drop glue.
                Err(payload) => {
                    return Err(JobError::Panic(ReplicaPanic {
                        index: None,
                        message: panic_message(payload),
                    }))
                }
            }
        }
        Ok(buckets)
    })?;

    let wall_secs = batch_start.elapsed().as_secs_f64();
    let mut slots: Vec<Option<Result<T, JobError<E>>>> = (0..n).map(|_| None).collect();
    let mut workers = Vec::with_capacity(buckets.len());
    for (stat, bucket) in buckets {
        workers.push(stat);
        for (i, r) in bucket {
            slots[i] = Some(r);
        }
    }
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(r) => out.push(r?),
            // Every index in 0..n is claimed exactly once by the atomic
            // counter; a hole means the harness itself misbehaved.
            None => {
                return Err(JobError::Panic(ReplicaPanic {
                    index: Some(i),
                    message: "replication index not produced".to_string(),
                }))
            }
        }
    }
    Ok((out, ReplicateProfile { workers, wall_secs }))
}

/// [`try_parallel_map_profiled`] with per-job panic isolation: every job
/// runs under [`catch_unwind`], so one panicking replication neither
/// aborts the process nor poisons its worker — the worker moves on to the
/// next job. Returns **all** per-index outcomes (in index order), letting
/// the caller apply a quorum policy instead of failing on the first
/// error. A default-hook suppression is *not* installed: the panic
/// message still prints to stderr, which is the wanted diagnostic.
pub fn isolated_map_profiled<T, E, F>(
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

/// [`isolated_map_profiled`] over jobs that each produce the outcomes of a
/// *group* of consecutive replica indices (the lock-step lane groups of
/// [`crate::vm::monte_carlo`]). `groups` must tile `0..n` (or any index
/// range) in order; `f(group)` returns one outcome per index of the group
/// and does its own per-replica isolation with [`isolated`]. Outcomes come
/// back flattened in index order and the profile counts replicas, not
/// groups.
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
    let job = |g: usize| Ok::<_, std::convert::Infallible>(f(groups[g].clone()));
    match try_parallel_map_weighted(groups.len(), threads, |g| groups[g].len(), job) {
        Ok((outcomes, profile)) => (outcomes.into_iter().flatten().collect(), profile),
        Err(JobError::Err(e)) => match e {},
        // Harness-level failure (outside any replica's isolation): report
        // it for every index so the quorum policy sees a fully-failed
        // batch instead of the process dying.
        Err(JobError::Panic(p)) => (
            groups
                .iter()
                .flat_map(|group| group.clone())
                .map(|_| Err(JobError::Panic(p.clone())))
                .collect(),
            ReplicateProfile::default(),
        ),
    }
}

/// [`isolated_map_profiled`] with a per-job observer: after job `i`
/// finishes — success, error, or caught panic — `observe(i, busy_secs)`
/// runs on the worker thread that executed it. The observer is a
/// telemetry hook (per-job latency histograms, span stage callbacks in a
/// long-lived service) and cannot influence results: it sees only the
/// index and the job's wall time, after the outcome is already decided.
pub fn isolated_map_observed<T, E, F, O>(
    n: usize,
    threads: usize,
    f: F,
    observe: O,
) -> (Vec<Result<T, JobError<E>>>, ReplicateProfile)
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    O: Fn(usize, f64) + Sync,
{
    isolated_map_profiled(n, threads, move |i| {
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| f(i)));
        observe(i, t0.elapsed().as_secs_f64());
        match r {
            Ok(v) => v,
            // Re-raise so the isolation layer classifies the panic with
            // its index; the observer above has already run.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let serial = parallel_map(37, 1, |i| i * i);
        for threads in [2, 3, 4, 8] {
            assert_eq!(parallel_map(37, threads, |i| i * i), serial);
        }
    }

    #[test]
    fn errors_report_the_lowest_failing_index() {
        for threads in [1, 4] {
            let r: Result<Vec<usize>, JobError<usize>> =
                try_parallel_map(100, threads, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
            assert_eq!(r.unwrap_err(), JobError::Err(3));
        }
    }

    #[test]
    fn panicking_job_surfaces_err_not_abort() {
        // Silence the default panic hook: the panic is deliberate.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            let r = try_parallel_map(8, threads, |i| {
                if i == 5 {
                    panic!("deliberate panic at {i}");
                }
                Ok::<_, String>(i)
            });
            match r {
                Err(JobError::Panic(p)) => {
                    assert_eq!(p.index, Some(5));
                    assert!(p.message.contains("deliberate panic at 5"), "{}", p.message);
                }
                other => panic!("expected structured panic error, got {other:?}"),
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn panic_beats_error_when_it_has_the_lower_index() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            let r = try_parallel_map(10, threads, |i| match i {
                2 => panic!("boom"),
                4 => Err("late error".to_string()),
                _ => Ok(i),
            });
            assert_eq!(
                r.unwrap_err(),
                JobError::Panic(ReplicaPanic {
                    index: Some(2),
                    message: "boom".to_string(),
                })
            );
        }
        std::panic::set_hook(prev);
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
            let (out, profile) = try_parallel_map_profiled(25, threads, Ok::<_, ()>).unwrap();
            assert_eq!(out.len(), 25);
            assert_eq!(profile.total_jobs(), 25);
            assert_eq!(profile.workers.len(), threads.min(25));
            assert!(profile.wall_secs >= 0.0);
            assert!(profile.busy_secs() >= 0.0);
            let u = profile.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn profile_on_error_still_reports_lowest_index() {
        let r = try_parallel_map_profiled(10, 4, |i| if i >= 4 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), JobError::Err(4));
    }

    #[test]
    fn isolated_map_survives_panicking_jobs() {
        // Silence the default panic hook for this test: the panics are
        // intentional and the backtraces would pollute test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            let (out, profile) = isolated_map_profiled(12, threads, |i| {
                if i % 5 == 2 {
                    panic!("boom at {i}");
                }
                if i % 5 == 3 {
                    return Err(format!("err at {i}"));
                }
                Ok(i * 10)
            });
            assert_eq!(out.len(), 12);
            assert_eq!(profile.total_jobs(), 12, "panicked jobs still counted");
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
        std::panic::set_hook(prev);
    }

    #[test]
    fn observer_sees_every_job_including_panicking_ones() {
        use std::sync::Mutex;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            let seen = Mutex::new(vec![false; 12]);
            let (out, _) = isolated_map_observed(
                12,
                threads,
                |i| {
                    if i % 5 == 2 {
                        panic!("boom at {i}");
                    }
                    Ok::<_, String>(i * 10)
                },
                |i, busy| {
                    assert!(busy >= 0.0);
                    seen.lock().unwrap()[i] = true;
                },
            );
            assert!(
                seen.lock().unwrap().iter().all(|&s| s),
                "every job observed"
            );
            for (i, r) in out.iter().enumerate() {
                match (i % 5, r) {
                    (2, Err(JobError::Panic(p))) => assert_eq!(p.index, Some(i)),
                    (_, Ok(v)) => assert_eq!(*v, i * 10),
                    other => panic!("index {i}: unexpected outcome {other:?}"),
                }
            }
        }
        std::panic::set_hook(prev);
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
