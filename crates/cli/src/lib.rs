//! `pevpm` — command-line interface to the MPIBench/PEVPM reproduction.
//!
//! ```text
//! pevpm bench    --nodes N [--ppn P] [--machine perseus|gigabit|lowlatency]
//!                [--pattern ring|halfsplit|adjacent] [--sizes 512,1024,...]
//!                [--reps R] [--replicas K] [--threads T] [--seed S]
//!                --out DB.dist
//! pevpm inspect  --db DB.dist
//! pevpm fit      --db DB.dist --out FITTED.dist
//! pevpm annotate FILE.c
//! pevpm predict  --model FILE.c --db DB.dist --procs N
//!                [--mode dist|avg|min] [--pingpong] [--param k=v ...]
//!                [--seed S] [--reps R] [--threads T] [--eval-threads E]
//!                [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! pevpm serve    --db [NAME=]DB.dist ... [--addr HOST:PORT] [--threads T]
//!                [--eval-threads E]
//!                [--http HOST:PORT] [--log-out FILE] [--log-slow-ms MS]
//! pevpm client   (--addr HOST:PORT | --port-file PATH) --model FILE.c --procs N
//! pevpm trace    --nodes N [--ppn P] [--xsize X] [--iters I]
//!                [--db DB.dist] [--trace-out TRACE.json]
//! ```
//!
//! Command implementations return their printable output so they are unit
//! testable; `main.rs` is a thin shell.

// The CLI fronts untrusted input (files, flags): every failure must map
// to a structured CliError with an exit code, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;

use args::{ArgError, Args};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_dist::{io as dist_io, CommDist, CompileOptions, DistTable, Op};
use pevpm_mpibench::{run_p2p_reps, Direction, P2pConfig, PairPattern};
use pevpm_mpisim::{ClusterConfig, FaultPlan, Placement, ProtocolConfig, WorldConfig};
use pevpm_obs::{diag, Registry, Verbosity};
use pevpm_serve::plan::{self, EvalOutcome, PlanError, PlanErrorKind, PredictRequest};
use pevpm_serve::{chaos, Client, ClientConfig, ServeConfig, Server, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// SIGTERM handling for `pevpm serve`: a minimal async-signal-safe
/// handler (one atomic store — the poll-based equivalent of the classic
/// self-pipe trick) that flips a flag the daemon's accept loop polls, so
/// `kill <pid>` triggers the same graceful drain as a `shutdown` frame.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::AtomicBool;

    /// Set by the handler; polled by [`pevpm_serve::Server::run_until`].
    pub static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_signum: i32) {
        // Only an atomic store: the full async-signal-safe budget.
        FLAG.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Install the handler. Best effort: on failure the daemon still
    /// runs, it just won't drain gracefully on SIGTERM.
    pub fn install() {
        extern "C" {
            // POSIX `signal(2)`; the CLI avoids a libc crate dependency.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod sigterm {
    use std::sync::atomic::AtomicBool;

    /// Never set on non-unix platforms (no SIGTERM to handle).
    pub static FLAG: AtomicBool = AtomicBool::new(false);

    /// No-op off unix.
    pub fn install() {}
}

/// Exit code for usage errors (bad flags, unknown commands/machines).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for input/model errors (unreadable or invalid files,
/// failed runs, replication failures).
pub const EXIT_INPUT: i32 = 3;
/// Exit code for budget-exceeded / deadlock terminations: the model was
/// well-formed but evaluation had to be aborted.
pub const EXIT_BUDGET: i32 = 4;

/// CLI error type: a message to print on stderr plus the process exit
/// code mandated by the documented contract (0 ok, 2 usage, 3
/// input/model error, 4 budget exceeded or deadlock).
#[derive(Debug)]
pub struct CliError {
    /// Message printed on stderr.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(m: impl Into<String>) -> Self {
        CliError {
            message: m.into(),
            code: EXIT_USAGE,
        }
    }

    /// An input or model error (exit code 3).
    pub fn input(m: impl Into<String>) -> Self {
        CliError {
            message: m.into(),
            code: EXIT_INPUT,
        }
    }

    /// A budget-exceeded / deadlock termination (exit code 4).
    pub fn budget(m: impl Into<String>) -> Self {
        CliError {
            message: m.into(),
            code: EXIT_BUDGET,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::usage(e.0)
    }
}

impl From<PlanError> for CliError {
    fn from(e: PlanError) -> Self {
        CliError {
            message: e.message,
            code: match e.kind {
                PlanErrorKind::Usage => EXIT_USAGE,
                PlanErrorKind::Input => EXIT_INPUT,
                PlanErrorKind::Budget => EXIT_BUDGET,
            },
        }
    }
}

fn err<T>(m: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::usage(m))
}

/// Map an evaluation failure onto the exit-code contract: deadlocks and
/// budget aborts are *terminations* (4); everything else — unknown
/// parameters, missing distributions, replication quorum failures — is a
/// model/input error (3).
fn eval_error(e: pevpm::vm::PevpmError) -> CliError {
    use pevpm::vm::PevpmError;
    match &e {
        PevpmError::Deadlock { .. } | PevpmError::Budget(_) => {
            CliError::budget(format!("evaluation failed: {e}"))
        }
        _ => CliError::input(format!("evaluation failed: {e}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
pevpm — MPI communication benchmarking and performance modelling (reproduction)

USAGE:
  pevpm bench    --nodes N [--ppn P] [--machine perseus|gigabit|lowlatency|ideal]
                 [--pattern ring|halfsplit|adjacent] [--sizes 512,1024,...]
                 [--reps R] [--replicas K] [--threads T] [--seed S]
                 [--faults PLAN.toml] --out DB.dist
      Run MPIBench on a simulated cluster and save the distribution database.
      --replicas K merges K independent derived-seed runs; --threads T fans
      replicas over T worker threads (0 = all cores, 1 = serial) with
      bitwise-identical output at any thread count. --faults degrades the
      simulated network with a TOML fault scenario (random frame loss,
      per-link degradation, link flaps, background traffic, node pauses) so
      the same sweep can be re-measured on an unhealthy machine.

  pevpm inspect  --db DB.dist
      Summarise a distribution database.

  pevpm fit      --db DB.dist --out FITTED.dist
      Replace histograms by best-fit parametric models (compact database).

  pevpm annotate FILE.c
      Parse `// PEVPM` annotations and print the extracted model.

  pevpm predict  --model FILE.c --db DB.dist --procs N [--mode dist|avg|min]
                 [--pingpong] [--exact-quantiles] [--param k=v ...] [--seed S]
                 [--reps R] [--threads T] [--eval-threads E] [--quorum K]
                 [--precision P] [--min-reps N] [--max-reps N] [--antithetic]
                 [--max-steps N] [--max-virtual-secs S]
                 [--trace-out TRACE.json] [--metrics-out M.json]
      Evaluate the annotated program's PEVPM model against a database.
      --reps R > 1 runs a Monte-Carlo batch of R derived-seed replications
      (mean +/- stderr); --threads T as for bench. --eval-threads E >= 1
      parallelises *inside* each evaluation: the model program is
      SCC-decomposed into independent rank components scheduled
      concurrently, with bitwise-identical predictions at every E (0, the
      default, keeps the classic serial engine). --threads and
      --eval-threads share one core budget, so R x E replica-workers never
      oversubscribe the host. --quorum K lets the
      batch complete when at least K replications succeed: failed
      replications are listed in the report and counted in the
      mc.replica_failures metric instead of aborting. --precision P
      switches the batch to adaptive (sequential-stopping) replication:
      replications run in the usual derived-seed order until the 95%
      Student-t confidence half-width on the predicted mean falls to P of
      the mean, bounded by --min-reps (default 4) and --max-reps (default
      64); the report states the rep count chosen and the achieved
      half-width, and warns if the replication stream drifts
      (non-stationarity). Adaptive runs are deterministic for a given
      (seed, precision); fixed --reps stays bitwise-identical with or
      without this feature built. --antithetic pairs replications on
      mirrored random streams (replica 2k and 2k+1 share a seed, the odd
      one sees 1-u for every quantile draw u), a variance-reduction
      device for smooth models. --max-steps /
      --max-virtual-secs bound each evaluation (directive executions /
      simulated seconds); a replication over budget fails with a
      structured diagnostic (exit 4 unless --quorum absorbs it). --trace-out writes the
      predicted timeline as Chrome trace_event JSON (open in
      chrome://tracing or https://ui.perfetto.dev); --metrics-out dumps the
      engine's metrics registry (sweep/match counts, contention and
      scoreboard-occupancy histograms, per-directive losses) as JSON.
      --exact-quantiles answers fitted-distribution inverse-CDF queries by
      exact bisection instead of the compiled quantile lookup table
      (slower; bounds the LUT's <=0.1% relative interpolation error).
      --trace-out also carries a pid-4 service-stages track with the
      prediction's validate/model/compile/eval/render stage windows.

  pevpm serve    --db [NAME=]DB.dist ... [--addr HOST:PORT] [--threads T]
                 [--eval-threads E] [--conns C] [--io-timeout-ms MS]
                 [--inflight N] [--queue N] [--shed-retry-ms MS]
                 [--drain-ms MS]
                 [--max-reps N] [--max-steps N] [--max-virtual-secs S]
                 [--port-file PATH] [--metrics-out M.json]
                 [--http HOST:PORT] [--log-out FILE] [--log-slow-ms MS]
                 [--span-cap N]
      Start the long-running prediction daemon. Every --db table is loaded
      and content-hashed once at startup; parsed models and compiled
      timing models are cached across requests, so a stream of what-if
      questions pays each compilation exactly once. Requests arrive as
      length-prefixed JSON frames (see DESIGN.md \"Prediction service\")
      and are answered deterministically: the same request gets the same
      bytes back whether the cache is cold, warm, or the request rides in
      a batch. --addr defaults to 127.0.0.1:0 (OS-assigned port);
      --port-file writes the bound address for scripts. --max-reps
      rejects fixed-reps requests asking for more replications
      (admission control) and tightens adaptive requests' rep ceiling to
      the server cap (a tighter request cap wins);
      --max-steps / --max-virtual-secs cap every evaluation's run budget
      (a tighter request cap wins). A `shutdown` request exits the loop;
      --metrics-out then dumps the server's metrics registry (request,
      cache and panic counters) as metrics JSON. --http starts the
      observability sidecar serving Prometheus text on /metrics, a
      liveness document on /healthz, and the most recent request spans
      on /spans?last=N; with --port-file, the sidecar's bound address is
      written as the port file's second line. --log-out / --log-slow-ms
      enable the structured request log: one JSON line per finished
      request (id, op, stage windows, cache hits, outcome) to FILE or
      stderr, skipping requests faster than MS milliseconds. --span-cap
      bounds the in-memory span ring (default 1024). Telemetry is
      observational only: responses are byte-identical with it on or off.
      --conns C serves up to C connections concurrently (default 4)
      through a fixed worker pool; responses stay bitwise identical at
      every C, and conns x reps-pool x eval-threads shares one host core
      budget. --io-timeout-ms puts read/write deadlines on every
      protocol socket (default 30000; 0 disables): an idle peer is
      quietly evicted, a peer stalled mid-frame gets a structured
      \"timeout\" error and a closed socket. --inflight N bounds
      concurrently-evaluating predictions (default: the pool width) with
      a --queue N wait queue (default: same as --inflight); past both
      the daemon sheds with an \"overloaded\" response carrying a
      retry_after_ms hint (--shed-retry-ms, default 100) instead of
      queueing unboundedly. On `shutdown` or SIGTERM the daemon drains
      gracefully: stops accepting, lets in-flight requests finish for up
      to --drain-ms (default 2000), flushes telemetry, then exits.

  pevpm client   (--addr HOST:PORT | --port-file PATH) [--stats] [--ping]
                 [--shutdown] [--batch K] [--crn] [--table NAME]
                 [--connect-timeout-ms MS] [--retries N]
                 [--retry-backoff-ms MS] [--chaos MODE|all]
                 [predict flags: --model FILE.c --procs N ...]
      Send requests to a running daemon and print one response JSON line
      each. With --model, sends the same prediction `predict` would run
      (accepts the same flags); --batch K sends it as one batch of K
      identical items. --crn marks the batch for common random numbers:
      the daemon evaluates every item of the batch from one shared base
      seed, so what-if arms differ only by the modelled change, not by
      sampling noise (paired comparison). --stats fetches the server's
      metrics registry
      (cache hit/miss/compile counters included) plus span-derived
      per-stage p50/p95/p99 latencies, rendered as a table on stderr
      (stdout stays one machine-parseable JSON line); --shutdown asks the
      daemon to exit. Operations run in order: predict, stats, shutdown.
      Transport policy: --connect-timeout-ms (default 5000) bounds each
      connect attempt so a blackholed address fails fast (exit 3);
      --retries N (default 3) retries connect-refused/timed-out attempts
      and \"overloaded\" responses with deterministic jittered
      exponential backoff from --retry-backoff-ms (default 50). Failures
      after a request frame was sent are never retried: the daemon may
      have executed the request, and resending would break exactly-once
      batch accounting. --chaos runs fault injection against the daemon
      (modes: truncated-prefix, stalled-write, half-open, oversized,
      garbage, slow-read, or all), printing one report JSON line per
      mode and exiting 3 if the daemon stops answering; pass the
      daemon's --io-timeout-ms so stall modes wait just long enough.

  pevpm trace    --nodes N [--ppn P] [--machine perseus|gigabit|lowlatency|ideal]
                 [--xsize X] [--iters I] [--serial-ms MS] [--seed S]
                 [--db DB.dist] [--faults PLAN.toml] [--exact-quantiles]
                 [--trace-out TRACE.json]
      Run the Jacobi example on the simulated cluster with tracing enabled
      and print the per-rank compute/send/blocked breakdown. --trace-out
      writes a merged Chrome trace with the PEVPM *predicted* timeline
      (pid 1) next to the *measured* per-rank timeline (pid 2) and, when
      --faults is given, injected-fault marks (pid 3); the prediction
      samples --db when given, else an analytic Hockney model.

  pevpm fuzz     [--mode differential|metamorphic|ks|diagnostics|dag|adaptive|all]
                 [--programs N] [--seed S] [--alpha A] [--reps R]
                 [--ks-runs K] [--bench-reps B] [--out DIR]
                 [--replay FILE.model]
      Differential conformance fuzzing: generate N random well-formed
      model programs per mode and gate them with the oracle hierarchy
      (bitwise interpreted/compiled/unfolded agreement, two-sample KS at
      significance A against mpisim co-simulation, size-scaling and
      empty-fault-plan metamorphic relations, deadlock diagnostics,
      DAG-scheduler thread-count invariance, adaptive-stopping
      agreement with fixed max-reps batches).
      Failing programs are shrunk to minimal counterexamples; --out DIR
      writes each as a replayable .model artifact. --replay re-runs one
      artifact under its recorded oracle and reports whether it still
      reproduces. Counterexamples (or a reproducing replay) exit 3.

GLOBAL FLAGS:
  -q / --quiet     suppress informational stderr output
  --verbose        enable debug stderr output

`bench` also accepts --trace-out (Chrome trace of one benchmark replica)
and --metrics-out (per-size latency histograms as metrics JSON).

EXIT CODES:
  0  success
  2  usage error (bad flags, unknown command/machine)
  3  input or model error (unreadable/invalid files, failed runs)
  4  evaluation terminated: run budget exceeded or deadlock detected
";

/// Boolean flags that never consume a following token.
const BOOL_FLAGS: &[&str] = &[
    "pingpong",
    "exact-quantiles",
    "verbose",
    "quiet",
    "help",
    "stats",
    "ping",
    "shutdown",
    "antithetic",
    "crn",
];

/// Dispatch a full argument vector (without the program name).
pub fn run(tokens: Vec<String>) -> Result<String, CliError> {
    // The parser only understands `--long` options; accept the
    // conventional short spellings for the global verbosity flags.
    let tokens: Vec<String> = tokens
        .into_iter()
        .map(|t| match t.as_str() {
            "-q" => "--quiet".to_string(),
            "-v" => "--verbose".to_string(),
            _ => t,
        })
        .collect();
    let args = Args::parse_with_flags(tokens, BOOL_FLAGS)?;
    diag::set_verbosity(if args.has("quiet") {
        Verbosity::Quiet
    } else if args.has("verbose") {
        Verbosity::Verbose
    } else {
        Verbosity::Normal
    });
    let Some(cmd) = args.positional().first().map(|s| s.as_str()) else {
        return err(USAGE);
    };
    match cmd {
        "bench" => cmd_bench(&args),
        "inspect" => cmd_inspect(&args),
        "fit" => cmd_fit(&args),
        "annotate" => cmd_annotate(&args),
        "predict" => cmd_predict(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "trace" => cmd_trace(&args),
        "fuzz" => cmd_fuzz(&args),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn write_text(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::input(format!("cannot write {path}: {e}")))
}

/// Machines selectable with `--machine`, in the order shown to the user.
pub const MACHINES: &[&str] = &["perseus", "gigabit", "lowlatency", "ideal"];

/// Resolve `--machine` (default `perseus`). An unknown machine is a hard
/// usage error listing the valid names — never a silent fallback.
fn resolve_machine(args: &Args) -> Result<&'static str, CliError> {
    let m = args.get("machine").unwrap_or("perseus");
    MACHINES.iter().copied().find(|k| *k == m).ok_or_else(|| {
        CliError::usage(format!(
            "unknown machine {m:?}; valid machines: {}",
            MACHINES.join(", ")
        ))
    })
}

fn cluster_for(args: &Args, nodes: usize) -> Result<ClusterConfig, CliError> {
    let mut cluster = match resolve_machine(args)? {
        "gigabit" => ClusterConfig::gigabit(nodes),
        "lowlatency" => ClusterConfig::lowlatency(nodes),
        "ideal" => ClusterConfig::ideal(nodes),
        _ => ClusterConfig::perseus(nodes),
    };
    cluster.faults = load_faults(args, &cluster)?;
    Ok(cluster)
}

/// Load and validate a `--faults PLAN.toml` fault scenario. Errors name
/// the file (and line, for parse failures) and exit with code 3.
fn load_faults(args: &Args, cluster: &ClusterConfig) -> Result<Option<FaultPlan>, CliError> {
    let Some(path) = args.get("faults") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let plan = FaultPlan::parse_toml(&text).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    plan.validate(cluster)
        .map_err(|e| CliError::input(format!("{path}: {e}")))?;
    if plan.is_empty() {
        diag::info(&format!("fault plan {path} is empty (no-op)"));
    }
    Ok(Some(plan))
}

fn cmd_bench(args: &Args) -> Result<String, CliError> {
    let nodes: usize = args
        .require("nodes")?
        .parse()
        .map_err(|_| CliError::usage("--nodes must be an integer"))?;
    let ppn: usize = args.get_parsed("ppn", 1)?;
    let reps: usize = args.get_parsed("reps", 60)?;
    let replicas: usize = args.get_parsed("replicas", 1)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let sizes: Vec<u64> = args.get_list("sizes", vec![256, 512, 1024, 2048, 4096])?;
    let machine = resolve_machine(args)?;
    let pattern = match args.get("pattern").unwrap_or("ring") {
        "ring" => PairPattern::Ring,
        "halfsplit" => PairPattern::HalfSplit,
        "adjacent" => PairPattern::Adjacent,
        other => return err(format!("unknown pattern {other:?}")),
    };
    let out = args.require("out")?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");

    diag::info(&format!(
        "benchmarking {nodes}x{ppn} on {machine} ({} sizes, {reps} reps, {replicas} replica(s))",
        sizes.len()
    ));
    let world = WorldConfig {
        cluster: cluster_for(args, nodes)?,
        procs_per_node: ppn,
        placement: Placement::Block,
        protocol: ProtocolConfig::default(),
        seed,
        virtual_deadline: None,
        record_trace: trace_out.is_some(),
    };
    let res = run_p2p_reps(
        &P2pConfig {
            world,
            sizes: sizes.clone(),
            repetitions: reps,
            warmup: (reps / 10).max(2),
            sync_every: 1,
            pattern,
            direction: Direction::Exchange,
            clock: None,
        },
        replicas,
        threads,
    )
    .map_err(|e| CliError::input(format!("benchmark failed: {e}")))?;

    let mut table = DistTable::new();
    res.add_to_table(&mut table, Op::Send, 100);
    dist_io::save_table(&table, Path::new(out))
        .map_err(|e| CliError::input(format!("cannot write {out}: {e}")))?;

    let mut report = format!(
        "benchmarked {nodes}x{ppn} on {machine} ({} messages/size, pattern {:?})\n",
        res.by_size.first().map(|s| s.samples.len()).unwrap_or(0),
        pattern
    );
    for s in &res.by_size {
        report.push_str(&format!(
            "  {:>8} B: min {:>9.1}us avg {:>9.1}us max {:>10.1}us\n",
            s.size,
            s.summary.min().unwrap_or(0.0) * 1e6,
            s.summary.mean().unwrap_or(0.0) * 1e6,
            s.summary.max().unwrap_or(0.0) * 1e6,
        ));
    }
    if let Some(path) = trace_out {
        let traces = res.traces.as_deref().unwrap_or(&[]);
        let chrome = pevpm_mpisim::trace::chrome_trace(traces);
        write_text(path, &chrome.to_json())?;
        report.push_str(&format!(
            "benchmark trace ({} events, first replica) written to {path}\n",
            chrome.len()
        ));
    }
    if let Some(path) = metrics_out {
        let reg = Registry::new();
        reg.counter("bench.replicas").add(replicas as u64);
        for s in &res.by_size {
            reg.counter("bench.samples").add(s.samples.len() as u64);
            let lo = s.summary.min().unwrap_or(0.0) * 1e6;
            let hi = (s.summary.max().unwrap_or(0.0) * 1e6).max(lo + 1e-9);
            let h = reg.histogram(&format!("bench.latency_us.size_{}", s.size), lo, hi, 64);
            for &sample in &s.samples {
                h.record(sample * 1e6);
            }
        }
        write_text(path, &reg.to_json())?;
        report.push_str(&format!("benchmark metrics written to {path}\n"));
    }
    report.push_str(&format!("database written to {out}\n"));
    Ok(report)
}

/// Sampler-compilation options selected on the command line.
///
/// `--exact-quantiles` disables the fitted-distribution quantile LUT and
/// answers every inverse-CDF query by exact bisection — slower, but useful
/// to bound the LUT's (documented, <=0.1% relative) interpolation error.
fn compile_options(args: &Args) -> CompileOptions {
    CompileOptions {
        exact_quantiles: args.has("exact-quantiles"),
    }
}

fn load_db(args: &Args) -> Result<DistTable, CliError> {
    let path = args.require("db")?;
    dist_io::load_table(Path::new(path))
        .map_err(|e| CliError::input(format!("cannot load {path}: {e}")))
}

fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let table = load_db(args)?;
    let mut out = format!("{} entries\n", table.len());
    for (key, dist) in table.iter() {
        let kind = match dist {
            CommDist::Hist(h) => format!("hist[{} bins, {} samples]", h.num_bins(), h.total()),
            CommDist::Fit(f) => format!("fit[{:?}]", f.kind),
            CommDist::Point(_) => "point".to_string(),
        };
        out.push_str(&format!(
            "  {:<10} size {:>8} B  contention {:>4}  min {:>9.1}us  mean {:>9.1}us  {}\n",
            key.op.to_string(),
            key.size,
            key.contention,
            dist.min() * 1e6,
            dist.mean() * 1e6,
            kind
        ));
    }
    Ok(out)
}

fn cmd_fit(args: &Args) -> Result<String, CliError> {
    let table = load_db(args)?;
    let out_path = args.require("out")?;
    let fitted = table.fitted();
    let before = dist_io::write_table(&table).len();
    let after = dist_io::write_table(&fitted).len();
    dist_io::save_table(&fitted, Path::new(out_path))
        .map_err(|e| CliError::input(format!("cannot write {out_path}: {e}")))?;
    Ok(format!(
        "fitted {} entries: {} -> {} bytes ({:.1}x smaller), written to {out_path}\n",
        fitted.len(),
        before,
        after,
        before as f64 / after.max(1) as f64
    ))
}

fn describe_model(model: &pevpm::Model) -> String {
    fn walk(stmts: &[pevpm::Stmt], depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        for s in stmts {
            match s {
                pevpm::Stmt::Loop { count, var, body } => {
                    out.push_str(&format!(
                        "{pad}Loop iterations = {count}{}\n",
                        var.as_ref()
                            .map(|v| format!(", var {v}"))
                            .unwrap_or_default()
                    ));
                    walk(body, depth + 1, out);
                }
                pevpm::Stmt::Runon { branches } => {
                    out.push_str(&format!("{pad}Runon ({} branches)\n", branches.len()));
                    for (cond, b) in branches {
                        out.push_str(&format!("{pad}  when {cond}\n"));
                        walk(b, depth + 2, out);
                    }
                }
                pevpm::Stmt::Message {
                    kind,
                    size,
                    from,
                    to,
                    handle,
                    label,
                } => {
                    out.push_str(&format!(
                        "{pad}Message {kind:?} size = {size}, {from} -> {to}{}{}\n",
                        handle
                            .as_ref()
                            .map(|h| format!(", handle {h}"))
                            .unwrap_or_default(),
                        label
                            .as_ref()
                            .map(|l| format!(" [{l}]"))
                            .unwrap_or_default()
                    ));
                }
                pevpm::Stmt::Wait { handle, .. } => {
                    out.push_str(&format!("{pad}Wait handle = {handle}\n"));
                }
                pevpm::Stmt::Serial { time, machine, .. } => {
                    out.push_str(&format!(
                        "{pad}Serial{} time = {time}\n",
                        machine
                            .as_ref()
                            .map(|m| format!(" on {m}"))
                            .unwrap_or_default()
                    ));
                }
                pevpm::Stmt::Collective { op, size, .. } => {
                    out.push_str(&format!("{pad}Collective {op:?} size = {size}\n"));
                }
            }
        }
    }
    let mut out = String::new();
    walk(&model.stmts, 0, &mut out);
    out
}

fn cmd_annotate(args: &Args) -> Result<String, CliError> {
    let Some(path) = args.positional().get(1) else {
        return err("usage: pevpm annotate FILE.c");
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let model =
        pevpm::parse_annotations(&src).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    Ok(format!(
        "{} directives, free parameters {:?}\n{}",
        model.num_stmts(),
        model.free_variables(),
        describe_model(&model)
    ))
}

/// Build a [`PredictRequest`] from `predict`/`client` flags. `src` is the
/// annotated source (already read from `--model`).
fn predict_request(args: &Args, src: String) -> Result<PredictRequest, CliError> {
    let procs: usize = args
        .require("procs")?
        .parse()
        .map_err(|_| CliError::usage("--procs must be an integer"))?;
    let mut req = PredictRequest::new(src, procs);
    req.mode = args.get("mode").unwrap_or("dist").to_string();
    req.pingpong = args.has("pingpong");
    req.exact_quantiles = args.has("exact-quantiles");
    req.seed = args.get_parsed("seed", 1)?;
    req.reps = args.get_parsed("reps", 1)?;
    req.threads = args.get_parsed("threads", 0)?;
    req.eval_threads = args.get_parsed("eval-threads", 0)?;
    for kv in args.values("param") {
        let Some((k, v)) = kv.split_once('=') else {
            return err(format!("--param expects k=v, got {kv:?}"));
        };
        let v: f64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("--param {k}: bad number {v:?}")))?;
        req.params.push((k.to_string(), v));
    }
    if let Some(q) = args.get("quorum") {
        req.quorum = Some(
            q.parse()
                .map_err(|_| CliError::usage("--quorum must be an integer"))?,
        );
    }
    if let Some(s) = args.get("max-steps") {
        req.max_steps = Some(
            s.parse()
                .map_err(|_| CliError::usage("--max-steps must be an integer"))?,
        );
    }
    if let Some(s) = args.get("max-virtual-secs") {
        req.max_virtual_secs = Some(
            s.parse()
                .map_err(|_| CliError::usage("--max-virtual-secs must be a number"))?,
        );
    }
    if let Some(p) = args.get("precision") {
        req.precision = Some(
            p.parse()
                .map_err(|_| CliError::usage("--precision must be a number"))?,
        );
    }
    if let Some(n) = args.get("min-reps") {
        req.min_reps = Some(
            n.parse()
                .map_err(|_| CliError::usage("--min-reps must be an integer"))?,
        );
    }
    if let Some(n) = args.get("max-reps") {
        req.max_reps = Some(
            n.parse()
                .map_err(|_| CliError::usage("--max-reps must be an integer"))?,
        );
    }
    req.antithetic = args.has("antithetic");
    Ok(req)
}

fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let table = load_db(args)?;
    let src = std::fs::read_to_string(model_path)
        .map_err(|e| CliError::input(format!("cannot read {model_path}: {e}")))?;
    let req = predict_request(args, src)?;

    // One-shot service-stage timing: a private telemetry hub — separate
    // from the --metrics-out engine registry, whose bytes must stay
    // unchanged — feeding the pid-4 "service stages" track in --trace-out.
    let telemetry = Telemetry::standalone();
    let mut timer = telemetry.begin("predict", true);
    timer.set_reps(req.reps);
    timer.set_quorum(req.quorum.is_some());

    let mode = timer.stage("validate", || req.prediction_mode())?;
    let model = timer.stage("model", || plan::parse_model(&req.model_src, model_path))?;
    let timing = timer.stage("compile", || {
        plan::build_timing(&table, mode, req.pingpong, req.compile_options())
    })?;

    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let registry = metrics_out.map(|_| Arc::new(Registry::new()));

    let mut cfg = req.eval_config()?;
    if let Some(reg) = &registry {
        cfg = cfg.with_metrics(reg.clone());
    }
    if trace_out.is_some() {
        cfg = cfg.with_timeline();
    }

    // Write the sinks requested on the command line; returns report lines.
    let dump_sinks = |pred: Option<&pevpm::Prediction>,
                      span: &pevpm_obs::RequestSpan|
     -> Result<String, CliError> {
        let mut extra = String::new();
        if let (Some(path), Some(p)) = (trace_out, pred) {
            let mut chrome = pevpm::trace_export::chrome_trace(p);
            chrome.merge(pevpm_obs::span::chrome_service_track(span));
            write_text(path, &chrome.to_json())?;
            extra.push_str(&format!(
                "predicted timeline ({} spans, incl. service stages) written to {path}\n",
                chrome.len()
            ));
        }
        if let (Some(path), Some(reg)) = (metrics_out, &registry) {
            write_text(path, &reg.to_json())?;
            extra.push_str(&format!("engine metrics written to {path}\n"));
        }
        Ok(extra)
    };

    let effective_reps = req.effective_reps();
    if req.precision.is_some() {
        diag::info(&format!(
            "running adaptive Monte-Carlo replications (up to {effective_reps})..."
        ));
    } else if req.reps > 1 {
        diag::info(&format!("running {} Monte-Carlo replications...", req.reps));
    }
    let outcome = timer.stage("eval", || {
        plan::evaluate_plan(&model, &cfg, &timing, effective_reps)
    })?;
    match outcome {
        EvalOutcome::Batch(mc) => {
            if let Some(reg) = &registry {
                reg.counter("mc.replica_failures")
                    .add(mc.failures.len() as u64);
            }
            timer.set_replica_failures(mc.failures.len());
            let reps_run = mc.runs.len() + mc.failures.len();
            if let Some(a) = &mc.adaptive {
                timer.set_reps(a.reps);
                timer.set_reps_saved(a.reps_saved());
            }
            // The deterministic headline and failure lines are shared with
            // the daemon; the wall-clock statistics are one-shot-only.
            let mut out = timer.stage("render", || {
                let mut out = plan::render_mc_headline(&mc, req.procs);
                out.push_str(&plan::render_adaptive_line(&mc));
                out.push_str(&format!(
                    "{} replications in {:.3} s ({:.0} evals/s), range [{:.6}, {:.6}] s\n\
                     {} worker(s), {:.0}% busy, {} directives swept ({:.0}/replication)\n",
                    reps_run,
                    mc.wall_secs,
                    mc.evals_per_sec,
                    mc.min,
                    mc.max,
                    mc.profile.workers.len(),
                    mc.profile.utilization() * 100.0,
                    mc.total_steps(),
                    mc.mean_steps(),
                ));
                out.push_str(&plan::render_failures(&mc.failures));
                out
            });
            let span = timer.finish("ok", out.len());
            // The trace sink gets the first replication: its seed is the
            // one a `--reps 1` run with the same --seed would use.
            out.push_str(&dump_sinks(mc.runs.first(), &span)?);
            Ok(out)
        }
        EvalOutcome::Single(p) => {
            let mut out = timer.stage("render", || plan::render_single_report(&p));
            let span = timer.finish("ok", out.len());
            out.push_str(&dump_sinks(Some(&p), &span)?);
            Ok(out)
        }
    }
}

/// Parse the repeatable `--db [NAME=]PATH` table specs for `serve`.
/// A bare path loads as table `"default"`.
fn serve_tables(args: &Args) -> Result<Vec<(String, PathBuf)>, CliError> {
    let specs = args.values("db");
    if specs.is_empty() {
        return err("serve requires at least one --db [NAME=]DB.dist");
    }
    let mut tables = Vec::with_capacity(specs.len());
    for spec in specs {
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) if !name.is_empty() && !path.is_empty() => (name, path),
            Some(_) => return err(format!("--db expects [NAME=]PATH, got {spec:?}")),
            None => ("default", spec.as_str()),
        };
        tables.push((name.to_string(), PathBuf::from(path)));
    }
    Ok(tables)
}

/// `pevpm serve`: run the prediction daemon until a `shutdown` request.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let cfg = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        tables: serve_tables(args)?,
        threads: args.get_parsed("threads", 0)?,
        eval_threads: args.get_parsed("eval-threads", 0)?,
        max_reps: args.get_parsed("max-reps", 0)?,
        max_steps: match args.get("max-steps") {
            None => None,
            Some(s) => Some(
                s.parse()
                    .map_err(|_| CliError::usage("--max-steps must be an integer"))?,
            ),
        },
        max_virtual_secs: match args.get("max-virtual-secs") {
            None => None,
            Some(s) => Some(
                s.parse()
                    .map_err(|_| CliError::usage("--max-virtual-secs must be a number"))?,
            ),
        },
        max_frame: pevpm_serve::proto::MAX_FRAME,
        http_addr: args.get("http").map(str::to_string),
        log_out: args.get("log-out").map(PathBuf::from),
        log_slow_ms: match args.get("log-slow-ms") {
            None => None,
            Some(s) => Some(
                s.parse()
                    .map_err(|_| CliError::usage("--log-slow-ms must be a number"))?,
            ),
        },
        span_capacity: args
            .get_parsed("span-cap", pevpm_serve::telemetry::DEFAULT_SPAN_CAPACITY)?,
        conns: args.get_parsed("conns", 0)?,
        io_timeout_ms: args
            .get_parsed("io-timeout-ms", pevpm_serve::server::DEFAULT_IO_TIMEOUT_MS)?,
        inflight: args.get_parsed("inflight", 0)?,
        queue: match args.get("queue") {
            None => None,
            Some(s) => Some(
                s.parse()
                    .map_err(|_| CliError::usage("--queue must be an integer"))?,
            ),
        },
        shed_retry_ms: args
            .get_parsed("shed-retry-ms", pevpm_serve::server::DEFAULT_SHED_RETRY_MS)?,
        drain_ms: args.get_parsed("drain-ms", pevpm_serve::server::DEFAULT_DRAIN_MS)?,
    };
    let server = Server::bind(cfg).map_err(|e| CliError::input(e.to_string()))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::input(format!("cannot resolve bound address: {e}")))?;
    if let Some(path) = args.get("port-file") {
        // Line 1: the frame protocol address (what `client --port-file`
        // reads). Line 2, when the sidecar is up: the HTTP address.
        let mut contents = format!("{addr}\n");
        if let Some(http) = server.http_addr() {
            contents.push_str(&format!("{http}\n"));
        }
        write_text(path, &contents)?;
    }
    // SIGTERM lands as a graceful drain, same as a `shutdown` frame.
    sigterm::install();
    server
        .run_until(&sigterm::FLAG)
        .map_err(|e| CliError::input(format!("serve loop failed: {e}")))?;
    if let Some(path) = args.get("metrics-out") {
        write_text(path, &server.registry().to_json())?;
        diag::info(&format!("wrote server metrics to {path}"));
    }
    Ok(format!("pevpm serve: exited cleanly ({addr})\n"))
}

/// Resolve the daemon address for `client`: `--addr`, or the first line
/// of `--port-file` as written by `serve`.
fn client_addr(args: &Args) -> Result<String, CliError> {
    if let Some(addr) = args.get("addr") {
        return Ok(addr.to_string());
    }
    let Some(path) = args.get("port-file") else {
        return err("client requires --addr HOST:PORT or --port-file PATH");
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let addr = text.lines().next().unwrap_or("").trim();
    if addr.is_empty() {
        return Err(CliError::input(format!("{path}: empty port file")));
    }
    Ok(addr.to_string())
}

/// `pevpm client`: send predict/stats/shutdown requests to a daemon and
/// print one response JSON line per request.
fn cmd_client(args: &Args) -> Result<String, CliError> {
    let addr = client_addr(args)?;
    if args.get("model").is_none()
        && args.get("chaos").is_none()
        && !args.has("stats")
        && !args.has("ping")
        && !args.has("shutdown")
    {
        return err(
            "client needs something to send: --model FILE.c, --chaos MODE, \
             --stats, --ping or --shutdown",
        );
    }
    let client_cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(args.get_parsed(
            "connect-timeout-ms",
            pevpm_serve::client::DEFAULT_CONNECT_TIMEOUT_MS,
        )?)),
        retries: args.get_parsed("retries", ClientConfig::default().retries)?,
        backoff_base_ms: args
            .get_parsed("retry-backoff-ms", ClientConfig::default().backoff_base_ms)?,
        ..ClientConfig::default()
    };
    if let Some(mode_arg) = args.get("chaos") {
        return run_chaos(&addr, mode_arg, args);
    }
    let mut client = Client::connect_with(&addr, &client_cfg)
        .map_err(|e| CliError::input(format!("cannot connect {addr}: {e}")))?;
    let io_err = |e: std::io::Error| CliError::input(format!("request to {addr} failed: {e}"));
    let mut out = String::new();
    if args.has("ping") {
        out.push_str(&client.ping("ping").map_err(io_err)?);
        out.push('\n');
    }
    if let Some(model_path) = args.get("model") {
        let src = std::fs::read_to_string(model_path)
            .map_err(|e| CliError::input(format!("cannot read {model_path}: {e}")))?;
        let req = predict_request(args, src)?;
        let table = args.get("table").unwrap_or("default").to_string();
        let batch: usize = args.get_parsed("batch", 1)?;
        let resp = if batch > 1 {
            let items: Vec<(String, PredictRequest)> =
                (0..batch).map(|_| (table.clone(), req.clone())).collect();
            client
                .batch_with("batch", &items, args.has("crn"))
                .map_err(io_err)?
        } else {
            client.predict("predict", &table, &req).map_err(io_err)?
        };
        out.push_str(&resp);
        out.push('\n');
    }
    if args.has("stats") {
        let stats = client.stats("stats").map_err(io_err)?;
        render_stage_latencies(&stats);
        out.push_str(&stats);
        out.push('\n');
    }
    if args.has("shutdown") {
        out.push_str(&client.shutdown("shutdown").map_err(io_err)?);
        out.push('\n');
    }
    Ok(out)
}

/// `pevpm client --chaos MODE|all`: run fault-injection modes against a
/// live daemon and print one report JSON line per mode. Exits non-zero
/// if any mode kills (or wedges) the daemon.
fn run_chaos(addr: &str, mode_arg: &str, args: &Args) -> Result<String, CliError> {
    let hint_ms: u64 =
        args.get_parsed("io-timeout-ms", pevpm_serve::server::DEFAULT_IO_TIMEOUT_MS)?;
    let modes: Vec<chaos::ChaosMode> = if mode_arg == "all" {
        chaos::ChaosMode::ALL.to_vec()
    } else {
        let mode = chaos::ChaosMode::parse(mode_arg).ok_or_else(|| {
            CliError::usage(format!(
                "--chaos expects all or one of: {}",
                chaos::ChaosMode::ALL.map(|m| m.name()).join(", ")
            ))
        })?;
        vec![mode]
    };
    let mut out = String::new();
    let mut casualties = Vec::new();
    for mode in modes {
        let report = chaos::run_mode(addr, mode, hint_ms).map_err(|e| {
            CliError::input(format!("chaos mode {} failed to run: {e}", mode.name()))
        })?;
        diag::info(&format!(
            "chaos {}: outcome={} survived={} ({:.1} ms)",
            report.mode.name(),
            report.outcome,
            report.survived,
            report.elapsed_ms
        ));
        if !report.survived {
            casualties.push(report.mode.name());
        }
        out.push_str(&report.to_json());
        out.push('\n');
    }
    if casualties.is_empty() {
        Ok(out)
    } else {
        Err(CliError::input(format!(
            "daemon did not survive chaos mode(s): {}",
            casualties.join(", ")
        )))
    }
}

/// Render the span-derived per-stage latency percentiles from a `stats`
/// response as a human-readable table on stderr, keeping stdout one
/// machine-parseable JSON line. Silently does nothing if the response
/// carries no stage data (old daemon, no requests served yet).
fn render_stage_latencies(stats_response: &str) {
    use pevpm_obs::json::{self, Json};
    let Some(stages) = json::parse(stats_response.trim())
        .ok()
        .and_then(|v| v.get("result").and_then(|r| r.get("stages")).cloned())
    else {
        return;
    };
    let Some(stages) = stages.as_object().filter(|m| !m.is_empty()).cloned() else {
        return;
    };
    diag::info(&format!(
        "{:>10} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50(ms)", "p95(ms)", "p99(ms)"
    ));
    for (name, st) in &stages {
        let f = |k: &str| st.get(k).and_then(Json::as_num).unwrap_or(0.0);
        diag::info(&format!(
            "{name:>10} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            f("count") as u64,
            f("p50_ms"),
            f("p95_ms"),
            f("p99_ms"),
        ));
    }
}

/// `pevpm trace`: run the Jacobi example with measured tracing on, print
/// the per-rank breakdown, and optionally export predicted + measured
/// timelines as one Chrome trace.
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    use pevpm_apps::jacobi::{self, JacobiConfig};

    let nodes: usize = args
        .require("nodes")?
        .parse()
        .map_err(|_| CliError::usage("--nodes must be an integer"))?;
    let ppn: usize = args.get_parsed("ppn", 1)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let machine = resolve_machine(args)?;
    let xsize: usize = args.get_parsed("xsize", 256)?;
    let iters: usize = args.get_parsed("iters", 50)?;
    let serial_ms: f64 = args.get_parsed("serial-ms", 3.24)?;
    let trace_out = args.get("trace-out");

    let nprocs = nodes * ppn;
    if nprocs == 0 || !xsize.is_multiple_of(nprocs.max(1)) {
        return err(format!(
            "--xsize {xsize} must be divisible by nodes*ppn = {nprocs}"
        ));
    }
    let jcfg = JacobiConfig {
        xsize,
        iterations: iters,
        serial_secs: serial_ms * 1e-3,
    };

    diag::info(&format!(
        "tracing {iters}-iteration Jacobi ({xsize}x{xsize}) on {nodes}x{ppn} {machine}"
    ));
    let world = WorldConfig {
        cluster: cluster_for(args, nodes)?,
        procs_per_node: ppn,
        placement: Placement::Block,
        protocol: ProtocolConfig::default(),
        seed,
        virtual_deadline: None,
        record_trace: true,
    };
    let measured = jacobi::run_measured(world, &jcfg)
        .map_err(|e| CliError::input(format!("measured run failed: {e}")))?;
    let traces = measured.report.traces.as_deref().unwrap_or(&[]);
    let breakdown = pevpm_mpisim::breakdown(traces);

    // Predicted counterpart: sample --db when given, else fall back to an
    // analytic Hockney model (Fast-Ethernet-era constants).
    let timing = match args.get("db") {
        Some(path) => TimingModel::distributions_with(
            dist_io::load_table(Path::new(path))
                .map_err(|e| CliError::input(format!("cannot load {path}: {e}")))?,
            compile_options(args),
        ),
        None => TimingModel::hockney(100e-6, 12.5e6),
    };
    let cfg = EvalConfig::new(nprocs).with_seed(seed).with_timeline();
    let pred = evaluate(&jacobi::model(&jcfg), &cfg, &timing).map_err(eval_error)?;

    let mut out = format!(
        "measured makespan:  {:.6} s over {nprocs} ranks ({} messages)\n\
         predicted makespan: {:.6} s ({})\n\n\
         per-rank breakdown (seconds):\n\
         {:>5} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6}\n",
        measured.time,
        measured.report.messages,
        pred.makespan,
        if args.has("db") {
            "measured distributions"
        } else {
            "analytic Hockney model"
        },
        "rank",
        "compute",
        "send",
        "blocked",
        "coll",
        "msgs",
        "comm%",
    );
    for (r, b) in breakdown.iter().enumerate() {
        out.push_str(&format!(
            "{r:>5} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>8} {:>5.1}%\n",
            b.compute,
            b.send,
            b.blocked,
            b.collective,
            b.messages,
            b.comm_fraction() * 100.0,
        ));
    }

    if let Some(path) = trace_out {
        let mut chrome = pevpm::trace_export::chrome_trace(&pred);
        chrome.merge(pevpm_mpisim::trace::chrome_trace(traces));
        chrome.merge(pevpm_mpisim::fault_marks(&measured.report.fault_events));
        write_text(path, &chrome.to_json())?;
        out.push_str(&format!(
            "\nmerged predicted+measured trace ({} events) written to {path}\n\
             open in chrome://tracing or https://ui.perfetto.dev\n",
            chrome.len()
        ));
    }
    diag::debug(&format!("net stats: {:?}", measured.report.net_stats));
    Ok(out)
}

/// `pevpm fuzz`: differential conformance fuzzing of the PEVPM engine
/// against itself (bitwise) and against mpisim (statistically), plus
/// metamorphic and diagnostics oracles. See `pevpm-testkit` for the
/// oracle hierarchy; this command is a thin front-end over its
/// deterministic campaign driver.
fn cmd_fuzz(args: &Args) -> Result<String, CliError> {
    use pevpm_testkit::campaign::{self, CampaignConfig, Mode};
    use pevpm_testkit::Counterexample;

    let campaign_cfg = |mode: Mode| -> Result<CampaignConfig, CliError> {
        Ok(CampaignConfig {
            mode,
            programs: args.get_parsed("programs", 50)?,
            seed: args.get_parsed("seed", 2004)?,
            alpha: args.get_parsed("alpha", 1e-5)?,
            replications: args.get_parsed("reps", 3)?,
            ks_runs: args.get_parsed("ks-runs", 40)?,
            bench_reps: args.get_parsed("bench-reps", 40)?,
        })
    };

    // Replay one artifact under its recorded oracle.
    if let Some(path) = args.get("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
        let cx =
            Counterexample::parse(&text).map_err(|e| CliError::input(format!("{path}: {e}")))?;
        let cfg = campaign_cfg(Mode::Differential)?;
        return match campaign::replay(&cx, &cfg) {
            Err(f) => Err(CliError::input(format!(
                "counterexample reproduces (oracle {}, seed {}): {f}\n{}",
                cx.oracle,
                cx.seed,
                cx.render()
            ))),
            Ok(()) => Ok(format!(
                "counterexample did not reproduce (oracle {}, seed {}, {} directive(s))\n",
                cx.oracle,
                cx.seed,
                cx.program.directives()
            )),
        };
    }

    let modes: Vec<Mode> = match args.get("mode").unwrap_or("differential") {
        "all" => Mode::ALL.to_vec(),
        m => vec![Mode::from_name(m).ok_or_else(|| {
            CliError::usage(format!(
                "unknown mode {m:?} (differential|metamorphic|ks|diagnostics|dag|adaptive|all)"
            ))
        })?],
    };
    let out_dir = args.get("out");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::input(format!("cannot create {dir}: {e}")))?;
    }

    let mut out = String::new();
    let mut total_failures = 0usize;
    for mode in modes {
        let cfg = campaign_cfg(mode)?;
        diag::info(&format!(
            "fuzzing {} programs under the {mode} oracle (seed {})...",
            cfg.programs, cfg.seed
        ));
        let res = campaign::run_campaign(&cfg);
        out.push_str(&format!(
            "{mode}: {} program(s), {} directive(s), {} counterexample(s)\n",
            res.programs,
            res.directives,
            res.failures.len()
        ));
        for cx in &res.failures {
            total_failures += 1;
            out.push_str(&format!(
                "  seed {}: {} ({} directive(s), shrunk from {})\n",
                cx.seed,
                cx.failure,
                cx.program.directives(),
                cx.original_directives
            ));
            if let Some(dir) = out_dir {
                let path = Path::new(dir).join(cx.file_name());
                std::fs::write(&path, cx.render()).map_err(|e| {
                    CliError::input(format!("cannot write {}: {e}", path.display()))
                })?;
                out.push_str(&format!("  artifact written to {}\n", path.display()));
            } else {
                out.push_str(&cx.render());
            }
        }
    }
    if total_failures > 0 {
        return Err(CliError::input(format!(
            "{out}{total_failures} counterexample(s) found"
        )));
    }
    out.push_str("ok — all oracles passed\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(s: &str) -> Result<String, CliError> {
        run(s.split_whitespace().map(String::from).collect())
    }

    /// A fresh directory of the calling test's own: tests run in parallel
    /// and each removes its directory when done, so sharing one would let
    /// a finishing test delete files a sibling is still reading.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("pevpm_cli_test_{}_{test}_{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_cmd("help").unwrap().contains("USAGE"));
        assert!(run_cmd("frobnicate").is_err());
        assert!(run(vec![]).is_err());
    }

    #[test]
    fn bench_inspect_fit_predict_pipeline() {
        let dir = tmpdir("bench_inspect_fit_predict_pipeline");
        let db = dir.join("db.dist");
        let fitted = dir.join("fitted.dist");
        let model = dir.join("pingpong.c");

        // bench
        let out = run_cmd(&format!(
            "bench --nodes 4 --ppn 1 --sizes 512,1024 --reps 15 --seed 3 --out {}",
            db.display()
        ))
        .unwrap();
        assert!(out.contains("database written"), "{out}");
        assert!(db.exists());

        // inspect
        let out = run_cmd(&format!("inspect --db {}", db.display())).unwrap();
        assert!(out.contains("2 entries"), "{out}");
        assert!(out.contains("hist["), "{out}");

        // fit
        let out = run_cmd(&format!(
            "fit --db {} --out {}",
            db.display(),
            fitted.display()
        ))
        .unwrap();
        assert!(out.contains("smaller"), "{out}");

        // annotate + predict
        std::fs::write(
            &model,
            "\
// PEVPM Loop iterations = rounds
// PEVPM {
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM }
",
        )
        .unwrap();
        let out = run_cmd(&format!("annotate {}", model.display())).unwrap();
        assert!(out.contains("free parameters [\"rounds\"]"), "{out}");

        for mode in ["dist", "avg", "min"] {
            let out = run_cmd(&format!(
                "predict --model {} --db {} --procs 2 --mode {mode} --param rounds=20",
                model.display(),
                db.display()
            ))
            .unwrap();
            assert!(out.contains("predicted makespan"), "{out}");
        }
        // Monte-Carlo batch over threads.
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --reps 8 --threads 2 --param rounds=20",
            model.display(),
            db.display()
        ))
        .unwrap();
        assert!(out.contains("8 replications"), "{out}");
        assert!(out.contains("stderr"), "{out}");

        // Fitted database predicts too, with and without the quantile LUT.
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --param rounds=20",
            model.display(),
            fitted.display()
        ))
        .unwrap();
        assert!(out.contains("predicted makespan"), "{out}");
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --param rounds=20 --exact-quantiles",
            model.display(),
            fitted.display()
        ))
        .unwrap();
        assert!(out.contains("predicted makespan"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_subcommand_and_sinks() {
        let dir = tmpdir("trace_subcommand_and_sinks");
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let db = dir.join("trace_db.dist");
        let model = dir.join("trace_pp.c");

        // trace: breakdown table + merged predicted/measured Chrome JSON.
        let out = run_cmd(&format!(
            "trace --nodes 4 --xsize 64 --iters 10 --trace-out {}",
            trace.display()
        ))
        .unwrap();
        assert!(out.contains("measured makespan"), "{out}");
        assert!(out.contains("predicted makespan"), "{out}");
        assert!(out.contains("comm%"), "{out}");
        let js = std::fs::read_to_string(&trace).unwrap();
        let n = pevpm_obs::chrome::validate(&js).expect("schema-valid trace");
        assert!(n > 0, "trace has complete events");
        assert!(js.contains("PEVPM predicted"), "both pids present");
        assert!(js.contains("mpisim measured"), "both pids present");

        // predict --trace-out/--metrics-out on a tiny model.
        std::fs::write(
            &model,
            "\
// PEVPM Loop iterations = 5
// PEVPM {
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM }
",
        )
        .unwrap();
        run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 10 --out {}",
            db.display()
        ))
        .unwrap();
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --trace-out {} --metrics-out {}",
            model.display(),
            db.display(),
            trace.display(),
            metrics.display()
        ))
        .unwrap();
        assert!(out.contains("predicted timeline"), "{out}");
        assert!(out.contains("engine metrics"), "{out}");
        let js = std::fs::read_to_string(&trace).unwrap();
        assert!(pevpm_obs::chrome::validate(&js).unwrap() > 0);
        let mj = pevpm_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap())
            .expect("metrics JSON parses");
        let hists = mj.get("histograms").and_then(|h| h.as_object()).unwrap();
        assert!(hists.contains_key("vm.contention_at_injection"));
        assert!(hists.contains_key("vm.scoreboard_occupancy"));

        // Monte-Carlo predict still writes the sinks (first replication).
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --reps 3 --trace-out {}",
            model.display(),
            db.display(),
            trace.display()
        ))
        .unwrap();
        assert!(out.contains("3 replications"), "{out}");
        assert!(out.contains("worker(s)"), "{out}");
        assert!(out.contains("predicted timeline"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_verbosity_flags_are_accepted() {
        // -q / -v map to --quiet / --verbose rather than being rejected or
        // swallowed as positionals. (The verbosity level itself is global
        // process state, so it is not asserted here — tests run in
        // parallel.)
        assert!(run_cmd("help -q").unwrap().contains("USAGE"));
        assert!(run_cmd("help -v").unwrap().contains("USAGE"));
    }

    #[test]
    fn predict_rejects_bad_inputs() {
        assert!(run_cmd("predict --procs 2 --db nope.dist").is_err()); // missing --model
        assert!(run_cmd("predict --model x.c --procs 2 --db /no/such.dist").is_err());
        assert!(run_cmd("bench --out /tmp/x.dist").is_err()); // missing --nodes
        assert!(run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist").is_err());
        assert!(run_cmd("annotate").is_err());
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        // usage: missing flags, unknown command, unknown machine.
        assert_eq!(run_cmd("frobnicate").unwrap_err().code, EXIT_USAGE);
        assert_eq!(
            run_cmd("bench --out /tmp/x.dist").unwrap_err().code,
            EXIT_USAGE
        );
        assert_eq!(
            run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist")
                .unwrap_err()
                .code,
            EXIT_USAGE
        );
        // input: unreadable files.
        assert_eq!(
            run_cmd("inspect --db /no/such.dist").unwrap_err().code,
            EXIT_INPUT
        );
        assert_eq!(
            run_cmd("predict --model /no/such.c --procs 2 --db /no/such.dist")
                .unwrap_err()
                .code,
            EXIT_INPUT
        );
    }

    #[test]
    fn unknown_machine_lists_valid_machines() {
        let e = run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist").unwrap_err();
        for m in MACHINES {
            assert!(e.message.contains(m), "{} missing from: {e}", m);
        }
    }

    #[test]
    fn deadlocked_model_exits_with_budget_code() {
        let dir = tmpdir("deadlocked_model_exits_with_budget_code");
        let db = dir.join("dl_db.dist");
        let model = dir.join("deadlock.c");
        run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 10 --out {}",
            db.display()
        ))
        .unwrap();
        // Both procs receive, nobody sends.
        std::fs::write(
            &model,
            "\
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 1
// PEVPM &       to = 0
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
",
        )
        .unwrap();
        let e = run_cmd(&format!(
            "predict --model {} --db {} --procs 2",
            model.display(),
            db.display()
        ))
        .unwrap_err();
        assert_eq!(e.code, EXIT_BUDGET, "{e}");
        assert!(e.message.contains("deadlock at t="), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quorum_partial_failures_reach_report_and_metrics() {
        let dir = tmpdir("quorum_partial_failures_reach_report_and_metrics");
        let db = dir.join("quorum_db.dist");
        let model = dir.join("quorum_model.c");
        let metrics = dir.join("quorum_metrics.json");

        // A hand-written table with a *wide* send-latency histogram:
        // per-replication makespans spread over ~[1, 3] s, so a
        // virtual-time budget between the observed extremes fails some
        // replications and not others — deterministically, given --seed.
        let samples: Vec<f64> = (0..40).map(|i| 1.0 + 0.05 * i as f64).collect();
        let mut table = DistTable::new();
        table.insert(
            pevpm_dist::DistKey {
                op: Op::Send,
                size: 1024,
                contention: 1,
            },
            CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 0.1)),
        );
        std::fs::write(&db, dist_io::write_table(&table)).unwrap();
        std::fs::write(
            &model,
            "\
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
",
        )
        .unwrap();

        let base = format!(
            "predict --model {} --db {} --procs 2 --reps 16 --seed 9",
            model.display(),
            db.display()
        );
        let out = run_cmd(&base).unwrap();
        let range = out
            .lines()
            .find_map(|l| l.split("range [").nth(1))
            .unwrap_or_else(|| panic!("no range in {out}"));
        let (lo, hi) = range
            .trim_end_matches(|c| c != ']')
            .trim_end_matches(']')
            .trim_end_matches(" s")
            .split_once(", ")
            .unwrap();
        let (lo, hi): (f64, f64) = (lo.parse().unwrap(), hi.parse().unwrap());
        assert!(hi > lo, "jitter must spread the makespans: [{lo}, {hi}]");
        let threshold = (lo + hi) / 2.0;

        // Without a quorum, the budget kills the whole batch (exit 4).
        let e = run_cmd(&format!("{base} --max-virtual-secs {threshold}")).unwrap_err();
        assert_eq!(e.code, EXIT_BUDGET, "{e}");
        assert!(e.message.contains("budget exceeded"), "{e}");

        // With --quorum 1 the batch completes, the report lists the
        // failed replications, and the count reaches --metrics-out.
        let out = run_cmd(&format!(
            "{base} --max-virtual-secs {threshold} --quorum 1 --metrics-out {}",
            metrics.display()
        ))
        .unwrap();
        assert!(out.contains("predicted makespan"), "{out}");
        assert!(out.contains("replication(s) failed (quorum met"), "{out}");
        assert!(out.contains("budget exceeded"), "{out}");
        let mj = pevpm_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap())
            .expect("metrics JSON parses");
        let failed = mj
            .get("counters")
            .and_then(|c| c.as_object())
            .and_then(|c| c.get("mc.replica_failures"))
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("mc.replica_failures missing from {mj:?}"));
        assert!(
            (1.0..=15.0).contains(&failed),
            "a strict-interior budget fails some but not all of 16 replications, got {failed}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fuzz_smoke_flags_and_replay() {
        // A tiny clean campaign passes and says so.
        let out = run_cmd("fuzz --mode differential --programs 5 --seed 11").unwrap();
        assert!(out.contains("differential: 5 program(s)"), "{out}");
        assert!(out.contains("0 counterexample(s)"), "{out}");
        assert!(out.contains("ok — all oracles passed"), "{out}");

        // Flag errors follow the exit-code contract.
        assert_eq!(run_cmd("fuzz --mode bogus").unwrap_err().code, EXIT_USAGE);
        assert_eq!(
            run_cmd("fuzz --replay /no/such.model").unwrap_err().code,
            EXIT_INPUT
        );

        // A non-artifact file is an input error naming the header.
        let dir = tmpdir("fuzz_smoke_flags_and_replay");
        let bogus = dir.join("bogus.model");
        std::fs::write(&bogus, "hello\n").unwrap();
        let e = run_cmd(&format!("fuzz --replay {}", bogus.display())).unwrap_err();
        assert_eq!(e.code, EXIT_INPUT);
        assert!(e.message.contains("not a counterexample artifact"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end daemon lifecycle over a real socket: serve, predict
    /// (cold, warm, batched — byte-identical), stats counters, shutdown.
    #[test]
    fn serve_and_client_round_trip_deterministically() {
        use pevpm_obs::json::{self, Json};

        let dir = tmpdir("serve_and_client_round_trip_deterministically");
        let db = dir.join("serve_db.dist");
        let model = dir.join("serve_model.c");
        let port_file = dir.join("serve_port");
        run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --out {}",
            db.display()
        ))
        .unwrap();
        std::fs::write(
            &model,
            "\
// PEVPM Loop iterations = rounds
// PEVPM {
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM }
",
        )
        .unwrap();

        let metrics = dir.join("serve_metrics.json");
        let serve_cmd = format!(
            "serve --db {} --threads 2 --port-file {} --metrics-out {} -q",
            db.display(),
            port_file.display(),
            metrics.display()
        );
        let daemon = std::thread::spawn(move || run_cmd(&serve_cmd));
        for _ in 0..500 {
            if port_file.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(port_file.exists(), "daemon never wrote its port file");

        let predict_flags = format!(
            "--model {} --procs 2 --param rounds=20 --reps 4 --seed 3",
            model.display()
        );
        let client_base = format!("client --port-file {}", port_file.display());

        // Cold then warm: byte-identical responses.
        let cold = run_cmd(&format!("{client_base} {predict_flags}")).unwrap();
        let warm = run_cmd(&format!("{client_base} {predict_flags}")).unwrap();
        assert_eq!(cold, warm, "cache temperature must not change the bytes");
        let v = json::parse(cold.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{cold}");
        let result = v.get("result").unwrap().clone();

        // Batched with identical items: every item bitwise equals the
        // lone response's result.
        let batched = run_cmd(&format!("{client_base} {predict_flags} --batch 3")).unwrap();
        let bv = json::parse(batched.trim()).unwrap();
        let items = bv.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), 3);
        for item in items {
            assert_eq!(item.get("result"), Some(&result), "{batched}");
        }

        // The daemon's deterministic report equals the one-shot CLI's
        // deterministic headline for the same request.
        let oneshot = run_cmd(&format!(
            "predict --db {} {predict_flags} --threads 2",
            db.display()
        ))
        .unwrap();
        let report = result.get("report").and_then(Json::as_str).unwrap();
        assert!(
            oneshot.starts_with(report),
            "daemon report {report:?} is not a prefix of one-shot output {oneshot:?}"
        );

        // Stats: 6 predictions (1 + 1 + 3 batch items + the one-shot
        // doesn't count) hit exactly one table compile and one model parse.
        let stats = run_cmd(&format!("{client_base} --stats")).unwrap();
        let sv = json::parse(stats.trim()).unwrap();
        let counters = sv
            .get("result")
            .and_then(|r| r.get("counters"))
            .and_then(Json::as_object)
            .unwrap()
            .clone();
        assert_eq!(
            counters.get("serve.table_compiles").and_then(Json::as_num),
            Some(1.0),
            "{stats}"
        );
        assert_eq!(
            counters.get("serve.model_compiles").and_then(Json::as_num),
            Some(1.0),
            "{stats}"
        );

        // Shutdown lets the serve thread exit cleanly.
        let bye = run_cmd(&format!("{client_base} --shutdown")).unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let served = daemon.join().unwrap().unwrap();
        assert!(served.contains("exited cleanly"), "{served}");

        // --metrics-out dumped the same registry the stats request served:
        // the golden serve counters survive to disk.
        let mj = json::parse(&std::fs::read_to_string(&metrics).unwrap())
            .expect("serve metrics JSON parses");
        let disk = mj
            .get("counters")
            .and_then(Json::as_object)
            .unwrap()
            .clone();
        for key in [
            "serve.requests",
            "serve.table_compiles",
            "serve.model_compiles",
            "serve.model_cache_hits",
        ] {
            assert!(disk.contains_key(key), "{key} missing from {mj:?}");
        }
        assert_eq!(
            disk.get("serve.table_compiles").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            disk.get("serve.model_compiles").and_then(Json::as_num),
            Some(1.0)
        );
        // cold predict + warm predict + batch + stats + shutdown = 5 frames.
        assert_eq!(disk.get("serve.requests").and_then(Json::as_num), Some(5.0));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_client_flag_validation() {
        assert_eq!(run_cmd("serve").unwrap_err().code, EXIT_USAGE);
        assert_eq!(run_cmd("serve --db =x").unwrap_err().code, EXIT_USAGE);
        assert_eq!(
            run_cmd("serve --db /no/such.dist").unwrap_err().code,
            EXIT_INPUT
        );
        assert_eq!(run_cmd("client --stats").unwrap_err().code, EXIT_USAGE);
        assert_eq!(
            run_cmd("client --addr 127.0.0.1:9").unwrap_err().code,
            EXIT_USAGE,
            "nothing to send is a usage error before connecting"
        );
        assert_eq!(
            run_cmd("client --port-file /no/such.port --stats")
                .unwrap_err()
                .code,
            EXIT_INPUT
        );
        assert_eq!(
            run_cmd("client --addr 127.0.0.1:9 --chaos frobnicate")
                .unwrap_err()
                .code,
            EXIT_USAGE,
            "unknown chaos modes are rejected before connecting"
        );
        assert_eq!(
            run_cmd("serve --db x.dist --queue nope").unwrap_err().code,
            EXIT_USAGE
        );
    }

    /// Satellite: a blackholed (or refused) address must fail fast with
    /// the exit-code contract's input error, not hang the CLI.
    #[test]
    fn client_connect_timeout_fails_fast() {
        let t0 = std::time::Instant::now();
        // TEST-NET-1 (RFC 5737): never routable. Depending on the
        // sandbox this is a fast unreachable error or a timeout; both
        // must surface as EXIT_INPUT well inside the flag's budget.
        let e = run_cmd("client --addr 192.0.2.1:9 --ping --connect-timeout-ms 300 --retries 0")
            .unwrap_err();
        assert_eq!(e.code, EXIT_INPUT, "{e}");
        // Whether the environment refuses, blackholes, or proxies the
        // address, the failure names it and maps to the input class.
        assert!(e.message.contains("192.0.2.1"), "{e}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "connect took {:?} despite a 300 ms budget",
            t0.elapsed()
        );
    }

    #[test]
    fn faults_flag_loads_validates_and_degrades() {
        let dir = tmpdir("faults_flag_loads_validates_and_degrades");
        let db = dir.join("faults_db.dist");
        let plan = dir.join("plan.toml");

        // Unreadable and invalid plans are input errors naming the file.
        let e = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 10 --faults /no/plan.toml --out {}",
            db.display()
        ))
        .unwrap_err();
        assert_eq!(e.code, EXIT_INPUT);
        assert!(e.message.contains("/no/plan.toml"), "{e}");

        std::fs::write(&plan, "loss_prob = 1.5\n").unwrap();
        let e = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 10 --faults {} --out {}",
            plan.display(),
            db.display()
        ))
        .unwrap_err();
        assert_eq!(e.code, EXIT_INPUT);
        assert!(e.message.contains("plan.toml"), "{e}");
        assert!(e.message.contains("loss_prob"), "{e}");

        // A node index out of range for the machine is caught up front.
        std::fs::write(&plan, "[[degrade]]\nnode = 99\nrate_factor = 0.5\n").unwrap();
        let e = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 10 --faults {} --out {}",
            plan.display(),
            db.display()
        ))
        .unwrap_err();
        assert_eq!(e.code, EXIT_INPUT, "{e}");

        // A valid lossy plan runs and degrades the measured latencies.
        let clean = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --out {}",
            db.display()
        ))
        .unwrap();
        std::fs::write(&plan, "loss_prob = 0.05\n").unwrap();
        let lossy = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --faults {} --out {}",
            plan.display(),
            db.display()
        ))
        .unwrap();
        let max_us = |out: &str| -> f64 {
            let line = out.lines().find(|l| l.contains("1024 B:")).unwrap();
            let max = line.split("max").nth(1).unwrap();
            max.trim().trim_end_matches("us").trim().parse().unwrap()
        };
        assert!(
            max_us(&lossy) > max_us(&clean),
            "5% frame loss must inflate the max latency: clean {clean} lossy {lossy}"
        );

        // An empty plan is accepted (and is a no-op by the determinism
        // property test's guarantee).
        std::fs::write(&plan, "# no faults\n").unwrap();
        let out = run_cmd(&format!(
            "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --faults {} --out {}",
            plan.display(),
            db.display()
        ))
        .unwrap();
        assert_eq!(max_us(&out), max_us(&clean), "empty plan is a no-op");

        std::fs::remove_dir_all(&dir).ok();
    }
}
