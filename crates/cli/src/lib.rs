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
//!                [--seed S] [--reps R] [--threads T]
//!                [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! pevpm serve    --db [NAME=]DB.dist ... [--addr HOST:PORT] [--threads T]
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
mod bench;
mod db;
mod fuzz;
mod predict;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use args::{ArgError, Args};
use bench::cmd_bench;
use db::{cmd_annotate, cmd_fit, cmd_inspect};
use fuzz::cmd_fuzz;
use pevpm_obs::{diag, Verbosity};
use pevpm_serve::plan::{PlanError, PlanErrorKind};
use predict::cmd_predict;
use serve::{cmd_client, cmd_serve};
use trace::cmd_trace;

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
        // SAFETY: `signal` is the POSIX libc function with this C
        // signature, and `on_sigterm` is an `extern "C" fn(i32)` that
        // only stores to a static atomic (async-signal-safe) and lives
        // for the whole process, so the handler pointer never dangles.
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

/// Usage text.
pub const USAGE: &str = "\
pevpm — MPI communication benchmarking and performance modelling (reproduction)

USAGE:
  pevpm bench    --nodes N [--ppn P] [--machine perseus|gigabit|lowlatency|ideal]
                 [--pattern ring|halfsplit|adjacent] [--sizes 512,1024,...]
                 [--reps R] [--replicas K] [--threads T] [--seed S]
                 [--faults PLAN.toml] [--trace-out TRACE.json]
                 [--metrics-out M.json] --out DB.dist
      Run MPIBench on a simulated cluster and save the distribution database.
      --replicas K merges K independent derived-seed runs; --threads T fans
      replicas over T worker threads (0 = all cores, 1 = serial) with
      bitwise-identical output at any thread count. --faults degrades the
      simulated network with a TOML fault scenario (random frame loss,
      per-link degradation, link flaps, background traffic, node pauses) so
      the same sweep can be re-measured on an unhealthy machine. --trace-out
      writes a Chrome trace of one benchmark replica, --metrics-out the
      per-size latency histograms as metrics JSON.

  pevpm inspect  --db DB.dist
      Summarise a distribution database.

  pevpm fit      --db DB.dist --out FITTED.dist
      Replace histograms by best-fit parametric models (compact database).

  pevpm annotate FILE.c
      Parse `// PEVPM` annotations and print the extracted model.

  pevpm predict  --model FILE.c --db DB.dist --procs N [--mode dist|avg|min]
                 [--pingpong] [--exact-quantiles] [--param k=v ...] [--seed S]
                 [--reps R] [--threads T] [--quorum K]
                 [--precision P] [--min-reps N] [--max-reps N] [--antithetic]
                 [--max-steps N] [--max-virtual-secs S]
                 [--trace-out TRACE.json] [--metrics-out M.json]
      Evaluate the annotated program's PEVPM model against a database.
      --reps R > 1 runs a Monte-Carlo batch of R derived-seed replications
      (mean +/- stderr); --threads T as for bench. --quorum K lets the
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
                 [--conns C] [--io-timeout-ms MS] [--drain-ms MS]
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
      every C. --threads T (0 = all cores) is the evaluation budget the
      C workers share: each fans a batch's items, or a request's
      replications, over T/C threads, and no request can change that.
      --io-timeout-ms puts read/write deadlines on every
      protocol socket (default 30000; 0 disables): an idle peer is
      quietly evicted, a peer stalled mid-frame gets a structured
      \"timeout\" error and a closed socket. Each worker evaluates one
      request at a time, and up to 8 accepted connections per worker
      wait for one; past that the daemon answers a new connection with
      an \"overloaded\" response carrying a retry_after_ms hint (100)
      and closes it instead of queueing unboundedly. On `shutdown` or
      SIGTERM the daemon drains gracefully: stops accepting, lets
      in-flight requests finish for up to --drain-ms (default 2000),
      flushes telemetry, then exits.

  pevpm client   (--addr HOST:PORT | --port-file PATH) [--stats] [--ping]
                 [--shutdown] [--batch K] [--crn] [--table NAME]
                 [--connect-timeout-ms MS] [--retries N]
                 [--retry-backoff-ms MS] [--model FILE.c --procs N ...]
      Send requests to a running daemon and print one response JSON line
      each. With --model, sends the same prediction `predict` would run
      and accepts its request flags (--mode --pingpong --exact-quantiles
      --param --seed --reps --quorum --precision --min-reps --max-reps
      --antithetic --max-steps --max-virtual-secs; how parallel it runs is
      the daemon's setting), against the daemon's table --table names;
      --batch K (K >= 1) sends it as one batch of K identical items.
      --crn (needs K >= 2) marks the batch for common random numbers:
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
      batch accounting.

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

/// One subcommand: its entry point and every `--option` it reads, as
/// space-separated lists so that commands sharing a reader share its list.
/// [`run`] refuses an option the command does not list, so a mistyped flag
/// fails instead of being ignored; a test holds each list equal to the
/// command's [`USAGE`] block.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<String, CliError>,
    options: &'static [&'static str],
}

impl Command {
    fn reads(&self, option: &str) -> bool {
        let mut listed = self.options.iter().flat_map(|list| list.split(' '));
        listed.any(|o| o == option)
    }
}

/// Accepted by every command: the verbosity flags [`run`] reads itself, and
/// `--help`, which has always parsed as a flag nothing reads.
const GLOBAL_OPTIONS: &[&str] = &["quiet", "verbose", "help"];

/// Read by `bench::world_for` (`bench`, `trace`).
const CLUSTER_OPTIONS: &str = "machine faults";

/// Read by `predict::predict_request` (`predict`, `client`).
const REQUEST_OPTIONS: &str = "procs mode pingpong exact-quantiles param seed reps quorum \
    precision min-reps max-reps antithetic max-steps max-virtual-secs";

const COMMANDS: &[Command] = &[
    Command {
        name: "bench",
        run: cmd_bench,
        options: &[
            "nodes ppn pattern sizes reps replicas threads seed out trace-out metrics-out",
            CLUSTER_OPTIONS,
        ],
    },
    Command {
        name: "inspect",
        run: cmd_inspect,
        options: &["db"],
    },
    Command {
        name: "fit",
        run: cmd_fit,
        options: &["db out"],
    },
    Command {
        name: "annotate",
        run: cmd_annotate,
        options: &[],
    },
    Command {
        name: "predict",
        run: cmd_predict,
        options: &["model db threads trace-out metrics-out", REQUEST_OPTIONS],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        options: &[
            "db addr threads conns io-timeout-ms",
            "drain-ms max-reps max-steps max-virtual-secs port-file metrics-out http log-out",
            "log-slow-ms span-cap",
        ],
    },
    Command {
        name: "client",
        run: cmd_client,
        options: &[
            "addr port-file stats ping shutdown batch crn table connect-timeout-ms retries",
            "retry-backoff-ms model",
            REQUEST_OPTIONS,
        ],
    },
    Command {
        name: "trace",
        run: cmd_trace,
        options: &[
            "nodes ppn xsize iters serial-ms seed db exact-quantiles trace-out",
            CLUSTER_OPTIONS,
        ],
    },
    Command {
        name: "fuzz",
        run: cmd_fuzz,
        options: &["mode programs seed alpha reps ks-runs bench-reps out replay"],
    },
    Command {
        name: "help",
        run: |_| Ok(USAGE.to_string()),
        options: &[],
    },
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
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        return err(format!("unknown command {cmd:?}\n\n{USAGE}"));
    };
    let mut unknown: Vec<&str> = args
        .keys()
        .filter(|key| !GLOBAL_OPTIONS.contains(key) && !command.reads(key))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return err(format!(
            "unknown option --{} for `pevpm {cmd}` (see `pevpm help`)",
            unknown.join(", --")
        ));
    }
    (command.run)(&args)
}

fn write_text(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::input(format!("cannot write {path}: {e}")))
}
