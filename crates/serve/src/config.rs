//! Daemon configuration and its defaults.

use std::path::PathBuf;

use crate::telemetry::DEFAULT_SPAN_CAPACITY;

/// Worker-pool width when [`ServeConfig::conns`] is 0.
pub const DEFAULT_CONNS: usize = 4;

/// Default per-connection read/write deadline in milliseconds.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 30_000;

/// Default graceful-drain deadline in milliseconds.
pub const DEFAULT_DRAIN_MS: u64 = 2_000;

/// Default `retry_after_ms` hint on `"overloaded"` responses.
pub const DEFAULT_SHED_RETRY_MS: u64 = 100;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for a free port.
    pub addr: String,
    /// Benchmark tables to preload, as `(name, path)`.
    pub tables: Vec<(String, PathBuf)>,
    /// The daemon's evaluation-thread budget (0 = all cores): each of the
    /// `conns` workers fans a batch's items, or a request's Monte-Carlo
    /// replications, over its `threads / conns` share of it, so
    /// `conns × replication pool` never oversubscribes the host. No
    /// request can change either factor.
    pub threads: usize,
    /// Admission control: refuse requests asking for more replications
    /// than this (0 = unlimited).
    pub max_reps: usize,
    /// Admission control: cap every evaluation's directive budget.
    pub max_steps: Option<u64>,
    /// Admission control: cap every evaluation's simulated-seconds budget.
    pub max_virtual_secs: Option<f64>,
    /// Bind address for the HTTP observability sidecar (`/metrics`,
    /// `/healthz`, `/spans`); `None` disables it.
    pub http_addr: Option<String>,
    /// Write the structured one-line-JSON request log to this file
    /// instead of stderr.
    pub log_out: Option<PathBuf>,
    /// Only log requests at least this slow, in milliseconds. Setting it
    /// (even to `0.0`) enables the request log.
    pub log_slow_ms: Option<f64>,
    /// How many finished request spans the in-memory ring retains.
    pub span_capacity: usize,
    /// Connection worker-pool width (0 = [`DEFAULT_CONNS`]). Responses
    /// are bitwise identical at every value — concurrency changes
    /// wall-clock, never payloads.
    pub conns: usize,
    /// Per-connection read/write deadline in milliseconds (0 = none).
    /// Bounds both idle occupancy of a worker slot and mid-frame stalls.
    pub io_timeout_ms: u64,
    /// Maximum in-flight predictions (`predict`/`batch` frames being
    /// evaluated); 0 = the worker-pool width.
    pub inflight: usize,
    /// Bounded wait-queue slots past `inflight` before the server sheds
    /// with an `"overloaded"` response; `None` = same as `inflight`.
    pub queue: Option<usize>,
    /// The `retry_after_ms` hint carried on shed responses.
    pub shed_retry_ms: u64,
    /// Graceful-drain deadline in milliseconds: how long `shutdown` (or
    /// an external stop) waits for in-flight requests before
    /// force-closing their connections.
    pub drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            tables: Vec::new(),
            threads: 0,
            max_reps: 0,
            max_steps: None,
            max_virtual_secs: None,
            http_addr: None,
            log_out: None,
            log_slow_ms: None,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            conns: 0,
            io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
            inflight: 0,
            queue: None,
            shed_retry_ms: DEFAULT_SHED_RETRY_MS,
            drain_ms: DEFAULT_DRAIN_MS,
        }
    }
}
