//! Observability layer for the MPIBench/PEVPM reproduction.
//!
//! The paper's diagnostic claim (§5) is that PEVPM can *attribute* where a
//! parallel program's time goes; this crate supplies the machinery that
//! makes those attributions visible outside a debugger:
//!
//! - [`metrics`] — a lightweight facade of atomic counters, gauges and
//!   fixed-bin histograms in a named [`Registry`]. Instrumented code holds
//!   an `Option<Arc<Registry>>`; when no registry is installed the hot
//!   path pays a single branch per event, so uninstrumented runs are
//!   effectively free (enforced by the `engine_micro` benchmark).
//! - [`chrome`] — a Chrome `trace_event` JSON exporter. Both PEVPM
//!   *predicted* per-process virtual timelines and `mpisim` *measured*
//!   per-rank timelines render to the same format, so the paper's
//!   predicted-vs-measured comparison becomes a side-by-side flamegraph in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! - [`span`] — request-lifecycle spans: a bounded [`SpanRing`] of
//!   per-request [`RequestSpan`] stage records, the raw material behind
//!   the daemon's `/spans` endpoint, span-derived stage percentiles, and
//!   the pid-4 "service stages" Chrome-trace track.
//! - [`json`] — a dependency-free JSON emitter/parser used by the
//!   exporters and their schema tests (the workspace builds offline, so no
//!   serde).
//! - [`diag`] — verbosity-gated stderr diagnostics (`-q` / `--verbose`),
//!   keeping benchmark stdout machine-parseable.
//! - [`text`] — the line reader under every line-oriented text format
//!   (`.dist` tables, fault scenarios, `// PEVPM` annotations, the fuzzer's
//!   artifacts) and their one error type, [`text::LineError`].
//!
//! All primitives are thread-safe: replicated Monte-Carlo evaluations
//! record into one shared registry from many worker threads, and the
//! resulting totals are order-independent (atomic adds only).

pub mod chrome;
pub mod diag;
pub mod json;
pub mod metrics;
pub mod span;
pub mod text;

pub use chrome::{ChromeTrace, Span};
pub use diag::Verbosity;
pub use json::Json;
pub use metrics::{Counter, FixedHistogram, Gauge, Registry};
pub use span::{RequestSpan, SpanRing, StageTiming};
