//! `pevpm-serve`: the long-running prediction service.
//!
//! A one-shot `pevpm predict` pays the full pipeline on every call —
//! load the benchmark database, compile its distributions into sampler
//! form, parse and lower the annotated model, then evaluate. For
//! interactive what-if exploration (the paper's intended PEVPM use case:
//! vary process counts, message sizes, and machine tables around a known
//! model) that repetition is almost pure waste: the tables and models
//! barely change between questions.
//!
//! This crate splits the pipeline at its natural joint:
//!
//! * [`plan`] — the front-end-agnostic request-plan layer: a
//!   [`plan::PredictRequest`] carries exactly what a prediction needs,
//!   and validation/classification mirrors the CLI's exit-code contract.
//!   Both the one-shot subcommands and the daemon build on it, so a
//!   daemon answer is bitwise-reproducible by a one-shot run.
//! * [`cache`] — content-keyed caches for parsed models (by source text)
//!   and compiled timing models, with hit/miss/compile counters in a
//!   [`pevpm_obs::Registry`].
//! * [`proto`] — the wire protocol: length-prefixed JSON frames over
//!   TCP, deterministic response payloads.
//! * [`server`] — the daemon: a bounded concurrent connection layer
//!   (accept loop + fixed worker pool) with per-connection I/O
//!   deadlines, in-flight admission control with load shedding,
//!   graceful drain, per-request panic isolation, and batch fan-out
//!   onto the replication pool.
//! * [`telemetry`] — service-grade observability: per-request spans
//!   (validate → model → compile → eval → render) in a bounded ring,
//!   stage latency histograms, a structured one-line-JSON request log,
//!   and a dependency-free HTTP sidecar serving Prometheus `/metrics`,
//!   `/healthz`, and `/spans`.
//! * [`client`] — a small blocking client for the CLI subcommand, tests,
//!   and smoke scripts, with connect timeouts and bounded retries on
//!   the two unambiguous failures (connect-refused and `"overloaded"`).
//! * [`chaos`] — the fault-injection harness behind `client --chaos`:
//!   misbehaving peers (truncated prefixes, mid-frame stalls, half-open
//!   disconnects, oversized frames, garbage bytes, slow readers) that
//!   verify the daemon survives every mode without a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod chaos;
pub mod client;
mod config;
mod conn;
mod gate;
pub mod plan;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use cache::{fnv1a, ModelCache, TimingCache};
pub use chaos::{ChaosMode, ChaosReport};
pub use client::{Client, ClientConfig};
pub use plan::{EvalOutcome, PlanError, PlanErrorKind, PredictRequest};
pub use proto::{read_frame, write_frame, Request};
pub use server::{ServeConfig, ServeError, Server};
pub use telemetry::{HttpServer, RequestTimer, Telemetry};
