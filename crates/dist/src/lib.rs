//! Probability-distribution toolkit for MPIBench / PEVPM.
//!
//! This crate provides the statistical machinery shared by the benchmark side
//! (MPIBench accumulates observed communication times into histograms) and
//! the modelling side (PEVPM draws Monte-Carlo samples from those
//! distributions). The central types are:
//!
//! - [`Summary`] — streaming summary statistics (count/min/max/mean/stddev).
//! - [`Histogram`] — fixed-bin-width histogram with probability/cumulative
//!   views and quantile interpolation (the inverse CDF every draw takes). This is the
//!   representation the paper calls a "performance distribution" or PDF.
//! - [`Ecdf`] — exact empirical CDF over a retained sample set, including the
//!   Kolmogorov–Smirnov distance used in tests.
//! - [`fit`] — parametric fits (shifted exponential, log-normal, gamma) to a
//!   histogram, the "parametrised functions to model the PDFs" of §2.
//! - [`Op`] / [`CollOp`] — the operations a table is keyed by, and the
//!   collectives among them: the one list of operation names that MPIBench,
//!   PEVPM and the co-simulator share.
//! - [`CommDist`] / [`DistTable`] — a communication-time distribution and a
//!   table of them keyed by (operation, message size, contention level), with
//!   bilinear quantile interpolation between grid points. PEVPM queries this
//!   table with arbitrary (size, #in-flight-messages) coordinates.
//! - [`io`] — a compact, versioned, human-readable text format for saving and
//!   reloading benchmark databases (`.dist` files).
//! - [`CompiledTable`] — an immutable, allocation-free compilation of a
//!   [`DistTable`] for the Monte-Carlo hot path: flat sorted axes, exact
//!   prefix-sum histogram inversion (a fit is rendered into histogram
//!   bins first), and lane-batched inverse CDFs that invert each neighbour cell
//!   once per draw.
//!
//! All times are `f64` seconds. All sampling is driven by a caller-supplied
//! [`rand::Rng`], so experiments are reproducible given a seed.

pub mod compiled;
pub mod ecdf;
pub mod fit;
pub mod histogram;
// io parses untrusted files: every failure must be a structured error.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod io;
pub mod sample;
pub mod summary;
pub mod table;

pub use compiled::{CellParts, CompileError, CompiledDist, CompiledTable, ResolvedCell};
pub use ecdf::Ecdf;
pub use fit::{FitKind, ParametricFit};
pub use histogram::Histogram;
pub use sample::PointKind;
pub use summary::Summary;
pub use table::{CollOp, CommDist, DistKey, DistTable, Op};
