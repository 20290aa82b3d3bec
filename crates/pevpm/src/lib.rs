//! PEVPM — the Performance Evaluating Virtual Parallel Machine.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! fast, accurate performance-prediction engine for message-passing
//! programs. A parallel program is described by a small directive language
//! ([`model`]) — extracted automatically from `// PEVPM`-annotated source
//! ([`annotate`]) or built programmatically — and *evaluated* on a virtual
//! parallel machine ([`vm`]) that simulates the program's time structure,
//! once lowered to a [`Program`]:
//!
//! - per-process virtual clocks advance through `Serial` computation
//!   segments;
//! - message sends post metadata to a **contention scoreboard**;
//! - evaluation proceeds in interleaved **sweep/match** phases, with each
//!   message's end-to-end time obtained by **Monte-Carlo sampling from
//!   probability distributions** measured by MPIBench, indexed by message
//!   size and current contention level ([`timing`]).
//!
//! Sampling full distributions (rather than plugging in a ping-pong average
//! or minimum) is what lets PEVPM track real executions to within a few
//! percent even at large process counts — the paper's Figure 6 result,
//! reproduced in this workspace's `pevpm-bench` crate.
//!
//! # Quick start
//!
//! ```
//! use pevpm::model::build::*;
//! use pevpm::model::Model;
//! use pevpm::timing::TimingModel;
//! use pevpm::vm::{evaluate, EvalConfig};
//!
//! // A two-process ping-pong, 10 rounds of 1 KiB messages.
//! let model = Model::new().with_stmt(looped(
//!     "10",
//!     vec![runon2(
//!         "procnum == 0",
//!         vec![send("1024", "0", "1"), recv("1024", "1", "0")],
//!         "procnum == 1",
//!         vec![recv("1024", "0", "1"), send("1024", "1", "0")],
//!     )],
//! ));
//! // Analytic timing: 100 us latency, 12.5 MB/s Fast-Ethernet bandwidth.
//! let timing = TimingModel::hockney(100e-6, 12.5e6);
//! let prediction = evaluate(&model, &EvalConfig::new(2), &timing).unwrap();
//! assert!(prediction.makespan > 0.0);
//! ```

pub(crate) mod analyze;
pub mod annotate;
pub mod dag;
pub mod expr;
pub(crate) mod lower;
pub mod model;
pub mod replicate;
pub mod scoreboard;
pub mod stats;
pub mod timing;
pub mod trace_export;
pub mod vm;

pub use annotate::{parse_annotations, JACOBI_FIG5};
pub use dag::DagPlan;
pub use expr::{parse as parse_expr, Env, Expr, ExprError};
pub use lower::Program;
pub use model::{CollOp, Model, MsgKind, Stmt};
pub use replicate::ThreadBudget;
pub use scoreboard::{Handle, PairFifo, PairId, Slab};
pub use stats::{AdaptivePolicy, AdaptiveReport};
pub use timing::{PredictionMode, TimingModel};
pub use vm::{
    evaluate, monte_carlo, EvalConfig, McPrediction, PevpmError, Prediction, SpanKind, TimelineSpan,
};
