//! The Performance Evaluating Virtual Parallel Machine.
//!
//! Implements the evaluation algorithm of §5: virtual processes execute the
//! directive program in interleaved **sweep** and **match** phases.
//!
//! - *Sweep*: every runnable process executes directives — advancing its
//!   virtual clock through `Serial` segments and posting `Send`/`Isend`
//!   message metadata onto the **contention scoreboard** — until it reaches
//!   a *decision point* (a blocking receive, a rendezvous-size blocking
//!   send, or a collective).
//! - *Match*: every scoreboard message that does not yet have an arrival
//!   time gets one by Monte-Carlo sampling from the timing model, as a
//!   function of its size and the **current scoreboard population** (the
//!   contention level). Arrived messages are matched to blocked receives in
//!   per-pair FIFO order; matched receivers resume at
//!   `max(block time, arrival)`, and matched messages leave the scoreboard.
//!
//! Evaluation alternates phases until every process finishes. If neither
//! phase can make progress the program is deadlocked, and the VM reports
//! which processes are blocked where — the paper's "automatically discover
//! program deadlock" capability. Blocked time is attributed to directive
//! labels, giving the per-source performance-loss report of §5.
//!
//! This file only re-exports. `engine` is that virtual machine, `msg` what
//! its scoreboard holds, `driver` the Monte-Carlo loop of §6 around it;
//! `config` says what to run, `prediction` and `error` what comes back.

mod config;
mod driver;
mod engine;
mod error;
mod msg;
mod prediction;
#[cfg(test)]
mod tests;

pub use config::{EvalConfig, RunBudget, RNDV_THRESHOLD_BYTES};
pub use driver::monte_carlo;
pub use engine::evaluate;
pub(crate) use engine::{
    finish_prediction, prepare, run_lowered, EvalSetup, ExternalMsg, VmOutcome,
};
pub use error::{BudgetAxis, BudgetReport, PevpmError};
pub use prediction::{McPrediction, Prediction, SpanKind, TimelineSpan};
