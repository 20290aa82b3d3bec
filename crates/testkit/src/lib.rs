//! Differential conformance harness for the PEVPM engine.
//!
//! The engine has three independent implementations of "what does this
//! model program cost": the interpreted distribution lookup, the compiled
//! sampler tables, and the packet-level mpisim co-simulation. This crate
//! generates random well-formed model programs and runs them through all
//! three, gating the results with a hierarchy of oracles:
//!
//! 1. **Bitwise differential** ([`oracle::check_differential`]) — the
//!    interpreted, compiled, and unfolded-lowering evaluation paths must
//!    agree bitwise on every replication's finish times and makespan.
//! 2. **Statistical** ([`oracle::check_ks`]) — the predicted makespan
//!    distribution must pass a two-sample Kolmogorov–Smirnov test against
//!    mpisim co-simulation of the same program on the machine the timing
//!    tables were benchmarked on (the paper's Figure 6 methodology,
//!    distribution-level instead of mean-level).
//! 3. **Metamorphic** ([`oracle::check_scaling`],
//!    [`oracle::check_fault_identity`]) — relations that must hold
//!    between *pairs* of runs: doubling every message size never shrinks
//!    a replication's predicted makespan (exact, via dominance tables),
//!    and a fault plan whose faults never fire is bitwise identical to
//!    the healthy machine.
//! 4. **Diagnostics** ([`oracle::check_diagnostics`]) — opt-in
//!    maybe-deadlocking programs must produce exactly the deadlock/budget
//!    diagnostics their shape implies, never a crash or a silent
//!    completion.
//!
//! Failing programs are minimised by [`shrink::shrink`] to a small
//! replayable counterexample ([`report::Counterexample`]) whose artifact
//! both `cli fuzz --replay` and plain tests can parse back.

pub mod campaign;
pub mod corun;
pub mod gen;
pub mod oracle;
pub mod program;
pub mod report;
pub mod shrink;
pub mod tables;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult, Mode};
pub use gen::{generate, GenConfig};
pub use oracle::Failure;
pub use program::{Item, PairMode, TestProgram};
pub use report::Counterexample;
