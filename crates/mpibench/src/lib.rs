//! MPIBench — precise MPI communication benchmarking (reproduction).
//!
//! The original MPIBench (Grove & Coddington, HPC Asia 2001; §2–3 of the
//! reproduced paper) differs from Mpptest/SKaMPI/Pallas in two ways, both
//! reproduced here:
//!
//! 1. **A globally synchronised clock**: individual messages are timed
//!    *across* processes (send start at the sender, receive completion at
//!    the receiver), not as round-trip halves. In this reproduction the
//!    simulator's virtual clock plays that role; [`ClockModel`] can inject
//!    synchronisation error to study its effect.
//! 2. **Distributions, not averages**: every individual operation
//!    contributes one sample, and results are kept as histograms — the
//!    probability distributions PEVPM samples from — rather than collapsed
//!    into a single mean as conventional benchmarks do.
//!
//! The crate provides the point-to-point driver ([`p2p`]), collective
//! drivers ([`collective`]), and full-machine sweeps ([`sweep`]) that
//! produce the [`pevpm_dist::DistTable`] benchmark databases consumed by
//! the PEVPM modelling engine.

pub mod clock;
pub mod collective;
pub mod conventional;
pub mod p2p;
pub mod sweep;

pub use clock::ClockModel;
pub use collective::{run_collective, CollConfig, CollResult};
pub use conventional::{compare as compare_conventional, run_pingpong, Comparison, PingPongResult};
pub use p2p::{
    histogram_from_samples, run_p2p, run_p2p_reps, Direction, P2pConfig, P2pResult, PairPattern,
    HIST_BINS,
};
pub use sweep::{
    paper_shapes, run_sweep, run_sweep_threads, size_grid, MachineShape, SweepConfig, SweepResult,
};
