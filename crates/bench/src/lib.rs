//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module implements one experiment end-to-end (benchmark → model →
//! comparison); the `benches/` targets of this crate call these with
//! paper-scale parameters and print the same rows/series the paper
//! reports, while the workspace tests call them with reduced parameters.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`figs12`]  | Figures 1 & 2: average MPI_Isend times vs size per `n×p` shape (+`min` curve, 70%-contention and 16 KB-knee claims) |
//! | [`figs34`]  | Figures 3 & 4: per-size time PDFs under contention, incl. saturation tails and RTO outliers |
//! | [`fig6`]    | Figure 6: Jacobi speedups, measured vs PEVPM under four prediction inputs (+ error table T-err) |
//! | [`tcost`]   | §6 evaluation-cost claim (T-cost): one PEVPM evaluation vs the virtual time it models and vs packet-level execution — every other timing figure is a probe of the benchmark under `perf/` |
//! | [`ext`]     | FFT and task-farm measured-vs-predicted extensions |
//! | [`ablate`]  | Ablations: histogram bin granularity, clock-sync error |
//! | [`robustness`] | Extension: prediction error on a fault-degraded machine, clean vs refreshed database |
//! | [`report`]  | Small text-table formatting helpers shared by the benches |

pub mod ablate;
pub mod ext;
pub mod fig6;
pub mod figs12;
pub mod figs34;
pub mod report;
pub mod robustness;
pub mod tcost;
