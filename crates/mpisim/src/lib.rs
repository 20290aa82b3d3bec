//! A simulated MPI library over the packet-level cluster simulator.
//!
//! This crate stands in for MPICH 1.2.0 on the paper's Perseus cluster:
//! rank programs are `async` Rust closures, coroutines that one executor
//! on the calling thread polls in exact virtual-time order (see
//! [`sched`]), with an eager/rendezvous point-to-point protocol and
//! MPICH-style collective algorithms whose network traffic flows through
//! [`pevpm_netsim`]. The result is deterministic per seed, spawns no
//! thread however many ranks the world has, and exposes the globally
//! synchronised virtual clock that MPIBench relies on.
//!
//! # Quick start
//!
//! ```
//! use pevpm_mpisim::{World, WorldConfig};
//!
//! let cfg = WorldConfig::ideal(2, 1); // 2 nodes × 1 process
//! let report = World::run_async(cfg, async |rank| {
//!     if rank.rank() == 0 {
//!         rank.send(1, 7, &b"hello"[..]).await;
//!     } else {
//!         let (meta, payload) = rank.recv(0, 7).await;
//!         assert_eq!(&payload[..], b"hello");
//!         assert_eq!(meta.src, 0);
//!     }
//! })
//! .unwrap();
//! assert!(report.virtual_time > pevpm_netsim::Time::ZERO);
//! ```
//!
//! # The blocking façade
//!
//! [`World::run`] with a plain closure over a [`Rank`], one OS thread per
//! rank, is the previous interface. Only `perf/src/probes.rs` still calls
//! it, and `perf/` is frozen outside `benchmark` PRs, so it survives as a
//! thin layer over the same engine; [`threads`] says what deletes it.

pub mod collectives;
pub mod config;
pub mod msg;
pub mod rank;
pub mod sched;
pub mod threads;
pub mod trace;

pub use collectives::ReduceOp;
pub use config::{WorldConfig, CTRL_BYTES, EAGER_THRESHOLD, MATCH_COST};
pub use msg::{MsgMeta, Request, SrcSel, TagSel, COLLECTIVE_TAG_BASE};
pub use rank::{decode_f64s, encode_f64s, Proc};
pub use sched::{RunReport, SimError, World};
pub use threads::Rank;
pub use trace::{breakdown, fault_marks, RankBreakdown, TraceEvent, TraceKind};

// Payload buffer type used by the rank API, re-exported so dependants do
// not need a direct `bytes` dependency.
pub use bytes::Bytes;

// Re-export the substrate types callers need for configuration.
pub use pevpm_netsim::{ClusterConfig, Dur, FaultEvent, FaultKind, FaultPlan, Time};
