//! A simulated MPI library over the packet-level cluster simulator.
//!
//! This crate stands in for MPICH 1.2.0 on the paper's Perseus cluster:
//! rank programs are ordinary Rust closures executed by threads that pass
//! a baton in exact virtual-time order, with an eager/rendezvous
//! point-to-point protocol and MPICH-style collective algorithms whose
//! network traffic flows through [`pevpm_netsim`]. The result is
//! deterministic per seed and exposes the globally synchronised virtual
//! clock that MPIBench relies on.
//!
//! # Quick start
//!
//! ```
//! use pevpm_mpisim::{World, WorldConfig};
//!
//! let cfg = WorldConfig::ideal(2, 1); // 2 nodes × 1 process
//! let report = World::run(cfg, |rank| {
//!     if rank.rank() == 0 {
//!         rank.send(1, 7, &b"hello"[..]);
//!     } else {
//!         let (meta, payload) = rank.recv(0, 7);
//!         assert_eq!(&payload[..], b"hello");
//!         assert_eq!(meta.src, 0);
//!     }
//! })
//! .unwrap();
//! assert!(report.virtual_time > pevpm_netsim::Time::ZERO);
//! ```

pub mod collectives;
pub mod config;
pub mod msg;
pub mod rank;
pub mod sched;
pub mod trace;

pub use collectives::ReduceOp;
pub use config::{Placement, ProtocolConfig, WorldConfig};
pub use msg::{MsgMeta, Request, SrcSel, TagSel, COLLECTIVE_TAG_BASE};
pub use rank::{decode_f64s, encode_f64s, Rank};
pub use sched::{RunReport, SimError, World};
pub use trace::{breakdown, fault_marks, RankBreakdown, TraceEvent, TraceKind};

// Payload buffer type used by the rank API, re-exported so dependants do
// not need a direct `bytes` dependency.
pub use bytes::Bytes;

// Re-export the substrate types callers need for configuration.
pub use pevpm_netsim::{ClusterConfig, Dur, FaultEvent, FaultKind, FaultPlan, Time};
