// Hostile-input hardening: library code must surface structured errors,
// never unwrap. Test code (cfg(test)) is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Packet-level discrete-event simulator of a commodity Ethernet cluster.
//!
//! This crate is the hardware substrate of the reproduction: it stands in
//! for the paper's Perseus cluster (116 dual-P-III nodes, switched 100 Mbit/s
//! Fast Ethernet, 24-port Intel 510T switches stacked with 2.1 Gbit/s matrix
//! cards). See `DESIGN.md` at the workspace root for the substitution
//! rationale.
//!
//! The model is deliberately mechanistic rather than curve-fitted: message
//! latency, NIC contention between SMP processes, backplane (trunk)
//! saturation, buffer-overflow drops and retransmission-timeout outliers all
//! *emerge* from FIFO queue servers with finite buffers — the same phenomena
//! MPIBench measures on real hardware in Figures 1–4 of the paper.
//!
//! # Quick start
//!
//! ```
//! use pevpm_netsim::{ClusterConfig, Network, Time};
//!
//! let mut net = Network::new(ClusterConfig::perseus(4), 42);
//! let id = net.start_transfer(Time::ZERO, 0, 1, 1024);
//! let done = net.run_to_completion();
//! assert_eq!(done[0].id, id);
//! println!("1 KiB delivered at {}", done[0].delivered_at);
//! ```

pub mod config;
pub mod faults;
pub mod network;
pub mod slots;
pub mod time;

pub use config::{ClusterConfig, NodeId, SwitchId};
pub use faults::{
    Background, FaultError, FaultEvent, FaultKind, FaultPlan, LinkDegrade, LinkFlap, Pause,
};
pub use network::{Completion, NetStats, Network, TransferId};
pub use slots::Slots;
pub use time::{wire_time, Dur, Time};
