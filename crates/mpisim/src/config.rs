//! Configuration of a simulated MPI world.
//!
//! Ranks are laid out in blocks, as MPICH does by default and as the
//! paper's `n×p` notation assumes: consecutive ranks share a node. The
//! point-to-point protocol is MPICH 1.2's, fixed by the three constants
//! below.

use pevpm_netsim::{ClusterConfig, Dur};

/// Messages strictly smaller than this are sent eagerly; larger ones use
/// the rendezvous (RTS/CTS) protocol. MPICH 1.2's 16 KB threshold is the
/// cause of the knee in the paper's Figure 2.
pub const EAGER_THRESHOLD: u64 = 16 * 1024;
/// Size of RTS/CTS control messages on the wire.
pub const CTRL_BYTES: u64 = 64;
/// CPU cost of matching an envelope against the receive queue.
pub const MATCH_COST: Dur = Dur::from_micros(2);

/// Complete description of a simulated MPI world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// The physical cluster beneath the MPI library.
    pub cluster: ClusterConfig,
    /// MPI processes per node (`p` in the paper's `n×p` notation).
    pub procs_per_node: usize,
    /// RNG seed for the network's stochastic elements.
    pub seed: u64,
    /// Abort if virtual time exceeds this bound (guards against runaway
    /// programs in tests); `None` disables the check.
    pub virtual_deadline: Option<Dur>,
    /// Record per-rank operation timelines (see [`crate::trace`]).
    pub record_trace: bool,
}

impl WorldConfig {
    /// A world of `cluster.nodes × procs_per_node` ranks, with no deadline
    /// and no trace.
    pub fn new(cluster: ClusterConfig, procs_per_node: usize, seed: u64) -> Self {
        WorldConfig {
            cluster,
            procs_per_node,
            seed,
            virtual_deadline: None,
            record_trace: false,
        }
    }

    /// A Perseus-like world of `nodes × procs_per_node` ranks.
    pub fn perseus(nodes: usize, procs_per_node: usize, seed: u64) -> Self {
        WorldConfig::new(ClusterConfig::perseus(nodes), procs_per_node, seed)
    }

    /// An idealised (deterministic, lossless) world for unit tests.
    pub fn ideal(nodes: usize, procs_per_node: usize) -> Self {
        WorldConfig::new(ClusterConfig::ideal(nodes), procs_per_node, 0)
    }

    /// Total number of MPI ranks.
    pub fn nranks(&self) -> usize {
        self.cluster.nodes * self.procs_per_node
    }

    /// Physical node hosting `rank`: block placement.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.procs_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_groups_consecutive_ranks() {
        let cfg = WorldConfig::perseus(4, 2, 0);
        assert_eq!(cfg.nranks(), 8);
        assert_eq!(cfg.node_of(0), 0);
        assert_eq!(cfg.node_of(1), 0);
        assert_eq!(cfg.node_of(2), 1);
        assert_eq!(cfg.node_of(7), 3);
    }

    #[test]
    fn default_protocol_matches_mpich() {
        assert_eq!(EAGER_THRESHOLD, 16 * 1024);
    }
}
