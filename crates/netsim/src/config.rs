//! Cluster topology and parameter configuration.
//!
//! The default preset, [`ClusterConfig::perseus`], models the machine the
//! paper measured: dual-processor nodes on switched 100 Mbit/s Fast
//! Ethernet, 24-port switches joined by 2.1 Gbit/s stacking trunks, MPICH
//! over TCP with a 16 KB eager/rendezvous threshold, and Linux-2.2-era TCP
//! retransmission timeouts (200 ms minimum RTO, exponential backoff).

use crate::faults::FaultPlan;
use crate::time::Dur;

/// Identifier of a physical node (host).
pub type NodeId = usize;
/// Identifier of a switch.
pub type SwitchId = usize;

/// Static description of the simulated cluster and its protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Ports per switch; nodes fill switches in order (node i is on switch
    /// i / switch_ports), matching the paper's description of the 64×1 case
    /// spanning three 24-port switches (24 + 24 + 16).
    pub switch_ports: usize,
    /// Node link (NIC/port) bandwidth, bits per second.
    pub link_bw_bps: u64,
    /// Stacking-backplane (inter-switch bus) bandwidth, bits per second —
    /// shared by **all** inter-switch traffic. The paper's saturation
    /// analysis (2.02 Gbit/s delivered between two switches hitting the
    /// 2.1 Gbit/s matrix-card limit) identifies exactly this resource.
    pub trunk_bw_bps: u64,
    /// Per-switch shared switching-fabric bandwidth, bits per second. Fast
    /// enough never to be the sustained bottleneck, but simultaneous frame
    /// arrivals still serialise through it — the source of the mild
    /// intra-switch contention growth visible in Figure 1 for n ≤ 24.
    pub fabric_bw_bps: u64,
    /// Byte capacity of each switch-fabric queue.
    pub fabric_buffer_bytes: u64,
    /// Maximum Ethernet frame payload (MTU), bytes.
    pub mtu: u64,
    /// Per-frame framing overhead on the wire (preamble + header + FCS +
    /// inter-frame gap), bytes. 38 B matches the paper's 3.25 Mbit/s of
    /// framing overhead alongside 81 Mbit/s of goodput at 16 KB messages.
    pub frame_overhead: u64,
    /// One-way propagation + cut-through latency per hop.
    pub hop_latency: Dur,
    /// Byte capacity of each switch egress-port queue; overflow drops.
    pub port_buffer_bytes: u64,
    /// Byte capacity of each inter-switch trunk queue; overflow drops.
    pub trunk_buffer_bytes: u64,
    /// Mean of the exponential per-frame service jitter at each queue
    /// server. This is the stochastic element that broadens the
    /// communication-time distributions (OS scheduling, interrupt
    /// coalescing, PCI arbitration...).
    pub jitter_mean: Dur,
    /// Base (minimum) retransmission timeout after a dropped frame.
    pub rto_base: Dur,
    /// Maximum RTO after exponential backoff.
    pub rto_max: Dur,
    /// Random multiplicative jitter applied to each armed RTO, as a
    /// fraction (0.5 = up to +50%). Desynchronises flows that dropped
    /// together, as real per-connection TCP timers do.
    pub rto_jitter: f64,
    /// After a loss, retransmitted frames are paced at `retx_pace_factor ×`
    /// the frame wire time (2 = half the link rate) — a one-knob stand-in
    /// for TCP congestion avoidance that stops synchronised full-rate
    /// re-blasts from re-overflowing the same queue forever.
    pub retx_pace_factor: u64,
    /// Recovery delay when a loss is followed by at least three more
    /// frames of the same transfer (TCP fast retransmit via duplicate
    /// ACKs). Losses within the last three frames of a burst can only be
    /// recovered by the full RTO — which is what detaches the paper's
    /// outliers from the distribution's main mass.
    pub fast_retx_delay: Dur,
    /// Per-message fixed software overhead at the sender before the first
    /// frame reaches the NIC (MPI + TCP/IP stack traversal).
    pub send_overhead: Dur,
    /// Per-message fixed software overhead at the receiver after the last
    /// frame arrives before the message is delivered to MPI.
    pub recv_overhead: Dur,
    /// Per-frame CPU cost at the sender (segmentation, checksum); paid
    /// serially on the NIC path so large messages cost more than bare wire
    /// time.
    pub per_frame_overhead: Dur,
    /// Effective bandwidth for intra-node (shared-memory / loopback)
    /// transfers between two processes on the same SMP node.
    pub local_bw_bps: u64,
    /// Fixed latency for intra-node transfers.
    pub local_latency: Dur,
    /// Fault-injection scenario (degraded-machine operation). The default,
    /// empty plan is the healthy machine: it leaves the emergent model
    /// untouched.
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// The Perseus-like preset used throughout the reproduction.
    pub fn perseus(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            switch_ports: 24,
            link_bw_bps: 100_000_000,     // Fast Ethernet
            trunk_bw_bps: 2_100_000_000,  // 2.1 Gbit/s stacking backplane
            fabric_bw_bps: 5_000_000_000, // wire-speed shared fabric
            fabric_buffer_bytes: 1024 * 1024,
            mtu: 1_500,
            frame_overhead: 38,
            hop_latency: Dur::from_micros(5),
            port_buffer_bytes: 96 * 1024,
            trunk_buffer_bytes: 512 * 1024,
            jitter_mean: Dur::from_micros(3),
            rto_base: Dur::from_millis(200), // Linux 2.2 TCP RTO floor
            rto_max: Dur::from_millis(1600),
            rto_jitter: 0.5,
            retx_pace_factor: 2,
            fast_retx_delay: Dur::from_millis(2),
            send_overhead: Dur::from_micros(28),
            recv_overhead: Dur::from_micros(25),
            per_frame_overhead: Dur::from_micros(9),
            local_bw_bps: 1_200_000_000, // ~150 MB/s memcpy on a 500 MHz P-III
            local_latency: Dur::from_micros(15),
            faults: FaultPlan::default(),
        }
    }

    /// A hypothetical gigabit-Ethernet upgrade of Perseus: 1 Gbit/s links,
    /// a 21 Gbit/s stacking backplane, lower per-message software costs
    /// (era-typical gigabit NICs with interrupt coalescing). Used by the
    /// what-if parametric studies that exercise PEVPM's flexibility claim
    /// (§6: models "can be easily re-evaluated under different input and
    /// environmental conditions").
    pub fn gigabit(nodes: usize) -> Self {
        ClusterConfig {
            link_bw_bps: 1_000_000_000,
            trunk_bw_bps: 21_000_000_000,
            fabric_bw_bps: 50_000_000_000,
            fabric_buffer_bytes: 4 * 1024 * 1024,
            hop_latency: Dur::from_micros(2),
            port_buffer_bytes: 512 * 1024,
            trunk_buffer_bytes: 4 * 1024 * 1024,
            jitter_mean: Dur::from_micros(2),
            fast_retx_delay: Dur::from_micros(500),
            send_overhead: Dur::from_micros(15),
            recv_overhead: Dur::from_micros(12),
            per_frame_overhead: Dur::from_micros(2),
            ..ClusterConfig::perseus(nodes)
        }
    }

    /// A hypothetical low-latency interconnect (Myrinet-class): modest
    /// bandwidth gain over Fast Ethernet but an order of magnitude lower
    /// software overheads and latency, lossless (no drops).
    pub fn lowlatency(nodes: usize) -> Self {
        ClusterConfig {
            link_bw_bps: 1_280_000_000, // 160 MB/s Myrinet-era
            trunk_bw_bps: 10_000_000_000,
            fabric_bw_bps: 20_000_000_000,
            fabric_buffer_bytes: u64::MAX / 4,
            mtu: 4_096,
            frame_overhead: 8,
            hop_latency: Dur::from_nanos(500),
            port_buffer_bytes: u64::MAX / 4, // credit-based flow control: lossless
            trunk_buffer_bytes: u64::MAX / 4,
            jitter_mean: Dur::from_nanos(300),
            fast_retx_delay: Dur::from_micros(500),
            send_overhead: Dur::from_micros(3),
            recv_overhead: Dur::from_micros(3),
            per_frame_overhead: Dur::from_nanos(800),
            local_latency: Dur::from_micros(10),
            ..ClusterConfig::perseus(nodes)
        }
    }

    /// A small idealised network for unit tests: one switch, no jitter,
    /// generous buffers (no drops, so the RTO fields are inert), zero
    /// software overheads.
    pub fn ideal(nodes: usize) -> Self {
        ClusterConfig {
            switch_ports: nodes.max(1),
            fabric_bw_bps: 2_100_000_000,
            fabric_buffer_bytes: u64::MAX / 4,
            hop_latency: Dur::ZERO,
            port_buffer_bytes: u64::MAX / 4,
            trunk_buffer_bytes: u64::MAX / 4,
            jitter_mean: Dur::ZERO,
            rto_jitter: 0.0,
            send_overhead: Dur::ZERO,
            recv_overhead: Dur::ZERO,
            per_frame_overhead: Dur::ZERO,
            local_latency: Dur::ZERO,
            ..ClusterConfig::perseus(nodes)
        }
    }

    /// The presets by name, in the order shown to users.
    pub const MACHINES: [&'static str; 4] = ["perseus", "gigabit", "lowlatency", "ideal"];

    /// The preset one of [`ClusterConfig::MACHINES`] names, at `nodes`
    /// nodes; `None` for any other name.
    pub fn named(name: &str, nodes: usize) -> Option<Self> {
        let preset = match name {
            "perseus" => Self::perseus,
            "gigabit" => Self::gigabit,
            "lowlatency" => Self::lowlatency,
            "ideal" => Self::ideal,
            _ => return None,
        };
        Some(preset(nodes))
    }

    /// Which switch a node's port belongs to.
    pub fn switch_of(&self, node: NodeId) -> SwitchId {
        node / self.switch_ports
    }

    /// Number of switches needed for the configured node count.
    pub fn num_switches(&self) -> usize {
        self.nodes.div_ceil(self.switch_ports).max(1)
    }

    /// Number of frames a message of `bytes` is segmented into (at least 1:
    /// zero-byte MPI messages still cost a header frame).
    pub fn frames_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.mtu).max(1)
    }

    /// Payload length of frame `idx` (0-based) of a message of `bytes`.
    pub fn frame_payload(&self, bytes: u64, idx: u64) -> u64 {
        let nframes = self.frames_for(bytes);
        debug_assert!(idx < nframes);
        if bytes == 0 {
            return 0;
        }
        if idx + 1 < nframes {
            self.mtu
        } else {
            bytes - self.mtu * (nframes - 1)
        }
    }

    /// On-the-wire length of frame `idx` (payload + framing overhead).
    pub fn frame_wire_bytes(&self, bytes: u64, idx: u64) -> u64 {
        // Even an empty payload carries the minimum header weight.
        self.frame_payload(bytes, idx).max(26) + self.frame_overhead
    }

    /// Validate internal consistency; call after hand-editing a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be >= 1".into());
        }
        if self.switch_ports == 0 {
            return Err("switch_ports must be >= 1".into());
        }
        if self.link_bw_bps == 0 || self.trunk_bw_bps == 0 || self.fabric_bw_bps == 0 {
            return Err("bandwidths must be positive".into());
        }
        if self.mtu == 0 {
            return Err("mtu must be positive".into());
        }
        self.faults
            .validate(self)
            .map_err(|e| format!("fault plan: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perseus_spans_three_switches_at_64_nodes() {
        let c = ClusterConfig::perseus(64);
        assert_eq!(c.num_switches(), 3);
        assert_eq!(c.switch_of(0), 0);
        assert_eq!(c.switch_of(23), 0);
        assert_eq!(c.switch_of(24), 1);
        assert_eq!(c.switch_of(47), 1);
        assert_eq!(c.switch_of(48), 2);
        assert_eq!(c.switch_of(63), 2);
    }

    #[test]
    fn frame_segmentation() {
        let c = ClusterConfig::perseus(2);
        assert_eq!(c.frames_for(0), 1);
        assert_eq!(c.frames_for(1), 1);
        assert_eq!(c.frames_for(1500), 1);
        assert_eq!(c.frames_for(1501), 2);
        assert_eq!(c.frames_for(16 * 1024), 11);
        // Payload split: last frame carries the remainder.
        assert_eq!(c.frame_payload(1501, 0), 1500);
        assert_eq!(c.frame_payload(1501, 1), 1);
        assert_eq!(c.frame_payload(0, 0), 0);
    }

    #[test]
    fn wire_bytes_include_overhead_and_minimum_size() {
        let c = ClusterConfig::perseus(2);
        assert_eq!(c.frame_wire_bytes(1500, 0), 1538);
        // Tiny frames are padded to the Ethernet minimum (26 B here + 38).
        assert_eq!(c.frame_wire_bytes(0, 0), 64);
        assert_eq!(c.frame_wire_bytes(1, 0), 64);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = ClusterConfig::perseus(4);
        assert!(c.validate().is_ok());
        c.nodes = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::perseus(4);
        c.mtu = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::perseus(4);
        c.link_bw_bps = 0;
        assert!(c.validate().is_err());
    }

    /// Every field but `faults`, named. The destructuring is exhaustive,
    /// so a new field does not compile until it is printed here too.
    fn machine_fingerprint(c: &ClusterConfig) -> String {
        let ClusterConfig {
            nodes,
            switch_ports,
            link_bw_bps,
            trunk_bw_bps,
            fabric_bw_bps,
            fabric_buffer_bytes,
            mtu,
            frame_overhead,
            hop_latency,
            port_buffer_bytes,
            trunk_buffer_bytes,
            jitter_mean,
            rto_base,
            rto_max,
            rto_jitter,
            retx_pace_factor,
            fast_retx_delay,
            send_overhead,
            recv_overhead,
            per_frame_overhead,
            local_bw_bps,
            local_latency,
            faults: _,
        } = c;
        format!(
            "nodes={nodes} switch_ports={switch_ports} link_bw_bps={link_bw_bps} \
             trunk_bw_bps={trunk_bw_bps} fabric_bw_bps={fabric_bw_bps} \
             fabric_buffer_bytes={fabric_buffer_bytes} mtu={mtu} frame_overhead={frame_overhead} \
             hop_latency={} port_buffer_bytes={port_buffer_bytes} \
             trunk_buffer_bytes={trunk_buffer_bytes} jitter_mean={} rto_base={} rto_max={} \
             rto_jitter={rto_jitter} retx_pace_factor={retx_pace_factor} fast_retx_delay={} \
             send_overhead={} recv_overhead={} per_frame_overhead={} \
             local_bw_bps={local_bw_bps} local_latency={}",
            hop_latency.as_nanos(),
            jitter_mean.as_nanos(),
            rto_base.as_nanos(),
            rto_max.as_nanos(),
            fast_retx_delay.as_nanos(),
            send_overhead.as_nanos(),
            recv_overhead.as_nanos(),
            per_frame_overhead.as_nanos(),
            local_latency.as_nanos(),
        )
    }

    /// The four machines, field by field (durations in ns), recorded while
    /// each preset was still a full literal; do not re-record them to make
    /// a change pass.
    #[test]
    fn presets_are_pinned() {
        type Preset = fn(usize) -> ClusterConfig;
        let presets: [(&str, Preset); 4] = [
            ("perseus", ClusterConfig::perseus),
            ("gigabit", ClusterConfig::gigabit),
            ("lowlatency", ClusterConfig::lowlatency),
            ("ideal", ClusterConfig::ideal),
        ];
        let mut got = Vec::new();
        for (name, preset) in presets {
            for nodes in [1, 24, 64] {
                got.push(format!("{name} {}", machine_fingerprint(&preset(nodes))));
            }
        }
        assert_eq!(got, PRESETS, "{}", got.join("\n"));
    }

    const PRESETS: [&str; 12] = [
        "perseus nodes=1 switch_ports=24 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=5000000000 fabric_buffer_bytes=1048576 mtu=1500 frame_overhead=38 hop_latency=5000 port_buffer_bytes=98304 trunk_buffer_bytes=524288 jitter_mean=3000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=28000 recv_overhead=25000 per_frame_overhead=9000 local_bw_bps=1200000000 local_latency=15000",
        "perseus nodes=24 switch_ports=24 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=5000000000 fabric_buffer_bytes=1048576 mtu=1500 frame_overhead=38 hop_latency=5000 port_buffer_bytes=98304 trunk_buffer_bytes=524288 jitter_mean=3000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=28000 recv_overhead=25000 per_frame_overhead=9000 local_bw_bps=1200000000 local_latency=15000",
        "perseus nodes=64 switch_ports=24 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=5000000000 fabric_buffer_bytes=1048576 mtu=1500 frame_overhead=38 hop_latency=5000 port_buffer_bytes=98304 trunk_buffer_bytes=524288 jitter_mean=3000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=28000 recv_overhead=25000 per_frame_overhead=9000 local_bw_bps=1200000000 local_latency=15000",
        "gigabit nodes=1 switch_ports=24 link_bw_bps=1000000000 trunk_bw_bps=21000000000 fabric_bw_bps=50000000000 fabric_buffer_bytes=4194304 mtu=1500 frame_overhead=38 hop_latency=2000 port_buffer_bytes=524288 trunk_buffer_bytes=4194304 jitter_mean=2000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=15000 recv_overhead=12000 per_frame_overhead=2000 local_bw_bps=1200000000 local_latency=15000",
        "gigabit nodes=24 switch_ports=24 link_bw_bps=1000000000 trunk_bw_bps=21000000000 fabric_bw_bps=50000000000 fabric_buffer_bytes=4194304 mtu=1500 frame_overhead=38 hop_latency=2000 port_buffer_bytes=524288 trunk_buffer_bytes=4194304 jitter_mean=2000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=15000 recv_overhead=12000 per_frame_overhead=2000 local_bw_bps=1200000000 local_latency=15000",
        "gigabit nodes=64 switch_ports=24 link_bw_bps=1000000000 trunk_bw_bps=21000000000 fabric_bw_bps=50000000000 fabric_buffer_bytes=4194304 mtu=1500 frame_overhead=38 hop_latency=2000 port_buffer_bytes=524288 trunk_buffer_bytes=4194304 jitter_mean=2000 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=15000 recv_overhead=12000 per_frame_overhead=2000 local_bw_bps=1200000000 local_latency=15000",
        "lowlatency nodes=1 switch_ports=24 link_bw_bps=1280000000 trunk_bw_bps=10000000000 fabric_bw_bps=20000000000 fabric_buffer_bytes=4611686018427387903 mtu=4096 frame_overhead=8 hop_latency=500 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=300 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=3000 recv_overhead=3000 per_frame_overhead=800 local_bw_bps=1200000000 local_latency=10000",
        "lowlatency nodes=24 switch_ports=24 link_bw_bps=1280000000 trunk_bw_bps=10000000000 fabric_bw_bps=20000000000 fabric_buffer_bytes=4611686018427387903 mtu=4096 frame_overhead=8 hop_latency=500 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=300 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=3000 recv_overhead=3000 per_frame_overhead=800 local_bw_bps=1200000000 local_latency=10000",
        "lowlatency nodes=64 switch_ports=24 link_bw_bps=1280000000 trunk_bw_bps=10000000000 fabric_bw_bps=20000000000 fabric_buffer_bytes=4611686018427387903 mtu=4096 frame_overhead=8 hop_latency=500 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=300 rto_base=200000000 rto_max=1600000000 rto_jitter=0.5 retx_pace_factor=2 fast_retx_delay=500000 send_overhead=3000 recv_overhead=3000 per_frame_overhead=800 local_bw_bps=1200000000 local_latency=10000",
        "ideal nodes=1 switch_ports=1 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=2100000000 fabric_buffer_bytes=4611686018427387903 mtu=1500 frame_overhead=38 hop_latency=0 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=0 rto_base=200000000 rto_max=1600000000 rto_jitter=0 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=0 recv_overhead=0 per_frame_overhead=0 local_bw_bps=1200000000 local_latency=0",
        "ideal nodes=24 switch_ports=24 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=2100000000 fabric_buffer_bytes=4611686018427387903 mtu=1500 frame_overhead=38 hop_latency=0 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=0 rto_base=200000000 rto_max=1600000000 rto_jitter=0 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=0 recv_overhead=0 per_frame_overhead=0 local_bw_bps=1200000000 local_latency=0",
        "ideal nodes=64 switch_ports=64 link_bw_bps=100000000 trunk_bw_bps=2100000000 fabric_bw_bps=2100000000 fabric_buffer_bytes=4611686018427387903 mtu=1500 frame_overhead=38 hop_latency=0 port_buffer_bytes=4611686018427387903 trunk_buffer_bytes=4611686018427387903 jitter_mean=0 rto_base=200000000 rto_max=1600000000 rto_jitter=0 retx_pace_factor=2 fast_retx_delay=2000000 send_overhead=0 recv_overhead=0 per_frame_overhead=0 local_bw_bps=1200000000 local_latency=0",
    ];

    #[test]
    fn machines_resolve_by_name() {
        for name in ClusterConfig::MACHINES {
            assert!(ClusterConfig::named(name, 4).is_some(), "{name}");
        }
        assert_eq!(
            ClusterConfig::named("lowlatency", 4),
            Some(ClusterConfig::lowlatency(4))
        );
        assert_eq!(ClusterConfig::named("warp", 4), None);
    }

    #[test]
    fn ideal_network_is_deterministic_config() {
        let c = ClusterConfig::ideal(8);
        assert_eq!(c.jitter_mean, Dur::ZERO);
        assert_eq!(c.num_switches(), 1);
        assert!(c.validate().is_ok());
    }
}
