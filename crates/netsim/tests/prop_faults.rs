//! The fault layer's pay-for-what-you-use contract: a [`FaultPlan`] whose
//! faults never fire must leave a run **bitwise identical** to the healthy
//! machine — same completions (times, retransmission counts, order), same
//! statistics, same RNG consumption. Any stray RNG draw or changed event
//! would break the acceptance baseline, so this is property-tested over
//! random workloads, seeds and presets.

use pevpm_netsim::{ClusterConfig, Completion, FaultPlan, LinkFlap, NetStats, Network, Time};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Run a random workload (derived from `wl_seed`) on `cfg` and return
/// everything observable: completions and final statistics.
fn run_workload(cfg: ClusterConfig, net_seed: u64, wl_seed: u64) -> (Vec<Completion>, NetStats) {
    let nodes = cfg.nodes;
    let mut net = Network::new(cfg, net_seed);
    let mut wl = SmallRng::seed_from_u64(wl_seed);
    let n_transfers = wl.gen_range(1..12usize);
    let mut at = Time::ZERO;
    for _ in 0..n_transfers {
        let src = wl.gen_range(0..nodes);
        let dst = wl.gen_range(0..nodes);
        let bytes = wl.gen_range(0..64 * 1024u64);
        at += pevpm_netsim::Dur::from_nanos(wl.gen_range(0..200_000));
        net.start_transfer(at, src, dst, bytes);
    }
    let done = net.run_to_completion();
    (done, *net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The healthy machine vs an inert plan: one link flap on node 0 whose
    /// window opens at 10⁶ s, long after every workload ends. The plan
    /// turns on the per-frame fault checks, which must draw no random
    /// number and change no event.
    #[test]
    fn empty_plan_is_bitwise_identical_to_no_plan(
        net_seed in 0u64..1_000_000,
        wl_seed in 0u64..1_000_000,
        preset in 0usize..3,
        nodes in 2usize..32,
    ) {
        let base = match preset {
            0 => ClusterConfig::perseus(nodes),
            1 => ClusterConfig::ideal(nodes),
            _ => {
                // Tight buffers: the workload provokes emergent drops, so
                // the identity also covers the recovery/RNG path.
                let mut c = ClusterConfig::perseus(nodes);
                c.port_buffer_bytes = 4_000;
                c
            }
        };
        let mut with_plan = base.clone();
        with_plan.faults = FaultPlan {
            flaps: vec![LinkFlap {
                node: 0,
                from_secs: 1e6,
                to_secs: 1e6 + 1.0,
            }],
            ..FaultPlan::default()
        };
        prop_assert!(base.faults.is_empty() && !with_plan.faults.is_empty());

        let (done_a, stats_a) = run_workload(base, net_seed, wl_seed);
        let (done_b, stats_b) = run_workload(with_plan, net_seed, wl_seed);
        prop_assert_eq!(done_a, done_b, "completions must be bitwise identical");
        prop_assert_eq!(stats_a, stats_b, "statistics must be bitwise identical");
        prop_assert_eq!(stats_b.faults_injected_losses, 0);
        prop_assert_eq!(stats_b.faults_background_transfers, 0);
    }

    /// With a positive loss probability every run is still reproducible
    /// from its seed (the injected faults ride the same RNG stream).
    #[test]
    fn faulted_runs_reproduce_bitwise_from_seed(
        net_seed in 0u64..1_000_000,
        wl_seed in 0u64..1_000_000,
        loss_millis in 1u32..200,
    ) {
        let mut cfg = ClusterConfig::perseus(8);
        cfg.faults = FaultPlan {
            loss_prob: loss_millis as f64 / 1000.0,
            ..FaultPlan::default()
        };
        let a = run_workload(cfg.clone(), net_seed, wl_seed);
        let b = run_workload(cfg, net_seed, wl_seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}
