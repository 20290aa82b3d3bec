//! Seedable generator of random well-formed model programs.
//!
//! Programs are built directly in the matched-schedule IR
//! ([`crate::program`]), so every generated program is deadlock-free by
//! construction (see the `program` module docs for the induction
//! argument). The opt-in [`GenConfig::maybe_deadlock`] mode additionally
//! injects orphan receives to exercise the VM's deadlock and budget
//! diagnostics.

use crate::program::{Item, PairMode, TestProgram};
use pevpm::model::CollOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shape of the programs to generate. The default is the widest
/// well-formed space; the named constructors narrow it to what each
/// oracle can soundly gate.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Inclusive range of process counts.
    pub nprocs_min: usize,
    /// Inclusive upper bound on process count.
    pub nprocs_max: usize,
    /// Maximum top-level items per program (at least 1).
    pub max_items: usize,
    /// Message sizes are drawn from this grid — it must match the timing
    /// table the oracles evaluate against.
    pub sizes: Vec<u64>,
    /// Upper bound on computation length, microseconds.
    pub compute_usecs_max: u64,
    /// Permit wildcard-sink items.
    pub allow_wildcards: bool,
    /// Permit collectives.
    pub allow_collectives: bool,
    /// Permit non-blocking pair modes (`Isend`, `Irecv`+`Wait`).
    pub allow_nonblocking: bool,
    /// Permit top-level loops (bodies are themselves matched schedules).
    pub allow_loops: bool,
    /// Inject orphan receives with ~25% probability per program, making
    /// deadlock possible (never certain). Off in every well-formed corpus.
    pub maybe_deadlock: bool,
    /// Token-relay structure: every pair's source is the process that
    /// received the previous message, so at most one message is ever in
    /// flight. Back-to-back sends from one rank pipeline in mpisim (an
    /// eager send returns at injection) while the PEVPM model charges
    /// each send its full transit, so free-form programs diverge for
    /// model-fidelity reasons; the relay family stays inside the envelope
    /// where both implementations claim the same distribution.
    pub relay: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            nprocs_min: 2,
            nprocs_max: 6,
            max_items: 10,
            sizes: vec![64, 256, 1024, 4096, 16384, 65536],
            compute_usecs_max: 400,
            allow_wildcards: true,
            allow_collectives: true,
            allow_nonblocking: true,
            allow_loops: true,
            maybe_deadlock: false,
            relay: false,
        }
    }
}

impl GenConfig {
    /// Widest space: everything the bitwise differential oracle handles.
    pub fn differential() -> Self {
        GenConfig::default()
    }

    /// Programs the statistical (KS) oracle can soundly gate: blocking
    /// matched pairs and computation on a fixed machine shape. Wildcards,
    /// collectives and non-blocking modes are excluded because mpisim and
    /// the PEVPM model are not claimed to be distribution-identical there
    /// — see DESIGN.md "Testing strategy".
    pub fn ks(nprocs: usize, sizes: Vec<u64>) -> Self {
        GenConfig {
            nprocs_min: nprocs,
            nprocs_max: nprocs,
            max_items: 6,
            sizes,
            compute_usecs_max: 200,
            allow_wildcards: false,
            allow_collectives: false,
            allow_nonblocking: false,
            allow_loops: true,
            maybe_deadlock: false,
            relay: true,
        }
    }

    /// Programs the size-scaling metamorphic oracle can gate *exactly*:
    /// no wildcards (wildcard matching is arrival-time dependent, so
    /// rescaling may legally re-match), and sizes restricted to the lower
    /// half of the grid so doubled sizes stay on it.
    pub fn metamorphic() -> Self {
        let all = GenConfig::default().sizes;
        let lower: Vec<u64> = all[..all.len() / 2].to_vec();
        GenConfig {
            allow_wildcards: false,
            sizes: lower,
            ..GenConfig::default()
        }
    }

    /// Programs for the adaptive-stopping oracle: the well-formed
    /// differential space, biased toward longer programs so the
    /// replication stream carries real sampled spread for the stopping
    /// rule to react to (a two-item program often has near-zero
    /// variance and pins every run to the floor).
    pub fn adaptive() -> Self {
        GenConfig {
            max_items: 14,
            ..GenConfig::default()
        }
    }

    /// The well-formed space plus orphan receives, for exercising the
    /// deadlock/budget diagnostics.
    pub fn maybe_deadlocking() -> Self {
        GenConfig {
            maybe_deadlock: true,
            ..GenConfig::default()
        }
    }
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

fn gen_item(rng: &mut SmallRng, cfg: &GenConfig, nprocs: usize, depth: usize) -> Item {
    // Weighted choice over the enabled item kinds.
    let mut kinds: Vec<u8> = vec![0, 0, 1, 1, 1, 2]; // compute-all, compute, pair ×3
    if cfg.allow_wildcards && nprocs >= 3 {
        kinds.push(3);
    }
    if cfg.allow_collectives {
        kinds.push(4);
    }
    if cfg.allow_loops && depth == 0 {
        kinds.push(5);
    }
    if cfg.maybe_deadlock {
        kinds.push(6);
    }
    match *pick(rng, &kinds) {
        0 => Item::ComputeAll {
            usecs: rng.gen_range(1..=cfg.compute_usecs_max),
        },
        1 => Item::Pair {
            src: rng.gen_range(0..nprocs),
            dst: rng.gen_range(0..nprocs),
            bytes: *pick(rng, &cfg.sizes),
            mode: if cfg.allow_nonblocking {
                *pick(
                    rng,
                    &[
                        PairMode::Blocking,
                        PairMode::Blocking,
                        PairMode::Isend,
                        PairMode::IrecvWait,
                    ],
                )
            } else {
                PairMode::Blocking
            },
        },
        2 => Item::Compute {
            proc: rng.gen_range(0..nprocs),
            usecs: rng.gen_range(1..=cfg.compute_usecs_max),
        },
        3 => {
            let sink = rng.gen_range(0..nprocs);
            let mut senders: Vec<usize> = (0..nprocs).filter(|p| *p != sink).collect();
            // Keep a random non-empty subset, in ascending order.
            while senders.len() > 1 && rng.gen_bool(0.35) {
                let i = rng.gen_range(0..senders.len());
                senders.remove(i);
            }
            Item::WildcardSink {
                sink,
                senders,
                bytes: *pick(rng, &cfg.sizes),
            }
        }
        4 => Item::Coll {
            op: *pick(rng, &CollOp::ALL),
            bytes: if rng.gen_bool(0.2) {
                0
            } else {
                *pick(rng, &cfg.sizes)
            },
        },
        5 => {
            let n = rng.gen_range(1..=3usize);
            let body = (0..n)
                .map(|_| gen_item(rng, cfg, nprocs, depth + 1))
                .collect();
            Item::Loop {
                count: rng.gen_range(2..=4u32),
                body,
            }
        }
        _ => Item::OrphanRecv {
            src: rng.gen_range(0..nprocs),
            dst: rng.gen_range(0..nprocs),
            bytes: *pick(rng, &cfg.sizes),
        },
    }
}

/// One step of a token-relay program. The token is the process holding
/// the "right to send"; every pair moves it, and loop bodies return it to
/// their entry holder so each iteration re-matches.
///
/// `stale` tracks processes that have sent since they last received.
/// Such a process's virtual clock legitimately differs between the two
/// implementations (mpisim's eager send returns at injection, the PEVPM
/// model charges the full transit), so giving a stale process *private*
/// computation would surface the difference in the makespan. Receiving
/// resynchronises (both sides clamp to the arrival time), and shared
/// [`Item::ComputeAll`] keeps the stale clock dominated by its receiver's,
/// so only `Item::Compute` needs the restriction. Inside loop bodies only
/// the current token holder is iteration-invariantly non-stale (bodies
/// close the token cycle), so computes there stick to the token.
fn gen_relay_items(
    rng: &mut SmallRng,
    cfg: &GenConfig,
    nprocs: usize,
    token: &mut usize,
    stale: &mut std::collections::BTreeSet<usize>,
    n: usize,
    depth: usize,
) -> Vec<Item> {
    (0..n)
        .map(|_| {
            let mut kinds: Vec<u8> = vec![0, 1, 1, 1, 2]; // compute-all, relay ×3, compute
            if cfg.allow_loops && depth == 0 {
                kinds.push(3);
            }
            match *pick(rng, &kinds) {
                0 => Item::ComputeAll {
                    usecs: rng.gen_range(1..=cfg.compute_usecs_max),
                },
                1 => {
                    let mut dst = rng.gen_range(0..nprocs - 1);
                    if dst >= *token {
                        dst += 1;
                    }
                    let item = Item::Pair {
                        src: *token,
                        dst,
                        bytes: *pick(rng, &cfg.sizes),
                        mode: PairMode::Blocking,
                    };
                    stale.insert(*token);
                    stale.remove(&dst);
                    *token = dst;
                    item
                }
                2 => {
                    let proc = if depth == 0 {
                        let fresh: Vec<usize> =
                            (0..nprocs).filter(|p| !stale.contains(p)).collect();
                        *pick(rng, &fresh) // the token holder is always fresh
                    } else {
                        *token
                    };
                    Item::Compute {
                        proc,
                        usecs: rng.gen_range(1..=cfg.compute_usecs_max),
                    }
                }
                _ => {
                    let entry = *token;
                    let n_body = rng.gen_range(1..=3usize);
                    let mut body =
                        gen_relay_items(rng, cfg, nprocs, token, stale, n_body, depth + 1);
                    if *token != entry {
                        body.push(Item::Pair {
                            src: *token,
                            dst: entry,
                            bytes: *pick(rng, &cfg.sizes),
                            mode: PairMode::Blocking,
                        });
                        stale.insert(*token);
                        stale.remove(&entry);
                        *token = entry;
                    }
                    Item::Loop {
                        count: rng.gen_range(2..=4u32),
                        body,
                    }
                }
            }
        })
        .collect()
}

/// Is `p` a member of the token-relay family ([`GenConfig::relay`])?
///
/// Checks the three invariants the statistical oracle's soundness rests
/// on: every pair's source holds the token (so at most one message is in
/// flight), loop bodies return the token to their entry holder (so every
/// iteration re-matches), and private computation never lands on a stale
/// sender. The KS shrink predicate rejects candidates outside the family
/// — dropping a pair from a relay chain creates exactly the same-source
/// back-to-back sends whose pipelining the model does not claim to
/// capture, so an unconstrained shrinker walks every failure into that
/// known model-fidelity gap instead of minimising the real divergence.
pub fn is_token_relay(p: &TestProgram) -> bool {
    use std::collections::BTreeSet;
    fn walk(items: &[Item], token: &mut Option<usize>, stale: &mut BTreeSet<usize>) -> bool {
        for item in items {
            match item {
                Item::Pair { src, dst, mode, .. } => {
                    if *mode != PairMode::Blocking || src == dst {
                        return false;
                    }
                    if token.is_some_and(|t| t != *src) {
                        return false;
                    }
                    stale.insert(*src);
                    stale.remove(dst);
                    *token = Some(*dst);
                }
                Item::Loop { body, .. } => {
                    let entry = *token;
                    if !walk(body, token, stale) {
                        return false;
                    }
                    let has_pairs = |items: &[Item]| {
                        fn any_pair(items: &[Item]) -> bool {
                            items.iter().any(|i| match i {
                                Item::Pair { .. } => true,
                                Item::Loop { body, .. } => any_pair(body),
                                _ => false,
                            })
                        }
                        any_pair(items)
                    };
                    if entry.is_some() && *token != entry && has_pairs(body) {
                        return false;
                    }
                    // Iterations ≥ 2 run under the steady-state stale set.
                    if !walk(body, token, stale) {
                        return false;
                    }
                }
                Item::Compute { proc, .. } => {
                    if stale.contains(proc) {
                        return false;
                    }
                }
                Item::ComputeAll { .. } => {}
                Item::WildcardSink { .. } | Item::Coll { .. } | Item::OrphanRecv { .. } => {
                    return false;
                }
            }
        }
        true
    }
    walk(&p.items, &mut None, &mut BTreeSet::new())
}

/// Generate one program. The same `(cfg, seed)` always yields the same
/// program.
pub fn generate(cfg: &GenConfig, seed: u64) -> TestProgram {
    // Fixed salt decouples testkit's program stream from other consumers
    // of small seeds (table builders, replica seeding).
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e57_c0de);
    let nprocs = rng.gen_range(cfg.nprocs_min..=cfg.nprocs_max);
    let n_items = rng.gen_range(1..=cfg.max_items.max(1));
    if cfg.relay {
        let mut token = rng.gen_range(0..nprocs);
        let mut stale = std::collections::BTreeSet::new();
        let items = gen_relay_items(&mut rng, cfg, nprocs, &mut token, &mut stale, n_items, 0);
        return TestProgram { nprocs, items };
    }
    let mut items: Vec<Item> = (0..n_items)
        .map(|_| gen_item(&mut rng, cfg, nprocs, 0))
        .collect();
    // Post-pass repairs, both deterministic:
    //
    // 1. A Pair may have drawn src == dst; self-messages are not
    //    meaningful in either implementation.
    // 2. A named receive must never target a proc that is a wildcard
    //    sink *anywhere* in the program. A wildcard receive matches by
    //    arrival time, so it can steal the message a named receive on
    //    the same channel expected (the named receive then waits for a
    //    sequence number that was already consumed — deadlock). Keeping
    //    sink procs wildcard-only as receivers closes the race; stealing
    //    among wildcard receives at the same sink is harmless because
    //    the per-sink send and receive counts still match.
    //
    // Offending destinations move to the first eligible proc; an item
    // with no eligible destination degrades to a computation.
    fn sinks_of(items: &[Item], out: &mut std::collections::BTreeSet<usize>) {
        for item in items {
            match item {
                Item::WildcardSink { sink, .. } => {
                    out.insert(*sink);
                }
                Item::Loop { body, .. } => sinks_of(body, out),
                _ => {}
            }
        }
    }
    let mut sinks = std::collections::BTreeSet::new();
    sinks_of(&items, &mut sinks);
    fn fix(items: &mut [Item], nprocs: usize, sinks: &std::collections::BTreeSet<usize>) {
        for item in items {
            let degrade = match item {
                Item::Pair { src, dst, .. } | Item::OrphanRecv { src, dst, .. }
                    if *src == *dst || sinks.contains(dst) =>
                {
                    match (0..nprocs).find(|p| p != src && !sinks.contains(p)) {
                        Some(p) => {
                            *dst = p;
                            false
                        }
                        None => true,
                    }
                }
                Item::Loop { body, .. } => {
                    fix(body, nprocs, sinks);
                    false
                }
                _ => false,
            };
            if degrade {
                *item = Item::ComputeAll { usecs: 10 };
            }
        }
    }
    fix(&mut items, nprocs, &sinks);
    TestProgram { nprocs, items }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            assert_eq!(generate(&cfg, seed), generate(&cfg, seed));
        }
    }

    #[test]
    fn well_formed_configs_never_emit_orphans_or_self_messages() {
        for cfg in [
            GenConfig::differential(),
            GenConfig::ks(4, vec![256, 1024]),
            GenConfig::metamorphic(),
        ] {
            for seed in 0..200 {
                let p = generate(&cfg, seed);
                assert!(!p.has_orphans(), "seed {seed}");
                assert!(p.nprocs >= cfg.nprocs_min && p.nprocs <= cfg.nprocs_max);
                fn no_self(items: &[Item]) -> bool {
                    items.iter().all(|i| match i {
                        Item::Pair { src, dst, .. } => src != dst,
                        Item::Loop { body, .. } => no_self(body),
                        _ => true,
                    })
                }
                assert!(no_self(&p.items), "seed {seed}");
            }
        }
    }

    #[test]
    fn restricted_configs_respect_their_exclusions() {
        let ks = GenConfig::ks(4, vec![256, 1024]);
        let meta = GenConfig::metamorphic();
        for seed in 0..200 {
            assert!(!generate(&ks, seed).has_wildcards(), "seed {seed}");
            assert!(!generate(&meta, seed).has_wildcards(), "seed {seed}");
            fn only_blocking(items: &[Item]) -> bool {
                items.iter().all(|i| match i {
                    Item::Pair { mode, .. } => *mode == PairMode::Blocking,
                    Item::WildcardSink { .. } | Item::Coll { .. } => false,
                    Item::Loop { body, .. } => only_blocking(body),
                    _ => true,
                })
            }
            assert!(only_blocking(&generate(&ks, seed).items), "seed {seed}");
        }
    }

    /// A named receive targeting a wildcard sink can have its message
    /// stolen by an outstanding wildcard receive (arrival-order race),
    /// deadlocking an otherwise well-formed program — the generator must
    /// keep sink procs wildcard-only as receivers.
    #[test]
    fn named_receives_never_target_wildcard_sinks() {
        use std::collections::BTreeSet;
        for seed in 0..300 {
            let p = generate(&GenConfig::differential(), seed);
            let mut sinks = BTreeSet::new();
            fn scan_sinks(items: &[Item], out: &mut BTreeSet<usize>) {
                for i in items {
                    match i {
                        Item::WildcardSink { sink, .. } => {
                            out.insert(*sink);
                        }
                        Item::Loop { body, .. } => scan_sinks(body, out),
                        _ => {}
                    }
                }
            }
            scan_sinks(&p.items, &mut sinks);
            fn no_named_recv_on(items: &[Item], sinks: &BTreeSet<usize>) -> bool {
                items.iter().all(|i| match i {
                    Item::Pair { dst, .. } | Item::OrphanRecv { dst, .. } => !sinks.contains(dst),
                    Item::Loop { body, .. } => no_named_recv_on(body, sinks),
                    _ => true,
                })
            }
            assert!(no_named_recv_on(&p.items, &sinks), "seed {seed}");
        }
    }

    /// In relay mode at most one message is ever in flight: each pair's
    /// source must be the destination of the previous pair (walking into
    /// loop bodies, which must return the token to their entry holder),
    /// and private computation never lands on a stale sender — a process
    /// that sent since it last received, whose clock differs between the
    /// two implementations (eager injection vs full transit).
    #[test]
    fn ks_programs_are_token_relays_without_stale_computes() {
        use std::collections::BTreeSet;
        fn walk(
            items: &[Item],
            token: &mut Option<usize>,
            stale: &mut BTreeSet<usize>,
            in_loop: bool,
        ) {
            for item in items {
                match item {
                    Item::Pair { src, dst, mode, .. } => {
                        assert_eq!(*mode, PairMode::Blocking);
                        if let Some(t) = token {
                            assert_eq!(*src, *t, "pair source must hold the token");
                        }
                        assert_ne!(src, dst);
                        stale.insert(*src);
                        stale.remove(dst);
                        *token = Some(*dst);
                    }
                    Item::Loop { body, .. } => {
                        let entry = *token;
                        // Walking the body twice checks the compute
                        // restriction under the steady-state stale set
                        // (iterations ≥ 2), not just the entry state.
                        walk(body, token, stale, true);
                        // (If entry is None the second walk still checks
                        // closure: an unclosed cycle breaks its src
                        // assertions.)
                        assert!(
                            entry.is_none()
                                || *token == entry
                                || !body.iter().any(|i| matches!(i, Item::Pair { .. })),
                            "loop body must return the token to its entry holder"
                        );
                        walk(body, token, stale, true);
                    }
                    Item::Compute { proc, .. } => {
                        assert!(!stale.contains(proc), "compute on a stale sender");
                        if in_loop {
                            if let Some(t) = token {
                                assert_eq!(proc, t, "in-loop computes stick to the token holder");
                            }
                        }
                    }
                    Item::WildcardSink { .. } | Item::Coll { .. } | Item::OrphanRecv { .. } => {
                        panic!("relay programs are pairs and computation only")
                    }
                    Item::ComputeAll { .. } => {}
                }
            }
        }
        let cfg = GenConfig::ks(4, vec![256, 1024, 4096]);
        for seed in 0..300 {
            let p = generate(&cfg, seed);
            walk(&p.items, &mut None, &mut BTreeSet::new(), false);
        }
    }

    #[test]
    fn maybe_deadlock_mode_eventually_emits_orphans() {
        let cfg = GenConfig::maybe_deadlocking();
        let found = (0..100).any(|seed| generate(&cfg, seed).has_orphans());
        assert!(found, "orphan receives should appear within 100 seeds");
    }
}
