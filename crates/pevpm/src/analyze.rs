//! Static communication analysis: a model's messages without a clock.
//!
//! Control flow in the directive language does not depend on time
//! (expressions read parameters and loop variables, never clocks), so a
//! rank's messages can be listed by walking its directive chain
//! *abstractly*. This module owns that walk and [`endpoints`], the one
//! rule a message directive's endpoints obey, which the engine applies too.
//!
//! The walk builds the ranks' dependency graph and condenses it
//! ([`condense`]): an edge `p → q` means q's progress can wait on p (an
//! eager send feeds a receive); a cycle (halo rings, rendezvous pairs,
//! wildcard races) is one strongly connected component. Loop bodies whose
//! endpoint-relevant expressions ignore the induction variable are walked
//! once.

use crate::expr::ExprError;
use crate::lower::{as_index, LExpr, LStmt, Lowered};
use crate::model::MsgKind;
use crate::vm::{self, EvalConfig};
use std::collections::BTreeSet;

/// Where a message directive executed by rank `p` goes, by [`endpoints`]:
/// its source (`None`: any source, which only a `Recv` takes) and its
/// destination. A send's source and a receive's destination are `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ends {
    pub(crate) from: Option<usize>,
    pub(crate) to: usize,
}

/// Why a message directive's endpoints break [`endpoints`]' rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Misfit {
    /// An end is not below `numprocs`.
    OutOfRange { to: usize },
    /// A send executed by a rank other than its source `from`.
    ForeignSend { from: usize },
    /// A receive executed by a rank other than its destination `to`.
    ForeignRecv { to: usize },
}

/// The endpoint rule, for a `kind` directive executed by rank `p` of
/// `nprocs`: a `from` below −0.5 on a `Recv` means `MPI_ANY_SOURCE`; any
/// other `from`, and `to`, are process numbers by [`as_index`] (rounding
/// like `round() as usize`); both ends lie below `nprocs`; a send runs on
/// its sender and a receive on its receiver.
///
/// `from` is the source's value; `to` evaluates the destination once the
/// source has passed. The outer error is the first expression error in
/// that order, the inner one a rule the values break.
#[inline]
pub(crate) fn endpoints(
    kind: MsgKind,
    p: usize,
    nprocs: usize,
    from: f64,
    to: impl FnOnce() -> Result<usize, ExprError>,
) -> Result<Result<Ends, Misfit>, ExprError> {
    let from = if from < -0.5 && kind == MsgKind::Recv {
        None
    } else {
        Some(as_index(from)?)
    };
    let to = to()?;
    if from.is_some_and(|from| from >= nprocs) || to >= nprocs {
        return Ok(Err(Misfit::OutOfRange { to }));
    }
    Ok(match (kind, from) {
        (MsgKind::Send | MsgKind::Isend, Some(from)) if from != p => {
            Err(Misfit::ForeignSend { from })
        }
        (MsgKind::Recv | MsgKind::Irecv, _) if to != p => Err(Misfit::ForeignRecv { to }),
        _ => Ok(Ends { from, to }),
    })
}

/// Per-process directive cap for the abstract graph walk. Expansion of a
/// variable-endpoint loop costs one unit per iteration; beyond the cap
/// the analysis declines instead of spinning.
const ANALYSIS_STEP_CAP: u64 = 1 << 18;

/// What [`condense`] makes of a program; the walk stops early with the
/// first two.
pub(crate) enum Decision {
    /// The analysis declined (step cap, abstract-eval error, an endpoint
    /// the engine rejects): don't guess, the engine reproduces any real
    /// error exactly.
    Fallback(&'static str),
    /// Everything condensed into one component (a collective joins every
    /// rank).
    Single,
    /// A genuine multi-component DAG.
    Dag(Analysis),
}

pub(crate) struct Analysis {
    /// Component id of each rank; components are numbered by ascending
    /// minimum rank.
    pub(crate) comp_of: Vec<usize>,
    /// Member ranks per component, ascending.
    pub(crate) components: Vec<Vec<usize>>,
    /// Condensed DAG edges `(from component, to component)`, sorted,
    /// deduplicated.
    pub(crate) edges: Vec<(usize, usize)>,
}

/// Abstract walk of one rank's directive chain, collecting message edges.
struct Tracer<'a> {
    lowered: &'a Lowered,
    env: Vec<Option<f64>>,
    p: usize,
    nprocs: usize,
    steps: u64,
    /// Directed edges out of every rank (dedup via set).
    adj: &'a mut Vec<BTreeSet<usize>>,
    /// Static senders per destination rank, for the wildcard pass.
    senders_to: &'a mut Vec<BTreeSet<usize>>,
    /// Ranks that execute at least one wildcard receive.
    wildcards: &'a mut BTreeSet<usize>,
}

impl Tracer<'_> {
    fn bump(&mut self) -> Result<(), Decision> {
        self.steps += 1;
        if self.steps > ANALYSIS_STEP_CAP {
            return Err(Decision::Fallback("analysis step cap exceeded"));
        }
        Ok(())
    }

    fn walk(&mut self, stmts: &[LStmt]) -> Result<(), Decision> {
        let names = &self.lowered.names;
        for stmt in stmts {
            self.bump()?;
            match stmt {
                LStmt::Serial { .. } | LStmt::Wait { .. } => {}
                LStmt::Loop {
                    count, var, body, ..
                } => {
                    let n = count
                        .eval_usize(&self.env, names)
                        .map_err(|_| Decision::Fallback("abstract evaluation failed"))?
                        as u64;
                    if n == 0 || body.is_empty() {
                        continue;
                    }
                    match var {
                        Some(slot) => {
                            // Expand every iteration if endpoint-relevant
                            // expressions read the induction variable; one
                            // pass covers an iteration-invariant loop.
                            let laps = if block_references(body, *slot) { n } else { 1 };
                            for i in 0..laps {
                                self.env[*slot as usize] = Some(i as f64);
                                self.walk(body)?;
                            }
                            self.env[*slot as usize] = None;
                        }
                        None => self.walk(body)?,
                    }
                }
                LStmt::Runon { branches, .. } => {
                    for (cond, body) in branches {
                        if cond
                            .eval_bool(&self.env, names)
                            .map_err(|_| Decision::Fallback("abstract evaluation failed"))?
                        {
                            self.walk(body)?;
                            break;
                        }
                    }
                }
                LStmt::Message {
                    kind,
                    size,
                    from,
                    to,
                    ..
                } => self.message(*kind, size, from, to)?,
                LStmt::Collective { .. } => return Err(Decision::Single),
            }
        }
        Ok(())
    }

    /// The edges one message adds. Endpoints that break [`endpoints`]'
    /// rule decline the analysis, so the engine reproduces the real error.
    fn message(
        &mut self,
        kind: MsgKind,
        size: &LExpr,
        from: &LExpr,
        to: &LExpr,
    ) -> Result<(), Decision> {
        let names = &self.lowered.names;
        let bad = |_| Decision::Fallback("abstract evaluation failed");
        let from = from.eval(&self.env, names).map_err(bad)?;
        let Ends { from, to } = endpoints(kind, self.p, self.nprocs, from, || {
            to.eval_usize(&self.env, names)
        })
        .map_err(bad)?
        .map_err(|misfit| {
            Decision::Fallback(match misfit {
                Misfit::OutOfRange { .. } => "message endpoint out of range",
                Misfit::ForeignSend { .. } => "send executed by a foreign rank",
                Misfit::ForeignRecv { .. } => "recv executed by a foreign rank",
            })
        })?;
        match (kind, from) {
            (MsgKind::Send | MsgKind::Isend, _) => {
                let size = size.eval(&self.env, names).map_err(bad)?;
                self.adj[self.p].insert(to);
                self.senders_to[to].insert(self.p);
                // A rendezvous send blocks until the receiver matches:
                // the dependency runs both ways.
                if kind == MsgKind::Send && size >= vm::RNDV_THRESHOLD_BYTES {
                    self.adj[to].insert(self.p);
                }
            }
            (MsgKind::Recv | MsgKind::Irecv, None) => {
                self.wildcards.insert(self.p);
            }
            (MsgKind::Recv | MsgKind::Irecv, Some(from)) => {
                // A blocking (or waited-on) receive makes p's clock
                // depend on the sender's send times.
                self.adj[from].insert(self.p);
            }
        }
        Ok(())
    }
}

/// Does any endpoint-relevant expression in `stmts` read loop-variable
/// `slot`? Relevant: message endpoints and sizes (size picks rendezvous
/// semantics), runon conditions, nested loop counts. Serial times and
/// wait handles can't change the edge set.
fn block_references(stmts: &[LStmt], slot: u32) -> bool {
    stmts.iter().any(|s| match s {
        LStmt::Serial { .. } | LStmt::Wait { .. } => false,
        LStmt::Collective { .. } => false,
        LStmt::Loop { count, body, .. } => count.references(slot) || block_references(body, slot),
        LStmt::Runon { branches, .. } => branches
            .iter()
            .any(|(c, b)| c.references(slot) || block_references(b, slot)),
        LStmt::Message { size, from, to, .. } => {
            [from, to, size].iter().any(|e| e.references(slot))
        }
    })
}

/// Iterative Tarjan SCC over `adj`; returns an arbitrary component id per
/// node (renumbered by the caller).
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: u32 = u32::MAX;
    let n = adj.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![usize::MAX; n];
    let mut next_index = 0u32;
    let mut ncomp = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));

        while let Some(&(v, child)) = call.last() {
            if child < adj[v].len() {
                call.last_mut().expect("non-empty").1 += 1;
                let w = adj[v][child];
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    comp_of
}

/// Walk every rank of the prepared program and condense the dependency
/// graph its messages form.
pub(crate) fn condense(setup: &vm::EvalSetup<'_>, cfg: &EvalConfig) -> Decision {
    let n = cfg.nprocs;
    if n <= 1 {
        return Decision::Single;
    }
    let lowered = setup.lowered;
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut senders_to: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut wildcards: BTreeSet<usize> = BTreeSet::new();
    for p in 0..n {
        let mut env = setup.base.clone();
        env[lowered.procnum as usize] = Some(p as f64);
        let mut tracer = Tracer {
            lowered,
            env,
            p,
            nprocs: n,
            steps: 0,
            adj: &mut adj,
            senders_to: &mut senders_to,
            wildcards: &mut wildcards,
        };
        if let Err(decision) = tracer.walk(&lowered.stmts) {
            return decision;
        }
    }
    // A wildcard receive races every static sender to that rank: the race
    // must be resolved inside one component, so the edges run both ways.
    for &r in &wildcards {
        for &s in &senders_to[r] {
            adj[s].insert(r);
            adj[r].insert(s);
        }
    }

    let adj_vec: Vec<Vec<usize>> = adj.iter().map(|s| s.iter().copied().collect()).collect();
    let raw = tarjan(&adj_vec);

    // Renumber components by ascending minimum member rank (the order
    // ranks first meet them in), so component indices (and hence seeds and
    // merge order) are canonical.
    let ncomp = raw.iter().map(|&c| c + 1).max().unwrap_or(0);
    if ncomp <= 1 {
        return Decision::Single;
    }
    let mut renum = vec![usize::MAX; ncomp];
    let mut components: Vec<Vec<usize>> = Vec::with_capacity(ncomp);
    for (p, &c) in raw.iter().enumerate() {
        if renum[c] == usize::MAX {
            renum[c] = components.len();
            components.push(Vec::new());
        }
        components[renum[c]].push(p);
    }
    let comp_of: Vec<usize> = raw.iter().map(|&c| renum[c]).collect();
    let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (p, outs) in adj_vec.iter().enumerate() {
        for &q in outs {
            let (a, b) = (comp_of[p], comp_of[q]);
            if a != b {
                edge_set.insert((a, b));
            }
        }
    }
    Decision::Dag(Analysis {
        comp_of,
        components,
        edges: edge_set.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(
        kind: MsgKind,
        p: usize,
        from: f64,
        to: usize,
    ) -> Result<Result<Ends, Misfit>, String> {
        endpoints(kind, p, 2, from, || Ok(to)).map_err(|e| e.message)
    }

    #[test]
    fn endpoint_rule_answers() {
        use MsgKind::*;
        let ends = |from, to| Ok(Ok(Ends { from, to }));
        assert_eq!(check(Send, 0, 0.0, 1), ends(Some(0), 1));
        assert_eq!(check(Isend, 1, 0.6, 0), ends(Some(1), 0));
        assert_eq!(check(Recv, 1, -0.6, 1), ends(None, 1));
        assert_eq!(check(Recv, 1, -0.5, 1), ends(Some(0), 1));
        assert_eq!(check(Irecv, 0, 1.0, 0), ends(Some(1), 0));
        let misfit = |m| Ok(Err(m));
        assert_eq!(check(Send, 0, 2.0, 1), misfit(Misfit::OutOfRange { to: 1 }));
        assert_eq!(
            check(Recv, 0, -9.0, 2),
            misfit(Misfit::OutOfRange { to: 2 })
        );
        assert_eq!(
            check(Isend, 1, 0.0, 1),
            misfit(Misfit::ForeignSend { from: 0 })
        );
        assert_eq!(
            check(Irecv, 0, 1.0, 1),
            misfit(Misfit::ForeignRecv { to: 1 })
        );
        assert_eq!(
            check(Recv, 0, -1.0, 1),
            misfit(Misfit::ForeignRecv { to: 1 })
        );
        // Only a `Recv` takes any source; the source is converted before
        // the destination is evaluated.
        let err = endpoints(Irecv, 0, 2, -1.0, || panic!("evaluated `to`"));
        assert_eq!(
            err.unwrap_err().message,
            "expected a non-negative integer, got -1"
        );
    }

    #[test]
    fn tarjan_finds_ring_and_isolated_rank() {
        let adj = vec![vec![1], vec![2], vec![0], vec![]];
        let comp = tarjan(&adj);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn tarjan_handles_chains_and_self_cycles() {
        // 0 → 1, 1 → 1 (self loop), 2 isolated.
        let adj = vec![vec![1], vec![1], vec![]];
        let comp = tarjan(&adj);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[2]);
    }
}
