//! The PEVPM program model: directives composed into an executable AST.
//!
//! §5 of the paper: "PEVPM is based on a set of parallel program
//! primitives, or building blocks, that can be used to compose the
//! computation and communication structure of any message-passing parallel
//! program." The primitives are:
//!
//! - [`Stmt::Loop`] — bounded iteration (`// PEVPM Loop iterations = N`);
//! - [`Stmt::Runon`] — condition-guarded branches, one block per condition
//!   (`// PEVPM Runon c1 = … & c2 = …`);
//! - [`Stmt::Message`] — a point-to-point transfer with symbolic size,
//!   source and destination;
//! - [`Stmt::Serial`] — a serial computation of symbolic duration;
//! - [`Stmt::Collective`] — barrier/broadcast/reduce/alltoall extension
//!   primitives (beyond the paper's Figure 5, used by the FFT and task-farm
//!   models).

use crate::expr::{Env, Expr};

/// Message kinds a [`Stmt::Message`] directive can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Blocking standard-mode send (`type = MPI_Send`).
    Send,
    /// Nonblocking send (`type = MPI_Isend`).
    Isend,
    /// Blocking receive (`type = MPI_Recv`).
    Recv,
    /// Nonblocking receive (`type = MPI_Irecv`); must carry a `handle`
    /// that a later [`Stmt::Wait`] names. Between the post and the wait
    /// the process keeps executing — communication/computation overlap.
    Irecv,
}

impl MsgKind {
    /// Parse the `type =` value of a Message directive.
    pub fn from_mpi_name(s: &str) -> Option<MsgKind> {
        match s {
            "MPI_Send" | "MPI_Ssend" | "MPI_Bsend" => Some(MsgKind::Send),
            "MPI_Isend" => Some(MsgKind::Isend),
            "MPI_Recv" => Some(MsgKind::Recv),
            "MPI_Irecv" => Some(MsgKind::Irecv),
            _ => None,
        }
    }
}

/// Collective operations available as model extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollOp {
    /// Barrier synchronisation.
    Barrier,
    /// Broadcast from a root.
    Bcast,
    /// Reduction to a root.
    Reduce,
    /// Reduction + broadcast.
    Allreduce,
    /// Personalised all-to-all exchange.
    Alltoall,
}

/// One PEVPM directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Repeat `body` `count` times. If `var` is set, it is bound to the
    /// 0-based iteration index in the body's environment (an extension
    /// over the paper's Figure 5 syntax, used for round-robin patterns).
    Loop {
        /// Iteration count (evaluated per process).
        count: Expr,
        /// Optional induction-variable name.
        var: Option<String>,
        /// Directives in the loop body.
        body: Vec<Stmt>,
    },
    /// Guarded branches: the first branch whose condition holds runs; a
    /// process matching no branch skips the statement.
    Runon {
        /// `(condition, block)` pairs in declaration order.
        branches: Vec<(Expr, Vec<Stmt>)>,
    },
    /// A point-to-point message event.
    Message {
        /// Send/Isend/Recv/Irecv.
        kind: MsgKind,
        /// Message size in bytes.
        size: Expr,
        /// Sending process.
        from: Expr,
        /// Receiving process.
        to: Expr,
        /// Request handle bound by an `Irecv` (ignored for other kinds).
        handle: Option<String>,
        /// Source label for loss attribution (e.g. `"jacobi.c:23"`).
        label: Option<String>,
    },
    /// Complete a nonblocking receive: block until the message posted
    /// under `handle` has arrived and consume it.
    Wait {
        /// Handle name bound by a preceding `MPI_Irecv` message.
        handle: String,
        /// Source label for attribution.
        label: Option<String>,
    },
    /// A serial computation segment.
    Serial {
        /// Duration in seconds.
        time: Expr,
        /// Optional machine label (`Serial on perseus time = …`).
        machine: Option<String>,
        /// Source label for attribution.
        label: Option<String>,
    },
    /// A collective operation involving every process.
    Collective {
        /// Which collective.
        op: CollOp,
        /// Per-process data size in bytes.
        size: Expr,
        /// Source label for attribution.
        label: Option<String>,
    },
}

/// A complete PEVPM model: the directive program plus its symbolic
/// parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    /// Top-level directives.
    pub stmts: Vec<Stmt>,
    /// Default parameter bindings (overridable at evaluation time).
    pub params: Env,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Builder: set a parameter.
    pub fn with_param(mut self, name: &str, value: f64) -> Self {
        self.params.insert(name.to_string(), value);
        self
    }

    /// Builder: append a top-level statement.
    pub fn with_stmt(mut self, stmt: Stmt) -> Self {
        self.stmts.push(stmt);
        self
    }

    /// All variables referenced anywhere in the model, minus the standard
    /// `procnum`/`numprocs`. Every returned name must be bound by `params`
    /// (or at evaluation time) for the model to evaluate; an evaluation
    /// checks that first ([`crate::Program`]).
    pub fn free_variables(&self) -> Vec<String> {
        /// Push the variables `e` reads, bar the two standard ones.
        fn add<'m>(e: &'m Expr, vars: &mut Vec<&'m str>) {
            e.each_var(&mut |v| {
                if v != "procnum" && v != "numprocs" {
                    vars.push(v);
                }
            });
        }
        fn walk<'m>(stmts: &'m [Stmt], vars: &mut Vec<&'m str>) {
            for s in stmts {
                match s {
                    Stmt::Loop { count, var, body } => {
                        add(count, vars);
                        // The induction variable is bound by the loop, not
                        // a free model parameter.
                        let outer = vars.len();
                        walk(body, vars);
                        if let Some(v) = var {
                            let mut i = 0;
                            vars.retain(|x| {
                                i += 1;
                                i <= outer || x != v
                            });
                        }
                    }
                    Stmt::Runon { branches } => {
                        for (c, b) in branches {
                            add(c, vars);
                            walk(b, vars);
                        }
                    }
                    Stmt::Message { size, from, to, .. } => {
                        add(size, vars);
                        add(from, vars);
                        add(to, vars);
                    }
                    Stmt::Serial { time, .. } => add(time, vars),
                    Stmt::Collective { size, .. } => add(size, vars),
                    Stmt::Wait { .. } => {}
                }
            }
        }
        let mut vars = Vec::new();
        walk(&self.stmts, &mut vars);
        vars.sort();
        vars.dedup();
        vars.into_iter().map(str::to_string).collect()
    }

    /// Count the statements in the model (all nesting levels).
    pub fn num_stmts(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| {
                    1 + match s {
                        Stmt::Loop { body, .. } => count(body),
                        Stmt::Runon { branches } => branches.iter().map(|(_, b)| count(b)).sum(),
                        _ => 0,
                    }
                })
                .sum()
        }
        count(&self.stmts)
    }
}

/// Shorthand constructors used by the programmatic app models and tests.
pub mod build {
    use super::*;
    use crate::expr::parse;

    /// Parse an expression, panicking on error (builder convenience).
    pub fn e(src: &str) -> Expr {
        parse(src).unwrap_or_else(|err| panic!("bad expression {src:?}: {err}"))
    }

    /// A `Loop` statement.
    pub fn looped(count: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            count: e(count),
            var: None,
            body,
        }
    }

    /// A `Loop` with an induction variable bound in the body.
    pub fn looped_var(count: &str, var: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            count: e(count),
            var: Some(var.to_string()),
            body,
        }
    }

    /// A single-branch `Runon`.
    pub fn runon(cond: &str, body: Vec<Stmt>) -> Stmt {
        Stmt::Runon {
            branches: vec![(e(cond), body)],
        }
    }

    /// A two-branch `Runon` (if/else).
    pub fn runon2(c1: &str, b1: Vec<Stmt>, c2: &str, b2: Vec<Stmt>) -> Stmt {
        Stmt::Runon {
            branches: vec![(e(c1), b1), (e(c2), b2)],
        }
    }

    /// A blocking-send message.
    pub fn send(size: &str, from: &str, to: &str) -> Stmt {
        Stmt::Message {
            kind: MsgKind::Send,
            size: e(size),
            from: e(from),
            to: e(to),
            handle: None,
            label: None,
        }
    }

    /// A nonblocking-send message.
    pub fn isend(size: &str, from: &str, to: &str) -> Stmt {
        Stmt::Message {
            kind: MsgKind::Isend,
            size: e(size),
            from: e(from),
            to: e(to),
            handle: None,
            label: None,
        }
    }

    /// A blocking receive.
    pub fn recv(size: &str, from: &str, to: &str) -> Stmt {
        Stmt::Message {
            kind: MsgKind::Recv,
            size: e(size),
            from: e(from),
            to: e(to),
            handle: None,
            label: None,
        }
    }

    /// A nonblocking receive bound to a request handle.
    pub fn irecv(size: &str, from: &str, to: &str, handle: &str) -> Stmt {
        Stmt::Message {
            kind: MsgKind::Irecv,
            size: e(size),
            from: e(from),
            to: e(to),
            handle: Some(handle.to_string()),
            label: None,
        }
    }

    /// Wait for a nonblocking receive.
    pub fn wait(handle: &str) -> Stmt {
        Stmt::Wait {
            handle: handle.to_string(),
            label: None,
        }
    }

    /// A serial computation.
    pub fn serial(time: &str) -> Stmt {
        Stmt::Serial {
            time: e(time),
            machine: None,
            label: None,
        }
    }

    /// A collective.
    pub fn collective(op: CollOp, size: &str) -> Stmt {
        Stmt::Collective {
            op,
            size: e(size),
            label: None,
        }
    }

    /// Attach a label to a statement (for loss attribution).
    pub fn labelled(mut stmt: Stmt, label: &str) -> Stmt {
        match &mut stmt {
            Stmt::Message { label: l, .. }
            | Stmt::Serial { label: l, .. }
            | Stmt::Collective { label: l, .. }
            | Stmt::Wait { label: l, .. } => *l = Some(label.to_string()),
            _ => {}
        }
        stmt
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    fn jacobi_like() -> Model {
        Model::new().with_param("xsize", 256.0).with_stmt(looped(
            "iterations",
            vec![
                runon2(
                    "procnum % 2 == 0",
                    vec![
                        runon(
                            "procnum != 0",
                            vec![send("xsize*sizeof(float)", "procnum", "procnum-1")],
                        ),
                        recv("xsize*sizeof(float)", "procnum+1", "procnum"),
                    ],
                    "procnum % 2 != 0",
                    vec![
                        recv("xsize*sizeof(float)", "procnum-1", "procnum"),
                        send("xsize*sizeof(float)", "procnum", "procnum-1"),
                    ],
                ),
                serial("3.24/numprocs"),
            ],
        ))
    }

    #[test]
    fn free_variables_exclude_standard_names() {
        let m = jacobi_like();
        assert_eq!(m.free_variables(), vec!["iterations", "xsize"]);
    }

    #[test]
    fn check_bindings_finds_missing_params() {
        let program = crate::Program::new(&jacobi_like());
        // xsize bound by params; iterations must come from extra.
        let e = program.bind(&Env::default(), 2).unwrap_err();
        assert_eq!(e.message, "unbound model parameter \"iterations\"");
        let extra: Env = [("iterations".to_string(), 10.0)].into_iter().collect();
        assert!(program.bind(&extra, 2).is_ok());
    }

    #[test]
    fn num_stmts_counts_nested() {
        let m = jacobi_like();
        // loop + runon2 + (runon + send) + recv + (recv + send) + serial = 8
        assert_eq!(m.num_stmts(), 8);
    }

    #[test]
    fn mpi_name_parsing() {
        assert_eq!(MsgKind::from_mpi_name("MPI_Send"), Some(MsgKind::Send));
        assert_eq!(MsgKind::from_mpi_name("MPI_Isend"), Some(MsgKind::Isend));
        assert_eq!(MsgKind::from_mpi_name("MPI_Recv"), Some(MsgKind::Recv));
        assert_eq!(MsgKind::from_mpi_name("MPI_Alltoallw"), None);
    }

    #[test]
    fn labels_attach_to_events() {
        let s = labelled(send("8", "0", "1"), "line 12");
        match s {
            Stmt::Message { label, .. } => assert_eq!(label.as_deref(), Some("line 12")),
            _ => unreachable!(),
        }
    }
}
