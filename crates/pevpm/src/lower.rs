//! Directive-program lowering: compile a [`Model`]'s statement tree into a
//! self-contained [`Program`], slot-indexed and evaluated without string
//! hashing or allocation.
//!
//! The VM executes directives millions of times per Monte-Carlo batch, and
//! profiling shows the symbolic [`Expr`] interpreter — one hash-map lookup
//! per variable reference, a string match per `sizeof` — dominating the
//! sweep phase once sampling itself is compiled. This pass runs once per
//! [`crate::vm::evaluate`] or [`crate::vm::monte_carlo`] call on a [`Model`],
//! and once per model for a caller that keeps its [`Program`] (the daemon):
//!
//! - every variable name is interned to a dense slot index, so the runtime
//!   environment is a `Vec<Option<f64>>` and a variable reference is an
//!   array read; the model's default parameters are bound to their slots
//!   here, and its free variables listed, so an evaluation's prologue is a
//!   copy of one slot vector and a lookup per binding it brings;
//! - `sizeof(<ctype>)` is resolved to its constant;
//! - constant subtrees are folded (`xsize*sizeof(float)` lowers to one
//!   multiply against a literal once `sizeof` resolves), except subtrees
//!   whose evaluation errors — those are kept symbolic so the error still
//!   surfaces if and when the directive actually executes;
//! - builtin calls are arity-checked here and lowered to fixed-arity
//!   nodes, removing the per-call argument `Vec`;
//! - `Irecv`/`Wait` request handles and directive labels are interned the
//!   same way, into tables the program owns;
//! - one memo rule: a statement none of whose operands reads a loop
//!   induction variable is *decided* and gets one memo *site*. A process
//!   writes its environment only at its loops' induction variables, so
//!   such a statement does the same thing every time the process runs it,
//!   and the VM keeps at its site what the first successful execution
//!   decided ([`Memo`]: the serial time, the iteration count, the branch
//!   taken, the collective's size; a message's size, validated peer and
//!   pair). Any other statement evaluates every operand on every
//!   execution. What reads state — an `Irecv`'s outstanding handle, a
//!   pair's sequence numbers — is still done on every execution.
//!
//! Evaluation semantics ([`LExpr::eval`] vs [`Expr::eval`]) are replicated
//! exactly — same short-circuiting, same error messages, same rounding —
//! so lowering cannot perturb a prediction, only the wall clock.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{sizeof, BinOp, Expr, ExprError, UnOp};
use crate::model::{CollOp, Model, MsgKind, Stmt};
use crate::scoreboard::PairId;

fn err<T>(message: impl Into<String>) -> Result<T, ExprError> {
    Err(ExprError {
        message: message.into(),
    })
}

/// Strings stored end to end in one buffer and read back by index: a
/// lowered program's tables of variable names, request handles and
/// labels, each one allocation (and its offsets) rather than one per
/// string.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Strings {
    text: String,
    ends: Vec<usize>,
}

impl Strings {
    fn with_capacity(strings: usize, bytes: usize) -> Strings {
        Strings {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings),
        }
    }

    pub(crate) fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

impl std::ops::Index<usize> for Strings {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// String-to-slot interner for one lowering pass. Its keys borrow the
/// model being lowered, so each name is copied once, into the table.
#[derive(Default)]
struct Interner<'m> {
    map: HashMap<&'m str, u32>,
    table: Strings,
    /// The last name interned and its slot: a model names one variable
    /// (`procnum`, mostly) many times in a row, and this skips the hash.
    last: Option<(&'m str, u32)>,
}

impl<'m> Interner<'m> {
    fn intern(&mut self, name: &'m str) -> u32 {
        if let Some((last, slot)) = self.last {
            if last == name {
                return slot;
            }
        }
        let next = self.table.len() as u32;
        let slot = *self.map.entry(name).or_insert_with(|| {
            self.table.push(name);
            next
        });
        self.last = Some((name, slot));
        slot
    }
}

/// A lowered program's variable names, by slot. Kept after lowering only
/// for error messages (`unbound variable …`) and for binding named
/// parameters to slots.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Names {
    table: Strings,
    /// The slots in name order, for [`Names::get`]'s binary search.
    by_name: Vec<u32>,
}

impl Names {
    fn new(table: Strings) -> Names {
        let mut by_name: Vec<u32> = (0..table.len() as u32).collect();
        by_name.sort_unstable_by_key(|&slot| &table[slot as usize]);
        Names { table, by_name }
    }

    /// Slot of `name`, if the lowered program references it.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        let at = self
            .by_name
            .binary_search_by(|&slot| self.name(slot).cmp(name))
            .ok()?;
        Some(self.by_name[at])
    }

    pub(crate) fn name(&self, slot: u32) -> &str {
        &self.table[slot as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }
}

/// Unary builtins (arity checked at lowering time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fn1 {
    Ceil,
    Floor,
    Abs,
    Log2,
}

/// Binary builtins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fn2 {
    Min,
    Max,
}

/// A lowered expression: shape of [`Expr`] with variables as slot indices,
/// `sizeof` resolved, and builtin calls at fixed arity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LExpr {
    Num(f64),
    Var(u32),
    Unary(UnOp, Box<LExpr>),
    Binary(BinOp, Box<LExpr>, Box<LExpr>),
    Call1(Fn1, Box<LExpr>),
    Call2(Fn2, Box<LExpr>, Box<LExpr>),
}

impl LExpr {
    /// Evaluate against the slot environment. Mirrors [`Expr::eval`]
    /// exactly, including error messages.
    pub(crate) fn eval(&self, slots: &[Option<f64>], names: &Names) -> Result<f64, ExprError> {
        match self {
            LExpr::Num(v) => Ok(*v),
            LExpr::Var(i) => slots[*i as usize].ok_or_else(|| ExprError {
                message: format!("unbound variable {:?}", names.name(*i)),
            }),
            LExpr::Unary(op, e) => Ok(unary(*op, e.eval(slots, names)?)),
            LExpr::Binary(op, a, b) => match op {
                BinOp::And => Ok(
                    if a.eval(slots, names)? != 0.0 && b.eval(slots, names)? != 0.0 {
                        1.0
                    } else {
                        0.0
                    },
                ),
                BinOp::Or => Ok(
                    if a.eval(slots, names)? != 0.0 || b.eval(slots, names)? != 0.0 {
                        1.0
                    } else {
                        0.0
                    },
                ),
                _ => binary(*op, a.eval(slots, names)?, b.eval(slots, names)?),
            },
            LExpr::Call1(f, a) => {
                let a = a.eval(slots, names)?;
                Ok(match f {
                    Fn1::Ceil => a.ceil(),
                    Fn1::Floor => a.floor(),
                    Fn1::Abs => a.abs(),
                    Fn1::Log2 => {
                        if a <= 0.0 {
                            return err("log2 of non-positive value");
                        }
                        a.log2()
                    }
                })
            }
            LExpr::Call2(f, a, b) => {
                let a = a.eval(slots, names)?;
                let b = b.eval(slots, names)?;
                Ok(match f {
                    Fn2::Min => a.min(b),
                    Fn2::Max => a.max(b),
                })
            }
        }
    }

    /// Evaluate as a boolean (non-zero = true).
    pub(crate) fn eval_bool(
        &self,
        slots: &[Option<f64>],
        names: &Names,
    ) -> Result<bool, ExprError> {
        Ok(self.eval(slots, names)? != 0.0)
    }

    /// Evaluate as a non-negative integer (rounded), mirroring
    /// [`Expr::eval_usize`].
    pub(crate) fn eval_usize(
        &self,
        slots: &[Option<f64>],
        names: &Names,
    ) -> Result<usize, ExprError> {
        as_index(self.eval(slots, names)?)
    }

    /// True when the expression reads a variable slot `pred` holds for.
    fn reads(&self, pred: &impl Fn(u32) -> bool) -> bool {
        match self {
            LExpr::Num(_) => false,
            LExpr::Var(i) => pred(*i),
            LExpr::Unary(_, e) | LExpr::Call1(_, e) => e.reads(pred),
            LExpr::Binary(_, a, b) | LExpr::Call2(_, a, b) => a.reads(pred) || b.reads(pred),
        }
    }

    /// True when the expression reads variable slot `slot`. The static
    /// communication analysis ([`crate::analyze`]) uses this to decide
    /// whether a loop body's communication endpoints can vary across
    /// iterations.
    pub(crate) fn references(&self, slot: u32) -> bool {
        self.reads(&|i| i == slot)
    }
}

/// `op` applied to a value.
#[inline]
fn unary(op: UnOp, v: f64) -> f64 {
    match op {
        UnOp::Neg => -v,
        UnOp::Not => {
            if v == 0.0 {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// `op` applied to two values; `&&` and `||` see both, so only a caller
/// that has evaluated both operands (or a literal pair) may ask for them.
#[inline]
fn binary(op: BinOp, x: f64, y: f64) -> Result<f64, ExprError> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return err("division by zero");
            }
            x / y
        }
        BinOp::Mod => {
            let yi = y.trunc();
            if yi == 0.0 {
                return err("modulo by zero");
            }
            (x.trunc() as i64).rem_euclid(yi as i64) as f64
        }
        BinOp::Eq => (x == y) as u8 as f64,
        BinOp::Ne => (x != y) as u8 as f64,
        BinOp::Lt => (x < y) as u8 as f64,
        BinOp::Le => (x <= y) as u8 as f64,
        BinOp::Gt => (x > y) as u8 as f64,
        BinOp::Ge => (x >= y) as u8 as f64,
        BinOp::And => (x != 0.0 && y != 0.0) as u8 as f64,
        BinOp::Or => (x != 0.0 || y != 0.0) as u8 as f64,
    })
}

/// Check and round a value used as a count or a process number, mirroring
/// [`Expr::eval_usize`]: `v.round() as usize` without libm's `round` (below
/// 2^63 the `i64` truncation and its fraction are exact; above, `v` is whole).
pub(crate) fn as_index(v: f64) -> Result<usize, ExprError> {
    if !v.is_finite() || v < -0.5 {
        return err(format!("expected a non-negative integer, got {v}"));
    }
    if v >= 9_223_372_036_854_775_808.0 {
        return Ok(v as usize);
    }
    let t = v as i64;
    Ok((t + (v - t as f64 >= 0.5) as i64) as usize)
}

/// What a decided statement did the first time a process ran it without
/// error, kept at the statement's site in that process's memo row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Memo {
    /// Not run yet, or not decided.
    #[default]
    Unset,
    /// A `Serial`'s time or a `Collective`'s size.
    Value(f64),
    /// A `Loop`'s iteration count.
    Count(u64),
    /// A `Runon`'s branch, or the branch count when no condition holds.
    Branch(usize),
    /// A message's size, its validated peer (a send's destination, a
    /// receive's source) and the pair between the two.
    Message {
        size: f64,
        peer: usize,
        pair: PairId,
    },
    /// A receive from any source.
    AnySource,
}

// A process's row is one cache line for every two sites.
const _: () = assert!(std::mem::size_of::<Memo>() <= 32);

impl Memo {
    /// The entry at `site` of a process's memo `row`; `Unset` for a
    /// statement that is not decided (`site` is `None`).
    #[inline]
    pub(crate) fn read(row: &[Memo], site: Option<u32>) -> Memo {
        site.map_or(Memo::Unset, |site| row[site as usize])
    }

    /// Keep `entry` at `site` of `row`, if the statement is decided.
    #[inline]
    pub(crate) fn keep(row: &mut [Memo], site: Option<u32>, entry: Memo) {
        if let Some(site) = site {
            row[site as usize] = entry;
        }
    }
}

/// A lowered directive. A label is a slot in [`Lowered::labels`] — loss
/// attribution under it is an indexed add, not a string-keyed map
/// operation — and a request handle a slot in [`Lowered::handles`].
/// `site`: the statement's memo site when it is decided (no operand reads
/// a loop induction variable; see the module doc).
#[derive(Debug, PartialEq)]
pub(crate) enum LStmt {
    Loop {
        count: LExpr,
        var: Option<u32>,
        body: Vec<LStmt>,
        site: Option<u32>,
    },
    Runon {
        branches: Vec<(LExpr, Vec<LStmt>)>,
        site: Option<u32>,
    },
    Message {
        kind: MsgKind,
        size: LExpr,
        from: LExpr,
        to: LExpr,
        handle: Option<u32>,
        label: Option<u32>,
        site: Option<u32>,
    },
    Wait {
        handle: u32,
        label: Option<u32>,
    },
    Serial {
        time: LExpr,
        label: Option<u32>,
        site: Option<u32>,
    },
    Collective {
        op: CollOp,
        size: LExpr,
        label: Option<u32>,
        site: Option<u32>,
    },
}

/// A model compiled for slot-indexed execution.
#[derive(Debug, PartialEq)]
pub(crate) struct Lowered {
    pub(crate) stmts: Vec<LStmt>,
    pub(crate) names: Names,
    /// Slot of the standard `procnum` variable.
    pub(crate) procnum: u32,
    /// Slot of the standard `numprocs` variable.
    pub(crate) numprocs: u32,
    /// `Irecv`/`Wait` handle names, indexed by handle slot.
    pub(crate) handles: Strings,
    /// Directive labels, indexed by label slot; shared with the loss
    /// report of every evaluation ([`crate::vm::LossByLabel`]).
    pub(crate) labels: Arc<Strings>,
    /// Memo sites handed out to decided statements: the length of one
    /// process's memo row.
    pub(crate) sites: usize,
    /// The most frames a process's control stack holds: the program's
    /// static nesting depth, the top-level block included.
    pub(crate) depth: usize,
    /// The model's default parameters, as `(slot, value)`.
    pub(crate) defaults: Vec<(u32, f64)>,
}

impl Lowered {
    /// The text of label slot `label`.
    pub(crate) fn label(&self, label: Option<u32>) -> Option<&str> {
        label.map(|l| &self.labels[l as usize])
    }
}

/// A model lowered once for any number of evaluations: it owns its slot
/// tables and keeps nothing of the [`Model`] it came from, so a caller
/// can drop the model and keep this (see the module doc).
/// [`Program::evaluate`] and [`Program::monte_carlo`] run it.
#[derive(Debug, PartialEq)]
pub struct Program {
    /// Free variables the model's own parameters leave unbound, sorted:
    /// each must be bound at evaluation time.
    pub(crate) unbound: Vec<String>,
    /// The lowered program, or why the model can never evaluate (an
    /// unknown builtin, a bad `sizeof`). The error is kept, not raised:
    /// each evaluation reports it, after any unbound parameter.
    pub(crate) lowered: Result<Lowered, ExprError>,
}

impl Program {
    /// Lower `model`, constant folding included. Never fails: a model
    /// that cannot lower yields a program whose evaluations fail.
    pub fn new(model: &Model) -> Program {
        Program::lower(model, true)
    }

    /// Lower `model`, folding constants if `fold`: a pure optimisation,
    /// which `pevpm-testkit`'s Oracle 1 checks bit for bit.
    pub fn lower(model: &Model, fold: bool) -> Program {
        let mut unbound = model.free_variables();
        unbound.retain(|v| !model.params.contains_key(v));
        Program {
            unbound,
            lowered: lower_model_with(model, fold),
        }
    }

    /// The lowered program and the slot environment every process starts
    /// from under `params` on `nprocs` processes: the default slots, each
    /// binding in `params` over them, `numprocs` over both.
    pub(crate) fn bind(
        &self,
        params: &crate::expr::Env,
        nprocs: usize,
    ) -> Result<(&Lowered, Vec<Option<f64>>), ExprError> {
        let mut base = Vec::new();
        let lowered = self.bind_into(params, nprocs, &mut base)?;
        Ok((lowered, base))
    }

    /// [`Program::bind`], the environment written into `base`.
    pub(crate) fn bind_into(
        &self,
        params: &crate::expr::Env,
        nprocs: usize,
        base: &mut Vec<Option<f64>>,
    ) -> Result<&Lowered, ExprError> {
        if let Some(v) = self.unbound.iter().find(|v| !params.contains_key(*v)) {
            return err(format!("unbound model parameter {v:?}"));
        }
        let lowered = self.lowered.as_ref().map_err(Clone::clone)?;
        base.clear();
        base.resize(lowered.names.len(), None);
        for &(slot, v) in &lowered.defaults {
            base[slot as usize] = Some(v);
        }
        for (k, v) in params {
            if let Some(slot) = lowered.names.get(k) {
                base[slot as usize] = Some(*v);
            }
        }
        base[lowered.numprocs as usize] = Some(nprocs as f64);
        Ok(lowered)
    }
}

/// Lower `model`, with constant folding made optional. Errors only on
/// programs that could never evaluate (unknown builtin, bad `sizeof`) —
/// valid models always lower. Folding is a pure optimisation — `fold:
/// false` must produce bitwise-identical evaluations — which is exactly
/// what the differential conformance harness (`pevpm-testkit`) checks by
/// running both variants over fuzzed programs.
fn lower_model_with(model: &Model, fold: bool) -> Result<Lowered, ExprError> {
    let mut cx = LowerCx {
        names: Interner::default(),
        handles: Interner::default(),
        labels: Interner::default(),
        fold,
        induction: Vec::new(),
        sites: 0,
    };
    // Every program names the two standard variables, most nothing else:
    // their text takes one allocation, not a growing one.
    cx.names.table.text = String::with_capacity("procnumnumprocs".len());
    let procnum = cx.names.intern("procnum");
    let numprocs = cx.names.intern("numprocs");
    let (mut labels, mut label_bytes) = (0, 0);
    survey(&model.stmts, &mut cx, &mut labels, &mut label_bytes);
    // Sized once: a program lives as long as a cache keeps it.
    cx.labels.map.reserve(labels);
    cx.labels.table = Strings::with_capacity(labels, label_bytes);
    let stmts = lower_block(&model.stmts, &mut cx)?;
    let names = Names::new(cx.names.table);
    let defaults = model
        .params
        .iter()
        .filter_map(|(k, v)| Some((names.get(k)?, *v)))
        .collect();
    Ok(Lowered {
        depth: nesting(&stmts),
        stmts,
        names,
        procnum,
        numprocs,
        handles: cx.handles.table,
        labels: Arc::new(cx.labels.table),
        sites: cx.sites as usize,
        defaults,
    })
}

/// How many blocks of `stmts` nest inside one another, `stmts` included.
fn nesting(stmts: &[LStmt]) -> usize {
    let inner = stmts.iter().map(|stmt| match stmt {
        LStmt::Loop { body, .. } => nesting(body),
        LStmt::Runon { branches, .. } => branches
            .iter()
            .map(|(_, body)| nesting(body))
            .max()
            .unwrap_or(0),
        _ => 0,
    });
    1 + inner.max().unwrap_or(0)
}

/// What lowering needs before it starts: the slot of every loop induction
/// variable in `stmts`, whatever its scope, and how many labels `stmts`
/// carry in how many bytes, to size the label table once.
fn survey<'m>(stmts: &'m [Stmt], cx: &mut LowerCx<'m>, labels: &mut usize, bytes: &mut usize) {
    for stmt in stmts {
        let label = match stmt {
            Stmt::Loop { var, body, .. } => {
                cx.induction
                    .extend(var.as_ref().map(|v| cx.names.intern(v)));
                survey(body, cx, labels, bytes);
                continue;
            }
            Stmt::Runon { branches } => {
                for (_, body) in branches {
                    survey(body, cx, labels, bytes);
                }
                continue;
            }
            Stmt::Message { label, .. }
            | Stmt::Wait { label, .. }
            | Stmt::Serial { label, .. }
            | Stmt::Collective { label, .. } => label,
        };
        if let Some(text) = label {
            *labels += 1;
            *bytes += text.len();
        }
    }
}

/// Shared lowering state: the three interners, the fold switch, and what
/// memo sites need — the program's induction-variable slots and the next
/// free site. A statement is decided when it reads no slot that any loop
/// of the program binds as its induction variable: those are the only
/// slots a running process writes (a loop also *unbinds* its slot on exit,
/// so a parameter that shares a loop variable's name is excluded with it).
struct LowerCx<'m> {
    names: Interner<'m>,
    handles: Interner<'m>,
    labels: Interner<'m>,
    fold: bool,
    induction: Vec<u32>,
    sites: u32,
}

impl<'m> LowerCx<'m> {
    /// The next free memo site if no expression in `operands` reads a loop
    /// induction variable.
    fn site<'e>(&mut self, operands: impl IntoIterator<Item = &'e LExpr>) -> Option<u32> {
        let decided = !operands
            .into_iter()
            .any(|e| e.reads(&|slot| self.induction.contains(&slot)));
        decided.then(|| {
            self.sites += 1;
            self.sites - 1
        })
    }

    /// `e` lowered through this pass's name interner and fold switch.
    fn expr(&mut self, e: &'m Expr) -> Result<LExpr, ExprError> {
        lower_expr_opts(e, &mut self.names, self.fold)
    }
}

fn lower_label<'m>(label: &'m Option<String>, labels: &mut Interner<'m>) -> Option<u32> {
    label.as_deref().map(|text| labels.intern(text))
}

fn lower_block<'m>(stmts: &'m [Stmt], cx: &mut LowerCx<'m>) -> Result<Vec<LStmt>, ExprError> {
    // Sized exactly: a program lives as long as a cache keeps it.
    let mut block = Vec::with_capacity(stmts.len());
    for stmt in stmts {
        block.push(lower_stmt(stmt, cx)?);
    }
    Ok(block)
}

fn lower_stmt<'m>(stmt: &'m Stmt, cx: &mut LowerCx<'m>) -> Result<LStmt, ExprError> {
    Ok(match stmt {
        Stmt::Loop { count, var, body } => {
            let count = cx.expr(count)?;
            LStmt::Loop {
                site: cx.site([&count]),
                count,
                var: var.as_ref().map(|v| cx.names.intern(v)),
                body: lower_block(body, cx)?,
            }
        }
        Stmt::Runon { branches } => {
            // Lowered in source order, so the first error is the same.
            let mut lowered = Vec::with_capacity(branches.len());
            for (cond, body) in branches {
                lowered.push((cx.expr(cond)?, lower_block(body, cx)?));
            }
            LStmt::Runon {
                site: cx.site(lowered.iter().map(|(cond, _)| cond)),
                branches: lowered,
            }
        }
        Stmt::Message {
            kind,
            size,
            from,
            to,
            handle,
            label,
        } => {
            let (size, from, to) = (cx.expr(size)?, cx.expr(from)?, cx.expr(to)?);
            LStmt::Message {
                kind: *kind,
                site: cx.site([&size, &from, &to]),
                size,
                from,
                to,
                handle: handle.as_ref().map(|h| cx.handles.intern(h)),
                label: lower_label(label, &mut cx.labels),
            }
        }
        Stmt::Wait { handle, label } => LStmt::Wait {
            handle: cx.handles.intern(handle),
            label: lower_label(label, &mut cx.labels),
        },
        Stmt::Serial { time, label, .. } => {
            let time = cx.expr(time)?;
            LStmt::Serial {
                site: cx.site([&time]),
                time,
                label: lower_label(label, &mut cx.labels),
            }
        }
        Stmt::Collective { op, size, label } => {
            let size = cx.expr(size)?;
            LStmt::Collective {
                op: *op,
                site: cx.site([&size]),
                size,
                label: lower_label(label, &mut cx.labels),
            }
        }
    })
}

fn lower_expr_opts<'m>(
    e: &'m Expr,
    names: &mut Interner<'m>,
    do_fold: bool,
) -> Result<LExpr, ExprError> {
    let l = match e {
        Expr::Num(v) => return Ok(LExpr::Num(*v)),
        Expr::Var(n) => return Ok(LExpr::Var(names.intern(n))),
        // Literal operands fold here, before their node is built.
        Expr::Unary(op, a) => match lower_expr_opts(a, names, do_fold)? {
            LExpr::Num(v) if do_fold => return Ok(LExpr::Num(unary(*op, v))),
            a => LExpr::Unary(*op, Box::new(a)),
        },
        Expr::Binary(op, a, b) => {
            let a = lower_expr_opts(a, names, do_fold)?;
            let b = lower_expr_opts(b, names, do_fold)?;
            if let (LExpr::Num(x), LExpr::Num(y), true) = (&a, &b, do_fold) {
                if let Ok(v) = binary(*op, *x, *y) {
                    return Ok(LExpr::Num(v));
                }
            }
            LExpr::Binary(*op, Box::new(a), Box::new(b))
        }
        Expr::Call(name, args) => {
            if name == "sizeof" {
                if args.len() != 1 {
                    return err("sizeof takes exactly one argument");
                }
                LExpr::Num(sizeof(&args[0])?)
            } else {
                match (name.as_str(), args.len()) {
                    ("min", 2) => LExpr::Call2(
                        Fn2::Min,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                        Box::new(lower_expr_opts(&args[1], names, do_fold)?),
                    ),
                    ("max", 2) => LExpr::Call2(
                        Fn2::Max,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                        Box::new(lower_expr_opts(&args[1], names, do_fold)?),
                    ),
                    ("ceil", 1) => LExpr::Call1(
                        Fn1::Ceil,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("floor", 1) => LExpr::Call1(
                        Fn1::Floor,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("abs", 1) => LExpr::Call1(
                        Fn1::Abs,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("log2", 1) => LExpr::Call1(
                        Fn1::Log2,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    (_, n) => {
                        return err(format!("unknown function {name:?} with {n} args"));
                    }
                }
            }
        }
    };
    Ok(if do_fold { fold(l) } else { l })
}

/// Constant-fold a variable-free subtree. Subtrees whose evaluation errors
/// (division by zero, log2 domain) are kept symbolic so the error is
/// raised at execution time, exactly as the interpreter would.
fn fold(l: LExpr) -> LExpr {
    if matches!(l, LExpr::Num(_)) || l.reads(&|_| true) {
        return l;
    }
    match l.eval(&[], &Names::default()) {
        Ok(v) => LExpr::Num(v),
        Err(_) => l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse, Env};

    /// `e` lowered on its own, with the variable names it interned.
    fn lower_with(e: &Expr, fold: bool) -> Result<(LExpr, Names), ExprError> {
        let mut names = Interner::default();
        let l = lower_expr_opts(e, &mut names, fold)?;
        Ok((l, Names::new(names.table)))
    }

    fn lower(src: &str) -> (LExpr, Names) {
        lower_with(&parse(src).unwrap(), true).unwrap()
    }

    #[test]
    fn names_find_every_slot_by_name() {
        let (_, names) = lower("zeta + alpha*mid - (b2 + alpha) / zeta + a1");
        assert_eq!(names.len(), 5);
        for slot in 0..names.len() as u32 {
            assert_eq!(names.get(names.name(slot)), Some(slot));
        }
        for absent in ["", "a", "alph", "alphaa", "zz", "procnum"] {
            assert_eq!(names.get(absent), None, "{absent:?}");
        }
    }

    #[test]
    fn folds_sizeof_and_constants() {
        let (l, _) = lower("4*sizeof(float)+1");
        assert!(matches!(l, LExpr::Num(v) if v == 17.0));
    }

    #[test]
    fn keeps_erroring_subtree_symbolic() {
        let (l, names) = lower("1/0");
        assert!(!matches!(l, LExpr::Num(_)));
        assert_eq!(l.eval(&[], &names).unwrap_err().message, "division by zero");
    }

    #[test]
    fn slot_eval_matches_interpreter() {
        for src in [
            "xsize*sizeof(float)",
            "procnum%2==0 && procnum<numprocs-1",
            "max(ceil(n/4), min(n, 3)) + log2(8)",
            "-n + abs(0-n) + (n>=2)*7",
        ] {
            let e = parse(src).unwrap();
            let mut env = Env::default();
            for (k, v) in [
                ("xsize", 256.0),
                ("procnum", 3.0),
                ("numprocs", 8.0),
                ("n", 6.0),
            ] {
                env.insert(k.to_string(), v);
            }
            let (l, names) = lower_with(&e, true).unwrap();
            let mut slots = vec![None; names.len()];
            for (k, v) in [
                ("xsize", 256.0),
                ("procnum", 3.0),
                ("numprocs", 8.0),
                ("n", 6.0),
            ] {
                if let Some(i) = names.get(k) {
                    slots[i as usize] = Some(v);
                }
            }
            let a = e.eval(&env).unwrap();
            let b = l.eval(&slots, &names).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{src}");
        }
    }

    #[test]
    fn unbound_variable_message_matches() {
        let e = parse("missing+1").unwrap();
        let (l, names) = lower_with(&e, true).unwrap();
        let slots = vec![None; names.len()];
        assert_eq!(
            l.eval(&slots, &names).unwrap_err(),
            e.eval(&Env::default()).unwrap_err()
        );
    }

    #[test]
    fn unfolded_lowering_evaluates_identically() {
        for src in [
            "4*sizeof(float)+1",
            "max(ceil(6/4), min(6, 3)) + log2(8)",
            "1+2*3-4/2",
        ] {
            let e = parse(src).unwrap();
            let (folded, names) = lower_with(&e, true).unwrap();
            let (plain, names2) = lower_with(&e, false).unwrap();
            assert!(matches!(folded, LExpr::Num(_)), "{src} should fold");
            assert!(!matches!(plain, LExpr::Num(_)), "{src} should stay a tree");
            let a = folded.eval(&[], &names).unwrap();
            let b = plain.eval(&[], &names2).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{src}");
        }
    }

    #[test]
    fn as_index_rounds_like_round_without_calling_it() {
        let two = |e: i32| 2f64.powi(e);
        for v in [
            -0.5,
            -0.3,
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            3.4999999999999996,
            1e15 + 0.5,
            two(52) - 1.0,
            two(52) + 1.0,
            two(53) - 1.0,
            two(63) - 1024.0,
            two(63),
            two(64),
            1e300,
        ] {
            assert_eq!(as_index(v).unwrap(), v.round() as usize, "v = {v:e}");
        }
        for v in [-0.5000000000000001, -1.0, f64::NAN, f64::INFINITY] {
            assert!(as_index(v).is_err(), "v = {v:e}");
        }
    }

    /// The site of each statement in the model's one loop, `None` for a
    /// statement that is not decided, and the sites of the whole program.
    fn decided_sites(model: &Model) -> (Vec<Option<u32>>, usize) {
        let lowered = Program::new(model).lowered.unwrap();
        let LStmt::Loop { body, .. } = &lowered.stmts[0] else {
            panic!("the model is one loop");
        };
        let decided = body
            .iter()
            .map(|stmt| match stmt {
                LStmt::Loop { site, .. }
                | LStmt::Runon { site, .. }
                | LStmt::Message { site, .. }
                | LStmt::Serial { site, .. }
                | LStmt::Collective { site, .. } => *site,
                LStmt::Wait { .. } => None,
            })
            .collect();
        (decided, lowered.sites)
    }

    #[test]
    fn a_statement_whose_operands_read_no_loop_variable_takes_one_site() {
        use crate::model::build::*;
        let model = Model::new().with_stmt(looped_var(
            "laps",
            "k",
            vec![
                // Decided: one site for the statement.
                send("size", "procnum", "procnum+1"),
                recv("size", "procnum-1", "procnum"),
                runon2("procnum == 0", vec![], "procnum > 0", vec![]),
                // An operand reads `k`: no site at all.
                send("size", "procnum", "(procnum+k) % numprocs"),
                runon2("k == 0", vec![], "procnum > 0", vec![]),
                serial("0.001*k"),
                // An `Irecv` is decided too; its handle is checked on every
                // execution.
                irecv("size", "procnum-1", "procnum", "h"),
                wait("h"),
                // Literal operands are decided too.
                send("8", "0", "1"),
                serial("0.001"),
            ],
        ));
        let (decided, sites) = decided_sites(&model);
        assert_eq!(
            decided,
            [
                Some(1),
                Some(2),
                Some(3),
                None,
                None,
                None,
                Some(4),
                None,
                Some(5),
                Some(6)
            ],
            "the loop takes site 0"
        );
        assert_eq!(sites, 7);
    }

    #[test]
    fn unknown_function_errors_at_lower_time() {
        let e = parse("frob(1)").unwrap();
        assert_eq!(
            lower_with(&e, true).unwrap_err().message,
            "unknown function \"frob\" with 1 args"
        );
    }
}
