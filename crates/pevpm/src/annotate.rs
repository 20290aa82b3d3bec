//! The PEVPM annotation extractor.
//!
//! §5–6 of the paper: PEVPM directives "can be used to either annotate
//! existing source code or to express some algorithmic idea in a standalone
//! manner", and the translation of an annotated program into a model "could
//! easily be carried out by an automated compiler". This module *is* that
//! automation for the annotation syntax of Figure 5: it scans a C-like
//! source file for `// PEVPM` comment lines and builds a [`Model`].
//!
//! Recognised directives:
//!
//! ```text
//! // PEVPM Loop iterations = <expr>
//! // PEVPM Runon c1 = <expr>
//! // PEVPM &     c2 = <expr>           (any number of conditions)
//! // PEVPM Message type = MPI_Send|MPI_Isend|MPI_Recv
//! // PEVPM &       size = <expr>
//! // PEVPM &       from = <expr>
//! // PEVPM &       to   = <expr>
//! // PEVPM Serial [on <machine>] time = <expr>
//! // PEVPM Collective op = barrier|bcast|reduce|allreduce|alltoall size = <expr>
//! // PEVPM {   … block open (Loop takes one block, Runon one per condition)
//! // PEVPM }   … block close
//! ```

use crate::expr::{parse as parse_expr, Expr};
use crate::model::{CollOp, Model, MsgKind, Stmt};
use pevpm_obs::text::{self, binding, Line, LineError};

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, LineError> {
    Err(LineError::new(line, message))
}

/// One extracted directive before AST construction.
#[derive(Debug, Clone)]
enum Directive {
    Loop {
        count: Expr,
        var: Option<String>,
    },
    Runon {
        conds: Vec<Expr>,
    },
    Message {
        kind: MsgKind,
        size: Expr,
        from: Expr,
        to: Expr,
        handle: Option<String>,
    },
    Wait {
        handle: String,
    },
    Serial {
        machine: Option<String>,
        time: Expr,
    },
    Collective {
        op: CollOp,
        size: Expr,
    },
    Open,
    Close,
}

/// `key = value` fields of one directive, borrowed from the source.
type Fields<'a> = Vec<(&'a str, &'a str)>;

/// A directive head (its text after `// PEVPM`) with the fields of its
/// continuation lines (`& key = value`).
type DirectiveGroup<'a> = (Line<'a>, Fields<'a>);

/// Extract the `// PEVPM` lines and group each continuation with its
/// head directive.
fn group_directives(src: &str) -> Result<Vec<DirectiveGroup<'_>>, LineError> {
    let mut out: Vec<DirectiveGroup> = Vec::new();
    for line in text::lines(src) {
        let Some(payload) = line
            .text
            .strip_prefix("// PEVPM")
            .or_else(|| line.text.strip_prefix("//PEVPM"))
            .map(str::trim)
        else {
            continue;
        };
        if let Some(cont) = payload.strip_prefix('&') {
            let Some(last) = out.last_mut() else {
                return err(line.no, "continuation '&' without a preceding directive");
            };
            let Some(kv) = binding(cont.trim()) else {
                return err(
                    line.no,
                    format!("expected key = value after '&', got {cont:?}"),
                );
            };
            last.1.push(kv);
        } else {
            let head = Line {
                text: payload,
                ..line
            };
            out.push((head, Vec::new()));
        }
    }
    Ok(out)
}

fn get<'a>(fields: &Fields<'a>, key: &str) -> Option<&'a str> {
    fields.iter().find_map(|&(k, v)| (k == key).then_some(v))
}

fn field<'a>(
    fields: &Fields<'a>,
    key: &str,
    lineno: usize,
    what: &str,
) -> Result<&'a str, LineError> {
    get(fields, key)
        .ok_or_else(|| LineError::new(lineno, format!("{what} directive missing field {key:?}")))
}

fn expr_field(fields: &Fields, key: &str, lineno: usize, what: &str) -> Result<Expr, LineError> {
    let v = field(fields, key, lineno, what)?;
    parse_expr(v).map_err(|e| LineError::new(lineno, format!("{what} field {key:?}: {e}")))
}

fn parse_directive<'a>(head: Line<'a>, mut fields: Fields<'a>) -> Result<Directive, LineError> {
    let lineno = head.no;
    match head.text {
        "{" => return Ok(Directive::Open),
        "}" => return Ok(Directive::Close),
        _ => {}
    }
    let (keyword, mut rest) = head.tag();
    // Serial takes an optional `on <machine>` before `time = …`.
    let mut machine = None;
    if keyword == "Serial" {
        if let Some(r) = rest.strip_prefix("on ") {
            let r = r.trim_start();
            let end = r.find(char::is_whitespace).unwrap_or(r.len());
            machine = Some(r[..end].to_string());
            rest = r[end..].trim();
        }
    }
    // The head's own binding comes first.
    if let Some(kv) = binding(rest) {
        fields.insert(0, kv);
    }
    match keyword {
        "Loop" => {
            let count = expr_field(&fields, "iterations", lineno, "Loop")?;
            let var = get(&fields, "var").map(str::to_string);
            Ok(Directive::Loop { count, var })
        }
        "Runon" => {
            if fields.is_empty() {
                return err(lineno, "Runon needs at least one condition");
            }
            let mut conds = Vec::with_capacity(fields.len());
            for (k, v) in &fields {
                if !k.starts_with('c') {
                    return err(
                        lineno,
                        format!("Runon condition keys must be c1, c2, …; got {k:?}"),
                    );
                }
                let e = parse_expr(v)
                    .map_err(|e| LineError::new(lineno, format!("Runon condition {k:?}: {e}")))?;
                conds.push(e);
            }
            Ok(Directive::Runon { conds })
        }
        "Message" => {
            let ty = field(&fields, "type", lineno, "Message")?;
            let kind = MsgKind::from_mpi_name(ty)
                .ok_or_else(|| LineError::new(lineno, format!("unknown message type {ty:?}")))?;
            let handle = get(&fields, "handle").map(str::to_string);
            if kind == MsgKind::Irecv && handle.is_none() {
                return err(lineno, "MPI_Irecv message needs a handle = <name> field");
            }
            Ok(Directive::Message {
                kind,
                size: expr_field(&fields, "size", lineno, "Message")?,
                from: expr_field(&fields, "from", lineno, "Message")?,
                to: expr_field(&fields, "to", lineno, "Message")?,
                handle,
            })
        }
        "Wait" => {
            let handle = field(&fields, "handle", lineno, "Wait")?.to_string();
            Ok(Directive::Wait { handle })
        }
        "Serial" => {
            let time = expr_field(&fields, "time", lineno, "Serial")?;
            Ok(Directive::Serial { machine, time })
        }
        "Collective" => {
            let opname = field(&fields, "op", lineno, "Collective")?;
            let op = match opname {
                "barrier" => CollOp::Barrier,
                "bcast" => CollOp::Bcast,
                "reduce" => CollOp::Reduce,
                "allreduce" => CollOp::Allreduce,
                "alltoall" => CollOp::Alltoall,
                other => return err(lineno, format!("unknown collective {other:?}")),
            };
            let size = match get(&fields, "size") {
                Some(_) => expr_field(&fields, "size", lineno, "Collective")?,
                None => Expr::Num(0.0),
            };
            Ok(Directive::Collective { op, size })
        }
        other => err(lineno, format!("unknown PEVPM directive {other:?}")),
    }
}

/// What the AST builder is waiting for.
#[derive(Debug)]
enum Pending {
    /// A plain block (statements accumulate here).
    Block(Vec<Stmt>),
    /// A Loop waiting for its single block.
    Loop {
        count: Expr,
        var: Option<String>,
        line: usize,
    },
    /// A Runon with conditions, collecting one block per condition.
    Runon {
        conds: Vec<Expr>,
        done: Vec<(Expr, Vec<Stmt>)>,
        line: usize,
    },
}

/// Parse the `// PEVPM` annotations out of `src` and build a [`Model`].
pub fn parse_annotations(src: &str) -> Result<Model, LineError> {
    let groups = group_directives(src)?;

    let mut stack: Vec<Pending> = vec![Pending::Block(Vec::new())];

    fn append(stack: &mut [Pending], stmt: Stmt, line: usize) -> Result<(), LineError> {
        match stack.last_mut() {
            Some(Pending::Block(stmts)) => {
                stmts.push(stmt);
                Ok(())
            }
            _ => err(line, "statement outside a block (expected '{' first)"),
        }
    }

    for (head, fields) in groups {
        let lineno = head.no;
        let d = parse_directive(head, fields)?;
        match d {
            Directive::Loop { count, var } => stack.push(Pending::Loop {
                count,
                var,
                line: lineno,
            }),
            Directive::Runon { conds } => stack.push(Pending::Runon {
                conds,
                done: Vec::new(),
                line: lineno,
            }),
            Directive::Message {
                kind,
                size,
                from,
                to,
                handle,
            } => {
                let label = Some(format!("line {lineno}: Message"));
                append(
                    &mut stack,
                    Stmt::Message {
                        kind,
                        size,
                        from,
                        to,
                        handle,
                        label,
                    },
                    lineno,
                )?;
            }
            Directive::Wait { handle } => {
                let label = Some(format!("line {lineno}: Wait"));
                append(&mut stack, Stmt::Wait { handle, label }, lineno)?;
            }
            Directive::Serial { machine, time } => {
                let label = Some(format!("line {lineno}: Serial"));
                append(
                    &mut stack,
                    Stmt::Serial {
                        time,
                        machine,
                        label,
                    },
                    lineno,
                )?;
            }
            Directive::Collective { op, size } => {
                let label = Some(format!("line {lineno}: Collective"));
                append(&mut stack, Stmt::Collective { op, size, label }, lineno)?;
            }
            Directive::Open => match stack.last() {
                Some(Pending::Loop { .. }) | Some(Pending::Runon { .. }) => {
                    stack.push(Pending::Block(Vec::new()));
                }
                _ => return err(lineno, "unexpected '{' (no Loop or Runon pending)"),
            },
            Directive::Close => {
                let Some(Pending::Block(body)) = stack.pop() else {
                    return err(lineno, "unexpected '}'");
                };
                match stack.pop() {
                    Some(Pending::Loop { count, var, .. }) => {
                        append(&mut stack, Stmt::Loop { count, var, body }, lineno)?;
                    }
                    Some(Pending::Runon {
                        conds,
                        mut done,
                        line,
                    }) => {
                        let idx = done.len();
                        done.push((conds[idx].clone(), body));
                        if done.len() == conds.len() {
                            append(&mut stack, Stmt::Runon { branches: done }, lineno)?;
                        } else {
                            stack.push(Pending::Runon { conds, done, line });
                        }
                    }
                    _ => return err(lineno, "'}' does not close a Loop or Runon block"),
                }
            }
        }
    }

    match stack.pop() {
        Some(Pending::Block(stmts)) if stack.is_empty() => Ok(Model {
            stmts,
            params: Default::default(),
        }),
        Some(Pending::Loop { line, .. }) => err(line, "Loop directive never got its block"),
        Some(Pending::Runon {
            line, conds, done, ..
        }) => err(
            line,
            format!(
                "Runon has {} condition(s) but only {} block(s)",
                conds.len(),
                done.len()
            ),
        ),
        _ => err(src.lines().count(), "unbalanced blocks at end of file"),
    }
}

/// The paper's Figure 5 annotated Jacobi listing, shipped as a test asset
/// and parsed by [`parse_annotations`] in the integration tests.
pub const JACOBI_FIG5: &str = include_str!("../assets/jacobi_annotated.c");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::standard_env;

    #[test]
    fn simple_loop_with_serial() {
        let src = "\
// PEVPM Loop iterations = 10
// PEVPM {
// PEVPM Serial time = 0.5
// PEVPM }
";
        let m = parse_annotations(src).unwrap();
        assert_eq!(m.stmts.len(), 1);
        match &m.stmts[0] {
            Stmt::Loop { count, body, .. } => {
                let env = standard_env(0, 1, &Default::default());
                assert_eq!(count.eval(&env).unwrap(), 10.0);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected Loop, got {other:?}"),
        }
    }

    #[test]
    fn serial_machine_name_is_captured() {
        let src = "// PEVPM Serial on perseus time = 3.24/numprocs\n";
        let m = parse_annotations(src).unwrap();
        match &m.stmts[0] {
            Stmt::Serial { machine, .. } => assert_eq!(machine.as_deref(), Some("perseus")),
            other => panic!("expected Serial, got {other:?}"),
        }
    }

    #[test]
    fn message_with_continuations() {
        let src = "\
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
";
        let m = parse_annotations(src).unwrap();
        match &m.stmts[0] {
            Stmt::Message {
                kind,
                size,
                from,
                to,
                ..
            } => {
                assert_eq!(*kind, MsgKind::Send);
                let mut params = crate::expr::Env::default();
                params.insert("xsize".into(), 256.0);
                let env = standard_env(3, 8, &params);
                assert_eq!(size.eval(&env).unwrap(), 1024.0);
                assert_eq!(from.eval(&env).unwrap(), 3.0);
                assert_eq!(to.eval(&env).unwrap(), 2.0);
            }
            other => panic!("expected Message, got {other:?}"),
        }
    }

    #[test]
    fn runon_two_branches() {
        let src = "\
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
// PEVPM Serial time = 1
// PEVPM }
// PEVPM {
// PEVPM Serial time = 2
// PEVPM }
";
        let m = parse_annotations(src).unwrap();
        match &m.stmts[0] {
            Stmt::Runon { branches } => {
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].1.len(), 1);
                assert_eq!(branches[1].1.len(), 1);
            }
            other => panic!("expected Runon, got {other:?}"),
        }
    }

    #[test]
    fn fig5_listing_parses() {
        let m = parse_annotations(JACOBI_FIG5).unwrap();
        // Top level: one Loop.
        assert_eq!(m.stmts.len(), 1);
        let Stmt::Loop { body, .. } = &m.stmts[0] else {
            panic!("expected the iteration loop")
        };
        // Loop body: Runon (even/odd) + Serial.
        assert_eq!(body.len(), 2);
        let Stmt::Runon { branches } = &body[0] else {
            panic!("expected even/odd Runon")
        };
        assert_eq!(branches.len(), 2);
        // Even branch: guarded send, send, recv, guarded recv.
        assert_eq!(branches[0].1.len(), 4);
        // Odd branch: guarded recv, recv, send, guarded send.
        assert_eq!(branches[1].1.len(), 4);
        assert!(matches!(body[1], Stmt::Serial { .. }));
        // Free variables: xsize and iterations.
        assert_eq!(m.free_variables(), vec!["iterations", "xsize"]);
    }

    #[test]
    fn error_reporting() {
        assert!(parse_annotations("// PEVPM Bogus x = 1\n").is_err());
        assert!(parse_annotations("// PEVPM }\n").is_err());
        assert!(parse_annotations("// PEVPM Loop iterations = 3\n").is_err());
        assert!(parse_annotations("// PEVPM & x = 1\n").is_err());
        let e = parse_annotations("// PEVPM Message type = MPI_Send\n").unwrap_err();
        assert!(e.message.contains("size"), "{e}");
        // Runon with 2 conditions but one block.
        let src = "\
// PEVPM Runon c1 = 1
// PEVPM &     c2 = 0
// PEVPM {
// PEVPM }
";
        let e = parse_annotations(src).unwrap_err();
        assert!(e.message.contains("block"), "{e}");
    }

    #[test]
    fn non_pevpm_lines_are_ignored() {
        let src = "\
int main() {
  // a normal comment
  for (;;) {}
  // PEVPM Serial time = 1
}
";
        let m = parse_annotations(src).unwrap();
        assert_eq!(m.stmts.len(), 1);
    }
}
