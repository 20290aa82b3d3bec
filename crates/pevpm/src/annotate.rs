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

use std::fmt::Write;

use crate::expr::{parse as parse_expr, Expr};
use crate::model::{CollOp, Model, MsgKind, Stmt};
use pevpm_obs::text::{self, binding, Line, LineError};

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, LineError> {
    Err(LineError::new(line, message))
}

/// A `key = value` field, borrowed from the source.
type Field<'a> = (&'a str, &'a str);

/// The fields of one directive: the head's own binding first, then its
/// continuation lines' (`& key = value`).
struct Fields<'s, 'a> {
    head: Option<Field<'a>>,
    rest: &'s [Field<'a>],
}

impl<'a> Fields<'_, 'a> {
    fn iter(&self) -> impl Iterator<Item = Field<'a>> + '_ {
        self.head.into_iter().chain(self.rest.iter().copied())
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    fn field(&self, key: &str, lineno: usize, what: &str) -> Result<&'a str, LineError> {
        self.get(key).ok_or_else(|| {
            LineError::new(lineno, format!("{what} directive missing field {key:?}"))
        })
    }

    fn expr(&self, key: &str, lineno: usize, what: &str) -> Result<Expr, LineError> {
        let v = self.field(key, lineno, what)?;
        parse_expr(v).map_err(|e| LineError::new(lineno, format!("{what} field {key:?}: {e}")))
    }
}

/// The `// PEVPM` lines of `src`, each with its text after the marker.
fn annotations(src: &str) -> impl Iterator<Item = Line<'_>> {
    text::lines(src).filter_map(|line| {
        let payload = line
            .text
            .strip_prefix("// PEVPM")
            .or_else(|| line.text.strip_prefix("//PEVPM"))?;
        Some(Line {
            text: text::trim(payload),
            ..line
        })
    })
}

/// The field a continuation line (`& key = value`, `cont` after its `&`)
/// holds.
fn continuation<'a>(line: Line<'a>, cont: &'a str) -> Result<Field<'a>, LineError> {
    binding(text::trim(cont))
        .ok_or_else(|| line.err(format!("expected key = value after '&', got {cont:?}")))
}

/// Parse the directive `head` with the fields of its continuation lines,
/// `rest`, and add it to `tree`.
fn parse_directive(head: Line<'_>, rest: &[Field<'_>], tree: &mut Tree) -> Result<(), LineError> {
    let lineno = head.no;
    match head.text {
        "{" => return tree.open(lineno),
        "}" => return tree.close(lineno),
        _ => {}
    }
    let (keyword, mut tail) = head.tag();
    // Serial takes an optional `on <machine>` before `time = …`.
    let mut machine = None;
    if keyword == "Serial" {
        if let Some(r) = tail.strip_prefix("on ") {
            let r = r.trim_start();
            let end = r.find(char::is_whitespace).unwrap_or(r.len());
            machine = Some(r[..end].to_string());
            tail = text::trim(&r[end..]);
        }
    }
    let fields = Fields {
        head: binding(tail),
        rest,
    };
    let label = |what: &str| {
        // Room for any line number: `format!` would guess short and grow.
        let mut label = String::with_capacity(27 + what.len());
        let _ = write!(label, "line {lineno}: {what}");
        Some(label)
    };
    let stmt = match keyword {
        "Loop" => {
            let count = fields.expr("iterations", lineno, "Loop")?;
            let var = fields.get("var").map(str::to_string);
            tree.stack.push(Pending::Loop {
                count,
                var,
                line: lineno,
            });
            return Ok(());
        }
        "Runon" => {
            if fields.head.is_none() && fields.rest.is_empty() {
                return err(lineno, "Runon needs at least one condition");
            }
            let mut branches = Vec::with_capacity(fields.iter().count());
            for (k, v) in fields.iter() {
                if !k.starts_with('c') {
                    return err(
                        lineno,
                        format!("Runon condition keys must be c1, c2, …; got {k:?}"),
                    );
                }
                let e = parse_expr(v)
                    .map_err(|e| LineError::new(lineno, format!("Runon condition {k:?}: {e}")))?;
                branches.push((e, Vec::new()));
            }
            tree.stack.push(Pending::Runon {
                branches,
                filled: 0,
                line: lineno,
            });
            return Ok(());
        }
        "Message" => {
            let ty = fields.field("type", lineno, "Message")?;
            let kind = MsgKind::from_mpi_name(ty)
                .ok_or_else(|| LineError::new(lineno, format!("unknown message type {ty:?}")))?;
            let handle = fields.get("handle").map(str::to_string);
            if kind == MsgKind::Irecv && handle.is_none() {
                return err(lineno, "MPI_Irecv message needs a handle = <name> field");
            }
            Stmt::Message {
                kind,
                size: fields.expr("size", lineno, "Message")?,
                from: fields.expr("from", lineno, "Message")?,
                to: fields.expr("to", lineno, "Message")?,
                handle,
                label: label("Message"),
            }
        }
        "Wait" => Stmt::Wait {
            handle: fields.field("handle", lineno, "Wait")?.to_string(),
            label: label("Wait"),
        },
        "Serial" => Stmt::Serial {
            time: fields.expr("time", lineno, "Serial")?,
            machine,
            label: label("Serial"),
        },
        "Collective" => {
            let name = fields.field("op", lineno, "Collective")?;
            let Some(op) = CollOp::from_name(name) else {
                return err(lineno, format!("unknown collective {name:?}"));
            };
            let size = match fields.get("size") {
                Some(_) => fields.expr("size", lineno, "Collective")?,
                None => Expr::Num(0.0),
            };
            Stmt::Collective {
                op,
                size,
                label: label("Collective"),
            }
        }
        other => return err(lineno, format!("unknown PEVPM directive {other:?}")),
    };
    tree.append(stmt, lineno)
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
    /// A Runon with conditions, the first `filled` of which have their
    /// block.
    Runon {
        branches: Vec<(Expr, Vec<Stmt>)>,
        filled: usize,
        line: usize,
    },
}

/// Parse the `// PEVPM` annotations out of `src` and build a [`Model`].
///
/// A directive is parsed once the line after its last continuation
/// arrives; the fields of its continuations gather in one reused buffer.
/// A malformed continuation line outranks every other error, wherever it
/// is, so after the first error the rest of the lines are only checked
/// for one.
pub fn parse_annotations(src: &str) -> Result<Model, LineError> {
    let mut tree = Tree {
        stack: vec![Pending::Block(Vec::new())],
    };
    let mut failed = None;
    let mut head = None;
    let mut fields = Vec::new();
    let mut directive = |head: Line, fields: &[Field], failed: &mut Option<LineError>| {
        if failed.is_none() {
            *failed = parse_directive(head, fields, &mut tree).err();
        }
    };
    for line in annotations(src) {
        if let Some(cont) = line.text.strip_prefix('&') {
            if head.is_none() {
                return err(line.no, "continuation '&' without a preceding directive");
            }
            fields.push(continuation(line, cont)?);
        } else if let Some(done) = head.replace(line) {
            directive(done, &fields, &mut failed);
            fields.clear();
        }
    }
    if let Some(done) = head {
        directive(done, &fields, &mut failed);
    }
    match failed {
        Some(e) => Err(e),
        None => tree.finish(src),
    }
}

/// The model under construction: the open blocks, innermost last.
struct Tree {
    stack: Vec<Pending>,
}

impl Tree {
    fn append(&mut self, stmt: Stmt, line: usize) -> Result<(), LineError> {
        match self.stack.last_mut() {
            Some(Pending::Block(stmts)) => {
                stmts.push(stmt);
                Ok(())
            }
            _ => err(line, "statement outside a block (expected '{' first)"),
        }
    }

    /// Open the block a pending Loop or Runon waits for.
    fn open(&mut self, lineno: usize) -> Result<(), LineError> {
        match self.stack.last() {
            Some(Pending::Loop { .. }) | Some(Pending::Runon { .. }) => {
                self.stack.push(Pending::Block(Vec::new()));
                Ok(())
            }
            _ => err(lineno, "unexpected '{' (no Loop or Runon pending)"),
        }
    }

    /// Close the innermost block, completing the Loop or Runon branch it
    /// belongs to.
    fn close(&mut self, lineno: usize) -> Result<(), LineError> {
        let Some(Pending::Block(body)) = self.stack.pop() else {
            return err(lineno, "unexpected '}'");
        };
        match self.stack.pop() {
            Some(Pending::Loop { count, var, .. }) => {
                self.append(Stmt::Loop { count, var, body }, lineno)
            }
            Some(Pending::Runon {
                mut branches,
                filled,
                line,
            }) => {
                branches[filled].1 = body;
                let filled = filled + 1;
                if filled == branches.len() {
                    return self.append(Stmt::Runon { branches }, lineno);
                }
                self.stack.push(Pending::Runon {
                    branches,
                    filled,
                    line,
                });
                Ok(())
            }
            _ => err(lineno, "'}' does not close a Loop or Runon block"),
        }
    }

    /// The model, once every block has closed.
    fn finish(mut self, src: &str) -> Result<Model, LineError> {
        match self.stack.pop() {
            Some(Pending::Block(stmts)) if self.stack.is_empty() => Ok(Model {
                stmts,
                params: Default::default(),
            }),
            Some(Pending::Loop { line, .. }) => err(line, "Loop directive never got its block"),
            Some(Pending::Runon {
                line,
                branches,
                filled,
            }) => err(
                line,
                format!(
                    "Runon has {} condition(s) but only {} block(s)",
                    branches.len(),
                    filled
                ),
            ),
            _ => err(src.lines().count(), "unbalanced blocks at end of file"),
        }
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
