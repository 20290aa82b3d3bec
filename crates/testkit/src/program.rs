//! The fuzzer's intermediate representation of a model program.
//!
//! Generated programs are *schedules of matched communication*: a flat
//! sequence of items, where every point-to-point item names both endpoints
//! and every collective involves all processes. Each process executes the
//! items in sequence (skipping those it does not participate in), which
//! makes the schedule deadlock-free by construction — an operation at item
//! `k` can only wait for its own partner at item `k` or for predecessors at
//! items `< k`, so the wait-for graph is acyclic by induction over item
//! positions. This holds under both eager and rendezvous send semantics,
//! for non-blocking variants, and for wildcard sinks (a sink process posts
//! *only* wildcard receives, so FIFO sequence theft cannot occur).
//!
//! The IR lowers two ways: [`TestProgram::to_model`] emits the PEVPM
//! directive tree, and [`crate::corun`] interprets the same IR on real
//! mpisim ranks — giving the oracles one ground truth to compare both
//! implementations against.

use pevpm::model::build as b;
use pevpm::model::{CollOp, Model, MsgKind, Stmt};
use pevpm_obs::text::{self, Line, LineError};

/// How a matched point-to-point item is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// Blocking `MPI_Send` / blocking `MPI_Recv`.
    Blocking,
    /// `MPI_Isend` on the sender (fire-and-forget in the PEVPM model),
    /// blocking receive on the destination.
    Isend,
    /// Blocking send, `MPI_Irecv` + `Wait` on the destination.
    IrecvWait,
}

impl PairMode {
    fn name(self) -> &'static str {
        match self {
            PairMode::Blocking => "blocking",
            PairMode::Isend => "isend",
            PairMode::IrecvWait => "irecv",
        }
    }

    fn from_name(s: &str) -> Option<PairMode> {
        Some(match s {
            "blocking" => PairMode::Blocking,
            "isend" => PairMode::Isend,
            "irecv" => PairMode::IrecvWait,
            _ => return None,
        })
    }
}

/// One schedule item. See the module docs for why a sequence of these is
/// deadlock-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Every process computes for `usecs` microseconds.
    ComputeAll { usecs: u64 },
    /// One process computes for `usecs` microseconds.
    Compute { proc: usize, usecs: u64 },
    /// A matched message `src → dst`.
    Pair {
        src: usize,
        dst: usize,
        bytes: u64,
        mode: PairMode,
    },
    /// Each sender sends one message to `sink`; the sink posts one
    /// *wildcard* receive per sender. All of the sink's receives in this
    /// item are wildcards, so matching is count-based and cannot stall.
    WildcardSink {
        sink: usize,
        senders: Vec<usize>,
        bytes: u64,
    },
    /// An unguarded collective over all processes.
    Coll { op: CollOp, bytes: u64 },
    /// A loop executed `count` times by every process. The body is itself
    /// a matched schedule, so unrolling preserves the induction argument.
    Loop { count: u32, body: Vec<Item> },
    /// (maybe-deadlock mode only) A receive whose matching send never
    /// happens. Used to exercise the VM's deadlock/budget diagnostics;
    /// never emitted by the well-formed generator.
    OrphanRecv { src: usize, dst: usize, bytes: u64 },
}

/// A generated model program.
#[derive(Debug, Clone, PartialEq)]
pub struct TestProgram {
    /// Number of processes (`numprocs`).
    pub nprocs: usize,
    /// The matched schedule.
    pub items: Vec<Item>,
}

fn secs_expr(usecs: u64) -> String {
    // Integer-over-integer division: folds (or evaluates) to the exact
    // same f64 in every evaluation path and survives the text round-trip.
    format!("{usecs}/1000000")
}

fn items_to_stmts(items: &[Item], path: &mut Vec<usize>, out: &mut Vec<Stmt>) {
    for (i, item) in items.iter().enumerate() {
        path.push(i);
        let tag: String = path
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(".");
        match item {
            Item::ComputeAll { usecs } => {
                out.push(b::labelled(
                    b::serial(&secs_expr(*usecs)),
                    &format!("item {tag}: compute-all"),
                ));
            }
            Item::Compute { proc, usecs } => {
                out.push(b::runon(
                    &format!("procnum == {proc}"),
                    vec![b::labelled(
                        b::serial(&secs_expr(*usecs)),
                        &format!("item {tag}: compute p{proc}"),
                    )],
                ));
            }
            Item::Pair {
                src,
                dst,
                bytes,
                mode,
            } => {
                let size = bytes.to_string();
                let (fs, ts) = (src.to_string(), dst.to_string());
                let send_stmt = match mode {
                    PairMode::Isend => b::isend(&size, &fs, &ts),
                    _ => b::send(&size, &fs, &ts),
                };
                let recv_stmts = match mode {
                    PairMode::IrecvWait => {
                        let h = format!("h{}", tag.replace('.', "_"));
                        vec![b::irecv(&size, &fs, &ts, &h), b::wait(&h)]
                    }
                    _ => vec![b::labelled(
                        b::recv(&size, &fs, &ts),
                        &format!("item {tag}: recv"),
                    )],
                };
                out.push(b::runon2(
                    &format!("procnum == {src}"),
                    vec![b::labelled(send_stmt, &format!("item {tag}: send"))],
                    &format!("procnum == {dst}"),
                    recv_stmts,
                ));
            }
            Item::WildcardSink {
                sink,
                senders,
                bytes,
            } => {
                let size = bytes.to_string();
                let mut branches: Vec<(&str, Vec<Stmt>)> = Vec::new();
                let conds: Vec<String> =
                    senders.iter().map(|s| format!("procnum == {s}")).collect();
                let bodies: Vec<Vec<Stmt>> = senders
                    .iter()
                    .map(|s| {
                        vec![b::labelled(
                            b::send(&size, &s.to_string(), &sink.to_string()),
                            &format!("item {tag}: send to sink"),
                        )]
                    })
                    .collect();
                let sink_cond = format!("procnum == {sink}");
                let sink_body: Vec<Stmt> = (0..senders.len())
                    .map(|_| {
                        b::labelled(
                            b::recv(&size, "-1", &sink.to_string()),
                            &format!("item {tag}: wildcard recv"),
                        )
                    })
                    .collect();
                for (c, body) in conds.iter().zip(bodies) {
                    branches.push((c.as_str(), body));
                }
                branches.push((sink_cond.as_str(), sink_body));
                out.push(Stmt::Runon {
                    branches: branches
                        .into_iter()
                        .map(|(c, body)| (b::e(c), body))
                        .collect(),
                });
            }
            Item::Coll { op, bytes } => {
                out.push(b::labelled(
                    b::collective(*op, &bytes.to_string()),
                    &format!("item {tag}: collective"),
                ));
            }
            Item::Loop { count, body } => {
                let mut inner = Vec::new();
                items_to_stmts(body, path, &mut inner);
                out.push(b::looped(&count.to_string(), inner));
            }
            Item::OrphanRecv { src, dst, bytes } => {
                out.push(b::runon(
                    &format!("procnum == {dst}"),
                    vec![b::labelled(
                        b::recv(&bytes.to_string(), &src.to_string(), &dst.to_string()),
                        &format!("item {tag}: orphan recv"),
                    )],
                ));
            }
        }
        path.pop();
    }
}

impl TestProgram {
    /// Lower to a PEVPM directive [`Model`].
    pub fn to_model(&self) -> Model {
        let mut stmts = Vec::new();
        items_to_stmts(&self.items, &mut Vec::new(), &mut stmts);
        Model {
            stmts,
            params: Default::default(),
        }
    }

    /// Number of PEVPM directives the lowered model contains.
    pub fn directives(&self) -> usize {
        self.to_model().num_stmts()
    }

    /// Whether any item (recursively) posts a wildcard receive.
    pub fn has_wildcards(&self) -> bool {
        fn scan(items: &[Item]) -> bool {
            items.iter().any(|i| match i {
                Item::WildcardSink { .. } => true,
                Item::Loop { body, .. } => scan(body),
                _ => false,
            })
        }
        scan(&self.items)
    }

    /// Whether any item (recursively) is an orphan receive.
    pub fn has_orphans(&self) -> bool {
        fn scan(items: &[Item]) -> bool {
            items.iter().any(|i| match i {
                Item::OrphanRecv { .. } => true,
                Item::Loop { body, .. } => scan(body),
                _ => false,
            })
        }
        scan(&self.items)
    }

    /// The same program with every message size multiplied by `factor`
    /// (sizes must stay within the timing table's grid for evaluation).
    pub fn scaled_sizes(&self, factor: u64) -> TestProgram {
        fn scale(items: &[Item], factor: u64) -> Vec<Item> {
            items
                .iter()
                .map(|i| match i {
                    Item::Pair {
                        src,
                        dst,
                        bytes,
                        mode,
                    } => Item::Pair {
                        src: *src,
                        dst: *dst,
                        bytes: bytes * factor,
                        mode: *mode,
                    },
                    Item::WildcardSink {
                        sink,
                        senders,
                        bytes,
                    } => Item::WildcardSink {
                        sink: *sink,
                        senders: senders.clone(),
                        bytes: bytes * factor,
                    },
                    Item::Coll { op, bytes } => Item::Coll {
                        op: *op,
                        bytes: bytes * factor,
                    },
                    Item::Loop { count, body } => Item::Loop {
                        count: *count,
                        body: scale(body, factor),
                    },
                    other => other.clone(),
                })
                .collect()
        }
        TestProgram {
            nprocs: self.nprocs,
            items: scale(&self.items, factor),
        }
    }

    /// Serialise to the replayable text form (the `--- program ---`
    /// section of a counterexample artifact). Round-trips through
    /// [`TestProgram::parse`].
    pub fn to_text(&self) -> String {
        fn write_items(items: &[Item], depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            for item in items {
                match item {
                    Item::ComputeAll { usecs } => {
                        out.push_str(&format!("{pad}computeall usecs={usecs}\n"));
                    }
                    Item::Compute { proc, usecs } => {
                        out.push_str(&format!("{pad}compute proc={proc} usecs={usecs}\n"));
                    }
                    Item::Pair {
                        src,
                        dst,
                        bytes,
                        mode,
                    } => {
                        out.push_str(&format!(
                            "{pad}pair src={src} dst={dst} bytes={bytes} mode={}\n",
                            mode.name()
                        ));
                    }
                    Item::WildcardSink {
                        sink,
                        senders,
                        bytes,
                    } => {
                        let s: Vec<String> = senders.iter().map(|x| x.to_string()).collect();
                        out.push_str(&format!(
                            "{pad}wildcard sink={sink} senders={} bytes={bytes}\n",
                            s.join(",")
                        ));
                    }
                    Item::Coll { op, bytes } => {
                        out.push_str(&format!("{pad}coll op={} bytes={bytes}\n", op.name()));
                    }
                    Item::Loop { count, body } => {
                        out.push_str(&format!("{pad}loop count={count}\n"));
                        write_items(body, depth + 1, out);
                        out.push_str(&format!("{pad}end\n"));
                    }
                    Item::OrphanRecv { src, dst, bytes } => {
                        out.push_str(&format!(
                            "{pad}orphanrecv src={src} dst={dst} bytes={bytes}\n"
                        ));
                    }
                }
            }
        }
        let mut out = format!("nprocs = {}\n", self.nprocs);
        write_items(&self.items, 0, &mut out);
        out
    }

    /// Parse the text form produced by [`TestProgram::to_text`]. Errors
    /// carry the 1-based line number of the offending line.
    pub fn parse(text: &str) -> Result<TestProgram, LineError> {
        TestProgram::read(text::lines(text), 1)
    }

    /// Read a program from `lines`: an `nprocs = N` line, then one item
    /// per line. `start` is the line blamed when there is no line at all.
    pub(crate) fn read<'a>(
        mut lines: impl Iterator<Item = Line<'a>>,
        start: usize,
    ) -> Result<TestProgram, LineError> {
        let header = lines
            .next()
            .ok_or_else(|| LineError::new(start, "missing 'nprocs = N' header line"))?;
        let nprocs: usize = match header.binding() {
            Some(("nprocs", v)) => header.parse("nprocs", v)?,
            _ => {
                return Err(header.err(format!(
                    "expected 'nprocs = N' header line, got {:?}",
                    header.text
                )))
            }
        };
        if nprocs == 0 {
            return Err(header.err("nprocs must be positive"));
        }
        let mut items = Vec::new();
        // Enclosing item lists and counts of the open loops.
        let mut open: Vec<(u32, Vec<Item>)> = Vec::new();
        let mut end = header.no;
        for line in lines {
            end = line.no;
            let rec = line.record()?;
            let item = match rec.tag {
                "computeall" => Item::ComputeAll {
                    usecs: rec.parse("usecs")?,
                },
                "compute" => Item::Compute {
                    proc: rec.parse("proc")?,
                    usecs: rec.parse("usecs")?,
                },
                "pair" => {
                    let mode = rec.str("mode")?;
                    Item::Pair {
                        src: rec.parse("src")?,
                        dst: rec.parse("dst")?,
                        bytes: rec.parse("bytes")?,
                        mode: PairMode::from_name(mode)
                            .ok_or_else(|| line.err(format!("unknown pair mode {mode:?}")))?,
                    }
                }
                "wildcard" => Item::WildcardSink {
                    sink: rec.parse("sink")?,
                    senders: rec
                        .str("senders")?
                        .split(',')
                        .map(|s| line.parse("senders", s))
                        .collect::<Result<_, _>>()?,
                    bytes: rec.parse("bytes")?,
                },
                "coll" => {
                    let op = rec.str("op")?;
                    Item::Coll {
                        op: CollOp::from_name(op)
                            .ok_or_else(|| line.err(format!("unknown collective {op:?}")))?,
                        bytes: rec.parse("bytes")?,
                    }
                }
                "orphanrecv" => Item::OrphanRecv {
                    src: rec.parse("src")?,
                    dst: rec.parse("dst")?,
                    bytes: rec.parse("bytes")?,
                },
                "loop" => {
                    open.push((rec.parse("count")?, std::mem::take(&mut items)));
                    continue;
                }
                "end" => {
                    let (count, outer) = open
                        .pop()
                        .ok_or_else(|| line.err("'end' without open loop"))?;
                    let body = std::mem::replace(&mut items, outer);
                    Item::Loop { count, body }
                }
                other => return Err(line.err(format!("unknown item {other:?}"))),
            };
            items.push(item);
        }
        if !open.is_empty() {
            return Err(LineError::new(end, "unclosed loop"));
        }
        Ok(TestProgram { nprocs, items })
    }

    /// Render as `// PEVPM` annotations — the human-auditable form of a
    /// counterexample, replayable through `pevpm annotate`/`predict` and
    /// [`pevpm::parse_annotations`].
    pub fn to_annotated(&self) -> String {
        fn emit_stmts(stmts: &[Stmt], out: &mut String) {
            for s in stmts {
                match s {
                    Stmt::Loop { count, body, .. } => {
                        out.push_str(&format!("// PEVPM Loop iterations = {count}\n"));
                        out.push_str("// PEVPM {\n");
                        emit_stmts(body, out);
                        out.push_str("// PEVPM }\n");
                    }
                    Stmt::Runon { branches } => {
                        for (i, (cond, _)) in branches.iter().enumerate() {
                            if i == 0 {
                                out.push_str(&format!("// PEVPM Runon c1 = {cond}\n"));
                            } else {
                                out.push_str(&format!("// PEVPM &     c{} = {cond}\n", i + 1));
                            }
                        }
                        for (_, body) in branches {
                            out.push_str("// PEVPM {\n");
                            emit_stmts(body, out);
                            out.push_str("// PEVPM }\n");
                        }
                    }
                    Stmt::Message {
                        kind,
                        size,
                        from,
                        to,
                        handle,
                        ..
                    } => {
                        let ty = match kind {
                            MsgKind::Send => "MPI_Send",
                            MsgKind::Isend => "MPI_Isend",
                            MsgKind::Recv => "MPI_Recv",
                            MsgKind::Irecv => "MPI_Irecv",
                        };
                        out.push_str(&format!("// PEVPM Message type = {ty}\n"));
                        out.push_str(&format!("// PEVPM &       size = {size}\n"));
                        out.push_str(&format!("// PEVPM &       from = {from}\n"));
                        out.push_str(&format!("// PEVPM &       to = {to}\n"));
                        if let Some(h) = handle {
                            out.push_str(&format!("// PEVPM &       handle = {h}\n"));
                        }
                    }
                    Stmt::Wait { handle, .. } => {
                        out.push_str(&format!("// PEVPM Wait handle = {handle}\n"));
                    }
                    Stmt::Serial { time, .. } => {
                        out.push_str(&format!("// PEVPM Serial time = {time}\n"));
                    }
                    Stmt::Collective { op, size, .. } => {
                        out.push_str(&format!("// PEVPM Collective op = {}\n", op.name()));
                        out.push_str(&format!("// PEVPM &          size = {size}\n"));
                    }
                }
            }
        }
        let mut out = String::new();
        emit_stmts(&self.to_model().stmts, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TestProgram {
        TestProgram {
            nprocs: 4,
            items: vec![
                Item::ComputeAll { usecs: 120 },
                Item::Pair {
                    src: 0,
                    dst: 1,
                    bytes: 1024,
                    mode: PairMode::Blocking,
                },
                Item::Loop {
                    count: 3,
                    body: vec![
                        Item::Compute { proc: 2, usecs: 40 },
                        Item::Pair {
                            src: 2,
                            dst: 3,
                            bytes: 256,
                            mode: PairMode::IrecvWait,
                        },
                    ],
                },
                Item::WildcardSink {
                    sink: 0,
                    senders: vec![1, 2, 3],
                    bytes: 512,
                },
                Item::Coll {
                    op: CollOp::Allreduce,
                    bytes: 64,
                },
            ],
        }
    }

    #[test]
    fn text_round_trips() {
        let p = sample();
        let text = p.to_text();
        let back = TestProgram::parse(&text).unwrap();
        assert_eq!(p, back);
        // And the round-tripped program lowers to an identical model.
        assert_eq!(
            format!("{:?}", p.to_model()),
            format!("{:?}", back.to_model())
        );
    }

    #[test]
    fn parse_reports_line_numbers() {
        let e = TestProgram::parse("nprocs = 2\nfrobnicate x=1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{e}");
        let e = TestProgram::parse("pair src=0 dst=1 bytes=8 mode=blocking\n").unwrap_err();
        assert!(e.message.contains("nprocs"), "{e}");
        let e = TestProgram::parse(
            "nprocs = 2\nloop count=2\npair src=0 dst=1 bytes=8 mode=blocking\n",
        )
        .unwrap_err();
        assert!(e.message.contains("unclosed"), "{e}");
        let e = TestProgram::parse("nprocs = 2\npair src=0 dst=1 mode=blocking\n").unwrap_err();
        assert!(e.message.contains("bytes"), "{e}");
    }

    /// Each field is read as its own type: a loop count past `u32::MAX`
    /// is an error, not a count truncated to 1.
    #[test]
    fn fields_are_read_as_their_own_type() {
        let e = TestProgram::parse("nprocs = 2\nloop count=4294967297\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("4294967297"), "{e}");
        let p = TestProgram::parse("nprocs = 2\nloop count=4294967295\nend\n").unwrap();
        assert_eq!(
            p.items,
            [Item::Loop {
                count: u32::MAX,
                body: vec![]
            }]
        );
    }

    #[test]
    fn annotated_form_parses_back() {
        let p = sample();
        let model = p.to_model();
        let parsed = pevpm::parse_annotations(&p.to_annotated()).unwrap();
        assert_eq!(parsed.num_stmts(), model.num_stmts());
    }

    /// Every collective crosses both text forms by name: this crate writes
    /// the names and pevpm's annotation parser reads them back.
    #[test]
    fn every_collective_survives_both_text_forms() {
        for op in CollOp::ALL {
            let p = TestProgram {
                nprocs: 2,
                items: vec![Item::Coll { op, bytes: 64 }],
            };
            assert_eq!(TestProgram::parse(&p.to_text()).unwrap(), p);
            let parsed = pevpm::parse_annotations(&p.to_annotated()).unwrap();
            assert!(
                matches!(parsed.stmts[..], [Stmt::Collective { op: o, .. }] if o == op),
                "{op:?}: {:?}",
                parsed.stmts
            );
        }
    }

    #[test]
    fn directives_counts_lowered_statements() {
        let p = TestProgram {
            nprocs: 2,
            items: vec![Item::Pair {
                src: 0,
                dst: 1,
                bytes: 64,
                mode: PairMode::Blocking,
            }],
        };
        // Runon + Send + Recv.
        assert_eq!(p.directives(), 3);
    }

    #[test]
    fn scaling_only_touches_sizes() {
        let p = sample();
        let s = p.scaled_sizes(2);
        assert_eq!(s.nprocs, p.nprocs);
        match (&p.items[1], &s.items[1]) {
            (Item::Pair { bytes: a, .. }, Item::Pair { bytes: b, .. }) => {
                assert_eq!(*b, 2 * *a);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
