//! Compact text serialisation of benchmark databases (`.dist` files).
//!
//! MPIBench runs are expensive (a full Figure-1 sweep simulates millions of
//! frames), so benchmark results are persisted and reloaded by PEVPM and the
//! figure-regeneration benches. The format is line-oriented, versioned and
//! human-inspectable:
//!
//! ```text
//! PEVPM-DIST v1
//! entry op=isend size=1024 contention=32
//! hist origin=0.000132 width=0.000001
//! summary count=1000 mean=2.1e-4 m2=3e-9 min=1.3e-4 max=9e-4 sum=0.21
//! counts 0 0 17 131 ...
//! entry op=barrier size=0 contention=64
//! point value=0.00042
//! entry op=send size=65536 contention=1
//! fit kind=gamma shift=0.005 p1=2.0 p2=0.001
//! ```
//!
//! An entry's `op` is one of the eight [`Op`] names: `send`, `isend`,
//! `recv`, `barrier`, `bcast`, `reduce`, `allreduce` and `alltoall`.
//!
//! Counts use run-length encoding `NxV` for runs of equal values, because
//! contention histograms are mostly zeros between the main mass and the RTO
//! outlier bins (200 ms away at microsecond bin widths). A `counts` line
//! decodes to at most [`MAX_BINS`] bins. Lines are read by
//! [`pevpm_obs::text`], so blank and `#` lines may appear anywhere.

use crate::fit::{FitKind, ParametricFit};
use crate::histogram::{Histogram, MAX_BINS};
use crate::summary::Summary;
use crate::table::{CommDist, DistKey, DistTable, Op};
use pevpm_obs::text::{self, Line, LineError, Lines, Record};
use std::fmt::Write as _;

/// Serialise a table to the `.dist` text format.
pub fn write_table(table: &DistTable) -> String {
    let mut out = String::from("PEVPM-DIST v1\n");
    for (key, dist) in table.iter() {
        let _ = writeln!(
            out,
            "entry op={} size={} contention={}",
            key.op, key.size, key.contention
        );
        match dist {
            CommDist::Hist(h) => {
                let _ = writeln!(
                    out,
                    "hist origin={:e} width={:e}",
                    h.origin(),
                    h.bin_width()
                );
                let (count, mean, m2, min, max, sum) = h.summary().to_parts();
                let _ = writeln!(
                    out,
                    "summary count={count} mean={mean:e} m2={m2:e} min={min:e} max={max:e} sum={sum:e}"
                );
                out.push_str("counts");
                for (value, run) in run_length(h.counts()) {
                    if run == 1 {
                        let _ = write!(out, " {value}");
                    } else {
                        let _ = write!(out, " {run}x{value}");
                    }
                }
                out.push('\n');
            }
            CommDist::Fit(f) => {
                let kind = match f.kind {
                    FitKind::ShiftedExponential => "exp",
                    FitKind::ShiftedLogNormal => "lognormal",
                    FitKind::ShiftedGamma => "gamma",
                };
                let _ = writeln!(
                    out,
                    "fit kind={kind} shift={:e} p1={:e} p2={:e}",
                    f.shift, f.p1, f.p2
                );
            }
            CommDist::Point(v) => {
                let _ = writeln!(out, "point value={v:e}");
            }
        }
    }
    out
}

/// Parse a `.dist` text document back into a table.
pub fn read_table(text: &str) -> Result<DistTable, LineError> {
    let mut lines = text::lines(text);
    let header = lines
        .next()
        .ok_or_else(|| LineError::new(1, "empty document"))?;
    if header.text != "PEVPM-DIST v1" {
        return Err(header.err(format!("bad header {:?}", header.text)));
    }
    let mut table = DistTable::new();
    while let Some(line) = lines.next() {
        let (tag, _) = line.tag();
        if tag != "entry" {
            return Err(line.err(format!("expected 'entry', got {tag:?}")));
        }
        let entry = line.record()?;
        let op_name = entry.str("op")?;
        let op =
            Op::from_name(op_name).ok_or_else(|| line.err(format!("unknown op {op_name:?}")))?;
        let key = DistKey {
            op,
            size: entry.parse("size")?,
            contention: entry.parse("contention")?,
        };
        let body = next_line(&mut lines, line, "entry missing body")?.record()?;
        let dist = match body.tag {
            "point" => CommDist::Point(body.parse("value")?),
            "fit" => {
                let kind = match body.str("kind")? {
                    "exp" => FitKind::ShiftedExponential,
                    "lognormal" => FitKind::ShiftedLogNormal,
                    "gamma" => FitKind::ShiftedGamma,
                    other => return Err(body.line.err(format!("unknown fit kind {other:?}"))),
                };
                CommDist::Fit(ParametricFit {
                    kind,
                    shift: body.parse("shift")?,
                    p1: body.parse("p1")?,
                    p2: body.parse("p2")?,
                })
            }
            "hist" => CommDist::Hist(read_hist(&body, &mut lines, &key)?),
            other => return Err(body.line.err(format!("unknown body tag {other:?}"))),
        };
        table.insert(key, dist);
    }
    Ok(table)
}

/// The line after `prev`, which must exist.
fn next_line<'a>(
    lines: &mut Lines<'a>,
    prev: Line<'a>,
    missing: &str,
) -> Result<Line<'a>, LineError> {
    lines.next().ok_or_else(|| prev.err(missing))
}

/// The `summary` and `counts` lines under a `hist` line. Everything
/// [`Histogram::from_parts`] would panic on is a line error here, and the
/// counts decode to at most [`MAX_BINS`] bins, the most a histogram ever
/// allocates, so a run length cannot exhaust memory.
fn read_hist<'a>(
    hist: &Record<'a>,
    lines: &mut Lines<'a>,
    key: &DistKey,
) -> Result<Histogram, LineError> {
    let origin: f64 = hist.parse("origin")?;
    let width: f64 = hist.parse("width")?;
    if !origin.is_finite() {
        return Err(hist.line.err(format!("origin {origin} is not finite")));
    }
    if !(width.is_finite() && width > 0.0) {
        return Err(hist
            .line
            .err(format!("width {width} must be positive and finite")));
    }

    let sline = next_line(lines, hist.line, "hist missing summary line")?;
    if sline.tag().0 != "summary" {
        return Err(sline.err("expected 'summary' line"));
    }
    let s = sline.record()?;
    let summary = Summary::from_parts(
        s.parse("count")?,
        s.parse("mean")?,
        s.parse("m2")?,
        s.parse("min")?,
        s.parse("max")?,
        s.parse("sum")?,
    );

    let cline = next_line(lines, sline, "hist missing counts line")?;
    let (tag, tokens) = cline.tag();
    if tag != "counts" {
        return Err(cline.err("expected 'counts' line"));
    }
    let mut counts: Vec<u64> = Vec::new();
    let mut total = 0u64;
    for tok in tokens.split_whitespace() {
        let (run, value): (usize, u64) = match tok.split_once('x') {
            Some((run, value)) => (cline.parse("run", run)?, cline.parse("count", value)?),
            None => (1, cline.parse("count", tok)?),
        };
        if run > MAX_BINS - counts.len() {
            return Err(cline.err(format!("counts decode to more than {MAX_BINS} bins")));
        }
        total = value
            .checked_mul(run as u64)
            .and_then(|n| total.checked_add(n))
            .ok_or_else(|| cline.err("counts sum past u64::MAX"))?;
        counts.extend(std::iter::repeat_n(value, run));
    }
    if total == 0 {
        return Err(cline.err(format!(
            "empty histogram for op={} size={} contention={}: nothing to sample from",
            key.op, key.size, key.contention
        )));
    }
    Ok(Histogram::from_parts(origin, width, counts, summary))
}

/// Error loading a `.dist` file: always names the offending file, so a
/// CLI can print it verbatim without wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// Path of the file that failed to load.
    pub path: std::path::PathBuf,
    /// What went wrong (I/O error text or `line N: …` parse error).
    pub message: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LoadError {}

/// Save a table to a file.
pub fn save_table(table: &DistTable, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_table(table))
}

/// Load a table from a file. Errors name the file and, for parse
/// failures, the 1-based line number.
pub fn load_table(path: &std::path::Path) -> Result<DistTable, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    read_table(&text).map_err(|e| LoadError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

fn run_length(counts: &[u64]) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    for &c in counts {
        match out.last_mut() {
            Some((v, n)) if *v == c => *n += 1,
            _ => out.push((c, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> DistTable {
        let mut t = DistTable::new();
        let mut h = Histogram::new(1.0e-4, 1.0e-6);
        for i in 0..100 {
            h.add(1.0e-4 + (i % 13) as f64 * 3.0e-6);
        }
        h.add(0.2); // RTO outlier far away -> exercises run-length zeros
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 1024,
                contention: 32,
            },
            CommDist::Hist(h),
        );
        t.insert(
            DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 64,
            },
            CommDist::Point(4.2e-4),
        );
        t.insert(
            DistKey {
                op: Op::Send,
                size: 65536,
                contention: 1,
            },
            CommDist::Fit(ParametricFit {
                kind: FitKind::ShiftedGamma,
                shift: 5.0e-3,
                p1: 2.0,
                p2: 1.0e-3,
            }),
        );
        t
    }

    #[test]
    fn roundtrip_preserves_table() {
        let t = sample_table();
        let text = write_table(&t);
        let back = read_table(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_twice_is_stable() {
        let t = sample_table();
        let a = write_table(&t);
        let b = write_table(&read_table(&a).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn run_length_encoding_compresses_outlier_gap() {
        let t = sample_table();
        let text = write_table(&t);
        // The gap between ~100 µs mass and the 0.2 s outlier spans ~200k bins;
        // RLE must keep the document small.
        assert!(
            text.len() < 20_000,
            "document unexpectedly large: {}",
            text.len()
        );
        assert!(text.contains('x'), "expected run-length tokens");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_table("NOPE v9\n").is_err());
        assert!(read_table("").is_err());
    }

    #[test]
    fn rejects_unknown_op() {
        // Nothing measures gather, scatter or allgather, so no table may
        // name them.
        for op in ["warp", "gather", "scatter", "allgather"] {
            let doc = format!("PEVPM-DIST v1\nentry op={op} size=1 contention=1\npoint value=1\n");
            let e = read_table(&doc).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert_eq!(e.message, format!("unknown op {op:?}"));
        }
    }

    #[test]
    fn rejects_missing_fields() {
        let doc = "PEVPM-DIST v1\nentry op=send contention=1\npoint value=1\n";
        let e = read_table(doc).unwrap_err();
        assert!(e.message.contains("size"), "{e}");
    }

    #[test]
    fn rejects_truncated_hist() {
        let doc = "PEVPM-DIST v1\nentry op=send size=8 contention=1\nhist origin=0 width=1e-6\n";
        assert!(read_table(doc).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        // Between records and inside one: an entry and its body may be
        // separated like any other two lines.
        let doc = "PEVPM-DIST v1\n\n# comment\nentry op=send size=8 contention=1\n\n# body\npoint value=2\n";
        let t = read_table(doc).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(&DistKey {
                op: Op::Send,
                size: 8,
                contention: 1
            }),
            Some(&CommDist::Point(2.0))
        );
    }

    /// Values `Histogram::from_parts` would panic on, and counts that
    /// would exhaust memory, are errors on the line that carries them.
    #[test]
    fn malformed_values_are_line_errors() {
        let hist = |h: &str, counts: &str| {
            format!(
                "PEVPM-DIST v1\nentry op=send size=8 contention=1\n{h}\n\
                 summary count=1 mean=0 m2=0 min=0 max=0 sum=0\ncounts {counts}\n"
            )
        };
        for (doc, line, needle) in [
            (
                hist("hist origin=0 width=0", "1"),
                3,
                "width 0 must be positive",
            ),
            (hist("hist origin=0 width=-1e-6", "1"), 3, "width -0.000001"),
            (hist("hist origin=0 width=inf", "1"), 3, "width inf"),
            (
                hist("hist origin=nan width=1e-6", "1"),
                3,
                "origin NaN is not finite",
            ),
            (
                hist("hist origin=0 width=1e-6", "18446744073709551615x0"),
                5,
                "more than 4000000 bins",
            ),
            (
                hist("hist origin=0 width=1e-6", "4000000000x0"),
                5,
                "more than 4000000 bins",
            ),
            (
                hist("hist origin=0 width=1e-6", "3999999x0 2x1"),
                5,
                "more than 4000000 bins",
            ),
            (
                hist("hist origin=0 width=1e-6", "2x9223372036854775808"),
                5,
                "past u64::MAX",
            ),
            (hist("hist origin=0 width=1e-6", "1x"), 5, "`count` = \"\""),
        ] {
            let e = read_table(&doc).unwrap_err();
            assert_eq!(e.line, line, "{doc}: {e}");
            assert!(e.message.contains(needle), "{doc}: {e}");
        }
        // The cap itself still decodes.
        let t = read_table(&hist("hist origin=0 width=1e-6", "3999999x0 1x1")).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("pevpm_dist_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.dist");
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_histogram() {
        let doc = "PEVPM-DIST v1\n\
                   entry op=send size=8 contention=1\n\
                   hist origin=0 width=1e-6\n\
                   summary count=0 mean=0 m2=0 min=0 max=0 sum=0\n\
                   counts\n";
        let e = read_table(doc).unwrap_err();
        assert!(e.message.contains("empty histogram"), "{e}");
    }

    #[test]
    fn load_errors_name_the_file() {
        let missing = std::path::Path::new("/no/such/dir/table.dist");
        let e = load_table(missing).unwrap_err();
        assert!(e.to_string().contains("table.dist"), "{e}");

        let dir = std::env::temp_dir().join("pevpm_dist_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.dist");
        std::fs::write(&path, "PEVPM-DIST v1\nentry op=warp size=1 contention=1\n").unwrap();
        let e = load_table(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("corrupt.dist"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_error_reports_line_numbers() {
        let doc = "PEVPM-DIST v1\nentry op=send size=8 contention=1\npoint value=abc\n";
        let e = read_table(doc).unwrap_err();
        assert_eq!(e.line, 3);
    }

    /// A non-UTF8 file (binary garbage handed to `--table`) must fail
    /// with the file name and the encoding problem, not a line number —
    /// there are no lines to blame before decoding succeeds.
    #[test]
    fn non_utf8_files_report_encoding_not_a_line() {
        let dir = std::env::temp_dir().join("pevpm_dist_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("binary.dist");
        std::fs::write(&path, [0x50u8, 0x45, 0x56, 0xff, 0xfe, 0x00, 0x80]).unwrap();
        let e = load_table(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("binary.dist"), "{text}");
        assert!(
            text.to_lowercase().contains("utf-8") || text.to_lowercase().contains("utf8"),
            "{text}"
        );
        assert!(!text.contains("line "), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
