//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is (name, layer, start, end, parent, op id). Spans are recorded
//! by one thread, kept in memory, and written at exit as a Chrome trace
//! through [`pevpm_obs::ChromeTrace`] plus a per-layer self-time table:
//! a span's self time is its duration minus the part of that interval
//! its children cover. With the recorder disabled, [`Recorder::span`] is
//! a plain call — the untraced and traced runs execute the same code.

use pevpm_obs::{chrome, ChromeTrace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer name for time spent in the benchmark's own code.
pub const HARNESS: &str = "harness";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// What was called, e.g. `pevpm::monte_carlo`.
    pub name: String,
    /// The crate the call went into (or [`HARNESS`]).
    pub layer: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder; a disabled one records nothing and costs one branch
    /// per span.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span. `f` receives the recorder so it can open
    /// child spans.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Rename the most recently opened span and move it to another layer
    /// — for calls whose layer is only known from their result (a cache
    /// miss is the parser's time, a hit the cache's).
    pub fn relabel_last(&mut self, name: &str, layer: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name.to_string();
            s.layer = layer;
        }
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of
/// its children's intervals clipped to its own. Overlapping children are
/// counted once; a child that sticks out of its parent only subtracts
/// the part inside.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_secs(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer).or_default() += ns as f64 / 1e9;
    }
    by_layer
}

/// Total duration of the root spans (those without a parent), seconds.
pub fn root_secs(spans: &[SpanRec]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Per span name: count, total seconds, self seconds — the rows of the
/// self-time table, sorted by name.
pub fn name_table(spans: &[SpanRec]) -> BTreeMap<String, (&'static str, u64, f64, f64)> {
    let mut rows: BTreeMap<String, (&'static str, u64, f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let row = rows.entry(s.name.clone()).or_insert((s.layer, 0, 0.0, 0.0));
        row.1 += 1;
        row.2 += s.dur_ns() as f64 / 1e9;
        row.3 += self_ns as f64 / 1e9;
    }
    rows
}

/// Render the self-time table as text.
pub fn render_table(spans: &[SpanRec]) -> String {
    let total = root_secs(spans).max(1e-12);
    let mut out = format!(
        "{:<44} {:<10} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "layer", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (layer, count, tot, own)) in name_table(spans) {
        out.push_str(&format!(
            "{name:<44} {layer:<10} {count:>8} {:>12.3} {:>12.3} {:>7.2}\n",
            tot * 1e3,
            own * 1e3,
            100.0 * own / total
        ));
    }
    out.push_str("-- self time by layer --\n");
    for (layer, secs) in layer_self_secs(spans) {
        out.push_str(&format!(
            "{layer:<55} {:>12.3} ms {:>7.2}%\n",
            secs * 1e3,
            100.0 * secs / total
        ));
    }
    out
}

/// Export spans as a Chrome `trace_event` document (one process, one
/// thread; category = layer; args carry op id and parent index).
pub fn chrome_trace(spans: &[SpanRec], process: &str) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_process(1, process);
    trace.name_thread(1, 0, "harness caller");
    for s in spans {
        let mut args = vec![("op".to_string(), s.op.to_string())];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), p.to_string()));
        }
        trace.push(chrome::Span {
            pid: 1,
            tid: 0,
            name: s.name.clone(),
            cat: s.layer.to_string(),
            ts_us: s.start_ns as f64 / 1e3,
            dur_us: s.dur_ns() as f64 / 1e3,
            args,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &str,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_from_each_level() {
        // op 0..100 { a 10..60 { b 20..40 }, c 70..90 }
        let spans = vec![
            rec("op", HARNESS, 0, 100, None),
            rec("a", "pevpm", 10, 60, Some(0)),
            rec("b", "dist", 20, 40, Some(1)),
            rec("c", "serve", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 20, 20]);
        let layers = layer_self_secs(&spans);
        let sum: f64 = layers.values().sum();
        assert!((sum - root_secs(&spans)).abs() < 1e-15);
        assert!((layers["pevpm"] - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..50 and 30..70 overlap by 20; a third sticks out
        // of the parent (90..130 clipped to 90..100).
        let spans = vec![
            rec("op", HARNESS, 0, 100, None),
            rec("x", "mpisim", 10, 50, Some(0)),
            rec("y", "mpisim", 30, 70, Some(0)),
            rec("z", "netsim", 90, 130, Some(0)),
        ];
        // covered = 10..70 (60) + 90..100 (10) = 70
        assert_eq!(self_times_ns(&spans)[0], 30);
        // A child fully inside an earlier sibling adds nothing.
        let spans = vec![
            rec("op", HARNESS, 0, 100, None),
            rec("x", "mpisim", 10, 80, Some(0)),
            rec("y", "mpisim", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        r.set_op(7);
        let v = r.span("op", HARNESS, |r| r.span("inner", "dist", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].op, 7);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(
            off.span("op", HARNESS, |r| r.span("inner", "dist", |_| 5)),
            5
        );
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_validates() {
        let spans = vec![
            rec("op", HARNESS, 0, 1000, None),
            rec("a", "pevpm", 100, 600, Some(0)),
        ];
        let doc = chrome_trace(&spans, "test").to_json();
        assert_eq!(pevpm_obs::chrome::validate(&doc), Ok(2));
    }
}
