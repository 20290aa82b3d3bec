//! Request-lifecycle spans: a bounded ring of per-request stage records.
//!
//! The prediction daemon (and the one-shot CLI) break a request into a
//! fixed sequence of stages — validate, model parse, table compile,
//! evaluation, render — and record one [`RequestSpan`] per request into a
//! [`SpanRing`]. The ring is the raw material behind three views:
//!
//! - the daemon's `/spans?last=N` HTTP endpoint (JSON via
//!   [`render_spans`]);
//! - span-derived stage percentiles in the `stats` protocol op (via
//!   [`percentile`]);
//! - a pid-4 "service stages" Chrome-trace track ([`chrome_service_track`])
//!   merged into `predict --trace-out`, so the PR-2 trace shows where
//!   wall-time went *around* the VM, not just inside it.
//!
//! Spans are observational only: nothing in a span feeds back into
//! evaluation, so enabling the ring cannot change a prediction. Wall-clock
//! readings use the caller's monotonic epoch (`start_us` offsets), with
//! one wall-clock anchor (`start_unix_us`) per span for log correlation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::chrome::{ChromeTrace, Span};
use crate::json::{escape, num};

/// Conventional Chrome-trace pid for the service-stage track (pids 1–3
/// are the predicted, measured and fault-mark tracks).
pub const PID_SERVICE: u32 = 4;

/// One timed stage inside a request: a name plus its window relative to
/// the request's own start.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`validate`, `model`, `compile`, `eval`, `render`, ...).
    pub name: &'static str,
    /// Stage start, microseconds after the request started.
    pub start_us: f64,
    /// Stage duration in microseconds.
    pub dur_us: f64,
}

/// The lifecycle record of one request: identity, timing, stage
/// breakdown, cache outcomes, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// Monotonically-assigned request id (1-based, process-wide).
    pub id: u64,
    /// Operation: `predict`, `batch`, `batch-item`, `stats`, `ping`, ...
    pub op: &'static str,
    /// Wall-clock request start (microseconds since the Unix epoch), for
    /// log correlation only — durations come from the monotonic clock.
    pub start_unix_us: u64,
    /// Monotonic request start, microseconds after the telemetry epoch.
    pub start_us: f64,
    /// Total request duration in microseconds.
    pub total_us: f64,
    /// Timed stages in execution order. A failed request records only
    /// the stages it reached.
    pub stages: Vec<StageTiming>,
    /// How the request ended: `ok`, or an error class
    /// (`usage`/`input`/`budget`/`panic`).
    pub outcome: &'static str,
    /// Per-cache lookup outcomes as `(cache, hit)`, e.g. `("model", true)`.
    pub caches: Vec<(&'static str, bool)>,
    /// Monte-Carlo replications requested (0 when not a prediction).
    pub reps: usize,
    /// Replication failures absorbed by a quorum (or failed batch items
    /// for a `batch` frame span).
    pub replica_failures: usize,
    /// Whether the request ran under a k-of-n quorum.
    pub quorum: bool,
    /// Replications adaptive stopping saved relative to the request's
    /// ceiling; `None` for fixed-reps requests.
    pub reps_saved: Option<usize>,
    /// Whether a panic was caught at the request boundary.
    pub panicked: bool,
    /// Rendered response payload size in bytes.
    pub response_bytes: usize,
}

impl RequestSpan {
    /// An empty span for `op` with identity and start times filled in.
    pub fn new(id: u64, op: &'static str, start_unix_us: u64, start_us: f64) -> Self {
        RequestSpan {
            id,
            op,
            start_unix_us,
            start_us,
            total_us: 0.0,
            stages: Vec::new(),
            outcome: "ok",
            caches: Vec::new(),
            reps: 0,
            replica_failures: 0,
            quorum: false,
            reps_saved: None,
            panicked: false,
            response_bytes: 0,
        }
    }

    /// Sum of the recorded stage durations in microseconds. At most
    /// `total_us` plus inter-stage bookkeeping; the gap between the two
    /// is time spent outside any named stage.
    pub fn stage_sum_us(&self) -> f64 {
        self.stages.iter().map(|s| s.dur_us).sum()
    }
}

struct RingInner {
    spans: VecDeque<RequestSpan>,
    recorded: u64,
}

/// A bounded, thread-safe ring of the most recent [`RequestSpan`]s.
///
/// Also the request-id allocator: ids are assigned by an atomic counter
/// so they stay monotonic across threads even though completion order
/// (and therefore ring order) is not.
pub struct SpanRing {
    cap: usize,
    next_id: AtomicU64,
    inner: Mutex<RingInner>,
}

impl SpanRing {
    /// A ring keeping at most `cap` spans (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        SpanRing {
            cap: cap.max(1),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(RingInner {
                spans: VecDeque::new(),
                recorded: 0,
            }),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Allocate the next request id (monotonic, starting at 1).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span, evicting the oldest when full.
    pub fn push(&self, span: RequestSpan) {
        if let Ok(mut inner) = self.inner.lock() {
            if inner.spans.len() >= self.cap {
                inner.spans.pop_front();
            }
            inner.spans.push_back(span);
            inner.recorded += 1;
        }
    }

    /// The most recent `n` spans, oldest first.
    pub fn last(&self, n: usize) -> Vec<RequestSpan> {
        match self.inner.lock() {
            Ok(inner) => {
                let skip = inner.spans.len().saturating_sub(n);
                inner.spans.iter().skip(skip).cloned().collect()
            }
            Err(_) => Vec::new(),
        }
    }

    /// Spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().map(|i| i.spans.len()).unwrap_or(0)
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().map(|i| i.recorded).unwrap_or(0)
    }
}

/// Render one span as a deterministic single-line JSON object.
pub fn span_json(s: &RequestSpan) -> String {
    let mut out = format!(
        "{{\"id\":{},\"op\":\"{}\",\"start\":\"{}\",\"start_us\":{},\"total_us\":{},\
         \"outcome\":\"{}\"",
        s.id,
        escape(s.op),
        rfc3339_utc_us(s.start_unix_us),
        num(s.start_us),
        num(s.total_us),
        escape(s.outcome),
    );
    out.push_str(",\"stages\":[");
    for (i, st) in s.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            escape(st.name),
            num(st.start_us),
            num(st.dur_us)
        ));
    }
    out.push_str("],\"caches\":{");
    for (i, (name, hit)) in s.caches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":\"{}\"",
            escape(name),
            if *hit { "hit" } else { "miss" }
        ));
    }
    out.push_str(&format!(
        "}},\"reps\":{},\"replica_failures\":{},\"quorum\":{},\"panicked\":{}",
        s.reps, s.replica_failures, s.quorum, s.panicked
    ));
    if let Some(saved) = s.reps_saved {
        out.push_str(&format!(",\"reps_saved\":{saved}"));
    }
    out.push_str(&format!(",\"response_bytes\":{}}}", s.response_bytes));
    out
}

/// Render a slice of spans as a JSON array (oldest first, one object per
/// span).
pub fn render_spans(spans: &[RequestSpan]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&span_json(s));
    }
    out.push(']');
    out
}

/// Build the pid-4 "service stages" Chrome-trace track for one span: one
/// slice per stage plus an enclosing request slice, all on tid 0,
/// timestamped relative to the request's start so the track lines up
/// with the VM's virtual timeline at t = 0.
pub fn chrome_service_track(span: &RequestSpan) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_process(PID_SERVICE, "service stages");
    trace.name_thread(PID_SERVICE, 0, span.op);
    trace.push(Span {
        pid: PID_SERVICE,
        tid: 0,
        name: format!("request #{}", span.id),
        cat: "service".to_string(),
        ts_us: 0.0,
        dur_us: span.total_us,
        args: vec![
            ("op".to_string(), span.op.to_string()),
            ("outcome".to_string(), span.outcome.to_string()),
            ("reps".to_string(), span.reps.to_string()),
        ],
    });
    for st in &span.stages {
        trace.push(Span {
            pid: PID_SERVICE,
            tid: 0,
            name: st.name.to_string(),
            cat: "service".to_string(),
            ts_us: st.start_us,
            dur_us: st.dur_us,
            args: Vec::new(),
        });
    }
    trace
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); `None` when
/// empty. Sorts a copy — intended for small span windows, not hot paths.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Format a microseconds-since-Unix-epoch timestamp as RFC 3339 UTC with
/// second precision (`2026-08-07T12:34:56Z`). Dependency-free civil-date
/// arithmetic (Howard Hinnant's `civil_from_days`).
pub fn rfc3339_utc_us(unix_us: u64) -> String {
    let unix_secs = unix_us / 1_000_000;
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> RequestSpan {
        let mut s = RequestSpan::new(id, "predict", 1_754_569_200_000_000, 10.0);
        s.total_us = 120.0;
        s.stages.push(StageTiming {
            name: "validate",
            start_us: 0.0,
            dur_us: 20.0,
        });
        s.stages.push(StageTiming {
            name: "eval",
            start_us: 20.0,
            dur_us: 90.0,
        });
        s.caches.push(("model", true));
        s.reps = 8;
        s.response_bytes = 512;
        s
    }

    #[test]
    fn ring_is_bounded_and_ids_are_monotonic() {
        let ring = SpanRing::new(3);
        assert_eq!(ring.capacity(), 3);
        let ids: Vec<u64> = (0..5).map(|_| ring.next_id()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        for id in ids {
            ring.push(span(id));
        }
        assert_eq!(ring.len(), 3, "ring keeps only the newest cap spans");
        assert_eq!(ring.recorded(), 5, "recorded counts evicted spans too");
        let last = ring.last(2);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].id, 4, "oldest first");
        assert_eq!(last[1].id, 5);
        assert_eq!(ring.last(99).len(), 3, "over-asking returns what exists");
    }

    #[test]
    fn ring_ids_stay_unique_under_contention() {
        let ring = std::sync::Arc::new(SpanRing::new(64));
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ring = std::sync::Arc::clone(&ring);
                    s.spawn(move || (0..100).map(|_| ring.next_id()).collect::<Vec<u64>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "no id issued twice");
    }

    #[test]
    fn span_json_parses_and_round_trips_fields() {
        let js = span_json(&span(7));
        let v = crate::json::parse(&js).expect("span JSON parses");
        assert_eq!(v.get("id").and_then(crate::json::Json::as_num), Some(7.0));
        assert_eq!(
            v.get("op").and_then(crate::json::Json::as_str),
            Some("predict")
        );
        assert_eq!(
            v.get("caches")
                .and_then(|c| c.get("model"))
                .and_then(crate::json::Json::as_str),
            Some("hit")
        );
        let arr = render_spans(&[span(1), span(2)]);
        let parsed = crate::json::parse(&arr).expect("span array parses");
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(2));
    }

    #[test]
    fn span_json_bytes_are_pinned() {
        // What the request log writes and `/spans` serves, byte for byte.
        let plain = "{\"id\":7,\"op\":\"predict\",\"start\":\"2025-08-07T12:20:00Z\",\
            \"start_us\":10,\"total_us\":120,\"outcome\":\"ok\",\"stages\":[\
            {\"name\":\"validate\",\"start_us\":0,\"dur_us\":20},\
            {\"name\":\"eval\",\"start_us\":20,\"dur_us\":90}],\
            \"caches\":{\"model\":\"hit\"},\"reps\":8,\"replica_failures\":0,\
            \"quorum\":false,\"panicked\":false,\"response_bytes\":512}";
        assert_eq!(span_json(&span(7)), plain);
        let mut odd = RequestSpan::new(9, "batch-item", 1_609_459_199_999_999, 12.25);
        odd.total_us = 1234.5;
        odd.outcome = "budget";
        odd.caches = vec![("model", false), ("table", true)];
        odd.reps = 16;
        odd.replica_failures = 2;
        odd.quorum = true;
        odd.reps_saved = Some(3);
        odd.panicked = true;
        let odd_json = "{\"id\":9,\"op\":\"batch-item\",\"start\":\"2020-12-31T23:59:59Z\",\
            \"start_us\":12.25,\"total_us\":1234.5,\"outcome\":\"budget\",\"stages\":[],\
            \"caches\":{\"model\":\"miss\",\"table\":\"hit\"},\"reps\":16,\
            \"replica_failures\":2,\"quorum\":true,\"panicked\":true,\"reps_saved\":3,\
            \"response_bytes\":0}";
        assert_eq!(span_json(&odd), odd_json);
        assert_eq!(
            render_spans(&[span(7), odd]),
            format!("[{plain},{odd_json}]")
        );
    }

    #[test]
    fn chrome_track_uses_pid_4_and_covers_every_stage() {
        let trace = chrome_service_track(&span(3));
        // One enclosing request slice + one per stage.
        assert_eq!(trace.len(), 3);
        assert!(trace.spans().iter().all(|s| s.pid == PID_SERVICE));
        assert_eq!(trace.spans()[0].dur_us, 120.0);
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"validate") && names.contains(&"eval"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[42.0], 0.99), Some(42.0));
    }

    #[test]
    fn rfc3339_matches_known_instants() {
        assert_eq!(rfc3339_utc_us(0), "1970-01-01T00:00:00Z");
        // date -u -d @951782400 → 2000-02-29 00:00:00 (leap day).
        assert_eq!(rfc3339_utc_us(951_782_400_000_000), "2000-02-29T00:00:00Z");
        // date -u -d @1754569200 → 2025-08-07 12:20:00.
        assert_eq!(
            rfc3339_utc_us(1_754_569_200_000_000),
            "2025-08-07T12:20:00Z"
        );
        assert_eq!(
            rfc3339_utc_us(1_609_459_199_999_999),
            "2020-12-31T23:59:59Z"
        );
    }

    #[test]
    fn stage_sum_is_the_stage_total() {
        assert_eq!(span(1).stage_sum_us(), 110.0);
    }
}
