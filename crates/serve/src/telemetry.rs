//! Request-lifecycle telemetry for the daemon: spans, stage histograms,
//! structured request logs, and the HTTP observability sidecar.
//!
//! Every request the daemon touches gets a monotonically-assigned id and
//! a [`pevpm_obs::RequestSpan`] recording its stage breakdown (validate →
//! model → compile → eval → render), cache outcomes, replication shape
//! and exit class. Spans land in a bounded [`SpanRing`]; prediction
//! requests additionally record per-stage and total latency histograms in
//! the server's [`Registry`]. Everything here is observational: spans and
//! metrics are derived *from* request handling and never feed back into
//! it, so enabling telemetry cannot change a response byte.
//!
//! Three consumers sit on top:
//!
//! - the **HTTP sidecar** ([`HttpServer`]) — a hand-rolled `GET` handler
//!   over `std::net::TcpListener` (no new dependencies) serving
//!   `/metrics` (Prometheus text exposition), `/healthz` and
//!   `/spans?last=N`;
//! - the **structured request log** — one JSON line per finished request
//!   to stderr or `--log-out FILE`, gated by `--log-slow-ms` so only slow
//!   requests log under load;
//! - the **`stats` op** — span-derived p50/p95/p99 per stage plus
//!   monotonic uptime and the RFC 3339 start time, spliced into the
//!   registry dump.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use pevpm_obs::json::{escape, num};
use pevpm_obs::span::{percentile, render_spans, rfc3339_utc_us, span_json};
use pevpm_obs::{diag, Counter, FixedHistogram, Registry, RequestSpan, SpanRing, StageTiming};

/// The named stages of a prediction request, in execution order. Every
/// successful prediction records exactly one timing per stage, so each
/// stage histogram's `_count` equals the number of predictions served.
pub const STAGES: &[&str] = &["validate", "model", "compile", "eval", "render"];

/// Default capacity of the span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Histogram binning for stage and request latencies: 50 linear bins over
/// `[0, 250)` ms (values clamp, so counts are exact regardless).
const LATENCY_MS_BINS: (f64, f64, usize) = (0.0, 250.0, 50);

/// Histogram binning for the adaptive reps-chosen distribution
/// (`serve.reps.chosen`): one bin per replication up to 128 (values
/// clamp, so counts stay exact for larger ceilings).
pub const REPS_CHOSEN_BINS: (f64, f64, usize) = (0.0, 128.0, 128);

enum LogSink {
    Stderr,
    File(File),
}

/// The daemon's telemetry hub: the span ring, the latency histograms, the
/// structured log sink, and the monotonic/wall-clock start anchors.
pub struct Telemetry {
    registry: Arc<Registry>,
    handles: Arc<TelemetryHandles>,
    ring: SpanRing,
    epoch: Instant,
    started_unix_us: u64,
    log: Option<Mutex<LogSink>>,
    log_slow_ms: f64,
}

impl Telemetry {
    /// A telemetry hub recording into `registry` with a span ring of
    /// `span_capacity`. A structured request log is enabled when
    /// `log_out` (a file path) or `log_slow_ms` (a threshold in
    /// milliseconds; requests faster than it do not log) is given; with
    /// a threshold but no path, lines go to stderr.
    pub fn new(
        registry: Arc<Registry>,
        span_capacity: usize,
        log_out: Option<&Path>,
        log_slow_ms: Option<f64>,
    ) -> io::Result<Telemetry> {
        let log = match (log_out, log_slow_ms) {
            (Some(path), _) => Some(Mutex::new(LogSink::File(File::create(path)?))),
            (None, Some(_)) => Some(Mutex::new(LogSink::Stderr)),
            (None, None) => None,
        };
        Ok(Telemetry {
            handles: registry.handles(TelemetryHandles::resolve),
            registry,
            ring: SpanRing::new(span_capacity),
            epoch: Instant::now(),
            started_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                .unwrap_or(0),
            log,
            log_slow_ms: log_slow_ms.unwrap_or(0.0),
        })
    }

    /// A standalone hub for one-shot use (the CLI's `predict` stage
    /// timing): private registry, tiny ring, no log.
    pub fn standalone() -> Telemetry {
        #[allow(clippy::expect_used)] // no log sink configured: infallible
        Telemetry::new(Arc::new(Registry::new()), 8, None, None)
            .expect("standalone telemetry has no fallible sink")
    }

    /// The registry this hub records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The span ring.
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// Monotonic seconds since the hub was created.
    pub fn uptime_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The hub's wall-clock start time as RFC 3339 UTC.
    pub fn started_rfc3339(&self) -> String {
        rfc3339_utc_us(self.started_unix_us)
    }

    /// Begin timing a request. `metered` requests (predictions) record
    /// stage/total latency histograms and tick `serve.requests.total` at
    /// finish; non-metered ones (stats, ping, frame-level batch spans)
    /// only enter the ring and the log.
    pub fn begin(&self, op: &'static str, metered: bool) -> RequestTimer<'_> {
        let start = Instant::now();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let unix_us = self.started_unix_us.saturating_add(start_us as u64);
        let mut span = RequestSpan::new(self.ring.next_id(), op, unix_us, start_us);
        if metered {
            // A prediction times every stage and looks up both caches.
            span.stages.reserve_exact(STAGES.len());
            span.caches.reserve_exact(2);
        }
        RequestTimer {
            telemetry: self,
            span,
            t0: start,
            metered,
        }
    }

    fn finish(&self, span: RequestSpan, metered: bool) {
        if metered {
            let handles = &self.handles;
            handles.requests_total.inc();
            handles.request_ms.record(span.total_us / 1e3);
            for st in &span.stages {
                match STAGES.iter().position(|s| *s == st.name) {
                    Some(i) => handles.stages[i].record(st.dur_us / 1e3),
                    None => {
                        latency_histogram(&self.registry, &format!("serve.stage.{}_ms", st.name))
                            .record(st.dur_us / 1e3)
                    }
                }
            }
        }
        self.log_span(&span);
        self.ring.push(span);
    }

    fn log_span(&self, span: &RequestSpan) {
        let Some(sink) = &self.log else {
            return;
        };
        if span.total_us / 1e3 < self.log_slow_ms {
            return;
        }
        let line = span_json(span);
        if let Ok(mut sink) = sink.lock() {
            let result = match &mut *sink {
                LogSink::Stderr => writeln!(io::stderr().lock(), "{line}"),
                LogSink::File(f) => writeln!(f, "{line}"),
            };
            if let Err(e) = result {
                diag::warn(&format!("request log write failed: {e}"));
            }
        }
    }

    /// The `stats` result document: the registry dump with `started`
    /// (RFC 3339), `uptime_secs` (monotonic) and span-derived per-stage
    /// `p50/p95/p99` percentiles spliced in.
    pub fn stats_json(&self) -> String {
        let base = self.registry.to_json();
        let trimmed = base.trim_end();
        let trimmed = trimmed.strip_suffix('}').unwrap_or(trimmed).trim_end();
        format!(
            "{trimmed},\n  \"started\": \"{}\",\n  \"uptime_secs\": {},\n  \"stages\": {}\n}}\n",
            self.started_rfc3339(),
            num(self.uptime_secs()),
            self.stage_percentiles_json()
        )
    }

    /// Per-stage `{"count", "p50_ms", "p95_ms", "p99_ms"}` derived from
    /// the spans currently in the ring, stage names sorted.
    pub fn stage_percentiles_json(&self) -> String {
        let spans = self.ring.last(self.ring.capacity());
        let mut by_stage: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for span in &spans {
            for st in &span.stages {
                by_stage.entry(st.name).or_default().push(st.dur_us / 1e3);
            }
        }
        let mut out = String::from("{");
        for (i, (name, durs)) in by_stage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
                escape(name),
                durs.len(),
                num(percentile(durs, 0.50).unwrap_or(0.0)),
                num(percentile(durs, 0.95).unwrap_or(0.0)),
                num(percentile(durs, 0.99).unwrap_or(0.0)),
            ));
        }
        out.push('}');
        out
    }

    /// Flush the structured-log sink (used by graceful drain so the last
    /// request lines — including the drain span itself — hit disk before
    /// the process exits). Stderr is unbuffered; file sinks sync.
    pub fn flush(&self) {
        let Some(sink) = &self.log else {
            return;
        };
        if let Ok(mut sink) = sink.lock() {
            let result = match &mut *sink {
                LogSink::Stderr => io::stderr().lock().flush(),
                LogSink::File(f) => f.flush().and_then(|()| f.sync_all()),
            };
            if let Err(e) = result {
                diag::warn(&format!("request log flush failed: {e}"));
            }
        }
    }

    /// The `/healthz` JSON body.
    pub fn healthz_json(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"started\":\"{}\",\"uptime_secs\":{},\
             \"requests_total\":{},\"spans_recorded\":{}}}",
            self.started_rfc3339(),
            num(self.uptime_secs()),
            self.handles.requests_total.get(),
            self.ring.recorded()
        )
    }
}

/// The hub's metric handles, under fixed names only, resolved once per
/// registry ([`Registry::handles`]).
struct TelemetryHandles {
    requests_total: Arc<Counter>,
    request_ms: Arc<FixedHistogram>,
    /// The [`STAGES`] latency histograms, in order.
    stages: [Arc<FixedHistogram>; STAGES.len()],
}

impl TelemetryHandles {
    fn resolve(registry: &Registry) -> TelemetryHandles {
        TelemetryHandles {
            requests_total: registry.counter("serve.requests.total"),
            request_ms: latency_histogram(registry, "serve.request_ms"),
            stages: std::array::from_fn(|i| {
                latency_histogram(registry, &format!("serve.stage.{}_ms", STAGES[i]))
            }),
        }
    }
}

fn latency_histogram(registry: &Registry, name: &str) -> Arc<FixedHistogram> {
    let (lo, hi, nbins) = LATENCY_MS_BINS;
    registry.histogram(name, lo, hi, nbins)
}

/// An in-flight request timer: accumulates stage timings and span fields,
/// then records everything at [`RequestTimer::finish`].
pub struct RequestTimer<'a> {
    telemetry: &'a Telemetry,
    span: RequestSpan,
    t0: Instant,
    metered: bool,
}

impl RequestTimer<'_> {
    /// This request's monotonically-assigned id.
    pub fn id(&self) -> u64 {
        self.span.id
    }

    /// Run `f` as the named stage, recording its window relative to the
    /// request start. Each stage name should occur at most once per
    /// request so stage histogram counts stay interpretable.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let r = f();
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        self.span.stages.push(StageTiming {
            name,
            start_us,
            dur_us: end_us - start_us,
        });
        r
    }

    /// Record a cache lookup outcome (`cache` is e.g. `"model"`).
    pub fn cache(&mut self, cache: &'static str, hit: bool) {
        self.span.caches.push((cache, hit));
    }

    /// Record the replication count this request asked for.
    pub fn set_reps(&mut self, reps: usize) {
        self.span.reps = reps;
    }

    /// Record whether the request ran under a quorum.
    pub fn set_quorum(&mut self, quorum: bool) {
        self.span.quorum = quorum;
    }

    /// Record quorum-absorbed replication failures (or failed items for
    /// a batch frame span).
    pub fn set_replica_failures(&mut self, n: usize) {
        self.span.replica_failures = n;
    }

    /// Record how many replications adaptive stopping saved relative to
    /// the request's ceiling (`None` on the span means fixed-reps).
    pub fn set_reps_saved(&mut self, n: usize) {
        self.span.reps_saved = Some(n);
    }

    /// Mark that a panic was caught at the request boundary.
    pub fn set_panicked(&mut self) {
        self.span.panicked = true;
    }

    /// Close the span with its exit class and response payload size, and
    /// record histograms, ring and log.
    pub fn finish(mut self, outcome: &'static str, response_bytes: usize) {
        self.span.total_us = self.t0.elapsed().as_secs_f64() * 1e6;
        self.span.outcome = outcome;
        self.span.response_bytes = response_bytes;
        self.telemetry.finish(self.span, self.metered);
    }
}

/// The observability sidecar: a second TCP listener speaking just enough
/// HTTP/1.1 for scrapers — `GET /metrics`, `GET /healthz`,
/// `GET /spans?last=N`, `Connection: close` on every response.
pub struct HttpServer {
    listener: TcpListener,
    telemetry: Arc<Telemetry>,
}

/// How long the accept loop sleeps between non-blocking accept polls
/// (also bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Per-connection read/write timeout: scrapers that stall cannot wedge
/// the sidecar thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

impl HttpServer {
    /// Bind the sidecar listener on `addr` (`host:port`; port 0 asks the
    /// OS for a free port).
    pub fn bind(addr: &str, telemetry: Arc<Telemetry>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(HttpServer {
            listener,
            telemetry,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the accept loop on its own thread. Dropping (or calling
    /// [`HttpHandle::stop`] on) the returned handle stops the loop and
    /// joins the thread.
    pub fn spawn(self) -> io::Result<HttpHandle> {
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if let Err(e) = serve_http_connection(stream, &self.telemetry) {
                            diag::debug(&format!("http sidecar: connection error: {e}"));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) => {
                        diag::info(&format!("http sidecar: accept failed: {e}"));
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
        });
        Ok(HttpHandle {
            stop,
            join: Some(join),
        })
    }
}

/// Handle to a running sidecar accept loop; stops and joins on drop.
pub struct HttpHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl HttpHandle {
    /// Stop the accept loop and join its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_http_connection(stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (bounded) so well-behaved clients see a clean close.
    let mut header = String::new();
    for _ in 0..64 {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, content_type, body) = http_response(telemetry, method, target);
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Route one request to its response as `(status line, content type,
/// body)`. Pure — unit-testable without sockets.
pub fn http_response(
    telemetry: &Telemetry,
    method: &str,
    target: &str,
) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "application/json",
            "{\"error\":\"only GET is supported\"}".to_string(),
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry.registry().render_prometheus(),
        ),
        "/healthz" => ("200 OK", "application/json", telemetry.healthz_json()),
        "/spans" => {
            let last = query
                .into_iter()
                .flat_map(|q| q.split('&'))
                .find_map(|kv| kv.strip_prefix("last="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(32);
            (
                "200 OK",
                "application/json",
                render_spans(&telemetry.ring().last(last)),
            )
        }
        _ => (
            "404 Not Found",
            "application/json",
            format!("{{\"error\":\"no route {}\"}}", escape(path)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_obs::json::{self, Json};

    fn hub() -> Telemetry {
        Telemetry::new(Arc::new(Registry::new()), 4, None, None).unwrap()
    }

    #[test]
    fn metered_requests_record_stage_histograms_and_the_total_counter() {
        let t = hub();
        for _ in 0..3 {
            let mut timer = t.begin("predict", true);
            timer.set_reps(8);
            timer.stage("validate", || std::hint::black_box(1 + 1));
            timer.stage("eval", || std::thread::sleep(Duration::from_millis(2)));
            timer.cache("model", true);
            timer.finish("ok", 100);
        }
        assert_eq!(t.registry().counter("serve.requests.total").get(), 3);
        assert_eq!(
            t.registry()
                .histogram("serve.request_ms", 0.0, 1.0, 1)
                .count(),
            3
        );
        assert_eq!(
            t.registry()
                .histogram("serve.stage.eval_ms", 0.0, 1.0, 1)
                .count(),
            3
        );
        let spans = t.ring().last(10);
        assert_eq!(spans.len(), 3);
        assert!(spans[0].total_us >= spans[0].stage_sum_us());
        assert_eq!(spans[0].caches, vec![("model", true)]);
    }

    #[test]
    fn unmetered_requests_only_enter_the_ring() {
        let t = hub();
        t.begin("ping", false).finish("ok", 10);
        assert_eq!(t.registry().counter("serve.requests.total").get(), 0);
        assert_eq!(t.ring().recorded(), 1);
    }

    #[test]
    fn stats_json_splices_uptime_start_and_stage_percentiles() {
        let t = hub();
        let mut timer = t.begin("predict", true);
        timer.stage("eval", || ());
        timer.finish("ok", 1);
        let js = t.stats_json();
        let v = json::parse(&js).expect("stats JSON parses");
        assert!(v.get("counters").is_some(), "registry dump retained");
        assert!(v
            .get("uptime_secs")
            .and_then(Json::as_num)
            .is_some_and(|u| u >= 0.0));
        let started = v.get("started").and_then(Json::as_str).unwrap();
        assert!(started.ends_with('Z') && started.contains('T'), "{started}");
        let eval = v.get("stages").and_then(|s| s.get("eval")).unwrap();
        assert_eq!(eval.get("count").and_then(Json::as_num), Some(1.0));
        assert!(eval.get("p95_ms").and_then(Json::as_num).is_some());
    }

    #[test]
    fn http_routes_answer_and_404s_are_scoped() {
        let t = hub();
        let mut timer = t.begin("predict", true);
        timer.stage("eval", || ());
        timer.finish("ok", 7);
        let (status, ct, body) = http_response(&t, "GET", "/metrics");
        assert_eq!(status, "200 OK");
        assert!(ct.starts_with("text/plain"));
        assert!(body.contains("serve_requests_total 1"), "{body}");
        assert!(body.contains("serve_stage_eval_ms_count 1"), "{body}");
        let (status, _, body) = http_response(&t, "GET", "/healthz");
        assert_eq!(status, "200 OK");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        let (status, _, body) = http_response(&t, "GET", "/spans?last=5");
        assert_eq!(status, "200 OK");
        assert_eq!(
            json::parse(&body).unwrap().as_array().map(<[_]>::len),
            Some(1)
        );
        let (status, _, _) = http_response(&t, "GET", "/nope");
        assert_eq!(status, "404 Not Found");
        let (status, _, _) = http_response(&t, "POST", "/metrics");
        assert_eq!(status, "405 Method Not Allowed");
    }

    #[test]
    fn sidecar_answers_over_a_real_socket_and_stops_cleanly() {
        let t = Arc::new(hub());
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&t)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        handle.stop();
    }

    #[test]
    fn slow_log_threshold_filters_fast_requests() {
        let dir = std::env::temp_dir().join(format!("pevpm-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("req.log");
        let t =
            Telemetry::new(Arc::new(Registry::new()), 8, Some(&path), Some(1_000_000.0)).unwrap();
        t.begin("predict", true).finish("ok", 1);
        drop(t);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "",
            "a fast request must not log under a high threshold"
        );
        let t = Telemetry::new(Arc::new(Registry::new()), 8, Some(&path), None).unwrap();
        let mut timer = t.begin("predict", true);
        timer.stage("eval", || ());
        timer.finish("budget", 9);
        drop(t);
        let logged = std::fs::read_to_string(&path).unwrap();
        let v = json::parse(logged.trim()).expect("log line is one JSON object");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("predict"));
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("budget"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
