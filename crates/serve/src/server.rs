//! The serve loop: load tables once, compile once, answer forever.
//!
//! The daemon binds a TCP listener, loads every `--db` table at startup
//! (its load position keys the timing cache), and then
//! answers framed requests from a bounded *concurrent* connection layer:
//! a non-blocking accept loop hands accepted streams to a fixed pool of
//! `--conns` worker threads through a bounded queue. A worker answers one
//! frame at a time, so the pool is also the bound on in-flight
//! predictions; a connection arriving to a full queue is shed with an
//! `"overloaded"` frame carrying a `retry_after_ms` hint
//! (`serve.conn.shed`, `serve.shed.total`). Response payloads
//! stay deterministic anyway — every answer depends only on the request
//! (plus the preloaded tables), never on arrival order or neighbouring
//! connections — so concurrency changes wall-clock, not bytes.
//! Evaluation parallelism composes through [`pevpm::ThreadBudget`]:
//! each connection's replication pool gets the per-connection share of
//! `--threads`, so `conns × replication pool` never oversubscribes, and
//! no request can change either factor.
//!
//! Degraded operation is deliberate and observable, in three layers:
//!
//! * **deadlines** — every protocol socket carries `--io-timeout-ms`
//!   read/write deadlines. A peer that stalls *between* frames is idle
//!   and quietly evicted (`serve.conn.idle_closed`); one that stalls
//!   *mid-frame* (slowloris) gets a structured `"timeout"` error frame
//!   and a closed socket (`serve.conn.io_timeouts`), distinguished from
//!   clean EOF (`serve.conn.clean_eof`) and truncated frames
//!   (`serve.conn.truncated`);
//! * **graceful drain** — a `shutdown` request (or an external stop flag,
//!   e.g. SIGTERM via [`Server::run_until`]) stops accepting, lets
//!   in-flight requests finish under the `--drain-ms` deadline, then
//!   force-closes stragglers; the drain outcome lands in the span ring
//!   and the structured request log, and telemetry sinks are flushed;
//! * **crash containment** — the plan layer turns invalid tables and
//!   models into structured errors before any panicking constructor
//!   runs, the replication layer converts worker panics into
//!   `ReplicaPanic` values, and a final `catch_unwind` at the request
//!   boundary converts anything that still escapes into a
//!   `"panic"`-coded response instead of a dead daemon.
//!
//! Every request is traced through a [`crate::telemetry::RequestTimer`]:
//! prediction work records named stage windows (validate → model →
//! compile → eval → render), cache outcomes, and replication shape into
//! the span ring and the latency histograms; control ops (`ping`,
//! `stats`, `shutdown`, unparseable frames) get lightweight ring-only
//! spans. When [`ServeConfig::http_addr`] is set, `run` also starts the
//! HTTP observability sidecar (`/metrics`, `/healthz`, `/spans`).

use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pevpm::replicate::isolated_map;
use pevpm::vm::Scratch;
use pevpm_dist::{io as dist_io, DistTable};
use pevpm_obs::{diag, Counter, FixedHistogram, Gauge, Registry};

use crate::cache::{ModelCache, TimingCache};
pub use crate::config::{ServeConfig, DEFAULT_CONNS, DEFAULT_DRAIN_MS, DEFAULT_IO_TIMEOUT_MS};
use crate::conn::{ConnQueue, ConnTracker, TrackerGuard};
use crate::plan::{self, EvalOutcome, PlanError, PredictRequest};
use crate::proto::{self, Body, Frame, FrameBuf, FrameRead};
use crate::telemetry::{HttpServer, RequestTimer, Telemetry};

/// How long the non-blocking accept loop sleeps between polls (also
/// bounds shutdown-signal latency).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Accept-error backoff bounds: persistent failures (EMFILE and friends)
/// back off exponentially inside this window instead of spinning hot.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Pending-connection queue slots per worker; past this the accept loop
/// sheds fresh connections with an unsolicited `"overloaded"` frame.
pub const PENDING_PER_WORKER: usize = 8;

/// The `retry_after_ms` hint on a shed connection's `"overloaded"` frame.
const SHED_RETRY_MS: u64 = 100;

/// Per-`run` shared state between the accept loop and the worker pool.
struct RunShared {
    stop: AtomicBool,
    draining: AtomicBool,
    queue: ConnQueue,
    tracker: ConnTracker,
}

impl RunShared {
    fn new(pending_cap: usize) -> RunShared {
        RunShared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            queue: ConnQueue::new(pending_cap),
            tracker: ConnTracker::new(),
        }
    }
}

/// A daemon startup failure.
#[derive(Debug)]
pub struct ServeError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

/// The prediction daemon: preloaded tables, model and timing caches, a
/// metrics registry, request telemetry, and a bound listener.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    // Named tables in load order; a table's position is its timing-cache
    // key, since the set never changes after startup.
    tables: Vec<(String, DistTable)>,
    models: ModelCache,
    timings: TimingCache,
    registry: Arc<Registry>,
    handles: Arc<ServeHandles>,
    telemetry: Arc<Telemetry>,
    // Bound at construction (so the sidecar port is known before `run`),
    // taken and spawned by `run`.
    http: Mutex<Option<HttpServer>>,
    // Resolved worker-pool width and the per-request replication-pool
    // share of the host budget (`conns × request_threads` ≤ host cores).
    conns: usize,
    request_threads: usize,
    io_timeout: Option<Duration>,
}

impl Server {
    /// Bind the listener and load every configured table from disk.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        let mut loaded = Vec::with_capacity(cfg.tables.len());
        for (name, path) in &cfg.tables {
            let table = dist_io::load_table(path).map_err(|e| ServeError {
                message: format!("table {name:?}: {e}"),
            })?;
            loaded.push((name.clone(), table));
        }
        Server::with_tables(cfg, loaded)
    }

    /// Bind the listener around already-loaded tables (tests, embedding).
    pub fn with_tables(
        cfg: ServeConfig,
        tables: Vec<(String, DistTable)>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| ServeError {
            message: format!("cannot bind {}: {e}", cfg.addr),
        })?;
        let registry = Arc::new(Registry::new());
        let telemetry = Arc::new(
            Telemetry::new(
                Arc::clone(&registry),
                cfg.span_capacity,
                cfg.log_out.as_deref(),
                cfg.log_slow_ms,
            )
            .map_err(|e| ServeError {
                message: format!("cannot open request log: {e}"),
            })?,
        );
        let http = match &cfg.http_addr {
            Some(addr) => {
                Some(
                    HttpServer::bind(addr, Arc::clone(&telemetry)).map_err(|e| ServeError {
                        message: format!("cannot bind http sidecar {addr}: {e}"),
                    })?,
                )
            }
            None => None,
        };
        let models = ModelCache::new(&registry);
        let timings = TimingCache::new(&registry);
        for (i, (name, _)) in tables.iter().enumerate() {
            if tables[..i].iter().any(|(other, _)| other == name) {
                return Err(ServeError {
                    message: format!("duplicate table name {name:?}"),
                });
            }
        }
        let conns = if cfg.conns == 0 {
            DEFAULT_CONNS
        } else {
            cfg.conns
        };
        // Each concurrently-served request gets the per-connection share
        // of the host budget for its replication pool, so the product
        // `conns × replication pool` never oversubscribes. With a single
        // worker the serial behavior (and `cfg.threads`) is kept verbatim.
        let request_threads = if conns <= 1 {
            cfg.threads
        } else {
            let budget = pevpm::ThreadBudget::new(cfg.threads);
            budget.inner(conns, budget.total()).max(1)
        };
        let io_timeout = if cfg.io_timeout_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(cfg.io_timeout_ms))
        };
        let handles = registry.handles(ServeHandles::resolve);
        Ok(Server {
            cfg,
            listener,
            tables,
            models,
            timings,
            registry,
            handles,
            telemetry,
            http: Mutex::new(http),
            conns,
            request_threads,
            io_timeout,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The HTTP sidecar's bound address, when one is configured and not
    /// yet consumed by `run`.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http
            .lock()
            .ok()
            .and_then(|g| g.as_ref().and_then(|s| s.local_addr().ok()))
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The daemon's telemetry hub (span ring, stats, sidecar routes).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Accept and serve connections until a `shutdown` request arrives.
    /// Equivalent to [`Server::run_until`] with a flag nobody sets.
    pub fn run(&self) -> io::Result<()> {
        self.run_until(&AtomicBool::new(false))
    }

    /// Accept and serve connections until a `shutdown` request arrives
    /// or `external_stop` becomes true (e.g. from a SIGTERM handler).
    /// Accepted streams are fanned to a fixed pool of `--conns` worker
    /// threads; on stop the daemon drains gracefully (in-flight requests
    /// finish under `--drain-ms`, then stragglers are force-closed) and
    /// flushes telemetry sinks. The HTTP
    /// sidecar (if configured) runs on its own thread for the duration
    /// and stops when this returns.
    pub fn run_until(&self, external_stop: &AtomicBool) -> io::Result<()> {
        let http = match self.http.lock() {
            Ok(mut guard) => guard.take(),
            Err(_) => {
                // A poisoned lock only means some earlier reader panicked
                // while holding it; losing the observability plane
                // silently would be worse than serving with it.
                self.registry.counter("serve.sidecar_lost").inc();
                diag::warn(
                    "pevpm serve: http sidecar state poisoned; \
                     observability sidecar NOT started",
                );
                None
            }
        };
        let _http_handle = match http {
            Some(server) => {
                let addr = server.local_addr()?;
                let handle = server.spawn()?;
                diag::info(&format!("pevpm serve: observability http on {addr}"));
                Some(handle)
            }
            None => None,
        };
        diag::info(&format!(
            "pevpm serve: listening on {} ({} table(s) loaded, {} conn worker(s))",
            self.local_addr()?,
            self.tables.len(),
            self.conns,
        ));
        // Non-blocking accept + poll: the same loop notices queue
        // pressure, shutdown frames, and the external stop flag within
        // ACCEPT_POLL without platform-specific readiness APIs.
        self.listener.set_nonblocking(true)?;
        let shared = RunShared::new(self.conns * PENDING_PER_WORKER);
        std::thread::scope(|scope| {
            for i in 0..self.conns {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn_scoped(scope, move || self.worker_loop(shared))
                    .map_err(|e| {
                        // Wake the workers already spawned; without this
                        // they stay parked in queue.pop() and the scope
                        // deadlocks joining them instead of surfacing
                        // the spawn error.
                        shared.stop.store(true, Ordering::SeqCst);
                        shared.queue.close();
                        io::Error::other(format!("cannot spawn connection worker: {e}"))
                    })?;
            }
            let mut backoff = ACCEPT_BACKOFF_MIN;
            while !shared.stop.load(Ordering::SeqCst) && !external_stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        self.registry.counter("serve.conn.accepted").inc();
                        if let Err(stream) = shared.queue.push(stream) {
                            self.shed_connection(stream);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) => {
                        // Persistent accept failures (EMFILE and friends)
                        // must not spin hot: bounded exponential backoff.
                        self.registry.counter("serve.accept_errors").inc();
                        diag::warn(&format!(
                            "pevpm serve: accept failed: {e} (backing off {backoff:?})"
                        ));
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    }
                }
            }
            self.drain(&shared);
            Ok::<(), io::Error>(())
        })?;
        self.telemetry.flush();
        diag::info("pevpm serve: shut down");
        Ok(())
    }

    /// Stop accepting, then give in-flight requests `--drain-ms` to
    /// finish before force-closing their sockets. Idle readers are woken
    /// (socket shutdown) immediately so their workers can exit.
    fn drain(&self, shared: &RunShared) {
        let timer = self.telemetry.begin("drain", false);
        shared.draining.store(true, Ordering::SeqCst);
        shared.queue.close();
        shared.tracker.shutdown_conns(false);
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        while shared.tracker.any_busy() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let outcome = if shared.tracker.any_busy() {
            self.registry.counter("serve.drain.forced").inc();
            "forced"
        } else {
            "clean"
        };
        let closed = shared.tracker.shutdown_conns(true);
        diag::info(&format!(
            "pevpm serve: drain {outcome} within {} ms ({closed} connection(s) closed)",
            self.cfg.drain_ms
        ));
        timer.finish(outcome, 0);
    }

    /// The accept loop's overflow path: tell the peer the daemon is at
    /// capacity (best effort, short write deadline) and close.
    fn shed_connection(&self, stream: TcpStream) {
        self.registry.counter("serve.conn.shed").inc();
        self.handles.shed_total.inc();
        // Accepted sockets can inherit the listener's O_NONBLOCK on
        // BSD-derived platforms; the shed frame needs a blocking write
        // bounded by the short deadline below.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        let _ = proto::write_frame(&mut &stream, &proto::overloaded_response("", SHED_RETRY_MS));
    }

    /// One worker: pop accepted streams and serve each until it closes.
    fn worker_loop(&self, shared: &RunShared) {
        while let Some(stream) = shared.queue.pop() {
            match self.serve_connection(stream, shared) {
                Ok(true) => {
                    shared.stop.store(true, Ordering::SeqCst);
                    return;
                }
                Ok(false) => {}
                Err(e) => {
                    self.registry.counter("serve.conn.errors").inc();
                    diag::warn(&format!("pevpm serve: connection error: {e}"));
                }
            }
        }
    }

    /// Serve one connection until the peer closes it, it times out, or
    /// drain begins. Returns `Ok(true)` when the peer asked the daemon to
    /// shut down. Disconnect classes are kept distinct: clean EOF between
    /// frames (`serve.conn.clean_eof`), idle deadline between frames
    /// (`serve.conn.idle_closed`), mid-frame stall (`serve.conn.io_timeouts`
    /// plus a `"timeout"` error frame), mid-frame EOF
    /// (`serve.conn.truncated`), and malformed framing
    /// (`serve.conn.bad_frames` plus a `"usage"` error frame).
    fn serve_connection(&self, stream: TcpStream, shared: &RunShared) -> io::Result<bool> {
        // The listener is non-blocking and BSD-derived platforms make
        // accepted sockets inherit O_NONBLOCK; left set, the first read
        // would return EAGAIN instantly and be misclassified as an idle
        // deadline. Restore blocking mode before arming real deadlines.
        stream.set_nonblocking(false)?;
        // Responses are written whole; Nagle + delayed ACK would stall
        // multi-segment response frames ~40 ms.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        let (conn_id, busy) = shared.tracker.register(&stream)?;
        let _unregister = TrackerGuard {
            tracker: &shared.tracker,
            id: conn_id,
        };
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = &stream;
        // What the connection reuses frame after frame: the buffer the
        // request is read into, the one its response is formatted into,
        // and the tables a prediction is evaluated in.
        let mut frame = Vec::new();
        let mut out = FrameBuf::new();
        let mut scratch = Scratch::default();
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                break Ok(false);
            }
            match proto::read_frame_into(&mut reader, proto::MAX_FRAME, &mut frame) {
                Ok(FrameRead::Frame(text)) => {
                    busy.store(true, Ordering::SeqCst);
                    // respond already isolates prediction panics; a second
                    // net here keeps even a control-path panic from taking
                    // the worker thread (and its slot) down.
                    let handled = catch_unwind(AssertUnwindSafe(|| {
                        self.respond(text, &mut out, &mut scratch)
                    }));
                    let shutdown = handled.unwrap_or_else(|_| {
                        self.handles.panics_isolated.inc();
                        out.clear();
                        let _ = proto::write_err(&mut out, "", "panic", "request handler panicked");
                        false
                    });
                    // Still busy while the response is on its way out: a
                    // drain that saw this connection idle here would close
                    // the socket under a half-written frame.
                    let written = out.send(&mut writer);
                    busy.store(false, Ordering::SeqCst);
                    written?;
                    if shutdown {
                        break Ok(true);
                    }
                    proto::trim(&mut frame);
                    out.trim();
                }
                Ok(FrameRead::CleanEof) => {
                    self.registry.counter("serve.conn.clean_eof").inc();
                    break Ok(false);
                }
                Ok(FrameRead::IdleTimeout) => {
                    // Quiet eviction: the peer simply went silent between
                    // frames; closing reclaims the worker slot.
                    self.registry.counter("serve.conn.idle_closed").inc();
                    break Ok(false);
                }
                Err(e) if proto::is_timeout(&e) => {
                    // Slowloris: stalled *inside* a frame. Tell the peer
                    // (best effort — it may be gone) and close.
                    self.registry.counter("serve.conn.io_timeouts").inc();
                    let _ = proto::write_frame(
                        &mut writer,
                        &proto::err_response("", "timeout", &e.to_string()),
                    );
                    break Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    self.registry.counter("serve.conn.truncated").inc();
                    break Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Oversized frame or invalid UTF-8: structured usage
                    // error, then close (framing is unrecoverable).
                    self.registry.counter("serve.conn.bad_frames").inc();
                    let _ = proto::write_frame(
                        &mut writer,
                        &proto::err_response("", "usage", &e.to_string()),
                    );
                    break Ok(false);
                }
                Err(e) => break Err(e),
            }
        }
    }

    /// Answer one request frame. The second element is true when the
    /// daemon should stop accepting after this response.
    pub fn handle_frame(&self, frame: &str) -> (String, bool) {
        let mut out = FrameBuf::new();
        let stop = self.respond(frame, &mut out, &mut Scratch::default());
        (out.into_payload(), stop)
    }

    /// Answer one request frame into `out` (cleared first), evaluating a
    /// `predict` in `scratch`'s tables, as a connection worker does with
    /// the buffer and scratch it reuses. The answer is the one
    /// [`Server::handle_frame`] gives, byte for byte, whatever `out` and
    /// `scratch` were last used for. Returns true when the daemon should
    /// stop accepting after this response.
    pub fn respond(&self, frame: &str, out: &mut FrameBuf, scratch: &mut Scratch) -> bool {
        // Writing into a `FrameBuf` cannot fail, so no `fmt::Result` below
        // is worth looking at.
        out.clear();
        self.handles.requests.inc();
        let request = match proto::parse_frame(frame) {
            Ok(r) => r,
            Err((id, e)) => {
                let timer = self.telemetry.begin("invalid", false);
                let _ = proto::write_err(out, &id, e.kind.code(), &e.message);
                timer.finish(e.kind.code(), out.payload_len());
                return false;
            }
        };
        match request {
            Frame::Ping { id } => {
                let timer = self.telemetry.begin("ping", false);
                let _ = proto::write_ok(out, &id, |out| out.write_str("{\"kind\":\"pong\"}"));
                timer.finish("ok", out.payload_len());
                false
            }
            Frame::Stats { id } => {
                let timer = self.telemetry.begin("stats", false);
                let stats = self.telemetry.stats_json();
                let _ = proto::write_ok(out, &id, |out| out.write_str(&stats));
                timer.finish("ok", out.payload_len());
                false
            }
            Frame::Shutdown { id } => {
                let timer = self.telemetry.begin("shutdown", false);
                let _ = proto::write_ok(out, &id, |out| out.write_str("{\"kind\":\"shutdown\"}"));
                timer.finish("ok", out.payload_len());
                true
            }
            Frame::Predict { id, body } => {
                let _inflight = InFlight::enter(&self.handles.inflight);
                let mut timer = self.telemetry.begin("predict", true);
                let rendered = self.predict_guarded(
                    &body,
                    self.request_threads,
                    &mut timer,
                    scratch,
                    |outcome| {
                        let _ = proto::write_ok(out, &id, |out| proto::write_outcome(out, outcome));
                    },
                );
                let outcome = match rendered {
                    Ok(()) => "ok",
                    Err(e) => {
                        out.clear();
                        let _ = proto::write_err(out, &id, e.kind_code(), e.message());
                        e.kind_code()
                    }
                };
                timer.finish(outcome, out.payload_len());
                false
            }
            Frame::Batch { id, items } => {
                let _inflight = InFlight::enter(&self.handles.inflight);
                self.handle_batch(&id, &items, out);
                false
            }
        }
    }

    fn handle_batch(&self, id: &str, items: &[Body<'_>], out: &mut FrameBuf) {
        // Fan the batch across the replication pool. Each item evaluates
        // single-threaded inside its slot; replication results are
        // bitwise invariant to thread count, so this cannot change any
        // answer — only the wall-clock. The frame itself gets an
        // unmetered span (fanout/collect stages, failed-item count); each
        // item gets its own metered span, so stage histogram counts still
        // equal the number of predictions served.
        let mut frame_timer = self.telemetry.begin("batch", false);
        let (slots, _profile) = frame_timer.stage("fanout", || {
            isolated_map(items.len(), self.request_threads, |i| {
                let _timed = RecordElapsedMs {
                    into: &self.handles.pool_job_ms,
                    since: Instant::now(),
                };
                let mut item_timer = self.telemetry.begin("batch-item", true);
                match self.predict_guarded(
                    &items[i],
                    1,
                    &mut item_timer,
                    &mut Scratch::default(),
                    proto::render_outcome,
                ) {
                    Ok(result) => {
                        item_timer.finish("ok", result.len());
                        Ok(result)
                    }
                    Err(e) => {
                        let code = e.kind_code();
                        item_timer.finish(code, 0);
                        Err((code, e.message().to_string()))
                    }
                }
            })
        });
        let failed = frame_timer.stage("collect", || {
            let rendered: Vec<Result<String, (&str, String)>> = slots
                .into_iter()
                .map(|slot| match slot {
                    Ok(result) => Ok(result),
                    Err(pevpm::replicate::JobError::Err(failure)) => Err(failure),
                    // `isolated_map` already caught the panic; report it
                    // as a per-item failure, daemon intact.
                    Err(pevpm::replicate::JobError::Panic(p)) => {
                        self.handles.panics_isolated.inc();
                        Err(("panic", p.to_string()))
                    }
                })
                .collect();
            let _ = proto::write_ok(out, id, |out| proto::write_batch(out, &rendered));
            rendered.iter().filter(|r| r.is_err()).count()
        });
        frame_timer.set_reps(items.len());
        frame_timer.set_replica_failures(failed);
        frame_timer.finish(
            if failed == 0 { "ok" } else { "partial" },
            out.payload_len(),
        );
    }

    /// One prediction, rendered by `render` as the `render` stage, with the
    /// request boundary hardened: any panic that escapes the plan layer
    /// and the replication pool becomes a `RequestError::Panic`, never a
    /// daemon crash. The timer outlives the `catch_unwind`, so even a
    /// panicking request leaves a span (flagged `panicked`, minus the
    /// stage that blew up).
    fn predict_guarded<R>(
        &self,
        body: &Body<'_>,
        threads: usize,
        timer: &mut RequestTimer<'_>,
        scratch: &mut Scratch,
        render: impl FnOnce(&EvalOutcome) -> R,
    ) -> Result<R, RequestError> {
        match catch_unwind(AssertUnwindSafe(|| {
            let outcome = self.predict(body, threads, timer, scratch)?;
            Ok(timer.stage("render", || render(&outcome)))
        })) {
            Ok(r) => r.map_err(RequestError::Plan),
            Err(payload) => {
                self.handles.panics_isolated.inc();
                timer.set_panicked();
                let what = diag::panic_message(&*payload);
                Err(RequestError::Panic(format!("request panicked: {what}")))
            }
        }
    }

    /// Admission control: refuse work the daemon is configured not to
    /// carry, before any compilation or evaluation happens.
    fn admit(&self, req: &PredictRequest) -> Result<(), PlanError> {
        if self.cfg.max_reps > 0 && req.reps > self.cfg.max_reps {
            self.handles.rejected_admission.inc();
            return Err(PlanError::budget(format!(
                "admission: {} replications exceed the server limit of {}",
                req.reps, self.cfg.max_reps
            )));
        }
        Ok(())
    }

    /// The cached-plan prediction path shared by `predict` and `batch`.
    /// Each pipeline step runs as a named timer stage; a single
    /// evaluation runs in `scratch`'s tables.
    fn predict(
        &self,
        body: &Body<'_>,
        threads: usize,
        timer: &mut RequestTimer<'_>,
        scratch: &mut Scratch,
    ) -> Result<EvalOutcome, PlanError> {
        let (table_name, req) = (&*body.table, &body.req);
        timer.set_reps(req.reps);
        timer.set_quorum(req.quorum.is_some());
        let (pos, mode) = timer.stage("validate", || {
            self.admit(req)?;
            let pos = self.tables.iter().position(|(name, _)| name == table_name);
            let pos = pos.ok_or_else(|| {
                let mut names: Vec<&str> = self.tables.iter().map(|(n, _)| n.as_str()).collect();
                names.sort_unstable();
                PlanError::usage(format!(
                    "unknown table {table_name:?} (loaded: {})",
                    if names.is_empty() {
                        "none".to_string()
                    } else {
                        names.join(", ")
                    }
                ))
            })?;
            let mode = req.prediction_mode()?;
            Ok::<_, PlanError>((pos, mode))
        })?;
        let (model, model_hit) = timer.stage("model", || {
            self.models
                .get_or_parse_literal(&body.model, "request model")
        })?;
        timer.cache("model", model_hit);
        let (timing, table_hit) = timer.stage("compile", || {
            self.timings.get_or_build(
                pos as u64,
                &self.tables[pos].1,
                mode,
                req.pingpong,
                req.compile_options(),
            )
        })?;
        timer.cache("table", table_hit);
        let outcome = timer.stage("eval", || {
            // The request's scalar fields, under the server's caps; its
            // model source and parameters are borrowed, not copied.
            let mut capped = PredictRequest {
                model_src: String::new(),
                mode: String::new(),
                params: Vec::new(),
                threads,
                ..*req
            };
            // The server's budget caps tighten whatever the request asked
            // for; a request axis the server also caps takes the minimum.
            if let Some(cap) = self.cfg.max_steps {
                capped.max_steps = Some(req.max_steps.map_or(cap, |n| n.min(cap)));
            }
            if let Some(cap) = self.cfg.max_virtual_secs {
                capped.max_virtual_secs = Some(req.max_virtual_secs.map_or(cap, |s| s.min(cap)));
            }
            // Adaptive replication ceiling tightens like the budget axes:
            // a precision request may not run more replications than the
            // daemon's `--max-reps` cap, whatever ceiling it asked for.
            if self.cfg.max_reps > 0 && req.precision.is_some() {
                let cap = self.cfg.max_reps;
                capped.max_reps = Some(req.max_reps.map_or(cap, |n| n.min(cap)));
            }
            // Engine metrics (vm.*) land in the daemon registry,
            // surfacing through `stats` and /metrics.
            let mut cfg = capped
                .eval_config()?
                .with_metrics(Arc::clone(self.telemetry.registry()));
            for (k, v) in &req.params {
                cfg = cfg.with_param(k, *v);
            }
            plan::evaluate_plan_in(&model, &cfg, &timing, capped.effective_reps(), scratch)
        })?;
        if let EvalOutcome::Batch(mc) = &outcome {
            timer.set_replica_failures(mc.failures.len());
            if let Some(a) = &mc.adaptive {
                timer.set_reps(a.reps);
                timer.set_reps_saved(a.reps_saved());
                self.handles.reps_saved.add(a.reps_saved() as u64);
                self.handles.reps_chosen.record(a.reps as f64);
            }
        }
        Ok(outcome)
    }
}

/// The daemon's per-request metric handles, under fixed names only,
/// resolved once per registry ([`Registry::handles`]).
struct ServeHandles {
    requests: Arc<Counter>,
    panics_isolated: Arc<Counter>,
    inflight: Arc<Gauge>,
    shed_total: Arc<Counter>,
    rejected_admission: Arc<Counter>,
    reps_saved: Arc<Counter>,
    reps_chosen: Arc<FixedHistogram>,
    pool_job_ms: Arc<FixedHistogram>,
}

impl ServeHandles {
    fn resolve(registry: &Registry) -> ServeHandles {
        let (lo, hi, nbins) = crate::telemetry::REPS_CHOSEN_BINS;
        ServeHandles {
            requests: registry.counter("serve.requests"),
            panics_isolated: registry.counter("serve.panics_isolated"),
            inflight: registry.gauge("serve.inflight"),
            shed_total: registry.counter("serve.shed.total"),
            rejected_admission: registry.counter("serve.rejected_admission"),
            reps_saved: registry.counter("serve.reps.saved"),
            reps_chosen: registry.histogram("serve.reps.chosen", lo, hi, nbins),
            pool_job_ms: registry.histogram("serve.pool.job_ms", 0.0, 250.0, 50),
        }
    }
}

/// Records the milliseconds since `since` when dropped: a batch item is
/// timed into `serve.pool.job_ms` however it leaves its pool job — result,
/// refusal, or a panic unwinding past the guard.
struct RecordElapsedMs<'a> {
    into: &'a pevpm_obs::FixedHistogram,
    since: Instant,
}

impl Drop for RecordElapsedMs<'_> {
    fn drop(&mut self) {
        self.into.record(self.since.elapsed().as_secs_f64() * 1e3);
    }
}

/// Counts a `predict` or `batch` frame in `serve.inflight` while it is
/// answered, and uncounts it however the frame ends, unwinding included.
struct InFlight<'a>(&'a Gauge);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a Gauge) -> InFlight<'a> {
        gauge.add(1.0);
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// A request failure: a classified plan error or an isolated panic.
enum RequestError {
    Plan(PlanError),
    Panic(String),
}

impl RequestError {
    fn kind_code(&self) -> &'static str {
        match self {
            RequestError::Plan(e) => e.kind.code(),
            RequestError::Panic(_) => "panic",
        }
    }

    fn message(&self) -> &str {
        match self {
            RequestError::Plan(e) => &e.message,
            RequestError::Panic(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_obs::json::{self, Json};

    const SRC: &str = "\
// PEVPM Loop iterations = rounds
// PEVPM {
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM }
";

    fn test_table() -> DistTable {
        table_in_units_of(1e-6)
    }

    fn table_in_units_of(unit: f64) -> DistTable {
        let mut t = DistTable::new();
        let mut h = pevpm_dist::Histogram::new(0.0, unit);
        for i in 0..64 {
            h.add(unit * f64::from(i % 11));
        }
        for op in [pevpm_dist::Op::Send, pevpm_dist::Op::Recv] {
            for size in [512u64, 1024, 2048] {
                for contention in [1u32, 2] {
                    t.insert(
                        pevpm_dist::DistKey {
                            op,
                            size,
                            contention,
                        },
                        pevpm_dist::CommDist::Hist(h.clone()),
                    );
                }
            }
        }
        t
    }

    fn test_server() -> Server {
        Server::with_tables(
            ServeConfig::default(),
            vec![("default".to_string(), test_table())],
        )
        .unwrap()
    }

    fn predict_frame(reps: usize) -> String {
        format!(
            "{{\"op\":\"predict\",\"id\":\"p\",\"model\":\"{}\",\"procs\":2,\
             \"params\":{{\"rounds\":20}},\"reps\":{reps},\"seed\":3}}",
            pevpm_obs::json::escape(SRC)
        )
    }

    #[test]
    fn predict_answers_and_caches_compile_exactly_once() {
        let s = test_server();
        let (r1, stop) = s.handle_frame(&predict_frame(1));
        assert!(!stop);
        let v = json::parse(&r1).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{r1}");
        let makespan = v
            .get("result")
            .and_then(|r| r.get("makespan"))
            .and_then(Json::as_num)
            .unwrap();
        assert!(makespan > 0.0);
        // 99 more identical requests: same bytes back, zero new compiles.
        for _ in 0..99 {
            let (r, _) = s.handle_frame(&predict_frame(1));
            assert_eq!(r, r1);
        }
        assert_eq!(s.registry().counter("serve.table_compiles").get(), 1);
        assert_eq!(s.registry().counter("serve.model_compiles").get(), 1);
        assert_eq!(s.registry().counter("serve.model_cache_hits").get(), 99);
    }

    /// Tables are told apart by load position: two named tables compile
    /// once each, and each answers exactly as it does loaded alone.
    #[test]
    fn each_named_table_compiles_once_and_answers_from_its_own_data() {
        let (fast, slow) = (table_in_units_of(1e-6), table_in_units_of(1e-5));
        let alone = |table: &DistTable| {
            let s = Server::with_tables(
                ServeConfig::default(),
                vec![("default".to_string(), table.clone())],
            )
            .unwrap();
            s.handle_frame(&predict_frame(1)).0
        };
        let both = Server::with_tables(
            ServeConfig::default(),
            vec![
                ("fast".to_string(), fast.clone()),
                ("slow".to_string(), slow.clone()),
            ],
        )
        .unwrap();
        let on =
            |name: &str| predict_frame(1).replacen('{', &format!("{{\"table\":\"{name}\","), 1);
        let (want_fast, want_slow) = (alone(&fast), alone(&slow));
        assert_ne!(want_fast, want_slow);
        for _ in 0..2 {
            assert_eq!(both.handle_frame(&on("fast")).0, want_fast);
            assert_eq!(both.handle_frame(&on("slow")).0, want_slow);
        }
        assert_eq!(both.registry().counter("serve.table_compiles").get(), 2);
        let dup = vec![("t".to_string(), fast.clone()), ("t".to_string(), slow)];
        let e = Server::with_tables(ServeConfig::default(), dup)
            .err()
            .unwrap();
        assert!(e.message.contains("duplicate table name"), "{e}");
    }

    #[test]
    fn client_models_add_no_metric_names() {
        let s = test_server();
        let names = || -> Vec<String> {
            let text = s.registry().render_prometheus();
            text.lines()
                .filter(|l| l.starts_with("# TYPE"))
                .map(String::from)
                .collect()
        };
        s.handle_frame(&predict_frame(1));
        let before = names();
        // The same directives three lines further down: every label differs.
        let shifted = format!(
            "{{\"op\":\"predict\",\"id\":\"q\",\"model\":\"{}\",\"procs\":2,\
             \"params\":{{\"rounds\":20}}}}",
            pevpm_obs::json::escape(&format!("\n\n\n{SRC}"))
        );
        let (r, _) = s.handle_frame(&shifted);
        assert!(r.contains("line 9: Message"), "{r}");
        assert_eq!(names(), before);
    }

    #[test]
    fn predictions_leave_spans_with_every_stage_and_cache_outcome() {
        let s = test_server();
        s.handle_frame(&predict_frame(1));
        s.handle_frame(&predict_frame(1));
        let spans = s.telemetry().ring().last(10);
        assert_eq!(spans.len(), 2);
        let names: Vec<&str> = spans[1].stages.iter().map(|st| st.name).collect();
        assert_eq!(names, crate::telemetry::STAGES);
        // First request misses both caches, second hits both.
        assert_eq!(spans[0].caches, [("model", false), ("table", false)]);
        assert_eq!(spans[1].caches, [("model", true), ("table", true)]);
        assert_eq!(spans[1].outcome, "ok");
        assert!(spans[1].response_bytes > 0);
        assert_eq!(s.registry().counter("serve.requests.total").get(), 2);
    }

    #[test]
    fn batch_answers_match_one_at_a_time_answers_bitwise() {
        let s = test_server();
        let (single, _) = s.handle_frame(&predict_frame(4));
        let sv = json::parse(&single).unwrap();
        let sresult = sv.get("result").unwrap();
        let body = format!(
            "{{\"model\":\"{}\",\"procs\":2,\"params\":{{\"rounds\":20}},\"reps\":4,\"seed\":3}}",
            pevpm_obs::json::escape(SRC)
        );
        let frame =
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{body},{body},{body}]}}");
        let (resp, _) = s.handle_frame(&frame);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        let items = v.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), 3);
        for item in items {
            assert_eq!(item.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(item.get("result").unwrap(), sresult);
        }
        // 1 metered predict + 3 metered batch items; the frame span is
        // unmetered but lands in the ring.
        assert_eq!(s.registry().counter("serve.requests.total").get(), 4);
        let batch_span = s
            .telemetry()
            .ring()
            .last(10)
            .into_iter()
            .find(|sp| sp.op == "batch")
            .expect("batch frame span recorded");
        let stage_names: Vec<&str> = batch_span.stages.iter().map(|st| st.name).collect();
        assert_eq!(stage_names, ["fanout", "collect"]);
        assert_eq!(batch_span.replica_failures, 0);
    }

    #[test]
    fn every_batch_item_is_timed_however_it_ends() {
        let s = test_server();
        let job_ms = s.registry().histogram("serve.pool.job_ms", 0.0, 250.0, 50);
        let good = format!(
            "{{\"model\":\"{}\",\"procs\":2,\"params\":{{\"rounds\":20}}}}",
            pevpm_obs::json::escape(SRC)
        );
        let refused = "{\"model\":\"// PEVPM Loop iterations =\",\"procs\":2}";
        let frame =
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{good},{refused},{good}]}}");
        let (resp, _) = s.handle_frame(&frame);
        assert!(resp.contains("\"code\":\"input\""), "{resp}");
        assert_eq!(job_ms.count(), 3);
        // ... including by a panic that unwinds out of the pool job: the
        // guard records on its way past.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _timed = RecordElapsedMs {
                into: &job_ms,
                since: Instant::now(),
            };
            std::panic::resume_unwind(Box::new("item fell over"));
        }));
        assert!(unwound.is_err());
        assert_eq!(job_ms.count(), 4);
    }

    #[test]
    fn errors_are_classified_and_never_kill_the_daemon() {
        let s = test_server();
        // Unknown table.
        let (r, _) = s.handle_frame(
            "{\"op\":\"predict\",\"id\":\"x\",\"model\":\"m\",\"procs\":2,\"table\":\"nope\"}",
        );
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("usage"));
        // Unparseable model: input.
        let (r, _) = s.handle_frame(
            "{\"op\":\"predict\",\"id\":\"x\",\"model\":\"// PEVPM Loop iterations =\",\"procs\":2}",
        );
        assert_eq!(
            json::parse(&r).unwrap().get("code").and_then(Json::as_str),
            Some("input")
        );
        let inflight = || s.registry().gauge("serve.inflight").get();
        assert_eq!(inflight(), 0.0, "an erroring prediction stays counted");
        // Garbage frame: usage, id preserved where possible.
        let (r, _) = s.handle_frame("{\"op\":\"predict\",\"id\":\"q\"}");
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("q"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("usage"));
        // A prediction that panics in the engine (no processes).
        let (r, _) = s.handle_frame(&predict_frame(1).replacen("\"procs\":2", "\"procs\":0", 1));
        assert!(r.contains("\"code\":\"panic\""), "{r}");
        assert_eq!(inflight(), 0.0, "a panicking prediction stays counted");
        // A panic unwinding past the guard uncounts its frame too.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _inflight = InFlight::enter(&s.handles.inflight);
            assert_eq!(inflight(), 1.0);
            std::panic::resume_unwind(Box::new("frame fell over"));
        }));
        assert!(unwound.is_err());
        assert_eq!(inflight(), 0.0);
        // The daemon still answers afterwards.
        let (r, _) = s.handle_frame("{\"op\":\"ping\",\"id\":\"alive\"}");
        assert!(json::parse(&r).unwrap().get("ok").and_then(Json::as_bool) == Some(true));
        // Every failure above still left a span with its exit class.
        let outcomes: Vec<&str> = s
            .telemetry()
            .ring()
            .last(10)
            .into_iter()
            .map(|sp| sp.outcome)
            .collect();
        assert_eq!(outcomes, ["usage", "input", "usage", "panic", "ok"]);
    }

    #[test]
    fn admission_control_rejects_oversized_requests_up_front() {
        let cfg = ServeConfig {
            max_reps: 4,
            ..ServeConfig::default()
        };
        let s = Server::with_tables(cfg, vec![("default".to_string(), test_table())]).unwrap();
        let (r, _) = s.handle_frame(&predict_frame(5));
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("budget"), "{r}");
        assert_eq!(s.registry().counter("serve.rejected_admission").get(), 1);
        // No compilation was wasted on the rejected request.
        assert_eq!(s.registry().counter("serve.table_compiles").get(), 0);
        let (r, _) = s.handle_frame(&predict_frame(4));
        assert_eq!(
            json::parse(&r).unwrap().get("ok").and_then(Json::as_bool),
            Some(true),
            "{r}"
        );
    }

    #[test]
    fn server_budget_caps_tighten_requests() {
        let cfg = ServeConfig {
            max_steps: Some(3),
            ..ServeConfig::default()
        };
        let s = Server::with_tables(cfg, vec![("default".to_string(), test_table())]).unwrap();
        let (r, _) = s.handle_frame(&predict_frame(1));
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{r}");
        assert_eq!(v.get("code").and_then(Json::as_str), Some("budget"), "{r}");
    }

    #[test]
    fn stats_exposes_the_cache_counters() {
        let s = test_server();
        s.handle_frame(&predict_frame(1));
        s.handle_frame(&predict_frame(1));
        let (r, _) = s.handle_frame("{\"op\":\"stats\",\"id\":\"s\"}");
        let v = json::parse(&r).unwrap();
        let counters = v
            .get("result")
            .and_then(|r| r.get("counters"))
            .and_then(Json::as_object)
            .unwrap();
        assert_eq!(
            counters.get("serve.table_compiles").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            counters.get("serve.requests").and_then(Json::as_num),
            Some(3.0)
        );
        // The span-derived extensions ride along in the same document.
        let result = v.get("result").unwrap();
        assert!(result
            .get("uptime_secs")
            .and_then(Json::as_num)
            .is_some_and(|u| u >= 0.0));
        assert!(result
            .get("started")
            .and_then(Json::as_str)
            .is_some_and(|s| s.ends_with('Z')));
        let validate = result
            .get("stages")
            .and_then(|st| st.get("validate"))
            .unwrap();
        assert_eq!(validate.get("count").and_then(Json::as_num), Some(2.0));
    }

    #[test]
    fn shutdown_frame_flags_the_loop_to_stop() {
        let s = test_server();
        let (r, stop) = s.handle_frame("{\"op\":\"shutdown\",\"id\":\"z\"}");
        assert!(stop);
        assert!(r.contains("\"ok\":true"));
    }

    #[test]
    fn conn_queue_bounds_and_closes() {
        let q = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        assert!(q.push(c1).is_ok());
        // Full: the stream comes back for shedding.
        assert!(q.push(c2).is_err());
        assert!(q.pop().is_some());
        q.close();
        assert!(q.pop().is_none());
        let c3 = TcpStream::connect(addr).unwrap();
        assert!(q.push(c3).is_err(), "closed queue accepts nothing");
    }

    #[test]
    fn thread_budget_composes_with_the_conn_pool() {
        let cfg = ServeConfig {
            conns: 4,
            threads: 8,
            ..ServeConfig::default()
        };
        let s = Server::with_tables(cfg, vec![("default".to_string(), test_table())]).unwrap();
        assert_eq!(s.conns, 4);
        // 4 workers × request_threads ≤ the 8-core budget.
        assert!(s.request_threads >= 1);
        assert!(s.conns * s.request_threads <= 8);
        // Serial config keeps the classic behavior verbatim.
        let serial = Server::with_tables(
            ServeConfig {
                conns: 1,
                threads: 8,
                ..ServeConfig::default()
            },
            vec![("default".to_string(), test_table())],
        )
        .unwrap();
        assert_eq!(serial.request_threads, 8);
    }
}
