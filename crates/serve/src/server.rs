//! The serve loop: load tables once, compile once, answer forever.
//!
//! The daemon binds a TCP listener, loads every `--db` table at startup
//! (hashing its canonical serialization once for cache keying), and then
//! answers framed requests from a bounded *concurrent* connection layer:
//! a non-blocking accept loop hands accepted streams to a fixed pool of
//! `--conns` worker threads through a bounded queue. Response payloads
//! stay deterministic anyway — every answer depends only on the request
//! (plus the preloaded tables), never on arrival order or neighbouring
//! connections — so concurrency changes wall-clock, not bytes.
//! Evaluation parallelism composes through [`pevpm::ThreadBudget`]:
//! each connection's replication pool gets the per-connection share of
//! `--threads`, so `conns × replication pool` never oversubscribes, and
//! no request can change either factor.
//!
//! Degraded operation is deliberate and observable, in four layers:
//!
//! * **deadlines** — every protocol socket carries `--io-timeout-ms`
//!   read/write deadlines. A peer that stalls *between* frames is idle
//!   and quietly evicted (`serve.conn.idle_closed`); one that stalls
//!   *mid-frame* (slowloris) gets a structured `"timeout"` error frame
//!   and a closed socket (`serve.conn.io_timeouts`), distinguished from
//!   clean EOF (`serve.conn.clean_eof`) and truncated frames
//!   (`serve.conn.truncated`);
//! * **admission control** — a semaphore bounds in-flight predictions
//!   (`--inflight`) with a bounded wait queue (`--queue`); past the
//!   high-water mark the server sheds with an `"overloaded"` response
//!   carrying a `retry_after_ms` hint instead of queueing unboundedly
//!   (`serve.inflight` gauge, `serve.shed.total` counter,
//!   `serve.queue_wait_ms` histogram);
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

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pevpm::replicate::isolated_map;
use pevpm_dist::{io as dist_io, DistTable};
use pevpm_obs::{diag, Registry};

use crate::cache::{fnv1a, ModelCache, TimingCache};
pub use crate::config::{
    ServeConfig, DEFAULT_CONNS, DEFAULT_DRAIN_MS, DEFAULT_IO_TIMEOUT_MS, DEFAULT_SHED_RETRY_MS,
};
use crate::conn::{ConnQueue, ConnTracker, TrackerGuard};
use crate::gate::{Admission, Gate, GatePermit};
use crate::plan::{self, EvalOutcome, PlanError, PredictRequest};
use crate::proto::{self, FrameRead, Request};
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
const PENDING_PER_WORKER: usize = 8;

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

struct LoadedTable {
    hash: u64,
    table: Arc<DistTable>,
}

/// The prediction daemon: preloaded tables, content-addressed caches, a
/// metrics registry, request telemetry, and a bound listener.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    tables: HashMap<String, LoadedTable>,
    models: ModelCache,
    timings: TimingCache,
    registry: Arc<Registry>,
    telemetry: Arc<Telemetry>,
    // Bound at construction (so the sidecar port is known before `run`),
    // taken and spawned by `run`.
    http: Mutex<Option<HttpServer>>,
    gate: Gate,
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
        let mut map = HashMap::new();
        for (name, table) in tables {
            let hash = fnv1a(dist_io::write_table(&table).as_bytes());
            if map
                .insert(
                    name.clone(),
                    LoadedTable {
                        hash,
                        table: Arc::new(table),
                    },
                )
                .is_some()
            {
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
        let max_inflight = if cfg.inflight == 0 {
            conns
        } else {
            cfg.inflight
        };
        let max_queue = cfg.queue.unwrap_or(max_inflight);
        let io_timeout = if cfg.io_timeout_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(cfg.io_timeout_ms))
        };
        let gate = Gate::new(max_inflight, max_queue);
        registry.gauge("serve.inflight").set(0.0);
        Ok(Server {
            cfg,
            listener,
            tables: map,
            models,
            timings,
            registry,
            telemetry,
            http: Mutex::new(http),
            gate,
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
        // A previous run's drain closed the gate; re-arm it.
        self.gate.open();
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
        // Requests parked in the admission queue are not in flight —
        // shed them now so their workers exit under the deadline instead
        // of evaluating into force-closed sockets long past it.
        self.gate.close();
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
        self.registry.counter("serve.shed.total").inc();
        // Accepted sockets can inherit the listener's O_NONBLOCK on
        // BSD-derived platforms; the shed frame needs a blocking write
        // bounded by the short deadline below.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        let mut writer = BufWriter::new(stream);
        let _ = proto::write_frame(
            &mut writer,
            &proto::overloaded_response("", self.cfg.shed_retry_ms),
        );
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
        let mut writer = BufWriter::new(stream);
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                break Ok(false);
            }
            match proto::read_frame_deadline(&mut reader, proto::MAX_FRAME) {
                Ok(FrameRead::Frame(frame)) => {
                    busy.store(true, Ordering::SeqCst);
                    // handle_frame already isolates prediction panics; a
                    // second net here keeps even a control-path panic from
                    // taking the worker thread (and its slot) down.
                    let handled = catch_unwind(AssertUnwindSafe(|| self.handle_frame(&frame)));
                    let (response, shutdown) = handled.unwrap_or_else(|_| {
                        self.registry.counter("serve.panics_isolated").inc();
                        (
                            proto::err_response("", "panic", "request handler panicked"),
                            false,
                        )
                    });
                    // Still busy while the response is on its way out: a
                    // drain that saw this connection idle here would close
                    // the socket under a half-written frame.
                    let written = proto::write_frame(&mut writer, &response);
                    busy.store(false, Ordering::SeqCst);
                    written?;
                    if shutdown {
                        break Ok(true);
                    }
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
        self.registry.counter("serve.requests").inc();
        let request = match proto::parse_request(frame) {
            Ok(r) => r,
            Err((id, e)) => {
                let timer = self.telemetry.begin("invalid", false);
                let resp = proto::err_response(&id, e.kind.code(), &e.message);
                timer.finish(e.kind.code(), resp.len());
                return (resp, false);
            }
        };
        match request {
            Request::Ping { id } => {
                let timer = self.telemetry.begin("ping", false);
                let resp = proto::ok_response(&id, "{\"kind\":\"pong\"}");
                timer.finish("ok", resp.len());
                (resp, false)
            }
            Request::Stats { id } => {
                let timer = self.telemetry.begin("stats", false);
                let resp = proto::ok_response(&id, &self.telemetry.stats_json());
                timer.finish("ok", resp.len());
                (resp, false)
            }
            Request::Shutdown { id } => {
                let timer = self.telemetry.begin("shutdown", false);
                let resp = proto::ok_response(&id, "{\"kind\":\"shutdown\"}");
                timer.finish("ok", resp.len());
                (resp, true)
            }
            Request::Predict { id, table, req } => {
                let permit = match self.admit_inflight(&id) {
                    Ok(p) => p,
                    Err(shed) => return (shed, false),
                };
                let mut timer = self.telemetry.begin("predict", true);
                let (resp, outcome) =
                    match self.predict_guarded(&table, &req, self.request_threads, &mut timer) {
                        Ok(result) => (proto::ok_response(&id, &result), "ok"),
                        Err(e) => (
                            proto::err_response(&id, e.kind_code(), &e.message()),
                            e.kind_code(),
                        ),
                    };
                timer.finish(outcome, resp.len());
                drop(permit);
                (resp, false)
            }
            Request::Batch { id, items } => {
                let permit = match self.admit_inflight(&id) {
                    Ok(p) => p,
                    Err(shed) => return (shed, false),
                };
                let resp = self.handle_batch(&id, &items);
                drop(permit);
                (resp, false)
            }
        }
    }

    /// Take an in-flight permit for a prediction-carrying frame, or shed.
    /// Control ops (`ping`, `stats`, `shutdown`) bypass the gate — they
    /// must stay answerable while the daemon is saturated. On admission
    /// the queue wait lands in `serve.queue_wait_ms` and the
    /// `serve.inflight` gauge is refreshed; on shed the frame gets an
    /// `"overloaded"` response carrying the `retry_after_ms` hint, which
    /// is always safe for the peer to act on (the request never started).
    fn admit_inflight(&self, id: &str) -> Result<GatePermit<'_>, String> {
        match self.gate.acquire() {
            Admission::Admitted { waited } => {
                self.registry
                    .histogram("serve.queue_wait_ms", 0.0, 250.0, 50)
                    .record(waited.as_secs_f64() * 1e3);
                self.registry
                    .gauge("serve.inflight")
                    .set(self.gate.inflight() as f64);
                Ok(GatePermit {
                    gate: &self.gate,
                    registry: &self.registry,
                })
            }
            Admission::Shed => {
                self.registry.counter("serve.shed.total").inc();
                let timer = self.telemetry.begin("shed", false);
                let resp = proto::overloaded_response(id, self.cfg.shed_retry_ms);
                timer.finish("overloaded", resp.len());
                Err(resp)
            }
        }
    }

    fn handle_batch(&self, id: &str, items: &[(String, PredictRequest)]) -> String {
        // Fan the batch across the replication pool. Each item evaluates
        // single-threaded inside its slot; replication results are
        // bitwise invariant to thread count, so this cannot change any
        // answer — only the wall-clock. The frame itself gets an
        // unmetered span (fanout/collect stages, failed-item count); each
        // item gets its own metered span, so stage histogram counts still
        // equal the number of predictions served.
        let mut frame_timer = self.telemetry.begin("batch", false);
        let pool_job_ms = self.registry.histogram("serve.pool.job_ms", 0.0, 250.0, 50);
        let (slots, _profile) = frame_timer.stage("fanout", || {
            isolated_map(items.len(), self.request_threads, |i| {
                let _timed = RecordElapsedMs {
                    into: &pool_job_ms,
                    since: Instant::now(),
                };
                let (table, req) = &items[i];
                let mut item_timer = self.telemetry.begin("batch-item", true);
                match self.predict_guarded(table, req, 1, &mut item_timer) {
                    Ok(result) => {
                        item_timer.finish("ok", result.len());
                        Ok(result)
                    }
                    Err(e) => {
                        let code = e.kind_code();
                        item_timer.finish(code, 0);
                        Err((code.to_string(), e.message()))
                    }
                }
            })
        });
        let (resp, failed) = frame_timer.stage("collect", || {
            let rendered: Vec<Result<String, (String, String)>> = slots
                .into_iter()
                .map(|slot| match slot {
                    Ok(result) => Ok(result),
                    Err(pevpm::replicate::JobError::Err((code, msg))) => Err((code, msg)),
                    // `isolated_map` already caught the panic; report it
                    // as a per-item failure, daemon intact.
                    Err(pevpm::replicate::JobError::Panic(p)) => {
                        self.registry.counter("serve.panics_isolated").inc();
                        Err(("panic".to_string(), p.to_string()))
                    }
                })
                .collect();
            let failed = rendered.iter().filter(|r| r.is_err()).count();
            (
                proto::ok_response(id, &proto::render_batch(&rendered)),
                failed,
            )
        });
        frame_timer.set_reps(items.len());
        frame_timer.set_replica_failures(failed);
        let bytes = resp.len();
        frame_timer.finish(if failed == 0 { "ok" } else { "partial" }, bytes);
        resp
    }

    /// One prediction with the request boundary hardened: any panic that
    /// escapes the plan layer and the replication pool becomes a
    /// `RequestError::Panic`, never a daemon crash. The timer outlives
    /// the `catch_unwind`, so even a panicking request leaves a span
    /// (flagged `panicked`, minus the stage that blew up).
    fn predict_guarded(
        &self,
        table: &str,
        req: &PredictRequest,
        threads: usize,
        timer: &mut RequestTimer<'_>,
    ) -> Result<String, RequestError> {
        match catch_unwind(AssertUnwindSafe(|| {
            self.predict(table, req, threads, timer)
        })) {
            Ok(r) => r.map_err(RequestError::Plan),
            Err(payload) => {
                self.registry.counter("serve.panics_isolated").inc();
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
            self.registry.counter("serve.rejected_admission").inc();
            return Err(PlanError::budget(format!(
                "admission: {} replications exceed the server limit of {}",
                req.reps, self.cfg.max_reps
            )));
        }
        Ok(())
    }

    /// The cached-plan prediction path shared by `predict` and `batch`.
    /// Each pipeline step runs as a named timer stage.
    fn predict(
        &self,
        table_name: &str,
        req: &PredictRequest,
        threads: usize,
        timer: &mut RequestTimer<'_>,
    ) -> Result<String, PlanError> {
        timer.set_reps(req.reps);
        timer.set_quorum(req.quorum.is_some());
        let (loaded, mode) = timer.stage("validate", || {
            self.admit(req)?;
            let loaded = self.tables.get(table_name).ok_or_else(|| {
                let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
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
            Ok::<_, PlanError>((loaded, mode))
        })?;
        let (model, model_hit) = timer.stage("model", || {
            self.models.get_or_parse(&req.model_src, "request model")
        })?;
        timer.cache("model", model_hit);
        let (timing, table_hit) = timer.stage("compile", || {
            self.timings.get_or_build(
                loaded.hash,
                &loaded.table,
                mode,
                req.pingpong,
                req.compile_options(),
            )
        })?;
        timer.cache("table", table_hit);
        let outcome = timer.stage("eval", || {
            // The server's budget caps tighten whatever the request asked
            // for; a request axis the server also caps takes the minimum.
            let mut req = req.clone();
            req.threads = threads;
            if let Some(cap) = self.cfg.max_steps {
                req.max_steps = Some(req.max_steps.map_or(cap, |n| n.min(cap)));
            }
            if let Some(cap) = self.cfg.max_virtual_secs {
                req.max_virtual_secs = Some(req.max_virtual_secs.map_or(cap, |s| s.min(cap)));
            }
            // Adaptive replication ceiling tightens like the budget axes:
            // a precision request may not run more replications than the
            // daemon's `--max-reps` cap, whatever ceiling it asked for.
            if self.cfg.max_reps > 0 && req.precision.is_some() {
                let cap = self.cfg.max_reps;
                req.max_reps = Some(req.max_reps.map_or(cap, |n| n.min(cap)));
            }
            // Engine metrics (vm.*) land in the daemon registry,
            // surfacing through `stats` and /metrics.
            let cfg = req
                .eval_config()?
                .with_metrics(Arc::clone(self.telemetry.registry()));
            plan::evaluate_plan(&model, &cfg, &timing, req.effective_reps())
        })?;
        if let EvalOutcome::Batch(mc) = &outcome {
            timer.set_replica_failures(mc.failures.len());
            if let Some(a) = &mc.adaptive {
                timer.set_reps(a.reps);
                timer.set_reps_saved(a.reps_saved());
                self.registry
                    .counter("serve.reps.saved")
                    .add(a.reps_saved() as u64);
                self.registry
                    .histogram(
                        "serve.reps.chosen",
                        crate::telemetry::REPS_CHOSEN_BINS.0,
                        crate::telemetry::REPS_CHOSEN_BINS.1,
                        crate::telemetry::REPS_CHOSEN_BINS.2,
                    )
                    .record(a.reps as f64);
            }
        }
        Ok(timer.stage("render", || proto::render_outcome(&outcome)))
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

    fn message(&self) -> String {
        match self {
            RequestError::Plan(e) => e.message.clone(),
            RequestError::Panic(m) => m.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::lock_recover;
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
        let mut t = DistTable::new();
        let mut h = pevpm_dist::Histogram::new(0.0, 1e-6);
        for i in 0..64 {
            h.add(1e-6 * f64::from(i % 11));
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

    #[test]
    fn predictions_leave_spans_with_every_stage_and_cache_outcome() {
        let s = test_server();
        s.handle_frame(&predict_frame(1));
        s.handle_frame(&predict_frame(1));
        let spans = s.telemetry().ring().last(10);
        assert_eq!(spans.len(), 2);
        let names: Vec<&str> = spans[1].stages.iter().map(|st| st.name.as_str()).collect();
        assert_eq!(names, crate::telemetry::STAGES);
        // First request misses both caches, second hits both.
        assert_eq!(
            spans[0].caches,
            vec![("model".to_string(), false), ("table".to_string(), false)]
        );
        assert_eq!(
            spans[1].caches,
            vec![("model".to_string(), true), ("table".to_string(), true)]
        );
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
        let stage_names: Vec<&str> = batch_span
            .stages
            .iter()
            .map(|st| st.name.as_str())
            .collect();
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
        // Garbage frame: usage, id preserved where possible.
        let (r, _) = s.handle_frame("{\"op\":\"predict\",\"id\":\"q\"}");
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("q"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("usage"));
        // The daemon still answers afterwards.
        let (r, _) = s.handle_frame("{\"op\":\"ping\",\"id\":\"alive\"}");
        assert!(json::parse(&r).unwrap().get("ok").and_then(Json::as_bool) == Some(true));
        // Every failure above still left a span with its exit class.
        let outcomes: Vec<String> = s
            .telemetry()
            .ring()
            .last(10)
            .into_iter()
            .map(|sp| sp.outcome)
            .collect();
        assert_eq!(outcomes, ["usage", "input", "usage", "ok"]);
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
    fn gate_admits_queues_and_sheds_in_order() {
        let gate = Gate::new(1, 1);
        assert!(matches!(gate.acquire(), Admission::Admitted { .. }));
        assert_eq!(gate.inflight(), 1);
        // Second acquirer queues; third (queue full) would shed. Exercise
        // the queue with a real waiter to prove release wakes it.
        let waited = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match gate.acquire() {
                Admission::Admitted { waited } => waited,
                Admission::Shed => panic!("queued acquirer was shed"),
            });
            // Wait until the waiter is parked in the queue.
            while lock_recover(&gate.state).waiting == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(matches!(gate.acquire(), Admission::Shed));
            gate.release();
            waiter.join().unwrap()
        });
        assert!(waited >= Duration::ZERO);
        assert_eq!(gate.inflight(), 1);
        gate.release();
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn drained_gate_sheds_queued_waiters_immediately() {
        let gate = Gate::new(1, 4);
        assert!(matches!(gate.acquire(), Admission::Admitted { .. }));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.acquire());
            while lock_recover(&gate.state).waiting == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Drain: the parked waiter wakes and sheds without waiting
            // for the permit to free; later arrivals shed up front.
            gate.close();
            assert!(matches!(waiter.join().unwrap(), Admission::Shed));
            assert!(matches!(gate.acquire(), Admission::Shed));
        });
        assert_eq!(lock_recover(&gate.state).waiting, 0);
        // Re-arming restores admission for the next run.
        gate.release();
        gate.open();
        assert!(matches!(gate.acquire(), Admission::Admitted { .. }));
    }

    #[test]
    fn saturated_gate_sheds_predictions_with_a_retry_hint() {
        let cfg = ServeConfig {
            inflight: 1,
            queue: Some(0),
            shed_retry_ms: 70,
            ..ServeConfig::default()
        };
        let s = Server::with_tables(cfg, vec![("default".to_string(), test_table())]).unwrap();
        // Occupy the single permit directly; with zero queue slots the
        // next prediction frame must shed rather than wait.
        assert!(matches!(s.gate.acquire(), Admission::Admitted { .. }));
        let (r, stop) = s.handle_frame(&predict_frame(1));
        assert!(!stop);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{r}");
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_num), Some(70.0));
        assert_eq!(s.registry().counter("serve.shed.total").get(), 1);
        // Control ops bypass the gate even while saturated.
        let (r, _) = s.handle_frame("{\"op\":\"ping\",\"id\":\"alive\"}");
        assert!(r.contains("\"ok\":true"));
        // Releasing the permit restores service.
        s.gate.release();
        let (r, _) = s.handle_frame(&predict_frame(1));
        assert!(r.contains("\"ok\":true"), "{r}");
        // The shed left an "overloaded" span in the ring.
        assert!(s
            .telemetry()
            .ring()
            .last(10)
            .iter()
            .any(|sp| sp.op == "shed" && sp.outcome == "overloaded"));
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
