//! A minimal blocking client for the serve protocol, used by the
//! `pevpm client` subcommand, the test suite, and the benchmark.
//!
//! The client is deliberately conservative about retries. Two failure
//! classes are safe to retry and are retried (bounded, with
//! deterministic seeded exponential backoff): **connect failures** (the
//! request never reached the daemon) and **`"overloaded"` responses**
//! (the daemon itself promises the request never started and supplies a
//! `retry_after_ms` hint; the resend dials a fresh connection, since
//! the accept-overflow shed closes the socket right after the frame).
//! Everything else — notably a connection that
//! dies *after* a frame was written — is ambiguous (the daemon may have
//! executed the request before the failure) and is surfaced as an error
//! rather than resent, preserving exactly-once semantics for
//! non-idempotent batch accounting.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pevpm_obs::json::{self, escape, num, Json};

use crate::plan::PredictRequest;
use crate::proto::{self, FrameBuf};

/// Default connect timeout: a blackholed address must fail fast instead
/// of hanging a CLI invocation indefinitely.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 5_000;

/// Client transport policy: timeouts and the bounded-retry budget.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt connect deadline; `None` = the OS default (minutes).
    pub connect_timeout: Option<Duration>,
    /// Read/write deadline on the connected socket; `None` = none.
    pub io_timeout: Option<Duration>,
    /// Retry budget shared by connect failures and `"overloaded"`
    /// responses; 0 disables retrying entirely.
    pub retries: u32,
    /// Base backoff doubled per attempt (jittered, capped at 64× base).
    pub backoff_base_ms: u64,
    /// Seed for the deterministic backoff jitter, so scripted runs
    /// replay identical schedules.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_millis(DEFAULT_CONNECT_TIMEOUT_MS)),
            io_timeout: None,
            retries: 3,
            backoff_base_ms: 50,
            jitter_seed: 0x5eed,
        }
    }
}

/// splitmix64: a tiny deterministic generator for backoff jitter (no
/// RNG dependency, fully reproducible from [`ClientConfig::jitter_seed`]).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The jittered exponential backoff for retry `attempt` (0-based):
/// uniform in `[base·2^a/2, base·2^a)`, exponent capped at 6.
fn backoff_ms(base_ms: u64, attempt: u32, jitter: &mut u64) -> u64 {
    let full = base_ms.saturating_mul(1 << attempt.min(6)).max(1);
    let half = full / 2;
    half + splitmix64(jitter) % (full - half).max(1)
}

/// A connected client holding one protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// The outgoing frame, reused request after request.
    out: FrameBuf,
    addr: String,
    cfg: ClientConfig,
    jitter: u64,
}

impl Client {
    /// Connect to a daemon at `addr` (`host:port`) with the default
    /// transport policy (5 s connect timeout, 3 retries).
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connect with an explicit transport policy. Connect-refused and
    /// timed-out attempts are retried up to `cfg.retries` times with
    /// jittered exponential backoff — safe, because nothing was sent.
    pub fn connect_with(addr: &str, cfg: &ClientConfig) -> io::Result<Client> {
        let mut jitter = cfg.jitter_seed;
        let (reader, stream) = open_connection(addr, cfg, &mut jitter)?;
        Ok(Client {
            reader,
            stream,
            out: FrameBuf::new(),
            addr: addr.to_string(),
            cfg: cfg.clone(),
            jitter,
        })
    }

    /// Send one request frame and read one response frame. No retries at
    /// this layer: an I/O failure after the frame was written is
    /// ambiguous and must surface to the caller.
    pub fn request(&mut self, frame: &str) -> io::Result<String> {
        send_frame(&mut self.out, &mut self.stream, frame)?;
        proto::read_frame(&mut self.reader, proto::MAX_FRAME)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// Send one request frame, resending (bounded, backed off) only when
    /// the daemon answers `"overloaded"` — the one failure the server
    /// guarantees never started executing. The `retry_after_ms` hint
    /// floors the backoff. Each resend travels on a *fresh* connection:
    /// the server's accept-overflow shed writes the overloaded frame and
    /// closes the socket, so the old connection may be dead (this is
    /// still safe — the shed request never started, and the resend is
    /// only ever written to the new connection). I/O errors are NOT
    /// retried.
    pub fn request_with_retry(&mut self, frame: &str) -> io::Result<String> {
        let mut attempt = 0u32;
        loop {
            let resp = self.request(frame)?;
            match parse_overloaded(&resp) {
                Some(hint_ms) if attempt < self.cfg.retries => {
                    let wait = backoff_ms(self.cfg.backoff_base_ms, attempt, &mut self.jitter)
                        .max(hint_ms);
                    std::thread::sleep(Duration::from_millis(wait));
                    let (reader, stream) =
                        open_connection(&self.addr, &self.cfg, &mut self.jitter)?;
                    self.reader = reader;
                    self.stream = stream;
                    attempt += 1;
                }
                _ => return Ok(resp),
            }
        }
    }

    /// Send a `predict` built from a [`PredictRequest`]. Retries on
    /// `"overloaded"` (safe: the daemon sheds before execution).
    pub fn predict(&mut self, id: &str, table: &str, req: &PredictRequest) -> io::Result<String> {
        self.request_with_retry(&predict_frame(id, table, req))
    }

    /// Send a `batch` of `(table, request)` items. Retries on
    /// `"overloaded"` (safe: the daemon sheds before execution).
    pub fn batch(&mut self, id: &str, items: &[(String, PredictRequest)]) -> io::Result<String> {
        self.batch_with(id, items, false)
    }

    /// [`Client::batch`] with common random numbers: `crn` asks the
    /// server to rewrite every item to one shared base seed, so what-if
    /// arms are compared on paired Monte-Carlo noise.
    pub fn batch_with(
        &mut self,
        id: &str,
        items: &[(String, PredictRequest)],
        crn: bool,
    ) -> io::Result<String> {
        let bodies: Vec<String> = items
            .iter()
            .map(|(table, req)| predict_body(table, req))
            .collect();
        self.request_with_retry(&format!(
            "{{\"op\":\"batch\",\"id\":\"{}\"{}, \"requests\":[{}]}}",
            escape(id),
            if crn { ",\"crn\":true" } else { "" },
            bodies.join(",")
        ))
    }

    /// Ask for the server's metrics registry.
    pub fn stats(&mut self, id: &str) -> io::Result<String> {
        self.request(&format!("{{\"op\":\"stats\",\"id\":\"{}\"}}", escape(id)))
    }

    /// Liveness probe.
    pub fn ping(&mut self, id: &str) -> io::Result<String> {
        self.request(&format!("{{\"op\":\"ping\",\"id\":\"{}\"}}", escape(id)))
    }

    /// Ask the daemon to exit its serve loop.
    pub fn shutdown(&mut self, id: &str) -> io::Result<String> {
        self.request(&format!(
            "{{\"op\":\"shutdown\",\"id\":\"{}\"}}",
            escape(id)
        ))
    }
}

/// Send `frame` through the reused buffer `out`, which is left empty
/// whether or not the write succeeds: a failed frame must not ride along
/// with the next one.
fn send_frame<W: Write>(out: &mut FrameBuf, w: &mut W, frame: &str) -> io::Result<()> {
    out.clear();
    out.push_str(frame);
    let sent = out.send(w);
    out.trim();
    sent
}

/// Dial `addr` under `cfg`'s retry policy and arm the socket options
/// (nodelay, I/O deadlines); frames are written to the stream whole, so
/// it needs no write buffer. Shared by the initial connect and the
/// reconnect-on-overloaded path, threading one jitter stream through
/// both so scripted runs replay identical backoff schedules.
fn open_connection(
    addr: &str,
    cfg: &ClientConfig,
    jitter: &mut u64,
) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    let mut attempt = 0u32;
    let stream = loop {
        match connect_once(addr, cfg.connect_timeout) {
            Ok(s) => break s,
            Err(e) if attempt < cfg.retries && connect_retryable(&e) => {
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    cfg.backoff_base_ms,
                    attempt,
                    jitter,
                )));
                attempt += 1;
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!(
                        "connect {addr} failed after {attempt} retr{}: {e}",
                        if attempt == 1 { "y" } else { "ies" }
                    ),
                ))
            }
        }
    };
    // Frames are written whole and the peer replies immediately;
    // Nagle + delayed ACK would stall multi-segment frames ~40 ms.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(cfg.io_timeout)?;
    stream.set_write_timeout(cfg.io_timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

/// One connect attempt across every resolved address, with a per-address
/// deadline when configured.
fn connect_once(addr: &str, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr);
    };
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{addr}: no addresses resolved"),
        )
    }))
}

/// Whether a connect failure is worth retrying: the daemon may be
/// restarting (refused) or the network momentarily black (timed out).
fn connect_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// If `resp` is an `"overloaded"` shed response, its `retry_after_ms`
/// hint (0 when absent); `None` for every other response.
fn parse_overloaded(resp: &str) -> Option<u64> {
    let v = json::parse(resp).ok()?;
    if v.get("code").and_then(Json::as_str) != Some("overloaded") {
        return None;
    }
    Some(
        v.get("retry_after_ms")
            .and_then(Json::as_num)
            .map_or(0, |ms| ms.max(0.0) as u64),
    )
}

/// The JSON body shared by `predict` frames and `batch` items. Optional
/// fields are emitted only when they differ from the protocol defaults,
/// keeping frames small and byte-stable. [`PredictRequest::threads`] does
/// not travel: the daemon's `--threads` / `--conns` decide that.
pub fn predict_body(table: &str, req: &PredictRequest) -> String {
    let mut out = format!(
        "{{\"model\":\"{}\",\"table\":\"{}\",\"procs\":{}",
        escape(&req.model_src),
        escape(table),
        req.procs
    );
    if req.mode != "dist" {
        out.push_str(&format!(",\"mode\":\"{}\"", escape(&req.mode)));
    }
    if req.pingpong {
        out.push_str(",\"pingpong\":true");
    }
    if req.exact_quantiles {
        out.push_str(",\"exact_quantiles\":true");
    }
    if !req.params.is_empty() {
        out.push_str(",\"params\":{");
        for (i, (k, v)) in req.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(k), num(*v)));
        }
        out.push('}');
    }
    if req.seed != 1 {
        out.push_str(&format!(",\"seed\":{}", req.seed));
    }
    if req.reps != 1 {
        out.push_str(&format!(",\"reps\":{}", req.reps));
    }
    if let Some(q) = req.quorum {
        out.push_str(&format!(",\"quorum\":{q}"));
    }
    if let Some(p) = req.precision {
        out.push_str(&format!(",\"precision\":{}", num(p)));
    }
    if let Some(n) = req.min_reps {
        out.push_str(&format!(",\"min_reps\":{n}"));
    }
    if let Some(n) = req.max_reps {
        out.push_str(&format!(",\"max_reps\":{n}"));
    }
    if req.antithetic {
        out.push_str(",\"antithetic\":true");
    }
    if let Some(n) = req.max_steps {
        out.push_str(&format!(",\"max_steps\":{n}"));
    }
    if let Some(s) = req.max_virtual_secs {
        out.push_str(&format!(",\"max_virtual_secs\":{}", num(s)));
    }
    out.push('}');
    out
}

/// A full `predict` frame for `req` against `table`, tagged `id`.
pub fn predict_frame(id: &str, table: &str, req: &PredictRequest) -> String {
    let body = predict_body(table, req);
    // Splice the op and id into the body object.
    format!(
        "{{\"op\":\"predict\",\"id\":\"{}\",{}",
        escape(id),
        &body[1..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, Request};
    use std::io::BufWriter;

    #[test]
    fn client_frames_parse_back_to_the_same_request() {
        // Every wire field set and unset: all defaults, all set, each alone.
        let set: [fn(&mut PredictRequest); 14] = [
            |r| r.mode = "min".to_string(),
            |r| r.pingpong = true,
            |r| r.exact_quantiles = true,
            |r| r.params = vec![("a \"b\"".to_string(), -0.5), ("n".to_string(), 3.0)],
            |r| r.seed = u64::from(u32::MAX) + 7,
            |r| r.reps = 64,
            |r| r.quorum = Some(3),
            |r| r.precision = Some(0.0125),
            |r| r.min_reps = Some(5),
            |r| r.max_reps = Some(40),
            |r| r.antithetic = true,
            |r| r.max_steps = Some(1 << 40),
            |r| r.max_virtual_secs = Some(2.5),
            |r| r.model_src = "// PEVPM \u{1f600}\n\t\"quoted\" \\ back".to_string(),
        ];
        let base = PredictRequest::new("// PEVPM src", 4);
        let mut requests = vec![("default".to_string(), base.clone()); 2];
        requests[1].0 = "t \"2\"".to_string();
        for field in set {
            field(&mut requests[1].1);
            requests.push(("perseus".to_string(), base.clone()));
            field(&mut requests.last_mut().unwrap().1);
        }
        let mut emitted = std::collections::BTreeSet::new();
        for (table, req) in &requests {
            let parsed = parse_request(&predict_frame("r1", table, req)).unwrap();
            let expected = Request::Predict {
                id: "r1".to_string(),
                table: table.clone(),
                req: Box::new(req.clone()),
            };
            assert_eq!(parsed, expected);
            let body = json::parse(&predict_body(table, req)).unwrap();
            emitted.extend(body.as_object().unwrap().keys().cloned());
        }
        // The same bodies as one batch: same items, same order.
        let bodies: Vec<String> = requests.iter().map(|(t, r)| predict_body(t, r)).collect();
        let batch = format!(
            "{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{}]}}",
            bodies.join(",")
        );
        let id = "b".to_string();
        let items = requests;
        assert_eq!(parse_request(&batch).unwrap(), Request::Batch { id, items });
        // Encoder and decoder agree on the field set: everything the
        // decoder accepts, the encoder can emit, and nothing else.
        let accepted = proto::PREDICT_BODY_KEYS.split_whitespace();
        assert_eq!(emitted, accepted.map(str::to_string).collect());
    }

    #[test]
    fn defaults_are_omitted_from_the_wire() {
        // ... and so is the thread count, which is not the sender's to set.
        let mut req = PredictRequest::new("m", 2);
        req.threads = 8;
        let body = predict_body("default", &req);
        assert_eq!(body, "{\"model\":\"m\",\"table\":\"default\",\"procs\":2}");
    }

    /// A writer whose first write fails.
    #[derive(Default)]
    struct FailsOnce {
        failed: bool,
        bytes: Vec<u8>,
    }

    impl Write for FailsOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.failed, true) {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "once"));
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_send_leaves_nothing_for_the_next_frame() {
        let mut out = FrameBuf::new();
        let mut w = FailsOnce::default();
        assert!(send_frame(&mut out, &mut w, "{\"op\":\"ping\",\"id\":\"1\"}").is_err());
        send_frame(&mut out, &mut w, "{\"op\":\"ping\",\"id\":\"2\"}").unwrap();
        let mut wire = &w.bytes[..];
        let frame = proto::read_frame(&mut wire, proto::MAX_FRAME).unwrap();
        assert_eq!(frame.as_deref(), Some("{\"op\":\"ping\",\"id\":\"2\"}"));
        assert!(wire.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_bounded() {
        let mut j1 = 42u64;
        let mut j2 = 42u64;
        let a: Vec<u64> = (0..5).map(|i| backoff_ms(50, i, &mut j1)).collect();
        let b: Vec<u64> = (0..5).map(|i| backoff_ms(50, i, &mut j2)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, ms) in a.iter().enumerate() {
            let full = 50u64 << i;
            assert!(
                (full / 2..full).contains(ms),
                "attempt {i}: {ms} outside [{}, {})",
                full / 2,
                full
            );
        }
        // The exponent caps: attempt 60 must not overflow.
        let ms = backoff_ms(50, 60, &mut j1);
        assert!(ms < 50 << 7);
    }

    #[test]
    fn overloaded_responses_are_recognized_and_others_are_not() {
        assert_eq!(
            parse_overloaded(&proto::overloaded_response("x", 120)),
            Some(120)
        );
        assert_eq!(
            parse_overloaded("{\"id\":\"x\",\"ok\":false,\"code\":\"usage\",\"error\":\"e\"}"),
            None
        );
        assert_eq!(parse_overloaded("{\"ok\":true}"), None);
        assert_eq!(parse_overloaded("not json"), None);
    }

    #[test]
    fn connect_fails_fast_and_classifies_refusal_as_retryable() {
        // A freed ephemeral port: connection refused, surfaced after the
        // bounded retry budget (kept at 0 here for speed).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let cfg = ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        };
        let err = match Client::connect_with(&format!("127.0.0.1:{port}"), &cfg) {
            Ok(_) => panic!("connect to a closed port must fail"),
            Err(e) => e,
        };
        assert!(connect_retryable(&err), "refused is retryable: {err}");
        assert!(err.to_string().contains("connect"), "{err}");
    }

    #[test]
    fn overloaded_then_ok_is_retried_once_on_a_fresh_connection() {
        // A fake daemon mimicking the accept-overflow shed: it answers
        // the first frame "overloaded" and slams the connection (like
        // the server's shed_connection), then serves the resend on the
        // next accepted connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conns = 0u32;
            let mut frames = 0u32;
            loop {
                let (stream, _) = listener.accept().unwrap();
                conns += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                while let Ok(Some(_frame)) = proto::read_frame(&mut reader, proto::MAX_FRAME) {
                    frames += 1;
                    if frames == 1 {
                        proto::write_frame(&mut writer, &proto::overloaded_response("r", 1))
                            .unwrap();
                        break; // close right after shedding
                    }
                    proto::write_frame(
                        &mut writer,
                        &proto::ok_response("r", "{\"kind\":\"pong\"}"),
                    )
                    .unwrap();
                }
                if frames >= 2 {
                    return (conns, frames);
                }
            }
        });
        let cfg = ClientConfig {
            retries: 3,
            backoff_base_ms: 1,
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(&addr.to_string(), &cfg).unwrap();
        let resp = client
            .request_with_retry("{\"op\":\"ping\",\"id\":\"r\"}")
            .unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        drop(client);
        let (conns, frames) = server.join().unwrap();
        assert_eq!(frames, 2, "one shed, one resend");
        assert_eq!(conns, 2, "the resend travelled on a fresh connection");
    }

    #[test]
    fn io_errors_are_never_retried() {
        // A fake daemon that reads one frame and slams the connection:
        // the ambiguous failure must surface, not resend.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let frame = proto::read_frame(&mut reader, proto::MAX_FRAME);
            drop(stream);
            u32::from(frame.is_ok())
        });
        let cfg = ClientConfig {
            retries: 3,
            backoff_base_ms: 1,
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(&addr.to_string(), &cfg).unwrap();
        let err = match client.request_with_retry("{\"op\":\"ping\",\"id\":\"r\"}") {
            Ok(r) => panic!("mid-stream close must fail, got {r}"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(server.join().unwrap(), 1, "exactly one frame was sent");
    }
}
