//! Transport-robustness integration tests: disconnect classification,
//! misbehaving peers, slowloris eviction under concurrency, load
//! shedding, drain, and bitwise serial-vs-concurrent determinism — all
//! over real sockets.

mod common;

use common::{start_daemon, test_table, SRC};
use pevpm_obs::json::{self, Json};
use pevpm_serve::plan::PredictRequest;
use pevpm_serve::server::PENDING_PER_WORKER;
use pevpm_serve::{proto, Client, ServeConfig, Server};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn request(rounds: f64, seed: u64) -> PredictRequest {
    let mut req = PredictRequest::new(SRC, 2);
    req.params = vec![("rounds".to_string(), rounds)];
    req.seed = seed;
    req.reps = 2;
    req
}

fn counters_of(stats_resp: &str) -> Json {
    let v = json::parse(stats_resp).expect("stats parses");
    v.get("result")
        .and_then(|r| r.get("counters"))
        .expect("counters")
        .clone()
}

fn counter(counters: &Json, name: &str) -> f64 {
    counters.get(name).and_then(Json::as_num).unwrap_or(0.0)
}

/// How long a misbehaving peer waits for the daemon's reaction: far past
/// any `io_timeout_ms` these tests configure.
const REACTION_WAIT: Duration = Duration::from_secs(5);

const PING: &str = "{\"op\":\"ping\",\"id\":\"peer\"}";

/// One way a peer breaks the framing contract. `abuse` opens its own
/// connection, misbehaves, and returns what the daemon did on that
/// connection (see [`reaction`]); `owed` is what the daemon must do.
struct Peer {
    name: &'static str,
    abuse: fn(SocketAddr) -> String,
    owed: &'static str,
}

impl Peer {
    fn run(&self, addr: SocketAddr) {
        assert_eq!((self.abuse)(addr), self.owed, "{}", self.name);
    }
}

/// 2 of the 4 length-prefix bytes, then EOF: closed without a frame
/// (`serve.conn.truncated`).
const TRUNCATED_PREFIX: Peer = Peer {
    name: "truncated prefix",
    abuse: |addr| {
        let mut s = connect(addr);
        s.write_all(&[0, 0]).expect("write");
        s.shutdown(Shutdown::Write).expect("half-close");
        reaction(s)
    },
    owed: "closed",
};

/// A 64-byte frame announced, 9 bytes sent, then silence (slowloris): a
/// structured timeout error (`serve.conn.io_timeouts`).
const STALLED_WRITE: Peer = Peer {
    name: "mid-frame stall",
    abuse: |addr| {
        let mut s = connect(addr);
        s.write_all(&64u32.to_be_bytes()).expect("prefix");
        s.write_all(b"{\"op\":\"p").expect("partial body");
        reaction(s)
    },
    owed: "error:timeout",
};

/// The six misbehaving peers, each run against one live daemon.
const PEERS: [Peer; 6] = [
    TRUNCATED_PREFIX,
    STALLED_WRITE,
    // A request, then gone before the response: the daemon's write hits
    // a dead socket and must absorb it.
    Peer {
        name: "half-open",
        abuse: |addr| {
            proto::write_frame(&mut connect(addr), PING).expect("write");
            "gone".to_string()
        },
        owed: "gone",
    },
    // A length past the 16 MiB cap, refused before allocation
    // (`serve.conn.bad_frames`).
    Peer {
        name: "oversized frame",
        abuse: |addr| {
            let mut s = connect(addr);
            let announced = u32::try_from(proto::MAX_FRAME + 1).expect("fits the prefix");
            s.write_all(&announced.to_be_bytes()).expect("prefix");
            reaction(s)
        },
        owed: "error:usage",
    },
    // A well-framed body of invalid UTF-8 (`serve.conn.bad_frames`).
    Peer {
        name: "garbage body",
        abuse: |addr| {
            let mut s = connect(addr);
            s.write_all(&32u32.to_be_bytes()).expect("prefix");
            s.write_all(&[0xFF; 32]).expect("body");
            reaction(s)
        },
        owed: "error:usage",
    },
    // A valid request whose response is read one byte at a time.
    Peer {
        name: "slow reader",
        abuse: |addr| {
            let mut s = connect(addr);
            proto::write_frame(&mut s, PING).expect("write");
            reaction(Trickle(s, 0))
        },
        owed: "ok",
    },
];

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(REACTION_WAIT))
        .expect("read deadline");
    s
}

/// What the daemon sent back: `"ok"`, `"error:<code>"`, or `"closed"`
/// (EOF or reset without a frame). Silence past [`REACTION_WAIT`] fails.
fn reaction(stream: impl Read) -> String {
    match proto::read_frame_deadline(&mut BufReader::new(stream), proto::MAX_FRAME) {
        Ok(proto::FrameRead::Frame(frame)) => {
            let v = json::parse(&frame).expect("frame parses");
            match v.get("code").and_then(Json::as_str) {
                Some(code) => format!("error:{code}"),
                None => {
                    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{frame}");
                    "ok".to_string()
                }
            }
        }
        Ok(proto::FrameRead::IdleTimeout) => panic!("no reaction within {REACTION_WAIT:?}"),
        Err(e) if proto::is_timeout(&e) => panic!("reaction stalled: {e}"),
        Ok(proto::FrameRead::CleanEof) | Err(_) => "closed".to_string(),
    }
}

/// A reader that takes one byte per call, pausing before each of the
/// first 16.
struct Trickle(TcpStream, usize);

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.1 < 16 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let one = buf.len().min(1);
        let n = self.0.read(&mut buf[..one])?;
        self.1 += n;
        Ok(n)
    }
}

/// Clean EOF, truncated prefix, and a mid-body stall each land in their
/// own counter on the concurrent server — the three disconnect shapes
/// are observably distinct outcomes, not one generic "error".
#[test]
fn disconnect_classes_stay_distinct_under_concurrency() {
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 2,
            io_timeout_ms: 300,
            ..ServeConfig::default()
        },
        test_table(),
    );

    // Clean EOF: connect, say nothing, close.
    let s = TcpStream::connect(addr).expect("connect");
    s.shutdown(Shutdown::Both).expect("shutdown");
    drop(s);

    TRUNCATED_PREFIX.run(addr);
    STALLED_WRITE.run(addr);

    // Each class ticked its own counter exactly once.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counters = counters_of(&client.stats("s").expect("stats"));
        let clean = counter(&counters, "serve.conn.clean_eof");
        let truncated = counter(&counters, "serve.conn.truncated");
        let timed_out = counter(&counters, "serve.conn.io_timeouts");
        if clean >= 1.0 && truncated >= 1.0 && timed_out >= 1.0 {
            assert_eq!((clean, truncated, timed_out), (1.0, 1.0, 1.0));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counters never converged: clean={clean} truncated={truncated} timeout={timed_out}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// A stalled mid-frame peer is evicted within `--io-timeout-ms` while a
/// second connection keeps being served the whole time.
#[test]
fn stalled_peer_is_evicted_while_others_are_served() {
    let io_timeout_ms = 400u64;
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 2,
            io_timeout_ms,
            ..ServeConfig::default()
        },
        test_table(),
    );

    // Occupy one worker with a slowloris peer.
    let stalled = TcpStream::connect(addr).expect("connect");
    let mut w = stalled.try_clone().expect("clone");
    w.write_all(&128u32.to_be_bytes()).expect("prefix");
    w.write_all(b"{\"id\":").expect("partial");
    w.flush().expect("flush");
    let t0 = Instant::now();

    // The other connection answers pings throughout the stall window.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    while t0.elapsed() < Duration::from_millis(io_timeout_ms + 100) {
        let resp = client.ping("alive").expect("ping during stall");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The stalled peer got its timeout frame no later than the deadline
    // plus scheduling slack, and the socket was closed after it.
    stalled
        .set_read_timeout(Some(REACTION_WAIT))
        .expect("timeout");
    let mut reader = BufReader::new(stalled);
    match proto::read_frame_deadline(&mut reader, proto::MAX_FRAME).expect("reaction") {
        proto::FrameRead::Frame(frame) => {
            assert!(frame.contains("\"code\":\"timeout\""), "{frame}");
        }
        other => panic!("expected timeout frame, got {other:?}"),
    }
    let evicted = t0.elapsed();
    assert!(
        evicted <= Duration::from_millis(io_timeout_ms + 2_000),
        "timeout frame took {evicted:?} at io_timeout_ms {io_timeout_ms}"
    );
    assert!(matches!(
        proto::read_frame_deadline(&mut reader, proto::MAX_FRAME),
        Ok(proto::FrameRead::CleanEof)
    ));
    let counters = counters_of(&client.stats("s").expect("stats"));
    assert_eq!(counter(&counters, "serve.conn.io_timeouts"), 1.0);
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Every misbehaving peer gets the reaction it is owed, and after each
/// one a fresh connection is still answered.
#[test]
fn chaos_modes_never_kill_the_daemon() {
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 2,
            io_timeout_ms: 300,
            ..ServeConfig::default()
        },
        test_table(),
    );
    for peer in &PEERS {
        peer.run(addr);
        let mut fresh = Client::connect(&addr.to_string()).expect("connect");
        let pong = fresh.ping("alive").expect("ping");
        assert!(pong.contains("\"ok\":true"), "after {}: {pong}", peer.name);
    }

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    // A seventh abuse, well-framed: 10 KB of `[`. Before the JSON parser
    // bounded its recursion this overflowed the connection worker's stack,
    // an abort no `catch_unwind` contains; now it is a usage error on a
    // connection that stays open.
    let deep = client.request(&"[".repeat(10_000)).expect("an error frame");
    assert!(deep.contains("\"code\":\"usage\""), "{deep}");
    assert!(deep.contains("nesting deeper than"), "{deep}");
    assert!(client.ping("alive").expect("ping").contains("\"ok\":true"));
    let counters = counters_of(&client.stats("s").expect("stats"));
    assert_eq!(counter(&counters, "serve.panics_isolated"), 0.0);
    assert!(counter(&counters, "serve.conn.io_timeouts") >= 1.0);
    assert!(counter(&counters, "serve.conn.bad_frames") >= 2.0);
    assert!(counter(&counters, "serve.conn.truncated") >= 1.0);
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// With the only worker busy on a heavy batch, new connections fill the
/// pending queue until the accept loop sheds one with the documented
/// `"overloaded"` frame, and every queued connection is answered once
/// the batch completes. The counters are read in process: a `stats`
/// connection would itself queue behind the busy worker.
#[test]
fn saturation_sheds_instead_of_queueing() {
    let server = Arc::new(
        Server::with_tables(
            ServeConfig {
                conns: 1,
                drain_ms: 30_000,
                ..ServeConfig::default()
            },
            vec![("default".to_string(), test_table())],
        )
        .expect("bind"),
    );
    let addr = server.local_addr().expect("local addr");
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("daemon run"))
    };
    let registry = server.registry();
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // The worker serves a connection until its peer closes it, so the
    // heavy batch's connection holds it however soon the batch is done.
    let items: Vec<(String, PredictRequest)> = (0..64)
        .map(|i| ("default".to_string(), request(400.0, 7 + i)))
        .collect();
    let heavy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr.to_string()).expect("connect heavy");
        let resp = c.batch("heavy", &items).expect("heavy batch");
        (c, resp)
    });
    wait_for("the worker never took the heavy batch", &|| {
        registry.counter("serve.requests").get() == 1
    });

    // The accept loop handles connections one at a time, in order: once
    // the newest one is accepted, every earlier one is queued or shed.
    let accepted = || registry.counter("serve.conn.accepted").get() as usize;
    let shed = || registry.counter("serve.conn.shed").get() as usize;
    let mut conns = Vec::new();
    while shed() == 0 {
        assert!(
            conns.len() < PENDING_PER_WORKER + 2,
            "no connection shed within {} connects",
            conns.len()
        );
        conns.push(TcpStream::connect(addr).expect("connect"));
        wait_for("connection never accepted", &|| {
            accepted() == 1 + conns.len()
        });
    }
    // Past the queue's capacity, every connection is shed.
    assert!(
        conns.len() > PENDING_PER_WORKER,
        "shed before the queue was full"
    );
    wait_for("shed count never settled", &|| {
        shed() == conns.len() - PENDING_PER_WORKER
    });
    assert_eq!(registry.counter("serve.shed.total").get() as usize, shed());
    let queued: Vec<TcpStream> = conns.drain(..PENDING_PER_WORKER).collect();
    for c in conns {
        c.set_read_timeout(Some(REACTION_WAIT))
            .expect("read deadline");
        let frame = proto::read_frame(&mut BufReader::new(c), proto::MAX_FRAME)
            .expect("shed frame")
            .expect("a frame before EOF");
        let v = json::parse(&frame).expect("frame parses");
        assert_eq!(v.get("id").and_then(Json::as_str), Some(""), "{frame}");
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_num), Some(100.0));
    }

    // Once the batch completes and its peer leaves, the worker takes the
    // queued connections in order.
    let (heavy_conn, heavy_resp) = heavy.join().expect("heavy thread");
    assert!(heavy_resp.contains("\"ok\":true"), "heavy batch failed");
    drop(heavy_conn);
    for mut c in queued {
        proto::write_frame(&mut c, PING).expect("ping");
        c.set_read_timeout(Some(REACTION_WAIT))
            .expect("read deadline");
        assert_eq!(reaction(c), "ok");
    }
    Client::connect(&addr.to_string())
        .expect("connect")
        .shutdown("bye")
        .expect("shutdown");
    daemon.join().expect("daemon thread");
    assert_eq!(registry.gauge("serve.inflight").get(), 0.0);
}

/// Responses from an 8-worker daemon, answered concurrently, are bitwise
/// identical to the serial daemon's answers for the same requests.
#[test]
fn concurrent_responses_are_bitwise_identical_to_serial() {
    let requests: Vec<PredictRequest> = (0u64..8)
        .map(|i| request(30.0 + i as f64, 100 + i))
        .collect();

    let (serial_addr, serial_handle) = start_daemon(
        ServeConfig {
            conns: 1,
            ..ServeConfig::default()
        },
        test_table(),
    );
    let mut serial_client = Client::connect(&serial_addr.to_string()).expect("connect serial");
    let serial: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            serial_client
                .predict(&format!("r{i}"), "default", r)
                .expect("serial predict")
        })
        .collect();
    serial_client.shutdown("bye").expect("shutdown");
    serial_handle.join().expect("serial daemon");

    let (conc_addr, conc_handle) = start_daemon(
        ServeConfig {
            conns: 8,
            ..ServeConfig::default()
        },
        test_table(),
    );
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let addr = conc_addr.to_string();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect concurrent");
                    c.predict(&format!("r{i}"), "default", r)
                        .expect("concurrent predict")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s, c, "request {i}: concurrency changed response bytes");
    }
    let mut bye = Client::connect(&conc_addr.to_string()).expect("connect");
    bye.shutdown("bye").expect("shutdown");
    conc_handle.join().expect("concurrent daemon");
}

/// An external stop (the SIGTERM path) lets the in-flight request finish
/// and deliver its response — drain is graceful, not a guillotine.
#[test]
fn external_stop_drains_in_flight_requests() {
    let server = Server::with_tables(
        ServeConfig {
            conns: 2,
            drain_ms: 30_000,
            ..ServeConfig::default()
        },
        vec![("default".to_string(), test_table())],
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run_until(&stop).expect("run_until"))
    };

    // A batch heavy enough to still be in flight when the stop lands.
    let items: Vec<(String, PredictRequest)> = (0..128)
        .map(|i| ("default".to_string(), request(400.0, 50 + i)))
        .collect();
    let addr_str = addr.to_string();
    let inflight_req = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_str).expect("connect");
        c.batch("inflight", &items).expect("in-flight batch")
    });

    // Stop only once the daemon is actually evaluating the batch.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.registry().gauge("serve.inflight").get() < 1.0 {
        assert!(Instant::now() < deadline, "batch never became in-flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);

    // The response still arrives, complete and well-formed.
    let resp = inflight_req.join().expect("in-flight thread");
    let v = json::parse(&resp).expect("parse");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    daemon.join().expect("daemon thread");
    assert_eq!(
        server.registry().counter("serve.drain.forced").get(),
        0,
        "drain should have been clean"
    );
    // The drain left its span in the ring with a clean outcome.
    let drained = server
        .telemetry()
        .ring()
        .last(512)
        .into_iter()
        .find(|sp| sp.op == "drain")
        .expect("drain span recorded");
    assert_eq!(drained.outcome, "clean");
    // After drain nothing serves the port: a new connection may complete
    // the TCP handshake (the listener fd is still bound until the Server
    // drops) but no frame is ever answered.
    if let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        let mut w = s.try_clone().expect("clone");
        proto::write_frame(&mut w, "{\"op\":\"ping\",\"id\":\"late\"}").expect("write");
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        let mut reader = BufReader::new(s);
        // Anything but a frame (EOF or timeout) means nobody is home.
        if let Ok(proto::FrameRead::Frame(frame)) =
            proto::read_frame_deadline(&mut reader, proto::MAX_FRAME)
        {
            panic!("drained daemon answered a late request: {frame}")
        }
    }
}

/// A fresh daemon also stops promptly when the flag is set while idle —
/// the accept loop polls the flag, not just traffic.
#[test]
fn external_stop_works_while_idle() {
    let server = Server::with_tables(
        ServeConfig::default(),
        vec![("default".to_string(), test_table())],
    )
    .expect("bind");
    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run_until(&stop).expect("run_until"))
    };
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);
    let t0 = Instant::now();
    daemon.join().expect("daemon thread");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "idle daemon took too long to stop"
    );
}
