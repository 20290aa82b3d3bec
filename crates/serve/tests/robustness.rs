//! Transport-robustness integration tests: disconnect classification,
//! slowloris eviction under concurrency, load shedding, drain, and
//! bitwise serial-vs-concurrent determinism — all over real sockets.

mod common;

use common::{start_daemon, test_table, SRC};
use pevpm_obs::json::{self, Json};
use pevpm_serve::plan::PredictRequest;
use pevpm_serve::{proto, ChaosMode, Client, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
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

    // Truncated prefix: 2 of 4 length bytes, then close.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&[0, 0]).expect("write");
    s.flush().expect("flush");
    drop(s);

    // Timed-out mid-body: announce 64 bytes, deliver 9, stall. The
    // daemon must answer with a structured "timeout" error frame.
    let stalled = TcpStream::connect(addr).expect("connect");
    let mut w = stalled.try_clone().expect("clone");
    w.write_all(&64u32.to_be_bytes()).expect("prefix");
    w.write_all(b"{\"op\":\"p").expect("partial body");
    w.flush().expect("flush");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = BufReader::new(stalled);
    let reaction = proto::read_frame_deadline(&mut reader, proto::MAX_FRAME).expect("reaction");
    let proto::FrameRead::Frame(frame) = reaction else {
        panic!("expected a timeout error frame, got {reaction:?}");
    };
    let v = json::parse(&frame).expect("frame parses");
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("timeout"),
        "{frame}"
    );

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
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut reader = BufReader::new(stalled);
    match proto::read_frame_deadline(&mut reader, proto::MAX_FRAME).expect("reaction") {
        proto::FrameRead::Frame(frame) => {
            assert!(frame.contains("\"code\":\"timeout\""), "{frame}");
        }
        other => panic!("expected timeout frame, got {other:?}"),
    }
    let counters = counters_of(&client.stats("s").expect("stats"));
    assert_eq!(counter(&counters, "serve.conn.io_timeouts"), 1.0);
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Every chaos mode runs against a live daemon without killing it.
#[test]
fn chaos_modes_never_kill_the_daemon() {
    let io_timeout_ms = 300u64;
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 2,
            io_timeout_ms,
            ..ServeConfig::default()
        },
        test_table(),
    );
    let reports: Vec<_> = ChaosMode::ALL
        .into_iter()
        .map(|mode| pevpm_serve::chaos::run_mode(&addr.to_string(), mode, io_timeout_ms))
        .collect::<Result<_, _>>()
        .expect("chaos run");
    assert_eq!(reports.len(), ChaosMode::ALL.len());
    for r in &reports {
        assert!(r.survived, "daemon died under {}: {r:?}", r.mode.name());
    }
    // The stall mode saw the structured timeout; framing abuse saw usage.
    let by_mode = |m: ChaosMode| {
        reports
            .iter()
            .find(|r| r.mode == m)
            .map(|r| r.outcome.clone())
            .unwrap_or_default()
    };
    assert_eq!(by_mode(ChaosMode::StalledWrite), "error-frame:timeout");
    assert_eq!(by_mode(ChaosMode::Oversized), "error-frame:usage");
    assert_eq!(by_mode(ChaosMode::Garbage), "error-frame:usage");
    assert_eq!(by_mode(ChaosMode::SlowRead), "frame:ok");

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

/// With one in-flight permit and zero queue slots, a second concurrent
/// prediction is shed with the documented `"overloaded"` response while
/// the first runs to completion — and the shed is observable in the
/// `serve.shed.total` counter and the `serve.inflight` gauge.
#[test]
fn saturation_sheds_instead_of_queueing() {
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 4,
            inflight: 1,
            queue: Some(0),
            shed_retry_ms: 42,
            drain_ms: 30_000,
            ..ServeConfig::default()
        },
        test_table(),
    );

    // A batch big enough to hold the single permit while the probe runs;
    // the permit spans the whole frame.
    let heavy_items: Vec<(String, PredictRequest)> = (0..256)
        .map(|i| ("default".to_string(), request(400.0, 7 + i)))
        .collect();
    let addr_str = addr.to_string();
    let heavy = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_str).expect("connect heavy");
        // Plain request (no overload retry): this frame must be admitted.
        c.request(&format!(
            "{{\"op\":\"batch\",\"id\":\"heavy\",\"requests\":[{}]}}",
            heavy_items
                .iter()
                .map(|(t, r)| pevpm_serve::client::predict_body(t, r))
                .collect::<Vec<_>>()
                .join(",")
        ))
        .expect("heavy batch")
    });

    // Wait until the daemon reports the permit taken.
    let mut stats_client = Client::connect(&addr.to_string()).expect("connect stats");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = stats_client.stats("s").expect("stats");
        let v = json::parse(&resp).expect("parse");
        let inflight = v
            .get("result")
            .and_then(|r| r.get("gauges"))
            .and_then(|g| g.get("serve.inflight"))
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        if inflight >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "heavy batch never took the permit"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The probe prediction must shed, not wait.
    let mut probe = Client::connect(&addr.to_string()).expect("connect probe");
    let resp = probe
        .request(&format!(
            "{{\"op\":\"predict\",\"id\":\"probe\",\"model\":\"{}\",\"procs\":2,\
         \"params\":{{\"rounds\":20}},\"seed\":3}}",
            pevpm_obs::json::escape(SRC)
        ))
        .expect("probe");
    let v = json::parse(&resp).expect("parse");
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{resp}"
    );
    assert_eq!(v.get("retry_after_ms").and_then(Json::as_num), Some(42.0));

    // The heavy batch still completes successfully.
    let heavy_resp = heavy.join().expect("heavy thread");
    assert!(heavy_resp.contains("\"ok\":true"), "heavy batch failed");
    let counters = counters_of(&stats_client.stats("s").expect("stats"));
    assert!(counter(&counters, "serve.shed.total") >= 1.0);
    stats_client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
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
