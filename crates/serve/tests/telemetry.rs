//! End-to-end telemetry guarantees for the daemon:
//!
//! 1. **Byte invisibility** — enabling the span ring, the request log and
//!    the HTTP sidecar must not change a single response byte. Telemetry
//!    observes request handling; it never steers it.
//! 2. **Live sidecar** — a running daemon answers `/metrics` (Prometheus
//!    text with request/stage counts matching the traffic served),
//!    `/healthz`, and `/spans?last=N` over plain HTTP.
//! 3. **Span fidelity** — a request's stage windows sum to approximately
//!    its wall time: the stages cover the work, and no stage is counted
//!    twice.

mod common;

use common::{test_table, SRC};
use pevpm_obs::json::{self, Json};
use pevpm_serve::{Client, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn predict_frame(reps: usize) -> String {
    format!(
        "{{\"op\":\"predict\",\"id\":\"p\",\"model\":\"{}\",\"procs\":2,\
         \"params\":{{\"rounds\":20}},\"reps\":{reps},\"seed\":3}}",
        pevpm_obs::json::escape(SRC)
    )
}

fn batch_frame(items: usize) -> String {
    let body = format!(
        "{{\"model\":\"{}\",\"procs\":2,\"params\":{{\"rounds\":20}},\"reps\":2,\"seed\":3}}",
        pevpm_obs::json::escape(SRC)
    );
    let bodies: Vec<String> = (0..items).map(|_| body.clone()).collect();
    format!(
        "{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{}]}}",
        bodies.join(",")
    )
}

/// A blocking GET against the sidecar; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect sidecar");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Pull a `name value` sample out of a Prometheus text body.
fn prom_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn telemetry_never_changes_a_response_byte() {
    let log =
        std::env::temp_dir().join(format!("pevpm-telemetry-log-{}.jsonl", std::process::id()));
    let plain = Server::with_tables(
        ServeConfig::default(),
        vec![("default".to_string(), test_table())],
    )
    .unwrap();
    let observed = Server::with_tables(
        ServeConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            log_out: Some(log.clone()),
            log_slow_ms: Some(0.0),
            span_capacity: 8,
            ..ServeConfig::default()
        },
        vec![("default".to_string(), test_table())],
    )
    .unwrap();
    let frames = [
        predict_frame(1),
        predict_frame(1), // warm-cache repeat
        predict_frame(4),
        batch_frame(3),
        "{\"op\":\"predict\",\"id\":\"x\",\"model\":\"m\",\"procs\":2,\"table\":\"nope\"}"
            .to_string(),
        "{\"op\":\"ping\",\"id\":\"k\"}".to_string(),
    ];
    for frame in &frames {
        let (a, _) = plain.handle_frame(frame);
        let (b, _) = observed.handle_frame(frame);
        assert_eq!(a, b, "telemetry changed the response to {frame}");
    }
    // The observed server really did record everything it answered: one
    // span per frame plus one per batch item (3 here).
    let expected_spans = frames.len() as u64 + 3;
    assert_eq!(observed.telemetry().ring().recorded(), expected_spans);
    let logged = std::fs::read_to_string(&log).unwrap();
    assert_eq!(logged.lines().count() as u64, expected_spans);
    for line in logged.lines() {
        json::parse(line).expect("each log line is standalone JSON");
    }
    std::fs::remove_file(&log).ok();
}

#[test]
fn live_sidecar_serves_metrics_health_and_spans() {
    let server = Arc::new(
        Server::with_tables(
            ServeConfig {
                http_addr: Some("127.0.0.1:0".to_string()),
                ..ServeConfig::default()
            },
            vec![("default".to_string(), test_table())],
        )
        .unwrap(),
    );
    let frame_addr = server.local_addr().unwrap();
    let http_addr = server.http_addr().expect("sidecar bound at construction");
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    let mut client = Client::connect(&frame_addr.to_string()).unwrap();
    let req = {
        let mut r = pevpm_serve::PredictRequest::new(SRC.to_string(), 2);
        r.params.push(("rounds".to_string(), 20.0));
        r.reps = 1;
        r.seed = 3;
        r
    };
    for _ in 0..3 {
        let resp = client.predict("p", "default", &req).unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    // /metrics: Prometheus text, request + per-stage counts match traffic.
    let (status, body) = http_get(http_addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        prom_value(&body, "serve_requests_total"),
        Some(3.0),
        "{body}"
    );
    for stage in pevpm_serve::telemetry::STAGES {
        assert_eq!(
            prom_value(&body, &format!("serve_stage_{stage}_ms_count")),
            Some(3.0),
            "stage {stage} count in:\n{body}"
        );
    }
    assert_eq!(prom_value(&body, "serve_request_ms_count"), Some(3.0));

    // /healthz: liveness with uptime and request totals.
    let (status, body) = http_get(http_addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("requests_total").and_then(Json::as_num), Some(3.0));

    // /spans: the most recent spans, oldest first, with stage windows.
    let (status, body) = http_get(http_addr, "/spans?last=2");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let spans = json::parse(&body).unwrap();
    let spans = spans.as_array().unwrap();
    assert_eq!(spans.len(), 2);
    for span in spans {
        assert_eq!(span.get("op").and_then(Json::as_str), Some("predict"));
        assert_eq!(span.get("outcome").and_then(Json::as_str), Some("ok"));
        let stages = span.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), pevpm_serve::telemetry::STAGES.len());
    }

    // Unknown routes 404 without disturbing the daemon.
    let (status, _) = http_get(http_addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    client.shutdown("bye").unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn span_stage_windows_cover_the_request_wall_time() {
    let server = Server::with_tables(
        ServeConfig::default(),
        vec![("default".to_string(), test_table())],
    )
    .unwrap();
    for reps in [1, 1, 4, 8] {
        server.handle_frame(&predict_frame(reps));
    }
    let spans = server.telemetry().ring().last(16);
    assert_eq!(spans.len(), 4);
    for span in &spans {
        let sum = span.stage_sum_us();
        // Stages nest inside the request window (tiny float slack), and
        // the unattributed remainder — timer bookkeeping between stages —
        // stays below an absolute bound far under any real stage cost.
        assert!(
            sum <= span.total_us * 1.001 + 1.0,
            "stage sum {sum}us exceeds request wall {}us",
            span.total_us
        );
        assert!(
            span.total_us - sum < 5_000.0,
            "request #{}: {}us of {}us unattributed to stages",
            span.id,
            span.total_us - sum,
            span.total_us
        );
    }
}
