//! The daemon commands: `serve` and `client`.

use crate::args::Args;
use crate::predict::predict_request;
use crate::{err, sigterm, write_text, CliError};
use pevpm_obs::diag;
use pevpm_serve::plan::PredictRequest;
use pevpm_serve::{Client, ClientConfig, ServeConfig, Server};
use std::path::PathBuf;
use std::time::Duration;

/// Parse the repeatable `--db [NAME=]PATH` table specs for `serve`.
/// A bare path loads as table `"default"`.
fn serve_tables(args: &Args) -> Result<Vec<(String, PathBuf)>, CliError> {
    let specs = args.values("db");
    if specs.is_empty() {
        return err("serve requires at least one --db [NAME=]DB.dist");
    }
    let mut tables = Vec::with_capacity(specs.len());
    for spec in specs {
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) if !name.is_empty() && !path.is_empty() => (name, path),
            Some(_) => return err(format!("--db expects [NAME=]PATH, got {spec:?}")),
            None => ("default", spec.as_str()),
        };
        tables.push((name.to_string(), PathBuf::from(path)));
    }
    Ok(tables)
}

/// `pevpm serve`: run the prediction daemon until a `shutdown` request.
pub(crate) fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let cfg = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        tables: serve_tables(args)?,
        threads: args.get_parsed("threads", 0)?,
        max_reps: args.get_parsed("max-reps", 0)?,
        max_steps: args.get_opt("max-steps")?,
        max_virtual_secs: args.get_opt("max-virtual-secs")?,
        http_addr: args.get("http").map(str::to_string),
        log_out: args.get("log-out").map(PathBuf::from),
        log_slow_ms: args.get_opt("log-slow-ms")?,
        span_capacity: args
            .get_parsed("span-cap", pevpm_serve::telemetry::DEFAULT_SPAN_CAPACITY)?,
        conns: args.get_parsed("conns", 0)?,
        io_timeout_ms: args
            .get_parsed("io-timeout-ms", pevpm_serve::server::DEFAULT_IO_TIMEOUT_MS)?,
        drain_ms: args.get_parsed("drain-ms", pevpm_serve::server::DEFAULT_DRAIN_MS)?,
    };
    let server = Server::bind(cfg).map_err(|e| CliError::input(e.to_string()))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::input(format!("cannot resolve bound address: {e}")))?;
    // SIGTERM lands as a graceful drain, same as a `shutdown` frame. The
    // handler goes in before readiness is announced: a supervisor may
    // signal the moment the port file appears.
    sigterm::install();
    if let Some(path) = args.get("port-file") {
        // Line 1: the frame protocol address (what `client --port-file`
        // reads). Line 2, when the sidecar is up: the HTTP address.
        let mut contents = format!("{addr}\n");
        if let Some(http) = server.http_addr() {
            contents.push_str(&format!("{http}\n"));
        }
        write_text(path, &contents)?;
    }
    server
        .run_until(&sigterm::FLAG)
        .map_err(|e| CliError::input(format!("serve loop failed: {e}")))?;
    if let Some(path) = args.get("metrics-out") {
        write_text(path, &server.registry().to_json())?;
        diag::info(&format!("wrote server metrics to {path}"));
    }
    Ok(format!("pevpm serve: exited cleanly ({addr})\n"))
}

/// Resolve the daemon address for `client`: `--addr`, or the first line
/// of `--port-file` as written by `serve`.
fn client_addr(args: &Args) -> Result<String, CliError> {
    if let Some(addr) = args.get("addr") {
        return Ok(addr.to_string());
    }
    let Some(path) = args.get("port-file") else {
        return err("client requires --addr HOST:PORT or --port-file PATH");
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let addr = text.lines().next().unwrap_or("").trim();
    if addr.is_empty() {
        return Err(CliError::input(format!("{path}: empty port file")));
    }
    Ok(addr.to_string())
}

/// `pevpm client`: send predict/stats/shutdown requests to a daemon and
/// print one response JSON line per request.
pub(crate) fn cmd_client(args: &Args) -> Result<String, CliError> {
    let addr = client_addr(args)?;
    if args.get("model").is_none()
        && !args.has("stats")
        && !args.has("ping")
        && !args.has("shutdown")
    {
        return err(
            "client needs something to send: --model FILE.c, --stats, --ping or --shutdown",
        );
    }
    let batch: usize = args.get_parsed("batch", 1)?;
    if batch == 0 {
        return err("--batch expects K >= 1: the protocol has no empty batch");
    }
    if args.has("crn") && batch < 2 {
        return err("--crn pairs the items of one batch: it needs --batch K with K >= 2");
    }
    let client_cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(args.get_parsed(
            "connect-timeout-ms",
            pevpm_serve::client::DEFAULT_CONNECT_TIMEOUT_MS,
        )?)),
        retries: args.get_parsed("retries", ClientConfig::default().retries)?,
        backoff_base_ms: args
            .get_parsed("retry-backoff-ms", ClientConfig::default().backoff_base_ms)?,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&addr, &client_cfg)
        .map_err(|e| CliError::input(format!("cannot connect {addr}: {e}")))?;
    let io_err = |e: std::io::Error| CliError::input(format!("request to {addr} failed: {e}"));
    let mut out = String::new();
    if args.has("ping") {
        out.push_str(&client.ping("ping").map_err(io_err)?);
        out.push('\n');
    }
    if let Some(model_path) = args.get("model") {
        let src = std::fs::read_to_string(model_path)
            .map_err(|e| CliError::input(format!("cannot read {model_path}: {e}")))?;
        let req = predict_request(args, src)?;
        let table = args.get("table").unwrap_or("default").to_string();
        let resp = if batch > 1 {
            let items: Vec<(String, PredictRequest)> =
                (0..batch).map(|_| (table.clone(), req.clone())).collect();
            client
                .batch_with("batch", &items, args.has("crn"))
                .map_err(io_err)?
        } else {
            client.predict("predict", &table, &req).map_err(io_err)?
        };
        out.push_str(&resp);
        out.push('\n');
    }
    if args.has("stats") {
        let stats = client.stats("stats").map_err(io_err)?;
        render_stage_latencies(&stats);
        out.push_str(&stats);
        out.push('\n');
    }
    if args.has("shutdown") {
        out.push_str(&client.shutdown("shutdown").map_err(io_err)?);
        out.push('\n');
    }
    Ok(out)
}

/// Render the span-derived per-stage latency percentiles from a `stats`
/// response as a human-readable table on stderr, keeping stdout one
/// machine-parseable JSON line. Silently does nothing if the response
/// carries no stage data (old daemon, no requests served yet).
fn render_stage_latencies(stats_response: &str) {
    use pevpm_obs::json::{self, Json};
    let Some(stages) = json::parse(stats_response.trim())
        .ok()
        .and_then(|v| v.get("result").and_then(|r| r.get("stages")).cloned())
    else {
        return;
    };
    let Some(stages) = stages.as_object().filter(|m| !m.is_empty()).cloned() else {
        return;
    };
    diag::info(&format!(
        "{:>10} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50(ms)", "p95(ms)", "p99(ms)"
    ));
    for (name, st) in &stages {
        let f = |k: &str| st.get(k).and_then(Json::as_num).unwrap_or(0.0);
        diag::info(&format!(
            "{name:>10} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            f("count") as u64,
            f("p50_ms"),
            f("p95_ms"),
            f("p99_ms"),
        ));
    }
}
