//! SIGTERM against the `pevpm serve` binary, as a supervisor sends it: a
//! batch in flight still completes and the drain is clean, and a TERM sent
//! the moment the port file appears already finds the handler installed.
#![cfg(unix)]

use pevpm_obs::json::{self, Json};
use pevpm_serve::{Client, PredictRequest};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const PEVPM: &str = env!("CARGO_BIN_EXE_pevpm");

/// A fresh scratch directory holding `db.dist`, a benchmarked 2-node table.
fn fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pevpm-sigterm-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let bench = Command::new(PEVPM)
        .args(["bench", "--nodes", "2", "--sizes", "1024", "--reps", "20"])
        .args(["--seed", "5", "-q", "--out"])
        .arg(dir.join("db.dist"))
        .stdout(Stdio::null())
        .status()
        .expect("run bench");
    assert!(bench.success(), "bench failed: {bench}");
    dir
}

/// A `pevpm serve` process, killed outright if a test fails before it
/// was terminated.
struct Daemon(Child);

impl Daemon {
    /// Start the daemon on the fixture's table and return it with its
    /// frame address once the port file is complete.
    fn start(dir: &Path, flags: &[&str]) -> (Daemon, String) {
        let port_file = dir.join("port");
        let child = Command::new(PEVPM)
            .arg("serve")
            .arg("--db")
            .arg(dir.join("db.dist"))
            .arg("--port-file")
            .arg(&port_file)
            .args(flags)
            .arg("-q")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let daemon = Daemon(child);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&port_file).unwrap_or_default();
            if let Some((addr, _)) = text.split_once('\n') {
                return (daemon, addr.to_string());
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `kill -TERM` the daemon and wait for it: its exit status and stdout.
    fn terminate(mut self) -> (ExitStatus, String) {
        let kill = Command::new("kill")
            .args(["-TERM", &self.0.id().to_string()])
            .status()
            .expect("run kill");
        assert!(kill.success(), "kill -TERM failed: {kill}");
        let mut stdout = String::new();
        if let Some(mut pipe) = self.0.stdout.take() {
            pipe.read_to_string(&mut stdout).expect("read stdout");
        }
        let status = self.0.wait().expect("wait for serve");
        (status, stdout)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_an_in_flight_batch() {
    let dir = fixture("drain");
    let log = dir.join("requests.log");
    let log_flag = log.to_str().expect("utf-8 path");
    let flags = ["--conns", "2", "--drain-ms", "60000", "--log-out", log_flag];
    let (daemon, addr) = Daemon::start(&dir, &flags);

    // A batch heavy enough to still be evaluating when the signal lands.
    let items: Vec<(String, PredictRequest)> = (0..256)
        .map(|i| {
            let mut req = PredictRequest::new(pevpm::JACOBI_FIG5, 2);
            req.params = vec![
                ("iterations".to_string(), 200.0),
                ("xsize".to_string(), 256.0),
            ];
            req.seed = 7 + i;
            req.reps = 2;
            ("default".to_string(), req)
        })
        .collect();
    let batch = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect batch");
            c.batch("drain-me", &items).expect("in-flight batch")
        })
    };

    // Signal only once the daemon reports the batch in flight.
    let mut stats = Client::connect(&addr).expect("connect stats");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = json::parse(&stats.stats("s").expect("stats")).expect("stats parses");
        let inflight = v
            .get("result")
            .and_then(|r| r.get("gauges"))
            .and_then(|g| g.get("serve.inflight"))
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        if inflight >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "batch never became in-flight");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = daemon.terminate();
    assert!(status.success(), "serve exited with {status}");

    // The batch completed across the drain, every item answered.
    let resp = batch.join().expect("batch thread");
    let v = json::parse(&resp).expect("batch response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let answered = v.get("result").and_then(Json::as_array).map(|a| a.len());
    assert_eq!(answered, Some(256));

    // The request log closes with a clean drain.
    let text = std::fs::read_to_string(&log).expect("request log");
    let drain = text
        .lines()
        .map(|l| json::parse(l).expect("log line parses"))
        .find(|l| l.get("op").and_then(Json::as_str) == Some("drain"))
        .expect("a drain line in the request log");
    assert_eq!(drain.get("outcome").and_then(Json::as_str), Some("clean"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_at_readiness_exits_cleanly() {
    let dir = fixture("ready");
    let (daemon, _) = Daemon::start(&dir, &[]);
    let (status, stdout) = daemon.terminate();
    assert!(status.success(), "serve exited with {status}");
    assert!(stdout.contains("exited cleanly"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
