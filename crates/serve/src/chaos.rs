//! Fault injection for the serve protocol: deliberately misbehaving
//! peers that earn the daemon's robustness guarantees.
//!
//! Each [`ChaosMode`] opens a raw TCP connection to a running daemon and
//! violates the framing contract in one specific way — truncating a
//! length prefix, stalling mid-frame, disappearing half-open, announcing
//! an oversized frame, sending garbage bytes, or reading the response
//! glacially. After the misbehavior the harness verifies the daemon is
//! still alive (a fresh connection answers `ping`) and reports what the
//! daemon did about the abuse. `scripts/serve_chaos.sh` drives every
//! mode against a real daemon in CI and asserts zero panics.
//!
//! The modes map onto the server's disconnect classification (see
//! [`crate::server`]): truncated prefixes land in `serve.conn.truncated`,
//! mid-frame stalls in `serve.conn.io_timeouts` (plus a structured
//! `"timeout"` error frame), oversized/garbage frames in
//! `serve.conn.bad_frames` (plus a `"usage"` error frame), and clean
//! closes in `serve.conn.clean_eof`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use pevpm_obs::json::{self, escape, Json};

use crate::proto;

/// One way a peer can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Send 2 of the 4 length-prefix bytes, then close.
    TruncatedPrefix,
    /// Announce a frame, send part of its body, then stall silently
    /// (slowloris). The daemon must evict within `--io-timeout-ms` with
    /// a structured `"timeout"` error.
    StalledWrite,
    /// Send a valid request, then vanish without reading the response
    /// (the response write hits a dead socket).
    HalfOpen,
    /// Announce a frame larger than the daemon's `--max-frame` cap.
    Oversized,
    /// A correctly-framed body of invalid UTF-8 garbage.
    Garbage,
    /// A valid request whose response the peer reads one byte at a time.
    SlowRead,
}

impl ChaosMode {
    /// Every mode, in the order `--chaos all` runs them.
    pub const ALL: [ChaosMode; 6] = [
        ChaosMode::TruncatedPrefix,
        ChaosMode::StalledWrite,
        ChaosMode::HalfOpen,
        ChaosMode::Oversized,
        ChaosMode::Garbage,
        ChaosMode::SlowRead,
    ];

    /// The mode's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosMode::TruncatedPrefix => "truncated-prefix",
            ChaosMode::StalledWrite => "stalled-write",
            ChaosMode::HalfOpen => "half-open",
            ChaosMode::Oversized => "oversized",
            ChaosMode::Garbage => "garbage",
            ChaosMode::SlowRead => "slow-read",
        }
    }

    /// Parse a CLI name back to a mode.
    pub fn parse(name: &str) -> Option<ChaosMode> {
        ChaosMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// What one chaos mode observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Which mode ran.
    pub mode: ChaosMode,
    /// What the daemon did about the misbehavior (mode-specific).
    pub outcome: String,
    /// The daemon answered a fresh `ping` after the abuse.
    pub survived: bool,
    /// Wall-clock for the whole mode, milliseconds.
    pub elapsed_ms: f64,
}

impl ChaosReport {
    /// The report as one JSON object (for `BENCH_serve_robustness.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"outcome\":\"{}\",\"survived\":{},\"elapsed_ms\":{:.3}}}",
            self.mode.name(),
            escape(&self.outcome),
            self.survived,
            self.elapsed_ms
        )
    }
}

/// How long chaos connections wait for a daemon reaction beyond the
/// daemon's own I/O deadline.
const REACTION_MARGIN: Duration = Duration::from_millis(2_000);

/// Run one fault mode against the daemon at `addr`. `io_timeout_hint_ms`
/// is the daemon's `--io-timeout-ms` (how long eviction may take); pass
/// the real value so stall modes wait just long enough.
pub fn run_mode(addr: &str, mode: ChaosMode, io_timeout_hint_ms: u64) -> io::Result<ChaosReport> {
    let t0 = Instant::now();
    let deadline = Duration::from_millis(io_timeout_hint_ms).saturating_add(REACTION_MARGIN);
    let outcome = match mode {
        ChaosMode::TruncatedPrefix => truncated_prefix(addr)?,
        ChaosMode::StalledWrite => stalled_write(addr, deadline)?,
        ChaosMode::HalfOpen => half_open(addr)?,
        ChaosMode::Oversized => oversized(addr, deadline)?,
        ChaosMode::Garbage => garbage(addr, deadline)?,
        ChaosMode::SlowRead => slow_read(addr, deadline)?,
    };
    let survived = fresh_ping(addr)?;
    Ok(ChaosReport {
        mode,
        outcome,
        survived,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The abused daemon must still answer a clean ping on a new connection.
fn fresh_ping(addr: &str) -> io::Result<bool> {
    let mut client = crate::Client::connect(addr)?;
    let resp = client.ping("chaos-liveness")?;
    let alive = json::parse(&resp)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        == Some(true);
    Ok(alive)
}

/// Read one frame with a socket deadline; classify what came back.
fn read_reaction(stream: &TcpStream, deadline: Duration) -> io::Result<String> {
    stream.set_read_timeout(Some(deadline))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    Ok(
        match proto::read_frame_deadline(&mut reader, proto::MAX_FRAME) {
            Ok(proto::FrameRead::Frame(frame)) => {
                let code = json::parse(&frame)
                    .ok()
                    .and_then(|v| v.get("code").and_then(Json::as_str).map(str::to_string));
                match code {
                    Some(code) => format!("error-frame:{code}"),
                    None => "frame:ok".to_string(),
                }
            }
            Ok(proto::FrameRead::CleanEof) => "closed".to_string(),
            Ok(proto::FrameRead::IdleTimeout) => "no-reaction".to_string(),
            Err(e) if proto::is_timeout(&e) => "no-reaction".to_string(),
            Err(_) => "closed".to_string(),
        },
    )
}

fn truncated_prefix(addr: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    stream.write_all(&[0x00, 0x00])?;
    stream.flush()?;
    stream.shutdown(Shutdown::Both)?;
    Ok("sent 2/4 prefix bytes then closed".to_string())
}

fn stalled_write(addr: &str, deadline: Duration) -> io::Result<String> {
    let stream = connect(addr)?;
    let mut w = stream.try_clone()?;
    // Announce 64 bytes, deliver 10, then go silent. The daemon must
    // evict this connection with a structured timeout error.
    w.write_all(&64u32.to_be_bytes())?;
    w.write_all(b"{\"op\":\"pi")?;
    w.flush()?;
    read_reaction(&stream, deadline)
}

fn half_open(addr: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    proto::write_frame(&mut stream, "{\"op\":\"ping\",\"id\":\"half-open\"}")?;
    // Vanish without reading: the daemon's response write hits a dead
    // socket and must be absorbed, not panicked on.
    drop(stream);
    Ok("request sent, peer vanished before the response".to_string())
}

fn oversized(addr: &str, deadline: Duration) -> io::Result<String> {
    let stream = connect(addr)?;
    let mut w = stream.try_clone()?;
    // Announce a frame past the 16 MiB protocol cap; no body follows.
    let announced = u32::try_from(proto::MAX_FRAME)
        .unwrap_or(u32::MAX)
        .saturating_add(1);
    w.write_all(&announced.to_be_bytes())?;
    w.flush()?;
    read_reaction(&stream, deadline)
}

fn garbage(addr: &str, deadline: Duration) -> io::Result<String> {
    let stream = connect(addr)?;
    let mut w = stream.try_clone()?;
    let body = [0xFFu8; 32];
    w.write_all(&u32::try_from(body.len()).unwrap_or(32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    read_reaction(&stream, deadline)
}

fn slow_read(addr: &str, deadline: Duration) -> io::Result<String> {
    let mut stream = connect(addr)?;
    proto::write_frame(&mut stream, "{\"op\":\"ping\",\"id\":\"slow-read\"}")?;
    stream.set_read_timeout(Some(deadline))?;
    // Drain the response one byte at a time with pauses: a glacial
    // reader must not wedge the daemon (the response is already queued;
    // the worker slot frees as soon as the write lands in the kernel).
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    let t0 = Instant::now();
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                got.push(byte[0]);
                if got.len() >= 4 {
                    let len = u32::from_be_bytes([got[0], got[1], got[2], got[3]]) as usize;
                    if got.len() == 4 + len {
                        break;
                    }
                }
                if got.len() <= 16 && t0.elapsed() < deadline {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            Err(e) if proto::is_timeout(&e) => return Ok("no-reaction".to_string()),
            Err(e) => return Err(e),
        }
    }
    if got.len() > 4 {
        let body = String::from_utf8_lossy(&got[4..]);
        if body.contains("\"ok\":true") {
            return Ok("frame:ok".to_string());
        }
    }
    Ok("closed".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in ChaosMode::ALL {
            assert_eq!(ChaosMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ChaosMode::parse("nope"), None);
    }

    #[test]
    fn reports_render_as_json() {
        let r = ChaosReport {
            mode: ChaosMode::Garbage,
            outcome: "error-frame:usage".to_string(),
            survived: true,
            elapsed_ms: 1.5,
        };
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("garbage"));
        assert_eq!(v.get("survived").and_then(Json::as_bool), Some(true));
    }
}
