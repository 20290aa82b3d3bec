//! The daemon's wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. Length prefixes make the stream self-delimiting without
//! requiring an incremental JSON parser, and the JSON reuses the
//! workspace's vendored dependency-free [`pevpm_obs::json`].
//!
//! Requests carry an `op` (`predict`, `batch`, `stats`, `ping`,
//! `shutdown`) and a client-chosen `id` echoed back on the response.
//! Responses are `{"id", "ok": true, "result": {...}}` on success and
//! `{"id", "ok": false, "code", "error"}` on failure, with `code` one of
//! `usage` / `input` / `budget` / `panic` — mirroring the CLI's exit-code
//! contract so a daemon refusal means exactly what the one-shot exit
//! status would — plus two transport-level codes: `overloaded` (the
//! request was shed before any evaluation; the response carries a
//! `retry_after_ms` hint and resending is always safe) and `timeout`
//! (the peer stalled mid-frame past the server's I/O deadline and the
//! connection is being closed).
//!
//! Result payloads contain only *deterministic* fields (no wall-clock
//! timings), so the byte-for-byte response to a request is independent of
//! cache temperature, batching, and thread count.
//!
//! Both ends move frames through buffers they own and reuse. A frame is
//! read into a `Vec<u8>` that grows as its bytes arrive
//! ([`read_frame_into`]), never to a declared length up front, and a
//! response is formatted into a [`FrameBuf`] behind a reserved length
//! prefix, then leaves in one write. The `String`-returning functions
//! ([`read_frame`], [`ok_response`], [`render_outcome`], ...) are the same
//! code with a fresh buffer.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::str::Utf8Error;

use pevpm_obs::json::{write_num, Escaped};

use crate::plan::{
    write_adaptive_line, write_failures, write_mc_headline, write_single_report, EvalOutcome,
    PredictRequest,
};

mod decode;
pub use decode::{parse_frame, parse_request, Body, Frame, PREDICT_BODY_KEYS};

/// Maximum accepted frame payload (16 MiB). Annotated sources are
/// kilobytes; this is a protect-the-daemon limit, not a capacity target.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Capacity a connection's reused buffers return to after a larger frame.
pub const KEEP_CAPACITY: usize = 64 * 1024;

/// How far a frame body's buffer grows ahead of the bytes received: a
/// peer that announces a large frame and stalls holds this much, not what
/// it announced.
const GROW_AHEAD: usize = 8 * 1024;

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// One outgoing frame, formatted in place: a reserved length prefix, then
/// the payload written through [`fmt::Write`] (which never fails here).
/// [`FrameBuf::send`] patches the prefix and writes the frame with one
/// `write_all`, so no prefix travels in a segment of its own.
pub struct FrameBuf {
    bytes: Vec<u8>,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// An empty frame, with room for a typical response.
    pub fn new() -> FrameBuf {
        let mut bytes = Vec::with_capacity(1024);
        bytes.extend_from_slice(&[0; PREFIX]);
        FrameBuf { bytes }
    }

    /// Drop the payload, keeping the capacity.
    pub fn clear(&mut self) {
        self.bytes.truncate(PREFIX);
    }

    /// Clear the frame and give back what a payload larger than
    /// [`KEEP_CAPACITY`] left behind.
    pub fn trim(&mut self) {
        self.clear();
        self.bytes.shrink_to(KEEP_CAPACITY);
    }

    /// Append payload text.
    pub fn push_str(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// The payload's length in bytes.
    pub fn payload_len(&self) -> usize {
        self.bytes.len() - PREFIX
    }

    /// The payload so far.
    pub fn payload(&self) -> &str {
        // Only `&str`s are ever appended.
        std::str::from_utf8(&self.bytes[PREFIX..]).unwrap_or_default()
    }

    /// The payload as a `String` of its own.
    pub fn into_payload(self) -> String {
        let mut bytes = self.bytes;
        bytes.drain(..PREFIX);
        String::from_utf8(bytes).unwrap_or_default()
    }

    /// Patch the length prefix and write the whole frame in one
    /// `write_all`.
    pub fn send<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        let len = u32::try_from(self.payload_len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
        self.bytes[..PREFIX].copy_from_slice(&len.to_be_bytes());
        w.write_all(&self.bytes)?;
        w.flush()
    }
}

impl fmt::Write for FrameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

/// Write one frame: 4-byte big-endian length, then the payload, in one
/// write.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let mut frame = FrameBuf {
        bytes: Vec::with_capacity(PREFIX + payload.len()),
    };
    frame.bytes.extend_from_slice(&[0; PREFIX]);
    frame.push_str(payload);
    frame.send(w)
}

/// Read one frame. Returns `Ok(None)` on clean EOF at a frame boundary;
/// EOF mid-frame, an oversized length, or invalid UTF-8 are errors.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Option<String>> {
    match read_frame_deadline(r, max)? {
        FrameRead::Frame(f) => Ok(Some(f)),
        FrameRead::CleanEof => Ok(None),
        // Without a read deadline on the stream this variant cannot
        // occur; with one, an idle boundary timeout surfaces as an error
        // for callers of the legacy single-outcome API.
        FrameRead::IdleTimeout => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "read timed out waiting for a frame",
        )),
    }
}

/// Classified outcome of reading one frame from a stream that may carry
/// a read deadline. The distinction the server's robustness contract
/// needs: a peer that closes *between* frames is clean, one that stalls
/// *between* frames is merely idle (evictable without an error), and one
/// that stalls or disappears *inside* a frame is a protocol failure.
#[derive(Debug)]
pub enum FrameRead<T = String> {
    /// One complete frame payload.
    Frame(T),
    /// The peer closed the stream at a frame boundary.
    CleanEof,
    /// The read deadline expired before any byte of the next frame
    /// arrived: the connection is idle, not broken.
    IdleTimeout,
}

/// Whether an I/O error is a read/write deadline expiry. Linux surfaces
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry as `EAGAIN` (`WouldBlock`), other
/// platforms as `TimedOut`; both mean the same thing here.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame, classifying boundary conditions (see [`FrameRead`]).
/// Errors are structured for the caller's diagnostics:
///
/// * EOF or a deadline expiry *inside* a frame (prefix or body) is an
///   error (`UnexpectedEof` / `TimedOut`) whose message names where the
///   stream stalled;
/// * an oversized declared length or invalid UTF-8 is `InvalidData`,
///   refused before the payload is allocated or decoded.
pub fn read_frame_deadline<R: Read>(r: &mut R, max: usize) -> io::Result<FrameRead> {
    let mut buf = Vec::new();
    Ok(match read_payload(r, max, &mut buf)? {
        FrameRead::Frame(()) => {
            FrameRead::Frame(String::from_utf8(buf).map_err(|e| not_utf8(e.utf8_error()))?)
        }
        FrameRead::CleanEof => FrameRead::CleanEof,
        FrameRead::IdleTimeout => FrameRead::IdleTimeout,
    })
}

/// [`read_frame_deadline`] into a buffer the caller reuses (cleared
/// first): the payload is borrowed from it.
pub fn read_frame_into<'b, R: Read>(
    r: &mut R,
    max: usize,
    buf: &'b mut Vec<u8>,
) -> io::Result<FrameRead<&'b str>> {
    Ok(match read_payload(r, max, buf)? {
        FrameRead::Frame(()) => FrameRead::Frame(std::str::from_utf8(buf).map_err(not_utf8)?),
        FrameRead::CleanEof => FrameRead::CleanEof,
        FrameRead::IdleTimeout => FrameRead::IdleTimeout,
    })
}

/// Give back what a frame larger than [`KEEP_CAPACITY`] left in a reused
/// read buffer.
pub fn trim(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(KEEP_CAPACITY);
}

fn not_utf8(e: Utf8Error) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame is not UTF-8: {e}"),
    )
}

/// One frame's payload bytes into `buf`, which grows as they arrive.
fn read_payload<R: Read>(r: &mut R, max: usize, buf: &mut Vec<u8>) -> io::Result<FrameRead<()>> {
    let mut len_buf = [0u8; PREFIX];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            // EOF before any prefix byte is a clean end-of-stream; EOF
            // inside the prefix is a truncated frame.
            Ok(0) if filled == 0 => return Ok(FrameRead::CleanEof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(FrameRead::IdleTimeout),
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled inside a frame length prefix ({filled}/4 bytes)"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {max}"),
        ));
    }
    // `buf[..got]` has arrived; `buf[got..]` is zeroed room, each byte of
    // it zeroed once, growing by at most what has arrived so far.
    buf.clear();
    let mut got = 0;
    let failed = loop {
        if got == len {
            break None;
        }
        if got == buf.len() {
            buf.resize(got + got.max(GROW_AHEAD).min(len - got), 0);
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                break Some(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended inside a frame body ({got}/{len} bytes)"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                break Some(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled inside a frame body ({got}/{len} bytes)"),
                ))
            }
            Err(e) => break Some(e),
        }
    };
    buf.truncate(got);
    match failed {
        None => Ok(FrameRead::Frame(())),
        Some(e) => Err(e),
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One prediction against a named preloaded table.
    Predict {
        /// Client-chosen id, echoed on the response.
        id: String,
        /// Name of a table the daemon loaded at startup.
        table: String,
        /// The prediction request proper.
        req: Box<PredictRequest>,
    },
    /// Several predictions answered as one response, fanned out across
    /// the server's replication pool.
    Batch {
        /// Client-chosen id.
        id: String,
        /// `(table, request)` per item, in order.
        items: Vec<(String, PredictRequest)>,
    },
    /// The server's metrics registry as JSON.
    Stats {
        /// Client-chosen id.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen id.
        id: String,
    },
    /// Stop accepting connections and exit the serve loop.
    Shutdown {
        /// Client-chosen id.
        id: String,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> &str {
        match self {
            Request::Predict { id, .. }
            | Request::Batch { id, .. }
            | Request::Stats { id }
            | Request::Ping { id }
            | Request::Shutdown { id } => id,
        }
    }
}

/// `write` run into a new `String`.
fn rendered(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    let _ = write(&mut out);
    out
}

/// Write a success response: the envelope around the result value that
/// `result` writes.
pub fn write_ok<W: fmt::Write + ?Sized>(
    out: &mut W,
    id: &str,
    result: impl FnOnce(&mut W) -> fmt::Result,
) -> fmt::Result {
    out.write_str("{\"id\":\"")?;
    Escaped(&mut *out).write_str(id)?;
    out.write_str("\",\"ok\":true,\"result\":")?;
    result(out)?;
    out.write_str("}")
}

/// A success response around an already-rendered result JSON value.
pub fn ok_response(id: &str, result_json: &str) -> String {
    rendered(|out| write_ok(out, id, |out| out.write_str(result_json)))
}

/// Write a failure response: `code` is
/// `usage`/`input`/`budget`/`panic`/`timeout`.
pub fn write_err<W: fmt::Write + ?Sized>(
    out: &mut W,
    id: &str,
    code: &str,
    message: &str,
) -> fmt::Result {
    out.write_str("{\"id\":\"")?;
    Escaped(&mut *out).write_str(id)?;
    write!(out, "\",\"ok\":false,\"code\":\"{code}\",\"error\":\"")?;
    Escaped(&mut *out).write_str(message)?;
    out.write_str("\"}")
}

/// A failure response (see [`write_err`]).
pub fn err_response(id: &str, code: &str, message: &str) -> String {
    rendered(|out| write_err(out, id, code, message))
}

/// A load-shedding refusal: the request was *not* evaluated (no cache,
/// budget, or replication state was touched), so resending after
/// `retry_after_ms` is always safe — including for `batch` frames.
pub fn overloaded_response(id: &str, retry_after_ms: u64) -> String {
    rendered(|out| {
        out.write_str("{\"id\":\"")?;
        Escaped(&mut *out).write_str(id)?;
        write!(
            out,
            "\",\"ok\":false,\"code\":\"overloaded\",\
             \"error\":\"server at capacity; retry after the hint\",\
             \"retry_after_ms\":{retry_after_ms}}}"
        )
    })
}

/// Write one evaluation outcome as a result JSON value. Deterministic by
/// construction: numbers go through [`pevpm_obs::json::write_num`]
/// (shortest round-trip — bit-exact through parse), the report is the
/// shared deterministic lines, and no wall-clock field is included.
pub fn write_outcome<W: fmt::Write + ?Sized>(out: &mut W, outcome: &EvalOutcome) -> fmt::Result {
    match outcome {
        EvalOutcome::Single(p) => {
            out.write_str("{\"kind\":\"single\",\"makespan\":")?;
            write_num(out, p.makespan)?;
            write!(
                out,
                ",\"procs\":{},\"messages\":{},\"report\":\"",
                p.nprocs, p.messages
            )?;
            write_single_report(&mut Escaped(&mut *out), p)?;
            out.write_str("\"}")
        }
        EvalOutcome::Batch(mc) => {
            out.write_str("{\"kind\":\"mc\",\"mean\":")?;
            write_num(out, mc.mean)?;
            out.write_str(",\"stderr\":")?;
            write_num(out, mc.stderr)?;
            out.write_str(",\"min\":")?;
            write_num(out, mc.min)?;
            out.write_str(",\"max\":")?;
            write_num(out, mc.max)?;
            write!(out, ",\"reps\":{}", mc.runs.len() + mc.failures.len())?;
            // Adaptive runs get extra deterministic fields; fixed-reps
            // responses stay byte-identical to the historical frames.
            if let Some(a) = &mc.adaptive {
                out.write_str(",\"adaptive\":{\"precision\":")?;
                write_num(out, a.precision)?;
                out.write_str(",\"confidence\":")?;
                write_num(out, a.confidence)?;
                write!(
                    out,
                    ",\"min_reps\":{},\"max_reps\":{},\"reps\":{},\"reps_saved\":{},\
                     \"rel_half_width\":",
                    a.min_reps,
                    a.max_reps,
                    a.reps,
                    a.reps_saved()
                )?;
                if a.rel_half_width.is_finite() {
                    write_num(out, a.rel_half_width)?;
                } else {
                    out.write_str("null")?;
                }
                write!(
                    out,
                    ",\"converged\":{},\"drift\":{}}}",
                    a.converged, a.drift
                )?;
            }
            out.write_str(",\"failures\":[")?;
            for (i, (idx, what)) in mc.failures.iter().enumerate() {
                if i > 0 {
                    out.write_str(",")?;
                }
                write!(out, "[{idx},\"")?;
                Escaped(&mut *out).write_str(what)?;
                out.write_str("\"]")?;
            }
            out.write_str("],\"report\":\"")?;
            let mut report = Escaped(&mut *out);
            write_mc_headline(&mut report, mc, mc.runs.first().map_or(0, |p| p.nprocs))?;
            write_adaptive_line(&mut report, mc)?;
            write_failures(&mut report, &mc.failures)?;
            out.write_str("\"}")
        }
    }
}

/// One evaluation outcome as a result JSON value (see [`write_outcome`]).
pub fn render_outcome(outcome: &EvalOutcome) -> String {
    rendered(|out| write_outcome(out, outcome))
}

/// Write a batch result: an array of per-item results in request order,
/// each `{"ok": true, "result": ...}` or
/// `{"ok": false, "code": ..., "error": ...}`.
pub fn write_batch<W: fmt::Write + ?Sized>(
    out: &mut W,
    items: &[Result<String, (&str, String)>],
) -> fmt::Result {
    out.write_str("[")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(",")?;
        }
        match item {
            Ok(result) => write!(out, "{{\"ok\":true,\"result\":{result}}}")?,
            Err((code, msg)) => {
                write!(out, "{{\"ok\":false,\"code\":\"{code}\",\"error\":\"")?;
                Escaped(&mut *out).write_str(msg)?;
                out.write_str("\"}")?;
            }
        }
    }
    out.write_str("]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm_obs::json::{self, Json};
    use std::io::BufWriter;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\",\"id\":\"1\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME).unwrap().as_deref(),
            Some("{\"op\":\"ping\",\"id\":\"1\"}")
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
        // Truncated mid-frame: an error, not silent EOF.
        let mut partial = &buf[..3];
        assert!(read_frame(&mut partial, MAX_FRAME).is_err());
        // Oversized declared length is refused before allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut &evil[..], MAX_FRAME).is_err());
    }

    /// A writer that counts the writes it is asked for.
    #[derive(Debug, Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_at_any_size() {
        for size in [10, 8 * 1024 - 4, 8 * 1024 + 1, 1 << 20] {
            let payload = "x".repeat(size);
            let mut bare = Counting::default();
            write_frame(&mut bare, &payload).unwrap();
            assert_eq!(bare.writes, 1, "{size} B");
            // Through the 8 KiB buffer a client or server stream used to
            // wrap, a larger frame's prefix went out alone.
            let mut buffered = BufWriter::new(Counting::default());
            write_frame(&mut buffered, &payload).unwrap();
            let buffered = buffered.into_inner().unwrap();
            assert_eq!(buffered.writes, 1, "{size} B through a BufWriter");
            assert_eq!(buffered.bytes, bare.bytes);
            let mut out = FrameBuf::new();
            out.push_str(&payload);
            let mut sent = Counting::default();
            out.send(&mut sent).unwrap();
            assert_eq!((sent.writes, &sent.bytes), (1, &bare.bytes), "{size} B");
            let back = read_frame(&mut &bare.bytes[..], MAX_FRAME).unwrap();
            assert_eq!(back.as_deref(), Some(&payload[..]));
        }
    }

    /// A reader that yields its script of chunks, then reports a read
    /// deadline expiry (`WouldBlock`, as Linux `SO_RCVTIMEO` does).
    struct StallingReader {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.chunks.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let chunk = self.chunks.remove(0);
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn deadline_reads_classify_idle_vs_mid_frame_stalls() {
        // No bytes at all: idle, not an error.
        let mut idle = StallingReader { chunks: vec![] };
        assert!(matches!(
            read_frame_deadline(&mut idle, MAX_FRAME).unwrap(),
            FrameRead::IdleTimeout
        ));
        // Two of four prefix bytes, then stall: a timeout error naming
        // the prefix.
        let mut prefix = StallingReader {
            chunks: vec![vec![0, 0]],
        };
        let e = read_frame_deadline(&mut prefix, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert!(e.to_string().contains("length prefix"), "{e}");
        // A full prefix and a partial body, then stall: a timeout error
        // naming the body progress.
        let mut body = StallingReader {
            chunks: vec![8u32.to_be_bytes().to_vec(), b"abc".to_vec()],
        };
        let e = read_frame_deadline(&mut body, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert!(e.to_string().contains("3/8"), "{e}");
        // The legacy API surfaces idle timeouts as TimedOut errors.
        let mut idle = StallingReader { chunks: vec![] };
        let e = read_frame(&mut idle, MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn buffers_grow_as_bytes_arrive_and_shrink_after_a_large_frame() {
        // The largest frame announced, three bytes sent, then a stall:
        // the buffer holds a chunk, not the 16 MiB announced.
        let announced = u32::try_from(MAX_FRAME).unwrap().to_be_bytes().to_vec();
        let mut stall = StallingReader {
            chunks: vec![announced, b"abc".to_vec()],
        };
        let mut buf = Vec::new();
        let e = read_frame_into(&mut stall, MAX_FRAME, &mut buf).unwrap_err();
        assert!(e.to_string().contains(&format!("3/{MAX_FRAME}")), "{e}");
        assert!(buf.capacity() <= GROW_AHEAD, "{} B held", buf.capacity());
        // A frame larger than a connection keeps is read whole, then its
        // memory is given back; the same for the response buffer.
        let big = "y".repeat(3 * KEEP_CAPACITY);
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        match read_frame_into(&mut &wire[..], MAX_FRAME, &mut buf).unwrap() {
            FrameRead::Frame(text) => assert_eq!(text, big),
            other => panic!("expected a frame, got {other:?}"),
        }
        trim(&mut buf);
        assert!(buf.capacity() <= KEEP_CAPACITY, "{} B kept", buf.capacity());
        let mut out = FrameBuf::new();
        out.push_str(&big);
        out.send(&mut io::sink()).unwrap();
        out.trim();
        assert!(out.bytes.capacity() <= KEEP_CAPACITY);
        assert_eq!(out.payload(), "");
    }

    /// A reader that sends its frame one byte per read and marks every byte
    /// of room it is handed, counting the bytes it finds zeroed since.
    struct Trickle {
        wire: Vec<u8>,
        at: usize,
        zeroed: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            // Room is zeroed from some point to its end; mark it back.
            let fresh = buf.iter().rev().take_while(|&&b| b == 0).count();
            self.zeroed += fresh;
            let len = buf.len();
            buf[len - fresh..].fill(0xff);
            let Some(&byte) = self.wire.get(self.at) else {
                return Ok(0);
            };
            buf[0] = byte;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn a_trickled_frame_zeroes_each_byte_of_room_once() {
        let payload = "z".repeat(300_000);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut trickle = Trickle {
            wire,
            at: 0,
            zeroed: 0,
        };
        let mut buf = Vec::new();
        match read_frame_into(&mut trickle, MAX_FRAME, &mut buf).unwrap() {
            FrameRead::Frame(text) => assert_eq!(text, payload),
            other => panic!("expected a frame, got {other:?}"),
        }
        // The prefix's zeroed array counts too.
        assert!(
            trickle.zeroed <= PREFIX + payload.len(),
            "{} bytes zeroed for a {} B frame",
            trickle.zeroed,
            payload.len()
        );
    }

    #[test]
    fn overloaded_responses_carry_the_retry_hint() {
        let r = overloaded_response("r7", 125);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r7"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_num), Some(125.0));
    }

    #[test]
    fn predict_requests_parse_with_defaults_and_overrides() {
        let r = parse_request(
            "{\"op\":\"predict\",\"id\":\"r1\",\"model\":\"src\",\"procs\":4,\
             \"params\":{\"rounds\":20},\"reps\":8,\"quorum\":6,\"seed\":7,\
             \"mode\":\"avg\",\"pingpong\":true,\"max_steps\":100}",
        )
        .unwrap();
        let Request::Predict { id, table, req } = r else {
            panic!("expected predict")
        };
        assert_eq!(id, "r1");
        assert_eq!(table, "default");
        assert_eq!(req.procs, 4);
        assert_eq!(req.mode, "avg");
        assert!(req.pingpong);
        assert_eq!(req.params, vec![("rounds".to_string(), 20.0)]);
        assert_eq!(req.reps, 8);
        assert_eq!(req.quorum, Some(6));
        assert_eq!(req.seed, 7);
        assert_eq!(req.max_steps, Some(100));
        assert_eq!(req.max_virtual_secs, None);
    }

    #[test]
    fn adaptive_fields_parse_and_validate() {
        let r = parse_request(
            "{\"op\":\"predict\",\"id\":\"a1\",\"model\":\"src\",\"procs\":4,\
             \"precision\":0.05,\"min_reps\":4,\"max_reps\":32,\"antithetic\":true}",
        )
        .unwrap();
        let Request::Predict { req, .. } = r else {
            panic!("expected predict")
        };
        assert_eq!(req.precision, Some(0.05));
        assert_eq!(req.min_reps, Some(4));
        assert_eq!(req.max_reps, Some(32));
        assert!(req.antithetic);

        // Absent fields stay absent: the legacy request shape is intact.
        let r = parse_request("{\"op\":\"predict\",\"id\":\"a2\",\"model\":\"m\",\"procs\":2}")
            .unwrap();
        let Request::Predict { req, .. } = r else {
            panic!("expected predict")
        };
        assert_eq!(req.precision, None);
        assert!(!req.antithetic);

        // A non-positive precision is refused at the parse layer.
        let (id, e) = parse_request(
            "{\"op\":\"predict\",\"id\":\"a3\",\"model\":\"m\",\"procs\":2,\"precision\":0}",
        )
        .unwrap_err();
        assert_eq!(id, "a3");
        assert!(e.message.contains("precision"), "{e}");
    }

    #[test]
    fn crn_batches_rewrite_item_seeds_to_a_common_base() {
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99},\
             {\"model\":\"c\",\"procs\":2}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert!(items.iter().all(|(_, req)| req.seed == 11));

        // An explicit frame seed overrides the first item's.
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"seed\":7,\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert!(items.iter().all(|(_, req)| req.seed == 7));

        // Without crn, per-item seeds survive untouched.
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[\
             {\"model\":\"a\",\"procs\":2,\"seed\":11},\
             {\"model\":\"b\",\"procs\":2,\"seed\":99}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert_eq!(items[0].1.seed, 11);
        assert_eq!(items[1].1.seed, 99);
    }

    #[test]
    fn malformed_requests_keep_their_id_for_the_error_response() {
        let (id, e) = parse_request("{\"op\":\"warp\",\"id\":\"x9\"}").unwrap_err();
        assert_eq!(id, "x9");
        assert!(e.message.contains("unknown op"), "{e}");
        let (id, _) = parse_request("{\"op\":\"predict\",\"id\":42}").unwrap_err();
        assert_eq!(id, "42");
        let (id, e) = parse_request("not json").unwrap_err();
        assert_eq!(id, "");
        assert!(e.message.contains("bad request JSON"), "{e}");
    }

    #[test]
    fn unknown_keys_are_refused_by_name_with_the_accepted_list() {
        let body = "\"model\":\"m\",\"procs\":2";
        let predict = |extra: &str| format!("{{\"op\":\"predict\",\"id\":\"u\",{body},{extra}}}");
        let batch = |item: &str, frame: &str| {
            format!("{{\"op\":\"batch\",\"id\":\"u\",\"requests\":[{{{body}{item}}}]{frame}}}")
        };
        for (frame, named) in [
            // Misspelt: used to run one replication without a word.
            (predict("\"rep\":64"), "\"rep\" in predict frame"),
            // Retired: how parallel a request runs is the daemon's call.
            (
                predict("\"eval_threads\":2"),
                "\"eval_threads\" in predict frame",
            ),
            (predict("\"threads\":2"), "\"threads\" in predict frame"),
            (batch(",\"threads\":1", ""), "\"threads\" in batch item"),
            // An item is a bare body: the envelope belongs to the frame.
            (batch(",\"id\":\"i\"", ""), "\"id\" in batch item"),
            (batch("", ",\"crm\":true"), "\"crm\" in batch frame"),
        ] {
            let (id, e) = parse_request(&frame).unwrap_err();
            assert_eq!(id, "u", "{frame}");
            assert_eq!(e.kind, crate::plan::PlanErrorKind::Usage, "{frame}");
            let named = format!("unknown field {named} (accepted: ");
            assert!(e.message.starts_with(&named), "{frame}: {e}");
            let accepted: Vec<&str> = PREDICT_BODY_KEYS.split_whitespace().collect();
            let listed = e.message.ends_with(&format!("{})", accepted.join(" ")));
            assert_eq!(listed, !named.contains("batch frame"), "{frame}: {e}");
        }
        // A frame's envelope is accepted on the frame, and only there.
        let (_, e) = parse_request(&predict("\"rep\":1")).unwrap_err();
        assert!(e.message.contains("(accepted: op id model table "), "{e}");
        let (_, e) = parse_request(&batch("", ",\"crm\":true")).unwrap_err();
        assert!(
            e.message.ends_with("(accepted: op id requests crn seed)"),
            "{e}"
        );
    }

    #[test]
    fn batch_requires_a_non_empty_request_array() {
        let (_, e) = parse_request("{\"op\":\"batch\",\"id\":\"b\",\"requests\":[]}").unwrap_err();
        assert!(e.message.contains("non-empty"), "{e}");
        let r = parse_request(
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[\
             {\"model\":\"a\",\"procs\":2},{\"model\":\"b\",\"procs\":4,\"table\":\"t2\"}]}",
        )
        .unwrap();
        let Request::Batch { items, .. } = r else {
            panic!("expected batch")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, "default");
        assert_eq!(items[1].0, "t2");
    }

    #[test]
    fn responses_are_valid_json_with_escapes_intact() {
        let ok = ok_response("a\"b", "{\"kind\":\"single\"}");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response("r", "input", "bad\nline");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("input"));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad\nline"));
    }
}
