//! Where a cached `predict` request's time and heap allocations go.
//!
//! Builds the `serve_hot` benchmark's working set in process (192
//! generated programs against a synthetic table), warms a daemon's caches
//! with every frame, then replays the frames through the steps
//! `Server::respond` takes — decode, model and compile cache lookups, eval
//! in a reused scratch, render into a reused response buffer, telemetry —
//! timing and counting each, and through `respond` itself (a connection
//! worker's path, its buffer and scratch reused) and the `handle_frame`
//! wrapper around it, which starts both afresh and returns a `String` of
//! its own. Decode is split in two: "literal" reads the model's string
//! literal alone, as the decoder's scanner does, and "decode" is the rest
//! of the frame. The last row, "miss", is what a model-cache miss
//! adds: one `plan::parse_model` (parse + lowering) per call, cycling
//! through the 320 distinct sources of the `serve_churn` working set (the
//! 192 above and the next 128 the generator yields). No socket is involved.
//!
//! ```text
//! cargo run --release -p pevpm-serve --example profile_serve [-- SEED [REQUESTS]]
//! ```
//!
//! SEED defaults to 11 (the benchmark's), REQUESTS to 200 000; the miss
//! row makes as many `parse_model` calls as there are requests. At seed 11
//! the run fails if `respond` allocates more than [`PINNED_ALLOCS`] times
//! a request.

#[path = "../tests/common/working_set.rs"]
mod working_set;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use pevpm::vm::Scratch;
use pevpm_obs::json::Scanner;
use pevpm_obs::Registry;
use pevpm_serve::proto::{self, Frame, FrameBuf};
use pevpm_serve::telemetry::{Telemetry, DEFAULT_SPAN_CAPACITY, STAGES};
use pevpm_serve::{fnv1a, plan, ModelCache, ServeConfig, Server, TimingCache};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the thread-local tally is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations per cached request on a connection worker's path at
/// seed 11, its buffer and scratch warm: the request's id and mode, the
/// prediction in its box, and the request's telemetry. (11.7 measured.)
const PINNED_ALLOCS: f64 = 12.0;

/// Time and allocations accumulated by one stage.
#[derive(Default)]
struct Tally {
    secs: f64,
    allocs: u64,
}

impl Tally {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (t, a) = (Instant::now(), ALLOCS.with(Cell::get));
        let r = f();
        self.secs += t.elapsed().as_secs_f64();
        self.allocs += ALLOCS.with(Cell::get) - a;
        r
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map_or(11, |s| s.parse().expect("SEED is an integer"));
    let requests: usize = args
        .next()
        .map_or(200_000, |s| s.parse().expect("REQUESTS is an integer"));
    // `serve_churn`'s working set; its first 192 programs are `serve_hot`'s.
    let (table, mut set) = working_set::working_set(seed, 320);
    let sources: Vec<String> = set.iter().map(|(req, _)| req.model_src.clone()).collect();
    set.truncate(192);
    let frames: Vec<String> = set.into_iter().map(|(_, frame)| frame).collect();

    // The daemon as the benchmark runs it, and the same pipeline's own
    // caches and telemetry hub.
    let server = Server::with_tables(
        ServeConfig {
            threads: 1,
            conns: 2,
            ..ServeConfig::default()
        },
        vec![(working_set::TABLE.to_string(), table.clone())],
    )
    .expect("the daemon starts");
    let registry = Arc::new(Registry::new());
    let models = ModelCache::new(&registry);
    let timings = TimingCache::new(&registry);
    let telemetry = Telemetry::new(Arc::clone(&registry), DEFAULT_SPAN_CAPACITY, None, None)
        .expect("no log sink");
    let table_hash = fnv1a(pevpm_dist::io::write_table(&table).as_bytes());

    // Each frame's model literal, quotes included, for the literal row.
    let literals: Vec<String> = frames
        .iter()
        .map(|frame| match proto::parse_frame(frame) {
            Ok(Frame::Predict { body, .. }) => format!("\"{}\"", body.model.raw()),
            _ => panic!("a predict frame"),
        })
        .collect();

    // One untimed pass over every frame fills both sets of caches.
    let names = [
        "literal",
        "decode",
        "model",
        "compile",
        "eval",
        "render",
        "telemetry",
    ];
    let mut stages: [Tally; 7] = Default::default();
    let (mut respond, mut whole) = <(Tally, Tally)>::default();
    let (mut conn, mut out) = (FrameBuf::new(), FrameBuf::new());
    let (mut conn_scratch, mut scratch) = (Scratch::default(), Scratch::default());
    for k in 0..frames.len() + requests {
        if k == frames.len() {
            (stages, respond, whole) = Default::default();
        }
        let frame = &frames[k % frames.len()];
        respond.time(|| server.respond(frame, &mut conn, &mut conn_scratch));
        whole.time(|| server.handle_frame(frame));
        let [literal, parse, model, compile, eval, render, telem] = &mut stages;
        literal
            .time(|| Scanner::new(&literals[k % frames.len()]).value())
            .expect("the literal reads");
        let Ok(Frame::Predict { id, body }) = parse.time(|| proto::parse_frame(frame)) else {
            panic!("frame {k} is not a predict request")
        };
        let req = &body.req;
        let (program, _) = model
            .time(|| models.get_or_parse_literal(&body.model, "request model"))
            .expect("cached");
        let mode = req.prediction_mode().expect("valid mode");
        let (timing, _) = compile
            .time(|| {
                let options = req.compile_options();
                timings.get_or_build(table_hash, &table, mode, req.pingpong, options)
            })
            .expect("compiles");
        let outcome = eval
            .time(|| {
                let cfg = req.eval_config()?.with_metrics(Arc::clone(&registry));
                plan::evaluate_plan_in(&program, &cfg, &timing, req.effective_reps(), &mut scratch)
            })
            .expect("evaluates");
        render
            .time(|| {
                out.clear();
                proto::write_ok(&mut out, &id, |out| proto::write_outcome(out, &outcome))
            })
            .expect("writes to memory");
        telem.time(|| {
            let mut timer = telemetry.begin("predict", true);
            timer.set_reps(req.reps);
            for stage in STAGES {
                timer.stage(stage, || ());
            }
            timer.cache("model", true);
            timer.cache("table", true);
            timer.finish("ok", out.payload_len());
        });
    }

    let mut miss = Tally::default();
    for k in 0..requests {
        let src = &sources[k % sources.len()];
        miss.time(|| plan::parse_model(src, "request model"))
            .expect("parses");
    }

    // The literal is read inside the decode: what decode adds is the rest.
    let [literal, parse, ..] = &mut stages;
    parse.secs -= literal.secs;
    parse.allocs -= literal.allocs;

    let n = requests as f64;
    println!(
        "{requests} cached predict requests over {} programs (seed {seed})",
        frames.len()
    );
    println!("{:<14} {:>10} {:>12}", "stage", "us/req", "allocs/req");
    let row = |name: &str, t: &Tally| {
        println!(
            "{name:<14} {:>10.2} {:>12.1}",
            1e6 * t.secs / n,
            t.allocs as f64 / n
        );
    };
    for (name, t) in names.iter().zip(&stages) {
        row(name, t);
    }
    row(
        "sum",
        &Tally {
            secs: stages.iter().map(|t| t.secs).sum(),
            allocs: stages.iter().map(|t| t.allocs).sum(),
        },
    );
    row("respond", &respond);
    row("handle_frame", &whole);
    row("miss", &miss);
    let per_request = respond.allocs as f64 / n;
    assert!(
        seed != 11 || per_request <= PINNED_ALLOCS,
        "{per_request} allocations per cached request, pinned at {PINNED_ALLOCS}"
    );
}
