//! A live daemon's connection path — frames read into a reused buffer,
//! responses formatted into another and sent in one write — answers byte
//! for byte what `Server::handle_frame` answers: the `serve_hot` working
//! set, a batch whose frame and response each exceed the 8 KiB a buffered
//! stream holds, and malformed frames. So does one worker's evaluation
//! scratch, reused across every kind of request.

#[path = "common/working_set.rs"]
mod working_set;

use pevpm::vm::Scratch;
use pevpm_serve::client::{predict_body, predict_frame};
use pevpm_serve::plan::PredictRequest;
use pevpm_serve::proto::FrameBuf;
use pevpm_serve::{Client, ServeConfig, Server};
use pevpm_testkit::{generate, GenConfig};

#[test]
fn a_live_daemon_answers_what_handle_frame_answers() {
    let (table, set) = working_set::working_set(11, 192);
    let server = || {
        let cfg = ServeConfig {
            threads: 1,
            conns: 2,
            ..ServeConfig::default()
        };
        Server::with_tables(cfg, vec![(working_set::TABLE.to_string(), table.clone())]).unwrap()
    };
    let (reference, daemon) = (server(), server());
    let addr = daemon.local_addr().unwrap().to_string();
    let running = std::thread::spawn(move || daemon.run().unwrap());
    let mut client = Client::connect(&addr).unwrap();

    let bodies: Vec<String> = set
        .iter()
        .take(32)
        .map(|(req, _)| predict_body(working_set::TABLE, req))
        .collect();
    let batch = format!(
        "{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{}]}}",
        bodies.join(",")
    );
    let mut frames: Vec<&str> = set.iter().map(|(_, frame)| frame.as_str()).collect();
    frames.extend([
        batch.as_str(),
        "not json",
        "[1]",
        "{\"op\":\"warp\",\"id\":\"w\"}",
        "{\"op\":\"predict\",\"id\":7,\"model\":\"m\"}",
        "{\"op\":\"ping\",\"id\":\"\\ud800\"}",
    ]);
    for frame in frames {
        let want = reference.handle_frame(frame).0;
        assert_eq!(client.request(frame).unwrap(), want, "{frame}");
    }
    assert!(batch.len() > 8 * 1024, "{} B batch frame", batch.len());
    let answer = reference.handle_frame(&batch).0;
    assert!(answer.len() > 8 * 1024, "{} B batch response", answer.len());
    client.shutdown("bye").unwrap();
    running.join().unwrap();
}

#[test]
fn a_reused_scratch_answers_what_a_fresh_one_does() {
    let (table, set) = working_set::working_set(11, 192);
    let cfg = ServeConfig {
        threads: 1,
        conns: 1,
        ..ServeConfig::default()
    };
    let server = Server::with_tables(cfg, vec![(working_set::TABLE.to_string(), table)]).unwrap();
    let frames: Vec<String> = set.into_iter().map(|(_, frame)| frame).collect();
    // Generated programs on 2 and on 6 processes: wildcard receives,
    // collectives and Isend/Irecv pairs among them.
    let mut sized = [Vec::new(), Vec::new()];
    for (i, nprocs) in [2, 6].into_iter().enumerate() {
        let gen = GenConfig {
            nprocs_min: nprocs,
            nprocs_max: nprocs,
            ..GenConfig::differential()
        };
        for k in 0..40 {
            let program = generate(&gen, 7_000 + 100 * nprocs as u64 + k);
            let req = PredictRequest::new(program.to_annotated(), program.nprocs);
            sized[i].push(predict_frame(&format!("p{nprocs}-{k}"), "default", &req));
        }
    }
    for (what, needle) in [
        ("wildcard", "from = -1"),
        ("collective", "Collective"),
        ("nonblocking", "MPI_Irecv"),
    ] {
        assert!(
            sized.iter().flatten().any(|frame| frame.contains(needle)),
            "no {what} program"
        );
    }
    // A deadlock, a step-budget abort and a request that panics in the
    // engine (no processes).
    let deadlock = "// PEVPM Runon c1 = procnum == 0\n// PEVPM &     c2 = procnum == 1\n\
        // PEVPM {\n// PEVPM Message type = MPI_Recv\n// PEVPM &       size = 1024\n\
        // PEVPM &       from = 1\n// PEVPM &       to = 0\n// PEVPM }\n// PEVPM {\n\
        // PEVPM Message type = MPI_Recv\n// PEVPM &       size = 1024\n\
        // PEVPM &       from = 0\n// PEVPM &       to = 1\n// PEVPM }\n";
    let odd = [
        predict_frame("deadlock", "default", &PredictRequest::new(deadlock, 2)),
        frames[0].replacen(
            "{\"op\":\"predict\",",
            "{\"op\":\"predict\",\"max_steps\":3,",
            1,
        ),
        frames[1].replacen("\"procs\":", "\"procs\":0,\"seed\":", 1),
    ];
    // Seeded shuffle of everything, then 2 → 6 → 2 processes in a row.
    let mut order: Vec<&str> = frames.iter().map(String::as_str).collect();
    order.extend(sized.iter().flatten().map(String::as_str));
    order.extend(odd.iter().map(String::as_str));
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order.extend([&sized[0][1], &sized[1][1], &sized[0][2]].map(String::as_str));

    for (frame, code) in odd.iter().zip(["budget", "budget", "panic"]) {
        let answer = server.handle_frame(frame).0;
        assert!(answer.contains(&format!("\"code\":\"{code}\"")), "{answer}");
    }

    let (mut out, mut scratch) = (FrameBuf::new(), Scratch::default());
    for frame in order {
        server.respond(frame, &mut out, &mut scratch);
        assert_eq!(out.payload(), server.handle_frame(frame).0, "{frame}");
    }
}
