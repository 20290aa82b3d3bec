//! A live daemon's connection path — frames read into a reused buffer,
//! responses formatted into another and sent in one write — answers byte
//! for byte what `Server::handle_frame` answers: the `serve_hot` working
//! set, a batch whose frame and response each exceed the 8 KiB a buffered
//! stream holds, and malformed frames.

#[path = "common/working_set.rs"]
mod working_set;

use pevpm_serve::client::predict_body;
use pevpm_serve::{Client, ServeConfig, Server};

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
