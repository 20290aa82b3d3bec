//! Fixtures shared by the integration tests in this directory. Every test
//! binary compiles its own copy and uses only some of it.
#![allow(dead_code)]

use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use pevpm_obs::json::{self, Json};
use pevpm_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Annotated two-process ping-pong with the free parameter `rounds`.
pub const SRC: &str = "\
// PEVPM Loop iterations = rounds
// PEVPM {
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM }
";

/// A small histogram table covering [`SRC`]'s messages.
pub fn test_table() -> DistTable {
    let mut t = DistTable::new();
    let mut h = Histogram::new(0.0, 1e-6);
    for i in 0..64 {
        h.add(1e-6 * f64::from(i % 11));
    }
    for op in [Op::Send, Op::Recv] {
        for size in [512u64, 1024, 2048] {
            for contention in [1u32, 2] {
                t.insert(
                    DistKey {
                        op,
                        size,
                        contention,
                    },
                    CommDist::Hist(h.clone()),
                );
            }
        }
    }
    t
}

/// Bind a daemon serving `table` as `"default"` and run it on its own
/// thread until a `shutdown` frame.
pub fn start_daemon(cfg: ServeConfig, table: DistTable) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::with_tables(cfg, vec![("default".to_string(), table)]).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

/// The `result` of a response that must be `ok`.
pub fn parse_ok(response: &str) -> Json {
    let j = json::parse(response).expect("response parses");
    assert_eq!(
        j.get("ok").and_then(Json::as_bool),
        Some(true),
        "daemon refused the request: {response}"
    );
    j.get("result").expect("result field").clone()
}

/// The mean of a Monte-Carlo (`"kind":"mc"`) result.
pub fn mean_of(result: &Json) -> f64 {
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("mc"));
    result
        .get("mean")
        .and_then(Json::as_num)
        .expect("mean field")
}
