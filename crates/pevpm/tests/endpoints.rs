//! Malformed message endpoints: what the engine says and what the static
//! analysis says, byte for byte. Both apply one endpoint rule — a negative
//! `from` on a `Recv` is `MPI_ANY_SOURCE`, a process number rounds half
//! away from zero, both ends lie below `numprocs`, a send runs on its
//! sender and a receive on its receiver — and each row pins the engine's
//! error text beside the analysis's fallback reason (`dag::plan`), so the
//! two cannot drift apart. Each keeps its own order of evaluating a
//! directive's expressions (the last row).

use pevpm::dag;
use pevpm::model::build::*;
use pevpm::model::{Model, Stmt};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};

/// One row: rank `rank` of two executes `stmts` with `src` bound to
/// `from` (every row names its source through `src`, so the edge values
/// reach both passes exactly); `error` is what `evaluate` says, `reason`
/// why the analysis declines.
struct Case {
    name: &'static str,
    rank: usize,
    from: f64,
    stmts: Vec<Stmt>,
    error: &'static str,
    reason: &'static str,
}

const OUT_OF_RANGE: &str = "message endpoint out of range";
const FOREIGN_SEND: &str = "send executed by a foreign rank";
const FOREIGN_RECV: &str = "recv executed by a foreign rank";
const ABSTRACT: &str = "abstract evaluation failed";

fn corpus() -> Vec<Case> {
    let case = |name, rank, from, stmts, error, reason| Case {
        name,
        rank,
        from,
        stmts,
        error,
        reason,
    };
    let h = "h";
    vec![
        case(
            "to past numprocs",
            0,
            0.0,
            vec![send("8", "src", "2")],
            "bad model: message endpoint out of range: from=0 to=2 (numprocs=2) at None",
            OUT_OF_RANGE,
        ),
        case(
            "labelled to past numprocs",
            0,
            0.0,
            vec![labelled(send("8", "src", "2"), "halo")],
            "bad model: message endpoint out of range: from=0 to=2 (numprocs=2) at Some(\"halo\")",
            OUT_OF_RANGE,
        ),
        case(
            "send by another rank",
            1,
            0.0,
            vec![send("8", "src", "1")],
            "bad model: proc 1 executing a send whose from=0 at None",
            FOREIGN_SEND,
        ),
        case(
            "isend by another rank",
            1,
            0.0,
            vec![isend("8", "src", "0")],
            "bad model: proc 1 executing a send whose from=0 at None",
            FOREIGN_SEND,
        ),
        case(
            "recv to another rank",
            0,
            1.0,
            vec![recv("8", "src", "1")],
            "bad model: proc 0 executing a recv whose to=1 at None",
            FOREIGN_RECV,
        ),
        case(
            "irecv to another rank",
            0,
            1.0,
            vec![irecv("8", "src", "1", h), wait(h)],
            "bad model: proc 0 executing an irecv whose to=1 at None",
            FOREIGN_RECV,
        ),
        case(
            "irecv from -1",
            0,
            -1.0,
            vec![irecv("8", "src", "0", h), wait(h)],
            "expression error: expected a non-negative integer, got -1",
            ABSTRACT,
        ),
        case(
            "recv from NaN",
            0,
            f64::NAN,
            vec![recv("8", "src", "0")],
            "expression error: expected a non-negative integer, got NaN",
            ABSTRACT,
        ),
        case(
            "send from NaN",
            0,
            f64::NAN,
            vec![send("8", "src", "1")],
            "expression error: expected a non-negative integer, got NaN",
            ABSTRACT,
        ),
        case(
            "recv from inf",
            0,
            f64::INFINITY,
            vec![recv("8", "src", "0")],
            "expression error: expected a non-negative integer, got inf",
            ABSTRACT,
        ),
        case(
            "send from inf",
            0,
            f64::INFINITY,
            vec![send("8", "src", "1")],
            "expression error: expected a non-negative integer, got inf",
            ABSTRACT,
        ),
        case(
            "wildcard recv from -inf to past numprocs",
            0,
            f64::NEG_INFINITY,
            vec![recv("8", "src", "2")],
            "bad model: message endpoint out of range: from=-inf to=2 (numprocs=2) at None",
            OUT_OF_RANGE,
        ),
        case(
            "wildcard recv from just below -0.5 to another rank",
            0,
            -0.5000000000000001,
            vec![recv("8", "src", "1")],
            "bad model: proc 0 executing a recv whose to=1 at None",
            FOREIGN_RECV,
        ),
        case(
            "send from just below -0.5",
            0,
            -0.5000000000000001,
            vec![send("8", "src", "1")],
            "expression error: expected a non-negative integer, got -0.5000000000000001",
            ABSTRACT,
        ),
        case(
            "recv from -0.5 to past numprocs",
            0,
            -0.5,
            vec![recv("8", "src", "2")],
            "bad model: message endpoint out of range: from=-0.5 to=2 (numprocs=2) at None",
            OUT_OF_RANGE,
        ),
        case(
            "send from -0.5 by rank 1",
            1,
            -0.5,
            vec![send("8", "src", "0")],
            "bad model: proc 1 executing a send whose from=0 at None",
            FOREIGN_SEND,
        ),
        case(
            "send from -0.3 by rank 1",
            1,
            -0.3,
            vec![send("8", "src", "0")],
            "bad model: proc 1 executing a send whose from=0 at None",
            FOREIGN_SEND,
        ),
        case(
            "send from 0.49999999999999994 by rank 1",
            1,
            0.49999999999999994,
            vec![send("8", "src", "0")],
            "bad model: proc 1 executing a send whose from=0 at None",
            FOREIGN_SEND,
        ),
        case(
            "recv from 1.5",
            0,
            1.5,
            vec![recv("8", "src", "0")],
            "bad model: message endpoint out of range: from=1.5 to=0 (numprocs=2) at None",
            OUT_OF_RANGE,
        ),
        case(
            "irecv from -1 to a failing expression",
            0,
            -1.0,
            vec![irecv("8", "src", "1/0", h), wait(h)],
            "expression error: expected a non-negative integer, got -1",
            ABSTRACT,
        ),
        // The engine evaluates a size before it checks the endpoints; the
        // analysis reads a size only for an edge it has accepted.
        case(
            "send with a failing size to past numprocs",
            0,
            0.0,
            vec![send("1/0", "src", "2")],
            "expression error: division by zero",
            OUT_OF_RANGE,
        ),
    ]
}

#[test]
fn malformed_endpoints_answer_alike_in_the_engine_and_the_analysis() {
    let timing = TimingModel::hockney(100e-6, 12.5e6);
    for case in corpus() {
        let model = Model::new().with_stmt(runon(&format!("procnum == {}", case.rank), case.stmts));
        let cfg = EvalConfig::new(2).with_param("src", case.from);
        let error = evaluate(&model, &cfg, &timing).expect_err(case.name);
        assert_eq!(error.to_string(), case.error, "{}", case.name);
        let plan = dag::plan(&model, &cfg).expect("analysis");
        assert_eq!(
            (plan.components, plan.edges, plan.fallback.as_deref()),
            (1, 0, Some(case.reason)),
            "{}",
            case.name
        );
    }
}
