use super::*;
use pevpm_dist::{io as dist_io, CommDist, DistTable, Op};

/// Annotated two-process send/recv loop with the free parameter `rounds`.
const PINGPONG: &str = "\
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

fn run_cmd(s: &str) -> Result<String, CliError> {
    run(s.split_whitespace().map(String::from).collect())
}

/// A fresh directory of the calling test's own: tests run in parallel
/// and each removes its directory when done, so sharing one would let
/// a finishing test delete files a sibling is still reading.
fn tmpdir(test: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("pevpm_cli_test_{}_{test}_{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn help_and_unknown_commands() {
    assert!(run_cmd("help").unwrap().contains("USAGE"));
    assert!(run_cmd("frobnicate").is_err());
    assert!(run(vec![]).is_err());
}

#[test]
fn unknown_options_are_usage_errors_naming_option_and_command() {
    // Rejected before the command looks at a single file.
    for (line, option, command) in [
        (
            "predict --rep 8 --model x.c --db x.dist --procs 2",
            "--rep ",
            "`pevpm predict`",
        ),
        (
            "serve --db x.dist --inflght 1",
            "--inflght ",
            "`pevpm serve`",
        ),
        (
            "client --addr 127.0.0.1:9 --ping --db x.dist",
            "--db ",
            "`pevpm client`",
        ),
        ("annotate x.c --nodes=2", "--nodes ", "`pevpm annotate`"),
        // One thread knob per surface: `--threads` on `predict` and
        // `serve`, none on `client` (the daemon decides), and the retired
        // inner knob nowhere.
        (
            "predict --eval-threads 1 --model x.c --db x.dist --procs 2",
            "--eval-threads ",
            "`pevpm predict`",
        ),
        (
            "serve --db x.dist --eval-threads 1",
            "--eval-threads ",
            "`pevpm serve`",
        ),
        (
            "client --addr 127.0.0.1:9 --model x.c --procs 2 --threads 2",
            "--threads ",
            "`pevpm client`",
        ),
    ] {
        let e = run_cmd(line).unwrap_err();
        assert_eq!(e.code, EXIT_USAGE, "{line}: {e}");
        assert!(e.message.contains("unknown option"), "{line}: {e}");
        assert!(e.message.contains(option), "{line}: {e}");
        assert!(e.message.contains(command), "{line}: {e}");
    }
    // Several at once are all named, in a fixed order.
    let e = run_cmd("fit --zeta 1 --db x.dist --alpha 2").unwrap_err();
    assert!(e.message.contains("--alpha, --zeta for"), "{e}");
    // The global flags are options of every command.
    assert!(run_cmd("help -q --verbose").is_ok());
}

#[test]
fn command_option_lists_match_their_usage_blocks() {
    use std::collections::{BTreeMap, BTreeSet};

    // `--flag` spellings per `  pevpm NAME ...` block of USAGE; a block
    // ends at the next synopsis or the first unindented line.
    let mut documented: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut current = None;
    for line in USAGE.lines() {
        if let Some(synopsis) = line.strip_prefix("  pevpm ") {
            current = synopsis.split_whitespace().next();
        } else if !line.is_empty() && !line.starts_with(' ') {
            current = None;
        }
        if let Some(name) = current {
            documented.entry(name).or_default().extend(
                line.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .filter_map(|token| token.strip_prefix("--"))
                    .filter(|flag| !flag.is_empty()),
            );
        }
    }
    for command in COMMANDS.iter().filter(|c| c.name != "help") {
        let listed: BTreeSet<&str> = command.options.iter().flat_map(|l| l.split(' ')).collect();
        assert_eq!(
            Some(&listed),
            documented.get(command.name),
            "`pevpm {}`: option list vs USAGE block",
            command.name
        );
    }
    assert_eq!(documented.len(), COMMANDS.len() - 1, "a block per command");
    // What only the parser needs to know is still a real option somewhere.
    for flag in BOOL_FLAGS {
        assert!(
            GLOBAL_OPTIONS.contains(flag) || COMMANDS.iter().any(|c| c.reads(flag)),
            "BOOL_FLAGS names --{flag}, which no command reads"
        );
    }
}

#[test]
fn bench_inspect_fit_predict_pipeline() {
    let dir = tmpdir("bench_inspect_fit_predict_pipeline");
    let db = dir.join("db.dist");
    let fitted = dir.join("fitted.dist");
    let model = dir.join("pingpong.c");

    // bench
    let out = run_cmd(&format!(
        "bench --nodes 4 --ppn 1 --sizes 512,1024 --reps 15 --seed 3 --out {}",
        db.display()
    ))
    .unwrap();
    assert!(out.contains("database written"), "{out}");
    assert!(db.exists());

    // inspect
    let out = run_cmd(&format!("inspect --db {}", db.display())).unwrap();
    assert!(out.contains("2 entries"), "{out}");
    assert!(out.contains("hist["), "{out}");

    // fit
    let out = run_cmd(&format!(
        "fit --db {} --out {}",
        db.display(),
        fitted.display()
    ))
    .unwrap();
    assert!(out.contains("smaller"), "{out}");

    // annotate + predict
    std::fs::write(&model, PINGPONG).unwrap();
    let out = run_cmd(&format!("annotate {}", model.display())).unwrap();
    assert!(out.contains("free parameters [\"rounds\"]"), "{out}");

    for mode in ["dist", "avg", "min"] {
        let out = run_cmd(&format!(
            "predict --model {} --db {} --procs 2 --mode {mode} --param rounds=20",
            model.display(),
            db.display()
        ))
        .unwrap();
        assert!(out.contains("predicted makespan"), "{out}");
    }
    // Monte-Carlo batch over threads.
    let out = run_cmd(&format!(
        "predict --model {} --db {} --procs 2 --reps 8 --threads 2 --param rounds=20",
        model.display(),
        db.display()
    ))
    .unwrap();
    assert!(out.contains("8 replications"), "{out}");
    assert!(out.contains("stderr"), "{out}");

    // Fitted database predicts too, with and without the quantile LUT.
    let out = run_cmd(&format!(
        "predict --model {} --db {} --procs 2 --param rounds=20",
        model.display(),
        fitted.display()
    ))
    .unwrap();
    assert!(out.contains("predicted makespan"), "{out}");
    let out = run_cmd(&format!(
        "predict --model {} --db {} --procs 2 --param rounds=20 --exact-quantiles",
        model.display(),
        fitted.display()
    ))
    .unwrap();
    assert!(out.contains("predicted makespan"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_subcommand_and_sinks() {
    let dir = tmpdir("trace_subcommand_and_sinks");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let db = dir.join("trace_db.dist");
    let model = dir.join("trace_pp.c");

    // trace: breakdown table + merged predicted/measured Chrome JSON.
    let out = run_cmd(&format!(
        "trace --nodes 4 --xsize 64 --iters 10 --trace-out {}",
        trace.display()
    ))
    .unwrap();
    assert!(out.contains("measured makespan"), "{out}");
    assert!(out.contains("predicted makespan"), "{out}");
    assert!(out.contains("comm%"), "{out}");
    let js = std::fs::read_to_string(&trace).unwrap();
    let n = pevpm_obs::chrome::validate(&js).expect("schema-valid trace");
    assert!(n > 0, "trace has complete events");
    assert!(js.contains("PEVPM predicted"), "both pids present");
    assert!(js.contains("mpisim measured"), "both pids present");

    // predict --trace-out/--metrics-out on a tiny model.
    std::fs::write(&model, PINGPONG.replace("rounds", "5")).unwrap();
    run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 10 --out {}",
        db.display()
    ))
    .unwrap();
    let out = run_cmd(&format!(
        "predict --model {} --db {} --procs 2 --trace-out {} --metrics-out {}",
        model.display(),
        db.display(),
        trace.display(),
        metrics.display()
    ))
    .unwrap();
    assert!(out.contains("predicted timeline"), "{out}");
    assert!(out.contains("engine metrics"), "{out}");
    let js = std::fs::read_to_string(&trace).unwrap();
    assert!(pevpm_obs::chrome::validate(&js).unwrap() > 0);
    let mj = pevpm_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics JSON parses");
    let hists = mj.get("histograms").and_then(|h| h.as_object()).unwrap();
    assert!(hists.contains_key("vm.contention_at_injection"));
    assert!(hists.contains_key("vm.scoreboard_occupancy"));

    // Monte-Carlo predict still writes the sinks (first replication).
    let out = run_cmd(&format!(
        "predict --model {} --db {} --procs 2 --reps 3 --trace-out {}",
        model.display(),
        db.display(),
        trace.display()
    ))
    .unwrap();
    assert!(out.contains("3 replications"), "{out}");
    assert!(out.contains("worker(s)"), "{out}");
    assert!(out.contains("predicted timeline"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_verbosity_flags_are_accepted() {
    // -q / -v map to --quiet / --verbose rather than being rejected or
    // swallowed as positionals. (The verbosity level itself is global
    // process state, so it is not asserted here — tests run in
    // parallel.)
    assert!(run_cmd("help -q").unwrap().contains("USAGE"));
    assert!(run_cmd("help -v").unwrap().contains("USAGE"));
}

#[test]
fn predict_rejects_bad_inputs() {
    assert!(run_cmd("predict --procs 2 --db nope.dist").is_err()); // missing --model
    assert!(run_cmd("predict --model x.c --procs 2 --db /no/such.dist").is_err());
    assert!(run_cmd("bench --out /tmp/x.dist").is_err()); // missing --nodes
    assert!(run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist").is_err());
    assert!(run_cmd("annotate").is_err());
}

#[test]
fn exit_codes_follow_the_contract() {
    // usage: missing flags, unknown command, unknown machine.
    assert_eq!(run_cmd("frobnicate").unwrap_err().code, EXIT_USAGE);
    assert_eq!(
        run_cmd("bench --out /tmp/x.dist").unwrap_err().code,
        EXIT_USAGE
    );
    assert_eq!(
        run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist")
            .unwrap_err()
            .code,
        EXIT_USAGE
    );
    // input: unreadable files.
    assert_eq!(
        run_cmd("inspect --db /no/such.dist").unwrap_err().code,
        EXIT_INPUT
    );
    assert_eq!(
        run_cmd("predict --model /no/such.c --procs 2 --db /no/such.dist")
            .unwrap_err()
            .code,
        EXIT_INPUT
    );
}

#[test]
fn unknown_machine_lists_valid_machines() {
    let e = run_cmd("bench --nodes 2 --machine warp --out /tmp/x.dist").unwrap_err();
    for m in MACHINES {
        assert!(e.message.contains(m), "{} missing from: {e}", m);
    }
}

#[test]
fn deadlocked_model_exits_with_budget_code() {
    let dir = tmpdir("deadlocked_model_exits_with_budget_code");
    let db = dir.join("dl_db.dist");
    let model = dir.join("deadlock.c");
    run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 10 --out {}",
        db.display()
    ))
    .unwrap();
    // Both procs receive, nobody sends.
    std::fs::write(
        &model,
        "\
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 1
// PEVPM &       to = 0
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
",
    )
    .unwrap();
    let e = run_cmd(&format!(
        "predict --model {} --db {} --procs 2",
        model.display(),
        db.display()
    ))
    .unwrap_err();
    assert_eq!(e.code, EXIT_BUDGET, "{e}");
    assert!(e.message.contains("deadlock at t="), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quorum_partial_failures_reach_report_and_metrics() {
    let dir = tmpdir("quorum_partial_failures_reach_report_and_metrics");
    let db = dir.join("quorum_db.dist");
    let model = dir.join("quorum_model.c");
    let metrics = dir.join("quorum_metrics.json");

    // A hand-written table with a *wide* send-latency histogram:
    // per-replication makespans spread over ~[1, 3] s, so a
    // virtual-time budget between the observed extremes fails some
    // replications and not others — deterministically, given --seed.
    let samples: Vec<f64> = (0..40).map(|i| 1.0 + 0.05 * i as f64).collect();
    let mut table = DistTable::new();
    table.insert(
        pevpm_dist::DistKey {
            op: Op::Send,
            size: 1024,
            contention: 1,
        },
        CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 0.1)),
    );
    std::fs::write(&db, dist_io::write_table(&table)).unwrap();
    std::fs::write(&model, PINGPONG).unwrap();

    let base = format!(
        "predict --model {} --db {} --procs 2 --param rounds=1 --reps 16 --seed 9",
        model.display(),
        db.display()
    );
    let out = run_cmd(&base).unwrap();
    let range = out
        .lines()
        .find_map(|l| l.split("range [").nth(1))
        .unwrap_or_else(|| panic!("no range in {out}"));
    let (lo, hi) = range
        .trim_end_matches(|c| c != ']')
        .trim_end_matches(']')
        .trim_end_matches(" s")
        .split_once(", ")
        .unwrap();
    let (lo, hi): (f64, f64) = (lo.parse().unwrap(), hi.parse().unwrap());
    assert!(hi > lo, "jitter must spread the makespans: [{lo}, {hi}]");
    let threshold = (lo + hi) / 2.0;

    // Without a quorum, the budget kills the whole batch (exit 4).
    let e = run_cmd(&format!("{base} --max-virtual-secs {threshold}")).unwrap_err();
    assert_eq!(e.code, EXIT_BUDGET, "{e}");
    assert!(e.message.contains("budget exceeded"), "{e}");

    // With --quorum 1 the batch completes, the report lists the
    // failed replications, and the count reaches --metrics-out.
    let out = run_cmd(&format!(
        "{base} --max-virtual-secs {threshold} --quorum 1 --metrics-out {}",
        metrics.display()
    ))
    .unwrap();
    assert!(out.contains("predicted makespan"), "{out}");
    assert!(out.contains("replication(s) failed (quorum met"), "{out}");
    assert!(out.contains("budget exceeded"), "{out}");
    let mj = pevpm_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics JSON parses");
    let failed = mj
        .get("counters")
        .and_then(|c| c.as_object())
        .and_then(|c| c.get("mc.replica_failures"))
        .and_then(|v| v.as_num())
        .unwrap_or_else(|| panic!("mc.replica_failures missing from {mj:?}"));
    assert!(
        (1.0..=15.0).contains(&failed),
        "a strict-interior budget fails some but not all of 16 replications, got {failed}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_smoke_flags_and_replay() {
    // A tiny clean campaign passes and says so.
    let out = run_cmd("fuzz --mode differential --programs 5 --seed 11").unwrap();
    assert!(out.contains("differential: 5 program(s)"), "{out}");
    assert!(out.contains("0 counterexample(s)"), "{out}");
    assert!(out.contains("ok — all oracles passed"), "{out}");

    // Flag errors follow the exit-code contract.
    assert_eq!(run_cmd("fuzz --mode bogus").unwrap_err().code, EXIT_USAGE);
    assert_eq!(
        run_cmd("fuzz --replay /no/such.model").unwrap_err().code,
        EXIT_INPUT
    );

    // A non-artifact file is an input error naming the header.
    let dir = tmpdir("fuzz_smoke_flags_and_replay");
    let bogus = dir.join("bogus.model");
    std::fs::write(&bogus, "hello\n").unwrap();
    let e = run_cmd(&format!("fuzz --replay {}", bogus.display())).unwrap_err();
    assert_eq!(e.code, EXIT_INPUT);
    assert!(e.message.contains("not a counterexample artifact"), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end daemon lifecycle over a real socket: serve, predict
/// (cold, warm, batched — byte-identical), stats counters, shutdown.
#[test]
fn serve_and_client_round_trip_deterministically() {
    use pevpm_obs::json::{self, Json};

    let dir = tmpdir("serve_and_client_round_trip_deterministically");
    let db = dir.join("serve_db.dist");
    let model = dir.join("serve_model.c");
    let port_file = dir.join("serve_port");
    run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --out {}",
        db.display()
    ))
    .unwrap();
    std::fs::write(&model, PINGPONG).unwrap();

    let metrics = dir.join("serve_metrics.json");
    let serve_cmd = format!(
        "serve --db {} --threads 2 --port-file {} --metrics-out {} -q",
        db.display(),
        port_file.display(),
        metrics.display()
    );
    let daemon = std::thread::spawn(move || run_cmd(&serve_cmd));
    for _ in 0..500 {
        if port_file.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(port_file.exists(), "daemon never wrote its port file");

    let predict_flags = format!(
        "--model {} --procs 2 --param rounds=20 --reps 4 --seed 3",
        model.display()
    );
    let client_base = format!("client --port-file {}", port_file.display());

    // Cold then warm: byte-identical responses.
    let cold = run_cmd(&format!("{client_base} {predict_flags}")).unwrap();
    let warm = run_cmd(&format!("{client_base} {predict_flags}")).unwrap();
    assert_eq!(cold, warm, "cache temperature must not change the bytes");
    let v = json::parse(cold.trim()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{cold}");
    let result = v.get("result").unwrap().clone();

    // Batched with identical items: every item bitwise equals the
    // lone response's result.
    let batched = run_cmd(&format!("{client_base} {predict_flags} --batch 3")).unwrap();
    let bv = json::parse(batched.trim()).unwrap();
    let items = bv.get("result").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 3);
    for item in items {
        assert_eq!(item.get("result"), Some(&result), "{batched}");
    }

    // The daemon's deterministic report equals the one-shot CLI's
    // deterministic headline for the same request.
    let oneshot = run_cmd(&format!(
        "predict --db {} {predict_flags} --threads 2",
        db.display()
    ))
    .unwrap();
    let report = result.get("report").and_then(Json::as_str).unwrap();
    assert!(
        oneshot.starts_with(report),
        "daemon report {report:?} is not a prefix of one-shot output {oneshot:?}"
    );

    // Stats: 6 predictions (1 + 1 + 3 batch items + the one-shot
    // doesn't count) hit exactly one table compile and one model parse.
    let stats = run_cmd(&format!("{client_base} --stats")).unwrap();
    let sv = json::parse(stats.trim()).unwrap();
    let counters = sv
        .get("result")
        .and_then(|r| r.get("counters"))
        .and_then(Json::as_object)
        .unwrap()
        .clone();
    assert_eq!(
        counters.get("serve.table_compiles").and_then(Json::as_num),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(
        counters.get("serve.model_compiles").and_then(Json::as_num),
        Some(1.0),
        "{stats}"
    );

    // Shutdown lets the serve thread exit cleanly.
    let bye = run_cmd(&format!("{client_base} --shutdown")).unwrap();
    assert!(bye.contains("\"ok\":true"), "{bye}");
    let served = daemon.join().unwrap().unwrap();
    assert!(served.contains("exited cleanly"), "{served}");

    // --metrics-out dumped the same registry the stats request served:
    // the golden serve counters survive to disk.
    let mj = json::parse(&std::fs::read_to_string(&metrics).unwrap())
        .expect("serve metrics JSON parses");
    let disk = mj
        .get("counters")
        .and_then(Json::as_object)
        .unwrap()
        .clone();
    for key in [
        "serve.requests",
        "serve.table_compiles",
        "serve.model_compiles",
        "serve.model_cache_hits",
    ] {
        assert!(disk.contains_key(key), "{key} missing from {mj:?}");
    }
    assert_eq!(
        disk.get("serve.table_compiles").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(
        disk.get("serve.model_compiles").and_then(Json::as_num),
        Some(1.0)
    );
    // cold predict + warm predict + batch + stats + shutdown = 5 frames.
    assert_eq!(disk.get("serve.requests").and_then(Json::as_num), Some(5.0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_client_flag_validation() {
    assert_eq!(run_cmd("serve").unwrap_err().code, EXIT_USAGE);
    assert_eq!(run_cmd("serve --db =x").unwrap_err().code, EXIT_USAGE);
    assert_eq!(
        run_cmd("serve --db /no/such.dist").unwrap_err().code,
        EXIT_INPUT
    );
    assert_eq!(run_cmd("client --stats").unwrap_err().code, EXIT_USAGE);
    assert_eq!(
        run_cmd("client --addr 127.0.0.1:9").unwrap_err().code,
        EXIT_USAGE,
        "nothing to send is a usage error before connecting"
    );
    assert_eq!(
        run_cmd("client --port-file /no/such.port --stats")
            .unwrap_err()
            .code,
        EXIT_INPUT
    );
    assert_eq!(
        run_cmd("client --addr 127.0.0.1:9 --chaos frobnicate")
            .unwrap_err()
            .code,
        EXIT_USAGE,
        "unknown chaos modes are rejected before connecting"
    );
    assert_eq!(
        run_cmd("serve --db x.dist --queue nope").unwrap_err().code,
        EXIT_USAGE
    );
}

/// Satellite: a blackholed (or refused) address must fail fast with
/// the exit-code contract's input error, not hang the CLI.
#[test]
fn client_connect_timeout_fails_fast() {
    let t0 = std::time::Instant::now();
    // TEST-NET-1 (RFC 5737): never routable. Depending on the
    // sandbox this is a fast unreachable error or a timeout; both
    // must surface as EXIT_INPUT well inside the flag's budget.
    let e = run_cmd("client --addr 192.0.2.1:9 --ping --connect-timeout-ms 300 --retries 0")
        .unwrap_err();
    assert_eq!(e.code, EXIT_INPUT, "{e}");
    // Whether the environment refuses, blackholes, or proxies the
    // address, the failure names it and maps to the input class.
    assert!(e.message.contains("192.0.2.1"), "{e}");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "connect took {:?} despite a 300 ms budget",
        t0.elapsed()
    );
}

#[test]
fn faults_flag_loads_validates_and_degrades() {
    let dir = tmpdir("faults_flag_loads_validates_and_degrades");
    let db = dir.join("faults_db.dist");
    let plan = dir.join("plan.toml");

    // Unreadable and invalid plans are input errors naming the file.
    let e = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 10 --faults /no/plan.toml --out {}",
        db.display()
    ))
    .unwrap_err();
    assert_eq!(e.code, EXIT_INPUT);
    assert!(e.message.contains("/no/plan.toml"), "{e}");

    std::fs::write(&plan, "loss_prob = 1.5\n").unwrap();
    let e = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 10 --faults {} --out {}",
        plan.display(),
        db.display()
    ))
    .unwrap_err();
    assert_eq!(e.code, EXIT_INPUT);
    assert!(e.message.contains("plan.toml"), "{e}");
    assert!(e.message.contains("loss_prob"), "{e}");

    // A node index out of range for the machine is caught up front.
    std::fs::write(&plan, "[[degrade]]\nnode = 99\nrate_factor = 0.5\n").unwrap();
    let e = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 10 --faults {} --out {}",
        plan.display(),
        db.display()
    ))
    .unwrap_err();
    assert_eq!(e.code, EXIT_INPUT, "{e}");

    // A valid lossy plan runs and degrades the measured latencies.
    let clean = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --out {}",
        db.display()
    ))
    .unwrap();
    std::fs::write(&plan, "loss_prob = 0.05\n").unwrap();
    let lossy = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --faults {} --out {}",
        plan.display(),
        db.display()
    ))
    .unwrap();
    let max_us = |out: &str| -> f64 {
        let line = out.lines().find(|l| l.contains("1024 B:")).unwrap();
        let max = line.split("max").nth(1).unwrap();
        max.trim().trim_end_matches("us").trim().parse().unwrap()
    };
    assert!(
        max_us(&lossy) > max_us(&clean),
        "5% frame loss must inflate the max latency: clean {clean} lossy {lossy}"
    );

    // An empty plan is accepted (and is a no-op by the determinism
    // property test's guarantee).
    std::fs::write(&plan, "# no faults\n").unwrap();
    let out = run_cmd(&format!(
        "bench --nodes 2 --sizes 1024 --reps 20 --seed 5 --faults {} --out {}",
        plan.display(),
        db.display()
    ))
    .unwrap();
    assert_eq!(max_us(&out), max_us(&clean), "empty plan is a no-op");

    std::fs::remove_dir_all(&dir).ok();
}
