//! `perf`: one seeded, layered, self-checking benchmark of the
//! MPIBench/PEVPM reproduction. See `perf/README.md`.
//!
//! ```text
//! perf run  [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--out F]
//! perf diff A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! `run` starts one child process per workload and run kind (so each
//! has its own pinned CPU set and its own `VmHWM`), prints every metric
//! by name with its unit, and ends with the one-line JSON result object.
//! The exit status is non-zero if any correctness gate or op failed.

mod diff;
mod host;
mod probes;
mod record;
mod span;
mod stats;
mod workloads;

use pevpm_cli::args::Args;
use pevpm_obs::json::{self, escape, num, Json};
use record::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::ChildArgs;

const USAGE: &str = "\
perf run  [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--out F]
perf diff A.json B.json [--bench BENCHMARK.json]

run    runs the workloads (all five without --workload), prints each metric
       with its unit, and ends with one JSON result object per run.
       --seed S      input seed (default 11); op i uses seed S+i
       --seconds T   length of each timed window (default 20)
       --trace 0     untraced run: end-to-end metrics (the default)
       --trace 1     traced run: per-layer metrics, Chrome trace, self-time table
       --trace       both, untraced first
       --out F       result file (default perf/out/result.json)
diff   compares two result files by the bounds in BENCHMARK.json; exits 1
       on any regressed metric, 3 on any count mismatch.
workloads: predict_64x2 groundtruth_64x2 mpibench_sweep serve_hot serve_churn";

fn main() -> ExitCode {
    let mut tokens: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if tokens.is_empty() {
        String::new()
    } else {
        tokens.remove(0)
    };
    let args = match Args::parse(tokens) {
        Ok(a) => a,
        Err(e) => return usage_error(&e.to_string()),
    };
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    let outcome = match cmd.as_str() {
        "run" => cmd_run(&args).map(pass),
        "child" => cmd_child(&args).map(pass),
        "diff" => cmd_diff(&args),
        "calibrate" => cmd_calibrate().map(pass),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => return usage_error(&format!("unknown command {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// `perf/out`, next to this crate's manifest in the checkout it was
/// built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_common(args: &Args) -> Result<(u64, f64), String> {
    let seed: u64 = args.get_parsed("seed", 11).map_err(|e| e.to_string())?;
    let seconds: f64 = args
        .get_parsed("seconds", 20.0)
        .map_err(|e| e.to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok((seed, seconds))
}

/// The run kinds `--trace` asks for: `false` = untraced, `true` = traced.
fn trace_kinds(args: &Args) -> Result<Vec<bool>, String> {
    match args.get("trace") {
        None | Some("0") => Ok(vec![false]),
        Some("1") => Ok(vec![true]),
        Some("true") => Ok(vec![false, true]),
        Some(other) => Err(format!("--trace takes 0 or 1, got {other:?}")),
    }
}

/// The workload process: run one workload once, print its full record
/// and then its contract line.
fn cmd_child(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = parse_common(args)?;
    let child = ChildArgs {
        workload: args
            .require("workload")
            .map_err(|e| e.to_string())?
            .to_string(),
        seed,
        seconds,
        trace: args.get("trace") == Some("1"),
        out_dir: out_dir(),
    };
    let record = workloads::run(&child);
    let mut strangers = record.end_to_end.strangers(record::END_TO_END);
    strangers.extend(record.per_layer.strangers(record::PER_LAYER));
    if let Some(stranger) = strangers.first() {
        return Err(format!("metric {stranger} is not in the catalogue"));
    }
    println!("{}", record.to_json());
    println!("{}", record.contract_json());
    Ok(record.correct())
}

/// One finished child.
struct ChildRun {
    record_json: String,
    contract_json: String,
    correct: bool,
}

fn spawn_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(contract), Some(record)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{workload} child ({}) printed no result",
            output.status
        ));
    };
    Ok(ChildRun {
        record_json: record.to_string(),
        contract_json: contract.to_string(),
        correct: output.status.success(),
    })
}

/// Print one run's metrics, one per line, name value unit.
fn print_run(workload: &str, trace: bool, run: &ChildRun) {
    let kind = if trace { "traced" } else { "untraced" };
    println!("== {workload} ({kind})");
    let Ok(doc) = json::parse(&run.contract_json) else {
        println!("   unreadable result: {}", run.contract_json);
        return;
    };
    let get = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0);
    println!(
        "   {:<34} {}",
        "correct",
        doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
    );
    println!("   {:<34} {:>18}", "attempted", num(get("attempted")));
    println!("   {:<34} {:>18}", "failed", num(get("failed")));
    // Catalogue order, not the parser's alphabetical map order.
    let catalogue = if trace {
        record::PER_LAYER
    } else {
        record::END_TO_END
    };
    for d in catalogue {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        println!("   {:<34} {:>18.6} {}", d.name, value, d.unit);
    }
    if let Ok(full) = json::parse(&run.record_json) {
        for e in full.get("errors").and_then(Json::as_array).unwrap_or(&[]) {
            println!("   FAILED: {}", e.as_str().unwrap_or("?"));
        }
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = parse_common(args)?;
    let kinds = trace_kinds(args)?;
    let chosen: Vec<&str> = match args.get("workload") {
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
        Some(w) => match WORKLOADS.iter().find(|(n, _)| *n == w) {
            Some((n, _)) => vec![*n],
            None => return Err(format!("unknown workload {w:?}\n\n{USAGE}")),
        },
    };
    if cfg!(debug_assertions) {
        eprintln!("perf: this is a debug build; measure with --release");
    }

    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    // Never let git climb out of the checkout looking for a repository.
    let ceiling = Path::new(manifest_dir)
        .parent()
        .and_then(Path::parent)
        .map_or_else(String::new, |p| p.display().to_string());
    let git_head = host::command_line(
        "git",
        &["-C", manifest_dir, "rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", &ceiling)],
    );
    let rustc = host::command_line("rustc", &["-V"], &[]);

    let mut all_correct = true;
    let mut entries = Vec::new();
    let mut last_contract = String::new();
    for workload in chosen {
        let mut sides = [String::from("null"), String::from("null")];
        for &trace in &kinds {
            let run = spawn_child(workload, seed, seconds, trace)?;
            print_run(workload, trace, &run);
            all_correct &= run.correct;
            sides[usize::from(trace)] = run.record_json.clone();
            last_contract = run.contract_json;
        }
        entries.push(format!(
            "\"{workload}\": {{\"untraced\": {}, \"traced\": {}}}",
            sides[0], sides[1]
        ));
    }

    let doc = format!(
        "{{\"schema\": \"pevpm-perf/1\", \"facts\": {{\"seed\": {seed}, \"seconds\": {}, \
         \"nproc\": {}, \"git_head\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"loadavg_1m\": {}}},\n \"workloads\": {{\n  {}\n }}}}\n",
        num(seconds),
        host::nproc(),
        escape(&git_head),
        escape(&rustc),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        num(host::loadavg_1m()),
        entries.join(",\n  ")
    );
    let out = args
        .get("out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    // The contract: the last line of standard output is the result object.
    println!("{last_contract}");
    Ok(all_correct)
}

/// Print how this host runs the calibration kernel, pinned to one CPU:
/// the figure `host::REF_KERNEL_S` was pinned from on the sizing host.
fn cmd_calibrate() -> Result<bool, String> {
    let cpus = host::pin_to_last(1);
    let mut passes: Vec<f64> = (0..250).map(|_| host::kernel()).collect();
    stats::sort(&mut passes);
    let q = |p: f64| 1e3 * stats::percentile(&passes, p).unwrap_or(0.0);
    println!(
        "kernel pass on cpus {cpus:?}: p10 {:.4} ms, p50 {:.4} ms, p90 {:.4} ms (reference {:.4} ms, host speed {:.3})",
        q(0.10),
        q(0.50),
        q(0.90),
        1e3 * host::REF_KERNEL_S,
        host::speed_from_kernel(q(0.50) / 1e3)
    );
    Ok(true)
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional() else {
        return Err(format!("diff takes two result files\n\n{USAGE}"));
    };
    let bench = args.get("bench").map_or_else(
        || {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../BENCHMARK.json")
                .display()
                .to_string()
        },
        str::to_string,
    );
    let report = diff::diff(&diff::load(a)?, &diff::load(b)?, &diff::load(&bench)?)?;
    for line in &report.lines {
        println!("{line}");
    }
    // A count mismatch is a different program; a regressed timing may be
    // a noisy minute. Callers that cannot afford long windows (check.sh)
    // gate on the first only.
    Ok(if report.count_mismatches > 0 {
        ExitCode::from(EXIT_COUNT_MISMATCH)
    } else if report.regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Exit status of `diff` when a count metric differs.
const EXIT_COUNT_MISMATCH: u8 = 3;
