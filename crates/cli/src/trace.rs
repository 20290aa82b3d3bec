//! `pevpm trace`: measured vs predicted Jacobi timelines.

use crate::args::Args;
use crate::bench::{resolve_machine, world_for};
use crate::db::load_db;
use crate::{err, write_text, CliError};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_dist::CompileOptions;
use pevpm_obs::diag;
use pevpm_serve::plan;

/// `pevpm trace`: run the Jacobi example with measured tracing on, print
/// the per-rank breakdown, and optionally export predicted + measured
/// timelines as one Chrome trace.
pub(crate) fn cmd_trace(args: &Args) -> Result<String, CliError> {
    use pevpm_apps::jacobi::{self, JacobiConfig};

    let nodes: usize = args
        .require("nodes")?
        .parse()
        .map_err(|_| CliError::usage("--nodes must be an integer"))?;
    let ppn: usize = args.get_parsed("ppn", 1)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let machine = resolve_machine(args)?;
    let xsize: usize = args.get_parsed("xsize", 256)?;
    let iters: usize = args.get_parsed("iters", 50)?;
    let serial_ms: f64 = args.get_parsed("serial-ms", 3.24)?;
    let trace_out = args.get("trace-out");

    let nprocs = nodes * ppn;
    if nprocs == 0 || !xsize.is_multiple_of(nprocs.max(1)) {
        return err(format!(
            "--xsize {xsize} must be divisible by nodes*ppn = {nprocs}"
        ));
    }
    let jcfg = JacobiConfig {
        xsize,
        iterations: iters,
        serial_secs: serial_ms * 1e-3,
    };

    diag::info(&format!(
        "tracing {iters}-iteration Jacobi ({xsize}x{xsize}) on {nodes}x{ppn} {machine}"
    ));
    let measured = jacobi::run_measured(world_for(args, nodes, ppn, seed, true)?, &jcfg)
        .map_err(|e| CliError::input(format!("measured run failed: {e}")))?;
    let traces = measured.report.traces.as_deref().unwrap_or(&[]);
    let breakdown = pevpm_mpisim::breakdown(traces);

    // Predicted counterpart: sample --db when given, else fall back to an
    // analytic Hockney model (Fast-Ethernet-era constants).
    let timing = if args.has("db") {
        let options = CompileOptions {
            exact_quantiles: args.has("exact-quantiles"),
        };
        TimingModel::distributions_with(load_db(args)?, options)
    } else {
        TimingModel::hockney(100e-6, 12.5e6)
    };
    let cfg = EvalConfig::new(nprocs).with_seed(seed).with_timeline();
    let pred = evaluate(&jacobi::model(&jcfg), &cfg, &timing).map_err(plan::eval_error)?;

    let mut out = format!(
        "measured makespan:  {:.6} s over {nprocs} ranks ({} messages)\n\
         predicted makespan: {:.6} s ({})\n\n\
         per-rank breakdown (seconds):\n\
         {:>5} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6}\n",
        measured.time,
        measured.report.messages,
        pred.makespan,
        if args.has("db") {
            "measured distributions"
        } else {
            "analytic Hockney model"
        },
        "rank",
        "compute",
        "send",
        "blocked",
        "coll",
        "msgs",
        "comm%",
    );
    for (r, b) in breakdown.iter().enumerate() {
        out.push_str(&format!(
            "{r:>5} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>8} {:>5.1}%\n",
            b.compute,
            b.send,
            b.blocked,
            b.collective,
            b.messages,
            b.comm_fraction() * 100.0,
        ));
    }

    if let Some(path) = trace_out {
        let mut chrome = pevpm::trace_export::chrome_trace(&pred);
        chrome.merge(pevpm_mpisim::trace::chrome_trace(traces));
        chrome.merge(pevpm_mpisim::fault_marks(&measured.report.fault_events));
        write_text(path, &chrome.to_json())?;
        out.push_str(&format!(
            "\nmerged predicted+measured trace ({} events) written to {path}\n\
             open in chrome://tracing or https://ui.perfetto.dev\n",
            chrome.len()
        ));
    }
    diag::debug(&format!("net stats: {:?}", measured.report.net_stats));
    Ok(out)
}
