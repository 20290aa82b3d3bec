//! `pevpm bench`, plus the `--machine` / `--faults` handling it shares with
//! `trace`.

use crate::args::Args;
use crate::{err, write_text, CliError};
use pevpm_dist::{io as dist_io, DistTable, Op};
use pevpm_mpibench::{run_p2p_reps, P2pConfig, PairPattern, HIST_BINS};
use pevpm_mpisim::{ClusterConfig, FaultPlan, WorldConfig};
use pevpm_obs::{diag, Registry};
use std::path::Path;

/// Resolve `--machine` (default `perseus`) to its name and its cluster of
/// `nodes` nodes. An unknown machine is a hard usage error listing the
/// valid names — never a silent fallback.
pub(crate) fn resolve_machine(
    args: &Args,
    nodes: usize,
) -> Result<(&str, ClusterConfig), CliError> {
    let m = args.get("machine").unwrap_or("perseus");
    let cluster = ClusterConfig::named(m, nodes).ok_or_else(|| {
        CliError::usage(format!(
            "unknown machine {m:?}; valid machines: {}",
            ClusterConfig::MACHINES.join(", ")
        ))
    })?;
    Ok((m, cluster))
}

/// The simulated world `bench` and `trace` run on: `cluster` with the
/// `--faults` plan, if one is given.
pub(crate) fn world_for(
    args: &Args,
    cluster: ClusterConfig,
    procs_per_node: usize,
    seed: u64,
    record_trace: bool,
) -> Result<WorldConfig, CliError> {
    let faults = load_faults(args, &cluster)?;
    let mut world = WorldConfig::new(ClusterConfig { faults, ..cluster }, procs_per_node, seed);
    world.record_trace = record_trace;
    Ok(world)
}

/// Load and validate a `--faults PLAN.toml` fault scenario; without one,
/// the empty plan. Errors name the file (and line, for parse failures) and
/// exit with code 3.
fn load_faults(args: &Args, cluster: &ClusterConfig) -> Result<FaultPlan, CliError> {
    let Some(path) = args.get("faults") else {
        return Ok(FaultPlan::default());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let plan = FaultPlan::parse_toml(&text).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    plan.validate(cluster)
        .map_err(|e| CliError::input(format!("{path}: {e}")))?;
    if plan.is_empty() {
        diag::info(&format!("fault plan {path} is empty (no-op)"));
    }
    Ok(plan)
}

pub(crate) fn cmd_bench(args: &Args) -> Result<String, CliError> {
    let nodes: usize = args
        .require("nodes")?
        .parse()
        .map_err(|_| CliError::usage("--nodes must be an integer"))?;
    let ppn: usize = args.get_parsed("ppn", 1)?;
    let reps: usize = args.get_parsed("reps", 60)?;
    let replicas: usize = args.get_parsed("replicas", 1)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let sizes: Vec<u64> = args.get_list("sizes", vec![256, 512, 1024, 2048, 4096])?;
    let (machine, cluster) = resolve_machine(args, nodes)?;
    let pattern = match args.get("pattern").unwrap_or("ring") {
        "ring" => PairPattern::Ring,
        "halfsplit" => PairPattern::HalfSplit,
        "adjacent" => PairPattern::Adjacent,
        other => return err(format!("unknown pattern {other:?}")),
    };
    let out = args.require("out")?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");

    let cfg = P2pConfig {
        pattern,
        ..P2pConfig::new(
            world_for(args, cluster, ppn, seed, trace_out.is_some())?,
            sizes,
            reps,
        )
    };
    cfg.check()
        .map_err(|e| CliError::usage(format!("cannot benchmark {nodes}x{ppn}: {e}")))?;

    diag::info(&format!(
        "benchmarking {nodes}x{ppn} on {machine} ({} sizes, {reps} reps, {replicas} replica(s))",
        cfg.sizes.len()
    ));
    let res = run_p2p_reps(&cfg, replicas, threads)
        .map_err(|e| CliError::input(format!("benchmark failed: {e}")))?;

    let mut table = DistTable::new();
    res.add_to_table(&mut table, Op::Send, HIST_BINS);
    dist_io::save_table(&table, Path::new(out))
        .map_err(|e| CliError::input(format!("cannot write {out}: {e}")))?;

    let mut report = format!(
        "benchmarked {nodes}x{ppn} on {machine} ({} messages/size, pattern {:?})\n",
        res.by_size.first().map(|s| s.samples.len()).unwrap_or(0),
        pattern
    );
    for s in &res.by_size {
        report.push_str(&format!(
            "  {:>8} B: min {:>9.1}us avg {:>9.1}us max {:>10.1}us\n",
            s.size,
            s.summary.min().unwrap_or(0.0) * 1e6,
            s.summary.mean().unwrap_or(0.0) * 1e6,
            s.summary.max().unwrap_or(0.0) * 1e6,
        ));
    }
    if let Some(path) = trace_out {
        let traces = res.traces.as_deref().unwrap_or(&[]);
        let chrome = pevpm_mpisim::trace::chrome_trace(traces);
        write_text(path, &chrome.to_json())?;
        report.push_str(&format!(
            "benchmark trace ({} events, first replica) written to {path}\n",
            chrome.len()
        ));
    }
    if let Some(path) = metrics_out {
        let reg = Registry::new();
        reg.counter("bench.replicas").add(replicas as u64);
        for s in &res.by_size {
            reg.counter("bench.samples").add(s.samples.len() as u64);
            let lo = s.summary.min().unwrap_or(0.0) * 1e6;
            let hi = (s.summary.max().unwrap_or(0.0) * 1e6).max(lo + 1e-9);
            let h = reg.histogram(&format!("bench.latency_us.size_{}", s.size), lo, hi, 64);
            for &sample in &s.samples {
                h.record(sample * 1e6);
            }
        }
        write_text(path, &reg.to_json())?;
        report.push_str(&format!("benchmark metrics written to {path}\n"));
    }
    report.push_str(&format!("database written to {out}\n"));
    Ok(report)
}
