//! `pevpm predict`, and the flags-to-[`PredictRequest`] mapping `client`
//! reuses.

use crate::args::Args;
use crate::db::load_db;
use crate::{err, write_text, CliError};
use pevpm_obs::{diag, Registry};
use pevpm_serve::plan::{self, EvalOutcome, PredictRequest};
use pevpm_serve::Telemetry;
use std::sync::Arc;

/// Build a [`PredictRequest`] from `predict`/`client` flags. `src` is the
/// annotated source (already read from `--model`).
pub(crate) fn predict_request(args: &Args, src: String) -> Result<PredictRequest, CliError> {
    let procs: usize = args
        .require("procs")?
        .parse()
        .map_err(|_| CliError::usage("--procs must be an integer"))?;
    let mut req = PredictRequest::new(src, procs);
    req.mode = args.get("mode").unwrap_or("dist").to_string();
    req.pingpong = args.has("pingpong");
    req.exact_quantiles = args.has("exact-quantiles");
    req.seed = args.get_parsed("seed", 1)?;
    req.reps = args.get_parsed("reps", 1)?;
    for kv in args.values("param") {
        let Some((k, v)) = kv.split_once('=') else {
            return err(format!("--param expects k=v, got {kv:?}"));
        };
        let v: f64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("--param {k}: bad number {v:?}")))?;
        req.params.push((k.to_string(), v));
    }
    req.quorum = args.get_opt("quorum")?;
    req.max_steps = args.get_opt("max-steps")?;
    req.max_virtual_secs = args.get_opt("max-virtual-secs")?;
    req.precision = args.get_opt("precision")?;
    req.min_reps = args.get_opt("min-reps")?;
    req.max_reps = args.get_opt("max-reps")?;
    req.antithetic = args.has("antithetic");
    Ok(req)
}

pub(crate) fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let table = load_db(args)?;
    let src = std::fs::read_to_string(model_path)
        .map_err(|e| CliError::input(format!("cannot read {model_path}: {e}")))?;
    let mut req = predict_request(args, src)?;
    // The one-shot run owns its replication pool; a daemon's requests get
    // the daemon's, which is why `client` has no such flag.
    req.threads = args.get_parsed("threads", 0)?;

    // One-shot service-stage timing: a private telemetry hub — separate
    // from the --metrics-out engine registry, whose bytes must stay
    // unchanged — feeding the pid-4 "service stages" track in --trace-out.
    let telemetry = Telemetry::standalone();
    let mut timer = telemetry.begin("predict", true);
    timer.set_reps(req.reps);
    timer.set_quorum(req.quorum.is_some());

    let mode = timer.stage("validate", || req.prediction_mode())?;
    let model = timer.stage("model", || plan::parse_model(&req.model_src, model_path))?;
    let timing = timer.stage("compile", || {
        plan::build_timing(&table, mode, req.pingpong, req.compile_options())
    })?;

    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let registry = metrics_out.map(|_| Arc::new(Registry::new()));

    let mut cfg = req.eval_config()?;
    if let Some(reg) = &registry {
        cfg = cfg.with_metrics(reg.clone());
    }
    if trace_out.is_some() {
        cfg = cfg.with_timeline();
    }

    // Write the sinks requested on the command line; returns report lines.
    let dump_sinks = |pred: Option<&pevpm::Prediction>,
                      span: &pevpm_obs::RequestSpan|
     -> Result<String, CliError> {
        let mut extra = String::new();
        if let (Some(path), Some(p)) = (trace_out, pred) {
            let mut chrome = pevpm::trace_export::chrome_trace(p);
            chrome.merge(pevpm_obs::span::chrome_service_track(span));
            write_text(path, &chrome.to_json())?;
            extra.push_str(&format!(
                "predicted timeline ({} spans, incl. service stages) written to {path}\n",
                chrome.len()
            ));
        }
        if let (Some(path), Some(reg)) = (metrics_out, &registry) {
            write_text(path, &reg.to_json())?;
            extra.push_str(&format!("engine metrics written to {path}\n"));
        }
        Ok(extra)
    };

    let effective_reps = req.effective_reps();
    if req.precision.is_some() {
        diag::info(&format!(
            "running adaptive Monte-Carlo replications (up to {effective_reps})..."
        ));
    } else if req.reps > 1 {
        diag::info(&format!("running {} Monte-Carlo replications...", req.reps));
    }
    let outcome = timer.stage("eval", || {
        plan::evaluate_plan(&model, &cfg, &timing, effective_reps)
    })?;
    match outcome {
        EvalOutcome::Batch(mc) => {
            if let Some(reg) = &registry {
                reg.counter("mc.replica_failures")
                    .add(mc.failures.len() as u64);
            }
            timer.set_replica_failures(mc.failures.len());
            let reps_run = mc.runs.len() + mc.failures.len();
            if let Some(a) = &mc.adaptive {
                timer.set_reps(a.reps);
                timer.set_reps_saved(a.reps_saved());
            }
            // The deterministic headline and failure lines are shared with
            // the daemon; the wall-clock statistics are one-shot-only.
            let mut out = timer.stage("render", || {
                let mut out = plan::render_mc_headline(&mc, req.procs);
                out.push_str(&plan::render_adaptive_line(&mc));
                out.push_str(&format!(
                    "{} replications in {:.3} s ({:.0} evals/s), range [{:.6}, {:.6}] s\n\
                     {} worker(s), {:.0}% busy, {} directives swept ({:.0}/replication)\n",
                    reps_run,
                    mc.wall_secs,
                    mc.evals_per_sec,
                    mc.min,
                    mc.max,
                    mc.profile.workers.len(),
                    mc.profile.utilization() * 100.0,
                    mc.total_steps(),
                    mc.mean_steps(),
                ));
                out.push_str(&plan::render_failures(&mc.failures));
                out
            });
            let span = timer.finish("ok", out.len());
            // The trace sink gets the first replication: its seed is the
            // one a `--reps 1` run with the same --seed would use.
            out.push_str(&dump_sinks(mc.runs.first(), &span)?);
            Ok(out)
        }
        EvalOutcome::Single(p) => {
            let mut out = timer.stage("render", || plan::render_single_report(&p));
            let span = timer.finish("ok", out.len());
            out.push_str(&dump_sinks(Some(&p), &span)?);
            Ok(out)
        }
    }
}
