//! The request-plan layer: everything a prediction request needs between
//! "here is an annotated source and a benchmark database" and "here is the
//! prediction", shared verbatim by the one-shot `pevpm predict`
//! subcommand and the `pevpm serve` daemon loop.
//!
//! The split keeps the two front-ends honest: the CLI parses flags into a
//! [`PredictRequest`], the server parses protocol frames into the same
//! struct, and from there model parsing, timing-model construction,
//! evaluation-config assembly, budget plumbing and error classification
//! are one code path. A daemon answer is therefore reproducible by a
//! one-shot CLI invocation with the same inputs — bitwise.

use std::fmt;

use pevpm::stats::AdaptivePolicy;
use pevpm::timing::{PredictionMode, TimingModel};
use pevpm::vm::{EvalConfig, McPrediction, PevpmError, Prediction, RunBudget, Scratch};
use pevpm::Program;
use pevpm_dist::{CompileOptions, CompiledTable, DistTable};

/// How a plan failure maps onto the CLI's exit-code contract (and the
/// server's protocol error codes): `Usage` ↔ exit 2 / `"usage"`, `Input`
/// ↔ exit 3 / `"input"`, `Budget` ↔ exit 4 / `"budget"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanErrorKind {
    /// Malformed request (bad mode, zero reps, quorum out of range).
    Usage,
    /// Invalid input (unparseable model, table that fails compilation,
    /// evaluation failures other than terminations).
    Input,
    /// Evaluation terminated: run budget exceeded or deadlock.
    Budget,
}

impl PlanErrorKind {
    /// The protocol error-code string for this kind.
    pub fn code(self) -> &'static str {
        match self {
            PlanErrorKind::Usage => "usage",
            PlanErrorKind::Input => "input",
            PlanErrorKind::Budget => "budget",
        }
    }
}

/// A structured plan failure: a classification plus a printable message.
#[derive(Debug, Clone)]
pub struct PlanError {
    /// Failure class (drives exit codes and protocol error codes).
    pub kind: PlanErrorKind,
    /// Human-readable message.
    pub message: String,
}

impl PlanError {
    /// A usage-class error.
    pub fn usage(m: impl Into<String>) -> Self {
        PlanError {
            kind: PlanErrorKind::Usage,
            message: m.into(),
        }
    }

    /// An input-class error.
    pub fn input(m: impl Into<String>) -> Self {
        PlanError {
            kind: PlanErrorKind::Input,
            message: m.into(),
        }
    }

    /// A budget/termination-class error.
    pub fn budget(m: impl Into<String>) -> Self {
        PlanError {
            kind: PlanErrorKind::Budget,
            message: m.into(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// Classify an evaluation failure: deadlocks and budget aborts are
/// *terminations*; everything else — unknown parameters, missing
/// distributions, replication quorum failures — is a model/input error.
pub fn eval_error(e: PevpmError) -> PlanError {
    match &e {
        PevpmError::Deadlock { .. } | PevpmError::Budget(_) => {
            PlanError::budget(format!("evaluation failed: {e}"))
        }
        _ => PlanError::input(format!("evaluation failed: {e}")),
    }
}

/// One prediction request, front-end agnostic: the CLI builds it from
/// flags, the server from a protocol frame. The benchmark table is
/// *referenced*, not embedded — the CLI loads `--db`, the server resolves
/// a table name against the set it loaded at startup.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Annotated C source text of the model.
    pub model_src: String,
    /// Virtual process count.
    pub procs: usize,
    /// Prediction mode name: `dist`, `avg` or `min`.
    pub mode: String,
    /// Restrict the database to its ping-pong (lowest-contention) slice.
    pub pingpong: bool,
    /// Answer `Fit` quantiles by exact bisection instead of the LUT.
    pub exact_quantiles: bool,
    /// Free-parameter bindings, in application order.
    pub params: Vec<(String, f64)>,
    /// Base RNG seed.
    pub seed: u64,
    /// Monte-Carlo replications (1 = single evaluation).
    pub reps: usize,
    /// Worker threads of the replication pool (0 = all cores, 1 = serial);
    /// results are bitwise identical at any setting. Whoever evaluates the
    /// request sets it — `pevpm predict --threads`, or the daemon from its
    /// own `--threads` / `--conns` — so it is not a wire field.
    pub threads: usize,
    /// k-of-n quorum: accept the batch when at least k replications
    /// succeed.
    pub quorum: Option<usize>,
    /// Budget: maximum directive executions per evaluation.
    pub max_steps: Option<u64>,
    /// Budget: maximum simulated seconds per evaluation.
    pub max_virtual_secs: Option<f64>,
    /// Adaptive sequential stopping: run replications until the relative
    /// 95% CI half-width on the mean is at most this value. `Some` makes
    /// the engine ignore `reps` and stop between `min_reps` and
    /// `max_reps` replications instead.
    pub precision: Option<f64>,
    /// Adaptive replication floor (requires `precision`; default 4).
    pub min_reps: Option<usize>,
    /// Adaptive replication ceiling (requires `precision`; default 64).
    /// The daemon additionally tightens this to its own `--max-reps` cap.
    pub max_reps: Option<usize>,
    /// Antithetic seed pairing (variance reduction): replicas 2j/2j+1
    /// share a derived seed with mirrored Monte-Carlo draws.
    pub antithetic: bool,
}

impl PredictRequest {
    /// A request with the CLI's defaults for everything optional.
    pub fn new(model_src: impl Into<String>, procs: usize) -> Self {
        PredictRequest {
            model_src: model_src.into(),
            procs,
            mode: "dist".to_string(),
            pingpong: false,
            exact_quantiles: false,
            params: Vec::new(),
            seed: 1,
            reps: 1,
            threads: 0,
            quorum: None,
            max_steps: None,
            max_virtual_secs: None,
            precision: None,
            min_reps: None,
            max_reps: None,
            antithetic: false,
        }
    }

    /// Resolve the mode name (`dist`/`avg`/`min`).
    pub fn prediction_mode(&self) -> Result<PredictionMode, PlanError> {
        mode_from_name(&self.mode)
    }

    /// Sampler-compilation options implied by the request.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            exact_quantiles: self.exact_quantiles,
        }
    }

    /// Assemble the [`EvalConfig`] for this request: process count, seed,
    /// threads, parameter bindings, quorum, and budget. Validates the
    /// request's numeric constraints.
    pub fn eval_config(&self) -> Result<EvalConfig, PlanError> {
        if self.reps == 0 {
            return Err(PlanError::usage("--reps must be at least 1"));
        }
        let mut cfg = EvalConfig::new(self.procs)
            .with_seed(self.seed)
            .with_threads(self.threads);
        for (k, v) in &self.params {
            cfg = cfg.with_param(k, *v);
        }
        let policy = self.adaptive_policy()?;
        if let Some(policy) = policy {
            cfg = cfg.with_adaptive(policy);
        }
        if let Some(q) = self.quorum {
            // Quorum is k-of-(reps actually run): in adaptive mode the
            // ceiling bounds what can run, so that is what k must fit in.
            let ceiling = policy.map_or(self.reps, |p| p.max_reps);
            if q == 0 || q > ceiling {
                return Err(PlanError::usage(format!(
                    "--quorum {q} must be in 1..={ceiling} ({})",
                    if policy.is_some() {
                        "--max-reps"
                    } else {
                        "--reps"
                    }
                )));
            }
            cfg = cfg.with_quorum(q);
        }
        if self.antithetic {
            cfg = cfg.with_antithetic();
        }
        if let Some(budget) = self.budget() {
            cfg = cfg.with_budget(budget);
        }
        Ok(cfg)
    }

    /// The adaptive stopping policy this request asks for, validated.
    /// `--min-reps`/`--max-reps` without `--precision` is a usage error —
    /// they bound a stopping rule that would not be running.
    pub fn adaptive_policy(&self) -> Result<Option<AdaptivePolicy>, PlanError> {
        let Some(precision) = self.precision else {
            if self.min_reps.is_some() || self.max_reps.is_some() {
                return Err(PlanError::usage(
                    "--min-reps/--max-reps require --precision (adaptive mode)",
                ));
            }
            return Ok(None);
        };
        let mut policy = AdaptivePolicy::new(precision);
        if let Some(n) = self.min_reps {
            policy = policy.with_min_reps(n);
        }
        if let Some(n) = self.max_reps {
            policy = policy.with_max_reps(n);
        }
        policy.validate().map_err(PlanError::usage)?;
        Ok(Some(policy))
    }

    /// The replication count to hand [`evaluate_plan`]: the fixed `reps`,
    /// or the adaptive ceiling (≥ 2 by validation, so adaptive requests
    /// always take the Monte-Carlo path). Call after `eval_config()` has
    /// validated the request.
    pub fn effective_reps(&self) -> usize {
        match self.adaptive_policy() {
            Ok(Some(policy)) => policy.max_reps,
            _ => self.reps,
        }
    }

    /// The per-evaluation budget requested, if any axis is bounded.
    pub fn budget(&self) -> Option<RunBudget> {
        let mut budget = RunBudget::default();
        let mut bounded = false;
        if let Some(n) = self.max_steps {
            budget = budget.with_max_steps(n);
            bounded = true;
        }
        if let Some(s) = self.max_virtual_secs {
            budget = budget.with_max_virtual_secs(s);
            bounded = true;
        }
        bounded.then_some(budget)
    }
}

/// Resolve a prediction-mode name.
pub fn mode_from_name(name: &str) -> Result<PredictionMode, PlanError> {
    match name {
        "dist" => Ok(PredictionMode::FullDistribution),
        "avg" => Ok(PredictionMode::Average),
        "min" => Ok(PredictionMode::Minimum),
        other => Err(PlanError::usage(format!(
            "unknown mode {other:?} (dist|avg|min)"
        ))),
    }
}

/// Parse annotated source and lower it into the [`Program`] every
/// evaluation of it runs; the parsed model is dropped. `origin` names the
/// source in parse errors (a file path for the CLI, a request id for the
/// server). A model that parses but cannot lower still yields a program:
/// its evaluations fail, after the unbound-parameter check, with the
/// lowering error.
pub fn parse_model(src: &str, origin: &str) -> Result<Program, PlanError> {
    let model =
        pevpm::parse_annotations(src).map_err(|e| PlanError::input(format!("{origin}: {e}")))?;
    Ok(Program::new(&model))
}

/// Build the timing model a request asks for from a benchmark table.
///
/// Pre-validates the table compilation so invalid tables surface as
/// structured [`PlanError`]s instead of the panics the [`TimingModel`]
/// constructors document — a daemon cannot afford those.
pub fn build_timing(
    table: &DistTable,
    mode: PredictionMode,
    pingpong: bool,
    options: CompileOptions,
) -> Result<TimingModel, PlanError> {
    CompiledTable::compile_with(table, options)
        .map_err(|e| PlanError::input(format!("invalid benchmark table: {e}")))?;
    Ok(if pingpong {
        TimingModel::pingpong_only(table, mode)
    } else {
        match mode {
            PredictionMode::FullDistribution => {
                TimingModel::distributions_with(table.clone(), options)
            }
            PredictionMode::Average => {
                TimingModel::point(table.clone(), pevpm_dist::PointKind::Average)
            }
            PredictionMode::Minimum => {
                TimingModel::point(table.clone(), pevpm_dist::PointKind::Minimum)
            }
        }
    })
}

/// Outcome of one evaluated plan: a single prediction or a Monte-Carlo
/// batch.
#[derive(Debug, Clone)]
pub enum EvalOutcome {
    /// `reps == 1`: one deterministic evaluation.
    Single(Box<Prediction>),
    /// `reps > 1`: a Monte-Carlo batch.
    Batch(Box<McPrediction>),
}

impl EvalOutcome {
    /// The headline makespan: the single prediction's, or the batch mean.
    pub fn makespan(&self) -> f64 {
        match self {
            EvalOutcome::Single(p) => p.makespan,
            EvalOutcome::Batch(mc) => mc.mean,
        }
    }
}

/// Evaluate a lowered model under a prepared timing model and config —
/// the shared tail of both front-ends. `reps` must already be validated
/// (≥ 1, see [`PredictRequest::eval_config`]).
pub fn evaluate_plan(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
    reps: usize,
) -> Result<EvalOutcome, PlanError> {
    evaluate_plan_in(program, cfg, timing, reps, &mut Scratch::default())
}

/// [`evaluate_plan`], a single evaluation run in `scratch`'s tables (see
/// [`Scratch`]; a Monte-Carlo batch does not use them). The answer is the
/// same, bitwise.
pub fn evaluate_plan_in(
    program: &Program,
    cfg: &EvalConfig,
    timing: &TimingModel,
    reps: usize,
    scratch: &mut Scratch,
) -> Result<EvalOutcome, PlanError> {
    if reps > 1 {
        let mc = program.monte_carlo(cfg, timing, reps).map_err(eval_error)?;
        Ok(EvalOutcome::Batch(Box::new(mc)))
    } else {
        let p = program
            .evaluate_in(scratch, cfg, timing)
            .map_err(eval_error)?;
        Ok(EvalOutcome::Single(Box::new(p)))
    }
}

/// `write` run into a new `String`.
fn rendered(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    let _ = write(&mut out);
    out
}

/// Write the deterministic headline line both front-ends print for a
/// Monte-Carlo batch (the CLI appends wall-clock statistics after it).
pub fn write_mc_headline<W: fmt::Write + ?Sized>(
    out: &mut W,
    mc: &McPrediction,
    procs: usize,
) -> fmt::Result {
    writeln!(
        out,
        "predicted makespan: {:.6} s +/- {:.6} (stderr) over {procs} procs",
        mc.mean, mc.stderr
    )
}

/// The headline line (see [`write_mc_headline`]).
pub fn render_mc_headline(mc: &McPrediction, procs: usize) -> String {
    rendered(|out| write_mc_headline(out, mc, procs))
}

/// Write the deterministic adaptive-stopping line both front-ends append
/// after the headline when the batch ran under a precision target.
/// Nothing for fixed-reps batches, so fixed output stays byte-identical.
pub fn write_adaptive_line<W: fmt::Write + ?Sized>(out: &mut W, mc: &McPrediction) -> fmt::Result {
    let Some(a) = &mc.adaptive else {
        return Ok(());
    };
    writeln!(
        out,
        "adaptive: stopped at {} rep(s) (bounds {}..={}), achieved half-width {:.4} of mean (target {:.4}, {:.0}% CI){}",
        a.reps,
        a.min_reps,
        a.max_reps,
        a.rel_half_width,
        a.precision,
        a.confidence * 100.0,
        if a.converged { "" } else { " [NOT CONVERGED]" },
    )?;
    if a.drift {
        out.write_str("warning: replication stream looks non-stationary (drift detected)\n")?;
    }
    Ok(())
}

/// The adaptive-stopping line (see [`write_adaptive_line`]).
pub fn render_adaptive_line(mc: &McPrediction) -> String {
    rendered(|out| write_adaptive_line(out, mc))
}

/// Write the deterministic report for a single evaluation — byte-identical
/// to the one-shot `pevpm predict` output for the same request.
pub fn write_single_report<W: fmt::Write + ?Sized>(out: &mut W, p: &Prediction) -> fmt::Result {
    writeln!(
        out,
        "predicted makespan: {:.6} s over {} procs ({} messages)",
        p.makespan, p.nprocs, p.messages
    )?;
    // Costliest first; equal losses in label order.
    if !p.loss_by_label.is_empty() {
        out.write_str("top blocking sources:\n")?;
        for (label, loss) in p.loss_by_label.costliest().take(5) {
            writeln!(out, "  {label:<24} {loss:.6} s")?;
        }
    }
    if !p.races.is_empty() {
        writeln!(out, "{} potential race(s) detected:", p.races.len())?;
        for (proc_, what) in p.races.iter().take(5) {
            writeln!(out, "  proc {proc_}: {what}")?;
        }
    }
    Ok(())
}

/// The single-evaluation report (see [`write_single_report`]).
pub fn render_single_report(p: &Prediction) -> String {
    rendered(|out| write_single_report(out, p))
}

/// Write the deterministic failure lines for a quorum-absorbed batch
/// (shared so daemon and CLI report partial failures identically).
pub fn write_failures<W: fmt::Write + ?Sized>(
    out: &mut W,
    failures: &[(usize, String)],
) -> fmt::Result {
    if failures.is_empty() {
        return Ok(());
    }
    writeln!(
        out,
        "{} replication(s) failed (quorum met; prediction aggregates the rest):",
        failures.len()
    )?;
    for (idx, what) in failures {
        writeln!(out, "  replication {idx}: {what}")?;
    }
    Ok(())
}

/// The failure lines (see [`write_failures`]).
pub fn render_failures(failures: &[(usize, String)]) -> String {
    rendered(|out| write_failures(out, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pevpm::vm::LossByLabel;

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

    #[test]
    fn request_validation_mirrors_the_cli_contract() {
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.reps = 0;
        assert_eq!(req.eval_config().unwrap_err().kind, PlanErrorKind::Usage);
        req.reps = 4;
        req.quorum = Some(5);
        assert_eq!(req.eval_config().unwrap_err().kind, PlanErrorKind::Usage);
        req.quorum = Some(2);
        assert!(req.eval_config().is_ok());
        assert!(mode_from_name("warp").is_err());
        assert!(matches!(
            mode_from_name("dist"),
            Ok(PredictionMode::FullDistribution)
        ));
    }

    #[test]
    fn adaptive_policy_validation_is_a_usage_error() {
        // Bounds without a precision: nonsense, and a usage error.
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.min_reps = Some(4);
        let e = req.adaptive_policy().unwrap_err();
        assert_eq!(e.kind, PlanErrorKind::Usage);
        assert!(e.message.contains("--precision"), "{e}");

        // A malformed policy surfaces through eval_config too.
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.precision = Some(-0.5);
        assert_eq!(req.eval_config().unwrap_err().kind, PlanErrorKind::Usage);
        req.precision = Some(0.05);
        req.min_reps = Some(1);
        assert_eq!(req.eval_config().unwrap_err().kind, PlanErrorKind::Usage);
        req.min_reps = Some(8);
        req.max_reps = Some(4);
        assert_eq!(req.eval_config().unwrap_err().kind, PlanErrorKind::Usage);

        // A valid policy lands in the EvalConfig and raises the rep
        // ceiling the plan layer evaluates with.
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.precision = Some(0.05);
        req.max_reps = Some(24);
        let cfg = req.eval_config().unwrap();
        let policy = cfg.adaptive.expect("policy in config");
        assert_eq!(policy.max_reps, 24);
        assert_eq!(req.effective_reps(), 24);
        assert_eq!(PredictRequest::new(PINGPONG, 2).effective_reps(), 1);

        // Quorum validates against the adaptive ceiling, not req.reps.
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.precision = Some(0.05);
        req.max_reps = Some(24);
        req.quorum = Some(24);
        assert!(req.eval_config().is_ok());
        req.quorum = Some(25);
        let e = req.eval_config().unwrap_err();
        assert_eq!(e.kind, PlanErrorKind::Usage);
        assert!(e.message.contains("--max-reps"), "{e}");
    }

    #[test]
    fn adaptive_render_line_reports_the_stopping_outcome() {
        let model = parse_model(PINGPONG, "test").unwrap();
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.params.push(("rounds".to_string(), 5.0));
        req.precision = Some(0.05);
        let cfg = req.eval_config().unwrap();
        let outcome = evaluate_plan(&model, &cfg, &timing, req.effective_reps()).unwrap();
        let EvalOutcome::Batch(mc) = &outcome else {
            panic!("expected batch outcome")
        };
        // Hockney is deterministic: zero variance, stops at the floor.
        let report = mc.adaptive.expect("adaptive report");
        assert_eq!(report.reps, 4);
        assert!(report.converged);
        let line = render_adaptive_line(mc);
        assert!(line.contains("stopped at 4 rep(s)"), "{line}");
        assert!(!line.contains("NOT CONVERGED"), "{line}");
        assert!(!line.contains("drift"), "{line}");

        // Fixed-reps batches render nothing — the legacy report shape
        // is byte-preserved.
        let mut fixed_req = PredictRequest::new(PINGPONG, 2);
        fixed_req.params.push(("rounds".to_string(), 5.0));
        let fixed_cfg = fixed_req.eval_config().unwrap();
        let EvalOutcome::Batch(fixed_mc) = evaluate_plan(&model, &fixed_cfg, &timing, 3).unwrap()
        else {
            panic!("expected batch outcome")
        };
        assert_eq!(render_adaptive_line(&fixed_mc), "");
    }

    #[test]
    fn budget_is_none_unless_an_axis_is_bounded() {
        let mut req = PredictRequest::new(PINGPONG, 2);
        assert!(req.budget().is_none());
        req.max_steps = Some(100);
        assert!(req.budget().is_some());
    }

    #[test]
    fn invalid_tables_are_errors_not_panics() {
        let mut t = DistTable::new();
        t.insert(
            pevpm_dist::DistKey {
                op: pevpm_dist::Op::Send,
                size: 8,
                contention: 1,
            },
            pevpm_dist::CommDist::Hist(pevpm_dist::Histogram::new(0.0, 1.0)),
        );
        let e = build_timing(
            &t,
            PredictionMode::FullDistribution,
            false,
            CompileOptions::default(),
        )
        .unwrap_err();
        assert_eq!(e.kind, PlanErrorKind::Input);
        assert!(e.message.contains("empty histogram"), "{e}");
    }

    #[test]
    fn single_and_batch_evaluations_share_one_path() {
        let model = parse_model(PINGPONG, "test").unwrap();
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let mut req = PredictRequest::new(PINGPONG, 2);
        req.params.push(("rounds".to_string(), 5.0));
        let cfg = req.eval_config().unwrap();
        let single = evaluate_plan(&model, &cfg, &timing, 1).unwrap();
        let EvalOutcome::Single(p) = &single else {
            panic!("expected single outcome")
        };
        assert!(p.makespan > 0.0);
        let batch = evaluate_plan(&model, &cfg, &timing, 3).unwrap();
        let EvalOutcome::Batch(mc) = &batch else {
            panic!("expected batch outcome")
        };
        // A deterministic (Hockney) model: every replication is identical.
        assert_eq!(mc.mean.to_bits(), p.makespan.to_bits());
        assert_eq!(batch.makespan().to_bits(), p.makespan.to_bits());
    }

    #[test]
    fn deadlock_classifies_as_budget() {
        let src = "\
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
";
        let model = parse_model(src, "test").unwrap();
        let timing = TimingModel::hockney(100e-6, 12.5e6);
        let cfg = PredictRequest::new(src, 2).eval_config().unwrap();
        let e = evaluate_plan(&model, &cfg, &timing, 1).unwrap_err();
        assert_eq!(e.kind, PlanErrorKind::Budget);
    }

    #[test]
    fn equal_losses_render_in_label_order_whatever_the_insertion_order() {
        // Three directives with the same loss and one costlier one: the
        // report must not depend on how the map happens to iterate.
        let labels = ["recv-b", "recv-c", "recv-a", "slow"];
        let orders: [[usize; 4]; 4] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        let reports: Vec<String> = orders
            .iter()
            .map(|order| {
                let loss_by_label = LossByLabel::new(order.iter().map(|&i| {
                    let loss = if labels[i] == "slow" { 0.5 } else { 0.25 };
                    (labels[i], loss)
                }));
                render_single_report(&Prediction {
                    nprocs: 2,
                    finish_times: vec![1.0, 1.0],
                    makespan: 1.0,
                    compute_time: vec![0.0; 2],
                    send_time: vec![0.0; 2],
                    blocked_time: vec![0.0; 2],
                    messages: 4,
                    loss_by_label,
                    races: Vec::new(),
                    steps: 8,
                    sb_peak: 1,
                    timeline: Vec::new(),
                })
            })
            .collect();
        assert_eq!(
            reports[0],
            "predicted makespan: 1.000000 s over 2 procs (4 messages)\n\
             top blocking sources:\n\
             \x20 slow                     0.500000 s\n\
             \x20 recv-a                   0.250000 s\n\
             \x20 recv-b                   0.250000 s\n\
             \x20 recv-c                   0.250000 s\n"
        );
        for report in &reports[1..] {
            assert_eq!(report, &reports[0]);
        }
    }
}
