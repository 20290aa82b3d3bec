//! `pevpm fuzz`: front-end to the `pevpm-testkit` campaign driver.

use crate::args::Args;
use crate::CliError;
use pevpm_obs::diag;
use std::path::Path;

/// `pevpm fuzz`: differential conformance fuzzing of the PEVPM engine
/// against itself (bitwise) and against mpisim (statistically), plus
/// metamorphic and diagnostics oracles. See `pevpm-testkit` for the
/// oracle hierarchy; this command is a thin front-end over its
/// deterministic campaign driver.
pub(crate) fn cmd_fuzz(args: &Args) -> Result<String, CliError> {
    use pevpm_testkit::campaign::{self, CampaignConfig, Mode};
    use pevpm_testkit::Counterexample;

    let campaign_cfg = |mode: Mode| -> Result<CampaignConfig, CliError> {
        Ok(CampaignConfig {
            mode,
            programs: args.get_parsed("programs", 50)?,
            seed: args.get_parsed("seed", 2004)?,
            alpha: args.get_parsed("alpha", 1e-5)?,
            replications: args.get_parsed("reps", 3)?,
            ks_runs: args.get_parsed("ks-runs", 40)?,
            bench_reps: args.get_parsed("bench-reps", 40)?,
        })
    };

    // Replay one artifact under its recorded oracle.
    if let Some(path) = args.get("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
        let cx =
            Counterexample::parse(&text).map_err(|e| CliError::input(format!("{path}: {e}")))?;
        let cfg = campaign_cfg(Mode::Differential)?;
        return match campaign::replay(&cx, &cfg) {
            Err(f) => Err(CliError::input(format!(
                "counterexample reproduces (oracle {}, seed {}): {f}\n{}",
                cx.oracle,
                cx.seed,
                cx.render()
            ))),
            Ok(()) => Ok(format!(
                "counterexample did not reproduce (oracle {}, seed {}, {} directive(s))\n",
                cx.oracle,
                cx.seed,
                cx.program.directives()
            )),
        };
    }

    let modes: Vec<Mode> = match args.get("mode").unwrap_or("differential") {
        "all" => Mode::ALL.to_vec(),
        m => vec![Mode::from_name(m).ok_or_else(|| {
            CliError::usage(format!(
                "unknown mode {m:?} (differential|metamorphic|ks|diagnostics|dag|adaptive|all)"
            ))
        })?],
    };
    let out_dir = args.get("out");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::input(format!("cannot create {dir}: {e}")))?;
    }

    let mut out = String::new();
    let mut total_failures = 0usize;
    for mode in modes {
        let cfg = campaign_cfg(mode)?;
        diag::info(&format!(
            "fuzzing {} programs under the {mode} oracle (seed {})...",
            cfg.programs, cfg.seed
        ));
        let res = campaign::run_campaign(&cfg);
        out.push_str(&format!(
            "{mode}: {} program(s), {} directive(s), {} counterexample(s)\n",
            res.programs,
            res.directives,
            res.failures.len()
        ));
        for cx in &res.failures {
            total_failures += 1;
            out.push_str(&format!(
                "  seed {}: {} ({} directive(s), shrunk from {})\n",
                cx.seed,
                cx.failure,
                cx.program.directives(),
                cx.original_directives
            ));
            if let Some(dir) = out_dir {
                let path = Path::new(dir).join(cx.file_name());
                std::fs::write(&path, cx.render()).map_err(|e| {
                    CliError::input(format!("cannot write {}: {e}", path.display()))
                })?;
                out.push_str(&format!("  artifact written to {}\n", path.display()));
            } else {
                out.push_str(&cx.render());
            }
        }
    }
    if total_failures > 0 {
        return Err(CliError::input(format!(
            "{out}{total_failures} counterexample(s) found"
        )));
    }
    out.push_str("ok — all oracles passed\n");
    Ok(out)
}
