//! Database and model inspection: `inspect`, `fit`, `annotate`, and the
//! `--db` loader the other commands use.

use crate::args::Args;
use crate::{err, CliError};
use pevpm_dist::{io as dist_io, CommDist, DistTable};
use std::path::Path;

pub(crate) fn load_db(args: &Args) -> Result<DistTable, CliError> {
    let path = args.require("db")?;
    dist_io::load_table(Path::new(path))
        .map_err(|e| CliError::input(format!("cannot load {path}: {e}")))
}

pub(crate) fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let table = load_db(args)?;
    let mut out = format!("{} entries\n", table.len());
    for (key, dist) in table.iter() {
        let kind = match dist {
            CommDist::Hist(h) => format!("hist[{} bins, {} samples]", h.num_bins(), h.total()),
            CommDist::Fit(f) => format!("fit[{:?}]", f.kind),
            CommDist::Point(_) => "point".to_string(),
        };
        out.push_str(&format!(
            "  {:<10} size {:>8} B  contention {:>4}  min {:>9.1}us  mean {:>9.1}us  {}\n",
            key.op.to_string(),
            key.size,
            key.contention,
            dist.min() * 1e6,
            dist.mean() * 1e6,
            kind
        ));
    }
    Ok(out)
}

pub(crate) fn cmd_fit(args: &Args) -> Result<String, CliError> {
    let table = load_db(args)?;
    let out_path = args.require("out")?;
    let fitted = table.fitted();
    let before = dist_io::write_table(&table).len();
    let after = dist_io::write_table(&fitted).len();
    dist_io::save_table(&fitted, Path::new(out_path))
        .map_err(|e| CliError::input(format!("cannot write {out_path}: {e}")))?;
    Ok(format!(
        "fitted {} entries: {} -> {} bytes ({:.1}x smaller), written to {out_path}\n",
        fitted.len(),
        before,
        after,
        before as f64 / after.max(1) as f64
    ))
}

fn describe_model(model: &pevpm::Model) -> String {
    fn walk(stmts: &[pevpm::Stmt], depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        for s in stmts {
            match s {
                pevpm::Stmt::Loop { count, var, body } => {
                    out.push_str(&format!(
                        "{pad}Loop iterations = {count}{}\n",
                        var.as_ref()
                            .map(|v| format!(", var {v}"))
                            .unwrap_or_default()
                    ));
                    walk(body, depth + 1, out);
                }
                pevpm::Stmt::Runon { branches } => {
                    out.push_str(&format!("{pad}Runon ({} branches)\n", branches.len()));
                    for (cond, b) in branches {
                        out.push_str(&format!("{pad}  when {cond}\n"));
                        walk(b, depth + 2, out);
                    }
                }
                pevpm::Stmt::Message {
                    kind,
                    size,
                    from,
                    to,
                    handle,
                    label,
                } => {
                    out.push_str(&format!(
                        "{pad}Message {kind:?} size = {size}, {from} -> {to}{}{}\n",
                        handle
                            .as_ref()
                            .map(|h| format!(", handle {h}"))
                            .unwrap_or_default(),
                        label
                            .as_ref()
                            .map(|l| format!(" [{l}]"))
                            .unwrap_or_default()
                    ));
                }
                pevpm::Stmt::Wait { handle, .. } => {
                    out.push_str(&format!("{pad}Wait handle = {handle}\n"));
                }
                pevpm::Stmt::Serial { time, machine, .. } => {
                    out.push_str(&format!(
                        "{pad}Serial{} time = {time}\n",
                        machine
                            .as_ref()
                            .map(|m| format!(" on {m}"))
                            .unwrap_or_default()
                    ));
                }
                pevpm::Stmt::Collective { op, size, .. } => {
                    out.push_str(&format!("{pad}Collective {op:?} size = {size}\n"));
                }
            }
        }
    }
    let mut out = String::new();
    walk(&model.stmts, 0, &mut out);
    out
}

pub(crate) fn cmd_annotate(args: &Args) -> Result<String, CliError> {
    let Some(path) = args.positional().get(1) else {
        return err("usage: pevpm annotate FILE.c");
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::input(format!("cannot read {path}: {e}")))?;
    let model =
        pevpm::parse_annotations(&src).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    Ok(format!(
        "{} directives, free parameters {:?}\n{}",
        model.num_stmts(),
        model.free_variables(),
        describe_model(&model)
    ))
}
