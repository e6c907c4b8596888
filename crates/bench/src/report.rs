//! Assemble `results/REPORT.md` from whatever figure JSONs exist under
//! `results/` — a machine-regenerated companion to the hand-annotated
//! `EXPERIMENTS.md`.

use crate::args::{Args, Usage};
use crate::{Ctx, COMMANDS, EXTENSIONS};
use analysis::stats::Summary;
use greenenvy::matrix::Cell;
use greenenvy::{exitcode, fig1, fig2, fig4, fig5, fig6};
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// The `report` command: one section per artefact of the `all` commands
/// and of `extensions`, in table order, for whichever files exist. An
/// artefact that exists but does not read as its figure fails the
/// command, naming the file, and no report is written.
pub fn run(_: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    let mut md = String::from(
        "# Regenerated results\n\n\
         Auto-assembled from `results/*.json`. Regenerate the inputs with\n\
         the `fig1`..`fig8`, `theorem1`, and `extensions` commands; see\n\
         `EXPERIMENTS.md` for the paper-vs-measured discussion.\n\n",
    );
    let figures = COMMANDS.iter().filter(|c| c.in_all).map(|c| c.name);
    for name in figures.chain(EXTENSIONS.iter().map(|e| e.0)) {
        let path = Path::new("results").join(format!("{name}.json"));
        let added = match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            read => read.map_err(|e| e.to_string()),
        }
        .and_then(|body| section(&mut md, name, &body));
        if let Err(e) = added {
            eprintln!("error: {}: {e}", path.display());
            return Ok(exitcode::FAILURE);
        }
    }

    // Atomic write (temp + rename), creating `results/` if missing; a
    // failure names the path and exits nonzero instead of panicking.
    let path = Path::new("results/REPORT.md");
    if let Err(e) = greenenvy::campaign::persist::write_atomic(path, md.as_bytes()) {
        eprintln!("error: {e}");
        return Ok(exitcode::FAILURE);
    }
    println!("wrote {} ({} bytes)", path.display(), md.len());
    Ok(exitcode::OK)
}

/// Read an artefact as `T`: a missing or mistyped field is an error,
/// never a zero in the report.
fn parse<T: serde::Deserialize>(body: &str) -> Result<T, String> {
    serde_json::from_str(body).map_err(|e| e.to_string())
}

/// Append a figure's table: its header, the rule under it, one line per
/// row.
fn table(md: &mut String, fig: &str, header: &str, rows: impl Iterator<Item = String>) {
    let rule = "|---".repeat(header.matches('|').count() - 1);
    let _ = writeln!(md, "## Figure {fig}\n\n{header}\n{rule}|");
    for row in rows {
        let _ = writeln!(md, "{row}");
    }
}

/// Append the artefact's section: a table for fig1, fig2, fig4, fig5
/// and fig6, each read through its own result type, nothing for fig3's
/// traces, a trimmed JSON dump for the rest.
fn section(md: &mut String, name: &str, body: &str) -> Result<(), String> {
    let cell =
        |c: &Cell, metric: &Summary| format!("| {} | {} | {:.2} |", c.cca, c.mtu, metric.mean);
    match name {
        "fig1" => {
            let r: fig1::Result = parse(body)?;
            let rows = r.points.iter().map(|p| {
                let s = &p.savings_pct;
                format!(
                    "| {:.0}% | {:.2} ± {:.2} |",
                    p.fraction * 100.0,
                    s.mean,
                    s.std
                )
            });
            table(md, "1", "| flow-1 share | savings over fair (%) |", rows);
            let _ = writeln!(md, "\npeak savings: {:.1}%", r.peak_savings_pct);
        }
        "fig2" => {
            let r: fig2::Result = parse(body)?;
            let rows = r.points.iter().map(|p| {
                format!(
                    "| {:.1} | {:.2} | {:.2} |",
                    p.target_gbps, p.power_w.mean, p.mix_power_w
                )
            });
            table(md, "2", "| target (Gb/s) | power (W) | mix (W) |", rows);
        }
        "fig4" => {
            let r: fig4::Result = parse(body)?;
            let rows = r
                .rows
                .iter()
                .map(|r| format!("| {:.0}% | {:.2} |", r.load * 100.0, r.savings_pct.mean));
            table(md, "4", "| load | savings (%) |", rows);
        }
        "fig5" => {
            let cells = parse::<fig5::Result>(body)?.matrix.cells;
            let rows = cells.iter().map(|c| cell(c, &c.energy_j));
            table(md, "5", "| cca | mtu | energy_j (J) |", rows);
        }
        "fig6" => {
            let cells = parse::<fig6::Result>(body)?.matrix.cells;
            let rows = cells.iter().map(|c| cell(c, &c.power_w));
            table(md, "6", "| cca | mtu | power_w (W) |", rows);
        }
        "fig3" => {
            parse::<Value>(body)?;
            return Ok(());
        }
        _ => {
            let dump = serde_json::to_string_pretty(&summarize(&parse(body)?)).unwrap_or_default();
            let _ = writeln!(md, "## {name}\n\n```json\n{dump}\n```");
        }
    }
    md.push('\n');
    Ok(())
}

/// Keep reports readable: drop bulky embedded matrices from the summary.
fn summarize(v: &Value) -> Value {
    match v {
        Value::Object(map) => {
            let filtered: serde_json::Map<String, Value> = map
                .iter()
                .filter(|(k, _)| k.as_str() != "matrix" && k.as_str() != "points")
                .map(|(k, val)| (k.clone(), summarize(val)))
                .collect();
            Value::Object(filtered)
        }
        Value::Array(items) if items.len() > 12 => {
            Value::String(format!("[{} items elided]", items.len()))
        }
        other => other.clone(),
    }
}
