//! Assemble `results/REPORT.md` from whatever figure JSONs exist under
//! `results/` — a machine-regenerated companion to the hand-annotated
//! `EXPERIMENTS.md`.

use crate::args::{Args, Usage};
use crate::{Ctx, COMMANDS, EXTENSIONS};
use greenenvy::exitcode;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

fn load(name: &str) -> Option<Value> {
    let body = std::fs::read_to_string(Path::new("results").join(format!("{name}.json"))).ok()?;
    serde_json::from_str(&body).ok()
}

/// The `report` command: one section per artefact of the `all` commands
/// and of `extensions`, in table order, for whichever files exist.
pub fn run(_: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    let mut md = String::from(
        "# Regenerated results\n\n\
         Auto-assembled from `results/*.json`. Regenerate the inputs with\n\
         the `fig1`..`fig8`, `theorem1`, and `extensions` commands; see\n\
         `EXPERIMENTS.md` for the paper-vs-measured discussion.\n\n",
    );
    let figures = COMMANDS.iter().filter(|c| c.in_all).map(|c| c.name);
    for name in figures.chain(EXTENSIONS.iter().map(|e| e.0)) {
        if let Some(artefact) = load(name) {
            section(&mut md, name, &artefact);
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

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

fn cell_row(c: &Value, metric: &str) -> String {
    let (cca, mtu) = (
        c["cca"].as_str().unwrap_or("?"),
        c["mtu"].as_u64().unwrap_or(0),
    );
    format!("| {cca} | {mtu} | {:.2} |", f(&c[metric]["mean"]))
}

/// An artefact, the keys down to its row array, the table header, and
/// how one row is written.
type Table = (
    &'static str,
    &'static [&'static str],
    &'static str,
    fn(&Value) -> String,
);

/// The figures the report tabulates.
#[rustfmt::skip]
const TABLES: &[Table] = &[
    ("fig1", &["points"], "| flow-1 share | savings over fair (%) |",
        |p| format!("| {:.0}% | {:.2} ± {:.2} |", f(&p["fraction"]) * 100.0, f(&p["savings_pct"]["mean"]), f(&p["savings_pct"]["std"]))),
    ("fig2", &["points"], "| target (Gb/s) | power (W) | mix (W) |",
        |p| format!("| {:.1} | {:.2} | {:.2} |", f(&p["target_gbps"]), f(&p["power_w"]["mean"]), f(&p["mix_power_w"]))),
    ("fig4", &["rows"], "| load | savings (%) |",
        |r| format!("| {:.0}% | {:.2} |", f(&r["load"]) * 100.0, f(&r["savings_pct"]["mean"]))),
    ("fig5", &["matrix", "cells"], "| cca | mtu | energy_j (J) |", |c| cell_row(c, "energy_j")),
    ("fig6", &["matrix", "cells"], "| cca | mtu | power_w (W) |", |c| cell_row(c, "power_w")),
];

/// Append the artefact's section: its table if it has one in [`TABLES`],
/// nothing for fig3's traces, a trimmed JSON dump for the rest.
fn section(md: &mut String, name: &str, v: &Value) {
    if name == "fig3" {
        return;
    }
    if let Some((_, keys, header, row)) = TABLES.iter().find(|t| t.0 == name) {
        let rule = "|---".repeat(header.matches('|').count() - 1);
        let _ = writeln!(md, "## Figure {}\n\n{header}\n{rule}|", &name[3..]);
        let rows = keys.iter().fold(v, |v, key| &v[*key]);
        for r in rows.as_array().into_iter().flatten() {
            let _ = writeln!(md, "{}", row(r));
        }
        if name == "fig1" {
            let _ = writeln!(md, "\npeak savings: {:.1}%", f(&v["peak_savings_pct"]));
        }
    } else {
        let dump = serde_json::to_string_pretty(&summarize(v)).unwrap_or_default();
        let _ = writeln!(md, "## {name}\n\n```json\n{dump}\n```");
    }
    md.push('\n');
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
