//! What a run reports: the `result.json` document, the printed ledger,
//! the one-line driver result, and the `history.jsonl` row.

use crate::product::write_atomic;
use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Layout version of `result.json`.
pub const RESULT_SCHEMA: u32 = 1;

/// One end-to-end metric of one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndToEndResult {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value: the first quartile of the samples for
    /// `wall_s`, their median for `setup_s`, their maximum for
    /// `peak_rss_mb` (see `ledger::estimate`).
    pub value: f64,
    /// Min, quartiles, max and count of the samples behind `value`.
    pub samples: Summary,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Odd-round median against even-round median, relative.
    pub split_half_diff: f64,
    /// True when `split_half_diff` exceeds `bound`: this run cannot
    /// resolve a change of the size the bound allows.
    pub unresolved: bool,
}

/// One per-layer metric of one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerResult {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value (median over the passes that observed it; 0 if none did).
    pub value: f64,
}

/// A correctness check that failed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailedCheck {
    /// What was checked.
    pub name: String,
    /// The numbers behind the failure.
    pub detail: String,
}

/// Everything measured on one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// What it simulated, as 16 hex digits. For reviewers, not gated.
    pub sim_fingerprint: String,
    /// Operations attempted: product operations plus correctness checks.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The end-to-end metrics (tracing off).
    pub end_to_end: Vec<EndToEndResult>,
    /// The per-layer metrics (traced pass, counters, probes).
    pub per_layer: Vec<LayerResult>,
    /// Checks that failed, with their numbers.
    pub failed_checks: Vec<FailedCheck>,
}

impl WorkloadResult {
    /// Operations failed over attempted; 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        fail_ratio(self.failed, self.attempted)
    }

    /// The end-to-end metric `name`, if reported.
    pub fn end_to_end(&self, name: &str) -> Option<&EndToEndResult> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The per-layer metric `name` (0 if absent).
    pub fn layer(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// `failed / attempted`, with zero attempts reading as zero failures.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// One complete run of the ledger.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// [`RESULT_SCHEMA`].
    pub schema: u32,
    /// The benchmark seed every input was derived from.
    pub seed: u64,
    /// `full` or `quick`.
    pub sizes: String,
    /// Timed rounds per workload.
    pub rounds: u64,
    /// `std::thread::available_parallelism` of the host.
    pub nproc: u64,
    /// The fixed probe time nominal seconds are scaled to.
    pub hostref_nominal_s: f64,
    /// Per-workload results, in round order.
    pub workloads: Vec<WorkloadResult>,
    /// True when no operation and no check failed anywhere.
    pub ok: bool,
}

impl RunResult {
    /// Write `result.json` atomically.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        write_atomic(path, json.as_bytes()).map_err(|e| e.to_string())
    }

    /// Read a `result.json` back.
    pub fn load(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| e.to_string())
    }

    /// Every metric by name with its unit, as a human-readable ledger.
    pub fn render(&self) -> String {
        let mut out = format!(
            "benchmark ledger — seed {}, sizes {}, {} rounds, nproc {}, nominal s = raw s x {} / hostref\n\
             (n samples support a median and quartiles, no percentile above them)\n",
            self.seed, self.sizes, self.rounds, self.nproc, self.hostref_nominal_s
        );
        for w in &self.workloads {
            out.push_str(&format!(
                "\n== {}  sim_fingerprint {}  fail_ratio {}/{} = {}\n",
                w.name,
                w.sim_fingerprint,
                w.failed,
                w.attempted,
                w.fail_ratio()
            ));
            out.push_str(
                "  end-to-end             unit        value        min         q1     median         q3        max   n  bound  split-half\n",
            );
            for m in &w.end_to_end {
                let s = &m.samples;
                out.push_str(&format!(
                    "  {:<22} {:<5} {:>11.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>3}  {:>4.0}%  {:>6.1}%{}\n",
                    m.name,
                    m.unit,
                    m.value,
                    s.min,
                    s.q1,
                    s.median,
                    s.q3,
                    s.max,
                    s.n,
                    m.bound * 100.0,
                    m.split_half_diff * 100.0,
                    if m.unresolved { "  UNRESOLVED" } else { "" }
                ));
            }
            out.push_str("  per-layer\n");
            for m in &w.per_layer {
                out.push_str(&format!(
                    "    {:<36} {:>16.6} {}\n",
                    m.name, m.value, m.unit
                ));
            }
            for c in &w.failed_checks {
                out.push_str(&format!("  CHECK FAILED: {} — {}\n", c.name, c.detail));
            }
        }
        out.push_str(if self.ok {
            "\nall checks passed\n"
        } else {
            "\nFAILED: see CHECK FAILED lines above\n"
        });
        out
    }

    /// One `history.jsonl` row: where, when in git terms, and every
    /// end-to-end value.
    pub fn history_row(&self, git_rev: &str) -> String {
        let mut metrics = serde_json::Map::new();
        for w in &self.workloads {
            for m in &w.end_to_end {
                metrics.insert(format!("{}.{}", w.name, m.name), serde_json::json!(m.value));
            }
            metrics.insert(
                format!("{}.fail_ratio", w.name),
                serde_json::json!(w.fail_ratio()),
            );
        }
        let row = serde_json::json!({
            "git_rev": git_rev,
            "seed": (self.seed),
            "sizes": (self.sizes),
            "nproc": (self.nproc),
            "metrics": (serde_json::Value::Object(metrics))
        });
        serde_json::to_string(&row).expect("a history row serializes")
    }
}

/// Append `row` to the JSONL file at `path`. The whole file is rewritten
/// atomically: it holds one short line per recorded run.
pub fn append_history(path: &Path, row: &str) -> Result<(), String> {
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(row);
    text.push('\n');
    write_atomic(path, text.as_bytes()).map_err(|e| e.to_string())
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(String, f64, String)]) -> String {
    let mut map = serde_json::Map::new();
    for (name, value, unit) in metrics {
        map.insert(
            name.clone(),
            serde_json::json!({"value": (*value), "unit": unit}),
        );
    }
    let line = serde_json::json!({
        "correct": (failed == 0),
        "attempted": (attempted.max(1)),
        "failed": failed,
        "metrics": (serde_json::Value::Object(map))
    });
    serde_json::to_string(&line).expect("the result line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_result() -> RunResult {
        let samples = Summary::of(&[1.0, 1.25, 1.5]);
        RunResult {
            schema: RESULT_SCHEMA,
            seed: 7,
            sizes: "quick".to_string(),
            rounds: 3,
            nproc: 2,
            hostref_nominal_s: 0.15,
            workloads: vec![WorkloadResult {
                name: "lossy_mix".to_string(),
                sim_fingerprint: "00ff00ff00ff00ff".to_string(),
                attempted: 12,
                failed: 1,
                end_to_end: vec![EndToEndResult {
                    name: "wall_s".to_string(),
                    unit: "s".to_string(),
                    value: samples.median,
                    samples,
                    bound: 0.15,
                    split_half_diff: 0.2,
                    unresolved: true,
                }],
                per_layer: vec![LayerResult {
                    name: "netsim.events".to_string(),
                    unit: "count".to_string(),
                    value: 837468.0,
                }],
                failed_checks: vec![FailedCheck {
                    name: "recovery path exercised".to_string(),
                    detail: "retx_ratio 0.001".to_string(),
                }],
            }],
            ok: false,
        }
    }

    #[test]
    fn result_json_round_trips() {
        let result = sample_result();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-report/result.json");
        result.save(&path).expect("saved");
        assert_eq!(RunResult::load(&path).expect("loaded"), result);
    }

    #[test]
    fn fail_ratio_with_zero_attempts_is_zero_not_nan() {
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(fail_ratio(3, 0), 0.0);
        assert_eq!(fail_ratio(1, 4), 0.25);
        assert!((sample_result().workloads[0].fail_ratio() - 1.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn rendered_ledger_names_every_metric_and_flags_what_needs_flagging() {
        let text = sample_result().render();
        for needle in [
            "wall_s",
            "netsim.events",
            "UNRESOLVED",
            "CHECK FAILED: recovery path exercised",
            "sim_fingerprint 00ff00ff00ff00ff",
            "FAILED",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn driver_line_has_exactly_the_four_contract_keys() {
        let line = driver_line(10, 0, &[("wall_s".to_string(), 1.2034, "s".to_string())]);
        let doc: serde_json::Value = serde_json::from_str(&line).expect("parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.2034));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
        // A failed operation flips `correct`.
        assert!(driver_line(10, 1, &[]).contains("\"correct\":false"));
    }

    #[test]
    fn history_rows_append_one_line_per_run() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-report/history.jsonl");
        let _ = std::fs::remove_file(&path);
        let row = sample_result().history_row("abc123");
        append_history(&path, &row).expect("first");
        append_history(&path, &row).expect("second");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(text.lines().count(), 2);
        let doc: serde_json::Value =
            serde_json::from_str(text.lines().next().expect("line")).expect("json");
        assert_eq!(doc.get("git_rev").and_then(|v| v.as_str()), Some("abc123"));
        assert!(doc
            .get("metrics")
            .and_then(|m| m.get("lossy_mix.wall_s"))
            .is_some());
    }
}
