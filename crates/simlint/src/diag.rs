//! Typed diagnostics and their human and JSON rendering.
//!
//! The JSON writer is hand-rolled because simlint is std-only by
//! design (see `Cargo.toml`); the schema is small and flat enough that
//! this is less code than a serde integration would be. The tests read
//! the output back through the workspace's `serde_json`, a
//! dev-dependency.

use std::fmt::Write as _;

/// How serious a finding is. Only `Error` findings gate the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One finding: rule, position, message, and (if an inline
/// `simlint::allow` covered it) the suppression reason.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule id, e.g. `wall-clock`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    pub message: String,
    /// `Some(reason)` if suppressed by an inline allow; suppressed
    /// findings never gate, but are reported in JSON and on request.
    pub suppressed: Option<String>,
}

/// A whole lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl Report {
    /// Findings that gate the build: unsuppressed errors.
    pub fn gating(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.suppressed.is_none() && d.severity == Severity::Error)
    }

    pub fn count_gating(&self) -> usize {
        self.gating().count()
    }

    pub fn count_suppressed(&self) -> usize {
        self.diags.iter().filter(|d| d.suppressed.is_some()).count()
    }

    pub fn count_warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.suppressed.is_none() && d.severity == Severity::Warn)
            .count()
    }

    /// Sort for stable output: path, line, col, rule.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
    }

    /// Human-readable rendering, one line per finding plus a summary.
    /// `show_suppressed` includes suppressed findings (marked as such).
    pub fn render_human(&self, show_suppressed: bool) -> String {
        let mut out = String::new();
        for d in &self.diags {
            match &d.suppressed {
                None => {
                    let _ = writeln!(
                        out,
                        "{}:{}:{}: {}[{}]: {}",
                        d.path,
                        d.line,
                        d.col,
                        d.severity.as_str(),
                        d.rule,
                        d.message
                    );
                }
                Some(reason) if show_suppressed => {
                    let _ = writeln!(
                        out,
                        "{}:{}:{}: allowed[{}]: {} (reason: {})",
                        d.path, d.line, d.col, d.rule, d.message, reason
                    );
                }
                Some(_) => {}
            }
        }
        let _ = writeln!(
            out,
            "simlint: {} file(s), {} error(s), {} warning(s), {} suppressed",
            self.files_scanned,
            self.count_gating(),
            self.count_warnings(),
            self.count_suppressed()
        );
        out
    }

    /// JSON rendering. Schema (version 1):
    /// ```json
    /// {"version":1,"files_scanned":N,
    ///  "summary":{"errors":N,"warnings":N,"suppressed":N},
    ///  "findings":[{"rule":"...","severity":"error","path":"...",
    ///               "line":N,"col":N,"message":"...",
    ///               "suppressed":false,"reason":null}]}
    /// ```
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"version\":1,\"files_scanned\":{},\"summary\":{{\"errors\":{},\"warnings\":{},\"suppressed\":{}}},\"findings\":[",
            self.files_scanned,
            self.count_gating(),
            self.count_warnings(),
            self.count_suppressed()
        );
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"severity\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"suppressed\":{},\"reason\":{}}}",
                json_str(d.rule),
                json_str(d.severity.as_str()),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message),
                d.suppressed.is_some(),
                match &d.suppressed {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, sev: Severity, suppressed: Option<&str>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: sev,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "a \"quoted\" message\nwith newline".into(),
            suppressed: suppressed.map(String::from),
        }
    }

    #[test]
    fn gating_excludes_warns_and_suppressed() {
        let report = Report {
            diags: vec![
                diag("a", Severity::Error, None),
                diag("b", Severity::Warn, None),
                diag("c", Severity::Error, Some("intentional")),
            ],
            files_scanned: 1,
        };
        assert_eq!(report.count_gating(), 1);
        assert_eq!(report.count_warnings(), 1);
        assert_eq!(report.count_suppressed(), 1);
    }

    #[test]
    fn json_round_trips_with_escapes() {
        let mut report = Report {
            diags: vec![
                diag("wall-clock", Severity::Error, None),
                diag("rng-discipline", Severity::Warn, Some("named stream \\ ok")),
            ],
            files_scanned: 2,
        };
        report.sort();
        let rendered = report.render_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&rendered).expect("own output must parse");
        assert_eq!(parsed["version"].as_u64(), Some(1));
        let findings = parsed["findings"].as_array().unwrap();
        assert_eq!(findings.len(), 2);
        // Sorted by (path, line, col, rule): rng-discipline first.
        assert_eq!(findings[0]["rule"].as_str(), Some("rng-discipline"));
        assert_eq!(findings[0]["reason"].as_str(), Some("named stream \\ ok"));
        assert_eq!(
            findings[1]["message"].as_str(),
            Some("a \"quoted\" message\nwith newline")
        );
        assert!(findings[1]["reason"].is_null());
    }
}
