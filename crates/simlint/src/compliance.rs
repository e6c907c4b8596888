//! `simlint compliance` — the spec/invariant citation tracker.
//!
//! Tests (and implementation sites) cite the documented invariant or
//! spec clause they enforce with structured comments, the s2n-quic
//! idiom adapted to this repo:
//!
//! ```text
//! //= DESIGN.md#inv-wall-clock
//! //# Simulation state must be a pure function of config + seed.
//! #[test]
//! fn golden_fingerprint_is_stable() { … }
//! ```
//!
//! * `//= <registry>#<anchor>` — a citation. `<registry>` is
//!   `DESIGN.md` or the stem of a file under `specs/` (e.g.
//!   `rfc9002` for `specs/rfc9002.md`).
//! * `//# …` — optional quote lines reproducing the cited text; they
//!   must directly follow a `//=` (or another `//#`) line.
//!
//! Anchors come from three places: slugified markdown headings,
//! explicit `<!-- anchor: name -->` comments, and — for `DESIGN.md` —
//! one `inv-<rule-id>` anchor per row of the rule→invariant table.
//! Every anchor named `inv-*` is **required**: it must be cited by at
//! least one *test* (a `tests/` file or a `#[cfg(test)]` region).
//! Citing an anchor that does not exist (stale after a heading rename)
//! is an error, as is a dangling `//#` quote. The report renders as a
//! markdown table or `--json` (schema version 1); any violation makes
//! the exit code nonzero, which `verify.sh --lint` gates on.

use crate::lexer::lex;
use crate::rules::test_region_mask;
use crate::LoadedFile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// JSON schema version of `--json` output.
pub const SCHEMA_VERSION: u32 = 1;

/// Per-anchor coverage.
#[derive(Clone, Debug, Default)]
pub struct AnchorStat {
    /// Must be cited by ≥1 test (anchors named `inv-*`).
    pub required: bool,
    pub test_citations: u32,
    pub impl_citations: u32,
    /// `path:line` of every citation, sorted.
    pub sites: Vec<String>,
}

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `stale-anchor`, `unknown-registry`, `uncovered-invariant`,
    /// `malformed-citation`, or `dangling-quote`.
    pub kind: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// The full compliance report.
#[derive(Clone, Debug, Default)]
pub struct ComplianceReport {
    /// registry name → anchor → coverage, both levels sorted.
    pub registries: BTreeMap<String, BTreeMap<String, AnchorStat>>,
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl ComplianceReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Markdown rendering: one table per registry plus a violations list.
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# Compliance report\n");
        for (reg, anchors) in &self.registries {
            let cited: usize = anchors
                .values()
                .filter(|a| a.test_citations + a.impl_citations > 0)
                .count();
            let _ = writeln!(s, "## {reg} — {cited}/{} anchors cited\n", anchors.len());
            let _ = writeln!(
                s,
                "| anchor | required | test citations | impl references |"
            );
            let _ = writeln!(s, "|---|---|---|---|");
            for (name, a) in anchors {
                // Uncited optional anchors stay out of the table; the
                // headline count already says how many exist.
                if !a.required && a.test_citations + a.impl_citations == 0 {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "| `{name}` | {} | {} | {} |",
                    if a.required { "yes" } else { "" },
                    a.test_citations,
                    a.impl_citations
                );
            }
            s.push('\n');
        }
        if self.violations.is_empty() {
            let _ = writeln!(s, "No violations.");
        } else {
            let _ = writeln!(s, "## Violations\n");
            for v in &self.violations {
                let _ = writeln!(s, "- **{}** {}:{}: {}", v.kind, v.path, v.line, v.message);
            }
        }
        s
    }

    /// Machine rendering, schema v1.
    pub fn render_json(&self) -> String {
        use crate::diag::json_str;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"version\":{SCHEMA_VERSION},\"ok\":{},\"files_scanned\":{},\"registries\":[",
            self.ok(),
            self.files_scanned
        );
        for (ri, (reg, anchors)) in self.registries.iter().enumerate() {
            if ri > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"name\":{},\"anchors\":[", json_str(reg));
            for (ai, (name, a)) in anchors.iter().enumerate() {
                if ai > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"anchor\":{},\"required\":{},\"test_citations\":{},\"impl_citations\":{},\"sites\":[",
                    json_str(name),
                    a.required,
                    a.test_citations,
                    a.impl_citations
                );
                for (si, site) in a.sites.iter().enumerate() {
                    if si > 0 {
                        s.push(',');
                    }
                    s.push_str(&json_str(site));
                }
                s.push_str("]}");
            }
            s.push_str("]}");
        }
        s.push_str("],\"violations\":[");
        for (vi, v) in self.violations.iter().enumerate() {
            if vi > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"kind\":{},\"path\":{},\"line\":{},\"message\":{}}}",
                json_str(v.kind),
                json_str(&v.path),
                v.line,
                json_str(&v.message)
            );
        }
        s.push_str("]}");
        s
    }
}

/// GitHub-style slug: lowercase, alnum runs joined by single dashes.
pub fn slugify(heading: &str) -> String {
    let mut out = String::new();
    let mut dash = false;
    for c in heading.trim().chars() {
        if c.is_ascii_alphanumeric() {
            if dash && !out.is_empty() {
                out.push('-');
            }
            dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash = true;
        }
    }
    out
}

/// Anchors of one markdown registry: heading slugs, explicit
/// `<!-- anchor: name -->` comments, and (with `rule_table`) an
/// `inv-<rule-id>` per ``| `id` | …``-shaped table row.
pub fn markdown_anchors(text: &str, rule_table: bool) -> BTreeMap<String, AnchorStat> {
    let mut out: BTreeMap<String, AnchorStat> = BTreeMap::new();
    let mut add = |name: String| {
        let required = name.starts_with("inv-");
        out.entry(name).or_default().required |= required;
    };
    let mut in_code_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_code_fence = !in_code_fence;
            continue;
        }
        if in_code_fence {
            continue;
        }
        if let Some(h) = trimmed.strip_prefix('#') {
            let h = h.trim_start_matches('#');
            let slug = slugify(h);
            if !slug.is_empty() {
                add(slug);
            }
        }
        let mut rest = line;
        while let Some(at) = rest.find("<!-- anchor:") {
            let tail = &rest[at + "<!-- anchor:".len()..];
            if let Some(end) = tail.find("-->") {
                let name = tail[..end].trim();
                if !name.is_empty() {
                    add(name.to_string());
                }
                rest = &tail[end..];
            } else {
                break;
            }
        }
        if rule_table {
            // `| `rule-id` | invariant text |` rows. The first cell
            // must be exactly one code span — prose after the span
            // (`| `stress` CPU load generator |`) is a description
            // table, not an invariant registry.
            if let Some(body) = trimmed.strip_prefix("| `") {
                if let Some(end) = body.find('`') {
                    let id = &body[..end];
                    let cell_closed = body[end + 1..].trim_start().starts_with('|');
                    if !id.is_empty() && !id.contains(' ') && cell_closed {
                        add(format!("inv-{id}"));
                    }
                }
            }
        }
    }
    out
}

/// One parsed citation site.
struct Citation {
    path: String,
    line: u32,
    registry: String,
    anchor: String,
    is_test: bool,
}

/// Scan one source file for `//=` citations and `//#` quotes.
fn scan_file(f: &LoadedFile, citations: &mut Vec<Citation>, violations: &mut Vec<Violation>) {
    let lexed = lex(&f.src);
    let mask = test_region_mask(&lexed.tokens);
    let in_test_at = |line: u32| -> bool {
        if f.is_test_file {
            return true;
        }
        match lexed.tokens.iter().position(|t| t.line >= line) {
            Some(idx) => mask.get(idx).copied().unwrap_or(false),
            // Citation after the last token: attribute to the last
            // region (a trailing comment block at end of a test mod).
            None => mask.last().copied().unwrap_or(false),
        }
    };
    let mut prev_citing_line: Option<u32> = None;
    for c in &lexed.comments {
        if let Some(target) = c.text.strip_prefix("//=") {
            let target = target.trim();
            match target.split_once('#') {
                Some((reg, anchor)) if !reg.is_empty() && !anchor.is_empty() => {
                    citations.push(Citation {
                        path: f.rel_path.clone(),
                        line: c.line,
                        registry: reg.trim().to_string(),
                        anchor: anchor.trim().to_string(),
                        is_test: in_test_at(c.line),
                    });
                }
                _ => violations.push(Violation {
                    kind: "malformed-citation",
                    path: f.rel_path.clone(),
                    line: c.line,
                    message: format!("expected `//= <registry>#<anchor>`, got `//= {target}`"),
                }),
            }
            prev_citing_line = Some(c.line);
        } else if c.text.starts_with("//#") {
            if prev_citing_line != Some(c.line.saturating_sub(1)) {
                violations.push(Violation {
                    kind: "dangling-quote",
                    path: f.rel_path.clone(),
                    line: c.line,
                    message: "`//#` quote lines must directly follow a `//=` citation".into(),
                });
            }
            prev_citing_line = Some(c.line);
        } else {
            prev_citing_line = None;
        }
    }
}

/// Build the report from in-memory inputs. `specs` pairs registry name
/// (file stem) with markdown text.
pub fn build_report(
    design_text: &str,
    specs: &[(String, String)],
    files: &[LoadedFile],
) -> ComplianceReport {
    let mut report = ComplianceReport {
        files_scanned: files.len(),
        ..ComplianceReport::default()
    };
    report
        .registries
        .insert("DESIGN.md".to_string(), markdown_anchors(design_text, true));
    for (name, text) in specs {
        report
            .registries
            .insert(name.clone(), markdown_anchors(text, false));
    }

    let mut citations = Vec::new();
    let mut sorted: Vec<&LoadedFile> = files.iter().collect();
    sorted.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    for f in &sorted {
        scan_file(f, &mut citations, &mut report.violations);
    }

    for c in &citations {
        let Some(anchors) = report.registries.get_mut(&c.registry) else {
            report.violations.push(Violation {
                kind: "unknown-registry",
                path: c.path.clone(),
                line: c.line,
                message: format!(
                    "`{}` is not a citation registry (DESIGN.md or a specs/*.md stem)",
                    c.registry
                ),
            });
            continue;
        };
        let Some(stat) = anchors.get_mut(&c.anchor) else {
            report.violations.push(Violation {
                kind: "stale-anchor",
                path: c.path.clone(),
                line: c.line,
                message: format!(
                    "anchor `{}#{}` does not exist (renamed heading or removed invariant?)",
                    c.registry, c.anchor
                ),
            });
            continue;
        };
        if c.is_test {
            stat.test_citations += 1;
        } else {
            stat.impl_citations += 1;
        }
        stat.sites.push(format!("{}:{}", c.path, c.line));
    }

    for (reg, anchors) in &report.registries {
        for (name, stat) in anchors {
            if stat.required && stat.test_citations == 0 {
                report.violations.push(Violation {
                    kind: "uncovered-invariant",
                    path: reg.clone(),
                    line: 0,
                    message: format!(
                        "invariant `{reg}#{name}` has no enforcing test (cite it with `//= {reg}#{name}`)"
                    ),
                });
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (a.kind, &a.path, a.line).cmp(&(b.kind, &b.path, b.line)));
    report
}

/// Run against a workspace root: DESIGN.md + specs/*.md + every
/// lintable source file.
pub fn run(root: &Path, cfg: &crate::Config) -> Result<ComplianceReport, String> {
    let design_path = root.join("DESIGN.md");
    let design = std::fs::read_to_string(&design_path)
        .map_err(|e| format!("reading {}: {e}", design_path.display()))?;
    let mut specs = Vec::new();
    let specs_dir = root.join("specs");
    if specs_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&specs_dir)
            .map_err(|e| format!("reading {}: {e}", specs_dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        entries.sort();
        for p in entries {
            let stem = p
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            specs.push((stem, text));
        }
    }
    let files = crate::load_workspace(root, cfg)?;
    Ok(build_report(&design, &specs, &files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lf(rel_path: &str, is_test_file: bool, src: &str) -> LoadedFile {
        LoadedFile {
            rel_path: rel_path.to_string(),
            crate_name: "x".to_string(),
            is_test_file,
            src: src.to_string(),
        }
    }

    const DESIGN: &str = "\
# Design
## Durability & recovery (`core::campaign`)
### Bit-identical resume
| rule | protected invariant |
|---|---|
| `wall-clock` | pure function of config |
<!-- anchor: inv-extra -->
";

    #[test]
    fn anchors_from_headings_table_and_explicit() {
        let a = markdown_anchors(DESIGN, true);
        assert!(a.contains_key("durability-recovery-core-campaign"), "{a:?}");
        assert!(a.contains_key("bit-identical-resume"));
        assert!(a["inv-wall-clock"].required);
        assert!(a["inv-extra"].required);
        assert!(!a["bit-identical-resume"].required);
    }

    #[test]
    fn covered_invariants_are_green() {
        let files = vec![lf(
            "crates/x/tests/t.rs",
            true,
            "//= DESIGN.md#inv-wall-clock\n//# pure function of config\nfn t() {}\n\
             //= DESIGN.md#inv-extra\nfn u() {}\n",
        )];
        let r = build_report(DESIGN, &[], &files);
        assert!(r.ok(), "{:?}", r.violations);
        let stat = &r.registries["DESIGN.md"]["inv-wall-clock"];
        assert_eq!(stat.test_citations, 1);
        assert_eq!(stat.sites, ["crates/x/tests/t.rs:1"]);
    }

    #[test]
    fn uncovered_and_stale_and_dangling() {
        let files = vec![lf(
            "crates/x/src/lib.rs",
            false,
            "//= DESIGN.md#no-such-anchor\nfn a() {}\n\n//# orphan quote\nfn b() {}\n",
        )];
        let r = build_report(DESIGN, &[], &files);
        let kinds: Vec<&str> = r.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&"stale-anchor"), "{kinds:?}");
        assert!(kinds.contains(&"dangling-quote"));
        // Both inv anchors uncovered.
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == "uncovered-invariant")
                .count(),
            2
        );
    }

    #[test]
    fn impl_citation_does_not_satisfy_requirement() {
        let files = vec![lf(
            "crates/x/src/lib.rs",
            false,
            "//= DESIGN.md#inv-wall-clock\npub fn a() {}\n//= DESIGN.md#inv-extra\npub fn b() {}\n",
        )];
        let r = build_report(DESIGN, &[], &files);
        assert!(!r.ok());
        assert_eq!(
            r.registries["DESIGN.md"]["inv-wall-clock"].impl_citations,
            1
        );
        assert!(r.violations.iter().all(|v| v.kind == "uncovered-invariant"));
    }

    #[test]
    fn cfg_test_region_counts_as_test_citation() {
        let files = vec![lf(
            "crates/x/src/lib.rs",
            false,
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    //= DESIGN.md#inv-wall-clock\n    //= DESIGN.md#inv-extra\n    #[test]\n    fn t() {}\n}\n",
        )];
        let r = build_report(DESIGN, &[], &files);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(
            r.registries["DESIGN.md"]["inv-wall-clock"].test_citations,
            1
        );
    }

    #[test]
    fn spec_registry_citations() {
        let files = vec![lf(
            "crates/x/tests/t.rs",
            true,
            "//= rfc9002#pacing\nfn t() {}\n//= rfc9999#nope\nfn u() {}\n",
        )];
        let specs = vec![("rfc9002".to_string(), "## Pacing\n".to_string())];
        let r = build_report(DESIGN, &specs, &files);
        assert_eq!(r.registries["rfc9002"]["pacing"].test_citations, 1);
        assert!(r.violations.iter().any(|v| v.kind == "unknown-registry"));
    }

    #[test]
    fn json_shape_round_trips() {
        let files = vec![lf(
            "crates/x/tests/t.rs",
            true,
            "//= DESIGN.md#inv-wall-clock\n//= DESIGN.md#inv-extra\nfn t() {}\n",
        )];
        let r = build_report(DESIGN, &[], &files);
        let json = r.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(parsed["version"].as_u64(), Some(u64::from(SCHEMA_VERSION)));
        assert_eq!(parsed["ok"].as_bool(), Some(true));
    }
}
