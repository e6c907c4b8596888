//! `simlint.toml` — per-rule, per-crate configuration.
//!
//! The parser covers the TOML subset the config actually uses: comments,
//! `[section.sub]` headers, and `key = value` where value is a string, a
//! bool, an integer, or a single-line array of strings. Anything fancier
//! is a config error with a line number — better to fail loudly than to
//! silently ignore a rule someone thought they configured.

use std::collections::BTreeMap;

/// Where one rule applies. Empty lists mean "no constraint". A rule
/// always runs, at its own severity, on non-test code only.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// Crates the rule applies to (crate dir name, or `root` for the
    /// top-level package). Empty: all crates.
    pub crates: Vec<String>,
    /// Path prefixes (repo-relative, `/`-separated) the rule is limited
    /// to. Empty: everywhere within the configured crates.
    pub paths: Vec<String>,
    /// Path prefixes exempt from the rule (e.g. the blessed durability
    /// module for the raw-write rule).
    pub allow_paths: Vec<String>,
    /// Registered name prefixes (used by `metric-name-registry`; empty
    /// means any prefix is accepted).
    pub prefixes: Vec<String>,
}

/// The whole config file.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Directories (by name or repo-relative path) the walker skips.
    pub skip_dirs: Vec<String>,
    /// Per-rule settings, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Settings for `rule`, defaulting when the file does not mention it.
    /// The sink rules are scoped to the replayed set, whatever else
    /// their section says.
    pub fn rule(&self, rule: &str) -> RuleConfig {
        let mut rc = self.rules.get(rule).cloned().unwrap_or_default();
        if crate::rules::is_sink_family(rule) {
            rc.crates = self.replayed().to_vec();
        }
        rc
    }

    /// The replayed crates: `crates` of `[rules.replayed-closure]`, the
    /// one place the list is written. Empty: no constraint.
    pub fn replayed(&self) -> &[String] {
        self.rules
            .get(crate::closure::RULE)
            .map_or(&[], |rc| rc.crates.as_slice())
    }
}

/// Parse a config document. `source` is used in error messages.
pub fn parse(text: &str, source: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section: Option<String> = None; // rule name under [rules.*]

    // Pre-pass: join multi-line arrays (`key = [` ... `]`) into single
    // logical lines, keeping the starting line number for errors.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let stripped = strip_comment(raw);
        match &mut pending {
            Some((_, buf)) => {
                buf.push(' ');
                buf.push_str(stripped.trim());
                if array_closed(buf) {
                    let (l, s) = pending.take().expect("pending is Some");
                    logical.push((l, s));
                }
            }
            None => {
                let line = stripped.trim();
                if line.contains('=') && line.trim_end().ends_with('[')
                    || (line.contains("= [") && !array_closed(line))
                {
                    pending = Some((idx + 1, line.to_string()));
                } else {
                    logical.push((idx + 1, line.to_string()));
                }
            }
        }
    }
    if let Some((l, _)) = pending {
        return Err(format!("{source}:{l}: unterminated multi-line array"));
    }

    for (lineno, line) in logical {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("{source}:{lineno}: unterminated section header"))?
                .trim();
            if let Some(rule) = name.strip_prefix("rules.") {
                section = Some(rule.trim().to_string());
                cfg.rules.entry(rule.trim().to_string()).or_default();
            } else {
                return Err(format!(
                    "{source}:{lineno}: unknown section [{name}] (only [rules.<id>] is supported)"
                ));
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("{source}:{lineno}: expected `key = value`"))?;
        let key = key.trim();
        let value = parse_value(value.trim()).map_err(|e| format!("{source}:{lineno}: {e}"))?;
        match &section {
            None => match key {
                "version" => {} // accepted for forward compatibility
                "skip_dirs" => cfg.skip_dirs = value.into_strings(key)?,
                _ => return Err(format!("{source}:{lineno}: unknown top-level key `{key}`")),
            },
            Some(rule) => {
                let rc = cfg.rules.get_mut(rule).expect("section pre-registered");
                match key {
                    "crates" => rc.crates = value.into_strings(key)?,
                    "paths" => rc.paths = value.into_strings(key)?,
                    "allow_paths" => rc.allow_paths = value.into_strings(key)?,
                    "prefixes" => rc.prefixes = value.into_strings(key)?,
                    _ => {
                        return Err(format!(
                            "{source}:{lineno}: unknown rule key `{key}` for [rules.{rule}]"
                        ))
                    }
                }
            }
        }
    }
    for (id, rc) in &cfg.rules {
        if crate::rules::is_sink_family(id) && !rc.crates.is_empty() {
            return Err(format!(
                "{source}: [rules.{id}] is scoped by `crates` of [rules.{}], the one list of replayed crates",
                crate::closure::RULE
            ));
        }
    }
    Ok(cfg)
}

/// True once a line (or joined buffer) whose value opens an array also
/// closes it, quote-aware.
fn array_closed(s: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    let mut opened = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => {
                depth += 1;
                opened = true;
            }
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    !opened || depth <= 0
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

enum Value {
    Str(String),
    Bool,
    Int,
    Strings(Vec<String>),
}

impl Value {
    fn into_strings(self, key: &str) -> Result<Vec<String>, String> {
        match self {
            Value::Strings(v) => Ok(v),
            _ => Err(format!("`{key}` wants an array of strings")),
        }
    }
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" || s == "false" {
        return Ok(Value::Bool);
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        for part in split_array(body)? {
            match parse_value(&part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only contain strings".into()),
            }
        }
        return Ok(Value::Strings(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body.strip_suffix('"').ok_or("unterminated string")?;
        // The config needs no escapes beyond literal text; reject
        // backslashes so nobody is surprised later.
        if body.contains('\\') {
            return Err("escape sequences are not supported in config strings".into());
        }
        return Ok(Value::Str(body.to_string()));
    }
    s.parse::<i64>()
        .map(|_| Value::Int)
        .map_err(|_| format!("cannot parse value `{s}`"))
}

/// Split an array body on commas that are outside quotes.
fn split_array(body: &str) -> Result<Vec<String>, String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                if !cur.trim().is_empty() {
                    parts.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_and_defaults() {
        let cfg = parse(
            r#"
            version = 1
            skip_dirs = ["target", "vendor"] # keep out
            [rules.replayed-closure]
            crates = ["netsim", "transport"]
            [rules.wall-clock]
            [rules.range-index]
            paths = ["crates/netsim/src/sched.rs"]
            "#,
            "test",
        )
        .unwrap();
        assert_eq!(cfg.skip_dirs, vec!["target", "vendor"]);
        assert_eq!(cfg.rule("wall-clock").crates, vec!["netsim", "transport"]);
        assert_eq!(
            cfg.rule("range-index").paths,
            vec!["crates/netsim/src/sched.rs"]
        );
        // Unmentioned rule: defaults — and a sink rule is scoped to the
        // replayed set without a section of its own.
        let d = cfg.rule("raw-write");
        assert!(d.crates.is_empty() && d.paths.is_empty());
        assert_eq!(cfg.rule("thread-id").crates, vec!["netsim", "transport"]);
    }

    #[test]
    fn the_replayed_list_is_written_once_and_cannot_be_switched_off() {
        let err = parse("[rules.wall-clock]\ncrates = [\"netsim\"]\n", "t").unwrap_err();
        assert!(err.contains("[rules.replayed-closure]"), "{err}");
        let err = parse("[rules.replayed-closure]\nenabled = false\n", "t").unwrap_err();
        assert!(err.contains("t:2: unknown rule key `enabled`"), "{err}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        for key in ["enabled = true", "severity = \"warn\""] {
            let err = parse(&format!("[rules.x]\n{key}\n"), "simlint.toml").unwrap_err();
            assert!(err.contains("simlint.toml:2: unknown rule key"), "{err}");
        }
        let err = parse("nonsense\n", "f").unwrap_err();
        assert!(err.contains("f:1"), "{err}");
    }

    #[test]
    fn multi_line_arrays() {
        let cfg = parse(
            "[rules.raw-write]\nallow_paths = [\n  \"a/b.rs\", # blessed\n  \"c/d.rs\",\n]\n",
            "t",
        )
        .unwrap();
        assert_eq!(cfg.rule("raw-write").allow_paths, vec!["a/b.rs", "c/d.rs"]);
        let err = parse("x = [\n \"a\",\n", "t").unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let cfg = parse("skip_dirs = [\"a#b\"]\n", "t").unwrap();
        assert_eq!(cfg.skip_dirs, vec!["a#b"]);
    }
}
