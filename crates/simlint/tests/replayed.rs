//! The determinism argument, end to end: a sink written anywhere in a
//! replayed crate is reported on its own line (so hiding it in a private
//! helper buys nothing), and a replayed crate cannot reach code outside
//! the replayed set (so there is nowhere else to hide it).

mod common;

use common::{repo_config, repo_root, Scratch};
use simlint::config::{self, Config};
use simlint::diag::Diagnostic;
use simlint::{closure, lint_loaded, lint_workspace, LoadedFile};

const REPLAYED: [&str; 8] = [
    "netsim",
    "transport",
    "cca",
    "energy",
    "workload",
    "obs",
    "scenario",
    "analysis",
];

/// One realistic sink per family, as the body of a private helper.
const SINK_LINE: u32 = 6;
const CASES: [(&str, &str); 5] = [
    (
        "hash-container",
        "std::collections::HashMap::<u64, u64>::new().len() as u64 + seed",
    ),
    (
        "wall-clock",
        "std::time::Instant::now().elapsed().as_nanos() as u64 + seed",
    ),
    (
        "thread-id",
        "format!(\"{:?}\", std::thread::current().id()).len() as u64 + seed",
    ),
    (
        "ambient-input",
        "std::env::var(\"SEED\").map_or(seed, |s| s.len() as u64)",
    ),
    (
        "rng-discipline",
        "netsim::rng::SimRng::new(seed).next_u64()",
    ),
];

fn gating(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.suppressed.is_none()).collect()
}

/// The laundering case: the `pub fn` is clean, the sink sits in a private
/// helper it calls. Lint a one-file workspace holding that file in
/// `krate` under the repo's own config.
fn lint_seeded(cfg: &Config, krate: &str, sink: &str) -> Vec<Diagnostic> {
    let src = format!(
        "pub fn run(seed: u64) -> u64 {{\n    helper(seed)\n}}\n\n\
         fn helper(seed: u64) -> u64 {{\n    {sink}\n}}\n"
    );
    let file = LoadedFile {
        rel_path: format!("crates/{krate}/src/seeded.rs"),
        crate_name: krate.to_string(),
        is_test_file: false,
        src,
    };
    lint_loaded(&[file], cfg, None).diags
}

//= DESIGN.md#inv-replayed-closure
#[test]
fn a_sink_in_a_private_helper_is_reported_at_its_line_in_every_replayed_crate() {
    let cfg = repo_config();
    for s in simlint::rules::SINKS {
        assert!(
            CASES.iter().any(|(family, _)| *family == s.family),
            "no seeded case for sink family {}",
            s.family
        );
    }
    for (family, sink) in CASES {
        for krate in REPLAYED {
            let diags = lint_seeded(&cfg, krate, sink);
            let found = gating(&diags);
            assert_eq!(found.len(), 1, "{family} in {krate}: {diags:?}");
            assert_eq!(
                (found[0].rule, found[0].line),
                (family, SINK_LINE),
                "{family} in {krate}: {diags:?}"
            );
        }
        // Above the replayed surface the same line is nobody's business.
        for krate in ["core", "bench", "simlint"] {
            let diags = lint_seeded(&cfg, krate, sink);
            assert!(diags.is_empty(), "{family} in {krate}: {diags:?}");
        }
    }
}

/// Lint a scratch workspace whose config is just the replayed list.
fn lint_scratch(scratch: &Scratch, replayed: &str) -> Vec<Diagnostic> {
    let cfg = config::parse(
        &format!("[rules.replayed-closure]\ncrates = [{replayed}]\n"),
        "scratch",
    )
    .expect("scratch config parses");
    lint_workspace(&scratch.root, &cfg)
        .expect("scratch lints")
        .diags
}

//= DESIGN.md#inv-replayed-closure
#[test]
fn a_dependency_outside_the_replayed_set_fails_the_closure() {
    let scratch = Scratch::new("closure");
    scratch.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n\
         [workspace.dependencies]\nhelper = { path = \"crates/helper\" }\n",
    );
    // The replayed crate is clean; the clock read lives one crate over.
    scratch.write(
        "crates/scenario/Cargo.toml",
        "[package]\nname = \"scenario\"\n\
         [dependencies]\n\
         helper.workspace = true\n\
         serde = { path = \"../../vendor/serde\" }\n\
         [dev-dependencies]\n\
         bench = { path = \"../bench\" }\n",
    );
    scratch.write(
        "crates/scenario/src/lib.rs",
        "use helper::stamp;\npub fn build() { stamp(); }\n",
    );
    scratch.write(
        "crates/helper/Cargo.toml",
        "[package]\nname = \"helper\"\n[dependencies]\n",
    );
    scratch.write(
        "crates/helper/src/lib.rs",
        "pub fn stamp() { std::time::SystemTime::now(); }\n",
    );

    // With `helper` unscoped the sink rules cannot see the read — and
    // the closure check says exactly that, at the edge that lets it in.
    let diags = lint_scratch(&scratch, "\"scenario\"");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(
        (d.rule, d.path.as_str(), d.line),
        (closure::RULE, "crates/scenario/Cargo.toml", 4)
    );
    assert!(
        d.message.contains("`scenario`") && d.message.contains("`helper`"),
        "{}",
        d.message
    );

    // The same edge spelled with its own `path` is the same finding.
    scratch.write(
        "crates/scenario/Cargo.toml",
        "[package]\nname = \"scenario\"\n[dependencies]\nhelper = { path = \"../helper\" }\n",
    );
    let diags = lint_scratch(&scratch, "\"scenario\"");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("crates/helper"), "{diags:?}");

    // Taking the message's advice closes the set, and the read is found
    // where it is written.
    let diags = lint_scratch(&scratch, "\"scenario\", \"helper\"");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(
        (d.rule, d.path.as_str(), d.line),
        ("wall-clock", "crates/helper/src/lib.rs", 1)
    );

    // A replayed crate the workspace does not have is a typo, not a pass.
    let diags = lint_scratch(&scratch, "\"scenario\", \"helper\", \"netsmi\"");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == closure::RULE && d.message.contains("`netsmi` has no manifest")),
        "{diags:?}"
    );
}

//= DESIGN.md#inv-replayed-closure
#[test]
fn the_real_manifests_close_over_the_eight_replayed_crates() {
    let cfg = repo_config();
    assert_eq!(cfg.replayed(), REPLAYED);
    let mut diags = Vec::new();
    closure::check(repo_root(), cfg.replayed(), &mut diags);
    assert!(diags.is_empty(), "{diags:?}");

    // The check reads the real manifests: `scenario` does depend on
    // `analysis`, so dropping `analysis` from the set must name that
    // edge. A future `scenario → greenenvy` edge fails the same way.
    let without: Vec<String> = REPLAYED
        .iter()
        .filter(|c| **c != "analysis")
        .map(|c| c.to_string())
        .collect();
    closure::check(repo_root(), &without, &mut diags);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "crates/scenario/Cargo.toml");
    assert!(
        diags[0].message.contains("`analysis`"),
        "{}",
        diags[0].message
    );
}
