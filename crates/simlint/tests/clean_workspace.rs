//! Tier-1 holds the repo to what `scripts/verify.sh --lint` holds it to:
//! the committed tree, under the committed `simlint.toml` and
//! `schema.lock`, lints clean, and every documented invariant is cited
//! by a test.

mod common;

use common::{repo_config, repo_root};
use simlint::{compliance, lint_workspace};

/// The `simlint::allow` markers in the tree that cover a finding. A new
/// one is a reviewed exception: bump this with it.
const ALLOWED: usize = 8;

#[test]
fn the_committed_tree_lints_clean_and_cites_every_invariant() {
    let cfg = repo_config();
    let report = lint_workspace(repo_root(), &cfg).expect("workspace lints");
    let open: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.suppressed.is_none())
        .collect();
    assert!(open.is_empty(), "errors and warnings both count: {open:#?}");
    assert_eq!(report.count_suppressed(), ALLOWED);

    let report = compliance::run(repo_root(), &cfg).expect("compliance runs");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    for (registry, anchors) in &report.registries {
        for (anchor, stat) in anchors {
            assert!(
                !stat.required || stat.test_citations > 0,
                "{registry}#{anchor} is an invariant no test cites"
            );
        }
    }
}
