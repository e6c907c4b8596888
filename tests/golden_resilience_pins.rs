//! Tier-1 mirror of `crates/core/tests/golden_resilience.rs`: `cargo
//! test -q` at the root runs only this package, so the resilience
//! suite's verdict bytes — one artifact across the dumbbell, incast,
//! rack-grid and parking-lot runs — are guarded across commits here
//! too. The constant is the same one; re-capture both files together.

use green_envy_repro::greenenvy::campaign::journal::fnv64;
use green_envy_repro::greenenvy::{resilience, Scale};

/// `(length, fnv64)` of the tiny-scale verdict JSON.
const PINNED_VERDICT: (usize, u64) = (7_383, 4319668537148216824);

#[test]
fn tiny_resilience_verdict_matches_the_pinned_bytes() {
    let out = resilience::run(Scale::tiny()).expect("suite runs");
    let json = out.verdict.to_json();
    assert_eq!(
        (json.len(), fnv64(json.as_bytes())),
        PINNED_VERDICT,
        "resilience verdict moved"
    );
}
