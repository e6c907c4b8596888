//! Golden pin of the resilience suite's artifacts.
//!
//! Two runs of the suite emit the same bytes, and this file pins those
//! bytes *across commits*: the length and fnv64 of
//! `resilience::run(Scale::tiny())`'s verdict JSON, which says
//! `"all_behaved": true`, and of its two observability exports
//! (Prometheus text with the recovery histogram, and Perfetto trace). One
//! artifact crosses the dumbbell (clean, lossy, flapped), an incast
//! cell, a rack grid and the parking lot, so a change to any topology's
//! wiring, report assembly or energy readout moves it. Captured at the
//! commit before the three runners were folded into one harness;
//! re-capture only with a deliberate model, engine or suite change
//! (this file runs in Tier-1 itself: `cargo test` at the root covers
//! every crate).

use greenenvy::campaign::journal::fnv64;
use greenenvy::{resilience, Scale};
use scenario::suite::SuiteOutcome;
use std::sync::OnceLock;

/// `(length, fnv64)` of the tiny-scale verdict JSON.
const PINNED_VERDICT: (usize, u64) = (7_383, 4319668537148216824);

/// `(length, fnv64)` of the tiny-scale Prometheus text.
const PINNED_PROMETHEUS: (usize, u64) = (864, 13047905467003546348);

/// `(length, fnv64)` of the tiny-scale Perfetto trace JSON.
const PINNED_TRACE: (usize, u64) = (1_933, 11502949623714028304);

/// The tiny suite, run once and shared by both tests.
fn tiny() -> &'static SuiteOutcome {
    static OUT: OnceLock<SuiteOutcome> = OnceLock::new();
    OUT.get_or_init(|| resilience::run(Scale::tiny()).expect("suite runs"))
}

fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv64(text.as_bytes()))
}

#[test]
fn tiny_obs_exports_match_the_pinned_bytes() {
    let out = tiny();
    assert_eq!(pin(&out.prometheus), PINNED_PROMETHEUS, "prometheus moved");
    assert_eq!(pin(&out.trace_json), PINNED_TRACE, "trace moved");
}

#[test]
fn tiny_verdict_matches_the_pinned_bytes() {
    let out = tiny();
    assert_eq!(
        pin(&out.verdict.to_json()),
        PINNED_VERDICT,
        "resilience verdict moved"
    );
}
