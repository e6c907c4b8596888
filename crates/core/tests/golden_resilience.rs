//! Golden pin of the resilience suite's verdict artifact.
//!
//! `verify.sh --scenarios` checks that two runs of the suite emit the
//! same bytes; this file pins those bytes *across commits*: the length
//! and fnv64 of `resilience::run(Scale::tiny())`'s verdict JSON. One
//! artifact crosses the dumbbell (clean, lossy, flapped), an incast
//! cell, a rack grid and the parking lot, so a change to any topology's
//! wiring, report assembly or energy readout moves it. Captured at the
//! commit before the three runners were folded into one harness;
//! re-capture only with a deliberate model, engine or suite change
//! (this file runs in Tier-1 itself: `cargo test` at the root covers
//! every crate).

use greenenvy::campaign::journal::fnv64;
use greenenvy::{resilience, Scale};

/// `(length, fnv64)` of the tiny-scale verdict JSON.
const PINNED_VERDICT: (usize, u64) = (7_383, 4319668537148216824);

#[test]
fn tiny_verdict_matches_the_pinned_bytes() {
    let out = resilience::run(Scale::tiny()).expect("suite runs");
    let json = out.verdict.to_json();
    assert_eq!(
        (json.len(), fnv64(json.as_bytes())),
        PINNED_VERDICT,
        "resilience verdict moved"
    );
}
