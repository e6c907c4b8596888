//! Golden figure regression tests.
//!
//! `headline_results.rs` checks that the figures land in the paper's
//! bands; this file pins them *exactly*: the length and fnv64 of
//! `serde_json::to_string` of `fig1::run`, `fig2::run` and `fig4::run`
//! at the parameters of each module's `tiny()` unit-test config. The
//! constants were captured at the commit before `scenario::run` was
//! split into a simulate phase and a metering phase, so a refactor of
//! the run or figure plumbing that moves a single emitted digit fails
//! here across commits. Re-capture only with a deliberate model or
//! engine change (this file runs in Tier-1 itself: `cargo test` at the
//! root covers every crate).

use greenenvy::campaign::journal::fnv64;
use greenenvy::{fig1, fig2, fig4};
use netsim::units::MB;
use serde::Serialize;
use workload::prelude::*;

/// `(length, fnv64)` of a result's compact JSON.
type Pin = (usize, u64);

const PINNED_FIG1: Pin = (1_038, 11287770163970207658);
const PINNED_FIG2: Pin = (712, 3006193060857280065);
const PINNED_FIG4: Pin = (599, 6832772301359116757);

fn pin<T: Serialize>(result: &T) -> Pin {
    let json = serde_json::to_string(result).expect("figure result serializes");
    (json.len(), fnv64(json.as_bytes()))
}

#[test]
fn fig1_matches_the_pinned_bytes() {
    let result = fig1::run(&fig1::Config {
        per_flow_bytes: 125 * MB,
        mtu: 9000,
        fractions: vec![0.75],
        seeds: vec![1],
        background: StressLoad::IDLE,
    });
    assert_eq!(pin(&result), PINNED_FIG1, "fig1 output moved");
}

#[test]
fn fig2_matches_the_pinned_bytes() {
    let result = fig2::run(&fig2::Config {
        rates_gbps: vec![2.5, 5.0, 7.5, 10.0],
        duration_s: 0.1,
        mtu: 9000,
        seeds: vec![1],
        background: StressLoad::IDLE,
    });
    assert_eq!(pin(&result), PINNED_FIG2, "fig2 output moved");
}

#[test]
fn fig4_matches_the_pinned_bytes() {
    let result = fig4::run(&fig4::Config {
        loads: vec![0.0, 0.25, 0.75],
        rates_gbps: vec![5.0, 10.0],
        per_flow_bytes: 125 * MB,
        duration_s: 0.1,
        mtu: 9000,
        seeds: vec![1],
    });
    assert_eq!(pin(&result), PINNED_FIG4, "fig4 output moved");
}
