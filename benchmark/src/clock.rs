//! The benchmark's one wall clock.
//!
//! The simulator is deterministic and `simlint` proves no public
//! simulation function can reach a wall clock. The benchmark lives in the
//! same tree and times that simulator from outside, so every reading it
//! takes comes through here, where one reasoned exemption covers them.

use std::time::Instant;

/// The current instant. Readings only ever become reported durations;
/// none is passed into the product.
pub fn now() -> Instant {
    // simlint::allow(nondet-taint, reason = "the benchmark times the simulator from outside; no reading reaches simulated state")
    Instant::now()
}
