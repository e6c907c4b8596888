//! A rack's footprint is its flows: peak live heap of the full
//! `bulk_10k_flows` population, counted by a global allocator that only
//! this example installs.
//!
//! `run_population` keeps one rack alive per core, so what a rack holds
//! at its peak decides whether all cores is affordable. With a
//! direct-mapped flow-id index and dense activity bins the same run held
//! 6.08 MB on one thread and 9.81 MB on two (seed 12345); the bounds
//! checked below are the ones the all-cores default was accepted under.
//! Exits 1 past either bound.
//!
//! Usage: `cargo run --release --example population_heap -- [seed]`

use green_envy_repro::workload::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live bytes, and the most ever live since the last [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live megabytes above the level at entry while running the
/// population on `threads` workers, and the run's fingerprint.
fn peak_live_mb(spec: &PopulationSpec, threads: usize) -> (f64, PopulationFingerprint) {
    let base = reset_peak();
    let out = run_population_with_threads(spec, threads).expect("population completes");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (peak as f64 / 1e6, out.fingerprint())
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_345);
    let spec = PopulationSpec::bulk_10k_flows().with_seed(seed);
    let (one, fp_one) = peak_live_mb(&spec, 1);
    let (two, fp_two) = peak_live_mb(&spec, 2);
    assert_eq!(fp_one, fp_two, "thread count moved the fingerprint");
    println!("bulk_10k_flows, seed {seed}: {fp_one:?}");
    println!("peak live heap: {one:.2} MB on 1 thread (bound 3.5), {two:.2} MB on 2 (bound 5.0)");
    if one > 3.5 || two > 5.0 {
        std::process::exit(1);
    }
}
