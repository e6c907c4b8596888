//! What observability holds: peak live heap of the observed lossy mix
//! against the same run unobserved, counted by a global allocator that
//! only this example installs.
//!
//! The shape is the benchmark's `observed_mix`: four 200 MB flows
//! (CUBIC, Reno, BBR, constant cwnd) at MTU 3000 under 1 % loss with
//! reordering and duplication, full observability, the packet log and a
//! 1 ms throughput trace. The Perfetto document is rendered as events
//! are recorded, so the observed run should hold about one trace beyond
//! the plain run. Exits 1 if any observed peak passes 6.5 MB.
//!
//! The allocator forwards `realloc` and adds `new − old` to the live
//! total. The trait's default `realloc` allocates the new block, copies
//! and frees the old one, so it would count both blocks as live at once;
//! an in-place grow never holds both, and the trace document is one
//! string grown by `realloc` from start to end.
//!
//! Usage: `cargo run --release --example observed_heap -- [seed...]`
//! (default seeds 11 12 13)

use green_envy_repro::cca::CcaKind;
use green_envy_repro::netsim::prelude::{FaultSpec, SimDuration, MB};
use green_envy_repro::workload::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The most an observed run may hold at its peak, in MB.
const OBSERVED_BOUND_MB: f64 = 6.5;

/// Live bytes, and the most ever live since the last [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed straight through.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            let old = layout.size();
            if new_size >= old {
                grew(new_size - old);
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The lossy four-CCA mix, unobserved.
fn mix(seed: u64) -> Scenario {
    let flows = [
        CcaKind::Cubic,
        CcaKind::Reno,
        CcaKind::Bbr,
        CcaKind::Baseline,
    ]
    .into_iter()
    .map(|cca| FlowSpec::bulk(cca, 200 * MB))
    .collect();
    Scenario::new(3000, flows).with_seed(seed).with_fault(
        FaultSpec::random_loss(0.01)
            .with_reordering(0.001, SimDuration::from_micros(40))
            .with_duplication(0.0005),
    )
}

/// Peak live megabytes above the level at entry while running
/// `scenario`, and the length of its Perfetto document (0 unobserved).
fn peak_live_mb(scenario: &Scenario) -> (f64, usize) {
    let base = reset_peak();
    let out = workload::scenario::run(scenario).expect("mix completes");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let trace_len = out.obs.as_ref().map_or(0, |o| o.perfetto_json().len());
    (peak as f64 / 1e6, trace_len)
}

fn main() {
    let mut seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|s| s.parse().expect("seeds are integers"))
        .collect();
    if seeds.is_empty() {
        seeds = vec![11, 12, 13];
    }
    let mut over = false;
    for seed in seeds {
        let plain = mix(seed);
        let observed = plain
            .clone()
            .with_observability()
            .with_packet_log(65_536)
            .with_trace(SimDuration::from_millis(1));
        let (observed_mb, trace_len) = peak_live_mb(&observed);
        let (plain_mb, _) = peak_live_mb(&plain);
        println!(
            "seed {seed}: peak live heap {observed_mb:.2} MB observed (bound {OBSERVED_BOUND_MB}), \
             {plain_mb:.2} MB plain; Perfetto document {:.2} MB",
            trace_len as f64 / 1e6
        );
        over |= observed_mb > OBSERVED_BOUND_MB;
    }
    if over {
        std::process::exit(1);
    }
}
