//! The host-speed reference probe and the normalisation built on it.
//!
//! This sandbox drifts: medians of back-to-back simulator samples taken
//! minutes apart differ by 21-24 %, with no steal time and no hardware
//! counters to explain it. A compute-bound loop run next to each sample
//! drifts with it, so dividing by the loop's time removes most of the
//! drift (9-13 % set-to-set, see README). The probe is deliberately
//! product-independent — a `BinaryHeap` churned by an xorshift stream,
//! the same kind of work as the simulator's event loop — and deliberately
//! small: an 8 MB-footprint variant tracked the simulator *worse*.

use crate::clock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// What one probe takes on the box the sizes were chosen on. A sample's
/// nominal seconds are its raw wall time scaled by this over the probe
/// time measured around it, so nominal seconds read like seconds here.
pub const NOMINAL_S: f64 = 0.150;

const PENDING: usize = 512;
const STEPS: u64 = 4_000_000;
/// 64 KB of scratch touched once per step: stays inside L2.
const SCRATCH_WORDS: usize = 8 * 1024;

#[inline]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Run the probe once and return its wall time in seconds.
pub fn probe() -> f64 {
    let start = clock::now();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(PENDING + 1);
    let mut scratch = vec![0u64; SCRATCH_WORDS];
    for i in 0..PENDING as u64 {
        heap.push(Reverse((xorshift(&mut rng) >> 40, i)));
    }
    for i in 0..STEPS {
        let Reverse((at, tag)) = heap.pop().expect("heap holds PENDING entries");
        let r = xorshift(&mut rng);
        let slot = (r as usize) % SCRATCH_WORDS;
        scratch[slot] = scratch[slot].wrapping_add(tag ^ at);
        heap.push(Reverse((at + 1 + (r >> 44), i)));
    }
    black_box((heap.len(), scratch[0]));
    start.elapsed().as_secs_f64()
}

/// Host-normalise one raw timing bracketed by two probe readings.
pub fn nominal(raw_s: f64, probe_before_s: f64, probe_after_s: f64) -> f64 {
    let around = 0.5 * (probe_before_s + probe_after_s);
    if around <= 0.0 {
        return raw_s;
    }
    raw_s * NOMINAL_S / around
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracketed_normalisation_uses_the_mean_of_both_probes() {
        // Host twice as slow as nominal before, nominal after: mean 1.5x.
        let n = nominal(3.0, 2.0 * NOMINAL_S, NOMINAL_S);
        assert!((n - 2.0).abs() < 1e-12, "{n}");
        // A host exactly at nominal speed leaves the timing alone.
        assert_eq!(nominal(1.25, NOMINAL_S, NOMINAL_S), 1.25);
        // A broken probe reading never divides by zero.
        assert_eq!(nominal(1.25, 0.0, 0.0), 1.25);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe() > 0.0);
    }
}
