//! The RAPL counter against a 64-bit reference.
//!
//! `RaplCounter` keeps an unwrapped count of whole energy units and
//! exposes only its low 32 bits, as `MSR_PKG_ENERGY_STATUS` does. This
//! oracle restates the unit and keeps its own books in integers: every
//! deposit is a whole number of grains (a sixteenth of a unit), so the
//! deposited total is an exact `u64` and, after any stream of deposits,
//! the register must read `floor(Σ / unit) mod 2³²` and a differenced
//! read must give that many units in Joules. Deposits of up to one full
//! register each carry most streams past several wraps; sub-unit
//! dribbles exercise the carried residue.

use energy::rapl::RaplCounter;
use proptest::collection::vec;
use proptest::prelude::*;

/// The testbed's RAPL energy unit, 2⁻¹⁶ J (`ENERGY_STATUS_UNITS` = 16).
const UNIT_J: f64 = 1.0 / 65_536.0;

/// Deposit granularity. With 16 grains to a unit every deposit and every
/// running total below 2⁵³ grains is exact in `f64`.
const GRAINS_PER_UNIT: u64 = 16;

/// Below one full register of units per deposit, so a single pair of
/// reads around any one deposit wraps at most once.
const MAX_DEPOSIT_GRAINS: u64 = GRAINS_PER_UNIT * u32::MAX as u64;

fn deposit_grains() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..MAX_DEPOSIT_GRAINS]
}

proptest! {
    #[test]
    fn differenced_reads_match_the_64_bit_reference(stream in vec(deposit_grains(), 1..40)) {
        let grain_j = UNIT_J / GRAINS_PER_UNIT as f64;
        let register = |units: u64| units % (1u64 << 32);
        let mut counter = RaplCounter::new();
        let first = counter.read_raw();
        let mut before = first;
        let mut grains: u64 = 0;
        for g in stream {
            let units_before = grains / GRAINS_PER_UNIT;
            counter.deposit(g as f64 * grain_j);
            grains += g;
            let units = grains / GRAINS_PER_UNIT;
            let after = counter.read_raw();
            prop_assert_eq!(u64::from(after), register(units));
            prop_assert_eq!(
                counter.delta_j(before, after),
                (units - units_before) as f64 * UNIT_J
            );
            before = after;
        }
        prop_assert_eq!(
            counter.delta_j(first, counter.read_raw()),
            register(grains / GRAINS_PER_UNIT) as f64 * UNIT_J
        );
    }
}
