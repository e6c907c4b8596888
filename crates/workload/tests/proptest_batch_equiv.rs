//! Equivalence property: same-timestamp delivery batching is a pure
//! dispatch optimization. For any small population — any rack grid, CCA
//! mix, seed, and transfer size — running with batching on and off must
//! produce bit-identical flow reports and the same engine fingerprint.
//!
//! The determinism argument being pinned: agent callbacks only buffer
//! commands, so handing an agent `[p1, p2]` in one call draws the same
//! RNG stream and emits the same command sequence as two back-to-back
//! calls, and only *consecutive* `(at, seq)` events coalesce.

use cca::CcaKind;
use proptest::prelude::*;
use workload::prelude::*;

/// Exact per-flow equality, including every float bit: `Debug` for
/// `f64` prints the shortest round-trip representation, so two reports
/// render identically iff their fields are numerically identical.
fn report_signature(out: &workload::population::PopulationOutcome) -> String {
    format!("{:?}", out.reports)
}

fn mix_strategy() -> impl Strategy<Value = Vec<(CcaKind, u32)>> {
    prop_oneof![
        Just(vec![(CcaKind::Cubic, 1)]),
        Just(vec![(CcaKind::Bbr, 1)]),
        Just(vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)]),
        Just(vec![(CcaKind::Cubic, 1), (CcaKind::Reno, 1)]),
        Just(vec![
            (CcaKind::Cubic, 3),
            (CcaKind::Bbr, 2),
            (CcaKind::Dctcp, 1)
        ]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched vs per-packet delivery: bit-identical reports and
    /// fingerprints across random small populations.
    #[test]
    fn batched_delivery_is_bit_identical(
        flows in 8usize..48,
        racks in 1usize..4,
        hosts in 2usize..6,
        kb_per_flow in 50u64..300,
        seed in 0u64..1_000_000,
        mix in mix_strategy(),
    ) {
        let spec = PopulationSpec::new(flows, mix)
            .with_grid(racks, hosts)
            .with_bytes_per_flow(kb_per_flow * 1_000)
            .with_seed(seed);

        let batched = run_population(&spec.clone().with_delivery_batching(true))
            .expect("batched population");
        let unbatched = run_population(&spec.with_delivery_batching(false))
            .expect("unbatched population");

        prop_assert_eq!(batched.fingerprint(), unbatched.fingerprint());
        prop_assert_eq!(report_signature(&batched), report_signature(&unbatched));
    }
}
