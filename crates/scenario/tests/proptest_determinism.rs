//! Property tests: suite evaluation is deterministic and independent
//! of expectation/scenario ordering.
//!
//! The suite verdict is documented as a pure function of its specs —
//! re-running a suite, or registering its scenarios in a different
//! order, must serialize to byte-identical JSON. These properties back
//! the resilience suite's pinned verdict bytes
//! (`crates/core/tests/golden_resilience.rs`) with randomized inputs:
//! arbitrary expectation thresholds, seeds, flow sizes, and
//! permutations of both the expectation list and the entry list.

use proptest::prelude::*;
use scenario::prelude::*;

/// A small strategy over expectation lists: thresholds vary, the set
/// composition varies, and the order varies independently.
fn arb_expectations() -> impl Strategy<Value = Vec<Expectation>> {
    let one = prop_oneof![
        (0.0f64..1.5).prop_map(|min_fraction| Expectation::UtilizationFloor { min_fraction }),
        (0.0f64..0.9, 0.9f64..1.0)
            .prop_map(|(min, max)| Expectation::JainFairnessBand { min, max }),
        (1.0f64..500.0).prop_map(|max_j_per_gb| Expectation::EnergyBudget { max_j_per_gb }),
        Just(Expectation::AbortFree),
    ];
    proptest::collection::vec(one, 1..5)
}

fn spec(name: &str, seed: u64, bytes: u64, expectations: &[Expectation]) -> ScenarioSpec {
    let flows = vec![
        FlowSpec::bulk(CcaKind::Cubic, bytes),
        FlowSpec::bulk(CcaKind::Reno, bytes),
    ];
    let sc = Scenario::new(CAL_MTU_BYTES, flows).with_seed(seed);
    let mut b = ScenarioBuilder::new(name, Topology::Dumbbell(sc));
    for e in expectations {
        b = b.expect_check(e.clone());
    }
    b.build().expect("valid scenario")
}

proptest! {
    // Simulation runs dominate the budget; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Re-running the identical suite yields byte-identical verdict
    /// JSON, Prometheus text, and trace JSON.
    #[test]
    fn suite_reruns_are_byte_identical(
        seed in 0u64..1_000,
        bytes in 200_000u64..2_000_000,
        expectations in arb_expectations(),
    ) {
        let build = || {
            let mut s = Suite::new("prop");
            s.push(spec("a", seed, bytes, &expectations));
            s
        };
        let x = scenario::suite::run_suite(&build());
        let y = scenario::suite::run_suite(&build());
        prop_assert_eq!(x.verdict.to_json(), y.verdict.to_json());
        prop_assert_eq!(x.prometheus, y.prometheus);
        prop_assert_eq!(x.trace_json, y.trace_json);
    }

    /// Shuffling the expectation list changes only the order of the
    /// per-expectation reports (declaration order is preserved within
    /// a scenario), never any verdict: the same reports come back,
    /// pass/fail identical, regardless of declaration order.
    #[test]
    fn expectation_order_never_changes_verdicts(
        seed in 0u64..1_000,
        bytes in 200_000u64..2_000_000,
        expectations in arb_expectations(),
        rotation in 0usize..4,
    ) {
        let mut rotated = expectations.clone();
        let r = rotation % rotated.len().max(1);
        rotated.rotate_left(r);

        let a = spec("a", seed, bytes, &expectations)
            .run()
            .expect("scenario runs");
        let b = spec("a", seed, bytes, &rotated)
            .run()
            .expect("scenario runs");
        prop_assert_eq!(a.passed, b.passed);
        let mut ra = a.reports.clone();
        let mut rb = b.reports.clone();
        let key = |r: &ExpectationReport| (r.name.clone(), r.detail.clone());
        ra.sort_by_key(key);
        rb.sort_by_key(key);
        prop_assert_eq!(ra, rb);
    }

    /// Registering scenarios in a different order yields the same
    /// verdict JSON: the matrix is sorted by scenario name, so
    /// insertion order never leaks into the artifact.
    #[test]
    fn scenario_order_never_changes_the_verdict(
        seed in 0u64..1_000,
        bytes in 200_000u64..1_000_000,
        expectations in arb_expectations(),
    ) {
        let forward = || {
            let mut s = Suite::new("prop");
            s.push(spec("a", seed, bytes, &expectations));
            s.push(spec("b", seed.wrapping_add(1), bytes, &expectations));
            s
        };
        let reversed = || {
            let mut s = Suite::new("prop");
            s.push(spec("b", seed.wrapping_add(1), bytes, &expectations));
            s.push(spec("a", seed, bytes, &expectations));
            s
        };
        prop_assert_eq!(
            scenario::suite::run_suite(&forward()).verdict.to_json(),
            scenario::suite::run_suite(&reversed()).verdict.to_json()
        );
    }
}
