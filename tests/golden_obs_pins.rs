//! Tier-1 mirror of `crates/core/tests/golden_obs.rs`'s first export
//! pin: `cargo test -q` at the root runs only this package, so the
//! byte-identity of the observability artefacts across commits is
//! guarded here too. The constants are the same ones; re-capture both
//! files together.

use green_envy_repro::cca::CcaKind;
use green_envy_repro::greenenvy::campaign::journal::fnv64;
use green_envy_repro::netsim::time::SimDuration;
use green_envy_repro::netsim::units::MB;
use green_envy_repro::workload::prelude::*;

/// `(length, fnv64)` of the Perfetto, Prometheus and flight exports.
const PINNED_TWO_FLOW: [(usize, u64); 3] = [
    (154_246, 9129871597134649437),
    (13_940, 8011786687621228208),
    (86_929, 4057014721375129441),
];

#[test]
fn two_flow_observed_exports_match_the_pinned_bytes() {
    let scenario = Scenario::new(
        3000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
            FlowSpec::bulk(CcaKind::Reno, 40 * MB),
        ],
    )
    .with_seed(7)
    .with_observability()
    .with_trace(SimDuration::from_millis(10));
    let report = green_envy_repro::workload::scenario::run(&scenario)
        .expect("observed run")
        .obs
        .expect("report");
    let pins = [
        report.perfetto_json().to_string(),
        report.prometheus_text(),
        report.flight_dump(),
    ]
    .map(|text| (text.len(), fnv64(text.as_bytes())));
    assert_eq!(
        pins, PINNED_TWO_FLOW,
        "export bytes moved (perfetto, prometheus, flight)"
    );
}
