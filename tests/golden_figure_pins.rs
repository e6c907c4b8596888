//! Tier-1 mirror of `crates/core/tests/golden_figures.rs`'s Figure 4
//! pin: `cargo test -q` at the root runs only this package, so the
//! exact figure output across commits is guarded here too (fig4 borrows
//! the fig1 and fig2 machinery, so it covers all three). The constants
//! are the same ones; re-capture both files together.

use green_envy_repro::greenenvy::campaign::journal::fnv64;
use green_envy_repro::greenenvy::fig4;
use green_envy_repro::netsim::units::MB;

/// `(length, fnv64)` of the result's compact JSON.
const PINNED_FIG4: (usize, u64) = (599, 6832772301359116757);

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
    let json = serde_json::to_string(&result).expect("figure result serializes");
    assert_eq!(
        (json.len(), fnv64(json.as_bytes())),
        PINNED_FIG4,
        "fig4 output moved"
    );
}
