//! Golden observability regression tests.
//!
//! The observability subsystem promises two things at once:
//!
//! 1. **Zero perturbation** — attaching a recorder must not move the
//!    golden determinism fingerprint (same constants as
//!    `golden_determinism.rs`; re-capture both files together if a
//!    deliberate engine change moves them).
//! 2. **Deterministic output** — with the recorder on, the exported
//!    Perfetto JSON and Prometheus snapshot are byte-identical across
//!    runs, so traces can be diffed and cached like any other artifact.
//!
//! 3. **Pinned output** — the length and fnv64 of all three exports are
//!    constants captured at the commit before the recorder's hot path
//!    moved to pre-resolved handles, so an `obs` change that alters a
//!    single artefact byte fails here across commits, not only
//!    run-to-run. Re-capture only with a deliberate format or engine
//!    change (this file runs in Tier-1 itself: `cargo test` at the root
//!    covers every crate).
//!
//! Plus the failure path: an aborted flow must leave its flight-ring
//! dump in the cell artifact directory.

use cca::CcaKind;
use greenenvy::campaign::artifacts::persist_cell_obs;
use greenenvy::campaign::journal::fnv64;
use netsim::fault::FaultSpec;
use netsim::time::SimDuration;
use netsim::units::MB;
use workload::prelude::*;

/// Same fingerprint as `golden_determinism.rs` — pinned here too so a
/// recorder-induced drift fails this file by name.
const GOLDEN_EVENTS_PROCESSED: u64 = 204_899;
const GOLDEN_SIM_END_NS: u64 = 200_164_047;
const GOLDEN_SENDER_ENERGY_J: f64 = 4.594573974609375;
const GOLDEN_TOTAL_RETX: u64 = 195;

fn two_flow_scenario() -> Scenario {
    Scenario::new(
        3000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
            FlowSpec::bulk(CcaKind::Reno, 40 * MB),
        ],
    )
    .with_seed(7)
}

/// `(length, fnv64)` of the Perfetto, Prometheus and flight exports.
type ExportPins = [(usize, u64); 3];

/// Two-flow golden scenario, full observability, 10 ms flow trace.
const PINNED_TWO_FLOW: ExportPins = [
    (154_246, 9129871597134649437),
    (13_940, 8011786687621228208),
    (86_929, 4057014721375129441),
];
/// Four CCAs under loss, reordering and duplication, packet log and
/// 1 ms flow trace: the recovery-path hooks (loss, retx, RTO, recovery
/// spans, injected drops) all fire.
const PINNED_LOSSY_MIX: ExportPins = [
    (173_059, 3410832940949042476),
    (22_362, 9090015895691049553),
    (175_214, 18026761321088023420),
];

fn lossy_mix_scenario() -> Scenario {
    let flows = [
        CcaKind::Cubic,
        CcaKind::Reno,
        CcaKind::Bbr,
        CcaKind::Baseline,
    ]
    .into_iter()
    .map(|cca| FlowSpec::bulk(cca, 10 * MB))
    .collect();
    Scenario::new(3000, flows)
        .with_seed(11)
        .with_fault(
            FaultSpec::random_loss(0.01)
                .with_reordering(0.001, SimDuration::from_micros(40))
                .with_duplication(0.0005),
        )
        .with_observability()
        .with_packet_log(65_536)
        .with_trace(SimDuration::from_millis(1))
}

fn export_pins(scenario: &Scenario) -> ExportPins {
    let report = workload::scenario::run(scenario)
        .expect("observed run")
        .obs
        .expect("report");
    [
        report.perfetto_json().to_string(),
        report.prometheus_text(),
        report.flight_dump(),
    ]
    .map(|text| (text.len(), fnv64(text.as_bytes())))
}

fn fingerprint(out: &ScenarioOutcome) -> (u64, u64, f64, u64) {
    (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j,
        out.reports.iter().map(|r| r.retransmits).sum(),
    )
}

#[test]
fn recorder_does_not_move_the_golden_fingerprint() {
    let golden = (
        GOLDEN_EVENTS_PROCESSED,
        GOLDEN_SIM_END_NS,
        GOLDEN_SENDER_ENERGY_J,
        GOLDEN_TOTAL_RETX,
    );
    let plain = workload::scenario::run(&two_flow_scenario()).expect("plain run");
    assert_eq!(
        fingerprint(&plain),
        golden,
        "baseline fingerprint moved — fix golden_determinism.rs first"
    );

    let observed = workload::scenario::run(
        &two_flow_scenario()
            .with_observability()
            .with_trace(SimDuration::from_millis(10)),
    )
    .expect("observed run");
    assert_eq!(
        fingerprint(&observed),
        golden,
        "attaching the recorder perturbed the simulation"
    );

    // The recorder saw the same run the engine reports: every
    // retransmitted segment landed in the metrics registry.
    let report = observed.obs.expect("observed run yields a report");
    assert_eq!(
        report.metrics.counter_total("tcp_retx_total"),
        GOLDEN_TOTAL_RETX
    );
    assert_eq!(report.metrics.counter_total("flows_completed_total"), 2);
}

#[test]
fn observed_exports_are_byte_identical_across_runs() {
    let scenario = two_flow_scenario()
        .with_observability()
        .with_trace(SimDuration::from_millis(10));
    let a = workload::scenario::run(&scenario)
        .expect("first run")
        .obs
        .expect("report");
    let b = workload::scenario::run(&scenario)
        .expect("second run")
        .obs
        .expect("report");
    assert_eq!(
        a.perfetto_json(),
        b.perfetto_json(),
        "Perfetto export must be byte-reproducible"
    );
    assert_eq!(
        a.prometheus_text(),
        b.prometheus_text(),
        "Prometheus export must be byte-reproducible"
    );
    assert!(a.perfetto_json().contains("\"traceEvents\""));
    assert!(a.perfetto_json().contains("throughput_gbps"));
    assert!(a.prometheus_text().contains("tcp_rtt_ns"));
}

#[test]
fn observed_exports_match_the_pinned_bytes() {
    let two_flow = two_flow_scenario()
        .with_observability()
        .with_trace(SimDuration::from_millis(10));
    assert_eq!(
        export_pins(&two_flow),
        PINNED_TWO_FLOW,
        "two-flow export bytes moved (perfetto, prometheus, flight)"
    );
    assert_eq!(
        export_pins(&lossy_mix_scenario()),
        PINNED_LOSSY_MIX,
        "lossy-mix export bytes moved (perfetto, prometheus, flight)"
    );
}

#[test]
fn aborted_cell_artifact_contains_the_flight_ring() {
    use transport::stats::FlowOutcome;
    // 100% loss starves the flow until the RTO retry cap aborts it.
    let out = workload::scenario::run(
        &Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 10 * MB)])
            .with_fault(FaultSpec::random_loss(1.0))
            .with_max_rto_retries(3)
            .with_observability(),
    )
    .expect("aborted flows still produce an outcome");
    assert!(matches!(out.reports[0].outcome, FlowOutcome::Aborted(_)));

    let dir = std::env::temp_dir().join(format!("greenenvy-golden-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = out.obs.expect("report");
    let aborted = out.reports.iter().any(|r| !r.outcome.is_completed());
    persist_cell_obs(&dir, "cubic_mtu9000_seed0", &report, aborted).expect("artifacts persist");

    let flight = std::fs::read_to_string(dir.join("cubic_mtu9000_seed0.flight.txt"))
        .expect("abort dumps the flight ring");
    assert!(flight.contains("ABORTED"), "{flight}");
    assert!(flight.contains("rto"), "the RTO spiral is in the ring");
    assert!(dir.join("cubic_mtu9000_seed0.trace.json").exists());
    assert!(dir.join("cubic_mtu9000_seed0.prom").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
