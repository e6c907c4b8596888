//! The energy meter against the closed-form integral of the paper's power
//! model.
//!
//! A host that transmits at a constant wire rate `x` for `t_active`
//! seconds of a `T`-second window, with no background load, no acks and
//! no retransmissions, draws
//!
//! ```text
//! E = T·P_idle + t_active·φ(x) + N·c_tx
//! ```
//!
//! where `φ` is the concave byte-rate curve, `N` the frames sent and
//! `c_tx` the per-frame transmit cost. Every constant is restated from
//! the paper's §4.1 measurements and the calibration's stated shares
//! rather than imported, so a drift in the product's fit or in the
//! meter's integration shows up here as a disagreement.

use energy::calibration::reference_host_model;
use energy::host::HostContext;
use energy::meter::EnergyMeter;
use netsim::ids::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::HostActivity;

/// Idle package power (W), paper §4.1.
const P_IDLE_W: f64 = 21.49;
/// Power sending smoothly at 5 Gb/s, MTU 9000 (W), paper §4.1.
const P_5G_W: f64 = 34.23;
/// Power sending at the 10 Gb/s line rate, MTU 9000 (W), paper §4.1.
const P_10G_W: f64 = 35.82;
/// Per-packet share of the network power at 10 Gb/s (W).
const PKT_W: f64 = 1.2;
/// Share of the per-packet power spent in congestion control.
const CC_SHARE: f64 = 0.1;
/// Receive cost of a frame relative to transmitting one.
const RX_FACTOR: f64 = 0.6;
/// Delayed acks per data segment.
const ACKS_PER_SEG: f64 = 0.5;
/// Frame size of the calibration points and of this test (bytes).
const FRAME_BYTES: u64 = 9000;
/// One RAPL energy unit (J).
const RAPL_UNIT_J: f64 = 1.0 / 65_536.0;

/// φ fitted by the doubling closed form through the per-packet-adjusted
/// points at 5 and 10 Gb/s: `φ(x) = a·(1 − e^(−x/τ))` with
/// `q = φ(10)/φ(5) − 1`, `τ = 5 / ln(1/q)`, `a = φ(5)/(1 − q)`.
fn phi(gbps: f64) -> f64 {
    let phi5 = P_5G_W - P_IDLE_W - PKT_W * 0.5;
    let phi10 = P_10G_W - P_IDLE_W - PKT_W;
    let q = phi10 / phi5 - 1.0;
    let tau = 5.0 / (1.0 / q).ln();
    let a = phi5 / (1.0 - q);
    a * (1.0 - (-gbps / tau).exp())
}

/// Per-frame transmit cost (J): at the calibration point (10 Gb/s of
/// 9000-byte frames) the non-CC packet power is spread over each
/// transmitted frame and its share of received acks.
fn c_tx_j() -> f64 {
    let cal_pps = 10e9 / (8.0 * FRAME_BYTES as f64);
    (1.0 - CC_SHARE) * PKT_W / (cal_pps * (1.0 + RX_FACTOR * ACKS_PER_SEG))
}

/// Meter a host that sends `frames_per_bin` 9000-byte frames in every
/// 1 ms bin for one second, over a `window_s`-second window.
fn metered_j(frames_per_bin: u64, window_s: u64) -> f64 {
    let bin = SimDuration::from_millis(1);
    let host = NodeId::from_raw(0);
    let mut activity = HostActivity::new(bin);
    let gap_ns = bin.as_nanos() / frames_per_bin;
    for b in 0..1_000u64 {
        for f in 0..frames_per_bin {
            let at = SimTime::from_nanos(b * bin.as_nanos() + f * gap_ns);
            activity.record_tx(host, at, FRAME_BYTES, false);
        }
    }
    EnergyMeter::new(reference_host_model())
        .measure_host(
            &activity,
            host,
            SimDuration::from_secs(window_s),
            HostContext::default(),
        )
        .joules
}

fn closed_form_j(frames_per_bin: u64, window_s: u64) -> f64 {
    let gbps = (frames_per_bin * FRAME_BYTES) as f64 * 8.0 / 1e-3 / 1e9;
    let frames = frames_per_bin * 1_000;
    window_s as f64 * P_IDLE_W + 1.0 * phi(gbps) + frames as f64 * c_tx_j()
}

#[test]
fn the_meter_integrates_the_closed_form_power_model() {
    // 100 frames per bin is 7.2 Gb/s, 50 is 3.6 Gb/s; the 2 s window
    // adds a second of idle tail.
    for frames_per_bin in [100, 50] {
        for window_s in [1, 2] {
            let metered = metered_j(frames_per_bin, window_s);
            let expected = closed_form_j(frames_per_bin, window_s);
            let rounding = 1e-12 * expected;
            assert!(
                (metered - expected).abs() <= RAPL_UNIT_J + rounding,
                "{frames_per_bin} frames/ms over {window_s} s: metered {metered} J, \
                 closed form {expected} J"
            );
        }
    }
}
