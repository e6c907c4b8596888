//! DCTCP's α against its fixed point — an oracle that shares no code
//! with `cca::dctcp`.
//!
//! RFC 8257 §3.3: once per observation window (one window of data) the
//! sender folds the window's CE-marked fraction `F` into
//! `α ← (1 − g) α + g F`, and if anything was marked cuts the window to
//! `cwnd (1 − α / 2)`. Under a constant `F` the recursion has the closed
//! form `α_n = F (1 − (1 − g)^n)`: α starts at 0, rises monotonically and
//! converges on its fixed point `F` without passing it. The test drives
//! [`Dctcp`] with synthetic acks that each carry exactly the fraction `F`
//! of their bytes CE-marked, for `F` ∈ {1/16, 1/4, 1}, and checks every
//! window against the formula with `g` restated here.
//!
//! The cut is checked within one byte: the product truncates the target
//! to whole bytes. Like every window rule (RFC 5681, and Linux's
//! `dctcp_ssthresh`), the cut never takes cwnd below two segments; under
//! heavy marking the windows shrink to that floor long before α settles,
//! so the oracle restates the floor too and counts how many cuts it
//! checked above it.

use cca::dctcp::Dctcp;
use netsim::time::{SimDuration, SimTime};
use transport::cc::{AckEvent, CongestionControl};

/// RFC 8257's recommended EWMA gain, restated rather than imported.
const G: f64 = 1.0 / 16.0;

const MSS: u64 = 1600;

/// The window floor: two segments.
const FLOOR: u64 = 2 * MSS;

/// Observation windows driven per fraction: (1 − g)^n < 1e-6 needs
/// n > 214.
const WINDOWS: u32 = 250;

/// Acks per observation window.
const ACKS_PER_WINDOW: u64 = 8;

fn ack(bytes: u64, marked: u64, cum_acked: u64) -> AckEvent {
    let rtt = SimDuration::from_micros(100);
    AckEvent {
        now: SimTime::ZERO,
        newly_acked_bytes: bytes,
        rtt_sample: Some(rtt),
        srtt: rtt,
        min_rtt: rtt,
        bytes_in_flight: 0,
        delivery_rate: None,
        app_limited: false,
        ce_marked_bytes: marked,
        ecn_echo: marked > 0,
        cum_acked,
        round: 0,
        in_recovery: false,
        int: netsim::packet::IntRecord::default(),
        cwnd_limited: true,
    }
}

/// Drive `WINDOWS` windows marked at `num / den` of every ack's bytes;
/// returns how many cuts were checked above the floor.
fn alpha_reaches_its_fixed_point(num: u64, den: u64) -> u32 {
    let f = num as f64 / den as f64;
    let mut cc = Dctcp::new(MSS as u32);
    // One unmarked stretch ack leaves α at 0 and slow-starts the window
    // to 2^34 bytes, far above the floor; it also closes the first
    // observation window, which ends one initial window later.
    let initial = cc.cwnd();
    cc.on_ack(&ack((1 << 34) - initial, 0, 0));
    assert_eq!(cc.alpha(), 0.0, "α starts at 0");
    let mut cum = 0;
    let mut window_end = initial;

    let mut alpha = 0.0f64;
    let mut checked = 0;
    for n in 1..=WINDOWS {
        // A window's acks: equal slices of the window, in whole multiples
        // of `den` bytes so every ack's marked share is exact. The last
        // one reaches (or passes) the window's end.
        let slice = (window_end - cum).div_ceil(ACKS_PER_WINDOW).div_ceil(den) * den;
        let cwnd_before = cc.cwnd();
        while cum < window_end {
            cum += slice;
            cc.on_ack(&ack(slice, slice / den * num, cum));
        }
        assert!(
            cc.alpha() >= alpha,
            "F = {f}: α fell from {alpha} to {} in window {n}",
            cc.alpha()
        );
        alpha = cc.alpha();
        assert!(alpha <= f, "F = {f}: α = {alpha} passed F in window {n}");
        let closed_form = f * (1.0 - (1.0 - G).powi(n as i32));
        assert!(
            (alpha - closed_form).abs() <= 1e-12,
            "F = {f}: α = {alpha}, closed form {closed_form} in window {n}"
        );

        let exact = cwnd_before as f64 * (1.0 - closed_form / 2.0);
        let want = exact.max(FLOOR as f64);
        assert!(
            (cc.cwnd() as f64 - want).abs() <= 1.0,
            "F = {f}: window {n} cut {cwnd_before} to {}, want {want}",
            cc.cwnd()
        );
        if exact >= FLOOR as f64 {
            checked += 1;
        }
        // The next window is the data now in flight: one cwnd past here.
        window_end = cum + cc.cwnd();
    }
    assert!(
        (alpha - f).abs() <= 1e-6,
        "F = {f}: α = {alpha} after {WINDOWS} windows"
    );
    checked
}

#[test]
fn alpha_settles_on_a_sixteenth() {
    // Light marking: the window never reaches the floor.
    assert_eq!(alpha_reaches_its_fixed_point(1, 16), WINDOWS);
}

#[test]
fn alpha_settles_on_a_quarter() {
    assert!(alpha_reaches_its_fixed_point(1, 4) > 100);
}

#[test]
fn alpha_settles_on_one() {
    assert!(alpha_reaches_its_fixed_point(1, 1) > 30);
}
