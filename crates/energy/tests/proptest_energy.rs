//! Property-based tests of the energy model's mathematical guarantees.

use energy::prelude::*;
use netsim::time::SimDuration;
use netsim::trace::{ActivityBin, ActivityTotals};
use proptest::prelude::*;

/// A dense bin slice as the `(index, bin)` stream the model integrates.
fn dense(bins: &[ActivityBin]) -> impl Iterator<Item = (u64, &ActivityBin)> {
    bins.iter().enumerate().map(|(i, b)| (i as u64, b))
}

proptest! {
    /// Curve fitting: for any realizable doubling pair, the fitted curve
    /// passes through both points and stays strictly concave.
    #[test]
    fn fit_doubling_roundtrips(x in 0.5f64..20.0, phi in 1.0f64..50.0, ratio in 1.001f64..1.999) {
        let phi2 = phi * ratio;
        let curve = ThroughputPowerCurve::fit_doubling(x, phi, phi2);
        prop_assert!((curve.watts(x) - phi).abs() < 1e-6 * phi);
        prop_assert!((curve.watts(2.0 * x) - phi2).abs() < 1e-6 * phi2);
        // Check concavity over the fitted range [0, 2x]: past it the curve
        // saturates and, for ratios near 1, the second difference decays
        // like phi * e^(-v/tau) below what f64 subtraction can resolve.
        prop_assert!(is_strictly_concave(|v| curve.watts(v), 0.0, 2.0 * x, 64));
    }

    /// The Fan model is monotone increasing and superlinear on [0,1].
    #[test]
    fn fan_model_properties(span in 1.0f64..200.0, r in 1.01f64..2.0) {
        let fan = FanModel::new(span, r);
        let mut prev = -1e-9;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let w = fan.watts(u);
            prop_assert!(w >= prev, "monotone");
            prop_assert!(w >= span * u - 1e-9, "concave => superlinear");
            prev = w;
        }
        prop_assert!((fan.watts(1.0) - span).abs() < 1e-9);
    }

    /// Coupling fits reproduce their anchors for any valid pair.
    #[test]
    fn coupling_fit_roundtrips(
        u1 in 0.05f64..0.5,
        du in 0.05f64..0.5,
        k1 in 0.05f64..0.9,
        kr in 0.05f64..0.95,
    ) {
        let u2 = u1 + du;
        let k2 = k1 * kr;
        let c = LoadCoupling::fit(u1, k1, u2, k2);
        prop_assert!((c.k(u1) - k1).abs() < 1e-9);
        prop_assert!((c.k(u2) - k2).abs() < 1e-9);
        prop_assert!(c.k(0.0) == 1.0);
    }

    /// Energy accounting is additive: splitting an activity series into
    /// two windows yields the same total as one window, for any split.
    #[test]
    fn energy_is_window_additive(
        bins in proptest::collection::vec((0u64..20_000_000, 0u64..2000), 1..60),
        split in 1usize..59,
    ) {
        prop_assume!(split < bins.len());
        let model = reference_host_model();
        let ctx = HostContext {
            background_util: 0.25,
            cc_cost_per_ack_j: cc_cost_per_ack_ref_j(),
        };
        let bin_w = SimDuration::from_millis(1);
        let series: Vec<ActivityBin> = bins
            .iter()
            .map(|&(b, p)| ActivityBin {
                tx_bytes: b,
                tx_pkts: p,
                rx_bytes: 0,
                rx_pkts: 0,
                acks_rx: 0,
                retx_pkts: 0,
            })
            .collect();
        // Totals only carry per-event terms; use zero so the check
        // isolates the time-integrated part.
        let totals = ActivityTotals::default();
        let full = model.energy_from_activity(
            dense(&series),
            bin_w,
            SimDuration::from_millis(series.len() as u64),
            &totals,
            ctx,
        );
        let first = model.energy_from_activity(
            dense(&series[..split]),
            bin_w,
            SimDuration::from_millis(split as u64),
            &totals,
            ctx,
        );
        let rest = model.energy_from_activity(
            dense(&series[split..]),
            bin_w,
            SimDuration::from_millis((series.len() - split) as u64),
            &totals,
            ctx,
        );
        let sum = first.total_j() + rest.total_j();
        prop_assert!(
            (full.total_j() - sum).abs() < 1e-6 * full.total_j().max(1.0),
            "additivity: {} vs {}",
            full.total_j(),
            sum
        );
    }

    /// More traffic never costs less energy, all else equal.
    #[test]
    fn energy_is_monotone_in_traffic(
        base_bytes in 0u64..10_000_000,
        extra in 1u64..10_000_000,
    ) {
        let model = reference_host_model();
        let ctx = HostContext::default();
        let bin_w = SimDuration::from_millis(1);
        let window = SimDuration::from_millis(1);
        let mk = |bytes: u64| {
            let bins = [ActivityBin {
                tx_bytes: bytes,
                tx_pkts: bytes / 9000 + 1,
                rx_bytes: 0,
                rx_pkts: 0,
                acks_rx: 0,
                retx_pkts: 0,
            }];
            model
                .energy_from_activity(dense(&bins), bin_w, window, &ActivityTotals::default(), ctx)
                .total_j()
        };
        prop_assert!(mk(base_bytes + extra) >= mk(base_bytes));
    }
}
