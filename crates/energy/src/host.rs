//! The composite per-host power model.
//!
//! One [`HostPowerModel`] instance models one CPU socket the way the
//! paper's RAPL measurements see it:
//!
//! ```text
//! P(t) = P_idle
//!      + fan(u_bg)                                  -- background compute
//!      + k(u_bg) * [ phi(wire Gb/s)                 -- byte-rate curve
//!                  + per-packet work                -- pps-linear
//!                  + CC computation per ack         -- CCA-specific
//!                  + retransmission recovery work ]
//! ```
//!
//! The nonlinear byte-rate term is integrated over binned activity
//! ([`netsim::trace::HostActivity`]); the per-event terms are additive in
//! counts, so lifetime totals suffice.

use crate::coupling::LoadCoupling;
use crate::model::{FanModel, ThroughputPowerCurve};
use netsim::time::SimDuration;
use netsim::trace::{ActivityBin, ActivitySeries, ActivityTotals};

/// Per-event energy costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketCosts {
    /// Joules to transmit one packet (descriptor, completion, qdisc walk).
    pub tx_pkt_j: f64,
    /// Receiving costs `rx_pkt_factor * tx_pkt_j` per packet.
    pub rx_pkt_factor: f64,
    /// Extra Joules per retransmitted segment (loss-recovery work).
    pub retx_extra_j: f64,
}

/// A host's workload context for energy accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostContext {
    /// Background compute utilization in `[0, 1]` (the paper's `stress`).
    pub background_util: f64,
    /// Congestion-control compute cost per processed ack, in Joules.
    /// Zero for the paper's constant-cwnd baseline module; CCAs provide
    /// their own value via their compute profile.
    pub cc_cost_per_ack_j: f64,
}

impl Default for HostContext {
    fn default() -> Self {
        HostContext {
            background_util: 0.0,
            cc_cost_per_ack_j: 0.0,
        }
    }
}

/// Itemized energy for one host over one measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Idle (base package) energy.
    pub idle_j: f64,
    /// Background compute energy.
    pub compute_j: f64,
    /// Byte-rate curve energy.
    pub curve_j: f64,
    /// Per-packet processing energy (tx + rx).
    pub pkt_j: f64,
    /// Congestion-control computation energy.
    pub cc_j: f64,
    /// Retransmission recovery energy.
    pub retx_j: f64,
    /// Measurement window length in seconds.
    pub window_s: f64,
}

impl EnergyBreakdown {
    /// Total energy in Joules.
    pub fn total_j(&self) -> f64 {
        self.idle_j + self.compute_j + self.curve_j + self.pkt_j + self.cc_j + self.retx_j
    }

    /// Average power over the window in Watts.
    pub fn average_w(&self) -> f64 {
        if self.window_s <= 0.0 {
            return 0.0;
        }
        self.total_j() / self.window_s
    }
}

/// The composite host power model. See the module docs for the formula.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostPowerModel {
    /// Idle package power in Watts.
    pub p_idle_w: f64,
    /// Concave byte-rate curve.
    pub curve: ThroughputPowerCurve,
    /// Background compute power curve.
    pub fan: FanModel,
    /// Network/compute attenuation.
    pub coupling: LoadCoupling,
    /// Per-event costs.
    pub costs: PacketCosts,
}

impl HostPowerModel {
    /// Instantaneous power at the given rates.
    ///
    /// * `wire_gbps` — total wire throughput (tx + rx) in Gb/s,
    /// * `tx_pps` / `rx_pps` — packet rates,
    /// * `ack_pps` — acks processed per second (drives CC computation),
    /// * `retx_pps` — retransmissions per second,
    /// * `ctx` — background load and CC cost.
    pub fn power_w(
        &self,
        wire_gbps: f64,
        tx_pps: f64,
        rx_pps: f64,
        ack_pps: f64,
        retx_pps: f64,
        ctx: HostContext,
    ) -> f64 {
        let k = self.coupling.k(ctx.background_util);
        let net = self.curve.watts(wire_gbps)
            + self.costs.tx_pkt_j * (tx_pps + self.costs.rx_pkt_factor * rx_pps)
            + ctx.cc_cost_per_ack_j * ack_pps
            + self.costs.retx_extra_j * retx_pps;
        self.p_idle_w + self.fan.watts(ctx.background_util) + k * net
    }

    /// Steady-state sender power at wire throughput `gbps` with `mtu`-byte
    /// packets and `acks_per_segment` delayed-ack ratio — the analytic
    /// form behind the paper's Figure 2.
    pub fn sender_power_at(
        &self,
        gbps: f64,
        mtu_bytes: u32,
        acks_per_segment: f64,
        ctx: HostContext,
    ) -> f64 {
        let tx_pps = gbps * 1e9 / (8.0 * mtu_bytes as f64);
        let ack_pps = tx_pps * acks_per_segment;
        self.power_w(gbps, tx_pps, ack_pps, ack_pps, 0.0, ctx)
    }

    /// Per-bin instantaneous power of one host, from recorded activity —
    /// the exact integrand behind [`Self::energy_from_activity`], useful
    /// for power-over-time traces. One element per bin of the dense
    /// series; a bin without a packet reads the zero-traffic power.
    pub fn power_series(
        &self,
        series: ActivitySeries<'_>,
        bin: SimDuration,
        ctx: HostContext,
    ) -> Vec<f64> {
        let bin_s = bin.as_secs_f64();
        let quiet_w = self.power_w(0.0, 0.0, 0.0, 0.0, 0.0, ctx);
        let mut watts = vec![quiet_w; series.len() as usize];
        for (i, b) in series.active() {
            let Some(w) = watts.get_mut(i as usize) else {
                continue;
            };
            let gbps = (b.tx_bytes + b.rx_bytes) as f64 * 8.0 / bin_s / 1e9;
            *w = self.power_w(
                gbps,
                b.tx_pkts as f64 / bin_s,
                b.rx_pkts as f64 / bin_s,
                b.acks_rx as f64 / bin_s,
                b.retx_pkts as f64 / bin_s,
                ctx,
            );
        }
        watts
    }

    /// Energy of one host over a window, from recorded activity.
    ///
    /// * `active` / `bin` — the host's bins that saw a packet, as
    ///   `(bin index, bin)` in ascending order
    ///   ([`ActivitySeries::active`]), and the bin width. Bins not listed
    ///   are idle: the curve contributes nothing there (`phi(0) = 0`),
    ///   so skipping them leaves every bit of the sum where it was,
    /// * `window` — measurement window (idle power accrues even past the
    ///   last activity, like a RAPL read after the flows finish),
    /// * `totals` — lifetime counters for the per-event terms.
    pub fn energy_from_activity<'a>(
        &self,
        active: impl IntoIterator<Item = (u64, &'a ActivityBin)>,
        bin: SimDuration,
        window: SimDuration,
        totals: &ActivityTotals,
        ctx: HostContext,
    ) -> EnergyBreakdown {
        let window_s = window.as_secs_f64();
        let bin_s = bin.as_secs_f64();
        let k = self.coupling.k(ctx.background_util);

        let mut curve_j = 0.0;
        for (i, b) in active {
            let start_s = i as f64 * bin_s;
            if start_s >= window_s {
                break;
            }
            let span_s = bin_s.min(window_s - start_s);
            let gbps = (b.tx_bytes + b.rx_bytes) as f64 * 8.0 / bin_s / 1e9;
            curve_j += k * self.curve.watts(gbps) * span_s;
        }

        let pkt_j = k
            * self.costs.tx_pkt_j
            * (totals.tx_pkts as f64 + self.costs.rx_pkt_factor * totals.rx_pkts as f64);
        let cc_j = k * ctx.cc_cost_per_ack_j * totals.acks_rx as f64;
        let retx_j = k * self.costs.retx_extra_j * totals.retx_pkts as f64;

        EnergyBreakdown {
            idle_j: self.p_idle_w * window_s,
            compute_j: self.fan.watts(ctx.background_util) * window_s,
            curve_j,
            pkt_j,
            cc_j,
            retx_j,
            window_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;
    use netsim::time::SimDuration;
    use netsim::trace::{ActivityBin, ActivityTotals};

    fn model() -> HostPowerModel {
        calibration::reference_host_model()
    }

    fn ref_ctx() -> HostContext {
        HostContext {
            background_util: 0.0,
            cc_cost_per_ack_j: calibration::cc_cost_per_ack_ref_j(),
        }
    }

    /// A dense bin slice as the `(index, bin)` stream the model integrates.
    fn dense(bins: &[ActivityBin]) -> impl Iterator<Item = (u64, &ActivityBin)> {
        bins.iter().enumerate().map(|(i, b)| (i as u64, b))
    }

    #[test]
    fn steady_state_power_hits_calibration_points() {
        let m = model();
        let p0 = m.sender_power_at(0.0, 9000, 0.5, ref_ctx());
        let p5 = m.sender_power_at(5.0, 9000, 0.5, ref_ctx());
        let p10 = m.sender_power_at(10.0, 9000, 0.5, ref_ctx());
        assert!((p0 - 21.49).abs() < 1e-9, "p0={p0}");
        assert!((p5 - 34.23).abs() < 1e-6, "p5={p5}");
        assert!((p10 - 35.82).abs() < 1e-6, "p10={p10}");
    }

    #[test]
    fn power_is_concave_in_throughput() {
        let m = model();
        let ctx = ref_ctx();
        assert!(crate::model::is_strictly_concave(
            |x| m.sender_power_at(x, 9000, 0.5, ctx),
            0.0,
            10.0,
            100
        ));
    }

    #[test]
    fn smaller_mtu_draws_more_power_at_equal_throughput() {
        let m = model();
        let ctx = ref_ctx();
        let p9000 = m.sender_power_at(5.0, 9000, 0.5, ctx);
        let p3000 = m.sender_power_at(5.0, 3000, 0.5, ctx);
        let p1500 = m.sender_power_at(5.0, 1500, 0.5, ctx);
        assert!(p9000 < p3000 && p3000 < p1500, "{p9000} {p3000} {p1500}");
    }

    #[test]
    fn background_load_raises_base_and_attenuates_network_power() {
        let m = model();
        let idle_ctx = ref_ctx();
        let loaded_ctx = HostContext {
            background_util: 0.5,
            ..idle_ctx
        };
        let net_idle = m.sender_power_at(10.0, 9000, 0.5, idle_ctx)
            - m.sender_power_at(0.0, 9000, 0.5, idle_ctx);
        let net_loaded = m.sender_power_at(10.0, 9000, 0.5, loaded_ctx)
            - m.sender_power_at(0.0, 9000, 0.5, loaded_ctx);
        assert!(net_loaded < net_idle * 0.2, "{net_loaded} vs {net_idle}");
        assert!(
            m.sender_power_at(0.0, 9000, 0.5, loaded_ctx)
                > m.sender_power_at(0.0, 9000, 0.5, idle_ctx)
        );
    }

    #[test]
    fn energy_from_activity_matches_steady_state_arithmetic() {
        // One second of 10 Gb/s with MTU-9000 packets in 10 ms bins must
        // integrate to P(10G) * 1 s.
        let m = model();
        let bin = SimDuration::from_millis(10);
        let pps = calibration::cal_tx_pps();
        let per_bin_pkts = (pps * 0.01) as u64;
        let per_bin_bytes = per_bin_pkts * 9000;
        let bins: Vec<ActivityBin> = (0..100)
            .map(|_| ActivityBin {
                tx_bytes: per_bin_bytes,
                tx_pkts: per_bin_pkts,
                rx_bytes: 0,
                rx_pkts: 0,
                acks_rx: 0,
                retx_pkts: 0,
            })
            .collect();
        let acks = (pps * 0.5) as u64;
        let totals = ActivityTotals {
            tx_bytes: per_bin_bytes * 100,
            tx_pkts: per_bin_pkts * 100,
            retx_pkts: 0,
            rx_bytes: 0,
            rx_pkts: acks,
            acks_rx: acks,
        };
        let e = m.energy_from_activity(
            dense(&bins),
            bin,
            SimDuration::from_secs(1),
            &totals,
            ref_ctx(),
        );
        // per_bin quantization rounds pps down slightly; allow 1% slack.
        let expected = m.sender_power_at(10.0, 9000, 0.5, ref_ctx());
        assert!(
            (e.total_j() - expected).abs() / expected < 0.01,
            "E={} expected~{}",
            e.total_j(),
            expected
        );
        assert!((e.average_w() - e.total_j() / 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_window_costs_idle_power_only() {
        let m = model();
        let e = m.energy_from_activity(
            dense(&[]),
            SimDuration::from_millis(10),
            SimDuration::from_secs(2),
            &ActivityTotals::default(),
            HostContext::default(),
        );
        assert!((e.total_j() - 2.0 * 21.49).abs() < 1e-9);
        assert_eq!(e.curve_j, 0.0);
        assert_eq!(e.pkt_j, 0.0);
    }

    #[test]
    fn window_shorter_than_activity_truncates_integration() {
        let m = model();
        let bin = SimDuration::from_millis(10);
        let bins: Vec<ActivityBin> = (0..100)
            .map(|_| ActivityBin {
                tx_bytes: 12_500_000, // 10 Gb/s per 10 ms bin
                tx_pkts: 1389,
                rx_bytes: 0,
                rx_pkts: 0,
                acks_rx: 0,
                retx_pkts: 0,
            })
            .collect();
        let half = m.energy_from_activity(
            dense(&bins),
            bin,
            SimDuration::from_millis(500),
            &ActivityTotals::default(),
            HostContext::default(),
        );
        let full = m.energy_from_activity(
            dense(&bins),
            bin,
            SimDuration::from_secs(1),
            &ActivityTotals::default(),
            HostContext::default(),
        );
        assert!((full.curve_j - 2.0 * half.curve_j).abs() < 1e-6);
    }

    #[test]
    fn retransmissions_cost_extra_energy() {
        let m = model();
        let mut totals = ActivityTotals::default();
        let base = m.energy_from_activity(
            dense(&[]),
            SimDuration::from_millis(10),
            SimDuration::from_secs(1),
            &totals,
            HostContext::default(),
        );
        totals.retx_pkts = 10_000;
        let with_retx = m.energy_from_activity(
            dense(&[]),
            SimDuration::from_millis(10),
            SimDuration::from_secs(1),
            &totals,
            HostContext::default(),
        );
        let delta = with_retx.total_j() - base.total_j();
        assert!((delta - 10_000.0 * calibration::RETX_EXTRA_J).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = model();
        let bins = [ActivityBin {
            tx_bytes: 1_000_000,
            tx_pkts: 700,
            rx_bytes: 50_000,
            rx_pkts: 300,
            acks_rx: 300,
            retx_pkts: 0,
        }];
        let totals = ActivityTotals {
            tx_bytes: 1_000_000,
            tx_pkts: 700,
            retx_pkts: 5,
            rx_bytes: 50_000,
            rx_pkts: 300,
            acks_rx: 300,
        };
        let ctx = HostContext {
            background_util: 0.3,
            cc_cost_per_ack_j: 1e-6,
        };
        let e = m.energy_from_activity(
            dense(&bins),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            &totals,
            ctx,
        );
        let sum = e.idle_j + e.compute_j + e.curve_j + e.pkt_j + e.cc_j + e.retx_j;
        assert!((sum - e.total_j()).abs() < 1e-12);
        assert!(e.compute_j > 0.0);
        assert!(e.cc_j > 0.0);
        assert!(e.retx_j > 0.0);
    }
}
