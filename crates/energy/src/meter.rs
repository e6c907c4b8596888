//! The measurement procedure.
//!
//! [`EnergyMeter`] reproduces the paper's §3 methodology: for each host,
//! read the (emulated) RAPL counter before the scenario, run it, read the
//! counter again, and report the difference. The meter consumes the
//! simulator's recorded [`HostActivity`] and the calibrated
//! [`HostPowerModel`], deposits the modeled energy into a wrapping
//! quantized counter, and differences raw reads — so reported Joules carry
//! genuine RAPL quantization, exactly like the testbed numbers.

use crate::host::{EnergyBreakdown, HostContext, HostPowerModel};
use crate::rapl::{RaplDomain, RaplPackage};
use netsim::ids::NodeId;
use netsim::time::SimDuration;
use netsim::trace::HostActivity;

/// One host's measured energy over a window.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReading {
    /// Host measured.
    pub host: NodeId,
    /// Energy as differenced from the RAPL counter (quantized).
    pub joules: f64,
    /// Itemized model-side breakdown (pre-quantization).
    pub breakdown: EnergyBreakdown,
}

impl EnergyReading {
    /// Average power over the window in Watts.
    pub fn average_w(&self) -> f64 {
        if self.breakdown.window_s <= 0.0 {
            return 0.0;
        }
        self.joules / self.breakdown.window_s
    }
}

/// Measures host energy from recorded activity via an emulated RAPL
/// package per host.
pub struct EnergyMeter {
    model: HostPowerModel,
}

impl EnergyMeter {
    /// Create a meter over a calibrated host model.
    pub fn new(model: HostPowerModel) -> Self {
        EnergyMeter { model }
    }

    /// The underlying model.
    pub fn model(&self) -> &HostPowerModel {
        &self.model
    }

    /// Measure one host over `window`, under `ctx`.
    pub fn measure_host(
        &self,
        activity: &HostActivity,
        host: NodeId,
        window: SimDuration,
        ctx: HostContext,
    ) -> EnergyReading {
        let totals = activity.totals(host);
        let breakdown = self.model.energy_from_activity(
            activity.series(host).active(),
            activity.bin(),
            window,
            &totals,
            ctx,
        );

        // The paper's procedure: counter read, scenario, counter read.
        let mut rapl = RaplPackage::new();
        let before = rapl.read_raw(RaplDomain::Package);
        rapl.deposit(breakdown.total_j());
        let after = rapl.read_raw(RaplDomain::Package);
        let joules = rapl.delta_j(RaplDomain::Package, before, after);

        EnergyReading {
            host,
            joules,
            breakdown,
        }
    }

    /// Feed a host's per-bin power series into an observability recorder
    /// as sim-time power samples, one per activity bin (stamped at the
    /// bin start). This is the meter-side bridge to `obs`: the samples
    /// come from the same integrand as [`Self::measure_host`], so the
    /// exported power track matches the reported Joules.
    pub fn record_power_series(
        &self,
        recorder: &mut dyn obs::Recorder,
        activity: &HostActivity,
        host: NodeId,
        ctx: HostContext,
    ) {
        let series = self
            .model
            .power_series(activity.series(host), activity.bin(), ctx);
        let bin_ns = activity.bin().as_nanos();
        for (i, watts) in series.iter().enumerate() {
            recorder.power_sample(i as u64 * bin_ns, host.index() as u32, *watts);
        }
    }

    /// Measure several hosts over a common window and sum their energy —
    /// the paper's "total energy usage during the experiment" across
    /// participating servers.
    pub fn measure_total(
        &self,
        activity: &HostActivity,
        hosts: &[(NodeId, HostContext)],
        window: SimDuration,
    ) -> (f64, Vec<EnergyReading>) {
        let readings: Vec<EnergyReading> = hosts
            .iter()
            .map(|&(h, ctx)| self.measure_host(activity, h, window, ctx))
            .collect();
        let total = readings.iter().map(|r| r.joules).sum();
        (total, readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;
    use netsim::time::SimTime;

    #[test]
    fn reading_matches_breakdown_within_quantization() {
        let meter = EnergyMeter::new(calibration::reference_host_model());
        let host = NodeId::from_raw(0);
        let mut act = HostActivity::new(SimDuration::from_millis(10));
        act.record_tx(host, SimTime::from_millis(1), 9000, false);
        act.record_rx(host, SimTime::from_millis(2), 64, true);
        let reading = meter.measure_host(
            &act,
            host,
            SimDuration::from_secs(1),
            HostContext::default(),
        );
        assert!(
            (reading.joules - reading.breakdown.total_j()).abs() <= crate::rapl::DEFAULT_UNIT_J
        );
        assert!(
            reading.joules > 21.0,
            "idle second dominates: {}",
            reading.joules
        );
    }

    #[test]
    fn total_sums_hosts() {
        let meter = EnergyMeter::new(calibration::reference_host_model());
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let act = HostActivity::new(SimDuration::from_millis(10));
        let window = SimDuration::from_secs(2);
        let ctx = HostContext::default();
        let (total, readings) = meter.measure_total(&act, &[(a, ctx), (b, ctx)], window);
        assert_eq!(readings.len(), 2);
        // Two idle hosts for two seconds: 2 * 2 * 21.49 J.
        assert!((total - 2.0 * 2.0 * 21.49).abs() < 0.01, "total={total}");
    }

    #[test]
    fn power_series_lands_in_the_recorder() {
        let meter = EnergyMeter::new(calibration::reference_host_model());
        let host = NodeId::from_raw(2);
        let mut act = HostActivity::new(SimDuration::from_millis(10));
        act.record_tx(host, SimTime::from_millis(1), 9000, false);
        act.record_tx(host, SimTime::from_millis(25), 9000, false);
        let mut rec = obs::ObsRecorder::new();
        meter.record_power_series(&mut rec, &act, host, HostContext::default());
        let report = rec.finalize(SimTime::from_millis(30).as_nanos());
        // Three bins -> three samples, all at least idle power (in mW).
        let key = obs::labels([("host", "n2".to_string())]);
        let hist = report
            .metrics
            .histogram("host_power_mw", &key)
            .expect("histogram");
        assert_eq!(hist.count(), 3);
        assert!(hist.min().unwrap() >= 21_000);
    }

    #[test]
    fn average_power_of_idle_host_is_idle_power() {
        let meter = EnergyMeter::new(calibration::reference_host_model());
        let host = NodeId::from_raw(3);
        let act = HostActivity::new(SimDuration::from_millis(10));
        let reading = meter.measure_host(
            &act,
            host,
            SimDuration::from_secs(5),
            HostContext::default(),
        );
        assert!((reading.average_w() - 21.49).abs() < 0.01);
    }
}
