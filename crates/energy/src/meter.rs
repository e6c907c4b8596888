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
