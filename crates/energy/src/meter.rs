//! The measurement procedure.
//!
//! [`EnergyMeter`] reproduces the paper's §3 methodology: for each host,
//! read the (emulated) RAPL counter before the scenario, run it, read the
//! counter again, and report the difference. The meter consumes the
//! simulator's recorded [`HostActivity`] and the calibrated
//! [`HostPowerModel`], deposits the modeled energy into a wrapping
//! quantized counter, and differences raw reads — so reported Joules carry
//! genuine RAPL quantization, exactly like the testbed numbers. Like a
//! real RAPL reader it reads at least once per counter wrap: a window
//! holding more than half a register of energy is deposited in chunks,
//! each differenced on its own, and the differences summed.

use crate::host::{EnergyBreakdown, HostContext, HostPowerModel};
use crate::rapl::RaplCounter;
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

/// Most energy deposited between two reads of the counter: half its
/// 2³²-unit register at the default 2⁻¹⁶ J unit, so each differenced pair
/// spans less than one wrap even with the carried sub-unit residue.
const READ_EVERY_J: f64 = 32_768.0;

/// Measures host energy from recorded activity via an emulated RAPL
/// counter per host.
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

        // The paper's procedure: counter read, scenario, counter read —
        // with a read pair per chunk of less than one wrap.
        let mut left = breakdown.total_j();
        assert!(left.is_finite(), "non-finite energy {left} J");
        let mut rapl = RaplCounter::new();
        let mut joules = 0.0;
        loop {
            let chunk = left.min(READ_EVERY_J);
            let before = rapl.read_raw();
            rapl.deposit(chunk);
            joules += rapl.delta_j(before, rapl.read_raw());
            left -= chunk;
            if left <= 0.0 {
                break;
            }
        }

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

    #[test]
    fn an_hour_of_idle_survives_the_counter_wrap() {
        // 21.49 W for 3 600 s is 77 364 J, past the register's 65 536 J:
        // one read pair around the whole window would lose a wrap.
        let meter = EnergyMeter::new(calibration::reference_host_model());
        let host = NodeId::from_raw(0);
        let act = HostActivity::new(SimDuration::from_millis(10));
        let reading = meter.measure_host(
            &act,
            host,
            SimDuration::from_secs(3_600),
            HostContext::default(),
        );
        assert!(reading.breakdown.total_j() > 65_536.0);
        assert!(
            (reading.joules - reading.breakdown.total_j()).abs() <= crate::rapl::DEFAULT_UNIT_J,
            "{} J read, {} J deposited",
            reading.joules,
            reading.breakdown.total_j()
        );
    }
}
