//! The paper's custom baseline module (§3): "a new kernel module that
//! replaces any CC mechanism with a large, constant cwnd value ... the
//! baseline to compare the energy consumption of CC-only computations."
//!
//! All other TCP machinery (RTO, SACK, loss recovery) still runs; only the
//! window never moves and no per-ack CC arithmetic happens. As the paper
//! notes (footnote 2), this module must never be used with competing
//! flows — it has no congestion response and would collapse the network.

use transport::cc::{AckEvent, CongestionControl, CongestionEvent};

/// The constant-cwnd baseline.
#[derive(Debug)]
pub struct Baseline {
    cwnd: u64,
}

impl Baseline {
    /// A baseline with an explicit constant window.
    pub fn new(cwnd_bytes: u64) -> Self {
        assert!(cwnd_bytes > 0);
        Baseline { cwnd: cwnd_bytes }
    }
}

impl CongestionControl for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn initial_cwnd(&self, _mss: u32) -> u64 {
        self.cwnd
    }

    fn on_ack(&mut self, _ev: &AckEvent) {}

    fn on_congestion_event(&mut self, _ev: &CongestionEvent) {}

    fn on_rto(&mut self, _now: netsim::time::SimTime, _mss: u32) {}

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// No CC computation at all — the whole point of the baseline.
    fn compute_cost_factor(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack, congestion};

    #[test]
    fn window_never_moves() {
        let mut cc = Baseline::new(5_000_000);
        cc.on_ack(&ack(100_000, 1));
        cc.on_congestion_event(&congestion(1_000_000));
        cc.on_rto(netsim::time::SimTime::ZERO, 1448);
        assert_eq!(cc.cwnd(), 5_000_000);
    }

    #[test]
    fn zero_compute_cost() {
        assert_eq!(Baseline::new(1).compute_cost_factor(), 0.0);
        assert_eq!(Baseline::new(1).name(), "baseline");
    }
}
