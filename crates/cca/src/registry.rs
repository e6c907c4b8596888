//! The algorithm registry: every CCA the paper benchmarks, constructible
//! by kernel-style name, plus per-algorithm transport policy (ack policy,
//! ECN) — the analogue of `sysctl net.ipv4.tcp_congestion_control`.

use crate::baseline::Baseline;
use crate::bbr::{Bbr, Bbr2};
use crate::cubic::Cubic;
use crate::dctcp::Dctcp;
use crate::highspeed::HighSpeed;
use crate::hpcc::Hpcc;
use crate::reno::Reno;
use crate::scalable::Scalable;
use crate::swift::Swift;
use crate::vegas::Vegas;
use crate::westwood::Westwood;
use transport::cc::CongestionControl;
use transport::receiver::AckPolicy;

/// Construction parameters shared by all algorithms.
#[derive(Clone, Copy, Debug)]
pub struct CcaConfig {
    /// Segment payload size in bytes.
    pub mss: u32,
    /// Constant window for the baseline module, in bytes.
    pub baseline_cwnd: u64,
}

impl CcaConfig {
    /// Config for a given MSS with a baseline window sized for the
    /// paper's testbed path (10 Gb/s, ~100 µs RTT, 1 MB buffer).
    pub fn new(mss: u32) -> Self {
        CcaConfig {
            mss,
            baseline_cwnd: 2 * (125_000 + 1_000_000),
        }
    }

    /// Override the baseline window.
    pub fn with_baseline_cwnd(mut self, cwnd: u64) -> Self {
        self.baseline_cwnd = cwnd;
        self
    }
}

/// The ten algorithms of the paper's §3, by kernel name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CcaKind {
    Reno,
    Cubic,
    Dctcp,
    Vegas,
    Westwood,
    Highspeed,
    Scalable,
    Bbr,
    Bbr2,
    Baseline,
    /// Google's production delay-based algorithm (SIGCOMM '20) — §5's
    /// benchmark call, not part of the paper's measured set.
    Swift,
    /// Alibaba's INT-driven algorithm (SIGCOMM '19) — §5's benchmark
    /// call, not part of the paper's measured set.
    Hpcc,
}

impl CcaKind {
    /// The §5 production algorithms implemented beyond the paper's set.
    pub const EXTENDED: [CcaKind; 2] = [CcaKind::Swift, CcaKind::Hpcc];

    /// Every algorithm *the paper measures*, in the paper's Figure-5
    /// x-axis order (MTU-1500 energy, ascending). The extended algorithms
    /// are deliberately not part of the reproduction campaign.
    pub const ALL: [CcaKind; 10] = [
        CcaKind::Bbr,
        CcaKind::Westwood,
        CcaKind::Highspeed,
        CcaKind::Scalable,
        CcaKind::Reno,
        CcaKind::Vegas,
        CcaKind::Dctcp,
        CcaKind::Cubic,
        CcaKind::Baseline,
        CcaKind::Bbr2,
    ];

    /// The kernel-style name.
    pub fn name(self) -> &'static str {
        match self {
            CcaKind::Reno => "reno",
            CcaKind::Cubic => "cubic",
            CcaKind::Dctcp => "dctcp",
            CcaKind::Vegas => "vegas",
            CcaKind::Westwood => "westwood",
            CcaKind::Highspeed => "highspeed",
            CcaKind::Scalable => "scalable",
            CcaKind::Bbr => "bbr",
            CcaKind::Bbr2 => "bbr2",
            CcaKind::Baseline => "baseline",
            CcaKind::Swift => "swift",
            CcaKind::Hpcc => "hpcc",
        }
    }

    /// Parse a kernel-style name.
    pub fn from_name(name: &str) -> Option<CcaKind> {
        CcaKind::ALL
            .into_iter()
            .chain(CcaKind::EXTENDED)
            .find(|k| k.name() == name)
    }

    /// Build a controller instance.
    pub fn build(self, cfg: &CcaConfig) -> Box<dyn CongestionControl> {
        match self {
            CcaKind::Reno => Box::new(Reno::new(cfg.mss)),
            CcaKind::Cubic => Box::new(Cubic::new(cfg.mss)),
            CcaKind::Dctcp => Box::new(Dctcp::new(cfg.mss)),
            CcaKind::Vegas => Box::new(Vegas::new(cfg.mss)),
            CcaKind::Westwood => Box::new(Westwood::new(cfg.mss)),
            CcaKind::Highspeed => Box::new(HighSpeed::new(cfg.mss)),
            CcaKind::Scalable => Box::new(Scalable::new(cfg.mss)),
            CcaKind::Bbr => Box::new(Bbr::new(cfg.mss)),
            CcaKind::Bbr2 => Box::new(Bbr2::new(cfg.mss)),
            CcaKind::Baseline => Box::new(Baseline::new(cfg.baseline_cwnd)),
            CcaKind::Swift => Box::new(Swift::new(cfg.mss)),
            CcaKind::Hpcc => Box::new(Hpcc::new(cfg.mss)),
        }
    }

    /// The receiver ack policy this algorithm expects: DCTCP runs its
    /// CE-aware state machine; everything else uses standard delayed acks.
    pub fn ack_policy(self) -> AckPolicy {
        match self {
            CcaKind::Dctcp => AckPolicy::dctcp_default(),
            _ => AckPolicy::delayed_default(),
        }
    }
}

impl std::fmt::Display for CcaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for kind in CcaKind::ALL {
            assert_eq!(CcaKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CcaKind::from_name("nope"), None);
    }

    #[test]
    fn all_build_and_report_their_name() {
        let cfg = CcaConfig::new(1448);
        for kind in CcaKind::ALL {
            let cc = kind.build(&cfg);
            assert_eq!(cc.name(), kind.name());
            assert!(cc.cwnd() > 0);
        }
    }

    #[test]
    fn only_dctcp_wants_ecn() {
        let cfg = CcaConfig::new(1448);
        for kind in CcaKind::ALL {
            let cc = kind.build(&cfg);
            assert_eq!(cc.wants_ecn(), kind == CcaKind::Dctcp, "{kind}");
        }
    }

    #[test]
    fn dctcp_gets_ce_aware_acks() {
        assert!(matches!(
            CcaKind::Dctcp.ack_policy(),
            AckPolicy::DctcpCeAware { .. }
        ));
        assert!(matches!(
            CcaKind::Cubic.ack_policy(),
            AckPolicy::Delayed { .. }
        ));
    }

    #[test]
    fn baseline_window_is_configurable() {
        let cfg = CcaConfig::new(1448).with_baseline_cwnd(42_000);
        let cc = CcaKind::Baseline.build(&cfg);
        assert_eq!(cc.cwnd(), 42_000);
    }

    #[test]
    fn compute_costs_span_the_expected_range() {
        let cfg = CcaConfig::new(1448);
        let cost = |k: CcaKind| k.build(&cfg).compute_cost_factor();
        assert_eq!(cost(CcaKind::Baseline), 0.0);
        assert_eq!(cost(CcaKind::Cubic), 1.0);
        assert!(cost(CcaKind::Bbr2) > cost(CcaKind::Bbr));
        assert!(cost(CcaKind::Scalable) < cost(CcaKind::Reno));
    }
}
