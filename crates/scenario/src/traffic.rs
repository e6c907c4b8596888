//! Traffic generators: declarative descriptions that compile to flows.
//!
//! A [`Traffic`] value names a workload shape the way an operator would
//! ("a bulk backup", "an RPC fan", "a 25 Mb/s video"); compilation
//! turns it into the [`FlowSpec`]s the runners consume. The mapping is
//! deliberately boring — every generator is expressible as bulk flows
//! with start delays and rate limits — so the whole
//! surface stays on the one battle-tested sender path.

use cca::CcaKind;
use netsim::time::SimDuration;
use netsim::units::Rate;
use workload::iperf::FlowSpec;

/// One declarative traffic source.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// An unthrottled bulk transfer (an iperf3 client, a backup job).
    Bulk {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Application bytes.
        bytes: u64,
        /// Start offset from simulation start.
        start: SimDuration,
    },
    /// A request/response RPC fan: `responses` short transfers of
    /// `resp_bytes` each, issued `interval` apart (an RPC client
    /// draining a queue of responses).
    Rpc {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Number of responses.
        responses: usize,
        /// Bytes per response.
        resp_bytes: u64,
        /// Gap between response starts.
        interval: SimDuration,
        /// Start offset of the first response.
        start: SimDuration,
    },
    /// A rate-limited, video-like stream: a bulk transfer throttled to
    /// its encode rate.
    Video {
        /// Congestion control algorithm.
        cca: CcaKind,
        /// Application bytes.
        bytes: u64,
        /// The stream's target rate.
        rate: Rate,
        /// Start offset from simulation start.
        start: SimDuration,
    },
    /// A population CCA mix for rack-grid topologies: `flows` bulk
    /// transfers of `bytes_per_flow` each, assigned to algorithms by
    /// weighted round-robin (see
    /// [`workload::population::PopulationSpec::cca_assignment`]).
    Mix {
        /// Total flows across the population.
        flows: usize,
        /// CCA mix as (algorithm, weight) pairs.
        mix: Vec<(CcaKind, u32)>,
        /// Application bytes per flow.
        bytes_per_flow: u64,
    },
}

impl Traffic {
    /// A bulk transfer starting at t = 0.
    pub fn bulk(cca: CcaKind, bytes: u64) -> Traffic {
        Traffic::Bulk {
            cca,
            bytes,
            start: SimDuration::ZERO,
        }
    }

    /// Compile to flow specs. [`Traffic::Mix`] compiles to nothing here
    /// — it configures the population runner instead (the builder
    /// rejects it on flow-level topologies).
    pub fn compile(&self) -> Vec<FlowSpec> {
        match self {
            Traffic::Bulk { cca, bytes, start } => {
                vec![FlowSpec::bulk(*cca, *bytes).with_start_delay(*start)]
            }
            Traffic::Rpc {
                cca,
                responses,
                resp_bytes,
                interval,
                start,
            } => (0..*responses)
                .map(|i| {
                    FlowSpec::bulk(*cca, *resp_bytes)
                        .with_start_delay(*start + interval.saturating_mul(i as u64))
                })
                .collect(),
            Traffic::Video {
                cca,
                bytes,
                rate,
                start,
            } => vec![FlowSpec::bulk(*cca, *bytes)
                .with_rate_limit(*rate)
                .with_start_delay(*start)],
            Traffic::Mix { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_compiles_to_one_flow() {
        let flows = Traffic::bulk(CcaKind::Cubic, 1_000).compile();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 1_000);
        assert!(flows[0].rate_limit.is_none());
    }

    #[test]
    fn rpc_fans_out_staggered() {
        let flows = Traffic::Rpc {
            cca: CcaKind::Reno,
            responses: 3,
            resp_bytes: 500,
            interval: SimDuration::from_millis(2),
            start: SimDuration::from_millis(1),
        }
        .compile();
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].start_delay, SimDuration::from_millis(1));
        assert_eq!(flows[1].start_delay, SimDuration::from_millis(3));
        assert_eq!(flows[2].start_delay, SimDuration::from_millis(5));
        assert!(flows.iter().all(|f| f.bytes == 500));
    }

    #[test]
    fn video_is_rate_limited() {
        let flows = Traffic::Video {
            cca: CcaKind::Bbr,
            bytes: 10_000,
            rate: Rate::from_mbps(25.0),
            start: SimDuration::ZERO,
        }
        .compile();
        assert_eq!(flows[0].rate_limit.unwrap().bps(), 25e6);
    }

    #[test]
    fn mix_compiles_to_no_flows() {
        let t = Traffic::Mix {
            flows: 10,
            mix: vec![(CcaKind::Cubic, 1)],
            bytes_per_flow: 1_000,
        };
        assert!(t.compile().is_empty());
    }
}
