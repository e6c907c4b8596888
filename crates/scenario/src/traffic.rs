//! Named flow shapes: the workloads an operator names ("an RPC fan",
//! "a 25 Mb/s video"), written directly as the [`FlowSpec`]s the
//! runners read. Each is a plain constructor over bulk flows with start
//! delays and rate limits, so the DSL keeps no second flow description
//! and every shape stays on the one sender path.

use cca::CcaKind;
use netsim::time::SimDuration;
use netsim::units::Rate;
use workload::iperf::FlowSpec;

/// A request/response RPC fan: `responses` transfers of `resp_bytes`
/// each, the first at `start` and the rest `interval` apart.
pub fn rpc_fan(
    cca: CcaKind,
    responses: usize,
    resp_bytes: u64,
    start: SimDuration,
    interval: SimDuration,
) -> Vec<FlowSpec> {
    (0..responses as u64)
        .map(|i| {
            FlowSpec::bulk(cca, resp_bytes).with_start_delay(start + interval.saturating_mul(i))
        })
        .collect()
}

/// A video-like stream: a bulk transfer of `bytes` throttled to its
/// encode `rate`, starting at `start`.
pub fn video(cca: CcaKind, bytes: u64, rate: Rate, start: SimDuration) -> FlowSpec {
    FlowSpec::bulk(cca, bytes)
        .with_rate_limit(rate)
        .with_start_delay(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_fans_out_staggered() {
        let ms = SimDuration::from_millis;
        let flows = rpc_fan(CcaKind::Reno, 3, 500, ms(1), ms(2));
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].start_delay, ms(1));
        assert_eq!(flows[1].start_delay, ms(3));
        assert_eq!(flows[2].start_delay, ms(5));
        assert!(flows
            .iter()
            .all(|f| f.bytes == 500 && f.rate_limit.is_none()));
    }

    #[test]
    fn video_is_rate_limited() {
        let flow = video(
            CcaKind::Bbr,
            10_000,
            Rate::from_mbps(25.0),
            SimDuration::ZERO,
        );
        assert_eq!(flow.rate_limit.unwrap().bps(), 25e6);
        assert_eq!(flow.start_delay, SimDuration::ZERO);
    }
}
