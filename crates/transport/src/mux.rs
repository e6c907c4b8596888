//! Multiplexing several flows onto one host.
//!
//! The paper's future-work list (§5) asks what happens to the unfairness
//! savings when multiple flows share *the same sender* — per-socket power
//! then depends on the aggregate, not on per-flow rates. [`MuxSender`]
//! hosts any number of [`TcpSender`] state machines behind a single agent
//! (one kernel, many sockets), dispatching packets by flow id and timers
//! by token namespace.
//!
//! At population scale (thousands of flows behind a few hosts) the mux
//! sits on the per-ack hot path. The sub-senders live in a `Vec` in
//! construction order and packet dispatch goes through a [`FlowIndex`]
//! from flow id to the sub's position in it: O(1) per ack, and sized by
//! the flows this host serves, not by the largest flow id in the
//! population. The position is the whole handle — the mux never removes
//! a sub, so it is `sub(i)`'s index and the timer namespace minus one.
//! Batched deliveries ([`Agent::on_packets`]) walk the index once per
//! packet but pay the agent-dispatch setup only once.

use crate::sender::TcpSender;
use netsim::agent::{Agent, Ctx, TOKEN_BITS, TOKEN_MASK};
use netsim::flowtab::FlowIndex;
use netsim::packet::Packet;

/// Several TCP senders sharing one host.
pub struct MuxSender {
    /// In construction order; a sub's timer namespace is its index + 1.
    subs: Vec<TcpSender>,
    /// Flow raw id -> index into `subs`: the O(1) per-packet dispatch path.
    by_flow: FlowIndex,
}

impl MuxSender {
    /// Multiplex the given senders (at most `u16::MAX - 1`).
    pub fn new(senders: Vec<TcpSender>) -> Self {
        assert!(!senders.is_empty(), "a mux needs at least one sender");
        assert!(senders.len() < u16::MAX as usize, "too many sub-senders");
        let mut by_flow = FlowIndex::new();
        for (i, sub) in senders.iter().enumerate() {
            let flow = sub.flow().index() as u32;
            let clash = by_flow.set(flow, i as u32);
            assert!(clash.is_none(), "duplicate flow id f{flow} in one mux");
        }
        MuxSender {
            subs: senders,
            by_flow,
        }
    }

    /// Access a sub-sender by construction index. Panics on an
    /// out-of-range index.
    pub fn sub(&self, i: usize) -> &TcpSender {
        &self.subs[i]
    }

    /// Attach an observability recorder to every sub-sender.
    pub fn set_recorder(&mut self, recorder: obs::SharedRecorder) {
        for sub in &mut self.subs {
            sub.set_recorder(recorder.clone());
        }
    }

    /// Number of multiplexed senders.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True if no sub-senders exist (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// True once every sub-flow has completed.
    pub fn all_complete(&self) -> bool {
        self.subs.iter().all(TcpSender::is_complete)
    }

    /// Dispatch one callback to the sub-sender at construction index
    /// `idx`, inside its timer-token namespace. An index past the end
    /// (a timer token from a namespace that is not ours) is ignored.
    fn with_namespace(
        &mut self,
        idx: usize,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut TcpSender, &mut Ctx<'_>),
    ) {
        let Some(sub) = self.subs.get_mut(idx) else {
            return;
        };
        ctx.set_token_namespace((idx + 1) as u16);
        f(sub, ctx);
        ctx.set_token_namespace(0);
    }

    fn dispatch_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Some(idx) = self.by_flow.get(pkt.flow.index() as u32) else {
            return; // not ours
        };
        self.with_namespace(idx as usize, ctx, |sub, ctx| sub.on_packet(pkt, ctx));
    }
}

impl Agent for MuxSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.subs.len() {
            self.with_namespace(i, ctx, |sub, ctx| sub.on_start(ctx));
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.dispatch_packet(pkt, ctx);
    }

    /// Batched dispatch: same per-packet routing as [`Self::on_packet`],
    /// in delivery order, with the agent-level setup paid once. Must stay
    /// bit-identical to N single dispatches (the engine's batching
    /// equivalence contract).
    fn on_packets(&mut self, pkts: &mut Vec<Packet>, ctx: &mut Ctx<'_>) {
        for pkt in pkts.drain(..) {
            self.dispatch_packet(pkt, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let Some(idx) = ((token >> TOKEN_BITS) as usize).checked_sub(1) else {
            return; // namespace 0: not a sub-sender token
        };
        self.with_namespace(idx, ctx, |sub, ctx| sub.on_timer(token & TOKEN_MASK, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedCwnd;
    use crate::receiver::{AckPolicy, TcpReceiver};
    use crate::sender::TcpSenderConfig;
    use netsim::engine::Network;
    use netsim::ids::{FlowId, NodeId};
    use netsim::link::LinkSpec;
    use netsim::time::{SimDuration, SimTime};
    use netsim::units::Rate;

    /// Two hosts joined by a 10 Gb/s link each way.
    fn two_hosts(seed: u64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(seed);
        let a = net.add_host();
        let b = net.add_host();
        let link = |buffer| {
            LinkSpec::droptail(Rate::from_gbps(10.0), SimDuration::from_micros(25), buffer)
        };
        let ab = net.add_link(a, b, link(1_000_000));
        let ba = net.add_link(b, a, link(4_000_000));
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
        (net, a, b)
    }

    fn mux_net(flows: usize, bytes: u64) -> (Network, NodeId, NodeId) {
        let (mut net, a, b) = two_hosts(3);
        let subs: Vec<TcpSender> = (0..flows)
            .map(|i| {
                TcpSender::new(
                    TcpSenderConfig::bulk(FlowId::from_raw(i as u32), b, 9000, bytes),
                    Box::new(FixedCwnd::new(200_000)),
                )
            })
            .collect();
        net.attach_agent(a, Box::new(MuxSender::new(subs)));
        net.attach_agent(b, Box::new(TcpReceiver::new(AckPolicy::delayed_default())));
        (net, a, b)
    }

    #[test]
    fn three_multiplexed_flows_all_complete() {
        let (mut net, a, b) = mux_net(3, 5_000_000);
        net.run_until(SimTime::from_secs(10));
        let mux = net.agent::<MuxSender>(a).unwrap();
        assert_eq!(mux.len(), 3);
        assert!(mux.all_complete(), "all sub-flows must finish");
        for i in 0..3 {
            assert_eq!(mux.sub(i).stats().bytes_acked, 5_000_000);
        }
        let recv = net.agent::<TcpReceiver>(b).unwrap();
        for i in 0..3 {
            assert_eq!(recv.bytes_received(FlowId::from_raw(i as u32)), 5_000_000);
        }
    }

    #[test]
    fn timers_route_to_the_right_subflow() {
        // Give the flows very different sizes so their timer lifetimes
        // differ; cross-delivery of a timer would stall or panic.
        let (mut net, a, _) = mux_net(2, 1_000_000);
        net.run_until(SimTime::from_secs(10));
        let mux = net.agent::<MuxSender>(a).unwrap();
        assert!(mux.all_complete());
        // Deterministic FCTs and distinct flows stayed independent.
        assert!(mux.sub(0).fct().is_some());
        assert!(mux.sub(1).fct().is_some());
    }

    #[test]
    fn mux_aggregate_matches_link_rate() {
        let (mut net, a, _) = mux_net(4, 25_000_000);
        net.run_until(SimTime::from_secs(10));
        let mux = net.agent::<MuxSender>(a).unwrap();
        assert!(mux.all_complete());
        let last = (0..4)
            .map(|i| mux.sub(i).stats().completed_at.unwrap())
            .max()
            .unwrap();
        // 100 MB over a 10 Gb/s link: >= 80 ms, <= 150 ms.
        let secs = last.as_secs_f64();
        assert!((0.08..0.15).contains(&secs), "aggregate window {secs}");
    }

    #[test]
    fn flow_id_dispatch_is_sparse_safe() {
        // Non-contiguous flow ids (the population generator numbers flows
        // globally, so one host's mux sees ids like 17, 3017, 6017).
        let (mut net, a, b) = two_hosts(4);
        let ids = [17u32, 3017, 6017];
        let subs: Vec<TcpSender> = ids
            .iter()
            .map(|&i| {
                TcpSender::new(
                    TcpSenderConfig::bulk(FlowId::from_raw(i), b, 9000, 500_000),
                    Box::new(FixedCwnd::new(100_000)),
                )
            })
            .collect();
        net.attach_agent(a, Box::new(MuxSender::new(subs)));
        net.attach_agent(b, Box::new(TcpReceiver::new(AckPolicy::delayed_default())));
        net.run_until(SimTime::from_secs(5));
        let mux = net.agent::<MuxSender>(a).unwrap();
        assert!(mux.all_complete());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(mux.sub(i).flow(), FlowId::from_raw(id));
            assert_eq!(mux.sub(i).stats().bytes_acked, 500_000);
        }
    }

    #[test]
    fn each_ack_and_each_timer_reaches_its_own_sub() {
        // Ids whose magnitude must size nothing, one size per flow, and a
        // rate limit on each so every send after the first is released by
        // that sub's own pace timer. An ack delivered to the wrong sub
        // would move the wrong `bytes_acked`; a pace timer fired in the
        // wrong namespace would be a stale token there and leave its
        // owner silent until a loss probe or an RTO.
        let (mut net, a, b) = two_hosts(5);
        let flows = [
            (7u32, 300_000u64),
            (10_999, 500_000),
            (4_000_000_000, 700_000),
        ];
        let subs: Vec<TcpSender> = flows
            .iter()
            .map(|&(id, bytes)| {
                TcpSender::new(
                    TcpSenderConfig::bulk(FlowId::from_raw(id), b, 9000, bytes)
                        .with_rate_limit(Rate::from_gbps(1.0)),
                    Box::new(FixedCwnd::new(100_000)),
                )
            })
            .collect();
        net.attach_agent(a, Box::new(MuxSender::new(subs)));
        // Immediate acks keep each FCT at its paced ideal: a 500 us
        // delayed-ack flush is a fifth of the shortest transfer.
        net.attach_agent(b, Box::new(TcpReceiver::new(AckPolicy::Immediate)));
        net.run_until(SimTime::from_secs(5));
        let mux = net.agent::<MuxSender>(a).unwrap();
        let recv = net.agent::<TcpReceiver>(b).unwrap();
        for (i, &(id, bytes)) in flows.iter().enumerate() {
            let sub = mux.sub(i);
            assert_eq!(sub.flow(), FlowId::from_raw(id));
            assert!(sub.is_complete(), "f{id}: {:?}", sub.stats());
            let stats = sub.stats();
            assert_eq!(stats.bytes_acked, bytes, "f{id}");
            assert_eq!((stats.rto_count, stats.tlp_probes), (0, 0), "f{id}");
            // Paced at 1 Gb/s from start to finish, not in one burst.
            let fct = sub.fct().unwrap().as_secs_f64();
            let ideal = bytes as f64 * 8.0 / 1e9;
            assert!((ideal * 0.9..ideal * 1.2).contains(&fct), "f{id}: {fct}");
            assert_eq!(recv.bytes_received(FlowId::from_raw(id)), bytes);
        }
    }
}
