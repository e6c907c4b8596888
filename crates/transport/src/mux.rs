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
//! sits on the per-ack hot path, so the sub-senders live in a
//! [`FlowTable`] and packet dispatch goes through a [`FlowIndex`] from
//! flow id to table key: O(1) per ack where the old `Vec` scan was
//! O(flows), and sized by the flows this host serves, not by the
//! largest flow id in the population. Batched deliveries
//! ([`Agent::on_packets`]) walk the index once per packet but pay the
//! agent-dispatch setup only once.

use crate::sender::TcpSender;
use netsim::agent::{Agent, Ctx, TOKEN_BITS, TOKEN_MASK};
use netsim::flowtab::{FlowIndex, FlowKey, FlowTable};
use netsim::packet::Packet;

/// Several TCP senders sharing one host.
pub struct MuxSender {
    subs: FlowTable<TcpSender>,
    /// Construction-order handles, for positional access (`sub(i)`) and
    /// timer-namespace dispatch (namespace = index + 1).
    order: Vec<FlowKey>,
    /// Flow raw id -> table key: the O(1) per-packet dispatch path.
    by_flow: FlowIndex,
}

impl MuxSender {
    /// Multiplex the given senders (at most `u16::MAX - 1`).
    pub fn new(senders: Vec<TcpSender>) -> Self {
        assert!(!senders.is_empty(), "a mux needs at least one sender");
        assert!(senders.len() < u16::MAX as usize, "too many sub-senders");
        let mut subs = FlowTable::with_capacity(senders.len());
        let mut order = Vec::with_capacity(senders.len());
        let mut by_flow = FlowIndex::new();
        for sub in senders {
            let flow = sub.flow().index() as u32;
            let k = subs.insert(sub);
            let clash = by_flow.set(flow, k);
            assert!(clash.is_none(), "duplicate flow id f{flow} in one mux");
            order.push(k);
        }
        MuxSender {
            subs,
            order,
            by_flow,
        }
    }

    /// Access a sub-sender by construction index. Panics on an
    /// out-of-range index, exactly as the old `Vec` storage did.
    pub fn sub(&self, i: usize) -> &TcpSender {
        self.subs
            .get(self.order[i])
            // simlint::allow(panic-hygiene, reason = "construction-order keys are never removed, so this is reachable only via an out-of-range caller index — the same contract as Vec indexing")
            .expect("mux never removes sub-senders")
    }

    /// Attach an observability recorder to every sub-sender.
    pub fn set_recorder(&mut self, recorder: obs::SharedRecorder) {
        for (_, sub) in self.subs.iter_mut() {
            sub.set_recorder(recorder.clone());
        }
    }

    /// Number of multiplexed senders.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no sub-senders exist (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True once every sub-flow has completed.
    pub fn all_complete(&self) -> bool {
        self.subs.iter().all(|(_, s)| s.is_complete())
    }

    /// Dispatch one callback to the sub-sender at construction index
    /// `idx`, inside its timer-token namespace.
    fn with_namespace<R>(
        &mut self,
        idx: usize,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut TcpSender, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let sub = self.subs.get_mut(self.order[idx])?;
        ctx.set_token_namespace((idx + 1) as u16);
        let r = f(sub, ctx);
        ctx.set_token_namespace(0);
        Some(r)
    }

    fn dispatch_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let Some(key) = self.by_flow.get(pkt.flow.index() as u32) else {
            return; // not ours
        };
        // Construction order is insertion order, and the mux never
        // removes, so the slot index IS the construction index — the
        // namespace tag comes straight off the key.
        let idx = key.slot();
        debug_assert_eq!(self.order[idx], key);
        let Some(sub) = self.subs.get_mut(key) else {
            return;
        };
        ctx.set_token_namespace((idx + 1) as u16);
        sub.on_packet(pkt, ctx);
        ctx.set_token_namespace(0);
    }
}

impl Agent for MuxSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.order.len() {
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
        let ns = (token >> TOKEN_BITS) as usize;
        if ns == 0 || ns > self.order.len() {
            return; // not a sub-sender token
        }
        self.with_namespace(ns - 1, ctx, |sub, ctx| {
            sub.on_timer(token & TOKEN_MASK, ctx)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedCwnd;
    use crate::receiver::{AckPolicy, TcpReceiver};
    use crate::sender::TcpSenderConfig;
    use netsim::engine::Network;
    use netsim::ids::FlowId;
    use netsim::link::LinkSpec;
    use netsim::time::{SimDuration, SimTime};
    use netsim::units::Rate;

    fn mux_net(flows: usize, bytes: u64) -> (Network, netsim::ids::NodeId, netsim::ids::NodeId) {
        let mut net = Network::new(3);
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(25),
                1_000_000,
            ),
        );
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(25),
                4_000_000,
            ),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
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
        let mut net = Network::new(4);
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(25),
                1_000_000,
            ),
        );
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(25),
                4_000_000,
            ),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
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
}
