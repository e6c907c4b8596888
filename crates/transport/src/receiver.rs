//! The receive side: cumulative + selective acknowledgement generation,
//! delayed acks, and DCTCP's CE-aware ack state machine.
//!
//! One [`TcpReceiver`] agent serves every flow addressed to its host
//! (keyed by [`FlowId`]), like a kernel serving multiple sockets.

use crate::stats::ReceiverFlowStats;
use netsim::agent::{Agent, Ctx, TOKEN_BITS};
use netsim::flowtab::FlowIndex;
use netsim::ids::{FlowId, NodeId};
use netsim::packet::{AckInfo, Packet, PacketKind, SackBlocks};
use netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// When acknowledgements are generated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AckPolicy {
    /// RFC 1122 delayed acks: ack every `every`-th in-order segment, or
    /// after `timeout`, and immediately on out-of-order data.
    Delayed {
        /// Segments per ack.
        every: u32,
        /// Delayed-ack flush timeout.
        timeout: SimDuration,
    },
    /// Ack every data segment (quickack).
    Immediate,
    /// DCTCP's state machine (Alizadeh et al. §3.2): delayed acks, but an
    /// immediate ack whenever the observed CE codepoint *changes*, so the
    /// sender sees an exact marked-byte count.
    DctcpCeAware {
        /// Segments per ack while the CE state is steady.
        every: u32,
        /// Delayed-ack flush timeout.
        timeout: SimDuration,
    },
}

impl AckPolicy {
    /// The kernel-default policy: ack every second segment, 500 µs flush.
    pub fn delayed_default() -> Self {
        AckPolicy::Delayed {
            every: 2,
            timeout: SimDuration::from_micros(500),
        }
    }

    /// DCTCP's policy with default parameters.
    pub fn dctcp_default() -> Self {
        AckPolicy::DctcpCeAware {
            every: 2,
            timeout: SimDuration::from_micros(500),
        }
    }
}

/// Per-flow receive state.
#[derive(Debug)]
struct RxFlow {
    id: FlowId,
    peer: NodeId,
    rcv_nxt: u64,
    /// Out-of-order byte ranges, keyed by start.
    ooo: BTreeMap<u64, u64>,
    /// Most recently arrived out-of-order range (first SACK block).
    last_block: Option<(u64, u64)>,
    /// In-order segments not yet acked.
    pending_segs: u32,
    /// Echo timestamp + retx flag of the most recent data segment.
    echo: (SimTime, bool),
    /// In-band telemetry of the most recent data segment.
    int_echo: netsim::packet::IntRecord,
    /// Cumulative CE-marked payload bytes.
    ce_bytes: u64,
    /// CE codepoint of the previous segment (DCTCP state machine).
    last_ce: bool,
    /// Whether CE was observed since the last ack (classic ECE).
    ece_pending: bool,
    /// Delayed-ack timer generation (stale-timer detection).
    timer_gen: u64,
    delack_armed: bool,
    stats: ReceiverFlowStats,
}

impl RxFlow {
    fn new(id: FlowId, peer: NodeId) -> Self {
        RxFlow {
            id,
            peer,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            last_block: None,
            pending_segs: 0,
            echo: (SimTime::ZERO, false),
            int_echo: netsim::packet::IntRecord::default(),
            ce_bytes: 0,
            last_ce: false,
            ece_pending: false,
            timer_gen: 0,
            delack_armed: false,
            stats: ReceiverFlowStats::default(),
        }
    }

    /// Insert an out-of-order range, merging neighbours.
    fn insert_ooo(&mut self, mut start: u64, mut end: u64) {
        // Merge with any overlapping or adjacent predecessor.
        if let Some((&ps, &pe)) = self.ooo.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.ooo.remove(&ps);
            }
        }
        // Merge successors.
        while let Some((&ns, &ne)) = self.ooo.range(start..).next() {
            if ns > end {
                break;
            }
            end = end.max(ne);
            self.ooo.remove(&ns);
        }
        self.ooo.insert(start, end);
    }

    /// Build the SACK option: the block containing the latest arrival
    /// first (RFC 2018 §4), then the lowest remaining blocks.
    fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::EMPTY;
        let mut first: Option<(u64, u64)> = None;
        if let Some((ls, _)) = self.last_block {
            if let Some((&s, &e)) = self.ooo.range(..=ls).next_back() {
                blocks.push(s, e);
                first = Some((s, e));
            }
        }
        for (&s, &e) in self.ooo.iter() {
            if blocks.len() >= netsim::packet::MAX_SACK_BLOCKS {
                break;
            }
            if first == Some((s, e)) {
                continue;
            }
            blocks.push(s, e);
        }
        blocks
    }
}

/// The receiver agent.
///
/// Per-flow state lives in a `Vec`, pushed when a flow's first segment
/// arrives and never removed, reached through a [`FlowIndex`] from raw
/// flow id to position: at population scale one receiver serves hundreds
/// of flows out of a global id space of thousands, and the
/// per-data-segment lookup is one hashed probe and one indexed load
/// instead of a tree walk. Point lookups only — nothing ever iterates
/// the flows — so storage order is unobservable.
pub struct TcpReceiver {
    policy: AckPolicy,
    /// In first-seen order.
    flows: Vec<RxFlow>,
    /// Flow raw id -> index into `flows`.
    by_flow: FlowIndex,
}

/// A delayed-ack timer token is the flow's position in `flows` in its low
/// `POS_BITS` bits and the flow's timer generation, modulo `2^GEN_BITS`,
/// above them: firing is one indexed load, and a flow id of any size
/// finds its flow. A stale timer could pass for a live one only after
/// `2^24` acks within one flush timeout.
const POS_BITS: u32 = 24;
const POS_MASK: u64 = (1 << POS_BITS) - 1;
const GEN_BITS: u32 = TOKEN_BITS - POS_BITS;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

impl TcpReceiver {
    /// A receiver with the given ack policy (shared by all flows).
    pub fn new(policy: AckPolicy) -> Self {
        TcpReceiver {
            policy,
            flows: Vec::new(),
            by_flow: FlowIndex::new(),
        }
    }

    fn flow(&self, flow: FlowId) -> Option<&RxFlow> {
        let i = self.by_flow.get(flow.index() as u32)?;
        self.flows.get(i as usize)
    }

    /// In-order bytes received for a flow.
    pub fn bytes_received(&self, flow: FlowId) -> u64 {
        self.flow(flow).map(|f| f.rcv_nxt).unwrap_or(0)
    }

    /// Per-flow receive statistics.
    pub fn flow_stats(&self, flow: FlowId) -> ReceiverFlowStats {
        self.flow(flow).map(|f| f.stats).unwrap_or_default()
    }

    fn send_ack(flow: &mut RxFlow, ctx: &mut Ctx<'_>) {
        let info = AckInfo {
            cum_ack: flow.rcv_nxt,
            sacks: flow.sack_blocks(),
            ece: flow.ece_pending,
            ce_bytes: flow.ce_bytes,
            ts_echo: flow.echo.0,
            echo_is_retx: flow.echo.1,
            segs_acked: flow.pending_segs.max(1),
        };
        let mut ack = Packet::ack(flow.id, ctx.node(), flow.peer, info);
        // The INT echo rides in the ack's own record; no hop stamps an ack.
        ack.int = flow.int_echo;
        ctx.send(ack);
        flow.pending_segs = 0;
        flow.ece_pending = false;
        flow.delack_armed = false;
        flow.timer_gen += 1; // invalidate any armed delack timer
        flow.stats.acks_sent += 1;
    }

    fn on_data(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let raw = pkt.flow.index() as u32;
        let i = match self.by_flow.get(raw) {
            Some(i) => i,
            None => {
                let i = self.flows.len() as u32;
                assert!(
                    (i as u64) <= POS_MASK,
                    "a receiver serves at most 2^{POS_BITS} flows"
                );
                self.flows.push(RxFlow::new(pkt.flow, pkt.src));
                self.by_flow.set(raw, i);
                i
            }
        };
        let Some(flow) = self.flows.get_mut(i as usize) else {
            return; // index and flows disagree: treat as unknown flow
        };
        flow.stats.data_segs += 1;
        flow.echo = (pkt.sent_at, pkt.is_retx);
        flow.int_echo = pkt.int;

        let ce = pkt.ecn.is_ce();
        if ce {
            flow.ce_bytes += pkt.payload_bytes as u64;
            flow.ece_pending = true;
            flow.stats.ce_segs += 1;
        }
        // DCTCP: a CE-state flip forces an immediate ack so the sender's
        // marked-byte accounting stays exact.
        let ce_flip = matches!(self.policy, AckPolicy::DctcpCeAware { .. }) && ce != flow.last_ce;
        flow.last_ce = ce;

        let seq = pkt.seq;
        let end = pkt.seq_end();
        let mut out_of_order = false;

        if end <= flow.rcv_nxt {
            // Entirely old data (a spurious retransmission): dup-ack it.
            flow.stats.dup_segs += 1;
            Self::send_ack(flow, ctx);
            return;
        } else if seq <= flow.rcv_nxt {
            // In-order (possibly partially old): advance.
            flow.rcv_nxt = end;
            // Drain any now-contiguous out-of-order ranges.
            while let Some((&s, &e)) = flow.ooo.iter().next() {
                if s > flow.rcv_nxt {
                    break;
                }
                flow.rcv_nxt = flow.rcv_nxt.max(e);
                flow.ooo.remove(&s);
            }
            if flow.last_block.is_some_and(|(ls, _)| ls < flow.rcv_nxt) {
                flow.last_block = None;
            }
            flow.pending_segs += 1;
        } else {
            // A gap: buffer and SACK immediately.
            flow.insert_ooo(seq, end);
            flow.last_block = Some((seq, end));
            flow.stats.ooo_segs += 1;
            out_of_order = true;
            flow.pending_segs += 1;
        }

        let immediate = out_of_order
            || ce_flip
            || match self.policy {
                AckPolicy::Immediate => true,
                AckPolicy::Delayed { every, .. } | AckPolicy::DctcpCeAware { every, .. } => {
                    flow.pending_segs >= every
                }
            };

        if immediate {
            Self::send_ack(flow, ctx);
        } else if !flow.delack_armed {
            let timeout = match self.policy {
                AckPolicy::Immediate => SimDuration::ZERO,
                AckPolicy::Delayed { timeout, .. } | AckPolicy::DctcpCeAware { timeout, .. } => {
                    timeout
                }
            };
            flow.delack_armed = true;
            flow.timer_gen += 1;
            ctx.set_timer_after(timeout, i as u64 | (flow.timer_gen & GEN_MASK) << POS_BITS);
        }
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Data => self.on_data(pkt, ctx),
            // Receivers don't expect acks; ignore.
            PacketKind::Ack(_) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let Some(flow) = self.flows.get_mut((token & POS_MASK) as usize) else {
            return;
        };
        if flow.timer_gen & GEN_MASK != token >> POS_BITS || !flow.delack_armed {
            return; // stale timer
        }
        if flow.pending_segs > 0 {
            Self::send_ack(flow, ctx);
        } else {
            flow.delack_armed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::Network;
    use netsim::link::LinkSpec;
    use netsim::packet::EcnCodepoint;
    use netsim::units::Rate;

    /// Harness: a data source host wired to a receiver host; the source
    /// agent records acks it gets back.
    struct Source {
        script: Vec<(SimDuration, Packet)>,
        acks: Vec<(SimTime, AckInfo)>,
    }

    impl Agent for Source {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (delay, _)) in self.script.iter().enumerate() {
                ctx.set_timer_after(*delay, i as u64);
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let PacketKind::Ack(info) = pkt.kind {
                self.acks.push((ctx.now(), info));
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            let pkt = self.script[token as usize].1;
            ctx.send(pkt);
        }
    }

    const FLOW: FlowId = FlowId::from_raw(1);

    fn seg(src: NodeId, dst: NodeId, seq: u64, len: u32, ecn: EcnCodepoint) -> Packet {
        Packet::data(FLOW, src, dst, seq, len, ecn)
    }

    fn run_script(
        policy: AckPolicy,
        script: impl Fn(NodeId, NodeId) -> Vec<(SimDuration, Packet)>,
    ) -> (Vec<AckInfo>, ReceiverFlowStats, u64) {
        let (acks, stats, received) = run_flow_script(FLOW, policy, script);
        (acks.into_iter().map(|(_, a)| a).collect(), stats, received)
    }

    /// [`run_script`] for any flow id, with each ack's arrival time.
    fn run_flow_script(
        flow: FlowId,
        policy: AckPolicy,
        script: impl Fn(NodeId, NodeId) -> Vec<(SimDuration, Packet)>,
    ) -> (Vec<(SimTime, AckInfo)>, ReceiverFlowStats, u64) {
        let mut net = Network::new(9);
        let src = net.add_host();
        let dst = net.add_host();
        let fwd = net.add_link(
            src,
            dst,
            LinkSpec::droptail(
                Rate::from_gbps(100.0),
                SimDuration::from_nanos(10),
                10_000_000,
            ),
        );
        let back = net.add_link(
            dst,
            src,
            LinkSpec::droptail(
                Rate::from_gbps(100.0),
                SimDuration::from_nanos(10),
                10_000_000,
            ),
        );
        net.add_route(src, dst, fwd);
        net.add_route(dst, src, back);
        net.attach_agent(
            src,
            Box::new(Source {
                script: script(src, dst),
                acks: Vec::new(),
            }),
        );
        net.attach_agent(dst, Box::new(TcpReceiver::new(policy)));
        net.run();
        let stats = net.agent::<TcpReceiver>(dst).unwrap().flow_stats(flow);
        let received = net.agent::<TcpReceiver>(dst).unwrap().bytes_received(flow);
        let acks = net.agent::<Source>(src).unwrap().acks.clone();
        (acks, stats, received)
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let (acks, stats, received) = run_script(AckPolicy::delayed_default(), |s, d| {
            (0..4u64)
                .map(|i| {
                    (
                        SimDuration::from_micros(i * 10),
                        seg(s, d, i * 1000, 1000, EcnCodepoint::NotEct),
                    )
                })
                .collect()
        });
        assert_eq!(received, 4000);
        assert_eq!(stats.acks_sent, 2, "4 in-order segments -> 2 acks");
        assert_eq!(acks.last().unwrap().cum_ack, 4000);
        assert_eq!(acks.last().unwrap().segs_acked, 2);
    }

    #[test]
    fn lone_segment_is_flushed_by_delack_timer() {
        // 4 000 000 000 needs all 32 bits of a flow id: the flush timer
        // must find its flow whatever the id's width.
        for flow in [FLOW, FlowId::from_raw(4_000_000_000)] {
            let (acks, stats, received) =
                run_flow_script(flow, AckPolicy::delayed_default(), |s, d| {
                    vec![(
                        SimDuration::ZERO,
                        Packet::data(flow, s, d, 0, 1000, EcnCodepoint::NotEct),
                    )]
                });
            assert_eq!(received, 1000, "{flow:?}");
            assert_eq!(acks.len(), 1, "{flow:?}: delack timeout must flush the ack");
            assert_eq!(stats.acks_sent, 1, "{flow:?}");
            let (at, ack) = acks[0];
            assert_eq!(ack.cum_ack, 1000);
            // The segment lands ~0.1 us in and waits out the 500 us flush.
            assert!(
                (SimTime::from_micros(500)..SimTime::from_micros(501)).contains(&at),
                "{flow:?}: ack at {at}"
            );
        }
    }

    #[test]
    fn immediate_policy_acks_every_segment() {
        let (acks, ..) = run_script(AckPolicy::Immediate, |s, d| {
            (0..5u64)
                .map(|i| {
                    (
                        SimDuration::from_micros(i * 10),
                        seg(s, d, i * 1000, 1000, EcnCodepoint::NotEct),
                    )
                })
                .collect()
        });
        assert_eq!(acks.len(), 5);
    }

    #[test]
    fn gap_triggers_immediate_dupack_with_sack() {
        let (acks, stats, received) = run_script(AckPolicy::delayed_default(), |s, d| {
            vec![
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::NotEct)),
                // 1000..2000 lost
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 2000, 1000, EcnCodepoint::NotEct),
                ),
                (
                    SimDuration::from_micros(20),
                    seg(s, d, 3000, 1000, EcnCodepoint::NotEct),
                ),
            ]
        });
        assert_eq!(received, 1000);
        assert_eq!(stats.ooo_segs, 2);
        // Each out-of-order arrival acks immediately.
        let with_sack: Vec<_> = acks.iter().filter(|a| !a.sacks.is_empty()).collect();
        assert!(with_sack.len() >= 2);
        let last = acks.last().unwrap();
        assert_eq!(last.cum_ack, 1000);
        let blocks: Vec<_> = last.sacks.iter().collect();
        assert_eq!(blocks[0], (2000, 4000), "merged SACK block");
    }

    #[test]
    fn retransmission_fills_gap_and_advances() {
        let (acks, _, received) = run_script(AckPolicy::delayed_default(), |s, d| {
            let mut retx = seg(s, d, 1000, 1000, EcnCodepoint::NotEct);
            retx.is_retx = true;
            vec![
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::NotEct)),
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 2000, 1000, EcnCodepoint::NotEct),
                ),
                (SimDuration::from_micros(30), retx),
            ]
        });
        assert_eq!(received, 3000);
        let last = acks.last().unwrap();
        assert_eq!(last.cum_ack, 3000);
        assert!(last.sacks.is_empty(), "no ooo data left");
        assert!(last.echo_is_retx, "echo must flag the retransmission");
    }

    #[test]
    fn old_duplicate_is_dupacked() {
        let (acks, stats, _) = run_script(AckPolicy::delayed_default(), |s, d| {
            vec![
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::NotEct)),
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 1000, 1000, EcnCodepoint::NotEct),
                ),
                // Duplicate of the first segment.
                (
                    SimDuration::from_micros(20),
                    seg(s, d, 0, 1000, EcnCodepoint::NotEct),
                ),
            ]
        });
        assert_eq!(stats.dup_segs, 1);
        assert_eq!(acks.last().unwrap().cum_ack, 2000);
    }

    #[test]
    fn ce_bytes_accumulate() {
        let (acks, stats, _) = run_script(AckPolicy::dctcp_default(), |s, d| {
            vec![
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::Ce)),
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 1000, 1000, EcnCodepoint::Ce),
                ),
                (
                    SimDuration::from_micros(20),
                    seg(s, d, 2000, 1000, EcnCodepoint::Ect0),
                ),
            ]
        });
        assert_eq!(stats.ce_segs, 2);
        assert_eq!(acks.last().unwrap().ce_bytes, 2000);
    }

    #[test]
    fn dctcp_acks_immediately_on_ce_flip() {
        let (acks, ..) = run_script(AckPolicy::dctcp_default(), |s, d| {
            vec![
                // Not CE -> CE flip must force an ack on the second
                // segment even though `every` = 2 hasn't been reached by
                // steady state.
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::Ect0)),
                (
                    SimDuration::from_micros(1),
                    seg(s, d, 1000, 1000, EcnCodepoint::Ce),
                ),
                (
                    SimDuration::from_micros(2),
                    seg(s, d, 2000, 1000, EcnCodepoint::Ce),
                ),
                (
                    SimDuration::from_micros(3),
                    seg(s, d, 3000, 1000, EcnCodepoint::Ect0),
                ),
            ]
        });
        // Flip acks at segment 2 (NotCE->CE boundary also coalesces the
        // pending first segment) and at segment 4 (CE->NotCE), plus the
        // delack for segment 3... exact count: seg2 flip-ack, seg3 starts
        // a new pending run, seg4 flips and acks. >= 2 immediate acks.
        assert!(acks.len() >= 2, "got {} acks", acks.len());
        assert_eq!(acks.last().unwrap().cum_ack, 4000);
    }

    #[test]
    fn ece_flag_set_once_until_acked() {
        let (acks, ..) = run_script(AckPolicy::delayed_default(), |s, d| {
            vec![
                (SimDuration::ZERO, seg(s, d, 0, 1000, EcnCodepoint::Ce)),
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 1000, 1000, EcnCodepoint::Ect0),
                ),
                (
                    SimDuration::from_micros(600),
                    seg(s, d, 2000, 1000, EcnCodepoint::Ect0),
                ),
                (
                    SimDuration::from_micros(610),
                    seg(s, d, 3000, 1000, EcnCodepoint::Ect0),
                ),
            ]
        });
        assert!(acks[0].ece, "first ack carries ECE");
        assert!(!acks.last().unwrap().ece, "ECE clears after being echoed");
    }

    #[test]
    fn sack_block_merging_across_many_gaps() {
        let (acks, ..) = run_script(AckPolicy::delayed_default(), |s, d| {
            // Arrivals: 2000, 4000, 3000 -> should merge into 2000..5000.
            vec![
                (
                    SimDuration::ZERO,
                    seg(s, d, 2000, 1000, EcnCodepoint::NotEct),
                ),
                (
                    SimDuration::from_micros(10),
                    seg(s, d, 4000, 1000, EcnCodepoint::NotEct),
                ),
                (
                    SimDuration::from_micros(20),
                    seg(s, d, 3000, 1000, EcnCodepoint::NotEct),
                ),
            ]
        });
        let last = acks.last().unwrap();
        let blocks: Vec<_> = last.sacks.iter().collect();
        assert_eq!(blocks, vec![(2000, 5000)]);
        assert_eq!(last.cum_ack, 0);
    }
}
