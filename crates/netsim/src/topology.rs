//! Canonical topologies.
//!
//! [`Dumbbell`] builds the paper's testbed: sender host(s) connected to a
//! switch over bonded links (the paper's sender uses 2×10 Gb/s
//! round-robin bonding), and a bottleneck from the switch to the
//! receiver host. All experiments in the paper run on this shape, and a
//! population's rack cell is the same star with a two-wide bottleneck.
//!
//! [`ParkingLot`] is the other classic: a chain of bottlenecks where one
//! long "through" flow competes with a short local flow on every hop —
//! the standard multi-bottleneck fairness stressor. Examples can of
//! course wire arbitrary topologies by hand.

use crate::engine::Network;
use crate::ids::{LinkId, NodeId};
use crate::link::LinkSpec;
use crate::queue::{DropTailQueue, EcnThresholdQueue, Qdisc};
use crate::time::SimDuration;
use crate::units::Rate;

/// Link rate of the paper's testbed, in Gb/s: the dumbbell's and parking
/// lot's default.
pub const LINK_GBPS: f64 = 10.0;

/// One-way propagation delay per hop (~100 µs base RTT across the
/// dumbbell's four hops: a few switch hops' worth of fiber and forwarding).
pub const HOP_DELAY: SimDuration = SimDuration::from_micros(25);

/// The testbed's bottleneck buffer, in bytes: the dumbbell's and parking
/// lot's default drop-tail capacity.
pub const BUFFER_BYTES: u64 = 1_000_000;

/// Buffer on every non-bottleneck link (host access links and the ack
/// path), in bytes: generous, so only the bottleneck queues.
pub const EDGE_BUFFER_BYTES: u64 = 4_000_000;

/// Bonded sender -> switch links per dumbbell sender: the paper's sender
/// uses 2×10 Gb/s round-robin bonding, so its NIC is never the bottleneck.
pub const SENDER_BOND_LINKS: usize = 2;

/// Which discipline the bottleneck queue runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BottleneckQueue {
    /// Plain tail-drop with the given capacity in bytes.
    DropTail {
        /// Buffer capacity in bytes.
        capacity_bytes: u64,
    },
    /// DCTCP-style step marking: tail-drop capacity plus a CE threshold.
    EcnThreshold {
        /// Buffer capacity in bytes.
        capacity_bytes: u64,
        /// Marking threshold K in bytes.
        mark_bytes: u64,
    },
}

impl BottleneckQueue {
    fn build(self) -> Box<dyn Qdisc> {
        match self {
            BottleneckQueue::DropTail { capacity_bytes } => {
                Box::new(DropTailQueue::new(capacity_bytes))
            }
            BottleneckQueue::EcnThreshold {
                capacity_bytes,
                mark_bytes,
            } => Box::new(EcnThresholdQueue::new(capacity_bytes, mark_bytes)),
        }
    }
}

/// Parameters of the dumbbell testbed. Every link serializes at its
/// rate with no per-packet gap: the host packet-rate ceiling of the
/// paper's §4.4 is modelled at the sender (`TcpSenderConfig::min_pkt_gap`
/// in `transport`), not on the links a topology builds. Every edge link
/// runs at the bottleneck rate with [`EDGE_BUFFER_BYTES`] of buffer, and
/// each sender has [`SENDER_BOND_LINKS`] bonded uplinks.
#[derive(Clone, Debug)]
pub struct DumbbellConfig {
    /// Bottleneck (switch -> receiver) rate, and the rate of every edge
    /// link. The paper's is 10 Gb/s.
    pub bottleneck_rate: Rate,
    /// Width of the switch <-> receiver path: that many bottleneck
    /// members, each at `bottleneck_rate / bottleneck_links` with its own
    /// `bottleneck_queue`, as many receiver -> switch ack links, and as
    /// many switch -> sender downlinks, all sprayed round-robin. 1 is the
    /// paper's testbed; a rack cell uses [`SENDER_BOND_LINKS`], so
    /// equal-size frames sprayed onto an idle bond arrive at the far host
    /// in the same nanosecond, which feeds the engine's batched
    /// same-timestamp dispatch.
    pub bottleneck_links: usize,
    /// One-way propagation delay per hop (sender->switch and
    /// switch->receiver each get this).
    pub hop_delay: SimDuration,
    /// Bottleneck queue discipline.
    pub bottleneck_queue: BottleneckQueue,
    /// Number of sender hosts (each gets its own edge link set).
    pub senders: usize,
}

impl Default for DumbbellConfig {
    /// The paper's testbed: one [`LINK_GBPS`] bottleneck, [`HOP_DELAY`]
    /// per hop and a [`BUFFER_BYTES`] drop-tail, one sender.
    fn default() -> Self {
        DumbbellConfig {
            bottleneck_rate: Rate::from_gbps(LINK_GBPS),
            bottleneck_links: 1,
            hop_delay: HOP_DELAY,
            bottleneck_queue: BottleneckQueue::DropTail {
                capacity_bytes: BUFFER_BYTES,
            },
            senders: 1,
        }
    }
}

/// A built dumbbell: node and link handles for experiments to poke at.
#[derive(Debug)]
pub struct Dumbbell {
    /// Sender host ids, one per configured sender.
    pub senders: Vec<NodeId>,
    /// The switch.
    pub switch: NodeId,
    /// The receiver host.
    pub receiver: NodeId,
    /// The bottleneck link (switch -> receiver); its first member when
    /// the bottleneck is wider than one link.
    pub bottleneck: LinkId,
    /// Per-sender uplink ids (bonded groups flattened).
    pub uplinks: Vec<Vec<LinkId>>,
}

impl Dumbbell {
    /// Build the dumbbell inside `net` according to `cfg`.
    pub fn build(net: &mut Network, cfg: &DumbbellConfig) -> Dumbbell {
        assert!(cfg.senders >= 1, "need at least one sender");
        assert!(
            cfg.bottleneck_links >= 1,
            "need at least one bottleneck link"
        );
        let width = cfg.bottleneck_links;
        let edge = || LinkSpec::droptail(cfg.bottleneck_rate, cfg.hop_delay, EDGE_BUFFER_BYTES);

        let switch = net.add_switch();
        let receiver = net.add_host();

        // Bottleneck: switch -> receiver, its members splitting the rate.
        let member_rate = Rate::from_bps(cfg.bottleneck_rate.bps() / width as f64);
        let mut bottlenecks = Vec::with_capacity(width);
        for _ in 0..width {
            let l = net.add_link(
                switch,
                receiver,
                LinkSpec {
                    rate: member_rate,
                    prop_delay: cfg.hop_delay,
                    qdisc: cfg.bottleneck_queue.build(),
                    min_pkt_gap: SimDuration::ZERO,
                },
            );
            net.add_route(switch, receiver, l);
            bottlenecks.push(l);
        }

        // Reverse path: receiver -> switch (acks), generously buffered and
        // as wide as the bottleneck, so ack pairs emitted in the same
        // nanosecond keep their tie through the switch.
        let mut rx_ups = Vec::with_capacity(width);
        for _ in 0..width {
            let l = net.add_link(receiver, switch, edge());
            net.add_route(receiver, switch, l);
            rx_ups.push(l);
        }

        let mut senders = Vec::with_capacity(cfg.senders);
        let mut uplinks = Vec::with_capacity(cfg.senders);
        for _ in 0..cfg.senders {
            let host = net.add_host();
            let mut bond = Vec::with_capacity(SENDER_BOND_LINKS);
            for _ in 0..SENDER_BOND_LINKS {
                let l = net.add_link(host, switch, edge());
                net.add_route(host, receiver, l);
                bond.push(l);
            }
            for _ in 0..width {
                let down = net.add_link(switch, host, edge());
                net.add_route(switch, host, down);
            }
            // The receiver reaches this sender through the switch.
            for &l in &rx_ups {
                net.add_route(receiver, host, l);
            }
            senders.push(host);
            uplinks.push(bond);
        }

        Dumbbell {
            senders,
            switch,
            receiver,
            bottleneck: bottlenecks[0],
            uplinks,
        }
    }
}

/// Parameters of the parking-lot chain. Access and reverse links run at
/// the chain's rate with [`EDGE_BUFFER_BYTES`] of buffer.
#[derive(Clone, Debug)]
pub struct ParkingLotConfig {
    /// Number of bottleneck hops in the chain (and of local flows; ≥ 1).
    pub hops: usize,
    /// Rate of every link: chain (bottleneck), reverse and access.
    pub link_rate: Rate,
    /// One-way propagation delay per hop.
    pub hop_delay: SimDuration,
    /// Queue discipline on each forward chain link.
    pub bottleneck_queue: BottleneckQueue,
}

impl Default for ParkingLotConfig {
    fn default() -> Self {
        ParkingLotConfig {
            hops: 3,
            link_rate: Rate::from_gbps(LINK_GBPS),
            hop_delay: HOP_DELAY,
            bottleneck_queue: BottleneckQueue::DropTail {
                capacity_bytes: BUFFER_BYTES,
            },
        }
    }
}

/// A built parking lot: switches `S0..=Sh` in a chain, one through
/// sender/receiver pair spanning the whole chain, and one local
/// sender/receiver pair straddling each hop.
#[derive(Debug)]
pub struct ParkingLot {
    /// Chain switches, left to right (`hops + 1` of them).
    pub switches: Vec<NodeId>,
    /// Sender of the through flow (attached at the left end).
    pub through_sender: NodeId,
    /// Receiver of the through flow (attached at the right end).
    pub through_receiver: NodeId,
    /// Local sender `i`, attached at switch `i`.
    pub local_senders: Vec<NodeId>,
    /// Local receiver `i`, attached at switch `i + 1`.
    pub local_receivers: Vec<NodeId>,
    /// Forward chain links `S_i -> S_{i+1}` — the bottlenecks.
    pub bottlenecks: Vec<LinkId>,
}

impl ParkingLot {
    /// Build the parking lot inside `net` according to `cfg`.
    pub fn build(net: &mut Network, cfg: &ParkingLotConfig) -> ParkingLot {
        assert!(cfg.hops >= 1, "need at least one hop");
        let edge = || LinkSpec::droptail(cfg.link_rate, cfg.hop_delay, EDGE_BUFFER_BYTES);
        let n_sw = cfg.hops + 1;
        let switches: Vec<NodeId> = (0..n_sw).map(|_| net.add_switch()).collect();

        // Chain links: forward links carry data through the configured
        // bottleneck qdisc; reverse links carry acks, generously buffered.
        let mut forward = Vec::with_capacity(cfg.hops);
        let mut reverse = Vec::with_capacity(cfg.hops);
        for i in 0..cfg.hops {
            forward.push(net.add_link(
                switches[i],
                switches[i + 1],
                LinkSpec {
                    rate: cfg.link_rate,
                    prop_delay: cfg.hop_delay,
                    qdisc: cfg.bottleneck_queue.build(),
                    min_pkt_gap: SimDuration::ZERO,
                },
            ));
            reverse.push(net.add_link(switches[i + 1], switches[i], edge()));
        }

        // Hosts: (host id, index of the switch it hangs off).
        let mut hosts: Vec<(NodeId, usize)> = Vec::new();
        let attach = |net: &mut Network, sw_idx: usize, hosts: &mut Vec<(NodeId, usize)>| {
            let host = net.add_host();
            let up = net.add_link(host, switches[sw_idx], edge());
            let down = net.add_link(switches[sw_idx], host, edge());
            net.add_route(switches[sw_idx], host, down);
            hosts.push((host, sw_idx));
            (host, up)
        };

        let (through_sender, ts_up) = attach(net, 0, &mut hosts);
        let (through_receiver, tr_up) = attach(net, cfg.hops, &mut hosts);
        let mut local_senders = Vec::with_capacity(cfg.hops);
        let mut local_receivers = Vec::with_capacity(cfg.hops);
        let mut host_uplinks = vec![(through_sender, ts_up), (through_receiver, tr_up)];
        for i in 0..cfg.hops {
            let (s, s_up) = attach(net, i, &mut hosts);
            let (r, r_up) = attach(net, i + 1, &mut hosts);
            local_senders.push(s);
            local_receivers.push(r);
            host_uplinks.push((s, s_up));
            host_uplinks.push((r, r_up));
        }

        // Routing. Hosts send everything to their switch; each switch
        // forwards along the chain toward the switch the destination
        // hangs off (local destinations were routed at attach time).
        for &(host, up) in &host_uplinks {
            for &(dst, _) in &hosts {
                if dst != host {
                    net.add_route(host, dst, up);
                }
            }
        }
        for s in 0..n_sw {
            for &(dst, at) in &hosts {
                if at > s {
                    net.add_route(switches[s], dst, forward[s]);
                } else if at < s {
                    net.add_route(switches[s], dst, reverse[s - 1]);
                }
            }
        }

        ParkingLot {
            switches,
            through_sender,
            through_receiver,
            local_senders,
            local_receivers,
            bottlenecks: forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Ctx};
    use crate::ids::FlowId;
    use crate::packet::{AckInfo, EcnCodepoint, Packet, PacketKind};

    struct Blaster {
        dst: NodeId,
        n: u32,
        acked: u32,
    }
    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                ctx.send(Packet::data(
                    FlowId::from_raw(7),
                    ctx.node(),
                    self.dst,
                    (i as u64) * 1448,
                    1448,
                    EcnCodepoint::NotEct,
                ));
            }
        }
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
            if matches!(pkt.kind, PacketKind::Ack(_)) {
                self.acked += 1;
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    struct Sink;
    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if pkt.is_data() {
                ctx.send(Packet::ack(
                    pkt.flow,
                    ctx.node(),
                    pkt.src,
                    AckInfo {
                        cum_ack: pkt.seq_end(),
                        ..AckInfo::default()
                    },
                ));
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
    }

    fn star(width: usize) -> String {
        let mut net = Network::new(0);
        let cfg = DumbbellConfig {
            senders: 3,
            bottleneck_links: width,
            ..DumbbellConfig::default()
        };
        Dumbbell::build(&mut net, &cfg);
        crate::engine::tests::layout(&net)
    }

    /// The paper's testbed with 3 senders: one 10 Gb/s bottleneck, one ack
    /// link, and per sender two bonded uplinks and one downlink.
    const STAR_1: &[&str] = &[
        "node 0 Switch",
        "node 1 Host",
        "node 2 Host",
        "node 3 Host",
        "node 4 Host",
        "link 0 0->1 10000000000 bps 25000 ns droptail 1000000 B",
        "link 1 1->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 2 2->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 3 2->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 4 0->2 10000000000 bps 25000 ns droptail 4000000 B",
        "link 5 3->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 6 3->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 7 0->3 10000000000 bps 25000 ns droptail 4000000 B",
        "link 8 4->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 9 4->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 10 0->4 10000000000 bps 25000 ns droptail 4000000 B",
        "route 0->1 [0]",
        "route 0->2 [4]",
        "route 0->3 [7]",
        "route 0->4 [10]",
        "route 1->0 [1]",
        "route 1->2 [1]",
        "route 1->3 [1]",
        "route 1->4 [1]",
        "route 2->1 [2, 3]",
        "route 3->1 [5, 6]",
        "route 4->1 [8, 9]",
    ];

    /// A rack cell with 3 senders: the bottleneck is two 5 Gb/s members, and
    /// the ack path and each sender's downlinks are two links wide.
    const STAR_2: &[&str] = &[
        "node 0 Switch",
        "node 1 Host",
        "node 2 Host",
        "node 3 Host",
        "node 4 Host",
        "link 0 0->1 5000000000 bps 25000 ns droptail 1000000 B",
        "link 1 0->1 5000000000 bps 25000 ns droptail 1000000 B",
        "link 2 1->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 3 1->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 4 2->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 5 2->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 6 0->2 10000000000 bps 25000 ns droptail 4000000 B",
        "link 7 0->2 10000000000 bps 25000 ns droptail 4000000 B",
        "link 8 3->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 9 3->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 10 0->3 10000000000 bps 25000 ns droptail 4000000 B",
        "link 11 0->3 10000000000 bps 25000 ns droptail 4000000 B",
        "link 12 4->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 13 4->0 10000000000 bps 25000 ns droptail 4000000 B",
        "link 14 0->4 10000000000 bps 25000 ns droptail 4000000 B",
        "link 15 0->4 10000000000 bps 25000 ns droptail 4000000 B",
        "route 0->1 [0, 1]",
        "route 0->2 [6, 7]",
        "route 0->3 [10, 11]",
        "route 0->4 [14, 15]",
        "route 1->0 [2, 3]",
        "route 1->2 [2, 3]",
        "route 1->3 [2, 3]",
        "route 1->4 [2, 3]",
        "route 2->1 [4, 5]",
        "route 3->1 [8, 9]",
        "route 4->1 [12, 13]",
    ];

    /// Node kinds, every link's ends, rate, delay and buffer, and every
    /// route's members, in id order, for both widths of the star.
    #[test]
    fn star_layout_is_pinned() {
        for (width, expected) in [(1, STAR_1), (2, STAR_2)] {
            assert_eq!(
                star(width).lines().collect::<Vec<_>>(),
                expected,
                "width {width}"
            );
        }
    }

    #[test]
    fn dumbbell_carries_traffic_end_to_end() {
        let mut net = Network::new(11);
        let cfg = DumbbellConfig::default();
        let d = Dumbbell::build(&mut net, &cfg);
        net.attach_agent(
            d.senders[0],
            Box::new(Blaster {
                dst: d.receiver,
                n: 20,
                acked: 0,
            }),
        );
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        assert_eq!(net.agent::<Blaster>(d.senders[0]).unwrap().acked, 20);
        assert_eq!(net.link_stats(d.bottleneck).tx_pkts, 20);
    }

    #[test]
    fn bonded_uplinks_share_packets() {
        let mut net = Network::new(12);
        let cfg = DumbbellConfig::default();
        let d = Dumbbell::build(&mut net, &cfg);
        assert_eq!(d.uplinks[0].len(), 2);
        net.attach_agent(
            d.senders[0],
            Box::new(Blaster {
                dst: d.receiver,
                n: 10,
                acked: 0,
            }),
        );
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        assert_eq!(net.link_stats(d.uplinks[0][0]).tx_pkts, 5);
        assert_eq!(net.link_stats(d.uplinks[0][1]).tx_pkts, 5);
    }

    #[test]
    fn two_senders_get_distinct_hosts() {
        let mut net = Network::new(13);
        let cfg = DumbbellConfig {
            senders: 2,
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        assert_eq!(d.senders.len(), 2);
        assert_ne!(d.senders[0], d.senders[1]);
        net.attach_agent(
            d.senders[0],
            Box::new(Blaster {
                dst: d.receiver,
                n: 5,
                acked: 0,
            }),
        );
        net.attach_agent(
            d.senders[1],
            Box::new(Blaster {
                dst: d.receiver,
                n: 5,
                acked: 0,
            }),
        );
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        assert_eq!(net.agent::<Blaster>(d.senders[0]).unwrap().acked, 5);
        assert_eq!(net.agent::<Blaster>(d.senders[1]).unwrap().acked, 5);
    }

    #[test]
    fn ecn_bottleneck_marks_capable_traffic() {
        let mut net = Network::new(14);
        let cfg = DumbbellConfig {
            bottleneck_queue: BottleneckQueue::EcnThreshold {
                capacity_bytes: 1_000_000,
                mark_bytes: 3_000,
            },
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);

        struct EcnBlaster {
            dst: NodeId,
        }
        impl Agent for EcnBlaster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Burst enough to exceed the 3 KB threshold at the
                // bottleneck queue.
                for i in 0..50u64 {
                    ctx.send(Packet::data(
                        FlowId::from_raw(1),
                        ctx.node(),
                        self.dst,
                        i * 1448,
                        1448,
                        EcnCodepoint::Ect0,
                    ));
                }
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
        }

        net.attach_agent(d.senders[0], Box::new(EcnBlaster { dst: d.receiver }));
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        assert!(net.queue_stats(d.bottleneck).marked_pkts > 0);
    }

    #[test]
    fn incast_converges_all_senders_on_the_receiver() {
        let mut net = Network::new(15);
        let cfg = DumbbellConfig {
            senders: 8,
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        assert_eq!(d.senders.len(), 8);
        for &s in &d.senders {
            net.attach_agent(
                s,
                Box::new(Blaster {
                    dst: d.receiver,
                    n: 10,
                    acked: 0,
                }),
            );
        }
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        // Every sender's burst crossed the single bottleneck and was acked.
        assert_eq!(net.link_stats(d.bottleneck).tx_pkts, 80);
        for &s in &d.senders {
            assert_eq!(net.agent::<Blaster>(s).unwrap().acked, 10);
        }
    }

    #[test]
    fn incast_synchronized_burst_overflows_the_shallow_buffer() {
        let mut net = Network::new(16);
        let cfg = DumbbellConfig {
            senders: 24,
            bottleneck_queue: BottleneckQueue::DropTail {
                capacity_bytes: 30_000,
            },
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        for &s in &d.senders {
            net.attach_agent(
                s,
                Box::new(Blaster {
                    dst: d.receiver,
                    n: 20,
                    acked: 0,
                }),
            );
        }
        net.attach_agent(d.receiver, Box::new(Sink));
        net.run();
        assert!(
            net.queue_stats(d.bottleneck).dropped_pkts > 0,
            "a synchronized 24-way burst must overflow a 30 KB port buffer"
        );
    }

    #[test]
    fn parking_lot_routes_through_and_local_flows() {
        let mut net = Network::new(17);
        let cfg = ParkingLotConfig {
            hops: 3,
            ..ParkingLotConfig::default()
        };
        let lot = ParkingLot::build(&mut net, &cfg);
        assert_eq!(lot.switches.len(), 4);
        assert_eq!(lot.bottlenecks.len(), 3);
        net.attach_agent(
            lot.through_sender,
            Box::new(Blaster {
                dst: lot.through_receiver,
                n: 12,
                acked: 0,
            }),
        );
        for i in 0..3 {
            net.attach_agent(
                lot.local_senders[i],
                Box::new(Blaster {
                    dst: lot.local_receivers[i],
                    n: 7,
                    acked: 0,
                }),
            );
            net.attach_agent(lot.local_receivers[i], Box::new(Sink));
        }
        net.attach_agent(lot.through_receiver, Box::new(Sink));
        net.run();
        // The through flow crossed every hop; each local flow only its own.
        assert_eq!(net.agent::<Blaster>(lot.through_sender).unwrap().acked, 12);
        for i in 0..3 {
            assert_eq!(net.agent::<Blaster>(lot.local_senders[i]).unwrap().acked, 7);
            // Hop i carries the through flow plus local flow i.
            assert_eq!(net.link_stats(lot.bottlenecks[i]).tx_pkts, 12 + 7);
        }
    }
}
