//! In-band telemetry substrate tests: hops stamp data packets with queue
//! occupancy and utilization, and the most-utilized hop's record wins.

use netsim::prelude::*;

/// Sends `n` packets at start; records every data packet's INT on arrival.
struct Blast {
    dst: NodeId,
    n: u32,
}
impl Agent for Blast {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.n {
            ctx.send(Packet::data(
                FlowId::from_raw(1),
                ctx.node(),
                self.dst,
                i as u64 * 1460,
                1460,
                EcnCodepoint::NotEct,
            ));
        }
    }
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
}

struct IntSink {
    records: Vec<IntRecord>,
}
impl Agent for IntSink {
    fn on_packet(&mut self, p: Packet, _ctx: &mut Ctx<'_>) {
        if p.is_data() {
            self.records.push(p.int);
        }
    }
    fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
}

fn run_blast(n: u32) -> Vec<IntRecord> {
    let mut net = Network::new(17);
    let d = Dumbbell::build(&mut net, &DumbbellConfig::default());
    net.attach_agent(d.senders[0], Box::new(Blast { dst: d.receiver, n }));
    net.attach_agent(
        d.receiver,
        Box::new(IntSink {
            records: Vec::new(),
        }),
    );
    net.run();
    net.agent::<IntSink>(d.receiver).unwrap().records.clone()
}

#[test]
fn every_delivered_packet_is_stamped() {
    let records = run_blast(50);
    assert_eq!(records.len(), 50);
    for r in &records {
        assert!(r.is_stamped(), "all hops are INT-capable");
        assert_eq!(r.link_mbps, 10_000, "the winning hop runs at 10 Gb/s");
        assert!(r.util_x1000 <= 1000);
    }
}

#[test]
fn queue_buildup_appears_in_telemetry() {
    // A 200-packet burst into the 10 Gb/s bottleneck behind bonded
    // 2x10 Gb/s uplinks: the bottleneck queue must grow and later packets
    // must report deeper occupancy than the first.
    let records = run_blast(200);
    let first = &records[0];
    let deepest = records.iter().map(|r| r.queue_bytes).max().unwrap();
    assert!(
        deepest > first.queue_bytes + 50_000,
        "queue must visibly build: first {} deepest {deepest}",
        first.queue_bytes
    );
}

#[test]
fn normalized_utilization_is_plausible() {
    let records = run_blast(200);
    // Near the end of the burst the bottleneck is saturated with a
    // standing queue: U should exceed the DCQCN/HPCC target band.
    let last = records.last().unwrap();
    let u = last.normalized_utilization(100e-6);
    assert!(
        u > 0.9,
        "saturated hop must report high utilization: {u:.2}"
    );
    // And an unstamped record reports zero.
    assert_eq!(IntRecord::default().normalized_utilization(100e-6), 0.0);
}

/// The record a receiver puts on an ack: stamped-looking, but unlike any
/// hop's (no dumbbell link runs at 1 Mb/s), and at zero utilization, so
/// a hop that stamped acks would overwrite it.
const ECHO: IntRecord = IntRecord {
    queue_bytes: 0xABCDE,
    util_x1000: 0,
    link_mbps: 1,
};

#[test]
fn acks_are_not_stamped() {
    // An ack's record is the receiver's echo of the data it acknowledges:
    // it crosses the network exactly as sent, while the data frames on the
    // same run are still stamped hop by hop.
    struct AckProbe {
        peer: NodeId,
        ack_records: Vec<IntRecord>,
    }
    impl Agent for AckProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..10u64 {
                ctx.send(Packet::data(
                    FlowId::from_raw(2),
                    ctx.node(),
                    self.peer,
                    i * 1000,
                    1000,
                    EcnCodepoint::NotEct,
                ));
            }
        }
        fn on_packet(&mut self, p: Packet, _ctx: &mut Ctx<'_>) {
            if !p.is_data() {
                self.ack_records.push(p.int);
            }
        }
        fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
    }
    struct Echo {
        data_records: Vec<IntRecord>,
    }
    impl Agent for Echo {
        fn on_packet(&mut self, p: Packet, ctx: &mut Ctx<'_>) {
            if p.is_data() {
                self.data_records.push(p.int);
                let mut ack = Packet::ack(p.flow, ctx.node(), p.src, AckInfo::default());
                ack.int = ECHO;
                ctx.send(ack);
            }
        }
        fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
    }

    let mut net = Network::new(23);
    let d = Dumbbell::build(&mut net, &DumbbellConfig::default());
    net.attach_agent(
        d.senders[0],
        Box::new(AckProbe {
            peer: d.receiver,
            ack_records: Vec::new(),
        }),
    );
    net.attach_agent(
        d.receiver,
        Box::new(Echo {
            data_records: Vec::new(),
        }),
    );
    net.run();
    let probe = net.agent::<AckProbe>(d.senders[0]).unwrap();
    assert_eq!(probe.ack_records, vec![ECHO; 10], "acks arrive as sent");
    let echo = net.agent::<Echo>(d.receiver).unwrap();
    assert_eq!(echo.data_records.len(), 10);
    for r in &echo.data_records {
        assert_eq!(r.link_mbps, 10_000, "the hottest hop stamped the data");
        assert!(r.util_x1000 <= 1000);
    }
}

#[test]
fn packet_log_captures_drops_and_deliveries() {
    let mut net = Network::new(31);
    let cfg = DumbbellConfig {
        bottleneck_queue: BottleneckQueue::DropTail {
            capacity_bytes: 20_000,
        },
        ..DumbbellConfig::default()
    };
    let d = Dumbbell::build(&mut net, &cfg);
    net.enable_packet_log(10_000);
    net.attach_agent(
        d.senders[0],
        Box::new(Blast {
            dst: d.receiver,
            n: 100,
        }),
    );
    net.attach_agent(
        d.receiver,
        Box::new(IntSink {
            records: Vec::new(),
        }),
    );
    net.run();
    let stats = net.network_stats();
    assert!(stats.dropped_pkts > 0, "the 20 kB buffer overflows");
    assert_eq!(stats.dropped_pkts + stats.delivered_pkts, 100);
    // Drops and deliveries are the run's only fates, and the log holds them all.
    let log = net.packet_log().unwrap();
    assert_eq!(log.total_seen(), 100);
    assert_eq!(log.overflowed(), 0);
}
