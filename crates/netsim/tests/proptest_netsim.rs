//! Property-based tests of the simulator substrate: queue conservation,
//! SACK-block bookkeeping, the flow-id index against a `BTreeMap`,
//! end-to-end packet conservation through a random dumbbell, and the
//! clock's rounding helper against `f64::round`.

use netsim::prelude::*;
use netsim::time::round_to_u64;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn data_packet(seq: u64, payload: u32) -> Packet {
    Packet::data(
        FlowId::from_raw(0),
        NodeId::from_raw(0),
        NodeId::from_raw(1),
        seq,
        payload,
        EcnCodepoint::NotEct,
    )
}

proptest! {
    /// Drop-tail queues conserve packets: everything enqueued is either
    /// dequeued or counted dropped, and byte accounting matches.
    #[test]
    fn droptail_conserves_packets(
        capacity in 2_000u64..100_000,
        sizes in proptest::collection::vec(100u32..9_000, 1..200),
        drain_every in 1usize..8,
    ) {
        let mut q = DropTailQueue::new(capacity);
        let mut pool = FramePool::new();
        let mut accepted = 0u64;
        let mut dequeued = 0u64;
        for (i, &payload) in sizes.iter().enumerate() {
            let frame = pool.alloc(data_packet(i as u64, payload));
            match q.enqueue(frame, &mut pool, SimTime::ZERO) {
                EnqueueOutcome::Enqueued | EnqueueOutcome::EnqueuedMarked => accepted += 1,
                EnqueueOutcome::Dropped => pool.release(frame),
            }
            if i % drain_every == 0 {
                if let Some(r) = q.dequeue(SimTime::ZERO) {
                    pool.release(r);
                    dequeued += 1;
                }
            }
            prop_assert!(q.len_bytes() <= capacity, "capacity respected");
        }
        while let Some(r) = q.dequeue(SimTime::ZERO) {
            pool.release(r);
            dequeued += 1;
        }
        prop_assert_eq!(pool.live(), 0, "every frame accounted for");
        let stats = q.stats();
        prop_assert_eq!(accepted, dequeued);
        prop_assert_eq!(stats.enqueued_pkts + stats.dropped_pkts, sizes.len() as u64);
        prop_assert_eq!(q.len_bytes(), 0);
    }

    /// ECN threshold queues never drop an ECN-capable packet unless the
    /// buffer is genuinely full, and never mark below the threshold.
    #[test]
    fn ecn_queue_marks_instead_of_dropping(
        sizes in proptest::collection::vec(100u32..1_400, 1..150),
    ) {
        let capacity = 1_000_000u64;
        let threshold = 10_000u64;
        let mut q = EcnThresholdQueue::new(capacity, threshold);
        let mut pool = FramePool::new();
        for (i, &payload) in sizes.iter().enumerate() {
            let mut pkt = data_packet(i as u64, payload);
            pkt.ecn = EcnCodepoint::Ect0;
            let below = q.len_bytes() + pkt.wire_bytes as u64 <= threshold;
            let frame = pool.alloc(pkt);
            match q.enqueue(frame, &mut pool, SimTime::ZERO) {
                EnqueueOutcome::Dropped => prop_assert!(false, "capacity is ample"),
                EnqueueOutcome::EnqueuedMarked => prop_assert!(!below, "marked below K"),
                EnqueueOutcome::Enqueued => prop_assert!(below, "unmarked above K"),
            }
        }
    }

    /// SACK block containers preserve insertion order, cap their length,
    /// evict oldest-first, and never hold empty ranges.
    #[test]
    fn sack_blocks_are_well_formed(
        ranges in proptest::collection::vec((0u64..10_000, 1u64..500), 0..12),
    ) {
        let mut blocks = SackBlocks::EMPTY;
        for &(start, len) in &ranges {
            blocks.push(start, start + len);
        }
        prop_assert!(blocks.len() <= netsim::packet::MAX_SACK_BLOCKS);
        for (s, e) in blocks.iter() {
            prop_assert!(e > s, "no empty ranges");
        }
        // The kept blocks are exactly the most recently inserted ones, in
        // insertion order.
        let expected: Vec<(u64, u64)> = ranges
            .iter()
            .map(|&(s, l)| (s, s + l))
            .rev()
            .take(netsim::packet::MAX_SACK_BLOCKS)
            .rev()
            .collect();
        let got: Vec<(u64, u64)> = blocks.iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// End-to-end conservation: N packets blasted through a dumbbell are
    /// either delivered or dropped at a queue — none vanish, none
    /// duplicate.
    #[test]
    fn dumbbell_conserves_packets(
        n in 1u32..300,
        buffer in 20_000u64..2_000_000,
        seed in 0u64..50,
    ) {
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
        struct Count {
            seen: u64,
        }
        impl Agent for Count {
            fn on_packet(&mut self, p: Packet, _ctx: &mut Ctx<'_>) {
                if p.is_data() {
                    self.seen += 1;
                }
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {}
        }

        let mut net = Network::new(seed);
        let cfg = DumbbellConfig {
            bottleneck_queue: BottleneckQueue::DropTail { capacity_bytes: buffer },
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        net.attach_agent(d.senders[0], Box::new(Blast { dst: d.receiver, n }));
        net.attach_agent(d.receiver, Box::new(Count { seen: 0 }));
        net.run();
        let delivered = net.agent::<Count>(d.receiver).unwrap().seen;
        let dropped = net.network_stats().dropped_pkts;
        prop_assert_eq!(delivered + dropped, n as u64);
    }

    /// The deterministic RNG's doubles stay within [0,1) and pass a crude
    /// uniformity check per seed.
    #[test]
    fn rng_uniformity(seed in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let n = 4096;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        prop_assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    /// `FlowIndex` against the obvious model, a `BTreeMap<u32, u32>`,
    /// under random `set` / `get` over the id shapes it meets: clustered
    /// (a dumbbell's `0..n`, offset), strided (one rack host's slice of a
    /// population: `r, r + 220, ...`) and ids near `u32::MAX`. The
    /// universe is small (192 ids), so overwrites and growth in the
    /// middle of a probe run both occur; every answer must match after
    /// every step.
    #[test]
    fn flow_index_matches_a_btreemap(
        base in 0u32..1_000_000,
        rack_offset in 0u32..220,
        ops in proptest::collection::vec((0u8..3, 0u8..3, 0u32..64), 1..400),
    ) {
        let id = |family: u8, k: u32| match family {
            0 => base + k,
            1 => rack_offset + 220 * k,
            _ => u32::MAX - k,
        };
        let mut index = FlowIndex::new();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for (pos, &(op, family, k)) in ops.iter().enumerate() {
            let raw = id(family, k);
            match op {
                // Twice as many sets as gets, so the table fills.
                0 | 1 => {
                    let pos = pos as u32;
                    prop_assert_eq!(index.set(raw, pos), model.insert(raw, pos));
                }
                _ => prop_assert_eq!(index.get(raw), model.get(&raw).copied()),
            }
            prop_assert_eq!(index.len(), model.len());
            prop_assert!(
                index.slots() <= (4 * model.len()).max(8),
                "{} slots for {} entries", index.slots(), model.len()
            );
            prop_assert!(index.slots() >= 2 * model.len(), "load past one half");
            for family in 0..3 {
                for k in 0..64 {
                    let raw = id(family, k);
                    prop_assert_eq!(index.get(raw), model.get(&raw).copied(), "id {}", raw);
                }
            }
        }
        prop_assert_eq!(format!("{index:?}"), format!("{model:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    /// `round_to_u64` is `x.round() as u64` on random bit patterns: both
    /// signs, every exponent, subnormals, NaN payloads and infinities.
    #[test]
    fn round_to_u64_matches_round_on_any_bits(bits in 0u64..=u64::MAX) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
    }

    /// ... and on the ties `round` breaks away from zero, `k + 0.5` for
    /// `k` below 2^52 at every magnitude, with the neighbours one ulp
    /// either side.
    #[test]
    fn round_to_u64_matches_round_on_every_half(bits in 0u64..=u64::MAX, shift in 12u32..64) {
        let half = (bits >> shift) as f64 + 0.5;
        for x in [half, half.next_down(), half.next_up()] {
            prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
        }
    }
}
