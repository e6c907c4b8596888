//! Property-based tests of the fault-injection layer: frame conservation
//! under arbitrary fault specs, the injected/congestive drop dichotomy,
//! and bit-exact replay of faulted runs.

use netsim::prelude::*;
use proptest::prelude::*;

/// Blasts `n` fixed-size data packets at `dst` from `on_start`.
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

/// Counts data packets that reach the agent (corrupted frames are
/// discarded by the engine before dispatch, so they never show up here).
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

/// A random (but always valid) fault spec: probabilities inside [0, 1],
/// non-empty flap windows, and jitter below the 25 us link delay the
/// harness uses. (The vendored proptest only implements `Strategy` for
/// tuples up to arity 5, hence the nesting.)
fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    (
        (0.0f64..0.5, 0.0f64..0.3, 0.0f64..0.3),
        (0.0f64..0.5, 0u64..200_000, 0u64..25_000),
        proptest::option::of((0u64..5_000_000, 1u64..5_000_000)),
    )
        .prop_map(
            |((drop, corrupt, dup), (reorder, reorder_ns, jitter_ns), flap)| {
                let mut spec = FaultSpec::random_loss(drop)
                    .with_corruption(corrupt)
                    .with_duplication(dup)
                    .with_reordering(reorder, SimDuration::from_nanos(reorder_ns))
                    .with_jitter(SimDuration::from_nanos(jitter_ns));
                if let Some((down_ns, len_ns)) = flap {
                    spec = spec.with_flap(
                        SimTime::from_nanos(down_ns),
                        SimTime::from_nanos(down_ns + len_ns),
                    );
                }
                spec
            },
        )
}

/// Two hosts, one faulted link, ample buffer (no congestive drops).
/// Returns (agent-seen frames, per-link stats, congestive drops,
/// corrupt discards).
fn faulted_run(spec: &FaultSpec, n: u32, seed: u64) -> (u64, LinkStats, u64, u64) {
    let mut net = Network::new(seed);
    let a = net.add_host();
    let b = net.add_host();
    let ab = net.add_link(
        a,
        b,
        LinkSpec::droptail(Rate::from_gbps(10.0), SimDuration::from_micros(25), 64 * MB),
    );
    net.add_route(a, b, ab);
    net.set_link_fault(ab, spec.clone())
        .expect("valid fault spec");
    net.enable_packet_log(200_000);
    net.attach_agent(a, Box::new(Blast { dst: b, n }));
    net.attach_agent(b, Box::new(Count { seen: 0 }));
    net.run();
    let seen = net.agent::<Count>(b).unwrap().seen;
    let stats = net.network_stats();
    // The packet log counts exactly the fates the agent and the link saw.
    assert_eq!(
        net.packet_log().expect("log enabled").total_seen(),
        seen + stats.corrupt_discards + stats.injected_drops + stats.dropped_pkts
    );
    (
        seen,
        net.link_stats(ab),
        stats.dropped_pkts,
        stats.corrupt_discards,
    )
}

proptest! {
    /// Frame conservation under any fault spec: every frame serialized
    /// onto the wire is delivered to the agent, discarded as corrupt at
    /// the host, or dropped by the fault layer — and duplicates add
    /// exactly one extra arrival each. Nothing vanishes, nothing is
    /// double-counted.
    #[test]
    fn faulted_link_conserves_frames(
        spec in arb_spec(),
        n in 1u32..400,
        seed in 0u64..50,
    ) {
        let (seen, link, congestive, discarded) = faulted_run(&spec, n, seed);
        // The wire serialized every blast frame exactly once (duplication
        // clones the arrival, not the transmission).
        prop_assert_eq!(link.tx_pkts, n as u64);
        prop_assert_eq!(
            seen + discarded + link.injected_drops,
            n as u64 + link.injected_dups,
            "arrivals + drops must balance transmissions + duplicates"
        );
        // With an ample buffer, nothing is congestive: the fault layer
        // and the queue never claim the same loss.
        prop_assert_eq!(congestive, 0);
    }

    /// Injected and congestive drops stay disjoint even when the queue
    /// *is* overflowing: the two tallies sum to total losses with no
    /// frame counted twice (fault injection happens strictly after a
    /// frame has escaped the queue).
    #[test]
    fn injected_and_congestive_drops_are_disjoint(
        drop_prob in 0.0f64..0.5,
        n in 50u32..400,
        seed in 0u64..50,
    ) {
        let mut net = Network::new(seed);
        let a = net.add_host();
        let b = net.add_host();
        // Tiny buffer: the burst overflows it before serialization.
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(Rate::from_gbps(1.0), SimDuration::from_micros(25), 10_000),
        );
        net.add_route(a, b, ab);
        net.set_link_fault(ab, FaultSpec::random_loss(drop_prob))
            .expect("valid fault spec");
        net.attach_agent(a, Box::new(Blast { dst: b, n }));
        net.attach_agent(b, Box::new(Count { seen: 0 }));
        net.run();
        let seen = net.agent::<Count>(b).unwrap().seen;
        let link = net.link_stats(ab);
        let congestive = net.network_stats().dropped_pkts;
        // Congestive drops never reached the wire; injected drops did.
        prop_assert_eq!(link.tx_pkts, n as u64 - congestive);
        prop_assert_eq!(seen + link.injected_drops, link.tx_pkts);
        prop_assert!(congestive > 0, "the buffer must overflow");
    }

    /// Bit-exact replay: the same spec and seed produce identical
    /// delivery counts and fault tallies every time.
    #[test]
    fn faulted_runs_replay_bit_identically(
        spec in arb_spec(),
        n in 1u32..200,
        seed in 0u64..50,
    ) {
        let (seen_a, link_a, cong_a, disc_a) = faulted_run(&spec, n, seed);
        let (seen_b, link_b, cong_b, disc_b) = faulted_run(&spec, n, seed);
        prop_assert_eq!(seen_a, seen_b);
        prop_assert_eq!(cong_a, cong_b);
        prop_assert_eq!(disc_a, disc_b);
        prop_assert_eq!(link_a.injected_drops, link_b.injected_drops);
        prop_assert_eq!(link_a.injected_corrupts, link_b.injected_corrupts);
        prop_assert_eq!(link_a.injected_dups, link_b.injected_dups);
        prop_assert_eq!(link_a.injected_reorders, link_b.injected_reorders);
    }
}
