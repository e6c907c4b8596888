//! Micro-benchmarks of the simulator's hot paths: the event loop, the
//! queue disciplines, the SACK scoreboard, and per-ack CCA processing.

use cca::CcaKind;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::prelude::*;
use std::hint::black_box;
use transport::cc::AckEvent;
use transport::scoreboard::Scoreboard;
use workload::prelude::*;

/// End-to-end simulator throughput: one bulk CUBIC transfer, measured in
/// simulated payload bytes per wall second.
fn bench_simulator_throughput(c: &mut Criterion) {
    let bytes = 50_000_000u64;
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(10);
    g.bench_function("bulk_transfer_50MB", |b| {
        b.iter(|| {
            let out = workload::scenario::run(&Scenario::new(
                9000,
                vec![FlowSpec::bulk(CcaKind::Cubic, bytes)],
            ))
            .unwrap();
            black_box(out.sender_energy_j)
        })
    });
    // Worst-case packet rate: the same transfer pushes 6x the packets
    // through the event loop at the smallest MTU.
    g.bench_function("bulk_transfer_50MB_mtu1500", |b| {
        b.iter(|| {
            let out = workload::scenario::run(&Scenario::new(
                1500,
                vec![FlowSpec::bulk(CcaKind::Cubic, bytes)],
            ))
            .unwrap();
            black_box(out.sender_energy_j)
        })
    });
    g.finish();
}

/// The event scheduler in isolation: the hybrid wheel against the plain
/// binary heap it replaced, on the engine's characteristic near-future
/// push/pop stream (and a far-future timer mix for the overflow path).
fn bench_scheduler(c: &mut Criterion) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const OPS: u64 = 4096;
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(OPS));

    // Near-future churn: every push lands within a few bucket widths of
    // `now`, as TxDone/Arrive events do. Keep ~64 pending.
    g.bench_function("wheel_push_pop_near", |b| {
        b.iter(|| {
            let mut s: netsim::sched::Scheduler<u64> = netsim::sched::Scheduler::new();
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                s.push(now + SimDuration::from_nanos(800 + i * 37), i);
            }
            for i in 64..OPS {
                let (at, _) = s.pop().unwrap();
                now = at;
                s.push(now + SimDuration::from_nanos(800 + (i % 97) * 37), i);
            }
            black_box(s.len())
        })
    });
    g.bench_function("heap_push_pop_near", |b| {
        b.iter(|| {
            let mut h: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                h.push(Reverse((now + SimDuration::from_nanos(800 + i * 37), i)));
            }
            for i in 64..OPS {
                let Reverse((at, _)) = h.pop().unwrap();
                now = at;
                h.push(Reverse((
                    now + SimDuration::from_nanos(800 + (i % 97) * 37),
                    i,
                )));
            }
            black_box(h.len())
        })
    });
    // Packet-sized payloads (a real engine Event embeds a 168-byte
    // Packet): every heap sift copies them up and down the tree, while
    // the wheel appends once and pops in place. Note: in this synthetic
    // loop (hot cache, ~64 pending) the heap still wins; the engine-level
    // A/B — same engine, scheduler swapped — shows the wheel delivering
    // the full end-to-end speedup once real event mixes, larger pending
    // sets, and cold caches are in play. Keep both views honest.
    type FatPayload = [u64; 21];
    g.bench_function("wheel_push_pop_fat", |b| {
        let payload: FatPayload = [7; 21];
        b.iter(|| {
            let mut s: netsim::sched::Scheduler<FatPayload> = netsim::sched::Scheduler::new();
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                s.push(now + SimDuration::from_nanos(800 + i * 37), payload);
            }
            for i in 64..OPS {
                let (at, p) = s.pop().unwrap();
                now = at;
                black_box(p[0]);
                s.push(now + SimDuration::from_nanos(800 + (i % 97) * 37), payload);
            }
            black_box(s.len())
        })
    });
    g.bench_function("heap_push_pop_fat", |b| {
        let payload: FatPayload = [7; 21];
        b.iter(|| {
            let mut h: BinaryHeap<Reverse<(SimTime, u64, FatPayload)>> = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                h.push(Reverse((
                    now + SimDuration::from_nanos(800 + i * 37),
                    i,
                    payload,
                )));
            }
            for i in 64..OPS {
                let Reverse((at, _, p)) = h.pop().unwrap();
                now = at;
                black_box(p[0]);
                h.push(Reverse((
                    now + SimDuration::from_nanos(800 + (i % 97) * 37),
                    i,
                    payload,
                )));
            }
            black_box(h.len())
        })
    });
    // One RTO-scale timer per 16 data events: exercises the overflow
    // heap and wheel migration.
    g.bench_function("wheel_push_pop_mixed", |b| {
        b.iter(|| {
            let mut s: netsim::sched::Scheduler<u64> = netsim::sched::Scheduler::new();
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                s.push(now + SimDuration::from_nanos(800 + i * 37), i);
            }
            for i in 64..OPS {
                let (at, _) = s.pop().unwrap();
                now = at;
                let dt = if i % 16 == 0 {
                    SimDuration::from_millis(200)
                } else {
                    SimDuration::from_nanos(800 + (i % 97) * 37)
                };
                s.push(now + dt, i);
            }
            black_box(s.len())
        })
    });
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queues");
    let pkt = Packet::data(
        FlowId::from_raw(0),
        NodeId::from_raw(0),
        NodeId::from_raw(1),
        0,
        1460,
        EcnCodepoint::Ect0,
    );
    g.bench_function("droptail_enq_deq", |b| {
        let mut q = DropTailQueue::new(1_000_000);
        let mut pool = FramePool::new();
        b.iter(|| {
            let frame = pool.alloc(black_box(pkt));
            if q.enqueue(frame, &mut pool, SimTime::ZERO) == EnqueueOutcome::Dropped {
                pool.release(frame);
            }
            black_box(q.dequeue(SimTime::ZERO).map(|r| pool.take(r)))
        })
    });
    g.bench_function("ecn_threshold_enq_deq", |b| {
        let mut q = EcnThresholdQueue::new(1_000_000, 30_000);
        let mut pool = FramePool::new();
        b.iter(|| {
            let frame = pool.alloc(black_box(pkt));
            if q.enqueue(frame, &mut pool, SimTime::ZERO) == EnqueueOutcome::Dropped {
                pool.release(frame);
            }
            black_box(q.dequeue(SimTime::ZERO).map(|r| pool.take(r)))
        })
    });
    g.bench_function("red_enq_deq", |b| {
        let mut q = RedQueue::new(1_000_000, 100_000, 500_000, 0.1, 7);
        let mut pool = FramePool::new();
        b.iter(|| {
            let frame = pool.alloc(black_box(pkt));
            if q.enqueue(frame, &mut pool, SimTime::ZERO) == EnqueueOutcome::Dropped {
                pool.release(frame);
            }
            black_box(q.dequeue(SimTime::ZERO).map(|r| pool.take(r)))
        })
    });
    g.finish();
}

fn bench_scoreboard(c: &mut Criterion) {
    c.bench_function("scoreboard_send_ack_cycle", |b| {
        b.iter(|| {
            let mut board = Scoreboard::new(1448);
            let mut seq = 0u64;
            for i in 0..64 {
                board.on_send(seq, 1448, SimTime::from_micros(i), 0, false);
                seq += 1448;
            }
            // Cumulative ack half, SACK a band, ack the rest.
            board.on_ack(seq / 2, std::iter::empty(), SimDuration::from_micros(25));
            board.on_ack(
                seq / 2,
                [(seq / 2 + 4344, seq)].into_iter(),
                SimDuration::from_micros(25),
            );
            let out = board.on_ack(seq, std::iter::empty(), SimDuration::from_micros(25));
            black_box(out.newly_delivered)
        })
    });
    // Steady loss with a window's worth of holes open: what
    // `perf_baseline`'s `sack_scaling` gate holds to a ratio. Per-ack
    // time is the reported time / 2 000.
    let mut g = c.benchmark_group("scoreboard_windowed_holes_2k_acks");
    for window in [128usize, 2048] {
        let trace = bench::sack_trace::record(window, 2_000);
        g.bench_function(format!("window_{window}"), |b| {
            b.iter(|| black_box(bench::sack_trace::replay(black_box(&trace))))
        });
    }
    g.finish();
}

fn bench_cca_ack_processing(c: &mut Criterion) {
    let mut g = c.benchmark_group("cca_on_ack");
    for kind in CcaKind::ALL {
        g.bench_function(kind.name(), |b| {
            let mut cc = kind.build(&cca::CcaConfig::new(1448));
            let ev = AckEvent {
                now: SimTime::from_millis(3),
                newly_acked_bytes: 2896,
                rtt_sample: Some(SimDuration::from_micros(120)),
                srtt: SimDuration::from_micros(110),
                min_rtt: SimDuration::from_micros(100),
                bytes_in_flight: 100_000,
                delivery_rate: Some(Rate::from_gbps(9.0)),
                app_limited: false,
                ce_marked_bytes: 0,
                ecn_echo: false,
                cum_acked: 1_000_000,
                round: 5,
                in_recovery: false,
                int: netsim::packet::IntRecord {
                    queue_bytes: 20_000,
                    util_x1000: 900,
                    link_mbps: 10_000,
                },
                cwnd_limited: true,
            };
            b.iter(|| {
                cc.on_ack(black_box(&ev));
                black_box(cc.cwnd())
            })
        });
    }
    g.finish();
}

criterion_group!(
    micro,
    bench_simulator_throughput,
    bench_scheduler,
    bench_queues,
    bench_scoreboard,
    bench_cca_ack_processing
);
criterion_main!(micro);
