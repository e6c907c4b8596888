//! The by-handle paths are the keyed paths with the lookup hoisted.
//!
//! `MetricsRegistry` and `TraceBuilder` each keep one storage and one
//! write path; the keyed methods resolve and then make the by-handle
//! call. These properties pin that from the outside: any interleaving
//! of operations yields the same snapshot, exposition text and trace
//! bytes whether each sample looks its series up or goes through a
//! handle resolved earlier. The id tests pin the other half of the
//! contract: per-entity state is reached by index, yet memory follows
//! the entities seen — not the largest id — and a warmed-up sample
//! allocates nothing.

use obs::{
    labels, CounterId, FlightRecorder, FlowEvent, HistId, Labels, MetricsRegistry, ObsRecorder,
    Recorder, TraceBuilder, TrackKind,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Counts this thread's allocations (the test harness runs tests on
/// parallel threads, so a process-wide count would see the neighbours).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local
// `Cell`s touched through `try_with`, so counting neither allocates nor
// panics (not even during thread teardown, when the slot is gone).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` on this thread while `f` ran.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        ALLOC_BYTES.with(Cell::get) - before.1,
    )
}

const COUNTERS: [&str; 3] = ["tcp_retx_total", "tcp_rto_total", "queue_drops_total"];
const HISTOGRAMS: [&str; 3] = ["tcp_rtt_ns", "queue_depth_bytes", "host_power_mw"];

/// Label set of an entity: none, one label, or two (the second one
/// sorting after `le`, so bucket lines put `le` in the middle).
fn entity_labels(entity: u32) -> Labels {
    match entity {
        0 => Labels::new(),
        e if e % 2 == 1 => labels([("flow", format!("f{e}"))]),
        e => labels([
            ("injected", "no".to_string()),
            ("link", format!("l\"{e}\\")),
        ]),
    }
}

#[derive(Clone, Copy, Debug)]
enum MetricOp {
    Count {
        metric: usize,
        entity: u32,
        delta: u64,
    },
    Observe {
        metric: usize,
        entity: u32,
        value: u64,
    },
    /// Freeze both registries and compare; recording continues.
    Snapshot,
}

fn metric_op() -> impl Strategy<Value = MetricOp> {
    prop_oneof![
        (0usize..3, 0u32..5, 0u64..1_000).prop_map(|(metric, entity, delta)| MetricOp::Count {
            metric,
            entity,
            delta
        }),
        (0usize..3, 0u32..5, 0u64..u64::MAX).prop_map(|(metric, entity, value)| {
            MetricOp::Observe {
                metric,
                entity,
                // Spread over the whole bucket range, small values included.
                value: value >> (value % 64),
            }
        }),
        Just(MetricOp::Snapshot),
    ]
}

#[derive(Clone, Copy, Debug)]
struct TraceOp {
    kind: usize,
    id: u32,
    name: usize,
    dt_ns: u64,
    value: f64,
}

const KINDS: [TrackKind; 3] = [TrackKind::Flow, TrackKind::Host, TrackKind::Queue];
const TRACKS: [&str; 3] = ["cwnd_bytes", "rtt_ns", "utilization"];

fn trace_op() -> impl Strategy<Value = TraceOp> {
    (0usize..3, 0u32..3, 0usize..3, 0u64..700, -4.0f64..4.0e6).prop_map(
        |(kind, id, name, dt_ns, value)| TraceOp {
            kind,
            id,
            name,
            dt_ns,
            value,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Handles resolved on first use — as the recorder does — and kept
    /// across mid-run snapshots write the same registry as keyed calls.
    #[test]
    fn by_handle_and_keyed_metrics_agree(ops in vec(metric_op(), 0..120)) {
        let mut keyed = MetricsRegistry::new();
        let mut handled = MetricsRegistry::new();
        let mut counters: BTreeMap<(usize, u32), CounterId> = BTreeMap::new();
        let mut hists: BTreeMap<(usize, u32), HistId> = BTreeMap::new();
        for (at, op) in ops.iter().enumerate() {
            match *op {
                MetricOp::Count { metric, entity, delta } => {
                    keyed.counter_add(COUNTERS[metric], entity_labels(entity), delta);
                    let id = *counters.entry((metric, entity)).or_insert_with(|| {
                        handled.counter_handle(COUNTERS[metric], entity_labels(entity))
                    });
                    handled.counter_add_at(id, delta);
                }
                MetricOp::Observe { metric, entity, value } => {
                    keyed.observe(HISTOGRAMS[metric], entity_labels(entity), value);
                    let id = *hists.entry((metric, entity)).or_insert_with(|| {
                        handled.histogram_handle(HISTOGRAMS[metric], entity_labels(entity))
                    });
                    handled.observe_at(id, value);
                }
                MetricOp::Snapshot => {
                    prop_assert_eq!(keyed.snapshot(at as u64), handled.snapshot(at as u64));
                }
            }
        }
        let (a, b) = (keyed.snapshot(9), handled.snapshot(9));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    /// Slots resolved up front, in an order unrelated to `(pid, name)`
    /// and including tracks that never get a sample, render the same
    /// document as per-sample keyed lookups — downsampled or not.
    #[test]
    fn slot_and_keyed_trace_counters_agree(
        ops in vec(trace_op(), 0..150),
        downsample in 0u64..2,
        rotate in 0usize..27,
    ) {
        let bin_ns = downsample * 1_000;
        let mut keyed = TraceBuilder::new(bin_ns);
        let mut slotted = TraceBuilder::new(bin_ns);
        let mut all: Vec<(usize, u32, usize)> = Vec::new();
        for kind in 0..3 {
            for id in 0..3u32 {
                for name in 0..3 {
                    all.push((kind, id, name));
                }
            }
        }
        all.reverse();
        all.rotate_left(rotate);
        let slots: BTreeMap<(usize, u32, usize), obs::CounterSlot> = all
            .iter()
            .map(|&(kind, id, name)| {
                ((kind, id, name), slotted.counter_slot(KINDS[kind], id, TRACKS[name]))
            })
            .collect();
        let mut ts_ns = 0;
        for op in &ops {
            ts_ns += op.dt_ns;
            keyed.counter(ts_ns, KINDS[op.kind], op.id, TRACKS[op.name], op.value);
            slotted.counter_at(slots[&(op.kind, op.id, op.name)], ts_ns, op.value);
        }
        keyed.flush_counters();
        slotted.flush_counters();
        prop_assert_eq!(keyed.len(), slotted.len());
        prop_assert_eq!(keyed.json(), slotted.json());
    }
}

const SPARSE_FLOWS: [u32; 3] = [7, 4_000_000_000, 0];

#[test]
fn sparse_flow_ids_cost_memory_per_flow_seen_not_per_id() {
    let mut flight = FlightRecorder::new(8);
    let mut rec = ObsRecorder::with_config(8, 1_000);
    let (_, bytes) = allocations_during(|| {
        for round in 0..4u64 {
            for flow in SPARSE_FLOWS {
                flight.record(flow, round, FlowEvent::Started);
                rec.flow_event(
                    round,
                    flow,
                    FlowEvent::RttSample {
                        rtt_ns: 100 + round,
                    },
                );
                rec.queue_depth(round, flow, 1_500);
                rec.power_sample(round, flow, 21.5);
            }
        }
    });
    assert!(
        bytes < 64 * 1024,
        "three sparse ids allocated {bytes} bytes"
    );
    assert_eq!(
        flight.flows().collect::<Vec<_>>(),
        vec![0, 7, 4_000_000_000]
    );
    let report = rec.finalize(10);
    let dump = report.flight_dump();
    let at = |flow: &str| {
        dump.find(flow)
            .unwrap_or_else(|| panic!("{flow} in {dump}"))
    };
    assert!(at("flow f0:") < at("flow f7:") && at("flow f7:") < at("flow f4000000000:"));
    assert_eq!(report.flight.ring(4_000_000_000).map(|r| r.seen()), Some(4));
    assert!(report
        .prometheus_text()
        .contains("tcp_rtt_ns_count{flow=\"f4000000000\"} 4"));
}

#[test]
fn a_warmed_up_sample_allocates_nothing() {
    // Every sample lands in one downsampling bin and the rings are
    // full, so nothing the hooks touch has a reason to grow.
    let mut rec = ObsRecorder::with_config(4, 1 << 40);
    let samples = |rec: &mut ObsRecorder, at_ns: u64| {
        for flow in SPARSE_FLOWS {
            rec.flow_event(at_ns, flow, FlowEvent::CwndChange { cwnd_bytes: 14_480 });
            rec.flow_event(at_ns, flow, FlowEvent::RttSample { rtt_ns: 200_000 });
            rec.flow_event(at_ns, flow, FlowEvent::PacingStall { until_ns: at_ns });
            rec.flow_event(at_ns, flow, FlowEvent::EnergySample { milliwatts: 21_500 });
            rec.queue_depth(at_ns, flow, 30_000);
            rec.link_utilization(at_ns, flow, 0.5);
            rec.power_sample(at_ns, flow, 21.5);
        }
        rec.dispatch_batch(at_ns, 1, 3);
        rec.flow_table_occupancy(at_ns, 2, 4);
    };
    samples(&mut rec, 1);
    samples(&mut rec, 2);
    let (allocs, _) = allocations_during(|| {
        for at_ns in 3..1_000 {
            samples(&mut rec, at_ns);
        }
    });
    assert_eq!(allocs, 0, "hook → in-memory event must not allocate");
    let text = rec.finalize(1_000).prometheus_text();
    assert!(text.contains("tcp_pacing_stalls_total{flow=\"f7\"} 999"));
}
