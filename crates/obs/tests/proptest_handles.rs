//! The by-handle paths are the keyed paths with the lookup hoisted.
//!
//! `MetricsRegistry` and `TraceBuilder` each keep one storage and one
//! write path; the keyed methods resolve and then make the by-handle
//! call. These properties pin that from the outside: any interleaving
//! of operations yields the same snapshot, exposition text and trace
//! bytes whether each sample looks its series up or goes through a
//! handle resolved earlier, and the trace, rendered as each event is
//! recorded, is byte for byte what a two-pass renderer kept here as an
//! oracle makes of the same events. The id tests pin the other half of the
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

/// The two-pass renderer `TraceBuilder` replaced, kept as the oracle for
/// its streamed document: every event is collected as a value, and the
/// document is rendered in one pass at the end — metadata first, then
/// the events in recording order.
mod two_pass {
    use obs::TrackKind;
    use std::collections::BTreeMap;
    use std::fmt::{self, Write as _};

    enum Ev {
        Counter {
            ts_ns: u64,
            pid: u32,
            name: &'static str,
            value: f64,
        },
        Instant {
            ts_ns: u64,
            pid: u32,
            name: &'static str,
        },
        Span {
            ts_ns: u64,
            dur_ns: u64,
            pid: u32,
            name: String,
        },
    }

    pub struct Reference {
        bin_ns: u64,
        track_names: BTreeMap<u32, String>,
        events: Vec<Ev>,
        /// `(pid, name)` → the open bin's `(bin, ts_ns, value)`.
        pending: BTreeMap<(u32, &'static str), (u64, u64, f64)>,
    }

    impl Reference {
        pub fn new(bin_ns: u64) -> Self {
            Reference {
                bin_ns,
                track_names: BTreeMap::new(),
                events: Vec::new(),
                pending: BTreeMap::new(),
            }
        }

        pub fn set_track_name(&mut self, kind: TrackKind, id: u32, name: &str) {
            self.track_names.insert(kind.pid(id), name.to_string());
        }

        pub fn counter(
            &mut self,
            ts_ns: u64,
            kind: TrackKind,
            id: u32,
            name: &'static str,
            value: f64,
        ) {
            let pid = kind.pid(id);
            if self.bin_ns == 0 {
                self.events.push(Ev::Counter {
                    ts_ns,
                    pid,
                    name,
                    value,
                });
                return;
            }
            let bin = ts_ns / self.bin_ns;
            if let Some((open, ts_ns, value)) =
                self.pending.insert((pid, name), (bin, ts_ns, value))
            {
                if open != bin {
                    self.events.push(Ev::Counter {
                        ts_ns,
                        pid,
                        name,
                        value,
                    });
                }
            }
        }

        pub fn instant(&mut self, ts_ns: u64, kind: TrackKind, id: u32, name: &'static str) {
            self.events.push(Ev::Instant {
                ts_ns,
                pid: kind.pid(id),
                name,
            });
        }

        pub fn span(&mut self, ts_ns: u64, dur_ns: u64, kind: TrackKind, id: u32, name: &str) {
            self.events.push(Ev::Span {
                ts_ns,
                dur_ns,
                pid: kind.pid(id),
                name: name.to_string(),
            });
        }

        pub fn flush_counters(&mut self) {
            for ((pid, name), (_, ts_ns, value)) in std::mem::take(&mut self.pending) {
                self.events.push(Ev::Counter {
                    ts_ns,
                    pid,
                    name,
                    value,
                });
            }
        }

        pub fn len(&self) -> usize {
            self.events.len()
        }

        pub fn json(&self) -> String {
            let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
            let mut first = true;
            let mut sep = |out: &mut String| {
                if !std::mem::take(&mut first) {
                    out.push(',');
                }
            };
            for (pid, name) in &self.track_names {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    JsonStr(name)
                );
            }
            for ev in &self.events {
                sep(&mut out);
                let _ = match ev {
                    Ev::Counter {
                        ts_ns,
                        pid,
                        name,
                        value,
                    } => write!(
                        out,
                        "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                        Micros(*ts_ns),
                        JsonStr(name),
                        JsonNum(*value)
                    ),
                    Ev::Instant { ts_ns, pid, name } => write!(
                        out,
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"s\":\"p\",\"name\":\"{}\"}}",
                        Micros(*ts_ns),
                        JsonStr(name)
                    ),
                    Ev::Span {
                        ts_ns,
                        dur_ns,
                        pid,
                        name,
                    } => write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\"}}",
                        Micros(*ts_ns),
                        Micros(*dur_ns),
                        JsonStr(name)
                    ),
                };
            }
            out.push_str("]}");
            out
        }
    }

    struct Micros(u64);

    impl fmt::Display for Micros {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
        }
    }

    struct JsonNum(f64);

    impl fmt::Display for JsonNum {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let v = self.0;
            if !v.is_finite() {
                f.write_str("0")
            } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
                write!(f, "{}", v as i64)
            } else {
                write!(f, "{v}")
            }
        }
    }

    struct JsonStr<'a>(&'a str);

    impl fmt::Display for JsonStr<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
            Ok(())
        }
    }
}

/// Event and track names, half of them needing JSON escapes.
const NAMES: [&str; 6] = [
    "transfer",
    "flow f0 (cubic)",
    "q\"uote \\ back",
    "tab\tnl\ncr\r",
    "ctl\u{1}\u{1f}",
    "ünï ✓",
];
/// Counter tracks, one of them needing an escape.
const STREAM_TRACKS: [&str; 3] = ["cwnd_bytes", "queue_bytes", "esc\"aped\\"];

#[derive(Clone, Copy, Debug)]
enum StreamOp {
    /// A keyed sample (`slot` false) or one through a cached slot.
    Counter {
        kind: usize,
        id: u32,
        track: usize,
        value: f64,
        slot: bool,
    },
    Instant {
        kind: usize,
        id: u32,
        name: usize,
    },
    /// A span that started `back_ns` before now.
    Span {
        kind: usize,
        id: u32,
        name: usize,
        back_ns: u64,
    },
    Name {
        kind: usize,
        id: u32,
        name: usize,
    },
}

fn stream_op() -> impl Strategy<Value = (u64, StreamOp)> {
    let value = prop_oneof![
        -4.0f64..4.0e6,
        (0u64..1 << 20).prop_map(|v| v as f64),
        1.0e15f64..1.0e17,
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
    ];
    let op =
        prop_oneof![
            (0usize..3, 0u32..3, 0usize..3, value, 0u8..2).prop_map(
                |(kind, id, track, value, slot)| StreamOp::Counter {
                    kind,
                    id,
                    track,
                    value,
                    slot: slot == 1,
                }
            ),
            (0usize..3, 0u32..3, 0usize..NAMES.len())
                .prop_map(|(kind, id, name)| StreamOp::Instant { kind, id, name }),
            (0usize..3, 0u32..3, 0usize..NAMES.len(), 0u64..5_000_000).prop_map(
                |(kind, id, name, back_ns)| StreamOp::Span {
                    kind,
                    id,
                    name,
                    back_ns
                }
            ),
            (0usize..3, 0u32..3, 0usize..NAMES.len()).prop_map(|(kind, id, name)| StreamOp::Name {
                kind,
                id,
                name
            }),
        ];
    (0u64..1_500, op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The document rendered as each event is recorded equals the one
    /// the two-pass renderer builds from the collected events: same
    /// bytes and the same event count at every step, whatever the mix of
    /// keyed and by-slot samples, downsampled or not, and with track
    /// names set before, between and after their tracks' events.
    #[test]
    fn streamed_document_matches_the_two_pass_renderer(
        ops in vec(stream_op(), 0..160),
        downsample in 0u64..2,
    ) {
        let bin_ns = downsample * 1_000;
        let mut streamed = TraceBuilder::new(bin_ns);
        let mut reference = two_pass::Reference::new(bin_ns);
        let mut slots: BTreeMap<(usize, u32, usize), obs::CounterSlot> = BTreeMap::new();
        let mut ts_ns = 0;
        for &(dt_ns, op) in &ops {
            ts_ns += dt_ns;
            match op {
                StreamOp::Counter { kind, id, track, value, slot } => {
                    let name = STREAM_TRACKS[track];
                    if slot {
                        let s = *slots.entry((kind, id, track)).or_insert_with(|| {
                            streamed.counter_slot(KINDS[kind], id, name)
                        });
                        streamed.counter_at(s, ts_ns, value);
                    } else {
                        streamed.counter(ts_ns, KINDS[kind], id, name, value);
                    }
                    reference.counter(ts_ns, KINDS[kind], id, name, value);
                }
                StreamOp::Instant { kind, id, name } => {
                    streamed.instant(ts_ns, KINDS[kind], id, NAMES[name]);
                    reference.instant(ts_ns, KINDS[kind], id, NAMES[name]);
                }
                StreamOp::Span { kind, id, name, back_ns } => {
                    let since = ts_ns.saturating_sub(back_ns);
                    streamed.span(since, ts_ns - since, KINDS[kind], id, NAMES[name]);
                    reference.span(since, ts_ns - since, KINDS[kind], id, NAMES[name]);
                }
                StreamOp::Name { kind, id, name } => {
                    streamed.set_track_name(KINDS[kind], id, NAMES[name]);
                    reference.set_track_name(KINDS[kind], id, NAMES[name]);
                }
            }
            prop_assert_eq!(streamed.len(), reference.len());
        }
        streamed.flush_counters();
        reference.flush_counters();
        prop_assert_eq!(streamed.len(), reference.len());
        prop_assert_eq!(streamed.is_empty(), reference.len() == 0);
        prop_assert_eq!(streamed.json(), reference.json());
    }
}

#[test]
fn documents_without_events_or_without_names_match_the_two_pass_renderer() {
    let empty = TraceBuilder::new(0);
    assert_eq!(
        empty.json(),
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
    );
    let mut named = TraceBuilder::new(0);
    let mut reference = two_pass::Reference::new(0);
    for id in [2, 0] {
        named.set_track_name(TrackKind::Queue, id, NAMES[3]);
        reference.set_track_name(TrackKind::Queue, id, NAMES[3]);
    }
    assert_eq!(named.json(), reference.json());
    let mut unnamed = TraceBuilder::new(0);
    let mut reference = two_pass::Reference::new(0);
    unnamed.instant(1, TrackKind::Host, 0, NAMES[2]);
    reference.instant(1, TrackKind::Host, 0, NAMES[2]);
    assert_eq!(unnamed.json(), reference.json());
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
