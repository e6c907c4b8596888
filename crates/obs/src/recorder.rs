//! The instrumentation seam.
//!
//! Simulation crates call [`Recorder`] methods at interesting moments;
//! every method has a no-op default body, so an uninstrumented run pays
//! one `Option`/vtable check per site and nothing else — the golden
//! determinism fingerprint and the perf baseline see the exact same
//! event stream either way. [`ObsRecorder`] is the real implementation:
//! it fans each callback out to the metrics registry, the per-flow
//! flight recorder, and the Perfetto trace builder.
//!
//! The trait speaks plain integers (`u64` sim-nanoseconds, `u32` ids)
//! so `obs` stays below `netsim` in the dependency graph; callers adapt
//! their typed ids at the call site.

use crate::entity::EntityTable;
use crate::flight::{FlightRecorder, FlowEvent, DEFAULT_FLIGHT_CAPACITY};
use crate::metrics::{labels, CounterId, HistId, Labels, MetricsRegistry, MetricsSnapshot};
use crate::perfetto::{CounterSlot, TraceBuilder, TrackKind, DEFAULT_COUNTER_BIN_NS};
use std::cell::RefCell;
use std::rc::Rc;

/// Observer of simulation moments. All methods default to no-ops.
pub trait Recorder {
    /// A typed per-flow event (cwnd move, loss, RTO, ...).
    fn flow_event(&mut self, at_ns: u64, flow: u32, event: FlowEvent) {
        let _ = (at_ns, flow, event);
    }

    /// Queue occupancy on a link changed (bytes queued after the change).
    fn queue_depth(&mut self, at_ns: u64, link: u32, bytes: u64) {
        let _ = (at_ns, link, bytes);
    }

    /// A packet was dropped at a link queue. `injected` distinguishes
    /// fault-injected drops from genuine overflow.
    fn queue_drop(&mut self, at_ns: u64, link: u32, flow: u32, injected: bool) {
        let _ = (at_ns, link, flow, injected);
    }

    /// A packet was ECN-marked at a link queue.
    fn queue_mark(&mut self, at_ns: u64, link: u32, flow: u32) {
        let _ = (at_ns, link, flow);
    }

    /// A link's utilization estimate at transmit time, in `[0, 1]`.
    fn link_utilization(&mut self, at_ns: u64, link: u32, fraction: f64) {
        let _ = (at_ns, link, fraction);
    }

    /// A host power sample (average Watts over the sample's bin).
    fn power_sample(&mut self, at_ns: u64, host: u32, watts: f64) {
        let _ = (at_ns, host, watts);
    }

    /// The engine dispatched a batch of `pkts` same-timestamp arrivals
    /// to one host agent in a single callback. Fired once per dispatch
    /// (a non-coalesced delivery reports `pkts = 1`), so the histogram
    /// of values is the delivery batch-size distribution.
    fn dispatch_batch(&mut self, at_ns: u64, node: u32, pkts: u32) {
        let _ = (at_ns, node, pkts);
    }

    /// Occupancy of a flow table changed: `live` entries out of
    /// `capacity` allocated slots. Fired at attach/detach time, not per
    /// event, so it is off every hot path.
    fn flow_table_occupancy(&mut self, at_ns: u64, live: u64, capacity: u64) {
        let _ = (at_ns, live, capacity);
    }
}

/// A recorder that records nothing. Useful for measuring the pure cost
/// of the instrumentation seam (`obs.noop_overhead_ratio` on the
/// benchmark ledger).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// How instrumented callers share one recorder: the simulation is
/// single-threaded, so a plain `Rc<RefCell<..>>` carries it between
/// the engine, the transport agents, and the scenario driver.
pub type SharedRecorder = Rc<RefCell<dyn Recorder>>;

fn flow_labels(flow: u32) -> Labels {
    labels([("flow", format!("f{flow}"))])
}

fn link_labels(link: u32) -> Labels {
    labels([("link", format!("l{link}"))])
}

fn host_labels(host: u32) -> Labels {
    labels([("host", format!("n{host}"))])
}

/// What the recorder keeps per flow: the handles its samples write
/// through and the flow's open episodes. A metric handle is resolved the
/// first time that metric is recorded, because a resolved series is
/// exported; a trace track is resolved with the entity, because a track
/// without samples emits nothing.
#[derive(Clone, Debug)]
struct FlowObs {
    rtt: Option<HistId>,
    power: Option<HistId>,
    lost_bytes: Option<CounterId>,
    recoveries: Option<CounterId>,
    rto: Option<CounterId>,
    ecn_marked_bytes: Option<CounterId>,
    pacing_stalls: Option<CounterId>,
    retx: Option<CounterId>,
    cwnd_track: CounterSlot,
    rtt_track: CounterSlot,
    /// Entry instant of the open fast-recovery episode.
    open_recovery: Option<u64>,
    /// Start instant of the transfer, until a terminal event closes it.
    started_at: Option<u64>,
}

impl FlowObs {
    fn new(trace: &mut TraceBuilder, flow: u32) -> Self {
        FlowObs {
            rtt: None,
            power: None,
            lost_bytes: None,
            recoveries: None,
            rto: None,
            ecn_marked_bytes: None,
            pacing_stalls: None,
            retx: None,
            cwnd_track: trace.counter_slot(TrackKind::Flow, flow, "cwnd_bytes"),
            rtt_track: trace.counter_slot(TrackKind::Flow, flow, "rtt_ns"),
            open_recovery: None,
            started_at: None,
        }
    }
}

/// Per-link handles, resolved by the same rule as [`FlowObs`]'s.
#[derive(Clone, Debug)]
struct LinkObs {
    depth: Option<HistId>,
    /// `queue_drops_total` by `injected` = no / yes.
    drops: [Option<CounterId>; 2],
    ce_marks: Option<CounterId>,
    queue_track: CounterSlot,
    utilization_track: CounterSlot,
}

impl LinkObs {
    fn new(trace: &mut TraceBuilder, link: u32) -> Self {
        LinkObs {
            depth: None,
            drops: [None; 2],
            ce_marks: None,
            queue_track: trace.counter_slot(TrackKind::Queue, link, "queue_bytes"),
            utilization_track: trace.counter_slot(TrackKind::Queue, link, "utilization"),
        }
    }
}

/// Per-host handles, resolved by the same rule as [`FlowObs`]'s.
#[derive(Clone, Debug)]
struct HostObs {
    power: Option<HistId>,
    power_track: CounterSlot,
}

impl HostObs {
    fn new(trace: &mut TraceBuilder, host: u32) -> Self {
        HostObs {
            power: None,
            power_track: trace.counter_slot(TrackKind::Host, host, "power_w"),
        }
    }
}

/// Handles of the label-free metrics.
#[derive(Clone, Debug)]
struct GlobalObs {
    dispatch_batch: Option<HistId>,
    flow_table_live: Option<HistId>,
    flow_table_track: CounterSlot,
    flows_started: Option<CounterId>,
    flows_completed: Option<CounterId>,
    flows_aborted: Option<CounterId>,
}

/// The full observability pipeline: metrics + flight recorder + trace.
///
/// The hooks resolve each `(metric, entity)` once — the keyed lookup
/// that formats the label and walks the registry — and keep the handle
/// in a per-entity table; every later sample is an indexed write.
#[derive(Clone, Debug)]
pub struct ObsRecorder {
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    trace: TraceBuilder,
    flows: EntityTable<FlowObs>,
    links: EntityTable<LinkObs>,
    hosts: EntityTable<HostObs>,
    global: GlobalObs,
}

impl Default for ObsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsRecorder {
    /// Recorder with default flight capacity and counter downsampling.
    pub fn new() -> Self {
        Self::with_config(DEFAULT_FLIGHT_CAPACITY, DEFAULT_COUNTER_BIN_NS)
    }

    /// Recorder with explicit per-flow ring capacity and counter
    /// downsampling bin (`0` disables downsampling).
    pub fn with_config(flight_capacity: usize, counter_bin_ns: u64) -> Self {
        let mut trace = TraceBuilder::new(counter_bin_ns);
        let global = GlobalObs {
            dispatch_batch: None,
            flow_table_live: None,
            flow_table_track: trace.counter_slot(TrackKind::Host, 0, "flow_table_occupancy"),
            flows_started: None,
            flows_completed: None,
            flows_aborted: None,
        };
        ObsRecorder {
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::new(flight_capacity),
            trace,
            flows: EntityTable::default(),
            links: EntityTable::default(),
            hosts: EntityTable::default(),
            global,
        }
    }

    /// Direct access to the registry, for wiring code that records
    /// run-level facts (pktlog overflow, final stats).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Direct access to the trace builder, for wiring code that feeds
    /// post-run series (per-flow throughput bins) or names tracks.
    pub fn trace_mut(&mut self) -> &mut TraceBuilder {
        &mut self.trace
    }

    /// Name the viewer track for a flow.
    pub fn name_flow(&mut self, flow: u32, name: &str) {
        self.trace.set_track_name(TrackKind::Flow, flow, name);
    }

    /// Name the viewer track for a host.
    pub fn name_host(&mut self, host: u32, name: &str) {
        self.trace.set_track_name(TrackKind::Host, host, name);
    }

    /// Name the viewer track for a link queue.
    pub fn name_queue(&mut self, link: u32, name: &str) {
        self.trace.set_track_name(TrackKind::Queue, link, name);
    }

    /// `link`'s handles, with the two sinks they write to.
    #[inline]
    fn link(&mut self, link: u32) -> (&mut LinkObs, &mut MetricsRegistry, &mut TraceBuilder) {
        let trace = &mut self.trace;
        let l = self
            .links
            .get_or_insert_with(link, || LinkObs::new(trace, link));
        (l, &mut self.metrics, trace)
    }

    /// Close open episodes, flush counter tails, snapshot the registry
    /// at `end_ns`, and render the trace — the run is over.
    pub fn finalize(mut self, end_ns: u64) -> ObsReport {
        let trace = &mut self.trace;
        let mut close = |flow: u32, since: Option<u64>, name: &str| {
            if let Some(since) = since {
                trace.span(
                    since,
                    end_ns.saturating_sub(since),
                    TrackKind::Flow,
                    flow,
                    name,
                );
            }
        };
        for (flow, f) in self.flows.iter() {
            close(flow, f.open_recovery, "fast_recovery");
        }
        for (flow, f) in self.flows.iter() {
            // Never saw a terminal event: the flow was still running.
            close(flow, f.started_at, "transfer (unfinished)");
        }
        let evicted = self.flight.total_overflowed();
        if evicted > 0 {
            self.metrics
                .counter_add("obs_flight_evicted_total", Labels::new(), evicted);
        }
        self.trace.flush_counters();
        ObsReport {
            metrics: self.metrics.snapshot(end_ns),
            flight: self.flight,
            trace_json: self.trace.json(),
        }
    }
}

/// Span the transfer `f` started, if it is still open, up to `at_ns`.
fn close_transfer(trace: &mut TraceBuilder, f: &mut FlowObs, at_ns: u64, flow: u32, name: &str) {
    if let Some(since) = f.started_at.take() {
        trace.span(
            since,
            at_ns.saturating_sub(since),
            TrackKind::Flow,
            flow,
            name,
        );
    }
}

impl Recorder for ObsRecorder {
    fn flow_event(&mut self, at_ns: u64, flow: u32, event: FlowEvent) {
        self.flight.record(flow, at_ns, event);
        let ObsRecorder {
            metrics,
            trace,
            flows,
            global,
            ..
        } = self;
        let f = flows.get_or_insert_with(flow, || FlowObs::new(trace, flow));
        match event {
            FlowEvent::CwndChange { cwnd_bytes } => {
                trace.counter_at(f.cwnd_track, at_ns, cwnd_bytes as f64);
            }
            FlowEvent::RttSample { rtt_ns } => {
                let id = *f.rtt.get_or_insert_with(|| {
                    metrics.histogram_handle("tcp_rtt_ns", flow_labels(flow))
                });
                metrics.observe_at(id, rtt_ns);
                trace.counter_at(f.rtt_track, at_ns, rtt_ns as f64);
            }
            FlowEvent::Loss { bytes } => {
                let id = *f.lost_bytes.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_lost_bytes_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, bytes);
                trace.instant(at_ns, TrackKind::Flow, flow, "loss");
            }
            FlowEvent::RecoveryEnter => {
                let id = *f.recoveries.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_recoveries_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, 1);
                f.open_recovery.get_or_insert(at_ns);
            }
            FlowEvent::RecoveryExit => {
                if let Some(since) = f.open_recovery.take() {
                    trace.span(
                        since,
                        at_ns.saturating_sub(since),
                        TrackKind::Flow,
                        flow,
                        "fast_recovery",
                    );
                }
            }
            FlowEvent::Rto { .. } => {
                let id = *f.rto.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_rto_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, 1);
                trace.instant(at_ns, TrackKind::Flow, flow, "rto");
            }
            FlowEvent::EcnMark { bytes } => {
                let id = *f.ecn_marked_bytes.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_ecn_marked_bytes_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, bytes);
                trace.instant(at_ns, TrackKind::Flow, flow, "ecn_mark");
            }
            FlowEvent::PacingStall { .. } => {
                // Flight ring + counter only: pacing stalls are far too
                // frequent to be useful as trace instants.
                let id = *f.pacing_stalls.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_pacing_stalls_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, 1);
            }
            FlowEvent::Retransmit { .. } => {
                let id = *f.retx.get_or_insert_with(|| {
                    metrics.counter_handle("tcp_retx_total", flow_labels(flow))
                });
                metrics.counter_add_at(id, 1);
                trace.instant(at_ns, TrackKind::Flow, flow, "retx");
            }
            FlowEvent::EnergySample { milliwatts } => {
                let id = *f.power.get_or_insert_with(|| {
                    metrics.histogram_handle("flow_power_mw", flow_labels(flow))
                });
                metrics.observe_at(id, milliwatts);
            }
            FlowEvent::Started => {
                let id = *global.flows_started.get_or_insert_with(|| {
                    metrics.counter_handle("flows_started_total", Labels::new())
                });
                metrics.counter_add_at(id, 1);
                f.started_at.get_or_insert(at_ns);
            }
            FlowEvent::Completed => {
                let id = *global.flows_completed.get_or_insert_with(|| {
                    metrics.counter_handle("flows_completed_total", Labels::new())
                });
                metrics.counter_add_at(id, 1);
                close_transfer(trace, f, at_ns, flow, "transfer");
            }
            FlowEvent::Aborted => {
                let id = *global.flows_aborted.get_or_insert_with(|| {
                    metrics.counter_handle("flows_aborted_total", Labels::new())
                });
                metrics.counter_add_at(id, 1);
                trace.instant(at_ns, TrackKind::Flow, flow, "aborted");
                close_transfer(trace, f, at_ns, flow, "transfer (aborted)");
            }
        }
    }

    fn queue_depth(&mut self, at_ns: u64, link: u32, bytes: u64) {
        let (l, metrics, trace) = self.link(link);
        let id = *l.depth.get_or_insert_with(|| {
            metrics.histogram_handle("queue_depth_bytes", link_labels(link))
        });
        metrics.observe_at(id, bytes);
        trace.counter_at(l.queue_track, at_ns, bytes as f64);
    }

    fn queue_drop(&mut self, at_ns: u64, link: u32, flow: u32, injected: bool) {
        let _ = flow;
        let (l, metrics, trace) = self.link(link);
        let id = *l.drops[usize::from(injected)].get_or_insert_with(|| {
            let mut labels = link_labels(link);
            labels.insert("injected", if injected { "yes" } else { "no" }.to_string());
            metrics.counter_handle("queue_drops_total", labels)
        });
        metrics.counter_add_at(id, 1);
        trace.instant(at_ns, TrackKind::Queue, link, "drop");
    }

    fn queue_mark(&mut self, at_ns: u64, link: u32, flow: u32) {
        let _ = flow;
        let (l, metrics, trace) = self.link(link);
        let id = *l.ce_marks.get_or_insert_with(|| {
            metrics.counter_handle("queue_ce_marks_total", link_labels(link))
        });
        metrics.counter_add_at(id, 1);
        trace.instant(at_ns, TrackKind::Queue, link, "ce_mark");
    }

    fn link_utilization(&mut self, at_ns: u64, link: u32, fraction: f64) {
        let (l, _, trace) = self.link(link);
        trace.counter_at(l.utilization_track, at_ns, fraction);
    }

    fn power_sample(&mut self, at_ns: u64, host: u32, watts: f64) {
        let mw = (watts * 1_000.0).round().max(0.0) as u64;
        let ObsRecorder {
            metrics,
            trace,
            hosts,
            ..
        } = self;
        let h = hosts.get_or_insert_with(host, || HostObs::new(trace, host));
        let id = *h
            .power
            .get_or_insert_with(|| metrics.histogram_handle("host_power_mw", host_labels(host)));
        metrics.observe_at(id, mw);
        trace.counter_at(h.power_track, at_ns, watts);
    }

    fn dispatch_batch(&mut self, at_ns: u64, node: u32, pkts: u32) {
        let _ = (at_ns, node);
        // One workspace-wide histogram: per-host label cardinality at
        // population scale (10k hosts) would swamp the registry for a
        // distribution that is interesting in aggregate.
        let metrics = &mut self.metrics;
        let id = *self
            .global
            .dispatch_batch
            .get_or_insert_with(|| metrics.histogram_handle("dispatch_batch_pkts", Labels::new()));
        metrics.observe_at(id, pkts as u64);
    }

    fn flow_table_occupancy(&mut self, at_ns: u64, live: u64, capacity: u64) {
        let metrics = &mut self.metrics;
        let id = *self
            .global
            .flow_table_live
            .get_or_insert_with(|| metrics.histogram_handle("flow_table_live", Labels::new()));
        metrics.observe_at(id, live);
        self.trace.counter_at(
            self.global.flow_table_track,
            at_ns,
            if capacity == 0 {
                0.0
            } else {
                live as f64 / capacity as f64
            },
        );
    }
}

/// Everything observability produced for one finished run.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// Metrics frozen at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Per-flow flight rings.
    pub flight: FlightRecorder,
    trace_json: String,
}

impl ObsReport {
    /// The rendered Chrome-trace/Perfetto JSON document.
    pub fn perfetto_json(&self) -> &str {
        &self.trace_json
    }

    /// The metrics snapshot in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// One flow's flight ring, rendered.
    pub fn flight_dump_flow(&self, flow: u32) -> String {
        self.flight.dump_flow(flow)
    }

    /// Every flight ring, rendered.
    pub fn flight_dump(&self) -> String {
        self.flight.dump_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let mut r = NoopRecorder;
        r.flow_event(1, 0, FlowEvent::Started);
        r.queue_depth(2, 0, 100);
        r.queue_drop(3, 0, 0, false);
        r.queue_mark(4, 0, 0);
        r.link_utilization(5, 0, 0.5);
        r.power_sample(6, 0, 21.5);
    }

    #[test]
    fn obs_recorder_routes_events_to_all_three_sinks() {
        let mut r = ObsRecorder::with_config(16, 0);
        r.name_flow(0, "flow f0");
        r.flow_event(0, 0, FlowEvent::Started);
        r.flow_event(10, 0, FlowEvent::CwndChange { cwnd_bytes: 14_480 });
        r.flow_event(20, 0, FlowEvent::RttSample { rtt_ns: 200_000 });
        r.flow_event(30, 0, FlowEvent::Rto { consecutive: 1 });
        r.flow_event(40, 0, FlowEvent::Completed);
        r.queue_drop(15, 2, 0, false);
        let report = r.finalize(50);
        assert_eq!(
            report.metrics.counter("tcp_rto_total", &flow_labels(0)),
            Some(1)
        );
        assert_eq!(report.metrics.counter_total("queue_drops_total"), 1);
        assert!(report
            .metrics
            .histogram("tcp_rtt_ns", &flow_labels(0))
            .is_some());
        let json = report.perfetto_json();
        assert!(json.contains("\"name\":\"rto\""));
        assert!(json.contains("\"name\":\"transfer\""));
        assert!(json.contains("cwnd_bytes"));
        assert!(report.flight_dump_flow(0).contains("rto #1"));
        assert!(report.prometheus_text().contains("flows_completed_total 1"));
    }

    #[test]
    fn recovery_episodes_become_spans() {
        let mut r = ObsRecorder::with_config(16, 0);
        r.flow_event(100, 3, FlowEvent::RecoveryEnter);
        r.flow_event(400, 3, FlowEvent::RecoveryExit);
        // A second episode left open at finalize closes at end.
        r.flow_event(500, 3, FlowEvent::RecoveryEnter);
        let report = r.finalize(900);
        let json = report.perfetto_json();
        assert!(json.contains("fast_recovery"));
        assert!(json.contains("\"dur\":0.300"));
        assert!(json.contains("\"dur\":0.400"));
    }
}
