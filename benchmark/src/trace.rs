//! Spans recorded from the benchmark's own files, around calls into each
//! layer.
//!
//! A traced run opens tens of millions of spans, which do not fit in
//! memory, so the tracer aggregates as it goes — per `(layer, call)`: a
//! count, total time, and self time — and keeps only the first
//! [`RAW_SPAN_CAP`] raw spans as a readable sample. Self time is a span's
//! duration minus what its child spans covered, clamped at zero.
//!
//! The tracer lives in a thread-local because `netsim::queue::Qdisc` is
//! `Send`: a shim inside a link cannot hold an `Rc`, and the simulation
//! that calls the shims is single-threaded anyway.

use crate::clock;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept per traced run; later spans only feed the aggregate.
pub const RAW_SPAN_CAP: usize = 10_000;

/// Where a span was recorded: the layer (crate) and the call into it.
/// A closed set, so the hot path indexes an array instead of hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Topology and agent construction (`Network::new` .. `attach_agent`).
    Build,
    /// `Network::run_until`: the root of the simulation span tree.
    Run,
    /// `Agent::on_start` of a sender or receiver.
    AgentStart,
    /// `Agent::on_packet`.
    AgentPacket,
    /// `Agent::on_packets` (a same-timestamp batch).
    AgentPackets,
    /// `Agent::on_timer`.
    AgentTimer,
    /// `CongestionControl::on_ack`.
    CcAck,
    /// `CongestionControl::on_congestion_event`.
    CcCongestion,
    /// `CongestionControl::on_rto`.
    CcRto,
    /// `Qdisc::enqueue`.
    QdiscEnqueue,
    /// `Qdisc::dequeue`.
    QdiscDequeue,
    /// Any `obs::Recorder` hook.
    RecorderHook,
    /// `EnergyMeter::measure_host` / `HostPowerModel::power_series`.
    EnergyMeter,
    /// Feeding post-run series, `finalize`, and the three exporters.
    ObsExport,
    /// One campaign cell through the `run_campaign_with_runner` closure.
    Cell,
    /// One `greenenvy::{fig1..fig4, theorem}::run` call.
    Figure,
}

const SITES: usize = Site::Figure as usize + 1;

impl Site {
    /// The layer, named after its crate.
    pub const fn layer(self) -> &'static str {
        match self {
            Site::Build | Site::Run | Site::QdiscEnqueue | Site::QdiscDequeue => "netsim",
            Site::AgentStart | Site::AgentPacket | Site::AgentPackets | Site::AgentTimer => {
                "transport"
            }
            Site::CcAck | Site::CcCongestion | Site::CcRto => "cca",
            Site::RecorderHook | Site::ObsExport => "obs",
            Site::EnergyMeter => "energy",
            Site::Cell | Site::Figure => "core",
        }
    }

    /// The call the shim wraps.
    pub const fn call(self) -> &'static str {
        match self {
            Site::Build => "build",
            Site::Run => "run_until",
            Site::AgentStart => "on_start",
            Site::AgentPacket => "on_packet",
            Site::AgentPackets => "on_packets",
            Site::AgentTimer => "on_timer",
            Site::CcAck => "on_ack",
            Site::CcCongestion => "on_congestion_event",
            Site::CcRto => "on_rto",
            Site::QdiscEnqueue => "enqueue",
            Site::QdiscDequeue => "dequeue",
            Site::RecorderHook => "hook",
            Site::EnergyMeter => "meter",
            Site::ObsExport => "export",
            Site::Cell => "cell",
            Site::Figure => "figure",
        }
    }
}

/// Aggregate of every span recorded at one site.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SiteTotals {
    /// The layer, named after its crate.
    pub layer: String,
    /// The call the shim wraps.
    pub call: String,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span self times, seconds.
    pub self_s: f64,
}

/// One raw span. `parent` is the `id` of the span that was open when
/// this one started (`-1` for a root).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawSpan {
    /// Open-order sequence number, unique within the traced run.
    pub id: i64,
    /// `id` of the enclosing span, or `-1`.
    pub parent: i64,
    /// The layer, named after its crate.
    pub layer: String,
    /// The call the shim wraps.
    pub call: String,
    /// Start, nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced run began.
    pub end_ns: u64,
}

/// What one traced run recorded; the body of `trace_<workload>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Per-site aggregates, ordered by layer then call.
    pub aggregate: Vec<SiteTotals>,
    /// The first [`RAW_SPAN_CAP`] spans, in open order.
    pub spans: Vec<RawSpan>,
    /// Spans opened in total (aggregated, mostly not kept raw).
    pub spans_opened: u64,
}

impl TraceReport {
    /// A report of sibling spans recorded outside the thread-local tracer
    /// (campaign cells finish on worker threads): all at `site`, no
    /// nesting, so self time is the whole duration.
    pub fn from_flat(site: Site, spans: &[(u64, u64)]) -> TraceReport {
        let mut tracer = Tracer::new();
        let mut ordered = spans.to_vec();
        ordered.sort_unstable();
        for (start_ns, end_ns) in ordered {
            tracer.open_at(site, start_ns);
            tracer.close_at(end_ns);
        }
        tracer.report()
    }

    /// Aggregate for one site (zeros if it never fired).
    pub fn site(&self, layer: &str, call: &str) -> SiteTotals {
        self.aggregate
            .iter()
            .find(|s| s.layer == layer && s.call == call)
            .cloned()
            .unwrap_or(SiteTotals {
                layer: layer.to_string(),
                call: call.to_string(),
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            })
    }

    /// Sum a field over every site of a layer.
    fn layer_sum(&self, layer: &str, field: impl Fn(&SiteTotals) -> f64) -> f64 {
        self.aggregate
            .iter()
            .filter(|s| s.layer == layer)
            .map(field)
            .fold(0.0, |acc, x| acc + x)
    }

    /// Spans recorded in a layer.
    pub fn layer_count(&self, layer: &str) -> u64 {
        self.layer_sum(layer, |s| s.count as f64) as u64
    }

    /// Total span time of a layer, seconds.
    pub fn layer_total_s(&self, layer: &str) -> f64 {
        self.layer_sum(layer, |s| s.total_s)
    }

    /// Self time of a layer, seconds.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.layer_sum(layer, |s| s.self_s)
    }
}

struct Open {
    site: Site,
    id: u64,
    parent: i64,
    start_ns: u64,
    children_ns: u64,
}

#[derive(Clone, Copy, Default)]
struct SiteAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// The span recorder. Use through [`begin`], [`enter`]/[`Guard`] and
/// [`finish`].
struct Tracer {
    epoch: Instant,
    sites: [(Option<Site>, SiteAcc); SITES],
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    opened: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: clock::now(),
            sites: [(None, SiteAcc::default()); SITES],
            stack: Vec::new(),
            raw: Vec::new(),
            opened: 0,
        }
    }

    fn open_at(&mut self, site: Site, start_ns: u64) {
        let parent = self.stack.last().map_or(-1, |o| o.id as i64);
        self.stack.push(Open {
            site,
            id: self.opened,
            parent,
            start_ns,
            children_ns: 0,
        });
        self.opened += 1;
    }

    fn close_at(&mut self, end_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let slot = &mut self.sites[open.site as usize];
        slot.0 = Some(open.site);
        let acc = &mut slot.1;
        acc.count += 1;
        acc.total_ns += dur;
        // A child measured longer than its parent (clock granularity)
        // clamps to zero instead of going negative.
        acc.self_ns += dur.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if (open.id as usize) < RAW_SPAN_CAP {
            self.raw.push(RawSpan {
                id: open.id as i64,
                parent: open.parent,
                layer: open.site.layer().to_string(),
                call: open.site.call().to_string(),
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn report(mut self) -> TraceReport {
        let mut aggregate: Vec<SiteTotals> = self
            .sites
            .iter()
            .filter_map(|(site, acc)| {
                site.map(|site| SiteTotals {
                    layer: site.layer().to_string(),
                    call: site.call().to_string(),
                    count: acc.count,
                    total_s: acc.total_ns as f64 * 1e-9,
                    self_s: acc.self_ns as f64 * 1e-9,
                })
            })
            .collect();
        aggregate.sort_by(|a, b| (&a.layer, &a.call).cmp(&(&b.layer, &b.call)));
        self.raw.sort_by_key(|s| s.id);
        TraceReport {
            aggregate,
            spans: self.raw,
            spans_opened: self.opened,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding any unfinished recording.
pub fn begin() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stop recording on this thread and hand back what was recorded. Spans
/// still open are closed now.
pub fn finish() -> TraceReport {
    TRACER.with(|t| {
        let mut tracer = t.borrow_mut().take().unwrap_or_else(Tracer::new);
        while !tracer.stack.is_empty() {
            let now = tracer.now_ns();
            tracer.close_at(now);
        }
        tracer.report()
    })
}

/// Closes its span when dropped.
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                let now = tracer.now_ns();
                tracer.close_at(now);
            }
        });
    }
}

/// Open a span at `site`; it closes when the guard drops. A no-op when
/// no recording is in progress.
#[inline]
pub fn enter(site: Site) -> Guard {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            let now = tracer.now_ns();
            tracer.open_at(site, now);
        }
    });
    Guard(())
}

/// Time `f` as one span at `site`.
#[inline]
pub fn span<R>(site: Site, f: impl FnOnce() -> R) -> R {
    let _guard = enter(site);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Site = Site::Run;
    const AGENT: Site = Site::AgentPacket;
    const CCA: Site = Site::CcAck;

    /// Drive the tracer with explicit timestamps.
    fn scripted(script: impl FnOnce(&mut Tracer)) -> TraceReport {
        let mut t = Tracer::new();
        script(&mut t);
        t.report()
    }

    #[test]
    fn self_time_is_duration_minus_children_nested_two_deep() {
        // run [0, 100] > agent [10, 70] > cca [20, 50]
        let r = scripted(|t| {
            t.open_at(RUN, 0);
            t.open_at(AGENT, 10);
            t.open_at(CCA, 20);
            t.close_at(50);
            t.close_at(70);
            t.close_at(100);
        });
        let near = |got: f64, want_ns: f64| (got - want_ns * 1e-9).abs() < 1e-15;
        assert!(near(r.site("cca", "on_ack").self_s, 30.0));
        assert!(near(r.site("transport", "on_packet").total_s, 60.0));
        assert!(near(r.site("transport", "on_packet").self_s, 30.0));
        assert!(near(r.site("netsim", "run_until").self_s, 40.0));
        // Self times of the whole tree add up to the root span.
        let sum: f64 = r.aggregate.iter().map(|s| s.self_s).sum();
        assert!((sum - r.site("netsim", "run_until").total_s).abs() < 1e-15);
        // Raw spans come back in open order with their parents.
        let parents: Vec<i64> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![-1, 0, 1]);
    }

    #[test]
    fn child_longer_than_parent_clamps_self_time_to_zero() {
        let r = scripted(|t| {
            t.open_at(AGENT, 10);
            t.open_at(CCA, 5); // clock skew: child "starts" earlier
            t.close_at(40);
            t.close_at(30);
        });
        assert!((r.site("cca", "on_ack").total_s - 35e-9).abs() < 1e-15);
        assert!((r.site("transport", "on_packet").total_s - 20e-9).abs() < 1e-15);
        assert_eq!(r.site("transport", "on_packet").self_s, 0.0);
    }

    #[test]
    fn raw_spans_are_capped_but_the_aggregate_is_not() {
        let r = scripted(|t| {
            for i in 0..(RAW_SPAN_CAP as u64 + 50) {
                t.open_at(CCA, i * 10);
                t.close_at(i * 10 + 4);
            }
        });
        assert_eq!(r.spans.len(), RAW_SPAN_CAP);
        assert_eq!(r.spans_opened, RAW_SPAN_CAP as u64 + 50);
        assert_eq!(r.layer_count("cca"), RAW_SPAN_CAP as u64 + 50);
    }

    #[test]
    fn thread_local_recording_round_trips_and_is_inert_when_off() {
        // No recording: spans are free and recorded nowhere.
        assert_eq!(span(CCA, || 7), 7);
        begin();
        span(RUN, || span(AGENT, || span(CCA, || ())));
        let r = finish();
        assert_eq!(r.spans_opened, 3);
        assert_eq!(r.layer_count("transport"), 1);
        assert!(r.layer_total_s("netsim") >= r.layer_total_s("transport"));
        assert_eq!(finish().spans_opened, 0, "finish() consumed the recording");
    }
}
