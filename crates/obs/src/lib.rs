//! Deterministic observability for the simulation workspace.
//!
//! Three pillars, one crate:
//!
//! 1. **Sim-time metrics** ([`metrics`]): counters, gauges, and
//!    log-linear HDR-style histograms ([`hist`]) keyed by static names
//!    plus small ordered label sets, snapshot-able at any sim instant
//!    and rendered as Prometheus text for campaign artifacts.
//! 2. **Per-flow flight recorder** ([`flight`]): a bounded ring of
//!    typed events per flow — the black box dumped when a flow aborts
//!    or a campaign cell fails.
//! 3. **Trace export** ([`perfetto`]): Chrome-trace/Perfetto JSON with
//!    one track per flow/queue/host, loadable in `ui.perfetto.dev` or
//!    `chrome://tracing`.
//!
//! Instrumented crates talk to all three through the [`Recorder`] seam
//! ([`recorder`]), whose methods default to no-ops: a run without a
//! recorder attached executes the identical event stream and keeps the
//! golden determinism fingerprint bit-for-bit.
//!
//! Determinism rules this crate obeys (and `simlint` enforces):
//! timestamps are caller-supplied sim-clock nanoseconds — never a wall
//! clock; every map is a `BTreeMap`; exposition text and trace JSON are
//! emitted by hand in a fixed order, so identical runs produce
//! byte-identical artifacts. Like `simlint`, the crate is std-only and
//! sits below `netsim` in the dependency graph: ids and timestamps are
//! plain integers, adapted by callers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entity;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod perfetto;
pub mod recorder;
pub mod recovery;
pub mod series;

pub use flight::{FlightEntry, FlightRecorder, FlightRing, FlowEvent};
pub use hist::Histogram;
pub use metrics::{labels, CounterId, HistId, Labels, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use perfetto::{CounterSlot, TraceBuilder, TrackKind};
pub use recorder::{NoopRecorder, ObsRecorder, ObsReport, Recorder, SharedRecorder};
