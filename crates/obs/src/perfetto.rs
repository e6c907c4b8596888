//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the Trace Event Format (the JSON flavour both Perfetto and
//! `chrome://tracing` open directly): one *process* per simulated
//! entity — flow, host, or queue — named via `"M"` metadata events,
//! carrying `"C"` counter tracks (cwnd, queue depth, power), `"i"`
//! instants (loss, RTO, drop), and `"X"` duration spans (transfer,
//! recovery episodes).
//!
//! Each event is rendered into the document when it is recorded, so a
//! run holds its trace once, as the bytes it exports. The bytes are
//! reproducible by construction: events append in deterministic
//! simulation order, metadata sorts by pid and goes in front at the
//! end, timestamps are integer sim-nanoseconds rendered as fixed-point
//! microseconds, and the whole document is built by hand — no maps with
//! random iteration order, no float formatting that depends on locale.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// What kind of simulated entity a track models. Each kind owns a
/// disjoint pid range so ids never collide across kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrackKind {
    /// A transport flow (pid `1_000 + id`).
    Flow,
    /// A host / node (pid `1_000_000 + id`).
    Host,
    /// A link queue (pid `2_000_000 + id`).
    Queue,
}

impl TrackKind {
    /// The pid a `(kind, id)` pair maps to.
    pub fn pid(self, id: u32) -> u32 {
        match self {
            TrackKind::Flow => 1_000 + id,
            TrackKind::Host => 1_000_000 + id,
            TrackKind::Queue => 2_000_000 + id,
        }
    }
}

/// A counter sample buffered until its downsampling bin closes.
#[derive(Clone, Copy, Debug)]
struct Pending {
    bin: u64,
    ts_ns: u64,
    value: f64,
}

/// Default counter downsampling bin: one sample per track per 1 ms of
/// sim time. Keeps traces of multi-second runs in the tens of
/// kilobytes instead of tens of megabytes.
pub const DEFAULT_COUNTER_BIN_NS: u64 = 1_000_000;

/// A `(pid, name)` counter track resolved once by
/// [`TraceBuilder::counter_slot`]; samples through it are an indexed
/// write. Valid only on the builder that issued it (and its clones).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSlot(u32);

/// One counter track: its identity and the sample its open bin holds.
#[derive(Clone, Debug)]
struct CounterTrack {
    pid: u32,
    name: &'static str,
    pending: Option<Pending>,
}

/// The document's opening bytes, ahead of the first event.
const HEADER: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

/// The events recorded so far, already rendered: each one is `,{…}`,
/// in recording order.
#[derive(Clone, Debug, Default)]
struct Body {
    text: String,
    events: usize,
}

impl Body {
    fn counter(&mut self, ts_ns: u64, pid: u32, name: &str, value: f64) {
        self.events += 1;
        let _ = write!(
            self.text,
            ",{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
            Micros(ts_ns),
            JsonStr(name),
            JsonNum(value)
        );
    }

    fn instant(&mut self, ts_ns: u64, pid: u32, name: &str) {
        self.events += 1;
        let _ = write!(
            self.text,
            ",{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"s\":\"p\",\"name\":\"{}\"}}",
            Micros(ts_ns),
            JsonStr(name)
        );
    }

    fn span(&mut self, ts_ns: u64, dur_ns: u64, pid: u32, name: &str) {
        self.events += 1;
        let _ = write!(
            self.text,
            ",{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\"}}",
            Micros(ts_ns),
            Micros(dur_ns),
            JsonStr(name)
        );
    }
}

/// Renders each event into the document as it is recorded; the track
/// names, which may be set after their tracks' events, go in front when
/// the builder becomes the document ([`TraceBuilder::json`]).
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    track_names: BTreeMap<u32, String>,
    body: Body,
    /// Counter tracks in resolve order, reached by [`CounterSlot`].
    counters: Vec<CounterTrack>,
    /// `(pid, name)` → slot: walked on resolve and, for its order, on
    /// flush — never per sample on the by-slot path.
    counter_index: BTreeMap<(u32, &'static str), u32>,
    counter_bin_ns: u64,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new(DEFAULT_COUNTER_BIN_NS)
    }
}

impl TraceBuilder {
    /// Builder with the given counter downsampling bin (ns). `0` means
    /// no downsampling: every sample becomes an event.
    pub fn new(counter_bin_ns: u64) -> Self {
        TraceBuilder {
            track_names: BTreeMap::new(),
            body: Body::default(),
            counters: Vec::new(),
            counter_index: BTreeMap::new(),
            counter_bin_ns,
        }
    }

    /// Name the track for `(kind, id)`; shows as the process name in
    /// the viewer.
    pub fn set_track_name(&mut self, kind: TrackKind, id: u32, name: &str) {
        self.track_names.insert(kind.pid(id), name.to_string());
    }

    /// Resolve the counter track `name` of `(kind, id)` to its slot. A
    /// track that never gets a sample emits nothing.
    pub fn counter_slot(&mut self, kind: TrackKind, id: u32, name: &'static str) -> CounterSlot {
        let pid = kind.pid(id);
        let counters = &mut self.counters;
        let slot = *self.counter_index.entry((pid, name)).or_insert_with(|| {
            counters.push(CounterTrack {
                pid,
                name,
                pending: None,
            });
            u32::try_from(counters.len() - 1).expect("more counter tracks than u32 slots")
        });
        CounterSlot(slot)
    }

    /// Record a counter sample on a resolved track, downsampled to the
    /// last value per bin. Samples must arrive in non-decreasing
    /// `ts_ns` order per track (simulation order guarantees this).
    #[inline]
    pub fn counter_at(&mut self, slot: CounterSlot, ts_ns: u64, value: f64) {
        let track = &mut self.counters[slot.0 as usize];
        if self.counter_bin_ns == 0 {
            self.body.counter(ts_ns, track.pid, track.name, value);
            return;
        }
        let bin = ts_ns / self.counter_bin_ns;
        match &mut track.pending {
            Some(p) if p.bin == bin => {
                // Same bin: keep only the newest sample.
                p.ts_ns = ts_ns;
                p.value = value;
            }
            pending => {
                if let Some(flushed) = pending.replace(Pending { bin, ts_ns, value }) {
                    self.body
                        .counter(flushed.ts_ns, track.pid, track.name, flushed.value);
                }
            }
        }
    }

    /// Record a counter sample on the track `name` of `(kind, id)`:
    /// [`TraceBuilder::counter_slot`], then [`TraceBuilder::counter_at`].
    pub fn counter(
        &mut self,
        ts_ns: u64,
        kind: TrackKind,
        id: u32,
        name: &'static str,
        value: f64,
    ) {
        let slot = self.counter_slot(kind, id, name);
        self.counter_at(slot, ts_ns, value);
    }

    /// Record an instant event on the track.
    pub fn instant(&mut self, ts_ns: u64, kind: TrackKind, id: u32, name: &'static str) {
        self.body.instant(ts_ns, kind.pid(id), name);
    }

    /// Record a complete-duration (`"X"`) span on the track.
    pub fn span(&mut self, ts_ns: u64, dur_ns: u64, kind: TrackKind, id: u32, name: &str) {
        self.body.span(ts_ns, dur_ns, kind.pid(id), name);
    }

    /// Flush buffered counter samples (call once, at end of run; the
    /// tail sample of every track becomes its final event). Flushes in
    /// `(pid, name)` order, which is deterministic.
    pub fn flush_counters(&mut self) {
        for (&(pid, name), &slot) in &self.counter_index {
            if let Some(p) = self.counters[slot as usize].pending.take() {
                self.body.counter(p.ts_ns, pid, name, p.value);
            }
        }
    }

    /// Events recorded so far (metadata excluded).
    pub fn len(&self) -> usize {
        self.body.events
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.body.events == 0
    }

    /// The Trace Event Format document: the header and one `"M"` event
    /// per named track, in pid order, put in front of the events in
    /// place. Call after [`TraceBuilder::flush_counters`].
    pub fn json(self) -> String {
        let mut head = String::from(HEADER);
        for (pid, name) in &self.track_names {
            let _ = write!(
                head,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}},",
                JsonStr(name)
            );
        }
        let mut doc = self.body.text;
        if doc.is_empty() {
            // No event follows the last metadata's comma.
            if head.ends_with(',') {
                head.pop();
            }
            doc = head;
        } else {
            // The first event's leading comma gives way to the head,
            // which ends in `[` or in the last metadata's comma.
            doc.reserve_exact(head.len() + 1);
            doc.replace_range(..1, &head);
        }
        doc.push_str("]}");
        doc.shrink_to_fit();
        doc
    }
}

/// Integer sim-nanoseconds as the microsecond timestamps the format
/// expects, rendered fixed-point (`123.456`) so the bytes never depend
/// on float formatting.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// Deterministic JSON number for counter values: integral values print
/// as integers, everything else uses Rust's shortest-round-trip float
/// formatting (stable for bit-identical inputs).
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

/// A string escaped for a JSON literal.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_are_disjoint_across_kinds() {
        assert_ne!(TrackKind::Flow.pid(0), TrackKind::Host.pid(0));
        assert_ne!(TrackKind::Host.pid(0), TrackKind::Queue.pid(0));
        assert_eq!(TrackKind::Flow.pid(3), 1_003);
    }

    #[test]
    fn json_shape_and_timestamps() {
        let mut tb = TraceBuilder::new(0);
        tb.set_track_name(TrackKind::Flow, 0, "flow f0 (cubic)");
        tb.counter(1_234_567, TrackKind::Flow, 0, "cwnd_bytes", 14_480.0);
        tb.instant(2_000_000, TrackKind::Flow, 0, "rto");
        tb.span(0, 5_000_000, TrackKind::Flow, 0, "transfer");
        tb.flush_counters();
        let json = tb.json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("flow f0 (cubic)"));
        // 1_234_567 ns == 1234.567 us.
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"args\":{\"value\":14480}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":5000.000"));
    }

    #[test]
    fn downsampling_keeps_last_sample_per_bin() {
        let mut tb = TraceBuilder::new(1_000);
        for (ts, v) in [(10, 1.0), (20, 2.0), (999, 3.0), (1_500, 4.0)] {
            tb.counter(ts, TrackKind::Queue, 2, "queue_bytes", v);
        }
        tb.flush_counters();
        assert_eq!(tb.len(), 2);
        let json = tb.json();
        // Bin 0 collapsed to its last sample (ts 999, value 3).
        assert!(!json.contains("\"value\":1}"));
        assert!(!json.contains("\"value\":2}"));
        assert!(json.contains("\"ts\":0.999"));
        assert!(json.contains("\"value\":3}"));
        assert!(json.contains("\"value\":4}"));
    }

    #[test]
    fn identical_inputs_render_identical_bytes() {
        let build = || {
            let mut tb = TraceBuilder::default();
            tb.set_track_name(TrackKind::Host, 1, "host n1");
            tb.counter(5_000, TrackKind::Host, 1, "power_w", 21.515);
            tb.instant(6_000, TrackKind::Host, 1, "drop");
            tb.flush_counters();
            tb.json()
        };
        assert_eq!(build(), build());
    }
}
