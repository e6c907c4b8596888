//! Sim-time metrics registry.
//!
//! Counters, gauges, and log-linear histograms keyed by a static metric
//! name plus a small, ordered label set. Every series is indexed by a
//! `BTreeMap`, so iteration (and therefore the rendered exposition text)
//! is deterministic, and timestamps are caller-supplied sim-clock
//! nanoseconds — the registry never looks at a wall clock.
//!
//! A key is looked up once: [`MetricsRegistry::counter_handle`] and
//! [`MetricsRegistry::histogram_handle`] resolve it to a handle, and
//! recording through the handle is an indexed write. The keyed
//! `counter_add` / `observe` are that same pair of calls back to back.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// An ordered label set. Keys are static (they name dimensions we
/// control); values are small formatted ids like `"f0"` or `"l2"`.
pub type Labels = BTreeMap<&'static str, String>;

/// Build a label set from `(key, value)` pairs.
pub fn labels<const N: usize>(pairs: [(&'static str, String); N]) -> Labels {
    pairs.into_iter().collect()
}

/// A metric identity: static name plus labels. Orders by name, then by
/// the label map's lexicographic order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style `snake_case`, `_total` suffix on
    /// counters by convention).
    pub name: &'static str,
    /// Label set; empty is fine.
    pub labels: Labels,
}

impl MetricKey {
    /// Key with no labels.
    pub fn plain(name: &'static str) -> Self {
        MetricKey {
            name,
            labels: Labels::new(),
        }
    }

    /// Key with labels.
    pub fn with_labels(name: &'static str, labels: Labels) -> Self {
        MetricKey { name, labels }
    }
}

/// A counter resolved once by [`MetricsRegistry::counter_handle`]; adds
/// through it are an indexed write. Valid only on the registry that
/// issued it (and that registry's clones).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// A histogram resolved once by [`MetricsRegistry::histogram_handle`].
/// Valid only on the registry that issued it (and its clones).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(u32);

/// The live registry instruments record into.
///
/// Counter and histogram values live in dense vectors; the ordered maps
/// only index them, and are walked when a key is resolved and when a
/// snapshot is taken — never per sample on the by-handle path.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<MetricKey, u32>,
    counters: Vec<u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histogram_index: BTreeMap<MetricKey, u32>,
    histograms: Vec<Histogram>,
}

/// Slot of `key` in the dense `values`, pushing `empty()` for a key
/// seen for the first time.
fn resolve<T>(
    index: &mut BTreeMap<MetricKey, u32>,
    values: &mut Vec<T>,
    key: MetricKey,
    empty: impl FnOnce() -> T,
) -> u32 {
    *index.entry(key).or_insert_with(|| {
        values.push(empty());
        u32::try_from(values.len() - 1).expect("more series than u32 handles")
    })
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve a counter to its handle, creating it at zero first. The
    /// series exists (and is exported) from this call on.
    pub fn counter_handle(&mut self, name: &'static str, labels: Labels) -> CounterId {
        let key = MetricKey::with_labels(name, labels);
        CounterId(resolve(
            &mut self.counter_index,
            &mut self.counters,
            key,
            || 0,
        ))
    }

    /// Resolve a histogram to its handle, creating it empty first. The
    /// series exists (and is exported) from this call on.
    pub fn histogram_handle(&mut self, name: &'static str, labels: Labels) -> HistId {
        let key = MetricKey::with_labels(name, labels);
        HistId(resolve(
            &mut self.histogram_index,
            &mut self.histograms,
            key,
            Histogram::new,
        ))
    }

    /// Add `delta` to a resolved counter.
    #[inline]
    pub fn counter_add_at(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0 as usize] += delta;
    }

    /// Record `value` into a resolved histogram.
    #[inline]
    pub fn observe_at(&mut self, id: HistId, value: u64) {
        self.histograms[id.0 as usize].record(value);
    }

    /// Add `delta` to a monotonic counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        let id = self.counter_handle(name, labels);
        self.counter_add_at(id, delta);
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, value: f64) {
        self.gauges
            .insert(MetricKey::with_labels(name, labels), value);
    }

    /// Record `value` into a histogram, creating it empty first.
    pub fn observe(&mut self, name: &'static str, labels: Labels, value: u64) {
        let id = self.histogram_handle(name, labels);
        self.observe_at(id, value);
    }

    /// Current counter value, if the key exists.
    pub fn counter(&self, name: &'static str, labels: &Labels) -> Option<u64> {
        self.counter_index
            .get(&MetricKey::with_labels(name, labels.clone()))
            .map(|&slot| self.counters[slot as usize])
    }

    /// Current gauge value, if the key exists.
    pub fn gauge(&self, name: &'static str, labels: &Labels) -> Option<f64> {
        self.gauges
            .get(&MetricKey::with_labels(name, labels.clone()))
            .copied()
    }

    /// Histogram under the key, if it exists.
    pub fn histogram(&self, name: &'static str, labels: &Labels) -> Option<&Histogram> {
        self.histogram_index
            .get(&MetricKey::with_labels(name, labels.clone()))
            .map(|&slot| &self.histograms[slot as usize])
    }

    /// Freeze the registry at sim instant `at_ns`. The snapshot is a
    /// deep copy — the live registry keeps accumulating afterwards (by
    /// key and through handles resolved earlier), so campaigns can
    /// snapshot at any sim instant mid-run.
    pub fn snapshot(&self, at_ns: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ns,
            counters: self
                .counter_index
                .iter()
                .map(|(key, &slot)| (key.clone(), self.counters[slot as usize]))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histogram_index
                .iter()
                .map(|(key, &slot)| (key.clone(), self.histograms[slot as usize].clone()))
                .collect(),
        }
    }
}

/// An immutable view of the registry at one sim instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Sim-clock nanoseconds the snapshot was taken at.
    pub at_ns: u64,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value, if present.
    pub fn counter(&self, name: &'static str, labels: &Labels) -> Option<u64> {
        self.counters
            .get(&MetricKey::with_labels(name, labels.clone()))
            .copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &'static str, labels: &Labels) -> Option<f64> {
        self.gauges
            .get(&MetricKey::with_labels(name, labels.clone()))
            .copied()
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &'static str, labels: &Labels) -> Option<&Histogram> {
        self.histograms
            .get(&MetricKey::with_labels(name, labels.clone()))
    }

    /// Sum a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket` lines only at occupied
    /// bucket boundaries (plus `+Inf`), which keeps artifacts small
    /// while staying valid exposition text. Output is byte-deterministic:
    /// all maps are ordered and floats use Rust's shortest-round-trip
    /// formatting of bit-identical values.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# obs snapshot at sim_ns {}", self.at_ns);

        let mut last_name = "";
        for (key, value) in &self.counters {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "{}{} {}", key.name, LabelSet::of(key), value);
        }

        last_name = "";
        for (key, value) in &self.gauges {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} gauge", key.name);
                last_name = key.name;
            }
            let _ = writeln!(out, "{}{} {}", key.name, LabelSet::of(key), value);
        }

        last_name = "";
        for (key, hist) in &self.histograms {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} histogram", key.name);
                last_name = key.name;
            }
            let name = key.name;
            let mut cumulative = 0u64;
            for (hi, count) in hist.nonzero_buckets() {
                cumulative += count;
                let labels = LabelSet::with_le(key, Le::Bound(hi));
                let _ = writeln!(out, "{name}_bucket{labels} {cumulative}");
            }
            let labels = LabelSet::with_le(key, Le::Inf);
            let _ = writeln!(out, "{name}_bucket{labels} {}", hist.count());
            let labels = LabelSet::of(key);
            let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum());
            let _ = writeln!(out, "{name}_count{labels} {}", hist.count());
        }
        out
    }
}

/// A histogram bucket's upper bound, the value of its `le` label.
#[derive(Clone, Copy)]
enum Le {
    Bound(u64),
    Inf,
}

impl fmt::Display for Le {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Le::Bound(hi) => write!(f, "{hi}"),
            Le::Inf => f.write_str("+Inf"),
        }
    }
}

/// Displays as `{k="v",k2="v2"}`, or as nothing for no labels. A bucket
/// line's `le` takes its sorted place among the keys (replacing a label
/// of that name), exactly where inserting it into the map would put it.
struct LabelSet<'a> {
    labels: &'a Labels,
    le: Option<Le>,
}

impl<'a> LabelSet<'a> {
    fn of(key: &'a MetricKey) -> Self {
        LabelSet {
            labels: &key.labels,
            le: None,
        }
    }

    fn with_le(key: &'a MetricKey, le: Le) -> Self {
        LabelSet {
            labels: &key.labels,
            le: Some(le),
        }
    }
}

impl fmt::Display for LabelSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() && self.le.is_none() {
            return Ok(());
        }
        let mut le = self.le;
        let mut sep = '{';
        for (&k, v) in self.labels {
            if k >= "le" {
                if let Some(bound) = le.take() {
                    write!(f, "{sep}le=\"{bound}\"")?;
                    sep = ',';
                    if k == "le" {
                        continue;
                    }
                }
            }
            write!(f, "{sep}{k}=\"{}\"", EscapedLabelValue(v))?;
            sep = ',';
        }
        if let Some(bound) = le {
            write!(f, "{sep}le=\"{bound}\"")?;
        }
        f.write_char('}')
    }
}

/// A label value escaped per the exposition format (backslash, quote,
/// newline).
struct EscapedLabelValue<'a>(&'a str);

impl fmt::Display for EscapedLabelValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                _ => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_freezes() {
        let mut reg = MetricsRegistry::new();
        let l = labels([("flow", "f0".to_string())]);
        reg.counter_add("retx_total", l.clone(), 2);
        reg.counter_add("retx_total", l.clone(), 3);
        let snap = reg.snapshot(1_000);
        reg.counter_add("retx_total", l.clone(), 10);
        assert_eq!(snap.counter("retx_total", &l), Some(5));
        assert_eq!(reg.counter("retx_total", &l), Some(15));
        assert_eq!(snap.at_ns, 1_000);
    }

    #[test]
    fn exposition_is_deterministic_and_ordered() {
        let mut reg = MetricsRegistry::new();
        // Insert in reverse order; output must still be sorted.
        reg.counter_add("z_total", Labels::new(), 1);
        reg.counter_add("a_total", labels([("link", "l2".to_string())]), 7);
        reg.counter_add("a_total", labels([("link", "l1".to_string())]), 4);
        reg.gauge_set("depth_bytes", Labels::new(), 42.5);
        reg.observe("rtt_ns", Labels::new(), 100);
        reg.observe("rtt_ns", Labels::new(), 100_000);
        let snap = reg.snapshot(5);
        let text = snap.prometheus_text();
        let again = reg.snapshot(5).prometheus_text();
        assert_eq!(text, again);
        let a1 = text.find("a_total{link=\"l1\"} 4").expect("l1 line");
        let a2 = text.find("a_total{link=\"l2\"} 7").expect("l2 line");
        let z = text.find("z_total 1").expect("z line");
        assert!(a1 < a2 && a2 < z, "counters must be sorted");
        assert!(text.contains("# TYPE rtt_ns histogram"));
        assert!(text.contains("rtt_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rtt_ns_count 2"));
        assert!(text.contains("rtt_ns_sum 100100"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        for v in [1u64, 1, 2, 500] {
            reg.observe("h", Labels::new(), v);
        }
        let text = reg.snapshot(0).prometheus_text();
        assert!(text.contains("h_bucket{le=\"1\"} 2"));
        assert!(text.contains("h_bucket{le=\"2\"} 3"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 4"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("c_total", labels([("name", "a\"b\\c".to_string())]), 1);
        let text = reg.snapshot(0).prometheus_text();
        assert!(text.contains(r#"c_total{name="a\"b\\c"} 1"#));
    }
}
