//! Measurement instrumentation.
//!
//! Two recorders feed the experiments:
//!
//! * [`FlowTrace`] — per-flow delivered-payload time series, binned at a
//!   configurable interval. This regenerates the paper's throughput-vs-time
//!   plots (Fig. 3) and per-flow average throughputs.
//! * [`HostActivity`] — per-host transmit/receive work time series (bytes
//!   and packets, binned). The energy model integrates power over these
//!   bins, exactly as RAPL integrates over the experiment interval. Only
//!   bins that saw a packet are stored: a sender waiting out an RTO, or a
//!   rack draining its last straggler, costs nothing per idle millisecond,
//!   and a packet at t = 1 h costs one bin, not 3.6 million.

use crate::ids::{FlowId, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;
use std::collections::BTreeMap;

/// One flow's record: per-bin delivered payload bytes plus its first
/// delivery, last delivery and lifetime total.
#[derive(Debug)]
struct FlowSeries {
    bins: Vec<u64>,
    first: SimTime,
    last: SimTime,
    bytes: u64,
}

/// Per-flow delivered-bytes recorder.
#[derive(Debug)]
pub struct FlowTrace {
    bin: SimDuration,
    flows: BTreeMap<FlowId, FlowSeries>,
}

impl FlowTrace {
    /// Create a trace with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "trace bin must be positive");
        FlowTrace {
            bin,
            flows: BTreeMap::new(),
        }
    }

    /// Bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    /// Record `payload` bytes of flow `flow` delivered at `now`.
    pub fn record(&mut self, flow: FlowId, now: SimTime, payload: u64) {
        let idx = (now.as_nanos() / self.bin.as_nanos()) as usize;
        let series = self.flows.entry(flow).or_insert(FlowSeries {
            bins: Vec::new(),
            first: now,
            last: now,
            bytes: 0,
        });
        if series.bins.len() <= idx {
            series.bins.resize(idx + 1, 0);
        }
        series.bins[idx] += payload;
        series.last = now;
        series.bytes += payload;
    }

    /// The delivered-bytes series for a flow (empty if never seen).
    pub fn series(&self, flow: FlowId) -> &[u64] {
        self.flows.get(&flow).map_or(&[], |s| s.bins.as_slice())
    }

    /// The throughput series for a flow in Gbps, one point per bin.
    ///
    /// Delegates to [`obs::series::throughput_gbps`], the workspace's
    /// single home for this conversion: the final bin is scaled by the
    /// width it actually covers (up to the flow's last delivery) rather
    /// than the full bin width, so a flow finishing mid-bin no longer
    /// shows a truncated closing rate.
    pub fn throughput_gbps(&self, flow: FlowId) -> Vec<f64> {
        let end_ns = self.flows.get(&flow).map_or(0, |s| s.last.as_nanos());
        obs::series::throughput_gbps(self.series(flow), self.bin.as_nanos(), end_ns)
    }

    /// Total payload bytes delivered for a flow.
    pub fn total_bytes(&self, flow: FlowId) -> u64 {
        self.flows.get(&flow).map_or(0, |s| s.bytes)
    }

    /// Average delivery rate of a flow between its first and last delivery.
    pub fn average_rate(&self, flow: FlowId) -> Rate {
        match self.flows.get(&flow) {
            Some(s) if s.last > s.first => crate::units::average_rate(s.bytes, s.last - s.first),
            _ => Rate::ZERO,
        }
    }

    /// All flows that delivered at least one byte, ascending by id.
    pub fn flows(&self) -> Vec<FlowId> {
        self.flows.keys().copied().collect()
    }
}

/// One bin of a host's network work.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ActivityBin {
    /// Wire bytes transmitted by the host in this bin.
    pub tx_bytes: u64,
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Packets received.
    pub rx_pkts: u64,
    /// Pure acknowledgements received.
    pub acks_rx: u64,
    /// Retransmitted data packets transmitted.
    pub retx_pkts: u64,
}

/// Lifetime totals of a host's network work.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActivityTotals {
    /// Wire bytes transmitted.
    pub tx_bytes: u64,
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Retransmitted data packets transmitted.
    pub retx_pkts: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Packets received.
    pub rx_pkts: u64,
    /// Pure acknowledgements received (the ack-processing cost driver).
    pub acks_rx: u64,
}

/// One host's record: the bins that saw a packet, ascending by bin
/// index, and lifetime totals.
#[derive(Debug, Default)]
struct HostRecord {
    bins: Vec<(u64, ActivityBin)>,
    /// `[start, end)` in nanoseconds of the last bin in `bins` (empty
    /// while `bins` is): a packet inside it finds its bin without the
    /// u64 division, which is paid once per bin instead of per packet.
    last_span: (u64, u64),
    totals: ActivityTotals,
}

/// Per-host binned transmit/receive activity.
#[derive(Debug)]
pub struct HostActivity {
    bin: SimDuration,
    /// Indexed by [`NodeId::index`], grown on first sight; a host that
    /// never moved a packet has no bins.
    records: Vec<HostRecord>,
}

/// A borrowed view of one host's activity: conceptually the dense series
/// `0..len()` of bins, of which only those in [`Self::active`] are
/// non-zero (and stored).
#[derive(Clone, Copy, Debug)]
pub struct ActivitySeries<'a> {
    bins: &'a [(u64, ActivityBin)],
}

impl<'a> ActivitySeries<'a> {
    /// Length of the dense series: the last active bin's index plus one
    /// (0 for a host that never moved a packet).
    pub fn len(&self) -> u64 {
        self.bins.last().map_or(0, |&(i, _)| i + 1)
    }

    /// True if the host never moved a packet.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The bins that saw at least one packet, as `(bin index, bin)` in
    /// ascending index order. Every other bin of the series is
    /// [`ActivityBin::default`].
    pub fn active(&self) -> impl Iterator<Item = (u64, &'a ActivityBin)> {
        self.bins.iter().map(|(i, b)| (*i, b))
    }
}

impl HostActivity {
    /// Create a recorder with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "activity bin must be positive");
        HostActivity {
            bin,
            records: Vec::new(),
        }
    }

    /// Bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    fn record_mut(
        &mut self,
        host: NodeId,
        now: SimTime,
    ) -> Option<(&mut ActivityBin, &mut ActivityTotals)> {
        // `None` is unreachable — each `get_mut` follows the resize or
        // insert that makes it succeed — but recording runs per packet on
        // rack worker threads, so it uses the checked forms throughout.
        let h = host.index();
        if self.records.len() <= h {
            self.records.resize_with(h + 1, HostRecord::default);
        }
        let HostRecord {
            bins,
            last_span,
            totals,
        } = self.records.get_mut(h)?;
        let ns = now.as_nanos();
        let pos = if last_span.0 <= ns && ns < last_span.1 {
            bins.len() - 1
        } else {
            let bin_ns = self.bin.as_nanos();
            let idx = ns / bin_ns;
            // Simulated time never runs backwards inside a `Network`, so
            // the bin is the last one or a new last one; an earlier time
            // through the public API falls back to a sorted insert.
            let pos = match bins.last() {
                Some(&(last, _)) if last == idx => bins.len() - 1,
                Some(&(last, _)) if last > idx => bins.partition_point(|&(i, _)| i < idx),
                _ => bins.len(),
            };
            if bins.get(pos).is_none_or(|&(i, _)| i != idx) {
                bins.insert(pos, (idx, ActivityBin::default()));
            }
            if pos + 1 == bins.len() {
                let start = idx * bin_ns;
                *last_span = (start, start.saturating_add(bin_ns));
            }
            pos
        };
        let (_, b) = bins.get_mut(pos)?;
        Some((b, totals))
    }

    /// Record a transmission starting at `now` from `host`.
    pub fn record_tx(&mut self, host: NodeId, now: SimTime, wire_bytes: u64, is_retx: bool) {
        let Some((b, t)) = self.record_mut(host, now) else {
            return;
        };
        b.tx_bytes += wire_bytes;
        b.tx_pkts += 1;
        t.tx_bytes += wire_bytes;
        t.tx_pkts += 1;
        if is_retx {
            b.retx_pkts += 1;
            t.retx_pkts += 1;
        }
    }

    /// Record a packet received by `host` at `now`.
    pub fn record_rx(&mut self, host: NodeId, now: SimTime, wire_bytes: u64, is_ack: bool) {
        let Some((b, t)) = self.record_mut(host, now) else {
            return;
        };
        b.rx_bytes += wire_bytes;
        b.rx_pkts += 1;
        t.rx_bytes += wire_bytes;
        t.rx_pkts += 1;
        if is_ack {
            b.acks_rx += 1;
            t.acks_rx += 1;
        }
    }

    /// The activity series for a host (empty if it never moved a packet).
    pub fn series(&self, host: NodeId) -> ActivitySeries<'_> {
        ActivitySeries {
            bins: self
                .records
                .get(host.index())
                .map_or(&[], |r| r.bins.as_slice()),
        }
    }

    /// Lifetime totals for a host.
    pub fn totals(&self, host: NodeId) -> ActivityTotals {
        self.records
            .get(host.index())
            .map(|r| r.totals)
            .unwrap_or_default()
    }

    /// All hosts with recorded activity, ascending.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.bins.is_empty())
            .map(|(i, _)| NodeId::from_raw(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FlowId = FlowId::from_raw(1);
    const H: NodeId = NodeId::from_raw(0);

    /// The series as the dense vector the recorder used to store.
    fn dense(series: ActivitySeries<'_>) -> Vec<ActivityBin> {
        let mut out = vec![ActivityBin::default(); series.len() as usize];
        for (i, b) in series.active() {
            out[i as usize] = *b;
        }
        out
    }

    #[test]
    fn flow_trace_bins_bytes() {
        let mut t = FlowTrace::new(SimDuration::from_millis(10));
        t.record(F, SimTime::from_millis(1), 100);
        t.record(F, SimTime::from_millis(9), 200);
        t.record(F, SimTime::from_millis(15), 300);
        assert_eq!(t.series(F), &[300, 300]);
        assert_eq!(t.total_bytes(F), 600);
    }

    #[test]
    fn flow_trace_throughput_conversion() {
        let mut t = FlowTrace::new(SimDuration::from_millis(10));
        // 12.5 MB across the full first bin = 10 Gbps...
        t.record(F, SimTime::from_millis(5), 12_500_000);
        // ...then 12.5 MB more, but the flow stops 5 ms into bin 1: the
        // final bin is scaled by the width it covered, not truncated to
        // half the true closing rate.
        t.record(F, SimTime::from_millis(15), 12_500_000);
        let series = t.throughput_gbps(F);
        assert_eq!(series.len(), 2);
        assert!((series[0] - 10.0).abs() < 1e-9);
        assert!((series[1] - 20.0).abs() < 1e-9, "partial final bin");
    }

    #[test]
    fn flow_trace_average_rate() {
        let mut t = FlowTrace::new(SimDuration::from_millis(1));
        t.record(F, SimTime::from_secs(0), 0);
        t.record(F, SimTime::from_secs(1), 1_250_000_000);
        // 1.25 GB over 1 s = 10 Gbps.
        assert!((t.average_rate(F).gbps() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn flow_trace_unknown_flow_is_empty() {
        let t = FlowTrace::new(SimDuration::from_millis(10));
        assert!(t.series(F).is_empty());
        assert_eq!(t.total_bytes(F), 0);
        assert!(t.average_rate(F).is_zero());
        assert!(t.flows().is_empty());
    }

    #[test]
    fn host_activity_accumulates() {
        let mut a = HostActivity::new(SimDuration::from_millis(1));
        a.record_tx(H, SimTime::from_micros(100), 1500, false);
        a.record_tx(H, SimTime::from_micros(200), 1500, true);
        a.record_rx(H, SimTime::from_micros(300), 64, true);
        let bins = dense(a.series(H));
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].tx_bytes, 3000);
        assert_eq!(bins[0].tx_pkts, 2);
        assert_eq!(bins[0].rx_pkts, 1);
        assert_eq!(bins[0].retx_pkts, 1);
        assert_eq!(bins[0].acks_rx, 1);
        let t = a.totals(H);
        assert_eq!(t.retx_pkts, 1);
        assert_eq!(t.acks_rx, 1);
        assert_eq!(a.hosts(), vec![H]);
    }

    #[test]
    fn host_activity_lists_only_hosts_that_moved_a_packet() {
        let mut a = HostActivity::new(SimDuration::from_millis(1));
        let (h2, h5) = (NodeId::from_raw(2), NodeId::from_raw(5));
        a.record_rx(h5, SimTime::from_micros(10), 64, false);
        a.record_tx(h2, SimTime::from_micros(20), 1500, false);
        assert_eq!(a.hosts(), vec![h2, h5], "ascending, gaps skipped");
        assert!(a.series(H).is_empty());
        assert_eq!(a.totals(NodeId::from_raw(3)).tx_pkts, 0);
        assert!(a.series(NodeId::from_raw(9)).is_empty(), "beyond the table");
        assert_eq!(a.totals(h5).rx_bytes, 64);
    }

    #[test]
    fn host_activity_bins_by_time() {
        let mut a = HostActivity::new(SimDuration::from_millis(1));
        a.record_tx(H, SimTime::from_micros(500), 100, false);
        a.record_tx(H, SimTime::from_millis(3), 200, false);
        assert_eq!(a.series(H).len(), 4);
        assert_eq!(a.series(H).active().count(), 2, "empty bins are not stored");
        let bins = dense(a.series(H));
        assert_eq!(bins[0].tx_bytes, 100);
        assert_eq!(bins[1], ActivityBin::default());
        assert_eq!(bins[3].tx_bytes, 200);
    }

    #[test]
    fn host_activity_sorts_an_out_of_order_time_into_place() {
        let mut a = HostActivity::new(SimDuration::from_millis(1));
        a.record_tx(H, SimTime::from_millis(5), 500, false);
        a.record_tx(H, SimTime::from_millis(2), 200, false);
        a.record_rx(H, SimTime::from_millis(2), 20, true);
        a.record_tx(H, SimTime::from_millis(0), 1, false);
        a.record_tx(H, SimTime::from_millis(5), 50, true);
        let indices: Vec<u64> = a.series(H).active().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2, 5]);
        let bins = dense(a.series(H));
        assert_eq!(bins[2].tx_bytes, 200);
        assert_eq!(bins[2].acks_rx, 1);
        assert_eq!(bins[5].tx_bytes, 550);
        assert_eq!(bins[5].retx_pkts, 1);
        assert_eq!(a.totals(H).tx_pkts, 4);
    }

    /// The parent resized a dense vector to `now / bin + 1`: one packet an
    /// hour in asked for 3.6 million 48-byte bins (173 MB) on that host.
    #[test]
    fn host_activity_is_sized_by_active_bins_not_by_elapsed_time() {
        let mut a = HostActivity::new(SimDuration::from_millis(1));
        a.record_tx(H, SimTime::from_millis(1), 1500, false);
        a.record_tx(H, SimTime::from_secs(3600), 1500, false);
        let series = a.series(H);
        assert_eq!(series.len(), 3_600_001);
        assert_eq!(series.active().count(), 2);
    }
}
