//! `HostActivity` stores only the bins that saw a packet. These tests
//! hold it — and the two model functions that read it — to the recorder
//! it replaced: a dense `Vec<ActivityBin>` per host, resized to
//! `now / bin + 1`, kept here as a test-only oracle together with the
//! dense arithmetic the model used to run over it.

use energy::prelude::*;
use netsim::ids::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{ActivityBin, ActivitySeries, ActivityTotals, HostActivity};
use proptest::prelude::*;

/// The previous recorder, verbatim in behaviour: dense bins per host.
struct DenseActivity {
    bin: SimDuration,
    records: Vec<(Vec<ActivityBin>, ActivityTotals)>,
}

impl DenseActivity {
    fn new(bin: SimDuration) -> Self {
        DenseActivity {
            bin,
            records: Vec::new(),
        }
    }

    fn record_mut(
        &mut self,
        host: NodeId,
        now: SimTime,
    ) -> (&mut ActivityBin, &mut ActivityTotals) {
        let h = host.index();
        if self.records.len() <= h {
            self.records.resize_with(h + 1, Default::default);
        }
        let (bins, totals) = &mut self.records[h];
        let idx = (now.as_nanos() / self.bin.as_nanos()) as usize;
        if bins.len() <= idx {
            bins.resize(idx + 1, ActivityBin::default());
        }
        (&mut bins[idx], totals)
    }

    fn record_tx(&mut self, host: NodeId, now: SimTime, wire_bytes: u64, is_retx: bool) {
        let (b, t) = self.record_mut(host, now);
        b.tx_bytes += wire_bytes;
        b.tx_pkts += 1;
        t.tx_bytes += wire_bytes;
        t.tx_pkts += 1;
        if is_retx {
            b.retx_pkts += 1;
            t.retx_pkts += 1;
        }
    }

    fn record_rx(&mut self, host: NodeId, now: SimTime, wire_bytes: u64, is_ack: bool) {
        let (b, t) = self.record_mut(host, now);
        b.rx_bytes += wire_bytes;
        b.rx_pkts += 1;
        t.rx_bytes += wire_bytes;
        t.rx_pkts += 1;
        if is_ack {
            b.acks_rx += 1;
            t.acks_rx += 1;
        }
    }

    fn series(&self, host: NodeId) -> &[ActivityBin] {
        self.records
            .get(host.index())
            .map_or(&[], |(bins, _)| bins.as_slice())
    }

    fn totals(&self, host: NodeId) -> ActivityTotals {
        self.records
            .get(host.index())
            .map(|&(_, totals)| totals)
            .unwrap_or_default()
    }

    fn hosts(&self) -> Vec<NodeId> {
        (0..self.records.len())
            .filter(|&h| !self.records[h].0.is_empty())
            .map(|h| NodeId::from_raw(h as u32))
            .collect()
    }
}

/// Every bin of a dense slice, empty ones included, as the
/// `(index, bin)` stream `energy_from_activity` integrates: the loop the
/// model ran when the recorder was dense.
fn every_bin(bins: &[ActivityBin]) -> impl Iterator<Item = (u64, &ActivityBin)> {
    bins.iter().enumerate().map(|(i, b)| (i as u64, b))
}

/// The sparse series expanded to the dense vector it stands for.
fn expand(series: ActivitySeries<'_>) -> Vec<ActivityBin> {
    let mut out = vec![ActivityBin::default(); series.len() as usize];
    for (i, b) in series.active() {
        out[i as usize] = *b;
    }
    out
}

/// The dense power series, one `power_w` per bin, empty ones included.
fn dense_power_series(
    model: &HostPowerModel,
    bins: &[ActivityBin],
    bin: SimDuration,
    ctx: HostContext,
) -> Vec<f64> {
    let bin_s = bin.as_secs_f64();
    bins.iter()
        .map(|b| {
            let gbps = (b.tx_bytes + b.rx_bytes) as f64 * 8.0 / bin_s / 1e9;
            model.power_w(
                gbps,
                b.tx_pkts as f64 / bin_s,
                b.rx_pkts as f64 / bin_s,
                b.acks_rx as f64 / bin_s,
                b.retx_pkts as f64 / bin_s,
                ctx,
            )
        })
        .collect()
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|w| w.to_bits()).collect()
}

/// A packet at 1 ms and one an hour later: the dense recorder resized
/// that host to 3.6 million bins (173 MB). Two bins are stored, the
/// series still reads as 3 600 001 long, and the energy over a 2 h
/// window equals the arithmetic over all 3 600 001 dense bins to the bit.
#[test]
fn an_hour_of_silence_costs_two_bins_and_not_one_bit() {
    let host = NodeId::from_raw(0);
    let bin = SimDuration::from_millis(1);
    let mut activity = HostActivity::new(bin);
    activity.record_tx(host, SimTime::from_millis(1), 9_000, false);
    activity.record_rx(host, SimTime::from_secs(3_600), 64, true);
    let series = activity.series(host);
    assert_eq!(series.active().count(), 2);
    assert_eq!(series.len(), 3_600_001);

    let model = reference_host_model();
    let ctx = HostContext {
        background_util: 0.25,
        cc_cost_per_ack_j: cc_cost_per_ack_ref_j(),
    };
    let window = SimDuration::from_secs(7_200);
    let totals = activity.totals(host);
    let sparse = model.energy_from_activity(series.active(), bin, window, &totals, ctx);

    let quiet = ActivityBin::default();
    let stored: Vec<(u64, &ActivityBin)> = series.active().collect();
    let all_bins = (0..series.len()).map(|i| match stored.iter().find(|&&(at, _)| at == i) {
        Some(&(_, b)) => (i, b),
        None => (i, &quiet),
    });
    let dense = model.energy_from_activity(all_bins, bin, window, &totals, ctx);
    assert!(sparse.curve_j > 0.0);
    assert_eq!(sparse.curve_j.to_bits(), dense.curve_j.to_bits());
    assert_eq!(sparse.total_j().to_bits(), dense.total_j().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random packet streams over three hosts — in time order or not —
    /// recorded into both recorders: the dense expansion, totals and host
    /// list match, and under a window that cuts a bin the metered energy
    /// and every element of the power series are bit-equal to the dense
    /// arithmetic.
    #[test]
    fn sparse_activity_matches_the_dense_recorder(
        events in proptest::collection::vec(
            (0u32..4, 0u64..40_000, 64u64..9_001, 0u8..2, 0u8..2),
            0..300,
        ),
        in_time_order in 0u8..2,
        window_us in 1u64..60_000,
        background_pct in 0u32..80,
    ) {
        let bin = SimDuration::from_millis(1);
        let mut events = events;
        if in_time_order == 1 {
            events.sort_by_key(|&(_, at_us, ..)| at_us);
        }
        let mut sparse = HostActivity::new(bin);
        let mut dense = DenseActivity::new(bin);
        for &(host, at_us, bytes, is_tx, flag) in &events {
            // Host 3 never moves a packet: a gap in the host table.
            let host = NodeId::from_raw(if host == 3 { 4 } else { host });
            let (at, flag) = (SimTime::from_micros(at_us), flag == 1);
            if is_tx == 1 {
                sparse.record_tx(host, at, bytes, flag);
                dense.record_tx(host, at, bytes, flag);
            } else {
                sparse.record_rx(host, at, bytes, flag);
                dense.record_rx(host, at, bytes, flag);
            }
        }
        prop_assert_eq!(sparse.hosts(), dense.hosts());

        let model = reference_host_model();
        let ctx = HostContext {
            background_util: background_pct as f64 / 100.0,
            cc_cost_per_ack_j: cc_cost_per_ack_ref_j(),
        };
        let window = SimDuration::from_micros(window_us);
        for host in (0..6).map(NodeId::from_raw) {
            let series = sparse.series(host);
            let oracle = dense.series(host);
            prop_assert_eq!(series.len(), oracle.len() as u64);
            prop_assert_eq!(series.is_empty(), oracle.is_empty());
            prop_assert_eq!(expand(series), oracle);
            prop_assert!(series.active().all(|(_, b)| *b != ActivityBin::default()));
            let totals = sparse.totals(host);
            prop_assert_eq!(format!("{totals:?}"), format!("{:?}", dense.totals(host)));

            let metered = model.energy_from_activity(series.active(), bin, window, &totals, ctx);
            let expected = model.energy_from_activity(every_bin(oracle), bin, window, &totals, ctx);
            prop_assert_eq!(metered.total_j().to_bits(), expected.total_j().to_bits());
            prop_assert_eq!(metered, expected);

            prop_assert_eq!(
                bits(&model.power_series(series, bin, ctx)),
                bits(&dense_power_series(&model, oracle, bin, ctx))
            );
        }
    }
}
