//! Isolated `[p]` probes: one layer's primitive driven in a tight loop,
//! outside any simulation, so its cost is a number of its own.
//!
//! These say what a primitive costs on a hot cache with nothing else
//! going on; the traced pass says what share of a real run it takes.
//! The two disagree by design (DESIGN.md records the wheel losing the
//! isolated scheduler probe and winning the engine-level one), which is
//! why both are reported.

use crate::clock;
use crate::product::{
    create_sharded, reference_host_model, AckEvent, CcaConfig, CcaKind, Cell, DropTailQueue,
    EcnCodepoint, EcnThresholdQueue, EnergyMeter, EnqueueOutcome, FlowId, FramePool, HostActivity,
    HostContext, IntRecord, JournalEntry, JournalFingerprint, JournalWriter, NodeId, Packet, Qdisc,
    Rate, RedQueue, RetryPolicy, Scale, Scheduler, Scoreboard, SimDuration, SimTime,
};
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

const SLICES: usize = 5;
const SLICE: Duration = Duration::from_millis(8);

/// Median over [`SLICES`] slices of at least [`SLICE`] each of the time
/// one call of `iter` takes, in nanoseconds per `ops_per_iter`. The clock
/// is read once per batch of calls sized to ~0.1 ms, so reading it does
/// not show up in a 30 ns primitive.
fn ns_per_op(ops_per_iter: u64, mut iter: impl FnMut()) -> f64 {
    let once = clock::now();
    iter();
    let batch = (100_000 / once.elapsed().as_nanos().max(1)).clamp(1, 4096) as u64;
    let mut slices = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let start = clock::now();
        let mut iters = 0u64;
        while start.elapsed() < SLICE {
            for _ in 0..batch {
                iter();
            }
            iters += batch;
        }
        slices.push(start.elapsed().as_nanos() as f64 / (iters * ops_per_iter) as f64);
    }
    median(&slices)
}

fn data_packet() -> Packet {
    Packet::data(
        FlowId::from_raw(0),
        NodeId::from_raw(0),
        NodeId::from_raw(1),
        0,
        1460,
        EcnCodepoint::Ect0,
    )
}

fn qdisc_ns_per_op(mut q: impl Qdisc) -> f64 {
    let mut pool = FramePool::new();
    let pkt = data_packet();
    // One enqueue and one dequeue per iteration: two ops.
    ns_per_op(2, || {
        let frame = pool.alloc(black_box(pkt));
        if q.enqueue(frame, &mut pool, SimTime::ZERO) == EnqueueOutcome::Dropped {
            pool.release(frame);
        }
        black_box(q.dequeue(SimTime::ZERO).map(|r| pool.take(r)));
    })
}

const SCHED_OPS: u64 = 4096;

/// Push/pop churn with ~64 pending. `far_every` = 0 keeps every push
/// within a few bucket widths of now (TxDone/Arrive events); otherwise
/// every n-th push is an RTO-like 200 ms timer that overflows to the heap.
fn sched_ns_per_op(far_every: u64) -> f64 {
    ns_per_op(SCHED_OPS, || {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut now = SimTime::ZERO;
        for i in 0..64u64 {
            s.push(now + SimDuration::from_nanos(800 + i * 37), i);
        }
        for i in 64..SCHED_OPS {
            if let Some((at, _)) = s.pop() {
                now = at;
            }
            let after = if far_every > 0 && i % far_every == 0 {
                SimDuration::from_millis(200)
            } else {
                SimDuration::from_nanos(800 + (i % 97) * 37)
            };
            s.push(now + after, i);
        }
        black_box(s.len());
    })
}

fn scoreboard_ns_per_cycle() -> f64 {
    ns_per_op(1, || {
        let mut board = Scoreboard::new(1448);
        let mut seq = 0u64;
        for i in 0..64 {
            board.on_send(seq, 1448, SimTime::from_micros(i), 0, false);
            seq += 1448;
        }
        // Cumulative ack half, SACK a band, ack the rest.
        let rtt = SimDuration::from_micros(25);
        board.on_ack(seq / 2, std::iter::empty(), rtt);
        board.on_ack(seq / 2, [(seq / 2 + 4344, seq)].into_iter(), rtt);
        black_box(board.on_ack(seq, std::iter::empty(), rtt).newly_delivered);
    })
}

fn cca_ns_per_ack(kind: CcaKind) -> f64 {
    let mut cc = kind.build(&CcaConfig::new(1448));
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
        int: IntRecord {
            queue_bytes: 20_000,
            util_x1000: 900,
            link_mbps: 10_000,
        },
        cwnd_limited: true,
    };
    ns_per_op(1, || {
        cc.on_ack(black_box(&ev));
        black_box(cc.cwnd());
    })
}

/// Energy metering cost per 1 ms activity bin: a host with `BINS` bins of
/// synthetic activity, metered and rendered to a power series.
fn energy_ns_per_bin() -> f64 {
    const BINS: u64 = 2_000;
    let bin = SimDuration::from_millis(1);
    let host = NodeId::from_raw(0);
    let mut activity = HostActivity::new(bin);
    for b in 0..BINS {
        let at = SimTime::from_millis(b);
        activity.record_tx(host, at, 9_000 * 100, false);
        activity.record_rx(host, at, 64 * 50, true);
    }
    let meter = EnergyMeter::new(reference_host_model());
    let window = SimDuration::from_millis(BINS);
    ns_per_op(BINS, || {
        let ctx = HostContext::default();
        black_box(meter.measure_host(&activity, host, window, ctx).joules);
        black_box(
            meter
                .model()
                .power_series(activity.series(host), activity.bin(), ctx)
                .len(),
        );
    })
}

fn stub_cell(i: usize) -> Cell {
    let mut cell = Cell {
        cca: CcaKind::Cubic.name().to_string(),
        mtu: 1500 + i as u32,
        energy_j: Default::default(),
        power_w: Default::default(),
        fct_s: Default::default(),
        retx: Default::default(),
        goodput_gbps: Default::default(),
    };
    // Non-trivial floats, so the appended line has production size.
    cell.energy_j.mean = 136.92 + i as f64 / 7.0;
    cell.power_w.mean = 35.82 + i as f64 / 11.0;
    cell.fct_s.mean = 0.2 + i as f64 / 13.0;
    cell
}

/// Fsynced journal appends per second, through one writer or spread
/// round-robin over `shards` writers.
fn journal_rec_per_s(dir: &Path, shards: usize) -> Result<f64, String> {
    const RECORDS: usize = 48;
    let scale = Scale::tiny();
    let fingerprint = JournalFingerprint::for_policy(&scale, &RetryPolicy::default());
    let _ = std::fs::remove_dir_all(dir);
    let mut writers: Vec<JournalWriter> =
        create_sharded(dir, &fingerprint, &[], shards).map_err(|e| e.to_string())?;
    let entries: Vec<JournalEntry> = (0..RECORDS)
        .map(|i| JournalEntry::Cell(stub_cell(i)))
        .collect();
    let start = clock::now();
    for (i, entry) in entries.iter().enumerate() {
        let shard = i % writers.len();
        writers[shard].append(entry).map_err(|e| e.to_string())?;
    }
    let rate = RECORDS as f64 / start.elapsed().as_secs_f64();
    drop(writers);
    let _ = std::fs::remove_dir_all(dir);
    Ok(rate)
}

/// Every workload-independent probe, keyed by per-layer metric name.
/// `scratch` is where the journal probe writes (and cleans up).
pub fn run_all(scratch: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut out = vec![
        (
            "netsim.qdisc_ns_per_op.droptail".to_string(),
            qdisc_ns_per_op(DropTailQueue::new(1_000_000)),
        ),
        (
            "netsim.qdisc_ns_per_op.ecn".to_string(),
            qdisc_ns_per_op(EcnThresholdQueue::new(1_000_000, 30_000)),
        ),
        (
            "netsim.qdisc_ns_per_op.red".to_string(),
            qdisc_ns_per_op(RedQueue::new(1_000_000, 100_000, 500_000, 0.1, 7)),
        ),
        (
            "netsim.sched_ns_per_op.near".to_string(),
            sched_ns_per_op(0),
        ),
        (
            "netsim.sched_ns_per_op.mixed".to_string(),
            sched_ns_per_op(16),
        ),
        (
            "transport.scoreboard_ns_per_cycle".to_string(),
            scoreboard_ns_per_cycle(),
        ),
        ("energy.ns_per_bin".to_string(), energy_ns_per_bin()),
    ];
    for kind in CcaKind::ALL {
        out.push((
            format!("cca.ns_per_ack.{}", kind.name()),
            cca_ns_per_ack(kind),
        ));
    }
    out.push((
        "core.journal_rec_per_s.single".to_string(),
        journal_rec_per_s(&scratch.join("probe-journal-single"), 1)?,
    ));
    out.push((
        "core.journal_rec_per_s.sharded".to_string(),
        journal_rec_per_s(&scratch.join("probe-journal-sharded"), 2)?,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_number() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-probes");
        let probes = run_all(&dir).expect("probes run");
        assert_eq!(probes.len(), 9 + CcaKind::ALL.len());
        for (name, value) in &probes {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
