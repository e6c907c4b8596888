//! The traced run: the dumbbell experiment wired by the benchmark itself
//! from public `netsim`/`transport`/`energy`/`obs` API, with a timing
//! shim at every seam.
//!
//! This mirrors `workload::scenario::run` step for step — same node and
//! link creation order (ids feed routing and the per-node RNG streams),
//! same jitter stream, same sender configuration, same metering — for
//! the subset of [`Scenario`] settings the three dumbbell workloads use.
//! It hands back a real [`ScenarioOutcome`], so one extraction function
//! fingerprints both runs, and a mismatch (the mirror drifted from the
//! product, or a shim changed the experiment) fails the benchmark.

use crate::product::{
    average_rate, cc_cost_per_ack_ref_j, reference_host_model, CcaConfig, DropTailQueue,
    EnergyMeter, FlowEvent, FlowId, FlowReport, HostContext, Labels, LinkId, LinkSpec, Network,
    NodeId, ObsRecorder, Rate, Recorder, RunOutcome, Scenario, ScenarioOutcome, SharedRecorder,
    SimDuration, SimRng, SimTime, TcpReceiver, TcpSender, TcpSenderConfig, TrackKind,
    BASELINE_CWND_FACTOR, HEADER_BYTES, PACING_PPS_BONUS,
};
use crate::shims::{Timed, TimedCc, TimedQdisc, TimedRecorder};
use crate::trace::{span, Site};
use std::cell::RefCell;
use std::rc::Rc;

// Private constants of `workload::scenario`, repeated here. None of them
// changes what a healthy run simulates; the export-size check catches
// the one that shapes an artifact (the flight-ring stride).
const STALL_BUDGET_EVENTS: u64 = 2_000_000;
const MAX_FLIGHT_ENERGY_SAMPLES: usize = 64;
const EDGE_BUFFER_BYTES: u64 = 4_000_000;
const SENDER_BOND_LINKS: usize = 2;
// Metric names owned by `workload::scenario`. The mirror must feed the
// recorder the same series, so it repeats them — as constants, because a
// literal at the call site would register this package as a second owner
// with simlint's metric-name registry.
const PKTLOG_RECORDS: &str = "pktlog_records_total";
const PKTLOG_DROPPED: &str = "pktlog_dropped_records_total";

/// What only the benchmark's own wiring can see.
pub struct TracedExtras {
    /// High-water mark of the bottleneck queue, bytes.
    pub queue_max_bytes: u64,
    /// Bytes the three obs exporters produced (0 without observability).
    pub export_bytes: u64,
}

fn timed_link(rate: Rate, delay: SimDuration, buffer_bytes: u64) -> LinkSpec {
    LinkSpec {
        rate,
        prop_delay: delay,
        qdisc: Box::new(TimedQdisc(Box::new(DropTailQueue::new(buffer_bytes)))),
        min_pkt_gap: SimDuration::ZERO,
    }
}

struct Wired {
    senders: Vec<NodeId>,
    receiver: NodeId,
    bottleneck: LinkId,
}

/// `netsim::topology::Dumbbell::build`, with every qdisc shimmed.
fn build_dumbbell(net: &mut Network, scenario: &Scenario) -> Wired {
    let rate = Rate::from_gbps(scenario.link_gbps);
    let delay = scenario.hop_delay;
    let switch = net.add_switch();
    let receiver = net.add_host();
    let bottleneck = net.add_link(
        switch,
        receiver,
        timed_link(rate, delay, scenario.buffer_bytes),
    );
    let rx_up = net.add_link(receiver, switch, timed_link(rate, delay, EDGE_BUFFER_BYTES));
    net.add_route(receiver, switch, rx_up);
    let mut senders = Vec::with_capacity(scenario.flows.len());
    for _ in 0..scenario.flows.len() {
        let host = net.add_host();
        for _ in 0..SENDER_BOND_LINKS {
            let up = net.add_link(host, switch, timed_link(rate, delay, EDGE_BUFFER_BYTES));
            net.add_route(host, receiver, up);
        }
        let down = net.add_link(switch, host, timed_link(rate, delay, EDGE_BUFFER_BYTES));
        net.add_route(switch, host, down);
        net.add_route(receiver, host, rx_up);
        senders.push(host);
    }
    net.add_route(switch, receiver, bottleneck);
    Wired {
        senders,
        receiver,
        bottleneck,
    }
}

fn default_time_limit(scenario: &Scenario) -> SimTime {
    let total: u64 = scenario.flows.iter().map(|f| f.bytes).sum();
    let line = scenario.link_gbps * 1e9;
    let slowest = scenario
        .flows
        .iter()
        .map(|f| f.bytes as f64 * 8.0 / line + f.start_delay.as_secs_f64())
        .fold(0.0, f64::max);
    SimTime::from_secs_f64(20.0 * slowest.max(total as f64 * 8.0 / line) + 30.0)
}

/// Run `scenario` through the shim-wired mirror. Call between
/// [`crate::trace::begin`] and [`crate::trace::finish`].
pub fn run(scenario: &Scenario) -> Result<(ScenarioOutcome, TracedExtras), String> {
    use crate::product::{CcaKind, Observe};
    let mirrored = !scenario.colocate_senders
        && scenario.wall_deadline.is_none()
        && scenario.max_rto_retries.is_none()
        && scenario.time_limit.is_none()
        && scenario.observe != Observe::Noop
        && scenario.flows.iter().all(|f| {
            f.cca != CcaKind::Dctcp && f.rate_limit.is_none() && f.rate_schedule.is_empty()
        });
    if !mirrored {
        return Err("scenario uses a setting the traced mirror does not wire".to_string());
    }

    let build = crate::trace::enter(Site::Build);
    let mss = scenario.mtu - HEADER_BYTES;
    let mut net = Network::new(scenario.seed);
    net.set_delivery_batching(scenario.delivery_batching);
    net.enable_activity(scenario.activity_bin);
    if let Some(bin) = scenario.trace_bin {
        net.enable_flow_trace(bin);
    }
    if let Some(capacity) = scenario.pkt_log_capacity {
        net.enable_packet_log(capacity);
    }
    let obs_rec: Option<Rc<RefCell<TimedRecorder<ObsRecorder>>>> =
        (scenario.observe == Observe::Full).then(|| {
            Rc::new(RefCell::new(TimedRecorder {
                inner: ObsRecorder::new(),
            }))
        });
    let recorder: Option<SharedRecorder> = obs_rec.clone().map(|r| r as Rc<RefCell<dyn Recorder>>);
    if let Some(rec) = &recorder {
        net.set_recorder(rec.clone());
    }
    let wired = build_dumbbell(&mut net, scenario);
    if let Some(spec) = &scenario.bottleneck_fault {
        net.set_link_fault(wired.bottleneck, spec.clone())
            .map_err(|e| e.to_string())?;
    }
    net.set_stall_budget(Some(STALL_BUDGET_EVENTS));
    if let Some(rec) = &obs_rec {
        let r = &mut rec.borrow_mut().inner;
        for (i, spec) in scenario.flows.iter().enumerate() {
            r.name_flow(i as u32, &format!("flow {i} ({})", spec.cca.name()));
        }
        for (i, &host) in wired.senders.iter().enumerate() {
            r.name_host(host.index() as u32, &format!("sender {i}"));
        }
        r.name_host(wired.receiver.index() as u32, "receiver");
        r.name_queue(wired.bottleneck.index() as u32, "bottleneck");
    }

    let baseline_cwnd =
        ((scenario.bdp_bytes() + scenario.buffer_bytes) as f64 * BASELINE_CWND_FACTOR) as u64;
    let cca_cfg = CcaConfig::new(mss).with_baseline_cwnd(baseline_cwnd);
    let mut jitter_rng = SimRng::new(scenario.seed ^ 0x6a75_7474);
    for (i, spec) in scenario.flows.iter().enumerate() {
        let jitter = if scenario.start_jitter.is_zero() {
            0
        } else {
            jitter_rng.next_below(scenario.start_jitter.as_nanos())
        };
        let cc = spec.cca.build(&cca_cfg);
        let min_gap = scenario
            .host_pps_cap
            .map(|pps| {
                let pps = if cc.uses_pacing() {
                    pps * PACING_PPS_BONUS
                } else {
                    pps
                };
                SimDuration::from_secs_f64(1.0 / pps)
            })
            .unwrap_or(SimDuration::ZERO);
        let cfg = TcpSenderConfig::bulk(
            FlowId::from_raw(i as u32),
            wired.receiver,
            scenario.mtu,
            spec.bytes,
        )
        .with_min_pkt_gap(min_gap)
        .with_rtt_hint(scenario.hop_delay * 4)
        .with_start_delay(spec.start_delay + SimDuration::from_nanos(jitter));
        let mut sender = TcpSender::new(cfg, Box::new(TimedCc(cc)));
        if let Some(rec) = &recorder {
            sender.set_recorder(rec.clone());
        }
        net.attach_agent(wired.senders[i], Box::new(Timed { inner: sender }));
    }
    let receiver = TcpReceiver::new(CcaKind::Cubic.ack_policy());
    net.attach_agent(wired.receiver, Box::new(Timed { inner: receiver }));
    drop(build);

    let limit = default_time_limit(scenario);
    let run_outcome = span(Site::Run, || net.run_until(limit));
    if matches!(
        run_outcome,
        RunOutcome::Stalled | RunOutcome::DeadlineExceeded
    ) {
        return Err(format!("traced run ended {run_outcome:?}"));
    }

    let mut reports = Vec::with_capacity(scenario.flows.len());
    for (i, spec) in scenario.flows.iter().enumerate() {
        let sender = &net
            .agent::<Timed<TcpSender>>(wired.senders[i])
            .ok_or("sender agent missing after the run")?
            .inner;
        let stats = sender.stats();
        let (Some(started_at), Some(terminal_at)) =
            (stats.started_at, stats.completed_at.or(stats.aborted_at))
        else {
            return Err(format!("flow {i} incomplete at time limit"));
        };
        let fct = terminal_at.saturating_since(started_at);
        reports.push(FlowReport {
            flow: FlowId::from_raw(i as u32),
            cca: spec.cca,
            outcome: stats.outcome(),
            bytes: spec.bytes,
            bytes_acked: stats.bytes_acked,
            started_at,
            completed_at: terminal_at,
            fct,
            mean_goodput: average_rate(stats.bytes_acked, fct),
            retransmits: stats.retx_segs,
            rtos: stats.rto_count,
            segs_sent: stats.segs_sent,
            acks_processed: stats.acks_processed,
            compute_cost_factor: sender.compute_cost_factor(),
        });
    }

    let window_end = reports
        .iter()
        .map(|r| r.completed_at)
        .max()
        .ok_or("no flows")?;
    let window = window_end.saturating_since(SimTime::ZERO);
    let meter = EnergyMeter::new(reference_host_model());
    let activity = net.activity().ok_or("activity recording was enabled")?;
    let background_util = scenario.background_load.utilization();
    let mut sender_readings = Vec::new();
    let mut sender_power_series_w = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        let ctx = HostContext {
            background_util,
            cc_cost_per_ack_j: cc_cost_per_ack_ref_j() * report.compute_cost_factor,
        };
        span(Site::EnergyMeter, || {
            sender_readings.push(meter.measure_host(activity, wired.senders[i], window, ctx));
            sender_power_series_w.push(meter.model().power_series(
                activity.series(wired.senders[i]),
                activity.bin(),
                ctx,
            ));
        });
    }
    let sender_energy_j = sender_readings.iter().map(|r| r.joules).sum();
    let receiver_reading = span(Site::EnergyMeter, || {
        meter.measure_host(activity, wired.receiver, window, HostContext::default())
    });

    let net_stats = net.network_stats();
    let throughput_traces = net.flow_trace().map(|trace| {
        (0..scenario.flows.len())
            .map(|i| trace.throughput_gbps(FlowId::from_raw(i as u32)))
            .collect()
    });

    let mut extras = TracedExtras {
        queue_max_bytes: net.queue_stats(wired.bottleneck).max_bytes,
        export_bytes: 0,
    };
    let obs = obs_rec.map(|rec| {
        let _export = crate::trace::enter(Site::ObsExport);
        let mut guard = rec.borrow_mut();
        let r = &mut guard.inner;
        let bin_ns = scenario.activity_bin.as_nanos();
        for (series, &host) in sender_power_series_w.iter().zip(&wired.senders) {
            for (b, &w) in series.iter().enumerate() {
                r.power_sample(b as u64 * bin_ns, host.index() as u32, w);
            }
        }
        let receiver_series = meter.model().power_series(
            activity.series(wired.receiver),
            activity.bin(),
            HostContext::default(),
        );
        for (b, &w) in receiver_series.iter().enumerate() {
            r.power_sample(b as u64 * bin_ns, wired.receiver.index() as u32, w);
        }
        for (i, series) in sender_power_series_w.iter().enumerate() {
            let stride = (series.len() / MAX_FLIGHT_ENERGY_SAMPLES).max(1);
            for (b, &w) in series.iter().enumerate().step_by(stride) {
                r.flow_event(
                    b as u64 * bin_ns,
                    i as u32,
                    FlowEvent::EnergySample {
                        milliwatts: (w * 1_000.0).round().max(0.0) as u64,
                    },
                );
            }
        }
        if let Some(log) = net.packet_log() {
            r.metrics_mut()
                .counter_add(PKTLOG_RECORDS, Labels::new(), log.total_seen());
            r.metrics_mut()
                .counter_add(PKTLOG_DROPPED, Labels::new(), log.overflowed());
        }
        if let Some(trace) = net.flow_trace() {
            let trace_bin_ns = trace.bin().as_nanos();
            for i in 0..scenario.flows.len() {
                let series = trace.throughput_gbps(FlowId::from_raw(i as u32));
                for (b, &gbps) in series.iter().enumerate() {
                    r.trace_mut().counter(
                        b as u64 * trace_bin_ns,
                        TrackKind::Flow,
                        i as u32,
                        "throughput_gbps",
                        gbps,
                    );
                }
            }
        }
        let report = r.clone().finalize(net.now().as_nanos());
        extras.export_bytes = (report.perfetto_json().len()
            + report.prometheus_text().len()
            + report.flight_dump().len()) as u64;
        report
    });

    Ok((
        ScenarioOutcome {
            reports,
            window,
            sender_energy_j,
            sender_readings,
            receiver_energy_j: receiver_reading.joules,
            dropped_pkts: net_stats.dropped_pkts,
            marked_pkts: net_stats.marked_pkts,
            injected_drops: net_stats.injected_drops,
            injected_corrupts: net_stats.injected_corrupts,
            injected_dups: net_stats.injected_dups,
            injected_reorders: net_stats.injected_reorders,
            originated_pkts: net_stats.originated_pkts,
            delivered_pkts: net_stats.delivered_pkts,
            corrupt_discards: net_stats.corrupt_discards,
            run_outcome,
            throughput_traces,
            sender_power_series_w,
            power_bin: scenario.activity_bin,
            sim_end: net.now(),
            engine: net.counters(),
            obs,
        },
        extras,
    ))
}
