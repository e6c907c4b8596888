//! The run harness: one wire → run → report → meter path for every
//! topology.
//!
//! [`simulate_on`] owns everything a packet-level run does that is not
//! topology: create the [`Network`], attach the observability seam, turn
//! placed flows into sender agents (CCA config, baseline cwnd, pps gap,
//! RTT hint, rate schedule), attach receivers, arm the watchdogs, run to
//! the time limit, map the engine outcome to a typed error and collect
//! the [`FlowReport`]s into a [`SimulatedRun`]. [`SimulatedRun::meter`]
//! is the only energy readout. A topology contributes a closure that
//! builds itself on the harness's network, installs its fault, draws its
//! own start jitter and returns a [`Placement`]: the dumbbell
//! ([`crate::scenario::simulate`]), one rack cell of a population
//! ([`crate::population`]) and the parking lot (`scenario::parking`) are
//! the three callers. What differs between them on purpose is an argument
//! at the call site (see DESIGN.md, "Run phases").
//!
//! Racks run this code on worker threads, so the file is held to the
//! engine's panic-hygiene and range-index rules (`simlint.toml`): a
//! missing agent or an unterminated flow is a typed
//! [`ScenarioError::Incomplete`], never a panic.

use crate::iperf::{FlowReport, FlowSpec};
use crate::scenario::{Observe, ScenarioError, ScenarioOutcome};
use crate::stress::StressLoad;
use cca::{CcaConfig, CcaKind};
use energy::calibration::{self, PACING_PPS_BONUS};
use energy::host::HostContext;
use energy::meter::{EnergyMeter, EnergyReading};
use netsim::engine::{EngineCounters, Network, NetworkStats, RunOutcome};
use netsim::ids::{FlowId, NodeId};
use netsim::packet::HEADER_BYTES;
use netsim::time::{SimDuration, SimTime};
use obs::{FlowEvent, Labels, NoopRecorder, ObsRecorder, Recorder, SharedRecorder, TrackKind};
use std::cell::RefCell;
use std::rc::Rc;
use transport::mux::MuxSender;
use transport::receiver::TcpReceiver;
use transport::sender::{TcpSender, TcpSenderConfig};

/// Constant-cwnd sizing for the baseline module, relative to path
/// capacity (BDP + bottleneck buffer). 1.4x keeps the sender permanently
/// overshooting — bursty and lossy (~11% retransmissions) but still
/// progressing through SACK/RACK recovery, like the paper's §4.3 runs —
/// which lands its energy penalty in the paper's 8.2-14.2% band.
pub const BASELINE_CWND_FACTOR: f64 = 1.40;

/// Engine stall watchdog budget: abort the run if this many events are
/// processed without a single packet delivered to a host. Fault-free
/// runs deliver packets every handful of events, and even a fully
/// backed-off sender generates only a few timer events per RTO, so a
/// genuine run never comes close; only a livelocked event loop does.
const STALL_BUDGET_EVENTS: u64 = 2_000_000;

/// At most this many per-flow energy samples enter a flow's flight
/// ring: power bins arrive every millisecond and would otherwise evict
/// the cwnd/loss/RTO history the ring exists to keep.
const MAX_FLIGHT_ENERGY_SAMPLES: usize = 64;

/// The non-topology inputs of one run.
#[derive(Clone, Debug)]
pub struct Wiring {
    /// Engine RNG seed.
    pub seed: u64,
    /// MTU in bytes (wire size of a full segment).
    pub mtu: u32,
    /// Bin width for energy activity integration.
    pub activity_bin: SimDuration,
    /// Bin width for per-flow throughput traces (`None` = no traces).
    pub trace_bin: Option<SimDuration>,
    /// Packet-log ring capacity (`None` disables the log).
    pub pkt_log_capacity: Option<usize>,
    /// Same-timestamp delivery batching in the engine.
    pub delivery_batching: bool,
    /// Observability mode.
    pub observe: Observe,
    /// Host packet-processing ceiling in packets/sec, applied to every
    /// sender as a minimum packet gap (`None` disables).
    pub host_pps_cap: Option<f64>,
    /// Consecutive-RTO retry budget for every sender (`None` keeps the
    /// transport default).
    pub max_rto_retries: Option<u32>,
    /// Path capacity in bytes (BDP + bottleneck buffer): what the
    /// constant-cwnd baseline module is sized against.
    pub path_capacity_bytes: u64,
    /// Hard simulated-time limit.
    pub time_limit: SimTime,
    /// Wall-clock budget for the run (`None` = unbounded).
    pub wall_deadline: Option<std::time::Duration>,
}

/// One flow, placed: where it goes and what its path looks like.
#[derive(Clone, Debug)]
pub struct PlacedFlow {
    /// Flow id (unique within the run's network).
    pub flow: FlowId,
    /// What to send; `start_delay` is final (any jitter already added).
    pub spec: FlowSpec,
    /// The host running this flow's receiver.
    pub receiver: NodeId,
    /// The path's base RTT, seeding the sender's RTT estimator in place
    /// of the handshake sample.
    pub base_rtt: SimDuration,
}

/// One sender host and the flows it serves.
#[derive(Clone, Debug)]
pub struct SenderHost {
    /// The host node.
    pub host: NodeId,
    /// Its flows, in report order. A host that does not multiplex
    /// carries exactly one.
    pub flows: Vec<PlacedFlow>,
    /// Serve the flows from one [`MuxSender`] (kernel multiplexing; the
    /// host is metered with the ack-weighted mean of their CC costs)
    /// instead of a bare [`TcpSender`] (per-socket accounting).
    pub mux: bool,
}

/// What a topology hands the harness: who sends what from where.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Sender hosts in metering order. Reports come out host-major:
    /// every flow of the first host, then the second's, and so on.
    pub senders: Vec<SenderHost>,
    /// Receiver hosts; each gets one [`TcpReceiver`].
    pub receivers: Vec<NodeId>,
}

/// A path's bandwidth-delay product in bytes (excluding queueing).
pub fn bdp_bytes(link_gbps: f64, rtt_s: f64) -> u64 {
    (link_gbps * 1e9 / 8.0 * rtt_s) as u64
}

/// Draw `n` start jitters below `bound` from the stream seeded with
/// `stream_seed` (`ZERO` disables and draws nothing). Callers salt their
/// own seed so the stream is theirs alone.
pub(crate) fn start_jitters(stream_seed: u64, bound: SimDuration, n: usize) -> Vec<SimDuration> {
    // simlint::allow(rng-discipline, reason = "named stream: the caller's seed XOR its own salt; isolated so adding flows never perturbs engine or fault draws, and rack-local for racks so draws are identical for any thread count")
    let mut rng = netsim::rng::SimRng::new(stream_seed);
    (0..n)
        .map(|_| {
            let ns = if bound.is_zero() {
                0
            } else {
                rng.next_below(bound.as_nanos())
            };
            SimDuration::from_nanos(ns)
        })
        .collect()
}

/// A sender host as the meter sees it.
struct MeteredHost {
    host: NodeId,
    /// CC compute-cost factor of the flows it served.
    cost_factor: f64,
    /// The one flow a non-multiplexing host served: its power samples
    /// are attributable to that flow.
    sole_flow: Option<FlowId>,
}

/// A finished packet-level simulation, before any energy metering.
///
/// Everything in it is a function of the run's network inputs alone:
/// background compute changes power, not packets (DESIGN.md, "Run
/// phases"). [`SimulatedRun::meter`] evaluates the recorded host
/// activity under a load and can be called any number of times, which
/// is how Figure 4 measures one transfer at four load levels.
pub struct SimulatedRun {
    /// Per-flow iperf-style reports, host-major in placement order
    /// (flow order wherever host `i` serves flow `i`).
    pub reports: Vec<FlowReport>,
    /// The measurement window: experiment start until the last flow
    /// reached its terminal state.
    pub window: SimDuration,
    /// How the engine's run loop returned.
    pub run_outcome: RunOutcome,
    /// Drop, mark, fault and frame-conservation counters.
    pub net_stats: NetworkStats,
    /// Per-flow throughput series in Gb/s (if tracing was enabled), in
    /// report order.
    pub throughput_traces: Option<Vec<Vec<f64>>>,
    /// Simulation time when the run loop returned.
    pub sim_end: SimTime,
    /// Engine performance counters.
    pub engine: EngineCounters,
    /// The finished network: owns the host activity record the meter
    /// integrates, plus the packet log and flow trace the recorder reads.
    net: Network,
    senders: Vec<MeteredHost>,
    receivers: Vec<NodeId>,
    activity_bin: SimDuration,
    obs_rec: Option<Rc<RefCell<ObsRecorder>>>,
}

/// One energy measurement of a [`SimulatedRun`] under a background load.
#[derive(Clone, Debug, Default)]
pub struct EnergyMeasurement {
    /// Total sender-side energy over the window.
    pub sender_energy_j: f64,
    /// Per-sender-host energy readings.
    pub sender_readings: Vec<EnergyReading>,
    /// The receiver hosts' energy over the same window.
    pub receiver_energy_j: f64,
}

/// The packet-level phase of every run: create the network, let `place`
/// build the topology on it and place the flows, wire the agents, run
/// the engine to quiescence (or `wiring.time_limit`) and collect the
/// flow reports.
///
/// `place` gets the network — with activity recording, traces, packet
/// log and recorder already attached — and, under [`Observe::Full`], the
/// recorder so it can name its hosts and queues for the trace viewer.
pub fn simulate_on(
    wiring: &Wiring,
    place: impl FnOnce(&mut Network, Option<&RefCell<ObsRecorder>>) -> Result<Placement, ScenarioError>,
) -> Result<SimulatedRun, ScenarioError> {
    let mut net = Network::new(wiring.seed);
    net.set_delivery_batching(wiring.delivery_batching);
    net.enable_activity(wiring.activity_bin);
    if let Some(bin) = wiring.trace_bin {
        net.enable_flow_trace(bin);
    }
    if let Some(capacity) = wiring.pkt_log_capacity {
        net.enable_packet_log(capacity);
    }

    // The observability seam. `obs_rec` keeps the concrete type so the
    // finish can feed post-run series and finalize; `recorder` is the
    // erased handle shared with the engine and every sender.
    let obs_rec: Option<Rc<RefCell<ObsRecorder>>> =
        (wiring.observe == Observe::Full).then(|| Rc::new(RefCell::new(ObsRecorder::new())));
    let recorder: Option<SharedRecorder> = match wiring.observe {
        Observe::Off => None,
        Observe::Noop => Some(Rc::new(RefCell::new(NoopRecorder))),
        Observe::Full => obs_rec.clone().map(|r| r as Rc<RefCell<dyn obs::Recorder>>),
    };
    if let Some(rec) = &recorder {
        net.set_recorder(rec.clone());
    }

    let placement = place(&mut net, obs_rec.as_deref())?;
    net.set_stall_budget(Some(STALL_BUDGET_EVENTS));
    let placed = || placement.senders.iter().flat_map(|h| &h.flows);
    if let Some(rec) = &obs_rec {
        let mut r = rec.borrow_mut();
        for f in placed() {
            let id = f.flow.index();
            r.name_flow(id as u32, &format!("flow {id} ({})", f.spec.cca.name()));
        }
    }

    let mss = wiring.mtu - HEADER_BYTES;
    let baseline_cwnd = (wiring.path_capacity_bytes as f64 * BASELINE_CWND_FACTOR) as u64;
    let cca_cfg = CcaConfig::new(mss).with_baseline_cwnd(baseline_cwnd);
    let build_sender = |f: &PlacedFlow| -> TcpSender {
        let cc = f.spec.cca.build(&cca_cfg);
        let min_gap = wiring
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
        let mut cfg = TcpSenderConfig::bulk(f.flow, f.receiver, wiring.mtu, f.spec.bytes)
            .with_min_pkt_gap(min_gap)
            .with_rtt_hint(f.base_rtt)
            .with_start_delay(f.spec.start_delay);
        if let Some(retries) = wiring.max_rto_retries {
            cfg = cfg.with_max_rto_retries(retries);
        }
        if let Some(rate) = f.spec.rate_limit {
            cfg = cfg.with_rate_limit(rate);
        }
        for &(at, rate) in &f.spec.rate_schedule {
            cfg = cfg.with_rate_change(at, rate);
        }
        let mut sender = TcpSender::new(cfg, cc);
        if let Some(rec) = &recorder {
            sender.set_recorder(rec.clone());
        }
        sender
    };
    for host in &placement.senders {
        debug_assert!(host.mux || host.flows.len() == 1, "one flow per bare host");
        let mut subs = host.flows.iter().map(&build_sender);
        if host.mux {
            net.attach_agent(host.host, Box::new(MuxSender::new(subs.collect())));
        } else if let Some(sender) = subs.next() {
            net.attach_agent(host.host, Box::new(sender));
        }
    }

    // The receivers' ack policy follows the (single) algorithm family in
    // use; the paper never mixes DCTCP with non-ECN algorithms.
    let policy = if placed().any(|f| f.spec.cca == CcaKind::Dctcp) {
        CcaKind::Dctcp.ack_policy()
    } else {
        CcaKind::Cubic.ack_policy()
    };
    for &receiver in &placement.receivers {
        net.attach_agent(receiver, Box::new(TcpReceiver::new(policy)));
    }

    let limit = wiring.time_limit;
    if let Some(budget) = wiring.wall_deadline {
        // simlint::allow(wall-clock, reason = "converts the caller's wall budget into the engine watchdog deadline; decides when to abandon a run, never what it computes")
        net.set_wall_deadline(Some(std::time::Instant::now() + budget));
    }
    let run_outcome = net.run_until(limit);
    match run_outcome {
        RunOutcome::Stalled => return Err(ScenarioError::Stalled { at: net.now() }),
        RunOutcome::DeadlineExceeded => {
            return Err(ScenarioError::DeadlineExceeded {
                at: net.now(),
                budget: wiring.wall_deadline.unwrap_or_default(),
            })
        }
        RunOutcome::Drained | RunOutcome::Stopped | RunOutcome::TimeLimit => {}
    }

    // Collect per-flow reports; every flow must have reached a terminal
    // state — completed, or cleanly aborted by its retry budget.
    let mut reports = Vec::with_capacity(placed().count());
    let mut senders = Vec::with_capacity(placement.senders.len());
    for host in &placement.senders {
        let first = reports.len();
        for (j, f) in host.flows.iter().enumerate() {
            let incomplete = || ScenarioError::Incomplete {
                flow: f.flow,
                limit,
            };
            let sender = if host.mux {
                net.agent::<MuxSender>(host.host).map(|mux| mux.sub(j))
            } else {
                net.agent::<TcpSender>(host.host)
            }
            .ok_or_else(incomplete)?;
            let stats = sender.stats();
            // An aborted flow's terminal time is the abort; its goodput is
            // over the bytes it actually moved.
            let terminal_at = stats
                .completed_at
                .or(stats.aborted_at)
                .ok_or_else(incomplete)?;
            let started_at = stats.started_at.ok_or_else(incomplete)?;
            let fct = terminal_at.saturating_since(started_at);
            reports.push(FlowReport {
                flow: f.flow,
                cca: f.spec.cca,
                outcome: stats.outcome(),
                bytes: f.spec.bytes,
                bytes_acked: stats.bytes_acked,
                started_at,
                completed_at: terminal_at,
                fct,
                mean_goodput: netsim::units::average_rate(stats.bytes_acked, fct),
                retransmits: stats.retx_segs,
                rtos: stats.rto_count,
                segs_sent: stats.segs_sent,
                acks_processed: stats.acks_processed,
                compute_cost_factor: sender.compute_cost_factor(),
            });
        }
        let served = reports.get(first..).unwrap_or_default();
        // A bare host is metered with its flow's own factor: the
        // ack-weighted mean `f * acks / acks` can differ from `f` by an ulp.
        let (cost_factor, sole_flow) = match served {
            [only] if !host.mux => (only.compute_cost_factor, Some(only.flow)),
            _ => (ack_weighted_cost_factor(served), None),
        };
        senders.push(MeteredHost {
            host: host.host,
            cost_factor,
            sole_flow,
        });
    }

    // The measurement window: RAPL-style reads cover [0, last terminal time].
    let window_end = reports.iter().map(|r| r.completed_at).max();
    let window = window_end
        .unwrap_or(SimTime::ZERO)
        .saturating_since(SimTime::ZERO);
    let throughput_traces = net.flow_trace().map(|trace| {
        reports
            .iter()
            .map(|r| trace.throughput_gbps(r.flow))
            .collect()
    });

    Ok(SimulatedRun {
        reports,
        window,
        run_outcome,
        net_stats: net.network_stats(),
        throughput_traces,
        sim_end: net.now(),
        engine: net.counters(),
        net,
        senders,
        receivers: placement.receivers,
        activity_bin: wiring.activity_bin,
        obs_rec,
    })
}

/// One host serves every flow in `served`: weight the CC cost by each
/// flow's share of the processed acks.
fn ack_weighted_cost_factor(served: &[FlowReport]) -> f64 {
    let total_acks: u64 = served.iter().map(|r| r.acks_processed).sum();
    if total_acks == 0 {
        return 0.0;
    }
    served
        .iter()
        .map(|r| r.compute_cost_factor * r.acks_processed as f64)
        .sum::<f64>()
        / total_acks as f64
}

impl SimulatedRun {
    /// How sender host `sender` is metered under `load`.
    fn sender_ctx(sender: &MeteredHost, load: StressLoad) -> HostContext {
        HostContext {
            background_util: load.utilization(),
            cc_cost_per_ack_j: calibration::cc_cost_per_ack_ref_j() * sender.cost_factor,
        }
    }

    /// The energy-metering phase: RAPL-style reads of every host over the
    /// window, with `load` as the sender hosts' background utilization.
    /// A pure function of the recorded activity, the reports and `load`.
    /// Readings and sums only: racks and the figures' per-load re-metering
    /// call this and nothing else, so the per-bin power series is rendered
    /// by [`Self::finish`], its one consumer.
    pub fn meter(&self, load: StressLoad) -> EnergyMeasurement {
        let Some(activity) = self.net.activity() else {
            debug_assert!(false, "the harness always records activity");
            return EnergyMeasurement::default();
        };
        let meter = EnergyMeter::new(calibration::reference_host_model());
        // Hosts in placement order, so float summation order is fixed.
        let sender_readings: Vec<EnergyReading> = self
            .senders
            .iter()
            .map(|sender| {
                let ctx = Self::sender_ctx(sender, load);
                meter.measure_host(activity, sender.host, self.window, ctx)
            })
            .collect();
        let receiver_energy_j = self
            .receivers
            .iter()
            .map(|&host| {
                meter
                    .measure_host(activity, host, self.window, HostContext::default())
                    .joules
            })
            .sum();
        EnergyMeasurement {
            sender_energy_j: sender_readings.iter().map(|r| r.joules).sum(),
            sender_readings,
            receiver_energy_j,
        }
    }

    /// Per-sender-host instantaneous power (W per activity bin) under
    /// `load`: the integrand of [`Self::meter`]'s readings, in sender order.
    fn sender_power_series_w(&self, load: StressLoad) -> Vec<Vec<f64>> {
        let Some(activity) = self.net.activity() else {
            return Vec::new();
        };
        let model = calibration::reference_host_model();
        self.senders
            .iter()
            .map(|sender| {
                model.power_series(
                    activity.series(sender.host),
                    activity.bin(),
                    Self::sender_ctx(sender, load),
                )
            })
            .collect()
    }

    /// Meter under `load`, feed the post-run series into the recorder (if
    /// the run carried one) and assemble the outcome.
    pub fn finish(self, load: StressLoad) -> ScenarioOutcome {
        let energy = self.meter(load);
        let sender_power_series_w = self.sender_power_series_w(load);
        // The engine and senders still hold `Rc` clones inside `net`, so
        // the recorder is taken out of the cell rather than unwrapped.
        let obs = self.obs_rec.as_ref().map(|rec| {
            let mut r = rec.borrow_mut();
            self.feed_recorder(&mut r, &sender_power_series_w);
            std::mem::take(&mut *r).finalize(self.sim_end.as_nanos())
        });
        let stats = self.net_stats;
        ScenarioOutcome {
            reports: self.reports,
            window: self.window,
            sender_energy_j: energy.sender_energy_j,
            sender_readings: energy.sender_readings,
            receiver_energy_j: energy.receiver_energy_j,
            dropped_pkts: stats.dropped_pkts,
            marked_pkts: stats.marked_pkts,
            injected_drops: stats.injected_drops,
            injected_corrupts: stats.injected_corrupts,
            injected_dups: stats.injected_dups,
            injected_reorders: stats.injected_reorders,
            originated_pkts: stats.originated_pkts,
            delivered_pkts: stats.delivered_pkts,
            corrupt_discards: stats.corrupt_discards,
            run_outcome: self.run_outcome,
            throughput_traces: self.throughput_traces,
            sender_power_series_w,
            power_bin: self.activity_bin,
            sim_end: self.sim_end,
            engine: self.engine,
            obs,
        }
    }

    /// Post-run series for the observability report: host power tracks,
    /// per-flow energy samples, packet-log totals and throughput tracks.
    fn feed_recorder(&self, r: &mut ObsRecorder, sender_power_series_w: &[Vec<f64>]) {
        let Some(activity) = self.net.activity() else {
            return;
        };
        let bin_ns = activity.bin().as_nanos();
        for (series, sender) in sender_power_series_w.iter().zip(&self.senders) {
            for (b, &w) in series.iter().enumerate() {
                r.power_sample(b as u64 * bin_ns, sender.host.index() as u32, w);
            }
        }
        for &receiver in &self.receivers {
            let series = calibration::reference_host_model().power_series(
                activity.series(receiver),
                activity.bin(),
                HostContext::default(),
            );
            for (b, &w) in series.iter().enumerate() {
                r.power_sample(b as u64 * bin_ns, receiver.index() as u32, w);
            }
        }
        // Per-flow energy samples (hosts serving one flow), strided so
        // they don't evict the flight ring's protocol history.
        for (series, sender) in sender_power_series_w.iter().zip(&self.senders) {
            let Some(flow) = sender.sole_flow else {
                continue;
            };
            let stride = (series.len() / MAX_FLIGHT_ENERGY_SAMPLES).max(1);
            for (b, &w) in series.iter().enumerate().step_by(stride) {
                r.flow_event(
                    b as u64 * bin_ns,
                    flow.index() as u32,
                    FlowEvent::EnergySample {
                        milliwatts: (w * 1_000.0).round().max(0.0) as u64,
                    },
                );
            }
        }
        if let Some(log) = self.net.packet_log() {
            r.metrics_mut()
                .counter_add("pktlog_records_total", Labels::new(), log.total_seen());
            r.metrics_mut().counter_add(
                "pktlog_dropped_records_total",
                Labels::new(),
                log.overflowed(),
            );
        }
        if let (Some(trace), Some(traces)) = (self.net.flow_trace(), &self.throughput_traces) {
            let trace_bin_ns = trace.bin().as_nanos();
            for (series, report) in traces.iter().zip(&self.reports) {
                for (b, &gbps) in series.iter().enumerate() {
                    r.trace_mut().counter(
                        b as u64 * trace_bin_ns,
                        TrackKind::Flow,
                        report.flow.index() as u32,
                        "throughput_gbps",
                        gbps,
                    );
                }
            }
        }
    }
}
