//! Scenario construction and execution: the paper's testbed in a box.
//!
//! A [`Scenario`] is one run of the experiment machinery: the dumbbell
//! topology (10 Gb/s bottleneck, bonded sender uplinks), one sender host
//! **per flow** — matching the paper's per-socket energy accounting, where
//! each iperf3 flow's power is attributable to its own CPU package — a
//! shared receiver host, the flows themselves, optional background
//! compute load, and the energy measurement window ("from when the
//! experiment began until both flows successfully completed", §1).
//! [`simulate`] is this topology's placement on the shared run harness
//! ([`crate::harness`]), which owns the wiring, the run loop, the flow
//! reports and the energy readout. [`simulate_parking_lot`] places the
//! same [`Scenario`] on a chain of bottlenecks instead: both read their
//! run knobs through one wiring, so a knob means the same thing on both.
//! The two testbed host rules, the pps ceiling and the start jitter, are
//! the dumbbell's alone.
//!
//! Figure jobs and campaign cells run these placements on worker threads,
//! so the file is held to the engine's panic-hygiene and range-index
//! rules (`simlint.toml`): a scenario that does not fit its topology is a
//! typed [`ScenarioError`], never a panic.

use crate::harness::{
    self, simulate_on, PlacedFlow, Placement, SenderHost, Wiring, ACTIVITY_BIN, START_JITTER,
};
use crate::iperf::{FlowReport, FlowSpec};
use crate::stress::StressLoad;
use energy::calibration::MAX_HOST_PPS;
use energy::meter::EnergyReading;
use netsim::engine::{EngineCounters, RunOutcome};
use netsim::fault::FaultSpec;
use netsim::ids::FlowId;
use netsim::packet::HEADER_BYTES;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::{
    BottleneckQueue, Dumbbell, DumbbellConfig, ParkingLot, ParkingLotConfig, BUFFER_BYTES,
    HOP_DELAY, LINK_GBPS,
};
use netsim::units::Rate;
use obs::ObsReport;

pub use crate::harness::{EnergyMeasurement, SimulatedRun, BASELINE_CWND_FACTOR};

/// How much observability a run carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Observe {
    /// No recorder attached: the instrumentation seam costs one
    /// `Option` check per site (the production default).
    #[default]
    Off,
    /// Hooks attached to a [`NoopRecorder`]: every call site fires but
    /// records nothing. Exists so the benchmark ledger can price the
    /// seam itself (`obs.noop_overhead_ratio`).
    Noop,
    /// Full pipeline: metrics registry, per-flow flight recorder, and
    /// Perfetto trace, returned as [`ScenarioOutcome::obs`].
    Full,
}

/// One experiment run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// MTU in bytes (wire size of a full segment).
    pub mtu: u32,
    /// Bottleneck rate in Gb/s (the paper's is 10).
    pub link_gbps: f64,
    /// Per-hop propagation delay.
    pub hop_delay: SimDuration,
    /// Bottleneck buffer in bytes.
    pub buffer_bytes: u64,
    /// The flows; each gets its own sender host.
    pub flows: Vec<FlowSpec>,
    /// Background compute load on every sender host.
    pub background_load: StressLoad,
    /// Master RNG seed.
    pub seed: u64,
    /// Bin width for per-flow throughput traces (`None` = no traces).
    pub trace_bin: Option<SimDuration>,
    /// Bin width for energy activity integration.
    pub activity_bin: SimDuration,
    /// Host packet-processing ceiling in packets/sec (`None` disables).
    /// The dumbbell's alone: the parking lot's hosts run without one.
    pub host_pps_cap: Option<f64>,
    /// Hard simulated-time limit (safety net against livelock).
    pub time_limit: Option<SimTime>,
    /// Put every flow on ONE sender host (kernel multiplexing) instead of
    /// one host per flow. The paper's §5 asks how the unfairness savings
    /// behave in this regime: per-socket power then depends on the
    /// aggregate rate only.
    pub colocate_senders: bool,
    /// Upper bound on the per-flow random start jitter drawn from the
    /// scenario seed ([`START_JITTER`] by default; the simulator is
    /// otherwise a pure function of its inputs). `ZERO` disables. The
    /// dumbbell's alone: the parking lot's flows start together.
    pub start_jitter: SimDuration,
    /// Fault injection on the bottleneck link ("chaos mode"): random
    /// loss, corruption, duplication, reordering, jitter, scheduled
    /// outages. `None` keeps the wire perfect.
    pub bottleneck_fault: Option<FaultSpec>,
    /// Consecutive-RTO retry budget for every sender (`None` keeps the
    /// transport default). Chaos runs lower this so flows on a dead path
    /// abort in simulated seconds instead of minutes.
    pub max_rto_retries: Option<u32>,
    /// Wall-clock budget for the run (`None` = unbounded). Complements
    /// `time_limit` (simulated time) and the stall watchdog (event
    /// count): a slow-wedged run that keeps making nominal progress is
    /// cut off by the host clock and surfaces as
    /// [`ScenarioError::DeadlineExceeded`].
    pub wall_deadline: Option<std::time::Duration>,
    /// Observability mode (see [`Observe`]).
    pub observe: Observe,
    /// Packet-log capacity (`None` disables the log). When observability
    /// is on, the log's two counts (see [`netsim::engine::PacketLog`])
    /// surface as the `pktlog_records_total` and
    /// `pktlog_dropped_records_total` metrics.
    pub pkt_log_capacity: Option<usize>,
    /// Same-timestamp delivery batching in the engine (on by default).
    /// The batching-equivalence tests flip it off to pin that coalesced
    /// dispatch is bit-identical to per-packet dispatch.
    pub delivery_batching: bool,
}

impl Scenario {
    /// The paper's testbed defaults: [`LINK_GBPS`], [`HOP_DELAY`] per hop
    /// (~100 µs base RTT), a [`BUFFER_BYTES`] drop-tail bottleneck buffer,
    /// the calibrated host pps ceiling, [`ACTIVITY_BIN`] metering bins and
    /// [`START_JITTER`].
    pub fn new(mtu: u32, flows: Vec<FlowSpec>) -> Self {
        Scenario {
            mtu,
            link_gbps: LINK_GBPS,
            hop_delay: HOP_DELAY,
            buffer_bytes: BUFFER_BYTES,
            flows,
            background_load: StressLoad::IDLE,
            seed: 1,
            trace_bin: None,
            activity_bin: ACTIVITY_BIN,
            host_pps_cap: Some(MAX_HOST_PPS),
            time_limit: None,
            colocate_senders: false,
            start_jitter: START_JITTER,
            bottleneck_fault: None,
            max_rto_retries: None,
            wall_deadline: None,
            observe: Observe::Off,
            pkt_log_capacity: None,
            delivery_batching: true,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the background compute load.
    pub fn with_background_load(mut self, load: StressLoad) -> Self {
        self.background_load = load;
        self
    }

    /// Enable per-flow throughput tracing.
    pub fn with_trace(mut self, bin: SimDuration) -> Self {
        self.trace_bin = Some(bin);
        self
    }

    /// Multiplex all flows onto a single sender host.
    pub fn with_colocated_senders(mut self) -> Self {
        self.colocate_senders = true;
        self
    }

    /// Install a fault spec on the bottleneck link (chaos mode).
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.bottleneck_fault = Some(spec);
        self
    }

    /// Override every sender's consecutive-RTO retry budget.
    pub fn with_max_rto_retries(mut self, retries: u32) -> Self {
        self.max_rto_retries = Some(retries);
        self
    }

    /// Bound the run by host wall-clock time.
    pub fn with_wall_deadline(mut self, budget: std::time::Duration) -> Self {
        self.wall_deadline = Some(budget);
        self
    }

    /// Enable the full observability pipeline (metrics, flight
    /// recorder, Perfetto trace); the run returns an
    /// [`ObsReport`] in [`ScenarioOutcome::obs`].
    pub fn with_observability(mut self) -> Self {
        self.observe = Observe::Full;
        self
    }

    /// Attach a no-op recorder: exercises every instrumentation call
    /// site without recording, for overhead measurement.
    pub fn with_noop_observer(mut self) -> Self {
        self.observe = Observe::Noop;
        self
    }

    /// Enable the engine's packet log with the given capacity.
    pub fn with_packet_log(mut self, capacity: usize) -> Self {
        self.pkt_log_capacity = Some(capacity);
        self
    }

    /// Toggle same-timestamp delivery batching in the engine.
    pub fn with_delivery_batching(mut self, on: bool) -> Self {
        self.delivery_batching = on;
        self
    }

    /// The paper's "full speed, then idle" schedule: flow *k* is held
    /// back until a pre-run of flows `0..k` completes, so each flow has
    /// the link to itself. The pre-run keeps every setting that shapes
    /// packets and drops the ones that only record (trace, observability,
    /// packet log).
    pub fn serialized(mut self) -> Result<Scenario, ScenarioError> {
        for k in 1..self.flows.len() {
            let mut earlier = self.clone();
            earlier.flows.truncate(k);
            earlier.trace_bin = None;
            earlier.observe = Observe::Off;
            earlier.pkt_log_capacity = None;
            self.flows[k].start_delay = simulate(&earlier)?.window;
        }
        Ok(self)
    }

    /// Path bandwidth-delay product in bytes (excluding queueing).
    pub fn bdp_bytes(&self) -> u64 {
        harness::bdp_bytes(self.link_gbps, self.hop_delay.as_secs_f64() * 4.0)
    }

    /// The fields every placement reads, held to values a testbed can
    /// have before anything is built ([`ScenarioError::Invalid`]).
    fn check_fields(&self) -> Result<(), ScenarioError> {
        let field = if !(self.link_gbps.is_finite() && self.link_gbps > 0.0) {
            "link_gbps"
        } else if self.buffer_bytes == 0 {
            "buffer_bytes"
        } else if self.activity_bin == SimDuration::ZERO {
            "activity_bin"
        } else if self.trace_bin == Some(SimDuration::ZERO) {
            "trace_bin"
        } else {
            return Ok(());
        };
        Err(ScenarioError::Invalid { field })
    }

    /// The discipline of every contended link
    /// ([`harness::bottleneck_queue`] over the scenario's flows).
    fn bottleneck_queue(&self) -> BottleneckQueue {
        harness::bottleneck_queue(
            self.mtu,
            self.buffer_bytes,
            self.flows.iter().map(|f| f.cca),
        )
    }

    /// Every run knob of the scenario as the harness reads it, for any
    /// topology. Only the path's bandwidth-delay product comes from the
    /// topology: the constant-cwnd baseline is sized against it plus the
    /// bottleneck buffer.
    fn wiring(&self, path_bdp_bytes: u64) -> Wiring {
        Wiring {
            seed: self.seed,
            mtu: self.mtu,
            activity_bin: self.activity_bin,
            trace_bin: self.trace_bin,
            pkt_log_capacity: self.pkt_log_capacity,
            delivery_batching: self.delivery_batching,
            observe: self.observe,
            host_pps_cap: self.host_pps_cap,
            max_rto_retries: self.max_rto_retries,
            path_capacity_bytes: path_bdp_bytes + self.buffer_bytes,
            time_limit: self.time_limit.unwrap_or_else(|| self.default_time_limit()),
            wall_deadline: self.wall_deadline,
        }
    }

    /// One start jitter per flow, drawn below `start_jitter` from the
    /// scenario's own stream.
    fn start_jitters(&self) -> Vec<SimDuration> {
        harness::start_jitters(self.seed ^ JITTER_SALT, self.start_jitter, self.flows.len())
    }

    fn default_time_limit(&self) -> SimTime {
        let total_bytes: u64 = self.flows.iter().map(|f| f.bytes).sum();
        let slowest = self
            .flows
            .iter()
            .map(|f| {
                let rate = f
                    .rate_limit
                    .map(|r| r.bps())
                    .unwrap_or(self.link_gbps * 1e9)
                    .max(1.0);
                f.bytes as f64 * 8.0 / rate + f.start_delay.as_secs_f64()
            })
            .fold(0.0, f64::max);
        let aggregate = total_bytes as f64 * 8.0 / (self.link_gbps * 1e9);
        // Generous: 20x the ideal plus a constant for RTO-heavy runs.
        SimTime::from_secs_f64(20.0 * slowest.max(aggregate) + 30.0)
    }
}

/// Why a scenario failed.
#[derive(Debug)]
pub enum ScenarioError {
    /// A flow did not complete within the time limit.
    Incomplete {
        /// The stuck flow.
        flow: FlowId,
        /// The limit that was hit.
        limit: SimTime,
    },
    /// The engine's stall watchdog tripped: the event loop churned
    /// without delivering a single packet (livelock).
    Stalled {
        /// Simulated time when the watchdog gave up.
        at: SimTime,
    },
    /// The wall-clock budget ([`Scenario::wall_deadline`]) expired with
    /// the run still going: the cell is slow-wedged, not livelocked.
    DeadlineExceeded {
        /// Simulated time reached when the deadline fired.
        at: SimTime,
        /// The budget that was exceeded.
        budget: std::time::Duration,
    },
    /// The scenario's fault spec was rejected at install time (bad
    /// probability, empty/overlapping flap window, oversized jitter).
    Fault(netsim::fault::FaultSpecError),
    /// The scenario does not fit the topology it was placed on (a
    /// dumbbell with no flow; a parking lot with no hop, with other than
    /// `hops + 1` flows, or with colocated senders).
    Placement {
        /// What the topology requires.
        detail: String,
    },
    /// A [`Scenario`] field no testbed has: a `link_gbps` that is not
    /// positive and finite, or a zero `buffer_bytes`, `activity_bin` or
    /// `trace_bin`.
    Invalid {
        /// The field.
        field: &'static str,
    },
    /// The MTU leaves no room for payload after the
    /// [`HEADER_BYTES`]-byte header.
    MtuTooSmall {
        /// The MTU asked for.
        mtu: u32,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Incomplete { flow, limit } => {
                write!(f, "flow {flow} incomplete at time limit {limit}")
            }
            ScenarioError::Stalled { at } => {
                write!(f, "event loop stalled (no packet progress) at {at}")
            }
            ScenarioError::DeadlineExceeded { at, budget } => {
                write!(
                    f,
                    "wall-clock deadline exceeded ({:.1}s budget) at sim time {at}",
                    budget.as_secs_f64()
                )
            }
            ScenarioError::Fault(err) => write!(f, "{err}"),
            ScenarioError::Placement { detail } => {
                write!(f, "scenario does not fit the topology: {detail}")
            }
            ScenarioError::Invalid { field } => {
                write!(f, "scenario field `{field}` must be positive and finite")
            }
            ScenarioError::MtuTooSmall { mtu } => {
                write!(
                    f,
                    "MTU {mtu} does not exceed the {HEADER_BYTES}-byte header"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Everything one run produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Per-flow iperf-style reports, in flow order.
    pub reports: Vec<FlowReport>,
    /// The measurement window: experiment start until the last flow
    /// completed.
    pub window: SimDuration,
    /// Total sender-side energy over the window (the paper's headline
    /// quantity; see `DESIGN.md` on per-socket accounting).
    pub sender_energy_j: f64,
    /// Per-sender-host energy readings, in flow order.
    pub sender_readings: Vec<EnergyReading>,
    /// The receiver host's energy over the same window (reported
    /// separately; the paper's per-flow arithmetic covers senders).
    pub receiver_energy_j: f64,
    /// Packets dropped at queues.
    pub dropped_pkts: u64,
    /// Packets CE-marked at queues.
    pub marked_pkts: u64,
    /// Frames lost to the fault layer (disjoint from `dropped_pkts`,
    /// which counts congestive queue drops only).
    pub injected_drops: u64,
    /// Frames bit-corrupted by the fault layer (discarded at the host).
    pub injected_corrupts: u64,
    /// Frames duplicated by the fault layer.
    pub injected_dups: u64,
    /// Frames held back for reordering by the fault layer.
    pub injected_reorders: u64,
    /// Frames agents handed to the network (data + acks, all hosts).
    pub originated_pkts: u64,
    /// Frames dispatched to a host agent (clean deliveries).
    pub delivered_pkts: u64,
    /// Corrupted frames discarded at a host NIC before the transport.
    pub corrupt_discards: u64,
    /// How the engine's run loop returned. [`RunOutcome::Drained`] means
    /// the network reached quiescence, which is when the paranoid
    /// checker may assert exact frame conservation.
    pub run_outcome: RunOutcome,
    /// Per-flow throughput series in Gb/s (if tracing was enabled),
    /// in flow order.
    pub throughput_traces: Option<Vec<Vec<f64>>>,
    /// Per-sender-host instantaneous power series (W per activity bin),
    /// aligned with [`Self::power_bin`]. One series per sender host.
    pub sender_power_series_w: Vec<Vec<f64>>,
    /// Bin width of the power series.
    pub power_bin: SimDuration,
    /// Simulation time when the run loop returned (quiescent or limit).
    pub sim_end: SimTime,
    /// Engine performance counters: events processed and scheduler
    /// wheel/heap operation counts. Exact, so they double as a
    /// determinism fingerprint in the golden regression tests.
    pub engine: EngineCounters,
    /// The observability report, when the scenario ran with
    /// [`Observe::Full`] (`None` otherwise).
    pub obs: Option<ObsReport>,
}

impl ScenarioOutcome {
    /// Average sender power over the window (per the paper's Fig. 6:
    /// energy over iperf time).
    pub fn average_sender_power_w(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.sender_energy_j / self.window.as_secs_f64()
    }
}

/// Run a scenario to completion and measure it: [`simulate`], then meter
/// under the scenario's own background load.
pub fn run(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
    Ok(simulate(scenario)?.finish(scenario.background_load))
}

/// Salt of the dumbbell's start-jitter stream (`"jutt"`).
const JITTER_SALT: u64 = 0x6a75_7474;

/// The packet-level phase of [`run`]: the dumbbell's placement on the
/// shared harness ([`simulate_on`]). Builds the testbed, installs the
/// bottleneck fault, jitters the starts and puts one flow on each sender
/// host (or all of them behind one multiplexing host). Reads every
/// scenario field except `background_load`.
///
/// A field no testbed has is [`ScenarioError::Invalid`], a scenario with
/// no flow [`ScenarioError::Placement`] and an MTU within the header
/// [`ScenarioError::MtuTooSmall`], before anything is built.
pub fn simulate(scenario: &Scenario) -> Result<SimulatedRun, ScenarioError> {
    scenario.check_fields()?;
    if scenario.flows.is_empty() {
        let detail = "a dumbbell needs at least one flow".into();
        return Err(ScenarioError::Placement { detail });
    }
    simulate_on(&scenario.wiring(scenario.bdp_bytes()), |net, obs_rec| {
        let cfg = DumbbellConfig {
            bottleneck_rate: Rate::from_gbps(scenario.link_gbps),
            bottleneck_links: 1,
            hop_delay: scenario.hop_delay,
            bottleneck_queue: scenario.bottleneck_queue(),
            senders: if scenario.colocate_senders {
                1
            } else {
                scenario.flows.len()
            },
        };
        let dumbbell = Dumbbell::build(net, &cfg);
        if let Some(spec) = &scenario.bottleneck_fault {
            net.set_link_fault(dumbbell.bottleneck, spec.clone())
                .map_err(ScenarioError::Fault)?;
        }
        // Human-readable track names for the trace viewer.
        if let Some(rec) = obs_rec {
            let mut r = rec.borrow_mut();
            for (i, &host) in dumbbell.senders.iter().enumerate() {
                r.name_host(host.index() as u32, &format!("sender {i}"));
            }
            r.name_host(dumbbell.receiver.index() as u32, "receiver");
            r.name_queue(dumbbell.bottleneck.index() as u32, "bottleneck");
        }

        let flows = scenario
            .flows
            .iter()
            .zip(scenario.start_jitters())
            .enumerate()
            .map(|(i, (spec, jitter))| PlacedFlow {
                flow: FlowId::from_raw(i as u32),
                spec: FlowSpec {
                    start_delay: spec.start_delay + jitter,
                    ..spec.clone()
                },
                receiver: dumbbell.receiver,
                base_rtt: scenario.hop_delay * 4,
            });
        let senders = if scenario.colocate_senders {
            vec![SenderHost {
                host: dumbbell.senders[0],
                flows: flows.collect(),
                mux: true,
            }]
        } else {
            dumbbell
                .senders
                .iter()
                .zip(flows)
                .map(|(&host, flow)| SenderHost {
                    host,
                    flows: vec![flow],
                    mux: false,
                })
                .collect()
        };
        Ok(Placement {
            senders,
            receivers: vec![dumbbell.receiver],
        })
    })
}

/// The same [`Scenario`] placed on a parking lot
/// ([`netsim::topology::ParkingLot`]): `hops` chain links of
/// `link_gbps` and `hop_delay`, each with the dumbbell's bottleneck
/// discipline and buffer. Flow 0 is the through flow, crossing every
/// hop; flow `1 + i` is the local flow over hop `i`; each runs on its
/// own sender host and its RTT estimator is seeded with its own path's
/// base RTT. The fault goes on the first chain link, the one every
/// through-path packet crosses, and the constant-cwnd baseline is sized
/// on the through path. `host_pps_cap` and `start_jitter` are not read:
/// the ceiling models the testbed's iperf hosts and the jitter its
/// unsynchronized iperf processes, so the lot's hosts run unconstrained
/// and its flows start together. Every other field reads as in
/// [`simulate`].
///
/// A field no testbed has is [`ScenarioError::Invalid`], as in
/// [`simulate`]; a lot with no hop, a flow count other than `hops + 1`
/// and `colocate_senders` are [`ScenarioError::Placement`].
pub fn simulate_parking_lot(
    scenario: &Scenario,
    hops: usize,
) -> Result<SimulatedRun, ScenarioError> {
    scenario.check_fields()?;
    let misfit = |detail: String| Err(ScenarioError::Placement { detail });
    if hops == 0 {
        return misfit("a parking lot needs at least one hop".into());
    }
    if scenario.flows.len() != hops + 1 {
        return misfit(format!(
            "a {hops}-hop parking lot takes exactly {} flows (through + one local per hop), got {}",
            hops + 1,
            scenario.flows.len()
        ));
    }
    if scenario.colocate_senders {
        return misfit("a parking lot runs every flow on its own sender host".into());
    }
    let through_rtt_s = scenario.hop_delay.as_secs_f64() * 2.0 * (hops + 1) as f64;
    let wiring = Wiring {
        host_pps_cap: None,
        ..scenario.wiring(harness::bdp_bytes(scenario.link_gbps, through_rtt_s))
    };
    simulate_on(&wiring, |net, obs_rec| {
        let cfg = ParkingLotConfig {
            hops,
            link_rate: Rate::from_gbps(scenario.link_gbps),
            hop_delay: scenario.hop_delay,
            bottleneck_queue: scenario.bottleneck_queue(),
        };
        let lot = ParkingLot::build(net, &cfg);
        if let Some(spec) = &scenario.bottleneck_fault {
            net.set_link_fault(lot.bottlenecks[0], spec.clone())
                .map_err(ScenarioError::Fault)?;
        }
        if let Some(rec) = obs_rec {
            let mut r = rec.borrow_mut();
            r.name_host(lot.through_sender.index() as u32, "through sender");
            r.name_host(lot.through_receiver.index() as u32, "through receiver");
            let locals = lot.local_senders.iter().zip(&lot.local_receivers);
            for (i, ((sender, receiver), hop)) in locals.zip(&lot.bottlenecks).enumerate() {
                r.name_host(sender.index() as u32, &format!("local sender {i}"));
                r.name_host(receiver.index() as u32, &format!("local receiver {i}"));
                r.name_queue(hop.index() as u32, &format!("hop {i}"));
            }
        }

        let receivers: Vec<_> = std::iter::once(lot.through_receiver)
            .chain(lot.local_receivers)
            .collect();
        let senders = std::iter::once(lot.through_sender)
            .chain(lot.local_senders)
            .zip(&receivers)
            .zip(&scenario.flows)
            .enumerate()
            .map(|(i, ((host, &receiver), spec))| {
                let path_hops = if i == 0 { hops + 1 } else { 2 } as u64;
                SenderHost {
                    host,
                    flows: vec![PlacedFlow {
                        flow: FlowId::from_raw(i as u32),
                        spec: spec.clone(),
                        receiver,
                        base_rtt: scenario.hop_delay.saturating_mul(2 * path_hops),
                    }],
                    mux: false,
                }
            })
            .collect();
        Ok(Placement { senders, receivers })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;
    use netsim::units::{GB, MB};

    fn quick(mtu: u32, cca: CcaKind, bytes: u64) -> ScenarioOutcome {
        run(&Scenario::new(mtu, vec![FlowSpec::bulk(cca, bytes)])).expect("scenario completes")
    }

    #[test]
    fn single_cubic_flow_fills_the_link() {
        let out = quick(9000, CcaKind::Cubic, 500 * MB);
        let goodput = out.reports[0].mean_goodput.gbps();
        assert!(goodput > 8.0, "cubic goodput {goodput} Gbps");
        assert!(out.window >= out.reports[0].fct);
    }

    #[test]
    fn sender_power_sits_near_the_calibrated_point() {
        let out = quick(9000, CcaKind::Cubic, 500 * MB);
        let p = out.average_sender_power_w();
        // A cubic sender at ~line rate, MTU 9000: ~35.8 W (paper Fig. 2).
        assert!((33.0..37.5).contains(&p), "power={p} W");
    }

    #[test]
    fn mtu_1500_is_pps_capped() {
        let out = quick(1500, CcaKind::Cubic, 200 * MB);
        let goodput = out.reports[0].mean_goodput.gbps();
        // 650 kpps * 1460 B payload = ~7.6 Gb/s.
        assert!(goodput < 8.2, "goodput {goodput} should be pps-capped");
        assert!(goodput > 6.5, "goodput {goodput} suspiciously low");
    }

    #[test]
    fn rate_limited_flow_matches_target() {
        let spec = FlowSpec::bulk(CcaKind::Cubic, 125 * MB).with_rate_limit(Rate::from_gbps(2.0));
        let out = run(&Scenario::new(9000, vec![spec])).unwrap();
        let fct = out.reports[0].fct.as_secs_f64();
        // 125 MB ~ 1 Gbit of payload at ~2 Gb/s wire => ~0.5 s.
        assert!((0.45..0.6).contains(&fct), "fct={fct}");
    }

    #[test]
    fn serialized_holds_each_flow_back_until_the_earlier_ones_are_done() {
        let flow = || FlowSpec::bulk(CcaKind::Cubic, 20 * MB);
        let three = Scenario::new(9000, vec![flow(), flow(), flow()])
            .with_seed(7)
            .with_trace(SimDuration::from_millis(1));
        let serial = three.clone().serialized().unwrap();
        // Flow k starts when flows 0..k, run alone, have finished.
        let alone = |k: usize| {
            let mut earlier = serial.clone();
            earlier.flows.truncate(k);
            run(&earlier).unwrap().window
        };
        assert_eq!(serial.flows[0].start_delay, SimDuration::ZERO);
        assert_eq!(serial.flows[1].start_delay, alone(1));
        assert_eq!(serial.flows[2].start_delay, alone(2));
        assert!(serial.flows[2].start_delay > serial.flows[1].start_delay);
        // Only the start delays moved: the recording settings survive.
        assert_eq!(serial.trace_bin, three.trace_bin);
        assert_eq!(serial.seed, three.seed);
        // Back to back, nobody shares the link: each flow runs near line rate.
        let out = run(&serial).unwrap();
        for r in &out.reports {
            assert!(r.mean_goodput.gbps() > 5.0, "{}", r.mean_goodput.gbps());
        }
    }

    #[test]
    fn two_cubic_flows_share_fairly() {
        let out = run(&Scenario::new(
            9000,
            vec![
                FlowSpec::bulk(CcaKind::Cubic, 500 * MB),
                FlowSpec::bulk(CcaKind::Cubic, 500 * MB),
            ],
        ))
        .unwrap();
        let g0 = out.reports[0].mean_goodput.gbps();
        let g1 = out.reports[1].mean_goodput.gbps();
        // Jain-fair enough: both in 3.5..6.5 Gbps.
        assert!((3.5..6.5).contains(&g0), "g0={g0}");
        assert!((3.5..6.5).contains(&g1), "g1={g1}");
    }

    #[test]
    fn dctcp_gets_ecn_marks_not_drops() {
        let out = quick(9000, CcaKind::Dctcp, 250 * MB);
        assert!(out.marked_pkts > 0, "DCTCP must see CE marks");
        // Slow-start overshoot may drop a handful of packets before alpha
        // converges; steady state must be mark-governed, not drop-governed.
        assert!(
            out.dropped_pkts * 20 < out.marked_pkts,
            "drops ({}) should be rare next to marks ({})",
            out.dropped_pkts,
            out.marked_pkts
        );
        assert!(out.reports[0].mean_goodput.gbps() > 7.5);
    }

    #[test]
    fn baseline_is_bursty_and_lossy() {
        let out = quick(9000, CcaKind::Baseline, 250 * MB);
        assert!(out.dropped_pkts > 0, "constant cwnd must overflow");
        assert!(out.reports[0].retransmits > 0);
    }

    #[test]
    fn traces_cover_the_transfer() {
        let scenario = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)])
            .with_trace(SimDuration::from_millis(10));
        let out = run(&scenario).unwrap();
        let traces = out.throughput_traces.unwrap();
        assert_eq!(traces.len(), 1);
        let peak = traces[0].iter().cloned().fold(0.0, f64::max);
        assert!(peak > 7.0, "peak throughput {peak}");
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let s = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]).with_seed(7);
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.reports[0].fct, b.reports[0].fct);
        assert_eq!(a.sender_energy_j, b.sender_energy_j);
    }

    #[test]
    fn background_load_raises_energy() {
        let base = quick(9000, CcaKind::Cubic, 100 * MB);
        let loaded = run(
            &Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)])
                .with_background_load(StressLoad::fraction(0.5)),
        )
        .unwrap();
        assert!(loaded.sender_energy_j > 1.5 * base.sender_energy_j);
    }

    #[test]
    fn power_series_tracks_the_calibrated_levels() {
        let out = quick(9000, CcaKind::Cubic, 250 * MB);
        assert_eq!(out.sender_power_series_w.len(), 1);
        let series = &out.sender_power_series_w[0];
        assert!(!series.is_empty());
        // Steady-state bins sit near the 10 Gb/s operating point.
        let mid = series[series.len() / 2];
        assert!((34.0..38.0).contains(&mid), "mid-run power {mid}");
        // And integrating the series reproduces the measured energy over
        // the active part of the window.
        let integral: f64 = series.iter().sum::<f64>() * out.power_bin.as_secs_f64();
        assert!(
            (integral - out.sender_energy_j).abs() / out.sender_energy_j < 0.05,
            "series integral {integral} vs energy {}",
            out.sender_energy_j
        );
    }

    #[test]
    fn swift_holds_line_rate_with_tiny_queues() {
        let out = quick(9000, CcaKind::Swift, 200 * MB);
        assert!(out.reports[0].mean_goodput.gbps() > 9.0);
        assert_eq!(out.dropped_pkts, 0, "delay-based swift avoids drops");
    }

    #[test]
    fn hpcc_runs_off_telemetry_without_losses() {
        let out = quick(9000, CcaKind::Hpcc, 200 * MB);
        assert!(out.reports[0].mean_goodput.gbps() > 8.0);
        assert_eq!(out.reports[0].retransmits, 0);
    }

    #[test]
    fn two_swift_flows_share_fairly() {
        let out = run(&Scenario::new(
            9000,
            vec![
                FlowSpec::bulk(CcaKind::Swift, 200 * MB),
                FlowSpec::bulk(CcaKind::Swift, 200 * MB),
            ],
        ))
        .unwrap();
        let g: Vec<f64> = out.reports.iter().map(|r| r.mean_goodput.gbps()).collect();
        let jain = analysis::fairness::jain_index(&g);
        assert!(jain > 0.85, "swift-vs-swift Jain {jain:.3} ({g:?})");
    }

    #[test]
    fn colocated_flows_share_one_host_budget() {
        let separate = run(&Scenario::new(
            9000,
            vec![
                FlowSpec::bulk(CcaKind::Cubic, 100 * MB),
                FlowSpec::bulk(CcaKind::Cubic, 100 * MB),
            ],
        ))
        .unwrap();
        let colocated = run(&Scenario::new(
            9000,
            vec![
                FlowSpec::bulk(CcaKind::Cubic, 100 * MB),
                FlowSpec::bulk(CcaKind::Cubic, 100 * MB),
            ],
        )
        .with_colocated_senders())
        .unwrap();
        assert_eq!(separate.sender_readings.len(), 2);
        assert_eq!(colocated.sender_readings.len(), 1);
        // One busy host draws less than two half-busy ones (concavity!).
        assert!(colocated.sender_energy_j < separate.sender_energy_j);
        // Both move all the data.
        for out in [&separate, &colocated] {
            assert!(out.reports.iter().all(|r| r.bytes == 100 * MB));
        }
    }

    #[test]
    fn lossy_bottleneck_completes_and_attributes_drops() {
        let out = run(&Scenario::new(
            9000,
            vec![
                FlowSpec::bulk(CcaKind::Cubic, 50 * MB),
                FlowSpec::bulk(CcaKind::Reno, 50 * MB),
            ],
        )
        .with_fault(FaultSpec::random_loss(1e-3))
        .with_seed(11))
        .unwrap();
        assert!(out.injected_drops > 0, "0.1% loss must hit some frames");
        assert!(out.reports.iter().all(|r| r.outcome.is_completed()));
        assert!(
            out.reports.iter().map(|r| r.retransmits).sum::<u64>() > 0,
            "injected losses must force retransmissions"
        );
    }

    #[test]
    fn faulted_runs_are_still_deterministic() {
        let s = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)])
            .with_fault(
                FaultSpec::random_loss(1e-3).with_reordering(1e-3, SimDuration::from_micros(80)),
            )
            .with_seed(13);
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.engine.events_processed, b.engine.events_processed);
        assert_eq!(a.injected_drops, b.injected_drops);
        assert_eq!(a.reports[0].fct, b.reports[0].fct);
        assert_eq!(a.sender_energy_j, b.sender_energy_j);
    }

    #[test]
    fn dead_bottleneck_reports_aborted_flows() {
        use transport::stats::FlowOutcome;
        let out = run(
            &Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 10 * MB)])
                .with_fault(FaultSpec::random_loss(1.0))
                .with_max_rto_retries(3),
        )
        .unwrap();
        let r = &out.reports[0];
        assert!(
            matches!(r.outcome, FlowOutcome::Aborted(_)),
            "outcome={:?}",
            r.outcome
        );
        assert_eq!(r.bytes_acked, 0);
        assert!(r.rtos >= 4);
        // The abort bounds the measurement window instead of hanging the
        // run at the time limit.
        assert!(
            out.sim_end < SimTime::from_secs(30),
            "sim_end={}",
            out.sim_end
        );
    }

    #[test]
    fn mid_run_flap_delays_but_does_not_kill_the_flow() {
        let clean =
            run(&Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)]).with_seed(5))
                .unwrap();
        let flapped = run(
            &Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)])
                .with_seed(5)
                .with_fault(
                    FaultSpec::default()
                        .with_flap(SimTime::from_millis(20), SimTime::from_millis(120)),
                ),
        )
        .unwrap();
        assert!(flapped.reports[0].outcome.is_completed());
        assert!(flapped.injected_drops > 0, "the outage must eat frames");
        // A 100 ms outage costs roughly that much completion time.
        assert!(
            flapped.reports[0].fct >= clean.reports[0].fct + SimDuration::from_millis(50),
            "clean={} flapped={}",
            clean.reports[0].fct,
            flapped.reports[0].fct
        );
    }

    #[test]
    fn expired_wall_deadline_surfaces_as_a_typed_error() {
        let s = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 500 * MB)])
            .with_wall_deadline(std::time::Duration::ZERO);
        let err = run(&s).unwrap_err();
        assert!(
            matches!(err, ScenarioError::DeadlineExceeded { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn outcome_carries_conservation_counters() {
        let out = quick(9000, CcaKind::Cubic, 50 * MB);
        assert_eq!(out.run_outcome, RunOutcome::Drained);
        assert!(out.originated_pkts > 0);
        assert!(out.delivered_pkts > 0);
        assert_eq!(out.corrupt_discards, 0);
        // Quiescent clean run: every originated frame was delivered or
        // congestively dropped.
        assert_eq!(
            out.originated_pkts,
            out.delivered_pkts + out.dropped_pkts,
            "originated {} = delivered {} + dropped {}",
            out.originated_pkts,
            out.delivered_pkts,
            out.dropped_pkts
        );
    }

    #[test]
    fn observability_does_not_perturb_the_run() {
        let plain = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]).with_seed(7);
        let observed = plain.clone().with_observability().with_packet_log(4096);
        let a = run(&plain).unwrap();
        let b = run(&observed).unwrap();
        assert_eq!(a.engine.events_processed, b.engine.events_processed);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.sender_energy_j, b.sender_energy_j);
        assert!(a.obs.is_none());
        let report = b.obs.expect("full observability returns a report");
        // The pipeline saw the transfer end-to-end.
        assert_eq!(report.metrics.counter_total("flows_started_total"), 1);
        assert_eq!(report.metrics.counter_total("flows_completed_total"), 1);
        assert!(report.metrics.counter_total("tcp_retx_total") > 0 || a.dropped_pkts == 0);
        assert!(report.metrics.counter_total("pktlog_records_total") > 0);
        let json = report.perfetto_json();
        assert!(json.contains("\"name\":\"transfer\""));
        assert!(json.contains("cwnd_bytes"));
        assert!(json.contains("power_w"));
        assert!(json.contains("queue_bytes"));
        assert!(report.prometheus_text().contains("host_power_mw"));
    }

    #[test]
    fn a_zero_capacity_packet_log_reports_every_record_dropped() {
        let logged = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 5 * MB)])
            .with_seed(7)
            .with_observability()
            .with_packet_log(0);
        let report = run(&logged)
            .unwrap()
            .obs
            .expect("full observability returns a report");
        let seen = report.metrics.counter_total("pktlog_records_total");
        assert!(seen > 0);
        assert_eq!(
            report.metrics.counter_total("pktlog_dropped_records_total"),
            seen
        );
    }

    #[test]
    fn noop_observer_matches_plain_fingerprint() {
        let plain = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]).with_seed(7);
        let noop = plain.clone().with_noop_observer();
        let a = run(&plain).unwrap();
        let b = run(&noop).unwrap();
        assert_eq!(a.engine.events_processed, b.engine.events_processed);
        assert_eq!(a.sender_energy_j, b.sender_energy_j);
        assert!(b.obs.is_none(), "noop mode produces no report");
    }

    #[test]
    fn observed_abort_dumps_the_flight_ring() {
        use transport::stats::FlowOutcome;
        let out = run(
            &Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 10 * MB)])
                .with_fault(FaultSpec::random_loss(1.0))
                .with_max_rto_retries(3)
                .with_observability(),
        )
        .unwrap();
        assert!(matches!(out.reports[0].outcome, FlowOutcome::Aborted(_)));
        let report = out.obs.unwrap();
        assert_eq!(report.metrics.counter_total("flows_aborted_total"), 1);
        let dump = report.flight_dump_flow(0);
        assert!(
            dump.contains("ABORTED"),
            "flight ring ends in abort:\n{dump}"
        );
        assert!(dump.contains("rto"), "the RTO spiral is in the ring");
        assert!(report.perfetto_json().contains("transfer (aborted)"));
    }

    #[test]
    fn observed_trace_is_byte_reproducible() {
        let s = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 25 * MB)])
            .with_seed(3)
            .with_trace(SimDuration::from_millis(10))
            .with_observability();
        let a = run(&s).unwrap().obs.unwrap();
        let b = run(&s).unwrap().obs.unwrap();
        assert_eq!(a.perfetto_json(), b.perfetto_json());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn time_limit_produces_incomplete_error() {
        let mut s = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, GB)]);
        s.time_limit = Some(SimTime::from_millis(1));
        let err = run(&s).unwrap_err();
        assert!(matches!(err, ScenarioError::Incomplete { .. }));
        assert!(err.to_string().contains("incomplete"));
    }

    /// Three hops, four CUBIC flows and a 500 kB buffer per chain link.
    fn three_hop(bytes: u64) -> Scenario {
        let mut s =
            Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, bytes); 4]).with_seed(7);
        s.buffer_bytes = 500_000;
        s
    }

    fn run_lot(s: &Scenario, hops: usize) -> Result<ScenarioOutcome, ScenarioError> {
        Ok(simulate_parking_lot(s, hops)?.finish(s.background_load))
    }

    #[test]
    fn parking_lot_through_flow_completes_against_cross_traffic() {
        let m = run_lot(&three_hop(2_000_000), 3).expect("run completes");
        assert_eq!(m.reports.len(), 4);
        assert!(m.reports.iter().all(|r| r.outcome.is_completed()));
        assert!(m.sender_energy_j > 0.0);
        // The through flow crosses every contended hop; each local flow
        // contends at exactly one. The through flow cannot beat the
        // best local flow.
        let through = m.reports[0].mean_goodput.gbps();
        let best_local = m.reports[1..]
            .iter()
            .map(|r| r.mean_goodput.gbps())
            .fold(0.0, f64::max);
        assert!(
            through <= best_local + 1e-9,
            "through {through} vs best local {best_local}"
        );
    }

    /// The lot reads neither the testbed's pps ceiling nor its start
    /// jitter: setting either leaves every byte of the run where it was.
    #[test]
    fn parking_lot_hosts_are_unconstrained_and_start_together() {
        let fingerprint = |s: &Scenario| {
            let out = run_lot(s, 3).unwrap();
            let flows: Vec<_> = out.reports.iter().map(|r| (r.fct, r.segs_sent)).collect();
            (out.sim_end, out.sender_energy_j.to_bits(), flows)
        };
        let mut capped = three_hop(1_000_000);
        capped.host_pps_cap = Some(1_000.0);
        capped.start_jitter = SimDuration::from_millis(50);
        assert_eq!(fingerprint(&capped), fingerprint(&three_hop(1_000_000)));
    }

    #[test]
    fn parking_lot_replays_bit_identically() {
        let a = run_lot(&three_hop(1_000_000), 3).expect("first run");
        let b = run_lot(&three_hop(1_000_000), 3).expect("second run");
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.sender_energy_j.to_bits(), b.sender_energy_j.to_bits());
    }

    #[test]
    fn parking_lot_fault_on_the_first_hop_hits_the_through_flow() {
        let s = three_hop(1_000_000).with_fault(FaultSpec::random_loss(0.02));
        let m = run_lot(&s, 3).expect("survives 2% loss");
        assert!(m.injected_drops > 0);
        assert!(m.reports[0].retransmits > 0, "through flow crosses hop 0");
    }

    #[test]
    fn parking_lot_invalid_fault_surfaces_as_scenario_error() {
        let s = three_hop(100_000).with_fault(FaultSpec::random_loss(2.0));
        match run_lot(&s, 3) {
            Err(ScenarioError::Fault(_)) => {}
            other => panic!("expected Fault error, got {other:?}"),
        }
    }

    #[test]
    fn parking_lot_misfits_are_typed_errors() {
        let misfit = |s: &Scenario, hops: usize| match simulate_parking_lot(s, hops) {
            Err(err @ ScenarioError::Placement { .. }) => err.to_string(),
            Err(other) => panic!("expected a Placement error, got {other}"),
            Ok(_) => panic!("a misfit lot ran"),
        };
        let one_flow = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 1_000)]);
        assert!(misfit(&one_flow, 0).contains("at least one hop"));
        assert!(misfit(&three_hop(1_000), 2).contains("exactly 3 flows"));
        let colocated = three_hop(1_000).with_colocated_senders();
        assert!(misfit(&colocated, 3).contains("own sender host"));
    }

    /// `flows` is `pub`: a scenario emptied after `Scenario::new` is a
    /// typed error on either sender layout, not a panic in the builder
    /// or the multiplexing sender.
    #[test]
    fn a_scenario_without_flows_is_a_typed_error() {
        let mut empty = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 1_000)]);
        empty.flows.clear();
        for sc in [empty.clone(), empty.with_colocated_senders()] {
            match simulate(&sc) {
                Err(err @ ScenarioError::Placement { .. }) => {
                    assert!(err.to_string().contains("at least one flow"), "{err}")
                }
                Err(other) => panic!("expected a Placement error, got {other}"),
                Ok(_) => panic!("a scenario without flows ran"),
            }
        }
    }

    /// Every run-shaping field is `pub`: a value no testbed has is a
    /// typed error naming the field, on the dumbbell and the lot alike,
    /// not a panic deep in the build or a run on a testbed that is not
    /// there.
    #[test]
    fn a_field_no_testbed_has_is_a_typed_error() {
        let spoilt = |spoil: fn(&mut Scenario)| {
            let mut sc = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 2 * MB); 2]);
            spoil(&mut sc);
            sc
        };
        let cases = [
            (
                "activity_bin",
                spoilt(|s| s.activity_bin = SimDuration::ZERO),
            ),
            (
                "trace_bin",
                spoilt(|s| s.trace_bin = Some(SimDuration::ZERO)),
            ),
            ("buffer_bytes", spoilt(|s| s.buffer_bytes = 0)),
            ("link_gbps", spoilt(|s| s.link_gbps = 0.0)),
            ("link_gbps", spoilt(|s| s.link_gbps = -1.0)),
            ("link_gbps", spoilt(|s| s.link_gbps = f64::NAN)),
        ];
        for (field, sc) in cases {
            for run in [simulate(&sc), simulate_parking_lot(&sc, 1)] {
                match run {
                    Err(ScenarioError::Invalid { field: named, .. }) => assert_eq!(named, field),
                    Err(other) => panic!("{field}: expected an Invalid error, got {other}"),
                    Ok(_) => panic!("{field}: a scenario no testbed has ran"),
                }
            }
        }
    }

    #[test]
    fn parking_lot_honours_the_knobs_the_dumbbell_does() {
        let lot = three_hop(1_000_000);
        let plain = run_lot(&lot, 3).unwrap();

        let logged = run_lot(&lot.clone().with_observability().with_packet_log(4096), 3).unwrap();
        let report = logged.obs.expect("an observed lot returns a report");
        assert!(report.metrics.counter_total("pktlog_records_total") > 0);

        let fingerprint = |out: &ScenarioOutcome| {
            let flows: Vec<_> = out.reports.iter().map(|r| (r.fct, r.retransmits)).collect();
            (
                out.engine.events_processed,
                out.sim_end,
                out.sender_energy_j.to_bits(),
                flows,
            )
        };
        let unbatched = run_lot(&lot.clone().with_delivery_batching(false), 3).unwrap();
        assert_eq!(fingerprint(&unbatched), fingerprint(&plain));
        assert_eq!(
            unbatched.engine.dispatch_batches,
            unbatched.engine.batched_pkts
        );

        let loaded = run_lot(
            &lot.clone().with_background_load(StressLoad::fraction(0.5)),
            3,
        )
        .unwrap();
        assert!(loaded.sender_energy_j > plain.sender_energy_j);
        assert_eq!(loaded.sim_end, plain.sim_end);
        assert_eq!(
            loaded.engine.events_processed,
            plain.engine.events_processed
        );

        let mut dctcp = lot;
        for f in &mut dctcp.flows {
            f.cca = CcaKind::Dctcp;
        }
        let marked = run_lot(&dctcp, 3).unwrap();
        assert!(marked.marked_pkts > 0, "the lot's hops mark for DCTCP");
        assert_eq!(plain.marked_pkts, 0);
    }
}
