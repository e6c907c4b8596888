//! The scenario builder: topology → traffic → chaos → expectations.
//!
//! [`ScenarioBuilder`] is the authoring surface; [`ScenarioBuilder::build`]
//! validates the composition (chaos phases must compile to a legal
//! [`netsim::fault::FaultSpec`], recovery checks need a scheduled
//! outage to measure from, savings checks need a baseline run to
//! compare against, population topologies can't take flow-level chaos)
//! and compiles it, once, into the runner's own input: a
//! [`workload::scenario::Scenario`] for the dumbbell and the parking lot,
//! a [`PopulationSpec`] for the rack grid. [`ScenarioSpec::run`] hands
//! that input to its `workload` placement on the shared harness
//! ([`workload::harness`]) and evaluates every expectation over the
//! run's [`Measured`] summary.

use crate::chaos::{self, ChaosPhase};
use crate::expect::{Expectation, ExpectationReport, Measured};
use crate::traffic::Traffic;
use energy::calibration::CAL_MTU_BYTES;
use netsim::fault::FaultSpecError;
use netsim::packet::HEADER_BYTES;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LINK_GBPS;
use workload::iperf::FlowSpec;
use workload::population::{PopulationError, PopulationSpec};
use workload::scenario::{simulate, simulate_parking_lot, Observe, Scenario, ScenarioError};

/// Throughput-trace bin auto-enabled when a `RecoveryWithin`
/// expectation needs per-flow series. Fine enough to resolve recovery
/// after millisecond-scale flaps at tiny scale.
const RECOVERY_TRACE_BIN: SimDuration = SimDuration::from_millis(1);

/// The network shape a scenario runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// N sender hosts through one bottleneck to one receiver (the
    /// paper's testbed). Flow-level: supports chaos, traces, and every
    /// expectation.
    Dumbbell,
    /// `racks` independent rack cells of `hosts_per_rack` senders each
    /// fanning into one receiver: one rack is an incast, more are the
    /// many-flow scale-out shape. Population-level: takes one
    /// [`Traffic::Mix`] and no chaos, traces, observability or RTO budget.
    RackGrid {
        /// Independent rack cells.
        racks: usize,
        /// Sender hosts per rack.
        hosts_per_rack: usize,
    },
    /// A chain of `hops` bottlenecks: one through flow crossing all of
    /// them against one local flow per hop. Flow-level.
    ParkingLot {
        /// Bottleneck links in the chain.
        hops: usize,
    },
}

impl Topology {
    /// The capacity expectations normalize against: one bottleneck's
    /// rate for flow-level shapes, the aggregate across rack cells for
    /// the grid.
    pub fn capacity_gbps(&self) -> f64 {
        match self {
            Topology::Dumbbell | Topology::ParkingLot { .. } => LINK_GBPS,
            Topology::RackGrid { racks, .. } => *racks as f64 * LINK_GBPS,
        }
    }
}

/// Why a scenario composition was rejected at build time.
#[derive(Debug)]
pub enum BuildError {
    /// The scenario has no traffic at all.
    NoTraffic,
    /// The MTU leaves no room for payload after the
    /// [`HEADER_BYTES`]-byte header.
    MtuTooSmall {
        /// The MTU asked for.
        mtu: u32,
    },
    /// The chaos phases compose into an illegal fault spec.
    Fault(FaultSpecError),
    /// A `RecoveryWithin` expectation with no flap phase: there is no
    /// fault-clear instant to measure recovery from.
    RecoveryNeedsFlap,
    /// A `SavingsOrdering` expectation with no attached baseline run.
    OrderingNeedsBaseline,
    /// The traffic list doesn't fit the topology (a population mix on a
    /// flow-level shape, flow traffic on a grid, wrong parking-lot flow
    /// count, ...).
    TopologyMismatch {
        /// What the topology required.
        detail: String,
    },
    /// The composition asks for something no runner does (chaos,
    /// traces, observability or an RTO budget on a population topology).
    Unsupported {
        /// What was asked and why it can't run.
        detail: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoTraffic => write!(f, "scenario has no traffic"),
            BuildError::MtuTooSmall { mtu } => {
                write!(
                    f,
                    "MTU {mtu} does not exceed the {HEADER_BYTES}-byte header"
                )
            }
            BuildError::Fault(err) => write!(f, "chaos phases do not compose: {err}"),
            BuildError::RecoveryNeedsFlap => write!(
                f,
                "recovery_within needs a flap phase to define the fault-clear instant"
            ),
            BuildError::OrderingNeedsBaseline => write!(
                f,
                "savings_ordering needs a baseline scenario (ScenarioBuilder::baseline)"
            ),
            BuildError::TopologyMismatch { detail } => {
                write!(f, "traffic does not fit the topology: {detail}")
            }
            BuildError::Unsupported { detail } => write!(f, "unsupported composition: {detail}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a validated scenario failed to run.
#[derive(Debug)]
pub enum RunError {
    /// A flow-level runner failed (stall, incomplete flow, deadline).
    Scenario(ScenarioError),
    /// The population runner failed (a rack stalled, a worker died).
    Population(PopulationError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Scenario(err) => write!(f, "{err}"),
            RunError::Population(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ScenarioError> for RunError {
    fn from(err: ScenarioError) -> Self {
        RunError::Scenario(err)
    }
}

impl From<PopulationError> for RunError {
    fn from(err: PopulationError) -> Self {
        RunError::Population(err)
    }
}

/// Composes one scenario. Terminal call: [`ScenarioBuilder::build`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    topology: Topology,
    traffic: Vec<Traffic>,
    chaos: Vec<ChaosPhase>,
    expectations: Vec<Expectation>,
    seed: u64,
    mtu: u32,
    trace_bin: Option<SimDuration>,
    max_rto_retries: Option<u32>,
    observability: bool,
    baseline: Option<Box<ScenarioSpec>>,
}

impl ScenarioBuilder {
    /// Start a scenario named `name` on a dumbbell with the testbed
    /// defaults ([`LINK_GBPS`], jumbo frames ([`CAL_MTU_BYTES`]), seed 1).
    pub fn new(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.to_string(),
            topology: Topology::Dumbbell,
            traffic: Vec::new(),
            chaos: Vec::new(),
            expectations: Vec::new(),
            seed: 1,
            mtu: CAL_MTU_BYTES,
            trace_bin: None,
            max_rto_retries: None,
            observability: false,
            baseline: None,
        }
    }

    /// Set the network shape.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Add one traffic source.
    pub fn traffic(mut self, traffic: Traffic) -> Self {
        self.traffic.push(traffic);
        self
    }

    /// Add one chaos phase on the bottleneck link.
    pub fn chaos(mut self, phase: ChaosPhase) -> Self {
        self.chaos.push(phase);
        self
    }

    /// Add one post-run expectation. (Named `expect_check` because
    /// `expect` collides with `Result::expect` at call sites.)
    pub fn expect_check(mut self, expectation: Expectation) -> Self {
        self.expectations.push(expectation);
        self
    }

    /// Set the master RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the MTU.
    pub fn with_mtu(mut self, mtu: u32) -> Self {
        self.mtu = mtu;
        self
    }

    /// Record per-flow throughput traces at `bin` (auto-enabled when a
    /// `RecoveryWithin` expectation needs them).
    pub fn with_trace(mut self, bin: SimDuration) -> Self {
        self.trace_bin = Some(bin);
        self
    }

    /// Cap consecutive RTO retries so flows on a dead path abort
    /// instead of backing off forever. Flow-level topologies only.
    pub fn with_max_rto_retries(mut self, retries: u32) -> Self {
        self.max_rto_retries = Some(retries);
        self
    }

    /// Run with full observability (metrics + flight recorder +
    /// Perfetto trace in the run's `obs` report). Flow-level topologies
    /// only.
    pub fn with_observability(mut self) -> Self {
        self.observability = true;
        self
    }

    /// Attach a baseline scenario; `SavingsOrdering` expectations
    /// compare this scenario's energy against the baseline's.
    pub fn baseline(mut self, baseline: ScenarioSpec) -> Self {
        self.baseline = Some(Box::new(baseline));
        self
    }

    /// Validate the composition and compile it into the runner's input.
    pub fn build(self) -> Result<ScenarioSpec, BuildError> {
        // The one place the builder's knobs are read: a new knob that no
        // runner consumes fails to compile here instead of being dropped.
        let ScenarioBuilder {
            name,
            topology,
            traffic,
            chaos,
            expectations,
            seed,
            mtu,
            mut trace_bin,
            max_rto_retries,
            observability,
            baseline,
        } = self;
        if traffic.is_empty() {
            return Err(BuildError::NoTraffic);
        }
        workload::harness::mss(mtu).map_err(|_| BuildError::MtuTooSmall { mtu })?;
        let fault = chaos::compile(&chaos).map_err(BuildError::Fault)?;
        // The recovery clock starts when the last scheduled outage ends.
        let fault_clear = chaos.iter().filter_map(|p| p.clears_at()).max();
        if expectations
            .iter()
            .any(|e| e.needs_recovery_instrumentation())
        {
            if fault_clear.is_none() {
                return Err(BuildError::RecoveryNeedsFlap);
            }
            trace_bin.get_or_insert(RECOVERY_TRACE_BIN);
        }
        if expectations.iter().any(|e| e.needs_baseline()) && baseline.is_none() {
            return Err(BuildError::OrderingNeedsBaseline);
        }

        let mismatch = |detail: String| BuildError::TopologyMismatch { detail };
        let flows: Vec<FlowSpec> = traffic.iter().flat_map(Traffic::compile).collect();
        let n_flows = flows.len();
        let flow_level = || {
            if traffic.iter().any(|t| matches!(t, Traffic::Mix { .. })) {
                return Err(mismatch(
                    "Traffic::Mix only fits population topologies (RackGrid)".into(),
                ));
            }
            if flows.is_empty() {
                return Err(BuildError::NoTraffic);
            }
            let mut sc = Scenario::new(mtu, flows).with_seed(seed);
            sc.bottleneck_fault = fault.clone();
            sc.trace_bin = trace_bin;
            sc.max_rto_retries = max_rto_retries;
            if observability {
                sc.observe = Observe::Full;
            }
            Ok(sc)
        };
        let input = match topology {
            Topology::Dumbbell => RunInput::Dumbbell(flow_level()?),
            Topology::ParkingLot { hops } => {
                if hops == 0 {
                    return Err(mismatch("a parking lot needs at least one hop".into()));
                }
                if n_flows != hops + 1 {
                    return Err(mismatch(format!(
                        "a {hops}-hop parking lot takes exactly {} flows \
                         (through + one local per hop), got {n_flows}",
                        hops + 1
                    )));
                }
                // The pps ceiling models the testbed's iperf hosts and the
                // start jitter its unsynchronized iperf processes; the
                // lot's hosts are unconstrained and start together.
                let mut sc = flow_level()?;
                sc.host_pps_cap = None;
                sc.start_jitter = SimDuration::ZERO;
                RunInput::ParkingLot(sc, hops)
            }
            Topology::RackGrid {
                racks,
                hosts_per_rack,
            } => {
                let [Traffic::Mix {
                    flows,
                    mix,
                    bytes_per_flow,
                }] = traffic.as_slice()
                else {
                    return Err(mismatch(
                        "population topologies take exactly one Traffic::Mix".into(),
                    ));
                };
                let mut spec = PopulationSpec::new(*flows, mix.clone())
                    .with_grid(racks, hosts_per_rack)
                    .with_bytes_per_flow(*bytes_per_flow)
                    .with_seed(seed);
                spec.mtu = mtu;
                spec.check().map_err(|err| mismatch(err.to_string()))?;
                // Every rack runs on the shared harness, but nothing merges
                // per-rack faults, traces or reports into one population
                // view, and racks keep the transport's RTO budget.
                let unmerged = [
                    (fault.is_some(), "chaos"),
                    (trace_bin.is_some(), "per-flow traces"),
                    (observability, "observability"),
                    (max_rto_retries.is_some(), "an RTO retry budget"),
                ];
                if let Some((_, what)) = unmerged.into_iter().find(|&(asked, _)| asked) {
                    return Err(BuildError::Unsupported {
                        detail: format!(
                            "{what} on a population topology: racks run independently and \
                             their results are not merged; use a flow-level topology"
                        ),
                    });
                }
                RunInput::Population(spec)
            }
        };

        Ok(ScenarioSpec {
            name,
            capacity_gbps: topology.capacity_gbps(),
            chaos,
            fault_clear,
            expectations,
            baseline,
            input,
        })
    }
}

/// What [`ScenarioBuilder::build`] compiles a composition into: the
/// input of the `workload` placement that runs it.
#[derive(Clone, Debug)]
enum RunInput {
    /// [`workload::scenario::simulate`].
    Dumbbell(Scenario),
    /// [`workload::scenario::simulate_parking_lot`] with this many hops.
    ParkingLot(Scenario, usize),
    /// [`workload::population::run_population`].
    Population(PopulationSpec),
}

/// A validated, runnable scenario. Construct via [`ScenarioBuilder`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    name: String,
    /// The capacity expectations normalize against.
    capacity_gbps: f64,
    chaos: Vec<ChaosPhase>,
    fault_clear: Option<SimTime>,
    expectations: Vec<Expectation>,
    baseline: Option<Box<ScenarioSpec>>,
    input: RunInput,
}

/// One executed scenario: the measurements, the baseline's (if one was
/// attached), and every expectation's verdict.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The run's measurements.
    pub measured: Measured,
    /// The baseline's measurements, when one was attached.
    pub baseline: Option<Measured>,
    /// One report per expectation, in declaration order.
    pub reports: Vec<ExpectationReport>,
    /// Every expectation passed.
    pub passed: bool,
    /// The observability report (flow-level topologies with
    /// [`ScenarioBuilder::with_observability`]).
    pub obs: Option<obs::ObsReport>,
}

impl ScenarioSpec {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared expectations, in order.
    pub fn expectations(&self) -> &[Expectation] {
        &self.expectations
    }

    /// Incident-timeline labels of the chaos phases, in order.
    pub fn chaos_labels(&self) -> Vec<String> {
        self.chaos.iter().map(|p| p.label()).collect()
    }

    /// The instant the last scheduled outage clears, if any.
    pub fn fault_clear(&self) -> Option<SimTime> {
        self.fault_clear
    }

    /// The paper's "full speed, then idle" schedule of this scenario: the
    /// compiled [`Scenario`] through [`Scenario::serialized`], with the
    /// expectations and the baseline kept. A parking lot or a rack grid
    /// has no such schedule: [`ScenarioError::Placement`].
    pub fn serialized(self) -> Result<ScenarioSpec, RunError> {
        let RunInput::Dumbbell(sc) = self.input else {
            let detail = "only a dumbbell's flows run one after another".into();
            return Err(ScenarioError::Placement { detail }.into());
        };
        let input = RunInput::Dumbbell(sc.serialized()?);
        Ok(ScenarioSpec { input, ..self })
    }

    /// Run the scenario (baseline first, if attached) and evaluate
    /// every expectation.
    pub fn run(&self) -> Result<ScenarioRun, RunError> {
        let baseline = match &self.baseline {
            Some(spec) => Some(spec.measure()?.0),
            None => None,
        };
        let (measured, obs) = self.measure()?;
        let reports: Vec<ExpectationReport> = self
            .expectations
            .iter()
            .map(|e| e.evaluate(&measured, baseline.as_ref()))
            .collect();
        let passed = reports.iter().all(|r| r.passed);
        Ok(ScenarioRun {
            measured,
            baseline,
            reports,
            passed,
            obs,
        })
    }

    /// Execute on the topology's runner and summarize. Expectation-free:
    /// baselines run through this.
    fn measure(&self) -> Result<(Measured, Option<obs::ObsReport>), RunError> {
        let measured = |n_sender_hosts, reports, window, sender_energy_j, sim_end| Measured {
            reports,
            window,
            sender_energy_j,
            n_sender_hosts,
            capacity_gbps: self.capacity_gbps,
            traces: None,
            injected_drops: 0,
            sim_end,
            fault_clear: self.fault_clear,
        };
        let (sc, run) = match &self.input {
            RunInput::Dumbbell(sc) => (sc, simulate(sc)?),
            RunInput::ParkingLot(sc, hops) => (sc, simulate_parking_lot(sc, *hops)?),
            RunInput::Population(spec) => {
                let out = workload::population::run_population(spec)?;
                // A population's window is when the last rack's engine drained,
                // not the last completion: later than it by the trailing
                // timers. Kept, because the pinned verdict bytes hold it.
                let window = out.sim_end.saturating_since(SimTime::ZERO);
                let hosts = spec.racks * spec.hosts_per_rack;
                let summary =
                    measured(hosts, out.reports, window, out.sender_energy_j, out.sim_end);
                return Ok((summary, None));
            }
        };
        let out = run.finish(sc.background_load);
        // One sender host per flow on both flow-level shapes.
        let summary = Measured {
            traces: sc.trace_bin.zip(out.throughput_traces),
            injected_drops: out.injected_drops,
            ..measured(
                out.reports.len(),
                out.reports,
                out.window,
                out.sender_energy_j,
                out.sim_end,
            )
        };
        Ok((summary, out.obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;
    use netsim::units::Rate;

    fn two_bulk() -> ScenarioBuilder {
        ScenarioBuilder::new("t")
            .traffic(Traffic::bulk(CcaKind::Cubic, 2_000_000))
            .traffic(Traffic::bulk(CcaKind::Cubic, 2_000_000))
    }

    #[test]
    fn empty_traffic_is_rejected() {
        assert!(matches!(
            ScenarioBuilder::new("t").build(),
            Err(BuildError::NoTraffic)
        ));
    }

    #[test]
    fn traffic_without_a_flow_is_rejected() {
        let err = ScenarioBuilder::new("t")
            .traffic(Traffic::Rpc {
                cca: CcaKind::Cubic,
                responses: 0,
                resp_bytes: 1_000,
                interval: SimDuration::from_millis(1),
                start: SimDuration::ZERO,
            })
            .build();
        assert!(matches!(err, Err(BuildError::NoTraffic)));
    }

    #[test]
    fn bad_chaos_is_rejected_at_build() {
        let err = two_bulk().chaos(ChaosPhase::Loss { prob: -0.5 }).build();
        assert!(matches!(err, Err(BuildError::Fault(_))));
    }

    #[test]
    fn recovery_without_a_flap_is_rejected() {
        let err = two_bulk()
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.3,
                within: SimDuration::from_millis(500),
            })
            .build();
        assert!(matches!(err, Err(BuildError::RecoveryNeedsFlap)));
    }

    #[test]
    fn ordering_without_a_baseline_is_rejected() {
        let err = two_bulk()
            .expect_check(Expectation::SavingsOrdering {
                min_savings_pct: 1.0,
            })
            .build();
        assert!(matches!(err, Err(BuildError::OrderingNeedsBaseline)));
    }

    #[test]
    fn mix_on_a_dumbbell_is_rejected() {
        let err = ScenarioBuilder::new("t")
            .traffic(Traffic::Mix {
                flows: 4,
                mix: vec![(CcaKind::Cubic, 1)],
                bytes_per_flow: 1_000,
            })
            .build();
        assert!(matches!(err, Err(BuildError::TopologyMismatch { .. })));
    }

    #[test]
    fn chaos_on_a_rack_grid_is_rejected() {
        let err = ScenarioBuilder::new("t")
            .topology(Topology::RackGrid {
                racks: 2,
                hosts_per_rack: 2,
            })
            .traffic(Traffic::Mix {
                flows: 4,
                mix: vec![(CcaKind::Cubic, 1)],
                bytes_per_flow: 1_000,
            })
            .chaos(ChaosPhase::Loss { prob: 0.01 })
            .build();
        assert!(matches!(err, Err(BuildError::Unsupported { .. })));
    }

    #[test]
    fn malformed_rack_grids_are_typed_errors() {
        let grid = |racks, hosts_per_rack| Topology::RackGrid {
            racks,
            hosts_per_rack,
        };
        let mix = |flows, mix: &[(CcaKind, u32)]| Traffic::Mix {
            flows,
            mix: mix.to_vec(),
            bytes_per_flow: 1_000,
        };
        let cubic = [(CcaKind::Cubic, 1)];
        let cases = [
            ("no racks", grid(0, 2), mix(4, &cubic)),
            ("no hosts", grid(2, 0), mix(4, &cubic)),
            ("no flows", grid(2, 2), mix(0, &cubic)),
            ("empty mix", grid(2, 2), mix(4, &[])),
            (
                "zero weights",
                grid(2, 2),
                mix(4, &[(CcaKind::Cubic, 0), (CcaKind::Bbr, 0)]),
            ),
        ];
        for (what, topology, traffic) in cases {
            let err = ScenarioBuilder::new("t")
                .topology(topology)
                .traffic(traffic)
                .build();
            assert!(
                matches!(err, Err(BuildError::TopologyMismatch { .. })),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn parking_lot_flow_count_must_match_hops() {
        let err = ScenarioBuilder::new("t")
            .topology(Topology::ParkingLot { hops: 3 })
            .traffic(Traffic::bulk(CcaKind::Cubic, 1_000))
            .build();
        assert!(matches!(err, Err(BuildError::TopologyMismatch { .. })));
    }

    #[test]
    fn an_mtu_within_the_header_is_rejected_on_every_topology() {
        let bulk = || Traffic::bulk(CcaKind::Cubic, 1_000);
        let mix = Traffic::Mix {
            flows: 2,
            mix: vec![(CcaKind::Cubic, 1)],
            bytes_per_flow: 1_000,
        };
        let grid = Topology::RackGrid {
            racks: 1,
            hosts_per_rack: 2,
        };
        let shapes = [
            (Topology::Dumbbell, vec![bulk()]),
            (Topology::ParkingLot { hops: 1 }, vec![bulk(), bulk()]),
            (grid, vec![mix]),
        ];
        for (topology, traffic) in shapes {
            let build = |mtu: u32| {
                let b = ScenarioBuilder::new("t")
                    .topology(topology.clone())
                    .with_mtu(mtu);
                traffic
                    .iter()
                    .cloned()
                    .fold(b, ScenarioBuilder::traffic)
                    .build()
            };
            for mtu in [0, HEADER_BYTES] {
                let err = build(mtu).expect_err("no room for payload");
                assert!(
                    matches!(err, BuildError::MtuTooSmall { mtu: m } if m == mtu),
                    "{topology:?}: {err}"
                );
            }
            assert!(build(HEADER_BYTES + 1).is_ok(), "{topology:?}");
        }
    }

    #[test]
    fn recovery_auto_enables_traces() {
        let spec = two_bulk()
            .chaos(ChaosPhase::flap(
                SimTime::from_millis(5),
                SimDuration::from_millis(2),
            ))
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.3,
                within: SimDuration::from_millis(500),
            })
            .build()
            .expect("valid scenario");
        let RunInput::Dumbbell(sc) = &spec.input else {
            panic!("a dumbbell compiles to a Scenario");
        };
        assert_eq!(sc.trace_bin, Some(RECOVERY_TRACE_BIN));
        assert_eq!(spec.fault_clear(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn dumbbell_runs_and_evaluates() {
        let run = two_bulk()
            .with_seed(7)
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.25 })
            .expect_check(Expectation::JainFairnessBand { min: 0.8, max: 1.0 })
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.passed, "{:?}", run.reports);
        assert_eq!(run.reports.len(), 3);
        assert!(run.baseline.is_none());
        assert!((run.measured.capacity_gbps - 10.0).abs() < 1e-12);
    }

    #[test]
    fn incast_runs_a_population_mix() {
        let run = ScenarioBuilder::new("incast")
            .topology(Topology::RackGrid {
                racks: 1,
                hosts_per_rack: 4,
            })
            .traffic(Traffic::Mix {
                flows: 8,
                mix: vec![(CcaKind::Cubic, 3), (CcaKind::Bbr, 1)],
                bytes_per_flow: 500_000,
            })
            .with_seed(5)
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.passed, "{:?}", run.reports);
        assert_eq!(run.measured.reports.len(), 8);
        assert_eq!(run.measured.n_sender_hosts, 4);
    }

    #[test]
    fn parking_lot_runs_through_the_dsl() {
        let run = ScenarioBuilder::new("lot")
            .topology(Topology::ParkingLot { hops: 2 })
            .traffic(Traffic::bulk(CcaKind::Cubic, 1_000_000))
            .traffic(Traffic::bulk(CcaKind::Cubic, 1_000_000))
            .traffic(Traffic::Video {
                cca: CcaKind::Bbr,
                bytes: 500_000,
                rate: Rate::from_gbps(1.0),
                start: SimDuration::ZERO,
            })
            .with_seed(3)
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.passed, "{:?}", run.reports);
        assert_eq!(run.measured.reports.len(), 3);
    }

    #[test]
    fn mtu_reaches_population_topologies() {
        let segs_at = |mtu: u32| {
            let run = ScenarioBuilder::new("incast-mtu")
                .topology(Topology::RackGrid {
                    racks: 1,
                    hosts_per_rack: 4,
                })
                .traffic(Traffic::Mix {
                    flows: 8,
                    mix: vec![(CcaKind::Cubic, 1)],
                    bytes_per_flow: 500_000,
                })
                .with_mtu(mtu)
                .build()
                .expect("valid scenario")
                .run()
                .expect("runs");
            run.measured
                .reports
                .iter()
                .map(|r| r.segs_sent)
                .sum::<u64>()
        };
        // 4 MB in 1460-byte segments takes several times the segments it
        // takes in 8960-byte ones.
        let (small, jumbo) = (segs_at(1500), segs_at(9000));
        assert!(small > 3 * jumbo, "segs at 1500: {small}, at 9000: {jumbo}");
    }

    #[test]
    fn parking_lot_observability_returns_a_report_without_perturbing_the_run() {
        let hops = 2;
        let lot = || {
            let mut b = ScenarioBuilder::new("lot-obs")
                .topology(Topology::ParkingLot { hops })
                .with_seed(3);
            for _ in 0..=hops {
                b = b.traffic(Traffic::bulk(CcaKind::Cubic, 1_000_000));
            }
            b
        };
        let run = |b: ScenarioBuilder| b.build().expect("valid scenario").run().expect("runs");
        let plain = run(lot());
        let observed = run(lot().with_observability());
        assert!(plain.obs.is_none());
        let report = observed
            .obs
            .expect("an observed parking lot returns a report");
        assert_eq!(
            report.metrics.counter_total("flows_completed_total"),
            hops as u64 + 1
        );
        // The per-hop queues and the hosts are named for the trace viewer.
        let trace = report.perfetto_json();
        for name in ["hop 0", "hop 1", "through sender", "local receiver 1"] {
            assert!(trace.contains(name), "trace names {name:?}");
        }
        assert_eq!(plain.measured.sim_end, observed.measured.sim_end);
        assert_eq!(
            plain.measured.sender_energy_j.to_bits(),
            observed.measured.sender_energy_j.to_bits()
        );
    }

    #[test]
    fn observability_on_a_population_is_rejected() {
        let err = ScenarioBuilder::new("t")
            .topology(Topology::RackGrid {
                racks: 1,
                hosts_per_rack: 2,
            })
            .traffic(Traffic::Mix {
                flows: 4,
                mix: vec![(CcaKind::Cubic, 1)],
                bytes_per_flow: 1_000,
            })
            .with_observability()
            .build()
            .expect_err("nothing merges per-rack reports");
        assert!(matches!(err, BuildError::Unsupported { .. }));
        assert!(err.to_string().contains("observability on a population"));
    }

    #[test]
    fn rto_budget_on_a_population_is_rejected() {
        let err = ScenarioBuilder::new("t")
            .topology(Topology::RackGrid {
                racks: 2,
                hosts_per_rack: 2,
            })
            .traffic(Traffic::Mix {
                flows: 4,
                mix: vec![(CcaKind::Cubic, 1)],
                bytes_per_flow: 1_000,
            })
            .with_max_rto_retries(3)
            .build()
            .expect_err("racks keep the transport's RTO budget");
        assert!(matches!(err, BuildError::Unsupported { .. }));
        assert!(err.to_string().contains("RTO retry budget on a population"));
    }

    #[test]
    fn parking_lot_compiles_to_a_scenario_with_pps_and_jitter_off() {
        let spec = ScenarioBuilder::new("lot")
            .topology(Topology::ParkingLot { hops: 1 })
            .traffic(Traffic::bulk(CcaKind::Cubic, 1_000))
            .traffic(Traffic::bulk(CcaKind::Cubic, 1_000))
            .with_seed(9)
            .with_mtu(1500)
            .with_max_rto_retries(4)
            .build()
            .expect("valid scenario");
        let RunInput::ParkingLot(sc, 1) = &spec.input else {
            panic!("a one-hop lot compiles to a Scenario and its hop count");
        };
        assert_eq!(
            (sc.host_pps_cap, sc.start_jitter),
            (None, SimDuration::ZERO)
        );
        assert_eq!((sc.seed, sc.mtu, sc.max_rto_retries), (9, 1500, Some(4)));
        assert_eq!(sc.flows.len(), 2);
    }

    #[test]
    fn baseline_feeds_savings_ordering() {
        // Serial video (rate-limited to a fraction of the link) vs two
        // fair bulk flows: the serial run idles senders longer, so no
        // savings are guaranteed here — just check the plumbing: a
        // baseline is measured and the report carries real numbers.
        let fair = two_bulk().with_seed(11).build().expect("valid baseline");
        let run = two_bulk()
            .with_seed(11)
            .baseline(fair)
            .expect_check(Expectation::SavingsOrdering {
                min_savings_pct: -5.0,
            })
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.baseline.is_some());
        // Identical scenario vs itself: savings are exactly zero.
        let report = &run.reports[0];
        assert!(report.measured.abs() < 1e-9, "{report:?}");
        assert!(report.passed);
    }
}
