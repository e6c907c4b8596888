//! The scenario builder: a runner's input plus expectations.
//!
//! [`ScenarioBuilder`] takes the input the `workload` runner already
//! reads — a [`Scenario`] for the dumbbell and the parking lot, a
//! [`PopulationSpec`] for the rack grid — inside a [`Topology`], and adds
//! only what the DSL owns: expectations and a baseline. A fault is part
//! of that input: the [`Scenario`]'s `bottleneck_fault`, which the
//! verdict labels and a recovery check measure from.
//! [`ScenarioBuilder::build`] checks that the expectations compose with
//! the input (recovery checks need a scheduled outage to measure from,
//! savings checks need a baseline run to compare against); what the
//! input itself must satisfy, a legal fault included, the runner checks
//! before it builds anything. [`ScenarioSpec::run`] hands the input to
//! its `workload` placement on the shared harness ([`workload::harness`])
//! and evaluates every expectation over the run's [`Measured`] summary.

use crate::expect::{Expectation, ExpectationReport, Measured};
use netsim::fault::FaultSpec;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::LINK_GBPS;
use workload::harness::measurement_window;
use workload::population::{PopulationError, PopulationSpec};
use workload::scenario::{simulate, simulate_parking_lot, Scenario, ScenarioError};

/// Throughput-trace bin auto-enabled when a `RecoveryWithin`
/// expectation needs per-flow series. Fine enough to resolve recovery
/// after millisecond-scale flaps at tiny scale.
const RECOVERY_TRACE_BIN: SimDuration = SimDuration::from_millis(1);

/// The network shape a scenario runs on, carrying the input of the
/// `workload` runner that places it there.
#[derive(Clone, Debug)]
pub enum Topology {
    /// N sender hosts through one bottleneck to one receiver (the
    /// paper's testbed), run by [`workload::scenario::simulate`].
    /// Flow-level: takes a bottleneck fault and every expectation.
    Dumbbell(Scenario),
    /// A chain of `hops` bottlenecks, run by
    /// [`workload::scenario::simulate_parking_lot`]: flow 0 crosses all
    /// of them against one local flow per hop. Flow-level.
    ParkingLot(Scenario, usize),
    /// Independent rack cells of sender hosts each fanning into one
    /// receiver, run by [`workload::population::run_population`]: one
    /// rack is an incast, more are the many-flow scale-out shape.
    /// Population-level: a [`PopulationSpec`] carries no fault.
    RackGrid(PopulationSpec),
}

impl Topology {
    /// The capacity expectations normalize against: one bottleneck's
    /// rate for flow-level shapes, the aggregate across rack cells for
    /// the grid.
    pub fn capacity_gbps(&self) -> f64 {
        match self {
            Topology::Dumbbell(sc) | Topology::ParkingLot(sc, _) => sc.link_gbps,
            Topology::RackGrid(spec) => spec.racks as f64 * LINK_GBPS,
        }
    }

    /// The fault on the bottleneck, if the input carries one.
    fn fault(&self) -> Option<&FaultSpec> {
        match self {
            Topology::Dumbbell(sc) | Topology::ParkingLot(sc, _) => sc.bottleneck_fault.as_ref(),
            Topology::RackGrid(_) => None,
        }
    }
}

/// Why a scenario composition was rejected at build time.
#[derive(Debug)]
pub enum BuildError {
    /// A `RecoveryWithin` expectation on an input whose fault has no
    /// flap: there is no fault-clear instant to measure recovery from.
    RecoveryNeedsFlap,
    /// A `SavingsOrdering` expectation with no attached baseline run.
    OrderingNeedsBaseline,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RecoveryNeedsFlap => write!(
                f,
                "recovery_within needs a flap in the bottleneck fault to define the \
                 fault-clear instant"
            ),
            BuildError::OrderingNeedsBaseline => write!(
                f,
                "savings_ordering needs a baseline scenario (ScenarioBuilder::baseline)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a validated scenario failed to run.
#[derive(Debug)]
pub enum RunError {
    /// A flow-level runner failed (misfit input, illegal fault, stall,
    /// incomplete flow, deadline).
    Scenario(ScenarioError),
    /// The population runner failed (a malformed spec, a rack stalled).
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
    expectations: Vec<Expectation>,
    baseline: Option<Box<ScenarioSpec>>,
}

impl ScenarioBuilder {
    /// Start a scenario named `name` that runs `topology`'s input.
    pub fn new(name: &str, topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.to_string(),
            topology,
            expectations: Vec::new(),
            baseline: None,
        }
    }

    /// Add one post-run expectation. (Named `expect_check` because
    /// `expect` collides with `Result::expect` at call sites.)
    pub fn expect_check(mut self, expectation: Expectation) -> Self {
        self.expectations.push(expectation);
        self
    }

    /// Attach a baseline scenario; `SavingsOrdering` expectations
    /// compare this scenario's energy against the baseline's.
    pub fn baseline(mut self, baseline: ScenarioSpec) -> Self {
        self.baseline = Some(Box::new(baseline));
        self
    }

    /// Check that the expectations and the baseline compose with the
    /// input, and turn on 1 ms traces for a recovery check.
    pub fn build(self) -> Result<ScenarioSpec, BuildError> {
        let mut spec = ScenarioSpec {
            name: self.name,
            expectations: self.expectations,
            baseline: self.baseline,
            topology: self.topology,
        };
        let needs_traces = spec
            .expectations
            .iter()
            .any(|e| e.needs_recovery_instrumentation());
        if needs_traces && spec.fault_clear().is_none() {
            return Err(BuildError::RecoveryNeedsFlap);
        }
        if spec.expectations.iter().any(|e| e.needs_baseline()) && spec.baseline.is_none() {
            return Err(BuildError::OrderingNeedsBaseline);
        }
        if needs_traces {
            if let Topology::Dumbbell(sc) | Topology::ParkingLot(sc, _) = &mut spec.topology {
                sc.trace_bin.get_or_insert(RECOVERY_TRACE_BIN);
            }
        }
        Ok(spec)
    }
}

/// A validated, runnable scenario. Construct via [`ScenarioBuilder`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    name: String,
    expectations: Vec<Expectation>,
    baseline: Option<Box<ScenarioSpec>>,
    topology: Topology,
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
    /// The observability report (flow-level topologies whose
    /// [`Scenario`] runs with observability).
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

    /// Incident-timeline labels of the bottleneck fault: one per
    /// non-zero knob (loss, reorder, corrupt, duplicate, jitter), then
    /// each flap in author order. Empty on a clean wire.
    pub fn chaos_labels(&self) -> Vec<String> {
        let Some(f) = self.topology.fault() else {
            return Vec::new();
        };
        let knobs = [
            (f.drop_prob > 0.0, format!("loss({})", f.drop_prob)),
            (
                f.reorder_prob > 0.0,
                format!("reorder({}, hold {})", f.reorder_prob, f.reorder_delay),
            ),
            (f.corrupt_prob > 0.0, format!("corrupt({})", f.corrupt_prob)),
            (
                f.duplicate_prob > 0.0,
                format!("duplicate({})", f.duplicate_prob),
            ),
            (!f.jitter.is_zero(), format!("jitter({})", f.jitter)),
        ];
        let flaps = f.flaps.iter().map(|flap| {
            let down_for = flap.up.saturating_since(flap.down);
            format!("flap(at {}, for {down_for})", flap.down)
        });
        knobs
            .into_iter()
            .filter_map(|(set, label)| set.then_some(label))
            .chain(flaps)
            .collect()
    }

    /// The instant the last scheduled outage clears, if any: the latest
    /// flap `up` of the bottleneck fault. The recovery clock starts here.
    pub fn fault_clear(&self) -> Option<SimTime> {
        self.topology.fault()?.flaps.iter().map(|f| f.up).max()
    }

    /// The paper's "full speed, then idle" schedule of this scenario: the
    /// dumbbell's [`Scenario`] through [`Scenario::serialized`], with the
    /// expectations and the baseline kept. A parking lot or a rack grid
    /// has no such schedule: [`ScenarioError::Placement`].
    pub fn serialized(self) -> Result<ScenarioSpec, RunError> {
        let Topology::Dumbbell(sc) = self.topology else {
            let detail = "only a dumbbell's flows run one after another".into();
            return Err(ScenarioError::Placement { detail }.into());
        };
        let topology = Topology::Dumbbell(sc.serialized()?);
        Ok(ScenarioSpec { topology, ..self })
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
            capacity_gbps: self.topology.capacity_gbps(),
            traces: None,
            injected_drops: 0,
            sim_end,
            fault_clear: self.fault_clear(),
        };
        let (sc, run) = match &self.topology {
            Topology::Dumbbell(sc) => (sc, simulate(sc)?),
            Topology::ParkingLot(sc, hops) => (sc, simulate_parking_lot(sc, *hops)?),
            Topology::RackGrid(spec) => {
                let out = workload::population::run_population(spec)?;
                let window = measurement_window(&out.reports);
                let hosts = spec.racks * spec.hosts_per_rack;
                let summary =
                    measured(hosts, out.reports, window, out.sender_energy_j, out.sim_end);
                return Ok((summary, None));
            }
        };
        let out = run.finish(sc.background_load);
        let summary = Measured {
            traces: sc.trace_bin.zip(out.throughput_traces),
            injected_drops: out.injected_drops,
            ..measured(
                out.sender_readings.len(),
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
    use energy::calibration::CAL_MTU_BYTES;
    use netsim::units::Rate;
    use workload::iperf::FlowSpec;

    fn bulk(bytes: u64) -> FlowSpec {
        FlowSpec::bulk(CcaKind::Cubic, bytes)
    }

    fn dumbbell(flows: Vec<FlowSpec>) -> Topology {
        Topology::Dumbbell(Scenario::new(CAL_MTU_BYTES, flows))
    }

    fn two_bulk() -> ScenarioBuilder {
        ScenarioBuilder::new("t", dumbbell(vec![bulk(2_000_000); 2]))
    }

    fn grid(racks: usize, hosts_per_rack: usize, flows: usize) -> PopulationSpec {
        PopulationSpec::new(flows, vec![(CcaKind::Cubic, 1)])
            .with_grid(racks, hosts_per_rack)
            .with_bytes_per_flow(1_000)
    }

    /// Build `topology` with no chaos or checks and run it.
    fn run_bare(topology: Topology) -> Result<ScenarioRun, RunError> {
        ScenarioBuilder::new("t", topology)
            .build()
            .expect("nothing to compose")
            .run()
    }

    /// A flow-level shape with no flow is the runner's placement error.
    #[test]
    fn empty_traffic_is_rejected() {
        let lot = Topology::ParkingLot(Scenario::new(CAL_MTU_BYTES, Vec::new()), 1);
        for topology in [dumbbell(Vec::new()), lot] {
            let err = run_bare(topology).expect_err("no flow to run");
            assert!(
                matches!(err, RunError::Scenario(ScenarioError::Placement { .. })),
                "{err}"
            );
        }
    }

    /// A named shape that compiles to no flow (an RPC fan with no
    /// response) is the same placement error.
    #[test]
    fn traffic_without_a_flow_is_rejected() {
        let ms = SimDuration::from_millis;
        let fan = crate::traffic::rpc_fan(CcaKind::Cubic, 0, 1_000, SimDuration::ZERO, ms(1));
        let err = run_bare(dumbbell(fan)).expect_err("no flow to run");
        assert!(
            matches!(err, RunError::Scenario(ScenarioError::Placement { .. })),
            "{err}"
        );
    }

    #[test]
    /// An illegal bottleneck fault is the runner's typed error, raised
    /// when the fault is installed on the link: a probability outside
    /// `[0, 1]`, and a jitter that reaches the hop delay (which only
    /// the link-relative check can see).
    fn a_bad_fault_is_the_runners_error() {
        let sc = Scenario::new(CAL_MTU_BYTES, vec![bulk(1_000_000); 2]);
        let jitter = FaultSpec::default().with_jitter(sc.hop_delay);
        for fault in [FaultSpec::random_loss(-0.5), jitter] {
            let err = run_bare(Topology::Dumbbell(sc.clone().with_fault(fault)));
            assert!(
                matches!(err, Err(RunError::Scenario(ScenarioError::Fault(_)))),
                "{err:?}"
            );
        }
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

    /// A grid that breaks [`PopulationSpec::check`] is the population
    /// runner's typed error, raised before any rack is built.
    #[test]
    fn malformed_rack_grids_are_typed_errors() {
        let mut empty_mix = grid(2, 2, 4);
        empty_mix.mix.clear();
        let mut zero_weights = grid(2, 2, 4);
        zero_weights.mix = vec![(CcaKind::Cubic, 0), (CcaKind::Bbr, 0)];
        let cases = [
            ("no racks", grid(0, 2, 4)),
            ("no hosts", grid(2, 0, 4)),
            ("no flows", grid(2, 2, 0)),
            ("empty mix", empty_mix),
            ("zero weights", zero_weights),
        ];
        for (what, spec) in cases {
            let err = run_bare(Topology::RackGrid(spec));
            assert!(
                matches!(
                    err,
                    Err(RunError::Population(PopulationError::Malformed { .. }))
                ),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn parking_lot_flow_count_must_match_hops() {
        let lot = Scenario::new(CAL_MTU_BYTES, vec![bulk(1_000)]);
        let err = run_bare(Topology::ParkingLot(lot, 3)).expect_err("a misfit lot");
        assert!(err.to_string().contains("exactly 4 flows"), "{err}");
    }

    /// The runners' own MTU rule reaches the DSL on every topology.
    #[test]
    fn an_mtu_within_the_header_is_rejected_on_every_topology() {
        use netsim::packet::HEADER_BYTES;
        let shapes = |mtu: u32| {
            let mut one_rack = grid(1, 2, 2);
            one_rack.mtu = mtu;
            [
                Topology::Dumbbell(Scenario::new(mtu, vec![bulk(1_000)])),
                Topology::ParkingLot(Scenario::new(mtu, vec![bulk(1_000); 2]), 1),
                Topology::RackGrid(one_rack),
            ]
        };
        for mtu in [0, HEADER_BYTES] {
            for topology in shapes(mtu) {
                let err = run_bare(topology).expect_err("no room for payload");
                let too_small = ScenarioError::MtuTooSmall { mtu }.to_string();
                assert!(err.to_string().ends_with(&too_small), "{err}");
            }
        }
        for topology in shapes(HEADER_BYTES + 1) {
            assert!(run_bare(topology).is_ok());
        }
    }

    /// A flap on the topology's own `Scenario` is what a recovery check
    /// measures from: the spec builds, with 1 ms traces, and its fault
    /// clears when the flap ends.
    #[test]
    fn recovery_auto_enables_traces() {
        let flap = FaultSpec::default().with_flap(SimTime::from_millis(5), SimTime::from_millis(7));
        let sc = Scenario::new(CAL_MTU_BYTES, vec![bulk(2_000_000); 2]).with_fault(flap);
        let spec = ScenarioBuilder::new("t", Topology::Dumbbell(sc))
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.3,
                within: SimDuration::from_millis(500),
            })
            .build()
            .expect("valid scenario");
        let Topology::Dumbbell(sc) = &spec.topology else {
            panic!("a dumbbell stays a dumbbell");
        };
        assert_eq!(sc.trace_bin, Some(RECOVERY_TRACE_BIN));
        assert_eq!(spec.fault_clear(), Some(SimTime::from_millis(7)));
    }

    /// The verdict's chaos labels are read off the topology's fault.
    #[test]
    fn chaos_labels_name_the_scenarios_fault() {
        let labels = |fault: Option<FaultSpec>| {
            let mut sc = Scenario::new(CAL_MTU_BYTES, vec![bulk(1_000); 2]);
            sc.bottleneck_fault = fault;
            ScenarioBuilder::new("t", Topology::Dumbbell(sc))
                .build()
                .expect("nothing to compose")
                .chaos_labels()
        };
        assert!(labels(None).is_empty());
        let ms = SimTime::from_millis;
        let every_knob = FaultSpec::random_loss(0.5)
            .with_corruption(0.25)
            .with_duplication(0.125)
            .with_reordering(0.75, SimDuration::from_micros(200))
            .with_jitter(SimDuration::from_micros(5))
            .with_flap(ms(9), ms(10))
            .with_flap(ms(4), ms(7));
        assert_eq!(
            labels(Some(every_knob)),
            [
                "loss(0.5)",
                "reorder(0.75, hold 200.000us)",
                "corrupt(0.25)",
                "duplicate(0.125)",
                "jitter(5.000us)",
                "flap(at 0.009000s, for 1.000ms)",
                "flap(at 0.004000s, for 3.000ms)",
            ]
        );
    }

    #[test]
    fn dumbbell_runs_and_evaluates() {
        let sc = Scenario::new(CAL_MTU_BYTES, vec![bulk(2_000_000); 2]).with_seed(7);
        let run = ScenarioBuilder::new("t", Topology::Dumbbell(sc))
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
        let spec = PopulationSpec::new(8, vec![(CcaKind::Cubic, 3), (CcaKind::Bbr, 1)])
            .with_grid(1, 4)
            .with_bytes_per_flow(500_000)
            .with_seed(5);
        let run = ScenarioBuilder::new("incast", Topology::RackGrid(spec))
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.passed, "{:?}", run.reports);
        assert_eq!(run.measured.reports.len(), 8);
        assert_eq!(run.measured.n_sender_hosts, 4);
    }

    /// A grid's window ends at its last flow's terminal time, as on the
    /// flow-level shapes, not when the last rack's engine drained: the
    /// utilization a floor reads is the bytes over that window.
    #[test]
    fn a_rack_grid_window_ends_at_its_last_flow() {
        let spec = grid(1, 4, 8).with_bytes_per_flow(500_000).with_seed(5);
        let run = ScenarioBuilder::new("one-rack", Topology::RackGrid(spec))
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.0 })
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        let m = &run.measured;
        let last = m.reports.iter().map(|r| r.completed_at).max().unwrap();
        assert_eq!(m.window, last.saturating_since(SimTime::ZERO));
        assert!(last < m.sim_end, "the engine drains after the last flow");
        let secs = m.window.as_secs_f64();
        let expected = m.bytes_acked() as f64 * 8.0 / (secs * m.capacity_gbps * 1e9);
        assert_eq!(run.reports[0].measured.to_bits(), expected.to_bits());
    }

    #[test]
    fn parking_lot_runs_through_the_dsl() {
        let video = FlowSpec::bulk(CcaKind::Bbr, 500_000).with_rate_limit(Rate::from_gbps(1.0));
        let lot = Scenario::new(CAL_MTU_BYTES, vec![bulk(1_000_000), bulk(1_000_000), video])
            .with_seed(3);
        let run = ScenarioBuilder::new("lot", Topology::ParkingLot(lot, 2))
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
            let mut spec = grid(1, 4, 8).with_bytes_per_flow(500_000);
            spec.mtu = mtu;
            let run = run_bare(Topology::RackGrid(spec)).expect("runs");
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
        let lot = Scenario::new(CAL_MTU_BYTES, vec![bulk(1_000_000); hops + 1]).with_seed(3);
        let run = |sc: Scenario| run_bare(Topology::ParkingLot(sc, hops)).expect("runs");
        let plain = run(lot.clone());
        let observed = run(lot.with_observability());
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
    fn baseline_feeds_savings_ordering() {
        // Identical scenario vs itself: savings are exactly zero. Just
        // checks the plumbing: a baseline is measured and the report
        // carries real numbers.
        let sc = Scenario::new(CAL_MTU_BYTES, vec![bulk(2_000_000); 2]).with_seed(11);
        let fair = ScenarioBuilder::new("fair", Topology::Dumbbell(sc.clone()))
            .build()
            .expect("valid baseline");
        let run = ScenarioBuilder::new("t", Topology::Dumbbell(sc))
            .baseline(fair)
            .expect_check(Expectation::SavingsOrdering {
                min_savings_pct: -5.0,
            })
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        assert!(run.baseline.is_some());
        let report = &run.reports[0];
        assert!(report.measured.abs() < 1e-9, "{report:?}");
        assert!(report.passed);
    }
}
