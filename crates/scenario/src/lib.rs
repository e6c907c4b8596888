//! # scenario — declarative experiments with machine-checked outcomes
//!
//! Every experiment in this workspace used to be a hand-rolled binary
//! with ad-hoc pass/fail judgment: run the sim, print a table, eyeball
//! the JSON. This crate replaces that with the authoring shape of a
//! modern resilience harness: **run input → expectations**, where the
//! input carries its own chaos (the bottleneck's fault) and "success" is
//! a typed post-run check that evaluates into a structured report, not a
//! human opinion.
//!
//! ```
//! use scenario::prelude::*;
//!
//! let flows = vec![FlowSpec::bulk(CcaKind::Cubic, 12_000_000); 2];
//! let flap = FaultSpec::default().with_flap(SimTime::from_millis(5), SimTime::from_millis(7));
//! let testbed = Scenario::new(CAL_MTU_BYTES, flows).with_fault(flap);
//! let spec = ScenarioBuilder::new("flap-recovery", Topology::Dumbbell(testbed))
//!     .expect_check(Expectation::AbortFree)
//!     .expect_check(Expectation::RecoveryWithin {
//!         band_frac: 0.3,
//!         within: SimDuration::from_millis(500),
//!     })
//!     .build()
//!     .expect("well-formed scenario");
//! let run = spec.run().expect("scenario completes");
//! assert!(run.passed, "{:?}", run.reports);
//! ```
//!
//! The pieces:
//!
//! * [`builder`] — a [`builder::Topology`] carries the input of the
//!   `workload` runner that places it (a `Scenario` for the dumbbell
//!   and the parking lot, a `PopulationSpec` for the rack grid). Chaos
//!   is the `Scenario`'s own [`netsim::fault::FaultSpec`] on the
//!   bottleneck; the verdict names it as incident-timeline labels
//!   (`loss(p)`, `flap(at, for)`, ...).
//!   [`builder::ScenarioBuilder`] adds expectations and a baseline, and
//!   `build()` checks that those compose with the input into a
//!   [`builder::ScenarioSpec`]. `run()` runs the input on its placement
//!   and evaluates every expectation; the runner rejects an input that
//!   does not fit, an illegal fault included, before it builds
//!   anything. The crate runs nothing itself.
//! * [`expect`] — the expectations engine: typed checks
//!   ([`expect::Expectation`]) over a runner-agnostic
//!   [`expect::Measured`] summary, each producing an
//!   [`expect::ExpectationReport`] with the measured value, the
//!   target, and the margin.
//! * [`traffic`] — named flow shapes ([`traffic::rpc_fan`],
//!   [`traffic::video`]) written as the `FlowSpec`s a runner reads.
//! * [`suite`] — named collections of scenarios with a deterministic
//!   JSON verdict matrix and observability export (time-to-recover
//!   histogram, per-scenario trace spans).
//!
//! Determinism contract: a suite verdict is a pure function of its
//! specs — no wall-clock, no filesystem paths, fixed iteration and
//! float-summation order — so two runs of the same suite must emit
//! byte-identical verdict JSON (`greenenvy`'s
//! `tests/golden_resilience.rs` pins it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod expect;
pub mod suite;
pub mod traffic;

/// The commonly-used names, re-exported in one place: the DSL's own and
/// the runner inputs a [`builder::Topology`] carries.
pub mod prelude {
    pub use crate::builder::{
        BuildError, RunError, ScenarioBuilder, ScenarioRun, ScenarioSpec, Topology,
    };
    pub use crate::expect::{Expectation, ExpectationReport, Measured};
    pub use crate::suite::{ScenarioVerdict, Suite, SuiteEntry, SuiteOutcome, SuiteVerdict};
    pub use cca::CcaKind;
    pub use energy::calibration::CAL_MTU_BYTES;
    pub use netsim::fault::FaultSpec;
    pub use netsim::time::{SimDuration, SimTime};
    pub use netsim::units::Rate;
    pub use workload::iperf::FlowSpec;
    pub use workload::population::PopulationSpec;
    pub use workload::scenario::Scenario;
}
