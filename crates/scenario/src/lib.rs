//! # scenario — declarative experiments with machine-checked outcomes
//!
//! Every experiment in this workspace used to be a hand-rolled binary
//! with ad-hoc pass/fail judgment: run the sim, print a table, eyeball
//! the JSON. This crate replaces that with the authoring shape of a
//! modern resilience harness: **topology → traffic → chaos →
//! expectations**, where "success" is a typed post-run check that
//! evaluates into a structured report, not a human opinion.
//!
//! ```
//! use scenario::prelude::*;
//!
//! let spec = ScenarioBuilder::new("flap-recovery")
//!     .topology(Topology::Dumbbell)
//!     .traffic(Traffic::bulk(CcaKind::Cubic, 12_000_000))
//!     .traffic(Traffic::bulk(CcaKind::Cubic, 12_000_000))
//!     .chaos(ChaosPhase::flap(
//!         SimTime::from_millis(5),
//!         SimDuration::from_millis(2),
//!     ))
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
//! * [`builder`] — [`builder::ScenarioBuilder`] composes a topology
//!   shape (dumbbell, incast, parking lot, rack grid), traffic
//!   generators, named chaos phases, and expectations into a validated
//!   [`builder::ScenarioSpec`]; `run()` executes it on the right
//!   runner and evaluates every expectation.
//! * [`traffic`] — [`traffic::Traffic`] generators (bulk,
//!   request/response RPC, rate-limited video, on/off web, and a
//!   population CCA mix) compiling down to [`workload::iperf::FlowSpec`]s.
//! * [`chaos`] — [`chaos::ChaosPhase`] wraps
//!   [`netsim::fault::FaultSpec`] knobs as named, labelled phases
//!   (`loss(p)`, `flap(at, for)`, ...), validated at build time.
//! * [`expect`] — the expectations engine: typed checks
//!   ([`expect::Expectation`]) over a runner-agnostic
//!   [`expect::Measured`] summary, each producing an
//!   [`expect::ExpectationReport`] with the measured value, the
//!   target, and the margin.
//! * [`parking`] — the parking lot (one through flow crossing a chain
//!   of bottlenecks against per-hop local flows) as a placement on
//!   `workload`'s run harness, which the dumbbell and rack-grid runners
//!   in `workload` go through too.
//! * [`suite`] — named collections of scenarios with a deterministic
//!   JSON verdict matrix and observability export (time-to-recover
//!   histogram, per-scenario trace spans).
//!
//! Determinism contract: a suite verdict is a pure function of its
//! specs — no wall-clock, no filesystem paths, fixed iteration and
//! float-summation order — so two runs of the same suite must emit
//! byte-identical verdict JSON (`verify.sh --scenarios` enforces it).

#![warn(missing_docs)]

pub mod builder;
pub mod chaos;
pub mod expect;
pub mod parking;
pub mod suite;
pub mod traffic;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::builder::{
        BuildError, RunError, ScenarioBuilder, ScenarioRun, ScenarioSpec, Topology,
    };
    pub use crate::chaos::ChaosPhase;
    pub use crate::expect::{Expectation, ExpectationReport, Measured};
    pub use crate::suite::{ScenarioVerdict, Suite, SuiteEntry, SuiteOutcome, SuiteVerdict};
    pub use crate::traffic::Traffic;
    pub use cca::CcaKind;
    pub use netsim::time::{SimDuration, SimTime};
    pub use netsim::units::Rate;
}
