//! # workload — traffic generation and the testbed-in-a-box
//!
//! The simulated analogue of the paper's §3 methodology: iperf3-style
//! bulk flows ([`iperf::FlowSpec`]), background compute load from the
//! `stress` tool ([`stress::StressLoad`]), and one run harness
//! ([`harness::simulate_on`]) that wires placed flows onto a topology,
//! runs them to completion and measures per-host energy over the
//! experiment window with the calibrated RAPL model
//! ([`harness::SimulatedRun::meter`]). Three placements put flows on it,
//! all here: one [`scenario::Scenario`] on the dumbbell testbed
//! ([`scenario::simulate`], [`scenario::run`]) or on a parking lot
//! ([`scenario::simulate_parking_lot`]), and the rack-sharded population
//! ([`population::run_population`]). Grids of independent runs — the racks of a
//! population, the `(point, seed)` jobs of a figure sweep — go through one
//! ordered parallel map ([`par::par_map`]) whose result does not depend on
//! the thread count, and both run on every core by default. A population
//! can afford that because a rack's memory is its flows and its active
//! bins, nothing sized by a global id or by elapsed time.
//!
//! ```
//! use workload::prelude::*;
//! use cca::CcaKind;
//!
//! // One CUBIC flow pushing 100 MB over the 10 Gb/s testbed.
//! let scenario = Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 100_000_000)]);
//! let out = workload::scenario::run(&scenario).unwrap();
//! assert!(out.reports[0].mean_goodput.gbps() > 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod harness;
pub mod iperf;
pub mod par;
pub mod population;
pub mod scenario;
pub mod stress;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::arrivals::{PoissonWorkload, SizeMix};
    pub use crate::iperf::{FlowReport, FlowSpec};
    pub use crate::par::{host_threads, par_map, par_map_with_threads};
    pub use crate::population::{
        run_population, run_population_with_threads, PopulationError, PopulationFingerprint,
        PopulationOutcome, PopulationSpec,
    };
    pub use crate::scenario::{
        run, simulate, simulate_parking_lot, Scenario, ScenarioError, ScenarioOutcome, SimulatedRun,
    };
    pub use crate::stress::StressLoad;
}
