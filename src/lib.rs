//! # green-envy-repro — umbrella crate
//!
//! Reproduction of *"Green With Envy: Unfair Congestion Control
//! Algorithms Can Be More Energy Efficient"* (Arslan, Renganathan, Spang —
//! HotNets '23). This root crate re-exports the workspace's public
//! surface and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Start with the `greenenvy` experiment layer:
//!
//! ```no_run
//! use green_envy_repro::greenenvy::{fig1, Scale};
//!
//! let result = fig1::run(&fig1::Config::at_scale(Scale::quick()));
//! println!("{}", fig1::render(&result));
//! ```
//!
//! Layers, bottom-up:
//!
//! * [`netsim`] — deterministic packet-level network simulator;
//! * [`transport`] — TCP machinery (SACK, RACK/TLP, RTO, pacing);
//! * [`cca`] — the paper's ten congestion control algorithms;
//! * [`energy`] — the calibrated RAPL-style host energy model;
//! * [`workload`] — iperf3-style scenarios on the simulated testbed;
//! * [`analysis`] — statistics and table rendering;
//! * [`greenenvy`] — one module per figure/table of the paper.

#![forbid(unsafe_code)]

pub use analysis;
pub use cca;
pub use energy;
pub use greenenvy;
pub use netsim;
pub use transport;
pub use workload;
