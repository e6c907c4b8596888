//! # greenenvy — the experiment layer
//!
//! Reproduces every table and figure of *"Green With Envy: Unfair
//! Congestion Control Algorithms Can Be More Energy Efficient"*
//! (HotNets '23) on the simulated testbed:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — energy savings vs bandwidth allocation |
//! | [`fig2`] | Fig. 2 — concave power-vs-throughput curve + mix chord |
//! | [`fig3`] | Fig. 3 — fair vs full-speed-then-idle traces |
//! | [`fig4`] | Fig. 4 — loaded-host power curves + savings |
//! | [`fig5`] | Fig. 5 — energy per CCA × MTU |
//! | [`fig6`] | Fig. 6 — power per CCA × MTU, energy-power correlation |
//! | [`fig7`] | Fig. 7 — energy vs completion time scatter |
//! | [`fig8`] | Fig. 8 — energy vs retransmissions scatter |
//! | [`theorem`] | Theorem 1 — fair allocations maximize power |
//! | [`savings`] | §4.2 — the $10M/year extrapolation |
//! | [`extensions`] | §5 future work: flow multiplexing, SRPT, incast |
//!
//! Each module exposes a `Config`/`run`/`render` triple returning typed,
//! serde-serializable results; [`scale::Scale`] trades fidelity for time
//! (`GREENENVY_SCALE=paper|standard|quick`). Figures 5-8 share one
//! measurement campaign ([`matrix`]), exactly as in the paper: each
//! projects it with `from_matrix` and prints with `render`.
//!
//! ```no_run
//! use greenenvy::{fig1, scale::Scale};
//!
//! let result = fig1::run(&fig1::Config::at_scale(Scale::quick()));
//! println!("{}", fig1::render(&result));
//! assert!(result.peak_savings_pct > 10.0); // the paper's ~16%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod exitcode;
pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod matrix;
pub mod resilience;
pub mod savings;
pub mod scale;
pub mod theorem;

pub use scale::Scale;
