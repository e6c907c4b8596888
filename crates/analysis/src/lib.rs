//! # analysis — statistics and reporting utilities
//!
//! Means/deviations over repeated runs (the paper repeats each scenario
//! ten times), the two correlations the paper quotes (energy-vs-power
//! ≈ -0.8, energy-vs-retransmissions ≈ 0.47), Jain's fairness index (the
//! objective the paper argues against optimizing), and plain-text table
//! rendering for the figure-regeneration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod fairness;
pub mod stats;
pub mod table;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::chart::{bar_chart, line_chart};
    pub use crate::fairness::{flow1_fraction, jain_index};
    pub use crate::stats::{linear_fit, mean, pearson, percentile, std_dev, Summary};
    pub use crate::table::{f3, pm, Table};
}
