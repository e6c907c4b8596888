//! Experiment scaling.
//!
//! The paper's full workload (50 GB per transfer, 10 repetitions) takes
//! hours to simulate at packet granularity. All figure results are
//! *rate-based* (power, goodput, savings percentages) or scale linearly
//! in the transfer size (energy, retransmissions), so smaller transfers
//! reproduce the same shapes. [`Scale`] picks the operating point; the
//! `GREENENVY_SCALE` environment variable (`paper`, `standard`, `quick`,
//! `tiny`) selects one at runtime.

use netsim::units::{GB, MB};
use std::ffi::OsStr;

/// How big to run the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Bytes per single-flow bulk transfer (the paper uses 50 GB).
    pub transfer_bytes: u64,
    /// Bytes per flow in the two-flow Figure-1/3 experiments (the paper
    /// uses 10 Gbit = 1.25 GB).
    pub two_flow_bytes: u64,
    /// Repetitions per scenario (the paper uses 10).
    pub repetitions: usize,
    /// Label for reports.
    pub name: &'static str,
}

impl Scale {
    /// The paper's exact workload: 50 GB, 1.25 GB two-flow, 10 reps.
    pub fn paper() -> Scale {
        Scale {
            transfer_bytes: 50 * GB,
            two_flow_bytes: 1_250 * MB,
            repetitions: 10,
            name: "paper",
        }
    }

    /// A 10x-reduced workload whose results match the paper's shapes;
    /// the default for recorded results.
    pub fn standard() -> Scale {
        Scale {
            transfer_bytes: 5 * GB,
            two_flow_bytes: 1_250 * MB,
            repetitions: 3,
            name: "standard",
        }
    }

    /// A fast smoke-test workload for CI and benches.
    pub fn quick() -> Scale {
        Scale {
            transfer_bytes: 250 * MB,
            two_flow_bytes: 125 * MB,
            repetitions: 2,
            name: "quick",
        }
    }

    /// A miniature workload for durability drills: small enough that a
    /// kill/resume cycle through the whole 40-cell campaign fits in a
    /// CI stage, large enough that cells take measurable wall time.
    pub fn tiny() -> Scale {
        Scale {
            transfer_bytes: 25 * MB,
            two_flow_bytes: 12 * MB,
            repetitions: 1,
            name: "tiny",
        }
    }

    /// Read `GREENENVY_SCALE` (`paper` | `standard` | `quick` | `tiny`).
    /// Unset selects [`Scale::standard`]; a value that names no scale is
    /// an error, not a silent standard-scale run.
    pub fn from_env() -> Result<Scale, UnknownScale> {
        Scale::from_env_value(std::env::var_os("GREENENVY_SCALE").as_deref())
    }

    /// [`Scale::from_env`] on the variable's value (`None` = unset).
    pub fn from_env_value(value: Option<&OsStr>) -> Result<Scale, UnknownScale> {
        let Some(value) = value else {
            return Ok(Scale::standard());
        };
        match value.to_str() {
            Some("paper") => Ok(Scale::paper()),
            Some("standard") => Ok(Scale::standard()),
            Some("quick") => Ok(Scale::quick()),
            Some("tiny") => Ok(Scale::tiny()),
            _ => Err(UnknownScale {
                value: value.to_string_lossy().into_owned(),
            }),
        }
    }

    /// Factor to scale an energy/retransmission count measured at this
    /// scale up to the paper's 50 GB transfers (approximate: the
    /// rate-proportional part of energy dominates).
    pub fn to_paper_factor(&self) -> f64 {
        (50 * GB) as f64 / self.transfer_bytes as f64
    }

    /// Deterministic seed list for the repetitions.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.repetitions as u64)
            .map(|i| 1000 + i * 7919)
            .collect()
    }
}

/// `GREENENVY_SCALE` was set to something that names no scale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScale {
    /// The rejected value (lossily decoded if it was not UTF-8).
    pub value: String,
}

impl std::fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GREENENVY_SCALE={:?} names no scale; accepted values: paper, standard, quick, tiny",
            self.value
        )
    }
}

impl std::error::Error for UnknownScale {}

impl Default for Scale {
    fn default() -> Self {
        Scale::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Scale::paper().transfer_bytes, 50 * GB);
        assert_eq!(Scale::paper().repetitions, 10);
        assert_eq!(Scale::quick().repetitions, 2);
        assert_eq!(Scale::default(), Scale::standard());
    }

    #[test]
    fn env_value_selects_a_scale_or_is_rejected() {
        let parse = |v: &str| Scale::from_env_value(Some(OsStr::new(v)));
        assert_eq!(Scale::from_env_value(None), Ok(Scale::standard()));
        for scale in [
            Scale::paper(),
            Scale::standard(),
            Scale::quick(),
            Scale::tiny(),
        ] {
            assert_eq!(parse(scale.name), Ok(scale));
        }
        for typo in ["quik", "", "Quick", " tiny"] {
            let err = parse(typo).expect_err("a typo is not a scale");
            assert_eq!(err.value, typo);
            let msg = err.to_string();
            for accepted in ["paper", "standard", "quick", "tiny"] {
                assert!(msg.contains(accepted), "{msg}");
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_env_value_is_rejected() {
        use std::os::unix::ffi::OsStrExt;
        let err = Scale::from_env_value(Some(OsStr::from_bytes(b"qu\xffck")))
            .expect_err("not UTF-8, so not a scale name");
        assert!(err.value.starts_with("qu"), "{err}");
    }

    #[test]
    fn paper_factor() {
        assert_eq!(Scale::paper().to_paper_factor(), 1.0);
        assert_eq!(Scale::standard().to_paper_factor(), 10.0);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let s = Scale::paper().seeds();
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert_eq!(s, Scale::paper().seeds());
    }
}
