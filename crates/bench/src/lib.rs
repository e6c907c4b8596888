//! # bench — every figure, campaign, drill and gate as one command
//!
//! `cargo run --release -p bench -- <command> [args]`. [`COMMANDS`]
//! (`src/commands.rs`) is the one table of what can be run and `bench
//! help` prints it: `fig1` … `fig8`, `theorem1`, `extensions` and `all`
//! rerun the paper's figures at `GREENENVY_SCALE=paper|standard|quick|tiny`,
//! print the rows/series the paper reports and write typed JSON under
//! `results/`; `campaign`, `chaos`, `scenarios`, `population`, `report`
//! and `perf_gates` are a module each, documented there; `sack_trace` is
//! the recorded loss-recovery trace behind the `sack_scaling` gate.
//!
//! A command returns its exit code (a `greenenvy::exitcode` name) or an
//! [`args::Usage`] error; only `src/main.rs` ends the process.

pub mod args;
pub mod campaign;
pub mod chaos;
mod commands;
pub mod perf_gates;
pub mod population;
pub mod report;
pub mod sack_trace;
pub mod scenarios;

pub(crate) use commands::{emit, EXTENSIONS};
pub use commands::{help, Command, Ctx, COMMANDS};

use greenenvy::campaign::persist;
use serde::Serialize;
use std::path::PathBuf;

/// Write an experiment result as pretty JSON under `results/`, returning
/// the path. The write is atomic (temp file + rename): a crash or a
/// concurrent reader never sees a torn artifact. Failures are reported
/// but non-fatal (the printed tables are the primary artefact).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    save_json_in(&PathBuf::from("results"), name, value)
}

/// [`save_json`] with an explicit directory.
pub fn save_json_in<T: Serialize>(dir: &std::path::Path, name: &str, value: &T) -> Option<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    match persist::save_json_atomic(&path, value) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: {e}");
            None
        }
    }
}

/// Load a cached campaign matrix for this scale from `results/`, or run
/// it and cache it. Figures 5-8 all project the same campaign (as in the
/// paper), so consecutive figure commands reuse one run.
pub fn load_or_run_matrix(scale: greenenvy::Scale) -> greenenvy::matrix::Matrix {
    let path = PathBuf::from("results").join(format!("matrix_{}.json", scale.name));
    if let Ok(body) = std::fs::read_to_string(&path) {
        if let Ok(matrix) = serde_json::from_str::<greenenvy::matrix::Matrix>(&body) {
            if matrix_matches(&matrix, &scale) {
                println!("(reusing cached campaign {})\n", path.display());
                return matrix;
            }
        }
    }
    let matrix = greenenvy::matrix::run_matrix(scale);
    let _ = save_json(&format!("matrix_{}", scale.name), &matrix);
    matrix
}

/// Is a cached matrix safe to reuse for `scale`?
///
/// The seed list is part of the cache key: two scales can share transfer
/// size and repetition count yet run different seed schedules, and a
/// stale cache would silently change every figure downstream. Likewise a
/// *partial* matrix (from a cancelled or failing campaign) must never be
/// mistaken for the real thing, and neither may a file written under an
/// older result schema.
pub fn matrix_matches(matrix: &greenenvy::matrix::Matrix, scale: &greenenvy::Scale) -> bool {
    use cca::CcaKind;
    matrix.schema_version == greenenvy::matrix::MATRIX_SCHEMA_VERSION
        && matrix.transfer_bytes == scale.transfer_bytes
        && matrix.repetitions == scale.repetitions
        && matrix.seeds == scale.seeds()
        && matrix.is_complete()
        && matrix.cells.len() == CcaKind::ALL.len() * greenenvy::matrix::MTUS.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_json_roundtrips() {
        let tmp = std::env::temp_dir().join("greenenvy-bench-test");
        let path =
            save_json_in(&tmp, "unit-test", &serde_json::json!({"x": 1})).expect("write succeeds");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"x\": 1"));
    }

    #[test]
    fn partial_or_stale_matrices_are_rejected_by_the_cache_key() {
        use greenenvy::matrix::{CellFailure, Matrix, MATRIX_SCHEMA_VERSION};
        let scale = greenenvy::Scale::quick();
        let complete = |cells: Vec<greenenvy::matrix::Cell>| Matrix {
            schema_version: MATRIX_SCHEMA_VERSION,
            transfer_bytes: scale.transfer_bytes,
            repetitions: scale.repetitions,
            seeds: scale.seeds(),
            cells,
            failed: Vec::new(),
        };
        // An empty cell list is "complete" (no failures) but not full.
        let empty = complete(Vec::new());
        assert!(
            !matrix_matches(&empty, &scale),
            "missing cells must not cache-hit"
        );
        let mut failed = complete(Vec::new());
        failed.failed.push(CellFailure {
            cca: "cubic".into(),
            mtu: 1500,
            error: "x".into(),
            retry_error: "y".into(),
            attempts: 2,
        });
        assert!(
            !matrix_matches(&failed, &scale),
            "partial matrix must not cache-hit"
        );
        let mut stale = complete(Vec::new());
        stale.schema_version = 0;
        assert!(
            !matrix_matches(&stale, &scale),
            "old schema must not cache-hit"
        );
    }

    #[test]
    fn tracked_standard_matrix_still_cache_hits() {
        // The checked-in artifact must keep deserializing under the
        // current schema and satisfying the cache key — otherwise every
        // figure command silently re-runs the standard-scale campaign.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/matrix_standard.json");
        let body = std::fs::read_to_string(&path).expect("tracked matrix artifact exists");
        let matrix: greenenvy::matrix::Matrix =
            serde_json::from_str(&body).expect("tracked matrix deserializes");
        assert!(matrix_matches(&matrix, &greenenvy::Scale::standard()));
    }
}
