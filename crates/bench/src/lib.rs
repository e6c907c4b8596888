//! # bench — figure regeneration, the campaign runner and the perf gates
//!
//! * `src/bin/fig1.rs` … `fig8.rs`, `theorem1.rs`, `all.rs` — binaries
//!   that rerun each of the paper's figures and print the same
//!   rows/series the paper reports (`cargo run --release -p bench --bin
//!   fig1`). `GREENENVY_SCALE=paper|standard|quick|tiny` selects the
//!   workload size. Each binary also writes its typed result as JSON
//!   under `results/`.
//! * `src/bin/campaign.rs` — the durable CCA × MTU campaign runner:
//!   checkpoint journal, `--resume`, per-cell `--deadline`, paranoid
//!   invariant audits, and graceful SIGINT/SIGTERM shutdown.
//! * `src/bin/cca_table.rs` — the one-screen diagnostic table of every
//!   CCA's behaviour at a chosen transfer size and MTU.
//! * `src/bin/perf_gates.rs` — the four host-independent perf ratios
//!   (`obs_full_overhead`, `fig4_sharing`, `sack_scaling`,
//!   `journal_sharding`), each timed interleaved in one process and held
//!   to a budget; what `scripts/verify.sh --perf` runs. Absolute times
//!   live on the benchmark ledger (`benchmark/README.md`).
//! * `src/sack_trace.rs` — the recorded loss-recovery trace behind the
//!   `sack_scaling` gate.

pub mod sack_trace;

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

/// The scale `GREENENVY_SCALE` selects. A set-but-unknown value is a
/// usage error: the binary exits instead of silently running standard.
pub fn scale_from_env() -> greenenvy::Scale {
    greenenvy::Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(greenenvy::exitcode::USAGE)
    })
}

/// Announce the scale a binary is running at.
pub fn announce(figure: &str, scale: &greenenvy::Scale) {
    println!(
        "=== {figure} | scale: {} ({} bytes/transfer, {} reps) ===\n",
        scale.name, scale.transfer_bytes, scale.repetitions
    );
}

/// Load a cached campaign matrix for this scale from `results/`, or run
/// it and cache it. Figures 5-8 all project the same campaign (as in the
/// paper), so consecutive figure binaries reuse one run.
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
        // figure binary silently re-runs the standard-scale campaign.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/matrix_standard.json");
        let body = std::fs::read_to_string(&path).expect("tracked matrix artifact exists");
        let matrix: greenenvy::matrix::Matrix =
            serde_json::from_str(&body).expect("tracked matrix deserializes");
        assert!(matrix_matches(&matrix, &greenenvy::Scale::standard()));
    }
}
