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

#![forbid(unsafe_code)]

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

use greenenvy::campaign::persist::{self, PersistError};
use greenenvy::exitcode;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Write an experiment result as pretty JSON to `results/<name>.json`
/// and report it: `<said> <path>` on stdout and `OK`, or the error on
/// stderr and `FAILURE` — an artifact that could not be written fails
/// the command.
pub fn save_json<T: Serialize>(said: &str, name: &str, value: &T) -> i32 {
    match save_json_in(Path::new("results"), name, value) {
        Ok(path) => {
            println!("{said} {}", path.display());
            exitcode::OK
        }
        Err(e) => {
            eprintln!("error: {e}");
            exitcode::FAILURE
        }
    }
}

/// Write `value` as pretty JSON to `<dir>/<name>.json`, returning the
/// path. The write is atomic (temp file + rename): a crash or a
/// concurrent reader never sees a torn artifact.
pub fn save_json_in<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<PathBuf, PersistError> {
    let path = dir.join(format!("{name}.json"));
    persist::save_json_atomic(&path, value)?;
    Ok(path)
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
}
