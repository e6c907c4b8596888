//! The exit-code registry: one named constant per process exit status
//! used by the sim binaries.
//!
//! Exit codes are part of the scripted interface — scripts and the
//! campaign drivers branch on them, and `bench`'s `tests/cli.rs` holds
//! the binary to 4 and 5
//! (`failed_cells_are_journaled_and_the_campaign_exits_quarantined`,
//! `a_lost_campaign_trace_degrades_and_keeps_every_cell`) — so the
//! values here are frozen.
//! Binaries must exit through these names, never integer literals; the
//! `exit-code-registry` simlint rule enforces that. (simlint itself
//! depends on no workspace crate and keeps a local three-entry table.)
//!
//= DESIGN.md#exit-code-registry

/// Clean run: everything completed and every check passed.
pub const OK: i32 = 0;

/// The run itself failed: a cell errored out, a suite misbehaved, a
/// perf check regressed, or an artifact could not be written.
pub const FAILURE: i32 = 1;

/// Command-line usage error (bad flag, missing value).
pub const USAGE: i32 = 2;

/// Complete except for failed cells — results are valid for every
/// other cell; each failure is a `"failed"` record in a journal shard
/// and an entry of the matrix's `failed` list.
pub const QUARANTINED: i32 = 4;

/// Results are valid but NOT crash-durable (journal or trace persist
/// failures); rerun with healthy storage before trusting `--resume`.
pub const DEGRADED: i32 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is an interface: values are frozen and distinct.
    //= DESIGN.md#inv-exit-code-registry
    #[test]
    fn codes_are_frozen_and_distinct() {
        let all = [OK, FAILURE, USAGE, QUARANTINED, DEGRADED];
        assert_eq!(all, [0, 1, 2, 4, 5]);
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "exit codes must be distinct");
    }
}
