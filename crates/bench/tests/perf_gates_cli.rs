//! `perf_gates` rejects a gate it does not know before timing anything.

use std::process::Command;

#[test]
fn unknown_gate_is_a_usage_error_and_nothing_is_measured() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_gates"))
        .args(["journal_sharding", "no_such_gate"])
        .output()
        .expect("perf_gates runs");
    assert_eq!(out.status.code(), Some(greenenvy::exitcode::USAGE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_gate"), "{stderr}");
    assert!(stderr.contains("journal_sharding"), "usage lists the gates");
    assert!(
        out.stdout.is_empty(),
        "a gate ran before the bad name was rejected: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
