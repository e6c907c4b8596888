//! Durability integration tests: kill/resume bit-identity and journal
//! corruption recovery.
//!
//! These drive the public campaign API end to end with a deterministic
//! stub runner (cells are pure functions of their inputs, so any
//! re-execution produces identical bits — exactly the property the real
//! simulator has). What's under test is the durability layer: which
//! cells re-run, and whether a resumed campaign's matrix is
//! byte-identical to an uninterrupted one.

use analysis::stats::Summary;
use cca::CcaKind;
use greenenvy::campaign::{journal, run_campaign_with_runner, CampaignOptions, Fingerprint};
use greenenvy::matrix::{Cell, CellError, Matrix, MTUS};
use greenenvy::Scale;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TOTAL: usize = 40; // 10 CCAs × 4 MTUS

/// A deterministic fake measurement: every statistic is a pure function
/// of (cca, mtu, seeds), like the real simulator but instant.
fn fake_cell(cca: CcaKind, mtu: u32, seeds: &[u64]) -> Cell {
    let xs: Vec<f64> = seeds
        .iter()
        .map(|&s| (s as f64).sqrt() + mtu as f64 / 1500.0 + cca.name().len() as f64 * 0.37)
        .collect();
    Cell {
        cca: cca.name().to_string(),
        mtu,
        energy_j: Summary::of(&xs),
        power_w: Summary::of(&xs),
        fct_s: Summary::of(&xs),
        retx: Summary::of(&xs),
        goodput_gbps: Summary::of(&xs),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("greenenvy-resume-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json(m: &Matrix) -> String {
    serde_json::to_string_pretty(m).unwrap()
}

/// The golden reference: the campaign run start to finish, no journal.
fn uninterrupted() -> Matrix {
    run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 3,
            ..Default::default()
        },
        |cca, mtu, _b, seeds| Ok(fake_cell(cca, mtu, seeds)),
    )
    .unwrap()
    .matrix
}

#[test]
fn killed_campaign_resumes_to_a_bit_identical_matrix() {
    let dir = scratch("kill");
    let journal_dir = dir.join("campaign.journal");

    // Life 1 runs to the end on two shards; a kill after 12 cells is
    // then emulated the way it lands: each shard keeps its header and
    // the records fsynced before it (a torn last line is the
    // corruption tests' business below).
    let first = run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 2,
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        },
        |cca, mtu, _b, seeds| Ok(fake_cell(cca, mtu, seeds)),
    )
    .unwrap();
    assert_eq!(first.executed, TOTAL);
    let kept: usize = (0..2)
        .map(|shard| {
            let path = journal::shard_path(&journal_dir, shard);
            let body = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = body.lines().take(1 + 6).collect();
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            lines.len() - 1
        })
        .sum();
    assert_eq!(kept, 12, "the kill must interrupt the campaign");

    // Life 2: --resume. Only the un-journaled cells execute, and the
    // merged matrix is byte-identical to the uninterrupted golden run.
    let resumed_calls = AtomicUsize::new(0);
    let second = run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 4,
            journal_dir: Some(journal_dir.clone()),
            resume: true,
            ..Default::default()
        },
        |cca, mtu, _b, seeds| {
            resumed_calls.fetch_add(1, Ordering::SeqCst);
            Ok(fake_cell(cca, mtu, seeds))
        },
    )
    .unwrap();
    assert_eq!(second.reused, kept, "every journaled cell is reused");
    assert_eq!(second.executed, TOTAL - kept);
    assert_eq!(resumed_calls.load(Ordering::SeqCst), second.executed);
    assert_eq!(
        json(&second.matrix),
        json(&uninterrupted()),
        "bit-identical merge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the full campaign once, journaled on one worker so shard 0 holds
/// all 40 records, and return the journal directory and that shard.
fn journaled_run(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let journal_dir = dir.join("campaign.journal");
    let report = run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 1,
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        },
        |cca, mtu, _b, seeds| Ok(fake_cell(cca, mtu, seeds)),
    )
    .unwrap();
    assert_eq!(report.executed, TOTAL);
    let shard = journal::shard_path(&journal_dir, 0);
    (journal_dir, shard)
}

/// Resume against the (possibly damaged) journal, counting how many
/// cells actually re-execute, and assert the final matrix still matches
/// the golden run bit for bit.
fn resume_and_count(journal_dir: &Path) -> usize {
    let calls = AtomicUsize::new(0);
    let report = run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 2,
            journal_dir: Some(journal_dir.to_path_buf()),
            resume: true,
            ..Default::default()
        },
        |cca, mtu, _b, seeds| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(fake_cell(cca, mtu, seeds))
        },
    )
    .unwrap();
    assert_eq!(json(&report.matrix), json(&uninterrupted()));
    assert_eq!(report.executed, calls.load(Ordering::SeqCst));
    report.executed
}

#[test]
fn truncated_final_line_re_runs_exactly_one_cell() {
    let dir = scratch("torn");
    let (journal_dir, journal_path) = journaled_run(&dir);
    // Tear the last record in half, as a crash mid-append would.
    let body = std::fs::read_to_string(&journal_path).unwrap();
    std::fs::write(&journal_path, &body[..body.len() - 40]).unwrap();
    assert_eq!(resume_and_count(&journal_dir), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_record_hash_re_runs_exactly_that_cell() {
    let dir = scratch("hash");
    let (journal_dir, journal_path) = journaled_run(&dir);
    // Flip one digit inside a mid-journal record's payload. The line
    // stays valid JSON; only the content hash can catch it.
    let body = std::fs::read_to_string(&journal_path).unwrap();
    let mut lines: Vec<String> = body.lines().map(String::from).collect();
    assert!(lines.len() > 20);
    let target = &lines[20];
    let corrupted = if target.contains("1500") {
        target.replacen("1500", "1501", 1)
    } else {
        target.replacen("mtu", "mtU", 1)
    };
    assert_ne!(&corrupted, target);
    lines[20] = corrupted;
    std::fs::write(&journal_path, lines.join("\n") + "\n").unwrap();
    assert_eq!(resume_and_count(&journal_dir), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_fingerprint_re_runs_everything() {
    let dir = scratch("fingerprint");
    let (journal_dir, journal_path) = journaled_run(&dir);
    // A journal from a different campaign configuration: rewrite the
    // header with another scale's fingerprint. Every record now belongs
    // to a run whose results are not comparable.
    let other = Fingerprint::of(&Scale::standard());
    let body = std::fs::read_to_string(&journal_path).unwrap();
    let mut lines: Vec<&str> = body.lines().collect();
    let forged = format!(
        "{{\"journal\":\"greenenvy-campaign\",\"schema\":1,\"fingerprint\":\"{}\"}}",
        other.hex()
    );
    lines[0] = &forged;
    std::fs::write(&journal_path, lines.join("\n") + "\n").unwrap();
    // Sanity: the loader now reports the whole journal stale.
    let loaded = journal::load(&journal_path, &Fingerprint::of(&Scale::quick())).unwrap();
    assert!(loaded.stale);
    assert_eq!(resume_and_count(&journal_dir), TOTAL);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_and_invariant_failures_carry_typed_errors_through_the_matrix() {
    // A cell runner that reports each durability-layer error type; the
    // campaign must record them (post-retry) in the partial matrix with
    // the typed messages intact.
    let report = run_campaign_with_runner(
        Scale::quick(),
        CampaignOptions {
            threads: 2,
            ..Default::default()
        },
        |cca, mtu, _b, seeds| match (cca, mtu) {
            (CcaKind::Cubic, 1500) => Err(CellError::DeadlineExceeded {
                cca,
                mtu,
                seed: seeds[0],
                budget: std::time::Duration::from_secs(5),
            }),
            (CcaKind::Reno, 9000) => Err(CellError::InvariantViolation {
                cca,
                mtu,
                seed: seeds[0],
                detail: "invariant violated: frame conservation at quiescence".into(),
            }),
            _ => Ok(fake_cell(cca, mtu, seeds)),
        },
    )
    .unwrap();
    assert_eq!(report.matrix.failed.len(), 2);
    assert_eq!(report.matrix.cells.len(), TOTAL - 2);
    let deadline = report
        .matrix
        .failed
        .iter()
        .find(|f| f.cca == "cubic" && f.mtu == 1500)
        .unwrap();
    assert!(deadline.error.contains("deadline"), "{}", deadline.error);
    let invariant = report
        .matrix
        .failed
        .iter()
        .find(|f| f.cca == "reno" && f.mtu == 9000)
        .unwrap();
    assert!(
        invariant.error.contains("conservation"),
        "{}",
        invariant.error
    );
}

#[test]
fn every_mtu_appears_in_the_golden_matrix_order() {
    // The resume merge sorts by canonical job index; make sure that
    // order is the documented one (MTUS within CCA order) so downstream
    // figure projections keep their layout.
    let m = uninterrupted();
    assert_eq!(m.cells.len(), TOTAL);
    for (i, cell) in m.cells.iter().enumerate() {
        let cca = CcaKind::ALL[i / MTUS.len()];
        let mtu = MTUS[i % MTUS.len()];
        assert_eq!(cell.cca, cca.name());
        assert_eq!(cell.mtu, mtu);
    }
}
