//! Property test: sharded-journal resume survives ANY per-shard
//! corruption combination with a byte-identical merged matrix.
//!
//! The one-shard integration tests pin three corruption modes
//! (torn final line, flipped bit, stale fingerprint) one at a time.
//! Sharding multiplies the failure surface — each shard can be torn,
//! rotted, stale, truncated, or intact *independently* — so here the
//! corruption assignment is randomized across shards and the invariant
//! is checked wholesale: whatever survives validation is reused,
//! everything else re-runs, and the merged matrix is byte-identical to
//! an uninterrupted campaign. The expected reuse count is not guessed:
//! it is recomputed by loading the corrupted shards through the same
//! validation the campaign uses.

use analysis::stats::Summary;
use cca::CcaKind;
use greenenvy::campaign::{journal, run_campaign_with_runner, CampaignOptions, Fingerprint};
use greenenvy::matrix::{Cell, Matrix};
use greenenvy::Scale;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TOTAL: usize = 40; // 10 CCAs × 4 MTUs
const SHARDS: usize = 3;

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

fn scratch() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "greenenvy-shard-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json(m: &Matrix) -> String {
    serde_json::to_string_pretty(m).unwrap()
}

/// One shard's fate. The numeric payloads pick *which* record suffers,
/// modulo however many the shard actually holds.
#[derive(Clone, Debug)]
enum Corruption {
    /// Leave the shard alone.
    Intact,
    /// Chop bytes off the end — the classic crash-mid-append signature.
    TornFinal,
    /// Flip a digit inside one record's payload (valid JSON, bad hash).
    BitFlip(usize),
    /// Garble the header: the whole shard reads as foreign.
    StaleHeader,
    /// Keep only a prefix of the records (e.g. an interrupted copy).
    Truncate(usize),
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::Intact),
        Just(Corruption::TornFinal),
        (0usize..64).prop_map(Corruption::BitFlip),
        Just(Corruption::StaleHeader),
        (0usize..64).prop_map(Corruption::Truncate),
    ]
}

fn apply(path: &Path, corruption: &Corruption) {
    let body = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    let records = lines.len().saturating_sub(1);
    let mutated = match corruption {
        Corruption::Intact => return,
        Corruption::TornFinal => {
            let cut = body.len().saturating_sub(15);
            body[..cut].to_string()
        }
        Corruption::BitFlip(which) => {
            if records == 0 {
                return;
            }
            let victim = 1 + which % records;
            let mut out = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                if i == victim {
                    // Flip the first digit we find; the content hash
                    // must catch it even though the line stays JSON.
                    let flipped: String = {
                        let mut done = false;
                        line.chars()
                            .map(|c| {
                                if !done && c.is_ascii_digit() {
                                    done = true;
                                    if c == '9' {
                                        '0'
                                    } else {
                                        char::from(c as u8 + 1)
                                    }
                                } else {
                                    c
                                }
                            })
                            .collect()
                    };
                    out.push(flipped);
                } else {
                    out.push((*line).to_string());
                }
            }
            format!("{}\n", out.join("\n"))
        }
        Corruption::StaleHeader => body.replacen("greenenvy-campaign", "foreign-journal", 1),
        Corruption::Truncate(keep) => {
            if records == 0 {
                return;
            }
            let keep = keep % (records + 1);
            format!("{}\n", lines[..=keep].join("\n"))
        }
    };
    std::fs::write(path, mutated).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Complete a sharded campaign, corrupt each shard independently,
    /// resume: exactly the validated survivors are reused and the
    /// merged matrix is byte-identical to the uninterrupted one.
    #[test]
    fn any_shard_corruption_combination_resumes_byte_identically(
        corruptions in proptest::collection::vec(arb_corruption(), SHARDS),
    ) {
        let dir = scratch();
        let run = |resume: bool, threads: usize| {
            run_campaign_with_runner(
                Scale::quick(),
                CampaignOptions {
                    threads,
                    journal_dir: Some(dir.clone()),
                    resume,
                    ..Default::default()
                },
                |cca, mtu, _b, seeds| Ok(fake_cell(cca, mtu, seeds)),
            )
            .unwrap()
        };

        // Life 1: run to completion across SHARDS workers.
        let golden = run(false, SHARDS);
        prop_assert_eq!(golden.matrix.cells.len(), TOTAL);

        // Disaster strikes each shard independently.
        for (i, c) in corruptions.iter().enumerate() {
            apply(&journal::shard_path(&dir, i), c);
        }

        // What the validation layer can still vouch for — computed via
        // the same loader the campaign will use, not guessed from the
        // corruption list.
        let fp = Fingerprint::of(&Scale::quick());
        let survivors = journal::load_sharded(&dir, &fp).unwrap();
        let intact_cells = survivors
            .entries
            .iter()
            .filter(|e| matches!(e, journal::Entry::Cell(_)))
            .count();

        // Life 2: resume on a different pool width.
        let resumed = run(true, 2);
        prop_assert_eq!(resumed.reused, intact_cells);
        prop_assert_eq!(resumed.executed, TOTAL - intact_cells);
        prop_assert_eq!(json(&resumed.matrix), json(&golden.matrix));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
