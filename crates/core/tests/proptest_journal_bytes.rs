//! Property test: no byte string on disk can make journal loading panic,
//! abort, or hand back a record nobody wrote.
//!
//! The resume tests corrupt journals the way crashes and bit rot do
//! (torn tails, flipped digits, stale headers). Here the bytes are
//! arbitrary: random garbage, JSON-shaped garbage, and single-byte flips,
//! insertions and truncations of a valid three-record shard, each read
//! through both `journal::load` and `journal::load_sharded`. Every
//! outcome must be `Ok` — stale, or with records dropped — and every
//! entry returned must be one of the three that were written.

use analysis::stats::Summary;
use cca::CcaKind;
use greenenvy::campaign::journal::{self, Entry};
use greenenvy::campaign::Fingerprint;
use greenenvy::matrix::{Cell, CellFailure};
use greenenvy::Scale;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cell(cca: CcaKind, mtu: u32, mean: f64) -> Cell {
    let xs = [mean, mean * 1.5];
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

/// The three records of the valid shard: two cells and a failure.
fn written() -> Vec<Entry> {
    vec![
        Entry::Cell(cell(CcaKind::Cubic, 1500, 0.1)),
        Entry::Failed(CellFailure {
            cca: "bbr".into(),
            mtu: 3000,
            error: "bbr @ mtu 3000 seed 1000: flow aborted".into(),
        }),
        Entry::Cell(cell(CcaKind::Reno, 9000, std::f64::consts::PI)),
    ]
}

/// An entry as text, so returned entries compare with written ones.
fn text(entry: &Entry) -> String {
    match entry {
        Entry::Cell(c) => format!("cell {}", serde_json::to_string(c).unwrap()),
        Entry::Failed(f) => format!("failed {}", serde_json::to_string(f).unwrap()),
    }
}

fn scratch() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "greenenvy-journal-bytes-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bytes of a valid one-shard journal holding [`written`].
fn valid_shard() -> Vec<u8> {
    let dir = scratch();
    let fp = Fingerprint::of(&Scale::quick());
    drop(journal::create_sharded(&dir, &fp, &written(), 1).unwrap());
    let bytes = std::fs::read(journal::shard_path(&dir, 0)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Write `bytes` as shard 0 and load it both ways. Both must succeed,
/// agree, and return only written entries; returns how many came back.
fn load_both(bytes: &[u8]) -> usize {
    let dir = scratch();
    let path = journal::shard_path(&dir, 0);
    std::fs::write(&path, bytes).unwrap();
    let fp = Fingerprint::of(&Scale::quick());
    let one = journal::load(&path, &fp).expect("load is Ok on any bytes");
    let all = journal::load_sharded(&dir, &fp).expect("load_sharded is Ok on any bytes");
    let _ = std::fs::remove_dir_all(&dir);

    let written: Vec<String> = written().iter().map(text).collect();
    for entry in one.entries.iter().chain(&all.entries) {
        assert!(
            written.contains(&text(entry)),
            "returned an entry nobody wrote: {}",
            text(entry)
        );
    }
    assert_eq!(all.shards, 1);
    assert_eq!(all.stale_shards, usize::from(one.stale));
    if one.stale {
        assert!(one.entries.is_empty() && all.entries.is_empty());
    } else {
        assert_eq!(all.dropped, one.dropped);
    }
    one.entries.len()
}

/// `(start, end)` of each line of `bytes`, the newline at `end` excluded.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    spans
}

/// One edit of a valid shard. Positions are taken modulo its length.
#[derive(Clone, Debug)]
enum Edit {
    /// XOR one byte with a non-zero mask.
    Flip(usize, u8),
    /// Insert one byte before a position.
    Insert(usize, u8),
    /// Keep only a prefix.
    Truncate(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..4096, 1u8..=255).prop_map(|(i, m)| Edit::Flip(i, m)),
        (0usize..4096, 0u8..=255).prop_map(|(i, b)| Edit::Insert(i, b)),
        (0usize..4096).prop_map(Edit::Truncate),
    ]
}

/// Apply `edit` to the valid shard, returning the edited bytes and the
/// records that must survive it: exactly the whole records before the
/// cut for a truncation; for a flip or insertion every record whose line
/// and both delimiting newlines it leaves alone, unless it hit the header.
fn apply(valid: &[u8], edit: &Edit) -> (Vec<u8>, std::ops::RangeInclusive<usize>) {
    let (n, mut bytes) = (valid.len(), valid.to_vec());
    let spans = line_spans(valid);
    let header_end = spans[0].1;
    let records = &spans[1..];
    let at = match *edit {
        Edit::Flip(i, mask) => {
            bytes[i % n] ^= mask;
            i % n
        }
        Edit::Insert(i, b) => {
            bytes.insert(i % (n + 1), b);
            i % (n + 1)
        }
        Edit::Truncate(i) => {
            let cut = i % (n + 1);
            bytes.truncate(cut);
            let whole = if cut < header_end {
                0
            } else {
                records.iter().filter(|&&(_, end)| end <= cut).count()
            };
            return (bytes, whole..=whole);
        }
    };
    let untouched = if at <= header_end {
        0
    } else {
        records
            .iter()
            .filter(|&&(start, end)| at + 1 < start || at > end)
            .count()
    };
    (bytes, untouched..=records.len())
}

/// Bytes drawn from the characters a journal line is made of, so random
/// input reaches the JSON parser's deeper paths, not only its first byte.
fn arb_json_ish() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"[]{}\",:\\ \n0123456789.-+eEabcdfjlnrstuxy\x00\xff";
    proptest::collection::vec(0usize..ALPHABET.len(), 0..400)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

#[test]
fn the_valid_shard_loads_every_record() {
    assert_eq!(load_both(&valid_shard()), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_load_without_panicking(bytes in proptest::collection::vec(0u8..=255, 0..600)) {
        prop_assert!(load_both(&bytes) == 0, "random bytes produced a record");
    }

    #[test]
    fn json_shaped_bytes_load_without_panicking(bytes in arb_json_ish()) {
        prop_assert!(load_both(&bytes) == 0, "random JSON-ish bytes produced a record");
    }

    #[test]
    fn one_edit_of_a_valid_shard_costs_at_most_the_records_it_touches(edit in arb_edit()) {
        let (edited, expected) = apply(&valid_shard(), &edit);
        let survivors = load_both(&edited);
        prop_assert!(expected.contains(&survivors), "{edit:?}: {survivors} survivors, want {expected:?}");
    }
}
