//! The append-only per-cell checkpoint journal.
//!
//! **Layout** ([`create_sharded`] / [`load_sharded`]): a directory
//! holding one JSONL file per campaign thread (`shard-000.jsonl`,
//! `shard-001.jsonl`, …; a one-thread campaign has one shard). The cell
//! at pending position `slot` is appended to shard `slot % shards`, so
//! concurrent appends mostly land on different files and do not
//! serialize their fsyncs behind one — the write path scales with the
//! pool instead of bottlenecking on one file. Two appends to one shard
//! take turns on its lock.
//!
//! **File format** ([`Writer`] / [`load`]): line 1 is a header carrying
//! a *fingerprint* — a hash over everything that determines cell
//! results: code revision, matrix schema, transfer size, repetition
//! count, the exact seed schedule and the CCA × MTU job list. Every
//! following line is one completed or failed cell, stored as an escaped
//! JSON string plus a content hash over `fingerprint + record bytes`. Every
//! shard carries the full header discipline independently, which
//! shrinks the failure domain: a stale or garbled shard invalidates
//! *its* records, not the campaign.
//!
//! The paranoia is deliberate and layered:
//! * a **fingerprint mismatch** (code changed, scale changed, seeds
//!   changed) invalidates that file — stale cells are never merged into
//!   a fresh campaign;
//! * a **bad content hash** or an **unparsable line** (not UTF-8, or
//!   nested deeper than the JSON parser's cap) invalidates just that
//!   record — bit rot or a partial overwrite costs one cell, not the run;
//! * a **torn final line** (the classic crash-mid-append) fails to
//!   parse and is dropped and counted like any other bad record —
//!   exactly the record the crash interrupted;
//! * records are **fsynced one by one**, so a journal never claims a
//!   cell the disk doesn't hold.
//!
//! Loading therefore returns only records that are provably from this
//! exact campaign configuration; everything else is re-run.

use super::supervisor::RetryPolicy;
use crate::matrix::{Cell, CellFailure, MATRIX_SCHEMA_VERSION};
use crate::scale::Scale;
use cca::CcaKind;
use serde::Value;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Bump when the meaning of a cell result changes without the matrix
/// schema moving (e.g. a simulator behaviour fix that shifts numbers):
/// journaled cells from before the bump must not satisfy `--resume`.
pub const JOURNAL_CODE_REV: u32 = 2;

/// Journal line-format version. v2 added per-shard headers; v3 dropped
/// the retry policy from the header and the fingerprint, the attempt
/// counters from failure records, and quarantine records.
const JOURNAL_SCHEMA: u32 = 3;

/// 64-bit FNV-1a. Not cryptographic — the threat model is bit rot, torn
/// writes, and stale files, not an adversary forging cells.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The campaign configuration fingerprint carried by every journal
/// shard header and mixed into every record hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    hash: String,
}

impl Fingerprint {
    /// Fingerprint of a campaign at `scale` under the current code.
    pub fn of(scale: &Scale) -> Fingerprint {
        let mut spec = format!(
            "pkg={};schema={};rev={};bytes={};reps={};seeds=",
            env!("CARGO_PKG_VERSION"),
            MATRIX_SCHEMA_VERSION,
            JOURNAL_CODE_REV,
            scale.transfer_bytes,
            scale.repetitions,
        );
        for s in scale.seeds() {
            spec.push_str(&format!("{s},"));
        }
        spec.push_str(";jobs=");
        for cca in CcaKind::ALL {
            for mtu in crate::matrix::MTUS {
                spec.push_str(&format!("{}@{mtu},", cca.name()));
            }
        }
        Fingerprint {
            hash: format!("{:016x}", fnv64(spec.as_bytes())),
        }
    }

    /// [`Fingerprint::of`]. Kept only because
    /// `benchmark/src/{probes,workloads}.rs` call it.
    pub fn for_policy(scale: &Scale, _policy: &RetryPolicy) -> Fingerprint {
        Fingerprint::of(scale)
    }

    /// The hex digest (what the header stores).
    pub fn hex(&self) -> &str {
        &self.hash
    }

    fn record_hash(&self, record: &str) -> String {
        format!(
            "{:016x}",
            fnv64(format!("{}\n{record}", self.hash).as_bytes())
        )
    }
}

/// One validated journal entry.
#[derive(Clone, Debug)]
pub enum Entry {
    /// A completed cell.
    Cell(Cell),
    /// A cell whose one attempt of a campaign life failed. A resume
    /// re-runs it on the same seeds.
    Failed(CellFailure),
}

impl Entry {
    /// The `(cca, mtu)` cell coordinates this entry describes.
    pub fn key(&self) -> (String, u32) {
        match self {
            Entry::Cell(c) => (c.cca.clone(), c.mtu),
            Entry::Failed(f) => (f.cca.clone(), f.mtu),
        }
    }
}

/// What loading one journal file produced.
#[derive(Debug, Default)]
pub struct Loaded {
    /// Validated entries, in journal (completion) order.
    pub entries: Vec<Entry>,
    /// Records dropped for corruption: unparsable line (a torn final
    /// line included), bad hash, or a payload that no longer
    /// deserializes.
    pub dropped: usize,
    /// True when the whole journal was discarded: missing/garbled header
    /// or a fingerprint from a different campaign configuration.
    pub stale: bool,
}

/// What loading a journal directory produced. Validation is
/// per shard: one stale or torn shard costs its own records only.
#[derive(Debug, Default)]
pub struct LoadedShards {
    /// Validated entries merged across shards ([`dedupe`]d, so each cell
    /// key appears at most once), in shard-name-then-line order.
    pub entries: Vec<Entry>,
    /// Corrupt records dropped across all non-stale shards.
    pub dropped: usize,
    /// Shards discarded whole (garbled header / foreign fingerprint).
    pub stale_shards: usize,
    /// Shard files found.
    pub shards: usize,
}

/// A journal I/O failure, annotated with the journal path.
#[derive(Debug)]
pub struct JournalError {
    /// The journal file involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Load and validate one journal shard. A missing file is an empty (not
/// stale) journal; only I/O errors other than `NotFound` are surfaced.
/// Bytes that are not UTF-8 cost the line they sit on, like any other
/// corruption.
pub fn load(path: &Path, fingerprint: &Fingerprint) -> Result<Loaded, JournalError> {
    let body = match std::fs::read(path) {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Loaded::default()),
        Err(source) => {
            return Err(JournalError {
                path: path.to_path_buf(),
                source,
            })
        }
    };
    let mut lines = body.split('\n');
    let header = lines.next().unwrap_or("");
    let mut out = Loaded::default();
    let header_ok = serde_json::from_str::<Value>(header)
        .ok()
        .map(|h| {
            h["journal"].as_str() == Some("greenenvy-campaign")
                && h["schema"].as_u64() == Some(JOURNAL_SCHEMA as u64)
                && h["fingerprint"].as_str() == Some(fingerprint.hex())
        })
        .unwrap_or(false);
    if !header_ok {
        out.stale = true;
        return Ok(out);
    }
    for line in lines.filter(|line| !line.is_empty()) {
        match parse_record(line, fingerprint) {
            Some(entry) => out.entries.push(entry),
            // The cell re-runs wherever the bad record sat: a torn final
            // line (the expected crash signature) counts the same as
            // corruption mid-file.
            None => out.dropped += 1,
        }
    }
    Ok(out)
}

/// Shard file `shard` inside a journal directory.
pub fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.jsonl"))
}

/// Load every `shard-*.jsonl` under `dir`, validating each shard
/// independently, and merge the survivors. A missing directory is an
/// empty journal. Merge order is deterministic — shards sorted by file
/// name, lines in append order — and duplicate cell keys across shards
/// collapse via [`dedupe`].
pub fn load_sharded(dir: &Path, fingerprint: &Fingerprint) -> Result<LoadedShards, JournalError> {
    let mut files: Vec<PathBuf> = Vec::new();
    match fs::read_dir(dir) {
        Ok(iter) => {
            for entry in iter.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("shard-") && name.ends_with(".jsonl") {
                    files.push(entry.path());
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadedShards::default()),
        Err(source) => {
            return Err(JournalError {
                path: dir.to_path_buf(),
                source,
            })
        }
    }
    files.sort();
    let mut out = LoadedShards {
        shards: files.len(),
        ..Default::default()
    };
    let mut all = Vec::new();
    for file in &files {
        let loaded = load(file, fingerprint)?;
        if loaded.stale {
            out.stale_shards += 1;
        } else {
            all.extend(loaded.entries);
            out.dropped += loaded.dropped;
        }
    }
    out.entries = dedupe(all);
    Ok(out)
}

/// Collapse duplicate cell keys from a merged entry stream into one
/// entry each, deterministically: a completed cell always beats a
/// failure for the same key, and otherwise the later entry wins.
/// First-seen key order is preserved.
pub fn dedupe(entries: Vec<Entry>) -> Vec<Entry> {
    let mut order: Vec<(String, u32)> = Vec::new();
    let mut best: BTreeMap<(String, u32), Entry> = BTreeMap::new();
    for entry in entries {
        let key = entry.key();
        match best.get(&key) {
            None => {
                order.push(key.clone());
                best.insert(key, entry);
            }
            Some(old) => {
                if matches!(entry, Entry::Cell(_)) || matches!(old, Entry::Failed(_)) {
                    best.insert(key, entry);
                }
            }
        }
    }
    order.into_iter().filter_map(|k| best.remove(&k)).collect()
}

fn parse_record(line: &str, fingerprint: &Fingerprint) -> Option<Entry> {
    let v: Value = serde_json::from_str(line).ok()?;
    let kind = v["kind"].as_str()?;
    let hash = v["hash"].as_str()?;
    let record = v["record"].as_str()?;
    if fingerprint.record_hash(record) != hash {
        return None;
    }
    match kind {
        "cell" => serde_json::from_str::<Cell>(record).ok().map(Entry::Cell),
        "failed" => serde_json::from_str::<CellFailure>(record)
            .ok()
            .map(Entry::Failed),
        _ => None,
    }
}

/// An open journal shard being appended to.
pub struct Writer {
    path: PathBuf,
    file: File,
    fingerprint: Fingerprint,
}

impl Writer {
    /// Create shard `shard` at `path` (atomically replacing whatever was
    /// there) containing the header and the given pre-validated entries,
    /// then open it for appending. Passing the entries through creation
    /// is how resume *compacts*: torn or corrupt lines from the previous
    /// life are not carried forward.
    fn create(
        path: &Path,
        fingerprint: &Fingerprint,
        entries: &[Entry],
        shard: usize,
    ) -> Result<Writer, JournalError> {
        let header = serde_json::json!({
            "journal": "greenenvy-campaign",
            "schema": JOURNAL_SCHEMA,
            "fingerprint": (fingerprint.hex()),
            "shard": shard
        });
        let mut body = format!(
            "{}\n",
            serde_json::to_string(&header).expect("journal header serializes")
        );
        for e in entries {
            body.push_str(&Writer::render(e, fingerprint));
        }
        super::persist::write_atomic(path, body.as_bytes()).map_err(|e| JournalError {
            path: e.path,
            source: e.source,
        })?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|source| JournalError {
                path: path.to_path_buf(),
                source,
            })?;
        Ok(Writer {
            path: path.to_path_buf(),
            file,
            fingerprint: fingerprint.clone(),
        })
    }

    fn render(entry: &Entry, fingerprint: &Fingerprint) -> String {
        let (kind, record) = match entry {
            Entry::Cell(c) => ("cell", serde_json::to_string(c)),
            Entry::Failed(f) => ("failed", serde_json::to_string(f)),
        };
        let record = record.expect("journal records serialize");
        let hash = fingerprint.record_hash(&record);
        let line = serde_json::json!({"kind": kind, "hash": hash, "record": record});
        format!(
            "{}\n",
            serde_json::to_string(&line).expect("journal line serializes")
        )
    }

    /// Append one entry and fsync it to disk before returning: once this
    /// returns, a crash cannot un-complete the cell.
    pub fn append(&mut self, entry: &Entry) -> Result<(), JournalError> {
        let line = Writer::render(entry, &self.fingerprint);
        let at = |source| JournalError {
            path: self.path.clone(),
            source,
        };
        self.file.write_all(line.as_bytes()).map_err(at)?;
        self.file.sync_data().map_err(at)
    }
}

/// Create a fresh journal under `dir`: `shards` shard files, all
/// previous shard files wiped first (so shards from a wider previous
/// pool cannot resurrect stale records on the *next* resume). The
/// compacted survivors `keep` land in shard 0; the other shards start
/// empty. Returns one open writer per shard, in index order.
pub fn create_sharded(
    dir: &Path,
    fingerprint: &Fingerprint,
    keep: &[Entry],
    shards: usize,
) -> Result<Vec<Writer>, JournalError> {
    let at = |source| JournalError {
        path: dir.to_path_buf(),
        source,
    };
    fs::create_dir_all(dir).map_err(at)?;
    for entry in fs::read_dir(dir).map_err(at)?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.ends_with(".jsonl") {
            fs::remove_file(entry.path()).map_err(|source| JournalError {
                path: entry.path(),
                source,
            })?;
        }
    }
    let shards = shards.max(1);
    let mut writers = Vec::with_capacity(shards);
    for i in 0..shards {
        let entries: &[Entry] = if i == 0 { keep } else { &[] };
        writers.push(Writer::create(
            &shard_path(dir, i),
            fingerprint,
            entries,
            i,
        )?);
    }
    Ok(writers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::stats::Summary;

    fn stub_cell(cca: CcaKind, mtu: u32, mean: f64) -> Cell {
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

    fn stub_failure(cca: CcaKind, mtu: u32, error: &str) -> CellFailure {
        CellFailure {
            cca: cca.name().to_string(),
            mtu,
            error: error.into(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("greenenvy-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_cells_bit_exactly() {
        let dir = scratch("roundtrip");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let cells = [
            stub_cell(CcaKind::Cubic, 1500, 0.1),
            stub_cell(CcaKind::Reno, 9000, std::f64::consts::PI),
        ];
        let mut w = Writer::create(&path, &fp, &[], 0).unwrap();
        for c in &cells {
            w.append(&Entry::Cell(c.clone())).unwrap();
        }
        w.append(&Entry::Failed(stub_failure(CcaKind::Bbr, 3000, "boom")))
            .unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert!(!loaded.stale);
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.entries.len(), 3);
        for (entry, original) in loaded.entries.iter().zip(&cells) {
            let Entry::Cell(c) = entry else {
                panic!("expected cell")
            };
            // Bit-exact floats: serialization is shortest-roundtrip.
            assert_eq!(
                serde_json::to_string(c).unwrap(),
                serde_json::to_string(original).unwrap()
            );
        }
        assert!(
            matches!(&loaded.entries[2], Entry::Failed(f) if f.cca == "bbr" && f.error == "boom")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty_not_stale() {
        let fp = Fingerprint::of(&Scale::quick());
        let loaded = load(Path::new("/nonexistent/journal.jsonl"), &fp).unwrap();
        assert!(!loaded.stale);
        assert!(loaded.entries.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_discards_everything() {
        let dir = scratch("stale");
        let path = dir.join("j.jsonl");
        let fp_quick = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp_quick, &[], 0).unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        // Same journal read under a different campaign configuration.
        let fp_std = Fingerprint::of(&Scale::standard());
        assert_ne!(fp_quick, fp_std);
        let loaded = load(&path, &fp_std).unwrap();
        assert!(loaded.stale);
        assert!(loaded.entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_drops_only_that_record() {
        let dir = scratch("torn");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp, &[], 0).unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0)))
            .unwrap();
        drop(w);
        // Simulate a crash mid-append: chop the last record in half.
        let body = std::fs::read_to_string(&path).unwrap();
        let cut = body.len() - 25;
        std::fs::write(&path, &body[..cut]).unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert!(!loaded.stale);
        assert_eq!(loaded.entries.len(), 1, "first record survives");
        assert_eq!(loaded.dropped, 1, "torn record is dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_invalidates_one_record() {
        let dir = scratch("bitrot");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp, &[], 0).unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0)))
            .unwrap();
        drop(w);
        // Corrupt a digit inside the *first* record's payload (keeps the
        // line valid JSON; the content hash must catch it).
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        let corrupted = lines[1].replacen("1500", "1501", 1);
        let body = format!("{}\n{}\n{}\n", lines[0], corrupted, lines[2]);
        std::fs::write(&path, body).unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert!(!loaded.stale);
        assert_eq!(loaded.dropped, 1);
        assert_eq!(loaded.entries.len(), 1);
        let Entry::Cell(c) = &loaded.entries[0] else {
            panic!()
        };
        assert_eq!(c.mtu, 3000, "the untouched record survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_compacts_and_reopens_for_append() {
        let dir = scratch("compact");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let kept = Entry::Cell(stub_cell(CcaKind::Vegas, 6000, 4.0));
        let mut w = Writer::create(&path, &fp, std::slice::from_ref(&kept), 0).unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Bbr, 1500, 5.0)))
            .unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_cover_seeds_not_just_sizes() {
        // Two scales with identical sizes but different seed schedules
        // must not share a fingerprint.
        let a = Scale {
            transfer_bytes: 1,
            two_flow_bytes: 1,
            repetitions: 2,
            name: "a",
        };
        let b = Scale {
            transfer_bytes: 1,
            two_flow_bytes: 1,
            repetitions: 3,
            name: "b",
        };
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&a));
    }

    #[test]
    fn sharded_roundtrip_merges_in_shard_order() {
        let dir = scratch("sharded");
        let fp = Fingerprint::of(&Scale::quick());
        let mut writers = create_sharded(&dir, &fp, &[], 3).unwrap();
        assert_eq!(writers.len(), 3);
        writers[0]
            .append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        writers[2]
            .append(&Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0)))
            .unwrap();
        writers[1]
            .append(&Entry::Failed(stub_failure(CcaKind::Bbr, 9000, "boom")))
            .unwrap();
        let loaded = load_sharded(&dir, &fp).unwrap();
        assert_eq!(loaded.shards, 3);
        assert_eq!(loaded.stale_shards, 0);
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.entries.len(), 3);
        // Merge order: shard 0's record, then shard 1's, then shard 2's.
        assert!(matches!(&loaded.entries[0], Entry::Cell(c) if c.cca == "cubic"));
        assert!(matches!(&loaded.entries[1], Entry::Failed(f) if f.cca == "bbr"));
        assert!(matches!(&loaded.entries[2], Entry::Cell(c) if c.cca == "reno"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_shard_costs_only_its_own_records() {
        let dir = scratch("shard-stale");
        let fp = Fingerprint::of(&Scale::quick());
        let mut writers = create_sharded(&dir, &fp, &[], 2).unwrap();
        writers[0]
            .append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        writers[1]
            .append(&Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0)))
            .unwrap();
        drop(writers);
        // Garble shard 1's header: that shard is from another campaign
        // now, but shard 0 must still be merged.
        let shard1 = shard_path(&dir, 1);
        let body = std::fs::read_to_string(&shard1).unwrap();
        std::fs::write(&shard1, body.replacen("greenenvy-campaign", "foreign", 1)).unwrap();
        let loaded = load_sharded(&dir, &fp).unwrap();
        assert_eq!(loaded.stale_shards, 1);
        assert_eq!(loaded.entries.len(), 1);
        assert!(matches!(&loaded.entries[0], Entry::Cell(c) if c.cca == "cubic"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_sharded_wipes_previous_wider_pools() {
        let dir = scratch("shard-wipe");
        let fp = Fingerprint::of(&Scale::quick());
        let mut writers = create_sharded(&dir, &fp, &[], 4).unwrap();
        for w in writers.iter_mut() {
            w.append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
                .unwrap();
        }
        drop(writers);
        // Recreate with a narrower pool: shard 003 must be gone, not
        // lingering to resurrect stale records on a later resume.
        let _ = create_sharded(&dir, &fp, &[], 2).unwrap();
        assert!(shard_path(&dir, 0).exists());
        assert!(shard_path(&dir, 1).exists());
        assert!(!shard_path(&dir, 2).exists());
        assert!(!shard_path(&dir, 3).exists());
        let loaded = load_sharded(&dir, &fp).unwrap();
        assert_eq!(loaded.shards, 2);
        assert!(loaded.entries.is_empty(), "fresh shards start empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedupe_prefers_cells_then_later_entries() {
        let cell = Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0));
        let first = Entry::Failed(stub_failure(CcaKind::Cubic, 1500, "first"));
        let later = Entry::Failed(stub_failure(CcaKind::Cubic, 1500, "later"));
        let other = Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0));
        // A cell beats any failure, regardless of order.
        let out = dedupe(vec![later.clone(), cell, first.clone()]);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Entry::Cell(_)));
        // Among failures the later entry survives.
        let out = dedupe(vec![first, later, other]);
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Entry::Failed(f) if f.error == "later"));
        // First-seen key order is preserved.
        assert!(matches!(&out[1], Entry::Cell(c) if c.cca == "reno"));
    }

    #[test]
    fn deeply_nested_line_costs_one_record_not_the_process() {
        // The JSON parser recurses once per `[`; an uncapped parser
        // overflows the stack on this line and aborts the process.
        let dir = scratch("nested");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp, &[], 0).unwrap();
        for (cca, mtu) in [
            (CcaKind::Cubic, 1500),
            (CcaKind::Vegas, 6000),
            (CcaKind::Reno, 9000),
        ] {
            w.append(&Entry::Cell(stub_cell(cca, mtu, 1.0))).unwrap();
        }
        drop(w);
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = body.lines().map(String::from).collect();
        lines[2] = "[".repeat(100_000);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert!(!loaded.stale);
        assert_eq!(loaded.dropped, 1);
        let mtus: Vec<u32> = loaded
            .entries
            .iter()
            .map(|e| match e {
                Entry::Cell(c) => c.mtu,
                Entry::Failed(f) => f.mtu,
            })
            .collect();
        assert_eq!(mtus, [1500, 9000], "the records around it survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
