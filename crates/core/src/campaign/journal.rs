//! The append-only per-cell checkpoint journal.
//!
//! **Layout** ([`create_sharded`] / [`load_sharded`]): a directory
//! holding one JSONL file per worker (`shard-000.jsonl`,
//! `shard-001.jsonl`, …; a one-worker campaign has one shard) plus
//! `quarantine.jsonl` for poison cells. Each worker owns its shard
//! exclusively, so appends never contend on a lock or serialize their
//! fsyncs behind another worker's — the write path scales with the pool
//! instead of bottlenecking on one file.
//!
//! **File format** ([`Writer`] / [`load`]): line 1 is a header carrying
//! a *fingerprint* — a hash over everything that determines cell
//! results: code revision, matrix schema, transfer size, repetition
//! count, the exact seed schedule, the CCA × MTU job list, and the retry
//! policy (whose human-readable spec the header also records, so resume
//! provably replays the same schedule). Every following line is one
//! completed (or terminally failed) cell, stored as an escaped JSON
//! string plus a content hash over `fingerprint + record bytes`. Every
//! shard carries the full header discipline independently, which
//! shrinks the failure domain: a stale or garbled shard invalidates
//! *its* records, not the campaign.
//!
//! The paranoia is deliberate and layered:
//! * a **fingerprint mismatch** (code changed, scale changed, seeds
//!   changed, retry policy changed) invalidates that file — stale cells
//!   are never merged into a fresh campaign;
//! * a **bad content hash** invalidates just that record — bit rot or a
//!   partial overwrite costs one cell, not the run;
//! * a **torn final line** (the classic crash-mid-append) fails to
//!   parse and is dropped and counted like any other bad record —
//!   exactly the record the crash interrupted;
//! * records are **fsynced one by one**, so a journal never claims a
//!   cell the disk doesn't hold.
//!
//! Loading therefore returns only records that are provably from this
//! exact campaign configuration; everything else is re-run.

use super::supervisor::{QuarantineRecord, RetryPolicy};
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

/// Journal line-format version. v2 added the retry-policy header field,
/// per-shard headers, cumulative attempt counters on failure records,
/// and quarantine records.
const JOURNAL_SCHEMA: u32 = 2;

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

/// The campaign configuration fingerprint carried by every journal (and
/// shard) header and mixed into every record hash. Covers the retry
/// policy: changing `max_attempts` or the backoff changes which seed
/// trajectories failures explore, so journals from another policy are
/// another campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    hash: String,
    policy: String,
}

impl Fingerprint {
    /// Fingerprint of a campaign at `scale` under the current code and
    /// the default retry policy.
    pub fn of(scale: &Scale) -> Fingerprint {
        Fingerprint::for_policy(scale, &RetryPolicy::default())
    }

    /// Fingerprint of a campaign at `scale` under an explicit policy.
    pub fn for_policy(scale: &Scale, policy: &RetryPolicy) -> Fingerprint {
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
        let policy_spec = policy.spec();
        spec.push_str(&format!(";policy={policy_spec}"));
        Fingerprint {
            hash: format!("{:016x}", fnv64(spec.as_bytes())),
            policy: policy_spec,
        }
    }

    /// The hex digest (what the header stores).
    pub fn hex(&self) -> &str {
        &self.hash
    }

    /// The human-readable retry-policy spec recorded next to the hash.
    pub fn policy_spec(&self) -> &str {
        &self.policy
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
    /// A cell that failed every attempt of a campaign life. Carries the
    /// cumulative attempt counter so a later resume keeps the seed
    /// salting monotone instead of re-exploring spent trajectories.
    Failed(CellFailure),
    /// A quarantined poison cell with its full attempt history.
    Quarantine(QuarantineRecord),
}

impl Entry {
    /// The `(cca, mtu)` cell coordinates this entry describes.
    pub fn key(&self) -> (String, u32) {
        match self {
            Entry::Cell(c) => (c.cca.clone(), c.mtu),
            Entry::Failed(f) => (f.cca.clone(), f.mtu),
            Entry::Quarantine(q) => (q.cca.clone(), q.mtu),
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

/// Load and validate one journal file (a shard or `quarantine.jsonl`).
/// A missing file is an empty (not stale) journal; only I/O errors other
/// than `NotFound` are surfaced.
pub fn load(path: &Path, fingerprint: &Fingerprint) -> Result<Loaded, JournalError> {
    let body = match std::fs::read_to_string(path) {
        Ok(body) => body,
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

/// The per-worker shard file inside a journal directory.
pub fn shard_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("shard-{worker:03}.jsonl"))
}

/// The poison-cell quarantine file inside a journal directory.
pub fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join("quarantine.jsonl")
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
/// failure for the same key, a failure with more cumulative attempts
/// beats one with fewer, and otherwise the later entry wins. First-seen
/// key order is preserved.
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
                let replace = match (old, &entry) {
                    (_, Entry::Cell(_)) => true,
                    (Entry::Cell(_), _) => false,
                    (Entry::Failed(a), Entry::Failed(b)) => b.attempts >= a.attempts,
                    _ => true,
                };
                if replace {
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
        "quarantine" => serde_json::from_str::<QuarantineRecord>(record)
            .ok()
            .map(Entry::Quarantine),
        _ => None,
    }
}

/// An open journal file (a shard or `quarantine.jsonl`) being appended to.
pub struct Writer {
    path: PathBuf,
    file: File,
    fingerprint: Fingerprint,
}

impl Writer {
    /// Create a fresh journal at `path` (atomically replacing whatever
    /// was there) containing the header and the given pre-validated
    /// entries, then open it for appending. Passing the entries through
    /// creation is how resume *compacts*: torn or corrupt lines from the
    /// previous life are not carried forward.
    pub fn create(
        path: &Path,
        fingerprint: &Fingerprint,
        entries: &[Entry],
    ) -> Result<Writer, JournalError> {
        Writer::create_with_shard(path, fingerprint, entries, None)
    }

    fn create_with_shard(
        path: &Path,
        fingerprint: &Fingerprint,
        entries: &[Entry],
        shard: Option<usize>,
    ) -> Result<Writer, JournalError> {
        let header = match shard {
            Some(i) => serde_json::json!({
                "journal": "greenenvy-campaign",
                "schema": JOURNAL_SCHEMA,
                "fingerprint": (fingerprint.hex()),
                "policy": (fingerprint.policy_spec()),
                "shard": i
            }),
            None => serde_json::json!({
                "journal": "greenenvy-campaign",
                "schema": JOURNAL_SCHEMA,
                "fingerprint": (fingerprint.hex()),
                "policy": (fingerprint.policy_spec())
            }),
        };
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
            Entry::Quarantine(q) => ("quarantine", serde_json::to_string(q)),
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

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Create a fresh journal under `dir`: one shard per worker,
/// all previous shard and quarantine files wiped first (so shards from
/// a wider previous pool cannot resurrect stale records on the *next*
/// resume). The compacted survivors `keep` land in shard 0; the other
/// shards start empty. Returns one open writer per worker, in index
/// order.
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
        let ours =
            (name.starts_with("shard-") && name.ends_with(".jsonl")) || name == "quarantine.jsonl";
        if ours {
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
        writers.push(Writer::create_with_shard(
            &shard_path(dir, i),
            fingerprint,
            entries,
            Some(i),
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

    fn stub_failure(cca: CcaKind, mtu: u32, attempts: u32) -> CellFailure {
        CellFailure {
            cca: cca.name().to_string(),
            mtu,
            error: "boom".into(),
            retry_error: "boom again".into(),
            attempts,
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
        let mut w = Writer::create(&path, &fp, &[]).unwrap();
        for c in &cells {
            w.append(&Entry::Cell(c.clone())).unwrap();
        }
        w.append(&Entry::Failed(stub_failure(CcaKind::Bbr, 3000, 2)))
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
            matches!(&loaded.entries[2], Entry::Failed(f) if f.cca == "bbr" && f.attempts == 2)
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
        let mut w = Writer::create(&path, &fp_quick, &[]).unwrap();
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
    fn policy_change_discards_the_journal() {
        // Same scale, different retry policy: the seed trajectories a
        // failure explores differ, so the journal must read as stale.
        let dir = scratch("policy");
        let path = dir.join("j.jsonl");
        let fp_default = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp_default, &[]).unwrap();
        w.append(&Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0)))
            .unwrap();
        let fp_patient = Fingerprint::for_policy(
            &Scale::quick(),
            &RetryPolicy {
                max_attempts: 5,
                backoff_base: 2,
            },
        );
        assert_ne!(fp_default, fp_patient);
        let loaded = load(&path, &fp_patient).unwrap();
        assert!(loaded.stale);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_drops_only_that_record() {
        let dir = scratch("torn");
        let path = dir.join("j.jsonl");
        let fp = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp, &[]).unwrap();
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
        let mut w = Writer::create(&path, &fp, &[]).unwrap();
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
        let mut w = Writer::create(&path, &fp, std::slice::from_ref(&kept)).unwrap();
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
            .append(&Entry::Failed(stub_failure(CcaKind::Bbr, 9000, 2)))
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
    fn dedupe_prefers_cells_then_higher_attempt_counts() {
        let cell = Entry::Cell(stub_cell(CcaKind::Cubic, 1500, 1.0));
        let f2 = Entry::Failed(stub_failure(CcaKind::Cubic, 1500, 2));
        let f5 = Entry::Failed(stub_failure(CcaKind::Cubic, 1500, 5));
        let other = Entry::Cell(stub_cell(CcaKind::Reno, 3000, 2.0));
        // A cell beats any failure, regardless of order.
        let out = dedupe(vec![f5.clone(), cell.clone(), f2.clone()]);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Entry::Cell(_)));
        // Among failures the higher cumulative attempt count survives.
        let out = dedupe(vec![f5.clone(), f2.clone(), other.clone()]);
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Entry::Failed(f) if f.attempts == 5));
        // First-seen key order is preserved.
        assert!(matches!(&out[1], Entry::Cell(c) if c.cca == "reno"));
        let _ = (cell, f2, f5, other);
    }

    #[test]
    fn quarantine_records_roundtrip() {
        use super::super::supervisor::AttemptRecord;
        let dir = scratch("quarantine");
        let path = quarantine_path(&dir);
        let fp = Fingerprint::of(&Scale::quick());
        let mut w = Writer::create(&path, &fp, &[]).unwrap();
        let rec = QuarantineRecord {
            cca: "cubic".into(),
            mtu: 1500,
            attempts: vec![
                AttemptRecord {
                    attempt: 1,
                    class: "panic".into(),
                    error: "poison".into(),
                },
                AttemptRecord {
                    attempt: 2,
                    class: "panic".into(),
                    error: "poison again".into(),
                },
            ],
        };
        w.append(&Entry::Quarantine(rec.clone())).unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert_eq!(loaded.entries.len(), 1);
        let Entry::Quarantine(q) = &loaded.entries[0] else {
            panic!("expected quarantine entry");
        };
        assert_eq!(q.cca, "cubic");
        assert_eq!(q.mtu, 1500);
        assert_eq!(q.attempts.len(), 2);
        assert_eq!(q.attempts[1].error, "poison again");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
