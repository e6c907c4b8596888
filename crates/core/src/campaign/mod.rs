//! Durable, supervised campaign execution.
//!
//! The CCA × MTU measurement campaign behind Figures 5-8 is hours of
//! simulation at paper scale, which makes it exactly the kind of job
//! that dies at 90%: an OOM kill, a preempted node, a Ctrl-C. This
//! module makes the campaign *restartable, supervised, and auditable*
//! without touching what it computes:
//!
//! * [`journal`] — an append-only, fsynced, hash-verified checkpoint
//!   journal; one record per completed or failed cell, in a directory
//!   ([`CampaignOptions::journal_dir`]) of [`CampaignOptions::threads`]
//!   shard files, so appends don't serialize behind a single fsync and a
//!   torn shard invalidates its own records, not the campaign.
//! * resume — [`CampaignOptions::resume`] reuses journaled cells and
//!   re-runs everything else, failed cells included, on the same seeds.
//!   Because cell results are bit-exact through JSON (shortest-roundtrip
//!   floats), a resumed campaign's matrix is byte-identical to an
//!   uninterrupted one. No signal handler is installed: a campaign
//!   stops the way any process stops, and keeps what its journal holds.
//! * [`supervisor`] — the pending cells on the workspace's one parallel
//!   map ([`workload::par`]): one attempt per pending cell per life,
//!   per-cell panic containment, one journal record per outcome, and
//!   graceful degradation to in-memory checkpoints when the journal's
//!   disk gives out mid-run.
//! * [`persist`] — atomic tmp-then-rename artifact writes, so no crash
//!   leaves a half-written result file.
//! * [`invariant`] — opt-in "paranoid mode" physics audits per
//!   repetition; zero cost when off.
//!
//! Every cell runs on the seed schedule the matrix declares
//! ([`Matrix::seeds`]); nothing is re-run on other seeds.
//! [`crate::matrix::run_matrix_with_runner`] is a thin wrapper over
//! [`run_campaign_with_runner`] with durability switched off.

pub mod artifacts;
pub mod invariant;
pub mod journal;
pub mod persist;
pub mod supervisor;

pub use journal::{Fingerprint, JournalError};
pub use persist::{save_json_atomic, write_atomic, PersistError};
pub use supervisor::{RetryPolicy, SupervisionReport};

use crate::matrix::{Cell, CellError, Matrix, MATRIX_SCHEMA_VERSION, MTUS};
use crate::scale::Scale;
use cca::CcaKind;
use journal::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// How a campaign should run. [`Default`] is exactly the
/// [`crate::matrix::run_matrix`] behaviour: all cores, no journal.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads of the parallel map, and the journal's shard count
    /// (both capped at the number of pending cells); the result is
    /// schedule-invariant.
    pub threads: usize,
    /// Checkpoint journal directory: `threads` fsynced JSONL shards
    /// (`shard-000.jsonl`, …; the cell at pending position `slot` lands
    /// in shard `slot % threads`). `None` disables durability.
    pub journal_dir: Option<PathBuf>,
    /// Reuse journaled cells instead of re-running them. Only cells
    /// whose journal records pass fingerprint + hash validation count;
    /// journaled failures re-run on the same seeds.
    pub resume: bool,
    /// Never read: the [`invariant`] audit is [`CellPolicy::paranoid`],
    /// which the cell runner applies. The field is kept only because
    /// `benchmark/src/workloads.rs` sets it.
    ///
    /// [`CellPolicy::paranoid`]: crate::matrix::CellPolicy::paranoid
    pub paranoid: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: workload::par::host_threads(),
            journal_dir: None,
            resume: false,
            paranoid: false,
        }
    }
}

/// What a campaign did, beyond the matrix itself.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The measurement matrix, in canonical order.
    pub matrix: Matrix,
    /// Always `false`: a campaign is never cancelled, it runs every
    /// pending cell or dies with its process. The field is kept only
    /// because `benchmark/src/workloads.rs` reads it.
    pub cancelled: bool,
    /// Cells reused from the journal without re-running.
    pub reused: usize,
    /// Cells run in this invocation, successful or failed.
    pub executed: usize,
    /// The supervision story: this invocation's failed cells,
    /// degradation, and the supervisor metrics snapshot.
    pub supervision: SupervisionReport,
}

/// Run the measurement campaign with a pluggable cell runner. The
/// runner receives `(cca, mtu, bytes, seeds)`; a per-cell deadline,
/// paranoid audits and trace output are its own [`CellPolicy`], applied
/// by the production runner [`run_cell_with`]. Each pending cell is run
/// once, on the declared seeds; a runner that panics is contained by the
/// supervisor and the cell is recorded as failed. The one campaign-level
/// error is a journal that cannot be created or read (append failures
/// mid-run degrade instead — see [`SupervisionReport::degraded`]).
///
/// [`run_cell_with`]: crate::matrix::run_cell_with
/// [`CellPolicy`]: crate::matrix::CellPolicy
pub fn run_campaign_with_runner<F>(
    scale: Scale,
    opts: CampaignOptions,
    runner: F,
) -> Result<CampaignReport, JournalError>
where
    F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
{
    let seeds = scale.seeds();
    let jobs: Vec<(CcaKind, u32)> = CcaKind::ALL
        .iter()
        .flat_map(|&cca| MTUS.iter().map(move |&mtu| (cca, mtu)))
        .collect();

    let fingerprint = Fingerprint::of(&scale);
    let journal_dir = opts.journal_dir.as_deref();

    // Resume: journaled cells are reused (and carried into the new
    // journal); everything else — failed cells included — runs again on
    // the same seeds.
    let mut journaled: HashMap<(String, u32), Cell> = match (opts.resume, journal_dir) {
        (true, Some(dir)) => journal::load_sharded(dir, &fingerprint)?
            .entries
            .into_iter()
            .filter_map(|entry| match entry {
                Entry::Cell(c) => Some(((c.cca.clone(), c.mtu), c)),
                Entry::Failed(_) => None,
            })
            .collect(),
        _ => HashMap::new(),
    };
    let mut reused: Vec<(usize, Entry)> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    for (i, &(cca, mtu)) in jobs.iter().enumerate() {
        match journaled.remove(&(cca.name().to_string(), mtu)) {
            Some(c) => reused.push((i, Entry::Cell(c))),
            None => pending.push(i),
        }
    }
    let reused_count = reused.len();
    let threads = opts.threads.max(1).min(pending.len().max(1));

    // (Re)create the journal: `threads` shards, header + the reused
    // cells, atomically. This compacts away torn/corrupt lines and
    // failure records from a previous life, wipes its shards, and stamps
    // the current fingerprint. Creation failures are fatal — a campaign
    // that never had durability is a configuration error; only *append*
    // failures later degrade.
    let journals = match journal_dir {
        Some(dir) => {
            let keep: Vec<Entry> = reused.iter().map(|(_, e)| e.clone()).collect();
            let writers = journal::create_sharded(dir, &fingerprint, &keep, threads)?;
            supervisor::Journals::Sharded(writers.into_iter().map(Mutex::new).collect())
        }
        None => supervisor::Journals::None,
    };

    let outcome = supervisor::Supervisor {
        jobs: &jobs,
        pending,
        seeds: &seeds,
        transfer_bytes: scale.transfer_bytes,
        threads,
        journals,
        reused: reused_count,
    }
    .run(&runner);

    let executed_count = outcome.executed.len();
    let mut indexed = reused;
    indexed.extend(outcome.executed);
    indexed.sort_by_key(|(i, _)| *i);

    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for (_, entry) in indexed {
        match entry {
            Entry::Cell(cell) => cells.push(cell),
            Entry::Failed(failure) => failed.push(failure),
        }
    }
    Ok(CampaignReport {
        cancelled: false,
        reused: reused_count,
        executed: executed_count,
        supervision: SupervisionReport {
            quarantined: failed.clone(),
            degraded: outcome.degraded,
            metrics: outcome.metrics,
        },
        matrix: Matrix {
            schema_version: MATRIX_SCHEMA_VERSION,
            transfer_bytes: scale.transfer_bytes,
            repetitions: scale.repetitions,
            seeds,
            cells,
            failed,
        },
    })
}

/// Best-effort text of a caught panic payload. String payloads (the
/// overwhelmingly common case) come through verbatim; common scalar
/// payloads are rendered via `Display`; anything else at least says so
/// explicitly instead of silently flattening to one constant.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! display_payloads {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!("{v} (panic payload type {})", stringify!($ty));
            })*
        };
    }
    display_payloads!(i32, u32, i64, u64, usize, isize, f64, bool, char);
    "non-string panic payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::stats::Summary;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn stub_cell(cca: CcaKind, mtu: u32) -> Cell {
        let xs = [mtu as f64, mtu as f64 * 0.5];
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
            std::env::temp_dir().join(format!("greenenvy-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const TOTAL: usize = 40; // 10 CCAs × 4 MTUs

    #[test]
    fn journal_free_campaign_matches_the_plain_matrix() {
        let run = |threads| {
            run_campaign_with_runner(
                Scale::quick(),
                CampaignOptions {
                    threads,
                    ..Default::default()
                },
                |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
            )
            .unwrap()
        };
        let report = run(4);
        assert_eq!(report.matrix.cells.len(), TOTAL);
        assert_eq!(report.executed, TOTAL);
        assert_eq!(report.reused, 0);
        assert!(report.supervision.quarantined.is_empty());
        assert!(report.supervision.degraded.is_none());
        let plain = crate::matrix::run_matrix_with_runner(Scale::quick(), 3, |cca, mtu, _b, _s| {
            Ok(stub_cell(cca, mtu))
        });
        assert_eq!(
            serde_json::to_string(&report.matrix).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "campaign and plain matrix agree bit-for-bit"
        );
    }

    /// Emulate a kill after a whole journaled life: cut each of the
    /// `shards` shards in `dir` back to its header plus its first `keep`
    /// records, as if the process had died before the rest were
    /// appended. Returns the number of records kept.
    fn kill_after(dir: &std::path::Path, shards: usize, keep: usize) -> usize {
        (0..shards)
            .map(|shard| {
                let path = journal::shard_path(dir, shard);
                let body = std::fs::read_to_string(&path).unwrap();
                let kept: Vec<&str> = body.lines().take(1 + keep).collect();
                std::fs::write(&path, kept.join("\n") + "\n").unwrap();
                kept.len() - 1
            })
            .sum()
    }

    #[test]
    fn resume_reuses_journaled_cells_and_runs_only_the_rest() {
        let dir = scratch("resume");
        let journal = dir.join("campaign.journal");

        // First life: killed once 7 cells are journaled.
        let first = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 1,
                journal_dir: Some(journal.clone()),
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(first.executed, TOTAL);
        assert_eq!(kill_after(&journal, 1, 7), 7);

        // Second life: resume. Exactly the un-journaled cells run.
        let second_calls = AtomicUsize::new(0);
        let second = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 4,
                journal_dir: Some(journal.clone()),
                resume: true,
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                second_calls.fetch_add(1, Ordering::SeqCst);
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        assert_eq!(second.reused, 7);
        assert_eq!(second.executed, TOTAL - 7);
        assert_eq!(second_calls.load(Ordering::SeqCst), TOTAL - 7);

        // The merged matrix is bit-identical to an uninterrupted run.
        let uninterrupted = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&second.matrix).unwrap(),
            serde_json::to_string(&uninterrupted.matrix).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_an_existing_journal_is_overwritten_not_reused() {
        let dir = scratch("fresh");
        let journal = dir.join("campaign.journal");
        let opts = || CampaignOptions {
            threads: 2,
            journal_dir: Some(journal.clone()),
            ..Default::default()
        };
        let calls = AtomicUsize::new(0);
        run_campaign_with_runner(Scale::quick(), opts(), |cca, mtu, _b, _s| {
            Ok(stub_cell(cca, mtu))
        })
        .unwrap();
        let rerun = run_campaign_with_runner(Scale::quick(), opts(), |cca, mtu, _b, _s| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(stub_cell(cca, mtu))
        })
        .unwrap();
        assert_eq!(rerun.reused, 0);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            TOTAL,
            "no resume => every cell re-runs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_retries_journaled_failures() {
        let dir = scratch("refail");
        let journal = dir.join("campaign.journal");
        // First life: one cell fails.
        let first = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                journal_dir: Some(journal.clone()),
                ..Default::default()
            },
            |cca, mtu, _b, seeds| {
                if (cca, mtu) == (CcaKind::Bbr, 3000) {
                    Err(CellError::Failed {
                        cca,
                        mtu,
                        seed: seeds[0],
                        message: "poisoned".into(),
                    })
                } else {
                    Ok(stub_cell(cca, mtu))
                }
            },
        )
        .unwrap();
        assert_eq!(first.matrix.failed.len(), 1);
        assert_eq!(first.supervision.quarantined.len(), 1);
        // Second life: the failure is re-attempted (and now succeeds);
        // the 39 healthy cells are reused.
        let second = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                journal_dir: Some(journal.clone()),
                resume: true,
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(second.reused, TOTAL - 1);
        assert_eq!(second.executed, 1);
        assert!(second.matrix.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_failures_rerun_on_the_declared_seeds() {
        // A cell that failed in life 1 runs once more in life 2, on the
        // seeds the matrix declares — never on a substitute schedule.
        let dir = scratch("same-seeds");
        let journal = dir.join("campaign.journal");
        let observed: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
        let poison = (CcaKind::Bbr, 3000);
        let runner = |cca: CcaKind, mtu: u32, _b: u64, seeds: &[u64]| {
            if (cca, mtu) == poison {
                observed.lock().unwrap().push(seeds.to_vec());
                Err(CellError::Failed {
                    cca,
                    mtu,
                    seed: seeds[0],
                    message: "always".into(),
                })
            } else {
                Ok(stub_cell(cca, mtu))
            }
        };
        let opts = |resume| CampaignOptions {
            threads: 2,
            journal_dir: Some(journal.clone()),
            resume,
            ..Default::default()
        };
        let first = run_campaign_with_runner(Scale::quick(), opts(false), runner).unwrap();
        let second = run_campaign_with_runner(Scale::quick(), opts(true), runner).unwrap();
        assert_eq!(second.reused, TOTAL - 1);
        assert_eq!(
            serde_json::to_string(&first.matrix).unwrap(),
            serde_json::to_string(&second.matrix).unwrap(),
            "the same failure on the same seeds"
        );
        let declared = Scale::quick().seeds();
        assert_eq!(*observed.lock().unwrap(), [declared.clone(), declared]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cells_are_contained_and_quarantined() {
        // A runner that panics outright must not take down the campaign:
        // the supervisor catches it per-cell and records the poison cell
        // as failed, with its coordinates, after one attempt. One thread
        // runs every cell on the caller, three on spawned workers too.
        for threads in [1, 3] {
            let calls = AtomicUsize::new(0);
            let report = run_campaign_with_runner(
                Scale::quick(),
                CampaignOptions {
                    threads,
                    ..Default::default()
                },
                |cca, mtu, _b, _s| {
                    if (cca, mtu) == (CcaKind::Cubic, 1500) {
                        calls.fetch_add(1, Ordering::SeqCst);
                        panic!("poison cell detonated");
                    }
                    Ok(stub_cell(cca, mtu))
                },
            )
            .unwrap();
            assert_eq!(report.matrix.failed.len(), 1, "{threads} threads");
            assert_eq!(report.matrix.cells.len(), TOTAL - 1);
            assert_eq!(calls.load(Ordering::SeqCst), 1);
            let q = &report.supervision.quarantined[0];
            assert_eq!((q.cca.as_str(), q.mtu), ("cubic", 1500));
            assert!(q.error.contains("poison cell detonated"), "{}", q.error);
            assert!(q.error.contains("cubic @ mtu 1500"), "{}", q.error);
        }
    }

    #[test]
    fn non_string_panic_payloads_keep_their_display() {
        let report = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                if (cca, mtu) == (CcaKind::Reno, 9000) {
                    std::panic::panic_any(42_i32);
                }
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        let q = &report.supervision.quarantined[0];
        assert!(
            q.error.contains("42"),
            "integer payload rendered: {}",
            q.error
        );
        assert!(q.error.contains("reno @ mtu 9000"));
    }

    #[test]
    fn sharded_campaign_matches_one_shard_byte_for_byte() {
        let dir = scratch("sharded-match");
        let run = |threads, journal_dir: PathBuf| {
            let opts = CampaignOptions {
                threads,
                journal_dir: Some(journal_dir),
                ..Default::default()
            };
            run_campaign_with_runner(Scale::quick(), opts, |cca, mtu, _b, _s| {
                Ok(stub_cell(cca, mtu))
            })
            .unwrap()
        };
        let one = run(1, dir.join("one"));
        let sharded = run(3, dir.join("shards"));
        assert_eq!(
            serde_json::to_string(&one.matrix).unwrap(),
            serde_json::to_string(&sharded.matrix).unwrap()
        );
        assert!(journal::shard_path(&dir.join("one"), 0).exists());
        assert!(!journal::shard_path(&dir.join("one"), 1).exists());
        assert!(journal::shard_path(&dir.join("shards"), 2).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_reuses_across_shards() {
        let dir = scratch("sharded-resume");
        let shards = dir.join("journal");
        // First life on three shards, killed once each holds 3 records.
        let first = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 3,
                journal_dir: Some(shards.clone()),
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(first.executed, TOTAL);
        let kept = kill_after(&shards, 3, 3);
        assert_eq!(kept, 9);
        let second = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 4,
                journal_dir: Some(shards.clone()),
                resume: true,
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(second.reused, kept);
        assert_eq!(second.executed, TOTAL - kept);
        let uninterrupted = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&second.matrix).unwrap(),
            serde_json::to_string(&uninterrupted.matrix).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_journal_is_a_campaign_error_naming_the_path() {
        let err = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 1,
                journal_dir: Some(PathBuf::from("/proc/greenenvy-no-such-dir/journal")),
                ..Default::default()
            },
            |cca, mtu, _b, _s| Ok(stub_cell(cca, mtu)),
        )
        .unwrap_err();
        assert!(err.to_string().contains("greenenvy-no-such-dir"), "{err}");
    }
}
