//! Durable, supervised campaign execution.
//!
//! The CCA × MTU measurement campaign behind Figures 5-8 is hours of
//! simulation at paper scale, which makes it exactly the kind of job
//! that dies at 90%: an OOM kill, a preempted node, a Ctrl-C. This
//! module makes the campaign *restartable, supervised, and auditable*
//! without touching what it computes:
//!
//! * [`journal`] — an append-only, fsynced, hash-verified checkpoint
//!   journal; one record per completed cell, in a directory
//!   ([`CampaignOptions::journal_dir`]) of one shard file per worker, so
//!   appends don't serialize behind a single fsync and a torn shard
//!   invalidates its own records, not the campaign.
//! * resume — [`CampaignOptions::resume`] re-runs only cells the
//!   journal cannot vouch for. Because cell results are bit-exact
//!   through JSON (shortest-roundtrip floats), a resumed campaign's
//!   matrix is byte-identical to an uninterrupted one.
//! * [`supervisor`] — the worker pool: typed [`RetryPolicy`] with
//!   claim-count exponential backoff, monotone seed salting across
//!   campaign lives, per-cell panic containment, poison-cell
//!   quarantine (`quarantine.jsonl` + [`SupervisionReport`]), and
//!   graceful degradation to in-memory checkpoints when the journal's
//!   disk gives out mid-run.
//! * [`cancel`] — SIGINT/SIGTERM turn into a graceful drain: workers
//!   stop claiming cells, the journal is already flushed, and a partial
//!   matrix comes back.
//! * [`persist`] — atomic tmp-then-rename artifact writes, so no crash
//!   leaves a half-written result file.
//! * [`invariant`] — opt-in "paranoid mode" physics audits per
//!   repetition; zero cost when off.
//!
//! The work-stealing scheduling, salted-seed retry, and cell ordering
//! are identical to the plain [`crate::matrix`] entry points — in fact
//! [`crate::matrix::run_matrix_with_runner`] is now a thin wrapper over
//! [`run_campaign_with_runner`] with durability switched off.

pub mod artifacts;
pub mod cancel;
pub mod invariant;
pub mod journal;
pub mod persist;
pub mod supervisor;

pub use cancel::{install_signal_handlers, CancelToken};
pub use journal::{Fingerprint, JournalError};
pub use persist::{save_json_atomic, write_atomic, PersistError};
pub use supervisor::{
    attempt_salt, seeds_for_attempt, AttemptRecord, QuarantineRecord, RetryPolicy,
    SupervisionReport,
};

use crate::matrix::{
    run_cell_with, Cell, CellError, CellFailure, CellPolicy, Matrix, MATRIX_SCHEMA_VERSION, MTUS,
};
use crate::scale::Scale;
use cca::CcaKind;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// How a campaign should run. [`Default`] is exactly the historical
/// [`crate::matrix::run_matrix`] behaviour: all cores, no journal, no
/// deadline, no paranoia, the classic one-salted-retry policy.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads (work-stealing; the result is schedule-invariant).
    pub threads: usize,
    /// Checkpoint journal directory: one fsynced JSONL per worker
    /// (`shard-000.jsonl`, …; one worker, one shard) plus
    /// `quarantine.jsonl`. `None` disables durability.
    pub journal_dir: Option<PathBuf>,
    /// Reuse journaled cells instead of re-running them. Only cells
    /// whose journal records pass fingerprint + hash validation count.
    pub resume: bool,
    /// The retry schedule failing cells run under (journaled via the
    /// config fingerprint, so a resume replays the same schedule).
    pub retry: RetryPolicy,
    /// Per-cell wall-clock budget (covers all repetitions of the cell).
    /// A cell that blows it fails with [`CellError::DeadlineExceeded`]
    /// and re-enters the retry schedule like any other failure.
    pub deadline: Option<Duration>,
    /// Run the [`invariant`] physics audit after every repetition.
    pub paranoid: bool,
    /// Cooperative cancellation; poll-checked between cells.
    pub cancel: CancelToken,
    /// Persist per-repetition observability artifacts (Perfetto trace,
    /// Prometheus snapshot, flight-ring dumps on failure) into this
    /// directory. `None` runs uninstrumented.
    pub trace_out: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            journal_dir: None,
            resume: false,
            retry: RetryPolicy::default(),
            deadline: None,
            paranoid: false,
            cancel: CancelToken::new(),
            trace_out: None,
        }
    }
}

/// What a campaign did, beyond the matrix itself.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The (possibly partial) measurement matrix, in canonical order.
    pub matrix: Matrix,
    /// True when the campaign stopped early on a cancellation/signal.
    pub cancelled: bool,
    /// Cells reused from the journal without re-running.
    pub reused: usize,
    /// Cells that reached a terminal outcome (success or quarantine)
    /// in this invocation.
    pub executed: usize,
    /// Cells never finished because cancellation arrived first.
    pub skipped: usize,
    /// The supervision story: retry counts, quarantined poison cells,
    /// degradation, and the supervisor metrics snapshot.
    pub supervision: SupervisionReport,
}

/// A campaign-level failure. Cell failures don't land here (they're
/// carried in the matrix); this is for the campaign machinery itself.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint journal could not be created or read. (Append
    /// failures mid-run degrade instead — see
    /// [`SupervisionReport::degraded`].)
    Journal(JournalError),
    /// A worker *thread* died outside the per-cell panic containment.
    Worker(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "campaign journal failure: {e}"),
            CampaignError::Worker(e) => write!(f, "campaign worker failure: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal(e) => Some(e),
            CampaignError::Worker(_) => None,
        }
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// Run the measurement campaign durably with the production cell runner.
pub fn run_campaign(scale: Scale, opts: CampaignOptions) -> Result<CampaignReport, CampaignError> {
    let policy = CellPolicy {
        wall_deadline: opts.deadline,
        paranoid: opts.paranoid,
        trace_out: opts.trace_out.clone(),
    };
    run_campaign_with_runner(scale, opts, move |cca, mtu, bytes, seeds| {
        run_cell_with(cca, mtu, bytes, seeds, policy.clone())
    })
}

/// [`run_campaign`] with a pluggable cell runner — the testing seam. The
/// deadline/paranoid options act inside the *production* runner; a
/// custom runner receives only `(cca, mtu, bytes, seeds)` and applies
/// whatever policy it likes. A runner that panics is contained by the
/// supervisor and treated as a failed attempt.
pub fn run_campaign_with_runner<F>(
    scale: Scale,
    opts: CampaignOptions,
    runner: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
{
    let seeds = scale.seeds();
    let jobs: Vec<(CcaKind, u32)> = CcaKind::ALL
        .iter()
        .flat_map(|&cca| MTUS.iter().map(move |&mtu| (cca, mtu)))
        .collect();

    let policy = opts.retry;
    let fingerprint = Fingerprint::for_policy(&scale, &policy);
    let journal_dir = opts.journal_dir.as_deref();

    // Resume: harvest validated entries, keyed by job. Completed cells
    // are reused; failure records are *not* (a resume is the natural
    // moment to give a failed cell another chance) but their cumulative
    // attempt counters thread through, so the re-attempt continues the
    // monotone seed-salt sequence instead of restarting it.
    let mut reused: Vec<(usize, Cell)> = Vec::new();
    let mut prior_attempts: BTreeMap<usize, u32> = BTreeMap::new();
    let mut keep: Vec<journal::Entry> = Vec::new();
    if let (true, Some(dir)) = (opts.resume, journal_dir) {
        let entries = journal::load_sharded(dir, &fingerprint)?.entries;
        let mut cells: HashMap<(String, u32), Cell> = HashMap::new();
        let mut fails: HashMap<(String, u32), CellFailure> = HashMap::new();
        for entry in entries {
            match entry {
                journal::Entry::Cell(c) => {
                    cells.insert((c.cca.clone(), c.mtu), c);
                }
                journal::Entry::Failed(f) => {
                    fails.insert((f.cca.clone(), f.mtu), f);
                }
                journal::Entry::Quarantine(_) => {}
            }
        }
        for (i, &(cca, mtu)) in jobs.iter().enumerate() {
            let key = (cca.name().to_string(), mtu);
            if let Some(c) = cells.remove(&key) {
                keep.push(journal::Entry::Cell(c.clone()));
                reused.push((i, c));
            } else if let Some(f) = fails.remove(&key) {
                prior_attempts.insert(i, f.attempts);
                keep.push(journal::Entry::Failed(f));
            }
        }
    }

    let have: Vec<bool> = {
        let mut have = vec![false; jobs.len()];
        for (i, _) in &reused {
            have[*i] = true;
        }
        have
    };
    let pending = jobs.len() - reused.len();
    let threads = opts.threads.max(1).min(pending.max(1));

    // (Re)create the journal: one shard per worker, header + the
    // surviving records, atomically. This compacts away torn/corrupt
    // lines from a previous life, wipes its shards and quarantine file,
    // and stamps the current fingerprint. Creation failures are fatal —
    // a campaign that never had durability is a configuration error;
    // only *append* failures later degrade.
    let journals = match journal_dir {
        Some(dir) => {
            let writers = journal::create_sharded(dir, &fingerprint, &keep, threads)?;
            supervisor::Journals::Sharded(writers.into_iter().map(Mutex::new).collect())
        }
        None => supervisor::Journals::None,
    };
    let quarantine =
        supervisor::QuarantineSink::new(journal_dir.map(journal::quarantine_path), fingerprint);

    let fresh: Vec<(usize, u32)> = (0..jobs.len())
        .filter(|&i| !have[i])
        .map(|i| (i, prior_attempts.get(&i).copied().unwrap_or(0) + 1))
        .collect();

    let outcome = supervisor::Supervisor {
        jobs: &jobs,
        fresh,
        prior_attempts,
        seeds: &seeds,
        transfer_bytes: scale.transfer_bytes,
        threads,
        policy,
        cancel: opts.cancel.clone(),
        journals,
        quarantine,
        reused: reused.len(),
    }
    .run(&runner);

    if !outcome.worker_panics.is_empty() {
        return Err(CampaignError::Worker(format!(
            "{} campaign worker(s) panicked: {}",
            outcome.worker_panics.len(),
            outcome.worker_panics.join(" | ")
        )));
    }

    let reused_count = reused.len();
    let executed_count = outcome.executed.len();
    let mut indexed: Vec<(usize, Result<Cell, CellFailure>)> = reused
        .into_iter()
        .map(|(i, c)| (i, Ok(c)))
        .chain(outcome.executed)
        .collect();
    indexed.sort_by_key(|(i, _)| *i);

    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for (_, cell_outcome) in indexed {
        match cell_outcome {
            Ok(cell) => cells.push(cell),
            Err(failure) => failed.push(failure),
        }
    }
    Ok(CampaignReport {
        matrix: Matrix {
            schema_version: MATRIX_SCHEMA_VERSION,
            transfer_bytes: scale.transfer_bytes,
            repetitions: scale.repetitions,
            seeds,
            cells,
            failed,
        },
        cancelled: opts.cancel.is_cancelled(),
        reused: reused_count,
        executed: executed_count,
        skipped: jobs.len() - reused_count - executed_count,
        supervision: SupervisionReport {
            policy,
            retries: outcome.retries,
            quarantined: outcome.quarantined,
            degraded: outcome.degraded,
            metrics: outcome.metrics,
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
        assert_eq!(report.skipped, 0);
        assert!(!report.cancelled);
        assert_eq!(report.supervision.retries, 0);
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

    #[test]
    fn pre_cancelled_campaign_does_no_work() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let calls = AtomicUsize::new(0);
        let report = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 4,
                cancel,
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        assert!(report.cancelled);
        assert_eq!(report.executed, 0);
        assert_eq!(report.skipped, TOTAL);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert!(report.matrix.cells.is_empty());
    }

    #[test]
    fn resume_reuses_journaled_cells_and_runs_only_the_rest() {
        let dir = scratch("resume");
        let journal = dir.join("campaign.journal");

        // First life: cancel after 7 cells.
        let cancel = CancelToken::new();
        let first_calls = AtomicUsize::new(0);
        let first = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 1,
                journal_dir: Some(journal.clone()),
                cancel: cancel.clone(),
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                if first_calls.fetch_add(1, Ordering::SeqCst) + 1 >= 7 {
                    cancel.cancel();
                }
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        assert!(first.cancelled);
        assert_eq!(first.executed, 7);
        assert_eq!(first.skipped, TOTAL - 7);

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
        assert!(!second.cancelled);
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
        // First life: one cell fails terminally (both attempts).
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
        assert_eq!(first.matrix.failed[0].attempts, 2);
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
    fn resumed_failures_continue_the_monotone_salt_sequence() {
        // A cell that burned attempts 1-2 in life 1 must run attempts
        // 3-4 (fresh salts) in life 2 — not re-run salts it already
        // failed on. The journaled attempt counter threads this through.
        let dir = scratch("monotone");
        let journal = dir.join("campaign.journal");
        let base = Scale::quick().seeds();
        let observed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let poison = (CcaKind::Bbr, 3000);
        let runner = |cca: CcaKind, mtu: u32, _b: u64, seeds: &[u64]| {
            if (cca, mtu) == poison {
                observed.lock().unwrap().push(seeds[0]);
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
        run_campaign_with_runner(Scale::quick(), opts(false), runner).unwrap();
        run_campaign_with_runner(Scale::quick(), opts(true), runner).unwrap();
        let seen = observed.lock().unwrap().clone();
        let want: Vec<u64> = (1..=4).map(|n| base[0] ^ attempt_salt(n)).collect();
        assert_eq!(seen, want, "4 attempts across 2 lives, each salt fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cells_are_contained_and_quarantined() {
        // A runner that panics outright must not take down the campaign:
        // the supervisor catches it per-cell, burns the retry budget,
        // and quarantines the poison cell with its coordinates.
        let report = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 3,
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                if (cca, mtu) == (CcaKind::Cubic, 1500) {
                    panic!("poison cell detonated");
                }
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        assert_eq!(report.matrix.failed.len(), 1);
        assert_eq!(report.matrix.cells.len(), TOTAL - 1);
        let q = &report.supervision.quarantined[0];
        assert_eq!((q.cca.as_str(), q.mtu), ("cubic", 1500));
        assert_eq!(q.attempts.len(), 2, "both budgeted attempts recorded");
        for a in &q.attempts {
            assert_eq!(a.class, "panic");
            assert!(a.error.contains("poison cell detonated"), "{}", a.error);
            assert!(a.error.contains("cubic @ mtu 1500"), "{}", a.error);
        }
        assert_eq!(report.supervision.retries, 1);
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
            q.attempts[0].error.contains("42"),
            "integer payload rendered: {}",
            q.attempts[0].error
        );
        assert!(q.attempts[0].error.contains("reno @ mtu 9000"));
    }

    #[test]
    fn retry_policy_budget_is_respected() {
        let calls = AtomicUsize::new(0);
        let report = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 2,
                retry: RetryPolicy {
                    max_attempts: 4,
                    backoff_base: 1,
                },
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                if (cca, mtu) == (CcaKind::Vegas, 6000) {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err(CellError::Failed {
                        cca,
                        mtu,
                        seed: 0,
                        message: "always".into(),
                    })
                } else {
                    Ok(stub_cell(cca, mtu))
                }
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 4, "exactly max_attempts");
        assert_eq!(report.supervision.retries, 3);
        assert_eq!(report.matrix.failed[0].attempts, 4);
        let q = &report.supervision.quarantined[0];
        assert_eq!(
            q.attempts.iter().map(|a| a.attempt).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
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
        let cancel = CancelToken::new();
        let first_calls = AtomicUsize::new(0);
        let first = run_campaign_with_runner(
            Scale::quick(),
            CampaignOptions {
                threads: 3,
                journal_dir: Some(shards.clone()),
                cancel: cancel.clone(),
                ..Default::default()
            },
            |cca, mtu, _b, _s| {
                if first_calls.fetch_add(1, Ordering::SeqCst) + 1 >= 9 {
                    cancel.cancel();
                }
                Ok(stub_cell(cca, mtu))
            },
        )
        .unwrap();
        assert!(first.cancelled);
        assert!(first.executed >= 9);
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
        assert_eq!(second.reused, first.executed);
        assert_eq!(second.executed, TOTAL - first.executed);
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
