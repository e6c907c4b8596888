//! Fleet-grade campaign supervision.
//!
//! The worker pool behind [`super::run_campaign_with_runner`]. The
//! original campaign loop gave every failing cell exactly one salted
//! retry, funnelled every worker through one journal mutex, and treated
//! a journal write error as fatal. At fleet scale (the ROADMAP's
//! ~1M-cell matrices) each of those is a liability, so the supervisor
//! owns the full failure story:
//!
//! * **typed retry policy** — [`RetryPolicy`] caps attempts per cell
//!   and spaces re-attempts with exponential backoff measured in *claim
//!   counts* (deterministic and schedule-meaningful) instead of
//!   wall-clock sleeps; the policy is part of the journal fingerprint,
//!   so a resume provably replays the same schedule.
//! * **monotone seed salting** — attempt `n` of a cell runs on
//!   `seed ^ attempt_salt(n)`, and the cumulative attempt counter rides
//!   in the journal's failure records, so a resumed campaign keeps
//!   exploring *fresh* seed trajectories instead of re-running the salt
//!   it already failed on.
//! * **per-cell panic containment** — a panicking runner is caught,
//!   classified, and retried like any other failure; it cannot take the
//!   worker (and with it the campaign) down.
//! * **poison-cell quarantine** — a cell that exhausts its budget moves
//!   to `quarantine.jsonl` with its full attempt history
//!   ([`QuarantineRecord`]); the campaign keeps going.
//! * **graceful degradation** — a journal *append* failure (disk full,
//!   EROFS) downgrades from fatal to degraded mode: the campaign keeps
//!   computing with in-memory checkpoints, raises the
//!   `campaign_degraded` gauge, and the campaign binary exits with a
//!   distinct code. (Journal *creation* failures are still fatal — a
//!   campaign that never had durability is a configuration error.)

use super::cancel::CancelToken;
use super::journal::{Entry, Fingerprint, JournalError, Writer};
use crate::matrix::{Cell, CellError, CellFailure, RETRY_SEED_SALT};
use cca::CcaKind;
use obs::{labels, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock a mutex, recovering the data from a poisoned lock. Supervisor
/// state stays consistent across a poisoning panic because every
/// critical section is a handful of plain writes.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The deterministic bounded retry schedule a campaign runs under.
///
/// `max_attempts` is the per-*life* budget: a resumed campaign gives a
/// previously failed cell a fresh budget, but starts its attempt
/// numbering (and therefore its seed salts) where the journal says the
/// last life stopped. Backoff is expressed in claim counts, not time:
/// after failed attempt `n`, the cell becomes eligible again once
/// `backoff_base << (n-1)` further cells have been claimed by the pool
/// (waived when no other work is left, so backoff never deadlocks a
/// tail of retries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts a cell gets per campaign life (min 1).
    pub max_attempts: u32,
    /// Backoff base in claim counts; 0 disables backoff entirely.
    pub backoff_base: u32,
}

impl Default for RetryPolicy {
    /// The historical campaign behaviour: one fresh-salt retry,
    /// re-claimed immediately.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff_base: 0,
        }
    }
}

impl RetryPolicy {
    /// Human-readable spec recorded in journal headers (and hashed into
    /// the fingerprint): changing the policy changes which seed
    /// trajectories failures explore, so it re-keys the campaign.
    pub fn spec(&self) -> String {
        format!(
            "max_attempts={},backoff={}",
            self.max_attempts.max(1),
            self.backoff_base
        )
    }

    /// Claims to wait out after failed attempt `n` (1-based). Shift is
    /// clamped so a pathological attempt counter cannot overflow.
    pub fn backoff_claims(&self, failed_attempt: u32) -> u64 {
        (self.backoff_base as u64) << failed_attempt.saturating_sub(1).min(20)
    }
}

const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed salt for attempt `n` (1-based). Monotone across campaign
/// lives: attempt 1 is the unsalted seed schedule, attempt 2 keeps the
/// historical [`RETRY_SEED_SALT`] (so existing goldens hold), and every
/// later attempt gets a distinct splitmix-derived salt — a cell that
/// failed attempts 1-2 in one life resumes at attempt 3 on a trajectory
/// it has never tried.
pub fn attempt_salt(attempt: u32) -> u64 {
    match attempt {
        0 | 1 => 0,
        2 => RETRY_SEED_SALT,
        n => splitmix64(RETRY_SEED_SALT ^ n as u64),
    }
}

/// The seed schedule attempt `n` of a cell runs on.
pub fn seeds_for_attempt(seeds: &[u64], attempt: u32) -> Vec<u64> {
    let salt = attempt_salt(attempt);
    seeds.iter().map(|&s| s ^ salt).collect()
}

/// One failed attempt of a cell, as recorded in its quarantine entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Cumulative attempt number (1-based, monotone across lives).
    pub attempt: u32,
    /// Failure class: `"failed"`, `"deadline"`, `"invariant"`, or
    /// `"panic"`.
    pub class: String,
    /// The failure text (panic payload or `CellError` display), which
    /// names the cell coordinates and seed.
    pub error: String,
}

/// A poison cell: every attempt of its budget failed, so it was moved
/// to `quarantine.jsonl` and the campaign continued without it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// CCA name.
    pub cca: String,
    /// MTU in bytes.
    pub mtu: u32,
    /// Every failed attempt *this campaign life* observed, in order.
    pub attempts: Vec<AttemptRecord>,
}

impl QuarantineRecord {
    /// The highest attempt number recorded (cumulative across lives).
    pub fn last_attempt(&self) -> u32 {
        self.attempts.last().map(|a| a.attempt).unwrap_or(0)
    }
}

/// The supervision section of a [`super::CampaignReport`].
#[derive(Clone, Debug)]
pub struct SupervisionReport {
    /// The retry schedule the campaign ran under.
    pub policy: RetryPolicy,
    /// Re-attempts issued this invocation (across all cells).
    pub retries: u64,
    /// Poison cells quarantined this invocation, in canonical job order.
    pub quarantined: Vec<QuarantineRecord>,
    /// `Some(reason)` when the campaign degraded to in-memory
    /// checkpoints after a journal append failure. The matrix is still
    /// complete and correct — but nothing after the failure is durable,
    /// so a resume would re-run those cells.
    pub degraded: Option<String>,
    /// Supervisor metrics (`campaign_cell_retries_total`,
    /// `campaign_quarantined_total`, `campaign_degraded`, …), frozen at
    /// campaign end.
    pub metrics: MetricsSnapshot,
}

/// Where cell completions are checkpointed.
pub(super) enum Journals {
    /// No durability (the plain-matrix path).
    None,
    /// One shard per worker: appends never cross-contend, and each
    /// worker's fsyncs queue behind its own file only.
    Sharded(Vec<Mutex<Writer>>),
    /// Test-only: every append fails, exercising degraded mode without
    /// needing a genuinely full disk.
    #[cfg(test)]
    Failing,
}

/// The lazily created quarantine journal. Lazy so a healthy campaign
/// leaves no empty `quarantine.jsonl` behind to alarm anyone.
pub(super) struct QuarantineSink {
    path: Option<PathBuf>,
    fingerprint: Fingerprint,
    writer: Mutex<Option<Writer>>,
}

impl QuarantineSink {
    pub(super) fn new(path: Option<PathBuf>, fingerprint: Fingerprint) -> QuarantineSink {
        QuarantineSink {
            path,
            fingerprint,
            writer: Mutex::new(None),
        }
    }

    fn append(&self, record: &QuarantineRecord) -> Result<(), JournalError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut slot = relock(&self.writer);
        if slot.is_none() {
            *slot = Some(Writer::create(path, &self.fingerprint, &[])?);
        }
        if let Some(writer) = slot.as_mut() {
            writer.append(&Entry::Quarantine(record.clone()))?;
        }
        Ok(())
    }
}

/// A queued re-attempt.
struct Ticket {
    job: usize,
    attempt: u32,
    /// Pool-wide claim count at which this ticket becomes eligible.
    eligible_at: u64,
}

struct QueueState {
    /// Never-attempted jobs with their starting attempt numbers
    /// (`prior journaled attempts + 1`), claimed front to back.
    fresh: Vec<(usize, u32)>,
    cursor: usize,
    /// Backoff'd re-attempts waiting to become eligible.
    retries: Vec<Ticket>,
    /// Total claims handed out; the backoff clock.
    claims: u64,
    /// Cells currently being executed by some worker.
    in_flight: usize,
}

/// The supervised work queue: fresh cells plus backoff'd retries,
/// claimed work-stealing style. The backoff clock is the pool-wide
/// claim counter, so the schedule is a function of the claim sequence,
/// not of wall time.
struct Queue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

impl Queue {
    fn new(fresh: Vec<(usize, u32)>) -> Queue {
        Queue {
            state: Mutex::new(QueueState {
                fresh,
                cursor: 0,
                retries: Vec::new(),
                claims: 0,
                in_flight: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Claim the next `(job, attempt)`, or `None` when the campaign is
    /// drained or cancelled. Eligible retries win over fresh work
    /// (earliest eligibility, then lowest job index — deterministic);
    /// backoff is waived once no fresh work remains and nothing is in
    /// flight, so a retry tail can never deadlock the pool.
    fn claim(&self, cancel: &CancelToken) -> Option<(usize, u32)> {
        let mut st = relock(&self.state);
        loop {
            if cancel.is_cancelled() {
                self.wake.notify_all();
                return None;
            }
            let fresh_left = st.cursor < st.fresh.len();
            let drained = !fresh_left && st.in_flight == 0;
            let mut pick: Option<usize> = None;
            for i in 0..st.retries.len() {
                let t = &st.retries[i];
                if t.eligible_at > st.claims && !drained {
                    continue;
                }
                let better = match pick {
                    None => true,
                    Some(p) => {
                        (t.eligible_at, t.job) < (st.retries[p].eligible_at, st.retries[p].job)
                    }
                };
                if better {
                    pick = Some(i);
                }
            }
            if let Some(i) = pick {
                let t = st.retries.swap_remove(i);
                st.claims += 1;
                st.in_flight += 1;
                return Some((t.job, t.attempt));
            }
            if fresh_left {
                let (job, attempt) = st.fresh[st.cursor];
                st.cursor += 1;
                st.claims += 1;
                st.in_flight += 1;
                return Some((job, attempt));
            }
            if st.retries.is_empty() && st.in_flight == 0 {
                self.wake.notify_all();
                return None;
            }
            // Ineligible retries exist, or peers are in flight and might
            // enqueue one. The timeout doubles as the cancel poll.
            let (guard, _timeout) = self
                .wake
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }

    /// Re-queue a failed cell for attempt `next_attempt`, eligible after
    /// `delta` more claims.
    fn retry(&self, job: usize, next_attempt: u32, delta: u64) {
        let mut st = relock(&self.state);
        st.in_flight -= 1;
        let eligible_at = st.claims + delta;
        st.retries.push(Ticket {
            job,
            attempt: next_attempt,
            eligible_at,
        });
        drop(st);
        self.wake.notify_all();
    }

    /// A claimed cell reached a terminal outcome (success or quarantine).
    fn complete(&self) {
        let mut st = relock(&self.state);
        st.in_flight -= 1;
        drop(st);
        self.wake.notify_all();
    }
}

/// Everything the supervisor needs to run a campaign's pending cells.
pub(super) struct Supervisor<'a> {
    /// The canonical CCA × MTU job list.
    pub jobs: &'a [(CcaKind, u32)],
    /// Pending `(job index, starting attempt)` pairs in canonical order.
    pub fresh: Vec<(usize, u32)>,
    /// Journaled attempt counts from previous lives, by job index.
    pub prior_attempts: BTreeMap<usize, u32>,
    /// The unsalted seed schedule.
    pub seeds: &'a [u64],
    /// Bytes per transfer.
    pub transfer_bytes: u64,
    /// Worker pool width.
    pub threads: usize,
    /// The retry schedule.
    pub policy: RetryPolicy,
    /// Cooperative cancellation.
    pub cancel: CancelToken,
    /// Completion checkpoints.
    pub journals: Journals,
    /// Poison-cell sink.
    pub quarantine: QuarantineSink,
    /// Cells reused from the journal (for the metrics snapshot).
    pub reused: usize,
}

/// What the pool produced.
pub(super) struct Supervised {
    /// Terminal outcomes, unordered, by job index.
    pub executed: Vec<(usize, Result<Cell, CellFailure>)>,
    /// Quarantined poison cells, sorted by job index.
    pub quarantined: Vec<QuarantineRecord>,
    /// Re-attempts issued.
    pub retries: u64,
    /// Degradation reason, if a journal append failed.
    pub degraded: Option<String>,
    /// Worker *thread* panics (distinct from caught cell panics; should
    /// be impossible, but a supervisor that hides its own crashes is
    /// worse than none).
    pub worker_panics: Vec<String>,
    /// Supervisor metrics frozen at pool drain.
    pub metrics: MetricsSnapshot,
}

impl Supervisor<'_> {
    /// Note a journal append failure: first one wins, flips the
    /// `campaign_degraded` gauge, and announces loudly. Journaling stops
    /// but the campaign keeps computing.
    fn degrade(
        degraded: &Mutex<Option<String>>,
        metrics: &Mutex<MetricsRegistry>,
        error: &JournalError,
    ) {
        let mut slot = relock(degraded);
        if slot.is_none() {
            *slot = Some(error.to_string());
            relock(metrics).gauge_set("campaign_degraded", labels([]), 1.0);
            eprintln!(
                "campaign: journal append failed ({error}); \
                 degrading to in-memory checkpoints — results stay \
                 correct but are no longer crash-durable"
            );
        }
    }

    /// Checkpoint an entry to this worker's journal, degrading (not
    /// failing) on I/O errors.
    fn checkpoint(
        &self,
        worker: usize,
        entry: &Entry,
        degraded: &Mutex<Option<String>>,
        metrics: &Mutex<MetricsRegistry>,
    ) {
        if relock(degraded).is_some() {
            return; // already degraded: in-memory only
        }
        let result = match &self.journals {
            Journals::None => Ok(()),
            Journals::Sharded(ws) => match ws.get(worker) {
                Some(w) => relock(w).append(entry),
                None => Ok(()),
            },
            #[cfg(test)]
            Journals::Failing => Err(JournalError {
                path: PathBuf::from("/test/failing-journal"),
                source: std::io::Error::other("injected append failure"),
            }),
        };
        if let Err(e) = result {
            Supervisor::degrade(degraded, metrics, &e);
        }
    }

    /// Run the pool to drain (or cancellation).
    pub(super) fn run<F>(self, runner: &F) -> Supervised
    where
        F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
    {
        let queue = Queue::new(self.fresh.clone());
        let metrics = Mutex::new(MetricsRegistry::new());
        if self.reused > 0 {
            relock(&metrics).counter_add(
                "campaign_cells_reused_total",
                labels([]),
                self.reused as u64,
            );
        }
        let degraded: Mutex<Option<String>> = Mutex::new(None);
        let history: Mutex<BTreeMap<usize, Vec<AttemptRecord>>> = Mutex::new(BTreeMap::new());
        let quarantined: Mutex<Vec<(usize, QuarantineRecord)>> = Mutex::new(Vec::new());
        let retries = AtomicU64::new(0);

        let (executed, worker_panics) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|worker| {
                    let this = &self;
                    let queue = &queue;
                    let metrics = &metrics;
                    let degraded = &degraded;
                    let history = &history;
                    let quarantined = &quarantined;
                    let retries = &retries;
                    scope.spawn(move || {
                        let mut done: Vec<(usize, Result<Cell, CellFailure>)> = Vec::new();
                        while let Some((job, attempt)) = queue.claim(&this.cancel) {
                            let (cca, mtu) = this.jobs[job];
                            let seeds = seeds_for_attempt(this.seeds, attempt);
                            let caught = catch_unwind(AssertUnwindSafe(|| {
                                runner(cca, mtu, this.transfer_bytes, &seeds)
                            }));
                            let (class, error) = match caught {
                                Ok(Ok(cell)) => {
                                    this.checkpoint(
                                        worker,
                                        &Entry::Cell(cell.clone()),
                                        degraded,
                                        metrics,
                                    );
                                    relock(metrics).counter_add(
                                        "campaign_cells_completed_total",
                                        labels([]),
                                        1,
                                    );
                                    done.push((job, Ok(cell)));
                                    queue.complete();
                                    continue;
                                }
                                Ok(Err(e)) => (e.class(), e.to_string()),
                                Err(payload) => (
                                    "panic",
                                    format!(
                                        "{} @ mtu {mtu} seed {}: panicked: {}",
                                        cca.name(),
                                        seeds.first().copied().unwrap_or(0),
                                        super::panic_text(payload.as_ref()),
                                    ),
                                ),
                            };
                            relock(history).entry(job).or_default().push(AttemptRecord {
                                attempt,
                                class: class.to_string(),
                                error: error.clone(),
                            });
                            let start = this.prior_attempts.get(&job).copied().unwrap_or(0);
                            let spent = attempt.saturating_sub(start);
                            if spent < this.policy.max_attempts.max(1) {
                                retries.fetch_add(1, Ordering::Relaxed);
                                relock(metrics).counter_add(
                                    "campaign_cell_retries_total",
                                    labels([("cca", cca.name().to_string())]),
                                    1,
                                );
                                queue.retry(job, attempt + 1, this.policy.backoff_claims(spent));
                            } else {
                                // Budget exhausted: quarantine the poison
                                // cell and move on.
                                let attempts = relock(history).remove(&job).unwrap_or_default();
                                let record = QuarantineRecord {
                                    cca: cca.name().to_string(),
                                    mtu,
                                    attempts,
                                };
                                if let Err(e) = this.quarantine.append(&record) {
                                    Supervisor::degrade(degraded, metrics, &e);
                                }
                                let failure = CellFailure {
                                    cca: cca.name().to_string(),
                                    mtu,
                                    error: record
                                        .attempts
                                        .first()
                                        .map(|a| a.error.clone())
                                        .unwrap_or_default(),
                                    retry_error: record
                                        .attempts
                                        .last()
                                        .map(|a| a.error.clone())
                                        .unwrap_or_default(),
                                    attempts: attempt,
                                };
                                this.checkpoint(
                                    worker,
                                    &Entry::Failed(failure.clone()),
                                    degraded,
                                    metrics,
                                );
                                relock(metrics).counter_add(
                                    "campaign_quarantined_total",
                                    labels([("cca", cca.name().to_string())]),
                                    1,
                                );
                                relock(quarantined).push((job, record));
                                done.push((job, Err(failure)));
                                queue.complete();
                            }
                        }
                        done
                    })
                })
                .collect();
            // Drain every worker before deciding the campaign's fate: a
            // crash in one must not hide the results of the others.
            let mut collected = Vec::new();
            let mut panics = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(part) => collected.extend(part),
                    Err(payload) => panics.push(super::panic_text(payload.as_ref())),
                }
            }
            (collected, panics)
        });

        let mut quarantined = relock(&quarantined).drain(..).collect::<Vec<_>>();
        quarantined.sort_by_key(|(job, _)| *job);
        let degraded = relock(&degraded).take();
        // The registry clocks at sim instant 0: the supervisor has no
        // sim clock, and wall time has no place in a deterministic
        // artifact.
        let metrics = relock(&metrics).snapshot(0);
        Supervised {
            executed,
            quarantined: quarantined.into_iter().map(|(_, q)| q).collect(),
            retries: retries.load(Ordering::Relaxed),
            degraded,
            worker_panics,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_salts_are_monotone_and_distinct() {
        assert_eq!(attempt_salt(1), 0, "attempt 1 is the unsalted schedule");
        assert_eq!(
            attempt_salt(2),
            RETRY_SEED_SALT,
            "attempt 2 keeps the historical salt"
        );
        let mut seen = std::collections::BTreeSet::new();
        for n in 1..=16 {
            assert!(seen.insert(attempt_salt(n)), "salt {n} repeats");
        }
    }

    #[test]
    fn seeds_for_attempt_salts_every_seed() {
        let seeds = [10, 20, 30];
        assert_eq!(seeds_for_attempt(&seeds, 1), vec![10, 20, 30]);
        assert_eq!(
            seeds_for_attempt(&seeds, 2),
            vec![
                10 ^ RETRY_SEED_SALT,
                20 ^ RETRY_SEED_SALT,
                30 ^ RETRY_SEED_SALT
            ]
        );
        let third = seeds_for_attempt(&seeds, 3);
        assert_ne!(third, seeds_for_attempt(&seeds, 2));
        assert_ne!(third, seeds_for_attempt(&seeds, 4));
    }

    #[test]
    fn backoff_doubles_per_failed_attempt() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base: 2,
        };
        assert_eq!(p.backoff_claims(1), 2);
        assert_eq!(p.backoff_claims(2), 4);
        assert_eq!(p.backoff_claims(3), 8);
        let off = RetryPolicy {
            max_attempts: 5,
            backoff_base: 0,
        };
        assert_eq!(off.backoff_claims(3), 0, "base 0 disables backoff");
    }

    #[test]
    fn policy_spec_is_stable_text() {
        assert_eq!(RetryPolicy::default().spec(), "max_attempts=2,backoff=0");
        assert_eq!(
            RetryPolicy {
                max_attempts: 4,
                backoff_base: 3
            }
            .spec(),
            "max_attempts=4,backoff=3"
        );
    }

    #[test]
    fn queue_respects_backoff_while_other_work_exists() {
        let q = Queue::new(vec![(0, 1), (1, 1), (2, 1)]);
        let cancel = CancelToken::new();
        let first = q.claim(&cancel).unwrap();
        assert_eq!(first, (0, 1));
        // Job 0 fails; eligible only after 2 more claims.
        q.retry(0, 2, 2);
        assert_eq!(q.claim(&cancel).unwrap(), (1, 1), "fresh work first");
        assert_eq!(q.claim(&cancel).unwrap(), (2, 1));
        q.complete();
        q.complete();
        // Backoff satisfied (claims advanced past eligibility).
        assert_eq!(q.claim(&cancel).unwrap(), (0, 2));
        q.complete();
        assert!(q.claim(&cancel).is_none(), "drained");
    }

    #[test]
    fn queue_waives_backoff_when_nothing_else_remains() {
        let q = Queue::new(vec![(7, 1)]);
        let cancel = CancelToken::new();
        assert_eq!(q.claim(&cancel).unwrap(), (7, 1));
        // Enormous backoff — but it's the only cell left, so the waiver
        // must hand it straight back instead of deadlocking.
        q.retry(7, 2, 1_000_000);
        assert_eq!(q.claim(&cancel).unwrap(), (7, 2));
        q.complete();
        assert!(q.claim(&cancel).is_none());
    }

    #[test]
    fn cancelled_queue_stops_claiming() {
        let q = Queue::new(vec![(0, 1), (1, 1)]);
        let cancel = CancelToken::new();
        assert!(q.claim(&cancel).is_some());
        cancel.cancel();
        assert!(q.claim(&cancel).is_none(), "cancel wins over fresh work");
    }

    fn test_cell(cca: CcaKind, mtu: u32) -> Cell {
        let xs = [1.0, 2.0];
        Cell {
            cca: cca.name().to_string(),
            mtu,
            energy_j: analysis::stats::Summary::of(&xs),
            power_w: analysis::stats::Summary::of(&xs),
            fct_s: analysis::stats::Summary::of(&xs),
            retx: analysis::stats::Summary::of(&xs),
            goodput_gbps: analysis::stats::Summary::of(&xs),
        }
    }

    #[test]
    fn append_failure_degrades_instead_of_killing_the_campaign() {
        let jobs = vec![(CcaKind::Cubic, 1500), (CcaKind::Reno, 3000)];
        let out = Supervisor {
            jobs: &jobs,
            fresh: vec![(0, 1), (1, 1)],
            prior_attempts: BTreeMap::new(),
            seeds: &[1, 2],
            transfer_bytes: 1,
            threads: 2,
            policy: RetryPolicy::default(),
            cancel: CancelToken::new(),
            journals: Journals::Failing,
            quarantine: QuarantineSink::new(None, Fingerprint::of(&crate::scale::Scale::quick())),
            reused: 0,
        }
        .run(&|cca, mtu, _b, _s| Ok(test_cell(cca, mtu)));
        assert_eq!(
            out.executed.len(),
            2,
            "both cells computed despite the dead journal"
        );
        assert!(out.executed.iter().all(|(_, r)| r.is_ok()));
        let reason = out.degraded.expect("degraded mode engaged");
        assert!(reason.contains("injected append failure"), "{reason}");
        assert_eq!(
            out.metrics.gauge("campaign_degraded", &obs::Labels::new()),
            Some(1.0),
            "the loud gauge is raised"
        );
        assert!(out.worker_panics.is_empty());
    }

    #[test]
    fn quarantine_sink_is_lazy() {
        let dir = std::env::temp_dir().join(format!("greenenvy-qsink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.jsonl");
        let fp = Fingerprint::of(&crate::scale::Scale::quick());
        let sink = QuarantineSink::new(Some(path.clone()), fp);
        assert!(!path.exists(), "no file until the first quarantine");
        sink.append(&QuarantineRecord {
            cca: "cubic".into(),
            mtu: 1500,
            attempts: vec![],
        })
        .unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
