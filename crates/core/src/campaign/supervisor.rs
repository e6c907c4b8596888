//! Campaign supervision: one attempt per pending cell per campaign life.
//!
//! The per-cell story behind [`super::run_campaign_with_runner`]; the
//! cells themselves run on the one ordered parallel map every grid in
//! the workspace uses ([`workload::par::par_map_with_threads`]). A cell
//! is a pure function of `(cca, mtu, bytes, seeds)`, so running it twice
//! on the same seeds fails twice, and running it on other seeds would
//! report numbers from a schedule the matrix does not declare. The
//! supervisor therefore owns a short failure story:
//!
//! * **one call per cell** — each pending cell is one item of the map,
//!   in canonical job order; once the campaign is cancelled, the items
//!   not yet started are skipped;
//! * **per-cell panic containment** — each cell runs on the declared
//!   seeds under `catch_unwind`; a panic becomes a failure carrying the
//!   cell's coordinates and cannot take the worker (and with it the
//!   campaign) down;
//! * **one record per cell** — the outcome is one `cell` or `failed`
//!   record in journal shard `slot % shards`, where `slot` is the cell's
//!   position in the pending list; a later `--resume` reuses the cell or
//!   re-runs the failure on the same seeds;
//! * **graceful degradation** — a journal *append* failure (disk full,
//!   EROFS) downgrades from fatal to degraded mode: the campaign keeps
//!   computing with in-memory checkpoints, raises the
//!   `campaign_degraded` gauge, and the campaign command exits with a
//!   distinct code. (Journal *creation* failures are still fatal — a
//!   campaign that never had durability is a configuration error.)
//!
//! A panic outside the per-cell containment is a supervisor bug: the map
//! finishes the other cells, joins every worker and re-raises it on the
//! caller.

use super::cancel::CancelToken;
use super::journal::{Entry, Writer};
use crate::matrix::{Cell, CellError, CellFailure};
use cca::CcaKind;
use obs::{labels, MetricsRegistry, MetricsSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use workload::par::par_map_with_threads;

/// Lock a mutex, recovering the data from a poisoned lock. Supervisor
/// state stays consistent across a poisoning panic because every
/// critical section is a handful of plain writes.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A campaign has no retry schedule: every pending cell runs once per
/// life, on the declared seeds. The type is kept, field-less, only
/// because `benchmark/src/{product,probes,workloads}.rs` name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy;

/// The supervision section of a [`super::CampaignReport`].
#[derive(Clone, Debug)]
pub struct SupervisionReport {
    /// The cells that failed in this invocation, in canonical job order —
    /// the same records as the matrix's `failed`. Kept only because
    /// `benchmark/src/workloads.rs` reads it.
    pub quarantined: Vec<CellFailure>,
    /// `Some(reason)` when the campaign degraded to in-memory
    /// checkpoints after a journal append failure. The matrix is still
    /// complete and correct — but nothing after the failure is durable,
    /// so a resume would re-run those cells.
    pub degraded: Option<String>,
    /// Supervisor metrics (`campaign_cells_completed_total`,
    /// `campaign_quarantined_total`, `campaign_degraded`, …), frozen at
    /// campaign end.
    pub metrics: MetricsSnapshot,
}

/// Where cell outcomes are checkpointed.
pub(super) enum Journals {
    /// No durability (the plain-matrix path).
    None,
    /// Shard `slot % shards` takes the cell at `slot`: two workers
    /// share a shard only when their slots are congruent, and its mutex
    /// serializes their appends.
    Sharded(Vec<Mutex<Writer>>),
    /// Test-only: every append fails, exercising degraded mode without
    /// needing a genuinely full disk.
    #[cfg(test)]
    Failing,
}

/// Everything the supervisor needs to run a campaign's pending cells.
pub(super) struct Supervisor<'a> {
    /// The canonical CCA × MTU job list.
    pub jobs: &'a [(CcaKind, u32)],
    /// Pending job indices, in canonical order.
    pub pending: Vec<usize>,
    /// The declared seed schedule every cell runs on.
    pub seeds: &'a [u64],
    /// Bytes per transfer.
    pub transfer_bytes: u64,
    /// Worker count of the map.
    pub threads: usize,
    /// Cooperative cancellation.
    pub cancel: CancelToken,
    /// Outcome checkpoints.
    pub journals: Journals,
    /// Cells reused from the journal (for the metrics snapshot).
    pub reused: usize,
}

/// What the supervised cells produced.
pub(super) struct Supervised {
    /// One `Cell` or `Failed` entry per executed job, by job index, in
    /// pending order.
    pub executed: Vec<(usize, Entry)>,
    /// Degradation reason, if a journal append failed.
    pub degraded: Option<String>,
    /// Supervisor metrics frozen once every cell has returned.
    pub metrics: MetricsSnapshot,
}

impl Supervisor<'_> {
    /// Checkpoint the entry of the cell at `slot` to its shard, degrading
    /// (not failing) on I/O errors. The first failure wins, flips the
    /// `campaign_degraded` gauge, and announces loudly; journaling stops
    /// but the campaign keeps computing.
    fn checkpoint(
        &self,
        slot: usize,
        entry: &Entry,
        degraded: &Mutex<Option<String>>,
        metrics: &Mutex<MetricsRegistry>,
    ) {
        if relock(degraded).is_some() {
            return; // already degraded: in-memory only
        }
        // Only the shard's own lock is held across the append: workers on
        // different shards fsync concurrently.
        let result = match &self.journals {
            Journals::None => Ok(()),
            Journals::Sharded(ws) => match ws.get(slot % ws.len().max(1)) {
                Some(w) => relock(w).append(entry),
                None => Ok(()),
            },
            #[cfg(test)]
            Journals::Failing => Err(super::journal::JournalError {
                path: std::path::PathBuf::from("/test/failing-journal"),
                source: std::io::Error::other("injected append failure"),
            }),
        };
        let Err(error) = result else { return };
        let mut reason = relock(degraded);
        if reason.is_none() {
            *reason = Some(error.to_string());
            relock(metrics).gauge_set("campaign_degraded", labels([]), 1.0);
            eprintln!(
                "campaign: journal append failed ({error}); \
                 degrading to in-memory checkpoints — results stay \
                 correct but are no longer crash-durable"
            );
        }
    }

    /// Run one cell on the declared seeds, containing a panic.
    fn attempt<F>(&self, job: usize, runner: &F) -> Entry
    where
        F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
    {
        let (cca, mtu) = self.jobs[job];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            runner(cca, mtu, self.transfer_bytes, self.seeds)
        }));
        let error = match caught {
            Ok(Ok(cell)) => return Entry::Cell(cell),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!(
                "{} @ mtu {mtu} seed {}: panicked: {}",
                cca.name(),
                self.seeds.first().copied().unwrap_or(0),
                super::panic_text(payload.as_ref()),
            ),
        };
        Entry::Failed(CellFailure {
            cca: cca.name().to_string(),
            mtu,
            error,
        })
    }

    /// Run every pending cell (or, once cancelled, skip the rest).
    pub(super) fn run<F>(self, runner: &F) -> Supervised
    where
        F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
    {
        let metrics = Mutex::new(MetricsRegistry::new());
        if self.reused > 0 {
            relock(&metrics).counter_add(
                "campaign_cells_reused_total",
                labels([]),
                self.reused as u64,
            );
        }
        let degraded: Mutex<Option<String>> = Mutex::new(None);

        let slots: Vec<(usize, usize)> = self.pending.iter().copied().enumerate().collect();
        let outcomes = par_map_with_threads(&slots, self.threads, |&(slot, job)| {
            if self.cancel.is_cancelled() {
                return None;
            }
            let entry = self.attempt(job, runner);
            self.checkpoint(slot, &entry, &degraded, &metrics);
            let (name, labels) = match &entry {
                Entry::Cell(_) => ("campaign_cells_completed_total", labels([])),
                Entry::Failed(f) => (
                    "campaign_quarantined_total",
                    labels([("cca", f.cca.clone())]),
                ),
            };
            relock(&metrics).counter_add(name, labels, 1);
            Some((job, entry))
        });

        let degraded = relock(&degraded).take();
        // The registry clocks at sim instant 0: the supervisor has no
        // sim clock, and wall time has no place in a deterministic
        // artifact.
        let metrics = relock(&metrics).snapshot(0);
        Supervised {
            executed: outcomes.into_iter().flatten().collect(),
            degraded,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            pending: vec![0, 1],
            seeds: &[1, 2],
            transfer_bytes: 1,
            threads: 2,
            cancel: CancelToken::new(),
            journals: Journals::Failing,
            reused: 0,
        }
        .run(&|cca, mtu, _b, _s| Ok(test_cell(cca, mtu)));
        assert_eq!(
            out.executed.len(),
            2,
            "both cells computed despite the dead journal"
        );
        assert!(out
            .executed
            .iter()
            .all(|(_, e)| matches!(e, Entry::Cell(_))));
        let reason = out.degraded.expect("degraded mode engaged");
        assert!(reason.contains("injected append failure"), "{reason}");
        assert_eq!(
            out.metrics.gauge("campaign_degraded", &obs::Labels::new()),
            Some(1.0),
            "the loud gauge is raised"
        );
    }
}
