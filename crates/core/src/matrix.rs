//! The shared CCA × MTU measurement matrix behind Figures 5-8.
//!
//! The paper's §4.3-4.5 figures all come from one campaign: transmit a
//! fixed volume with each of the ten CCAs at each of four MTUs, ten times
//! each, recording energy, power, completion time, and retransmissions.
//! [`run_matrix`] executes that campaign once; the figure modules render
//! different projections of it.

use crate::scale::Scale;
use analysis::stats::Summary;
use cca::CcaKind;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// The paper's MTU sweep (§4.4).
pub const MTUS: [u32; 4] = [1500, 3000, 6000, 9000];

/// Version stamp written into every serialized [`Matrix`]. Bump when the
/// result layout (or the meaning of a field) changes, so a reader of a
/// written matrix can tell the layouts apart.
pub const MATRIX_SCHEMA_VERSION: u32 = 2;

/// One repetition of one cell failed, with enough context to re-run it.
#[derive(Clone, Debug)]
pub enum CellError {
    /// The scenario returned an error, the flow aborted, or the
    /// simulator panicked outright.
    Failed {
        /// The algorithm the cell was measuring.
        cca: CcaKind,
        /// The MTU the cell was measuring.
        mtu: u32,
        /// The seed of the repetition that failed.
        seed: u64,
        /// What went wrong (scenario error or panic text).
        message: String,
    },
    /// The cell blew its per-cell wall-clock budget
    /// ([`CellPolicy::wall_deadline`]).
    DeadlineExceeded {
        /// The algorithm the cell was measuring.
        cca: CcaKind,
        /// The MTU the cell was measuring.
        mtu: u32,
        /// The seed of the repetition that was running when time ran out.
        seed: u64,
        /// The budget the whole cell had.
        budget: std::time::Duration,
    },
    /// Paranoid mode caught the simulator breaking one of its own laws
    /// (see [`crate::campaign::invariant`]).
    InvariantViolation {
        /// The algorithm the cell was measuring.
        cca: CcaKind,
        /// The MTU the cell was measuring.
        mtu: u32,
        /// The seed of the repetition that broke the law.
        seed: u64,
        /// Which law, and the numbers that broke it.
        detail: String,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Failed {
                cca,
                mtu,
                seed,
                message,
            } => {
                write!(f, "{} @ mtu {mtu} seed {seed}: {message}", cca.name())
            }
            CellError::DeadlineExceeded {
                cca,
                mtu,
                seed,
                budget,
            } => write!(
                f,
                "{} @ mtu {mtu} seed {seed}: cell deadline of {budget:?} exceeded",
                cca.name()
            ),
            CellError::InvariantViolation {
                cca,
                mtu,
                seed,
                detail,
            } => {
                write!(f, "{} @ mtu {mtu} seed {seed}: {detail}", cca.name())
            }
        }
    }
}

impl std::error::Error for CellError {}

/// A cell whose run on the declared seeds failed, as recorded in the
/// emitted (partial) matrix and in journal `failed` records. A plain
/// struct because the vendored serde derive only handles structs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellFailure {
    /// Algorithm name.
    pub cca: String,
    /// MTU in bytes.
    pub mtu: u32,
    /// The failure's description (includes the seed).
    pub error: String,
}

/// One (CCA, MTU) cell, summarized over repetitions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Algorithm name.
    pub cca: String,
    /// MTU in bytes.
    pub mtu: u32,
    /// Sender energy over the experiment window (J).
    pub energy_j: Summary,
    /// Average sender power (W).
    pub power_w: Summary,
    /// Flow completion time (s) — the paper's "iperf time".
    pub fct_s: Summary,
    /// Retransmitted segments.
    pub retx: Summary,
    /// Mean goodput (Gb/s).
    pub goodput_gbps: Summary,
}

impl Cell {
    /// The algorithm of this cell.
    pub fn kind(&self) -> CcaKind {
        CcaKind::from_name(&self.cca).expect("cell names come from the registry")
    }
}

/// The full campaign result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Matrix {
    /// Result-file layout version ([`MATRIX_SCHEMA_VERSION`]), for
    /// readers of the written file.
    pub schema_version: u32,
    /// Bytes per transfer the campaign ran at.
    pub transfer_bytes: u64,
    /// Repetitions per cell.
    pub repetitions: usize,
    /// The exact seed list every cell ran with, so a written matrix names
    /// its seed schedule and not only the scale's size parameters.
    pub seeds: Vec<u64>,
    /// All cells, ordered by `MTUS` within the paper's Figure-5 CCA order.
    /// Cells that failed are absent; see `failed`.
    pub cells: Vec<Cell>,
    /// Cells whose run on `seeds` failed. A non-empty list means the
    /// matrix is partial: present cells are still valid.
    pub failed: Vec<CellFailure>,
}

impl Matrix {
    /// The cell for a given algorithm and MTU.
    pub fn cell(&self, cca: CcaKind, mtu: u32) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.cca == cca.name() && c.mtu == mtu)
    }

    /// All cells at one MTU, in campaign order.
    pub fn at_mtu(&self, mtu: u32) -> Vec<&Cell> {
        self.cells.iter().filter(|c| c.mtu == mtu).collect()
    }

    /// True when every cell of the campaign produced a result.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Per-cell execution policy: the durability-layer knobs that apply
/// inside a single cell. [`Default`] (no deadline, no paranoia, no
/// tracing) is the historical behaviour.
#[derive(Clone, Debug, Default)]
pub struct CellPolicy {
    /// Wall-clock budget for the whole cell (all repetitions share it).
    pub wall_deadline: Option<std::time::Duration>,
    /// Audit every repetition with [`crate::campaign::invariant::check`].
    pub paranoid: bool,
    /// Persist per-repetition observability artifacts (Perfetto trace,
    /// Prometheus snapshot, and — on failure — the flight-ring dump)
    /// into this directory. `None` runs uninstrumented.
    pub trace_out: Option<std::path::PathBuf>,
}

/// Run one (CCA, MTU) cell with the default [`CellPolicy`].
///
/// A repetition that fails — whether the scenario returns an error or
/// the simulator panics outright — surfaces as a [`CellError`] naming
/// the exact `(cca, mtu, seed)` instead of killing the campaign.
pub fn run_cell(cca: CcaKind, mtu: u32, bytes: u64, seeds: &[u64]) -> Result<Cell, CellError> {
    run_cell_with(cca, mtu, bytes, seeds, CellPolicy::default())
}

/// [`run_cell`] under an explicit policy: an optional wall-clock budget
/// shared by the cell's repetitions (the unspent remainder rolls into
/// each next repetition), and optional paranoid-mode physics audits. A
/// `--trace-out` artifact that fails to persist is a warning on stderr.
pub fn run_cell_with(
    cca: CcaKind,
    mtu: u32,
    bytes: u64,
    seeds: &[u64],
    policy: CellPolicy,
) -> Result<Cell, CellError> {
    run_cell_persisting(cca, mtu, bytes, seeds, &policy, &|lost| {
        eprintln!("warning: trace lost: {lost}")
    })
}

/// [`run_cell_with`], handing each repetition whose `--trace-out`
/// artifacts failed to persist to `lost`, as `"<label>: trace-out:
/// <error>"`. A lost artifact costs its sidecar, never the measurement:
/// the cell still completes.
pub fn run_cell_persisting(
    cca: CcaKind,
    mtu: u32,
    bytes: u64,
    seeds: &[u64],
    policy: &CellPolicy,
    lost: &dyn Fn(String),
) -> Result<Cell, CellError> {
    let deadline = policy
        .wall_deadline
        .map(|budget| (std::time::Instant::now() + budget, budget));
    let mut energy = Vec::new();
    let mut power = Vec::new();
    let mut fct = Vec::new();
    let mut retx = Vec::new();
    let mut goodput = Vec::new();
    for &seed in seeds {
        let mut scenario = Scenario::new(mtu, vec![FlowSpec::bulk(cca, bytes)]).with_seed(seed);
        if policy.trace_out.is_some() {
            scenario = scenario
                .with_observability()
                .with_trace(netsim::time::SimDuration::from_millis(10));
        }
        if let Some((at, budget)) = deadline {
            let remaining = at.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(CellError::DeadlineExceeded {
                    cca,
                    mtu,
                    seed,
                    budget,
                });
            }
            scenario = scenario.with_wall_deadline(remaining);
        }
        let cell_err = |message: String| CellError::Failed {
            cca,
            mtu,
            seed,
            message,
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            workload::scenario::run(&scenario)
        }))
        .map_err(|payload| cell_err(crate::campaign::panic_text(payload.as_ref())))?
        .map_err(|e| match e {
            ScenarioError::DeadlineExceeded { budget: _, .. } => CellError::DeadlineExceeded {
                cca,
                mtu,
                seed,
                // Report the *cell's* budget, not the remainder this
                // repetition happened to inherit.
                budget: deadline.map(|(_, b)| b).unwrap_or_default(),
            },
            other => cell_err(other.to_string()),
        })?;
        if policy.paranoid {
            crate::campaign::invariant::check(&out, mtu).map_err(|v| {
                CellError::InvariantViolation {
                    cca,
                    mtu,
                    seed,
                    detail: v.to_string(),
                }
            })?;
        }
        let r = &out.reports[0];
        if let (Some(dir), Some(report)) = (&policy.trace_out, &out.obs) {
            let label = format!("{}_mtu{}_seed{}", cca.name(), mtu, seed);
            let aborted = !r.outcome.is_completed();
            if let Err(e) =
                crate::campaign::artifacts::persist_cell_obs(dir, &label, report, aborted)
            {
                lost(format!("{label}: trace-out: {e}"));
            }
        }
        if !r.outcome.is_completed() {
            return Err(cell_err(format!("flow {}", r.outcome)));
        }
        energy.push(out.sender_energy_j);
        power.push(out.average_sender_power_w());
        fct.push(r.fct.as_secs_f64());
        retx.push(r.retransmits as f64);
        goodput.push(r.mean_goodput.gbps());
    }
    Ok(Cell {
        cca: cca.name().to_string(),
        mtu,
        energy_j: Summary::of(&energy),
        power_w: Summary::of(&power),
        fct_s: Summary::of(&fct),
        retx: Summary::of(&retx),
        goodput_gbps: Summary::of(&goodput),
    })
}

/// Run the whole campaign at the given scale. Cells are independent
/// simulations, so they run across all available cores.
pub fn run_matrix(scale: Scale) -> Matrix {
    run_matrix_with_threads(scale, host_threads())
}

/// [`run_matrix`] with an explicit worker count (determinism tests pin
/// it; the campaign result must not depend on the thread schedule).
///
/// Workers pull the next unclaimed cell off a shared atomic counter
/// (work stealing) rather than taking a fixed stride: cell costs vary by
/// ~6× across MTUs (a 1500-byte-MTU transfer pushes six times the
/// packets of a 9000-byte one), so a static split leaves workers idle
/// behind whoever drew the expensive cells.
pub fn run_matrix_with_threads(scale: Scale, threads: usize) -> Matrix {
    run_matrix_with_runner(scale, threads, |cca, mtu, bytes, seeds| {
        run_cell(cca, mtu, bytes, seeds)
    })
}

/// [`run_matrix_with_threads`] with a pluggable cell runner — the
/// testing seam the failure-handling tests poison individual cells
/// through. Production paths always pass [`run_cell`].
///
/// Every cell runs once, on the declared seeds. A cell whose run fails
/// (or panics) is recorded in [`Matrix::failed`] and the campaign
/// carries on, so one poisoned configuration costs its own cell and
/// nothing else.
pub fn run_matrix_with_runner<F>(scale: Scale, threads: usize, runner: F) -> Matrix
where
    F: Fn(CcaKind, u32, u64, &[u64]) -> Result<Cell, CellError> + Sync,
{
    let opts = crate::campaign::CampaignOptions {
        threads,
        ..Default::default()
    };
    crate::campaign::run_campaign_with_runner(scale, opts, runner)
        .expect("no journal configured and cell panics are contained, so the campaign machinery cannot fail")
        .matrix
}

/// The fig5–fig8 unit tests' shared fixture: a one-seed, 250 MB campaign
/// over every cell those tests look at, simulated once per test binary.
/// Returns the sub-matrix of `ccas` × `mtus`, CCA-major like a real
/// campaign.
#[cfg(test)]
pub(crate) fn mini_matrix(ccas: &[CcaKind], mtus: &[u32]) -> Matrix {
    const BYTES: u64 = 250 * netsim::units::MB;
    const SEEDS: [u64; 1] = [1];
    static CELLS: std::sync::OnceLock<Vec<Cell>> = std::sync::OnceLock::new();
    let simulated = CELLS.get_or_init(|| {
        let every_mtu = [
            CcaKind::Bbr,
            CcaKind::Cubic,
            CcaKind::Baseline,
            CcaKind::Bbr2,
        ];
        let mut wanted: Vec<(CcaKind, u32)> = every_mtu
            .iter()
            .flat_map(|&cca| MTUS.map(|mtu| (cca, mtu)))
            .collect();
        wanted.push((CcaKind::Vegas, 9000));
        wanted
            .iter()
            .map(|&(cca, mtu)| run_cell(cca, mtu, BYTES, &SEEDS).expect("cell completes"))
            .collect()
    });
    let cell = |cca: CcaKind, mtu: u32| {
        simulated
            .iter()
            .find(|c| c.cca == cca.name() && c.mtu == mtu)
            .unwrap_or_else(|| panic!("the fixture does not simulate {} at MTU {mtu}", cca.name()))
            .clone()
    };
    Matrix {
        schema_version: MATRIX_SCHEMA_VERSION,
        transfer_bytes: BYTES,
        repetitions: SEEDS.len(),
        seeds: SEEDS.to_vec(),
        cells: ccas
            .iter()
            .flat_map(|&cca| mtus.iter().map(move |&mtu| (cca, mtu)))
            .map(|(cca, mtu)| cell(cca, mtu))
            .collect(),
        failed: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    #[test]
    fn cell_summarizes_repetitions() {
        let cell = run_cell(CcaKind::Cubic, 9000, 100 * MB, &[1, 2]).unwrap();
        assert_eq!(cell.energy_j.n, 2);
        assert!(cell.energy_j.mean > 0.0);
        assert!(cell.power_w.mean > 21.49, "active sender above idle");
        assert!(cell.goodput_gbps.mean > 8.0);
        assert_eq!(cell.kind(), CcaKind::Cubic);
    }

    #[test]
    fn matrix_lookup() {
        let m = Matrix {
            schema_version: MATRIX_SCHEMA_VERSION,
            transfer_bytes: 1,
            repetitions: 1,
            seeds: vec![1],
            cells: vec![
                run_cell(CcaKind::Reno, 9000, 50 * MB, &[1]).unwrap(),
                run_cell(CcaKind::Reno, 1500, 50 * MB, &[1]).unwrap(),
            ],
            failed: Vec::new(),
        };
        assert!(m.is_complete());
        assert!(m.cell(CcaKind::Reno, 9000).is_some());
        assert!(m.cell(CcaKind::Cubic, 9000).is_none());
        assert_eq!(m.at_mtu(1500).len(), 1);
    }

    /// A synthetic cell so runner-seam tests don't pay for simulations.
    fn stub_cell(cca: CcaKind, mtu: u32) -> Cell {
        let one = [1.0];
        Cell {
            cca: cca.name().to_string(),
            mtu,
            energy_j: Summary::of(&one),
            power_w: Summary::of(&one),
            fct_s: Summary::of(&one),
            retx: Summary::of(&one),
            goodput_gbps: Summary::of(&one),
        }
    }

    fn stub_err(cca: CcaKind, mtu: u32, seed: u64, message: &str) -> CellError {
        CellError::Failed {
            cca,
            mtu,
            seed,
            message: message.to_string(),
        }
    }

    #[test]
    fn poisoned_cells_yield_a_partial_matrix_listing_every_failure() {
        // Two poisoned configurations: the campaign must finish, keep
        // every healthy cell, and list both casualties — not die on the
        // first.
        let poisoned = [(CcaKind::Cubic, 1500), (CcaKind::Reno, 9000)];
        let m = run_matrix_with_runner(Scale::quick(), 4, |cca, mtu, _bytes, seeds| {
            if poisoned.contains(&(cca, mtu)) {
                Err(stub_err(cca, mtu, seeds[0], "poisoned"))
            } else {
                Ok(stub_cell(cca, mtu))
            }
        });
        assert!(!m.is_complete());
        assert_eq!(m.failed.len(), 2);
        assert_eq!(m.cells.len(), CcaKind::ALL.len() * MTUS.len() - 2);
        for (cca, mtu) in poisoned {
            assert!(m.cell(cca, mtu).is_none());
            let f = m
                .failed
                .iter()
                .find(|f| f.cca == cca.name() && f.mtu == mtu)
                .expect("failure recorded");
            assert!(f.error.contains("poisoned"), "{}", f.error);
        }
        // Healthy neighbours survived.
        assert!(m.cell(CcaKind::Cubic, 9000).is_some());
    }

    #[test]
    fn a_cell_failing_on_the_declared_seeds_runs_once_and_stays_failed() {
        // Fail (Bbr, 3000) only on the declared seed schedule; any other
        // seeds would succeed. The matrix reports only declared seeds, so
        // the cell must be failed, not rescued on a substitute schedule.
        let declared = Scale::quick().seeds();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let m = run_matrix_with_runner(Scale::quick(), 2, |cca, mtu, _bytes, seeds| {
            if (cca, mtu) != (CcaKind::Bbr, 3000) {
                return Ok(stub_cell(cca, mtu));
            }
            calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if seeds == declared.as_slice() {
                Err(stub_err(cca, mtu, seeds[0], "flaky"))
            } else {
                Ok(stub_cell(cca, mtu))
            }
        });
        assert_eq!(calls.into_inner(), 1, "one attempt per cell per life");
        assert!(m.cell(CcaKind::Bbr, 3000).is_none());
        assert_eq!(m.failed.len(), 1);
        assert_eq!((m.failed[0].cca.as_str(), m.failed[0].mtu), ("bbr", 3000));
        assert_eq!(m.seeds, declared);
        assert_eq!(m.cells.len(), CcaKind::ALL.len() * MTUS.len() - 1);
    }

    #[test]
    fn mtu_1500_consumes_more_energy_than_9000() {
        // The §4.4 headline at miniature scale.
        let seeds = [3u64];
        let big = run_cell(CcaKind::Cubic, 9000, 200 * MB, &seeds).unwrap();
        let small = run_cell(CcaKind::Cubic, 1500, 200 * MB, &seeds).unwrap();
        assert!(
            small.energy_j.mean > 1.1 * big.energy_j.mean,
            "1500: {} J vs 9000: {} J",
            small.energy_j.mean,
            big.energy_j.mean
        );
    }
}
