//! **Chaos experiment** — is the paper's headline robust to an imperfect
//! wire?
//!
//! The testbed behind Figures 1-8 has a perfect bottleneck: every loss is
//! congestive. Real links corrupt, drop, and flap. This experiment re-runs
//! the Figure-1 endpoints — the fair 50/50 split against the "full speed,
//! then idle" serial schedule — with random loss injected on the
//! bottleneck, sweeping the rate from 0 to 1%.
//!
//! Built on the [`scenario`] DSL: each endpoint is a declarative
//! [`ScenarioBuilder`] composition, and the energy ordering is checked
//! by a [`Expectation::SavingsOrdering`] expectation per seed — a
//! structured verdict with the measured savings, not an eyeballed
//! table. If every ordering check passes under loss, the unfairness
//! argument does not depend on a pristine wire.

use crate::campaign::persist::PersistError;
use crate::scale::Scale;
use analysis::stats::Summary;
use scenario::expect;
use scenario::prelude::*;
use serde::{Deserialize, Serialize};

/// The savings floor each per-seed ordering check asserts: serial must
/// undercut fair by at least this much (the paper's clean-wire headline
/// is ~2x bigger; the floor leaves room for loss-induced noise).
pub const MIN_SAVINGS_PCT: f64 = 2.0;

/// Configuration (at the calibration MTU).
#[derive(Clone, Debug)]
pub struct Config {
    /// Bytes per flow.
    pub per_flow_bytes: u64,
    /// Random loss probabilities to sweep (0 = the clean baseline).
    pub loss_rates: Vec<f64>,
    /// Seeds (one fair + one serial run per seed per rate).
    pub seeds: Vec<u64>,
    /// Persist per-run observability artifacts (Perfetto trace,
    /// Prometheus snapshot, flight dumps on abort) into this directory.
    /// `None` runs uninstrumented.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Config {
    /// The default sweep at the given scale: clean, 0.01%, 0.1%, 1%.
    pub fn at_scale(scale: Scale) -> Config {
        Config {
            per_flow_bytes: scale.two_flow_bytes,
            loss_rates: vec![0.0, 1e-4, 1e-3, 1e-2],
            seeds: scale.seeds(),
            trace_out: None,
        }
    }
}

/// One loss rate's measurements.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Injected random-loss probability.
    pub loss_rate: f64,
    /// Fair-split total sender energy (J).
    pub fair_energy_j: Summary,
    /// Serial-schedule total sender energy (J).
    pub serial_energy_j: Summary,
    /// Serial savings over fair (%), the Figure-1 headline quantity.
    pub savings_pct: Summary,
    /// Mean frames lost to the fault layer per fair run.
    pub injected_drops: f64,
    /// Mean retransmitted segments per fair run (all flows).
    pub retx: f64,
    /// The per-seed `savings_ordering` verdicts: each run's serial
    /// schedule checked against its fair baseline by the expectations
    /// engine (measured savings, target floor, pass/fail).
    pub ordering_checks: Vec<ExpectationReport>,
}

impl ChaosRow {
    /// Every seed's ordering check passed.
    pub fn ordering_holds(&self) -> bool {
        self.ordering_checks.iter().all(|c| c.passed)
    }
}

/// The sweep result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// One row per loss rate, in sweep order.
    pub rows: Vec<ChaosRow>,
    /// Observability artifacts that failed to persist, as
    /// `"<label>: <error>"` strings. A non-empty list means the sweep's
    /// *measurements* are complete but its trace sidecars are not: the
    /// run degraded instead of aborting (the chaos binary exits 5).
    pub persist_failures: Vec<String>,
}

/// Declare the sweep's two bulk CUBIC flows on the dumbbell, the swept
/// loss rate as a chaos phase, observability when `--trace-out` is
/// active. This is the fair endpoint; [`ScenarioSpec::serialized`] makes
/// it the serial one.
fn endpoint(cfg: &Config, name: &str, loss: f64, seed: u64) -> ScenarioSpec {
    let bulk = || Traffic::bulk(CcaKind::Cubic, cfg.per_flow_bytes);
    let mut b = ScenarioBuilder::new(name)
        .with_seed(seed)
        .traffic(bulk())
        .traffic(bulk());
    if loss > 0.0 {
        b = b.chaos(ChaosPhase::Loss { prob: loss });
    }
    if cfg.trace_out.is_some() {
        b = b
            .with_observability()
            .with_trace(SimDuration::from_millis(10));
    }
    b.build().expect("chaos endpoints are well-formed")
}

/// Persist one sweep run's artifacts (no-op unless `trace_out` is set).
fn persist_run(
    cfg: &Config,
    label: &str,
    run: &ScenarioRun,
) -> std::result::Result<(), PersistError> {
    if let (Some(dir), Some(report)) = (&cfg.trace_out, &run.obs) {
        let aborted = run
            .measured
            .reports
            .iter()
            .any(|r| !r.outcome.is_completed());
        crate::campaign::artifacts::persist_cell_obs(dir, label, report, aborted)?;
    }
    Ok(())
}

/// Run the sweep. An injected fault can kill a path outright (the flow
/// aborts, the scenario errors); that surfaces as an `Err` naming the
/// scenario instead of a panic in the middle of a campaign. Artifact
/// persistence is *not* load-bearing the same way: a dead `--trace-out`
/// disk degrades the run (failures collected in
/// [`Result::persist_failures`], sweep continues) rather than throwing
/// away the measurements already taken.
pub fn run(cfg: &Config) -> std::result::Result<Result, RunError> {
    let mut rows = Vec::with_capacity(cfg.loss_rates.len());
    let mut persist_failures = Vec::new();
    for (rate_idx, &loss) in cfg.loss_rates.iter().enumerate() {
        let mut fair_e = Vec::new();
        let mut serial_e = Vec::new();
        let mut savings = Vec::new();
        let mut drops = Vec::new();
        let mut retx = Vec::new();
        let mut checks = Vec::new();
        for &seed in &cfg.seeds {
            // The serial schedule is built on the *same lossy wire*: the
            // loss is part of the schedule being compared, not an
            // external disturbance.
            let fair = endpoint(cfg, "fair", loss, seed).run()?;
            let serial = endpoint(cfg, "serial", loss, seed).serialized()?.run()?;
            for (label, run) in [
                (format!("rate{rate_idx}_seed{seed}_fair"), &fair),
                (format!("rate{rate_idx}_seed{seed}_serial"), &serial),
            ] {
                if let Err(e) = persist_run(cfg, &label, run) {
                    eprintln!("warning: chaos trace for {label} lost: trace-out: {e}");
                    persist_failures.push(format!("{label}: trace-out: {e}"));
                }
            }

            // The Fig-1 ordering as a checked expectation: serial's
            // window-equalized energy must undercut fair's.
            let ordering = Expectation::SavingsOrdering {
                min_savings_pct: MIN_SAVINGS_PCT,
            }
            .evaluate(&serial.measured, Some(&fair.measured));
            let (se, fe) = expect::equalized_energy_j(&serial.measured, &fair.measured);
            fair_e.push(fe);
            serial_e.push(se);
            savings.push(ordering.measured);
            checks.push(ordering);
            drops.push(fair.measured.injected_drops as f64);
            retx.push(
                fair.measured
                    .reports
                    .iter()
                    .map(|r| r.retransmits)
                    .sum::<u64>() as f64,
            );
        }
        rows.push(ChaosRow {
            loss_rate: loss,
            fair_energy_j: Summary::of(&fair_e),
            serial_energy_j: Summary::of(&serial_e),
            savings_pct: Summary::of(&savings),
            injected_drops: drops.iter().sum::<f64>() / drops.len() as f64,
            retx: retx.iter().sum::<f64>() / retx.len() as f64,
            ordering_checks: checks,
        });
    }
    Ok(Result {
        rows,
        persist_failures,
    })
}

/// Render the paper-style table.
pub fn render(result: &Result) -> String {
    let mut t = analysis::table::Table::new([
        "loss rate (%)",
        "injected drops",
        "retx",
        "fair (J)",
        "serial (J)",
        "serial savings (%)",
        "ordering check",
    ]);
    for row in &result.rows {
        let passed = row.ordering_checks.iter().filter(|c| c.passed).count();
        t.row([
            format!("{:.2}", row.loss_rate * 100.0),
            format!("{:.0}", row.injected_drops),
            format!("{:.0}", row.retx),
            format!("{}", row.fair_energy_j),
            format!("{}", row.serial_energy_j),
            format!("{}", row.savings_pct),
            format!("{passed}/{} pass", row.ordering_checks.len()),
        ]);
    }
    format!(
        "Chaos — Figure-1 energy ordering under injected random loss\n\
         (fair 50/50 vs full-speed-then-idle; every seed's ordering is\n\
         checked by a savings_ordering expectation, floor {MIN_SAVINGS_PCT}%)\n\n{t}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    fn tiny() -> Config {
        Config {
            per_flow_bytes: 125 * MB,
            loss_rates: vec![0.0, 1e-3],
            seeds: vec![1],
            trace_out: None,
        }
    }

    #[test]
    fn energy_ordering_survives_injected_loss() {
        let r = run(&tiny()).expect("sweep completes");
        for row in &r.rows {
            assert!(
                row.savings_pct.mean > 5.0,
                "serial must stay cheaper at loss {}: {:?}",
                row.loss_rate,
                row.savings_pct
            );
            assert!(
                row.ordering_holds(),
                "every seed's savings_ordering check must pass at loss {}: {:?}",
                row.loss_rate,
                row.ordering_checks
            );
        }
        // And the savings stay in the same regime as the clean run.
        let delta = (r.rows[0].savings_pct.mean - r.rows[1].savings_pct.mean).abs();
        assert!(
            delta < 6.0,
            "0.1% loss must not move the headline by {delta} points"
        );
    }

    #[test]
    fn ordering_checks_carry_structured_verdicts() {
        let r = run(&tiny()).expect("sweep completes");
        for row in &r.rows {
            assert_eq!(row.ordering_checks.len(), 1, "one check per seed");
            let c = &row.ordering_checks[0];
            assert_eq!(c.name, "savings_ordering");
            assert_eq!(c.target, MIN_SAVINGS_PCT);
            assert!(
                (c.measured - row.savings_pct.mean).abs() < 1e-9,
                "the summarized savings are the checked savings"
            );
        }
    }

    #[test]
    fn drops_are_injected_only_when_requested() {
        let r = run(&tiny()).expect("sweep completes");
        assert_eq!(r.rows[0].injected_drops, 0.0, "clean wire");
        assert!(r.rows[1].injected_drops > 0.0, "0.1% loss must hit frames");
        assert!(
            r.rows[1].retx >= r.rows[1].injected_drops,
            "every injected data loss forces at least one retransmission"
        );
    }

    #[test]
    fn dead_trace_out_degrades_instead_of_aborting() {
        // Park the artifact directory under a regular file so every
        // persist attempt fails with a real I/O error.
        let blocker = std::env::temp_dir().join("greenenvy-chaos-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut cfg = tiny();
        cfg.loss_rates = vec![0.0];
        cfg.trace_out = Some(blocker.join("traces"));
        let r = run(&cfg).expect("measurements must survive a dead artifact disk");
        assert_eq!(r.rows.len(), 1, "the sweep itself still completes");
        assert_eq!(
            r.persist_failures.len(),
            2,
            "fair + serial traces both reported lost: {:?}",
            r.persist_failures
        );
        assert!(r.persist_failures[0].contains("rate0_seed1_fair"));
        assert!(r.persist_failures[1].contains("rate0_seed1_serial"));
        let _ = std::fs::remove_file(&blocker);
    }

    /// The `--trace-out` artifacts of two identical tiny sweeps are
    /// byte-identical, file by file.
    #[test]
    fn trace_out_is_byte_identical_across_runs() {
        let root = std::env::temp_dir().join(format!("greenenvy-chaos-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let sweep = |name: &str| {
            let dir = root.join(name);
            let cfg = Config {
                trace_out: Some(dir.clone()),
                ..Config::at_scale(Scale::tiny())
            };
            let r = run(&cfg).expect("sweep completes");
            assert!(r.persist_failures.is_empty(), "{:?}", r.persist_failures);
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
        };
        let (a, b) = (sweep("a"), sweep("b"));
        let traces = a
            .iter()
            .filter(|p| p.to_string_lossy().ends_with(".trace.json"));
        assert_eq!(traces.count(), 2 * Scale::tiny().seeds().len() * 4, "{a:?}");
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.file_name(), fb.file_name());
            let bytes = std::fs::read(fa).unwrap();
            assert!(
                bytes == std::fs::read(fb).unwrap(),
                "{fa:?} differs between runs"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn render_lists_every_rate() {
        let r = run(&tiny()).expect("sweep completes");
        let s = render(&r);
        assert!(s.contains("Chaos"));
        assert!(s.contains("0.00"));
        assert!(s.contains("0.10"));
        assert!(s.contains("1/1 pass"));
    }
}
