//! **Figure 6 / §4.3** — average *power* per CCA, and the
//! energy-vs-power anticorrelation.
//!
//! The paper's twist: the ordering by power differs drastically from the
//! ordering by energy — the correlation between total energy and average
//! power is ≈ **-0.8**. Hosts that draw less power per second (the BBR2
//! alpha, the baseline) take so much longer that they spend more energy
//! in total; "hosts may spend less energy per unit of time, but take
//! longer to complete and end up spending more energy in total".

use crate::matrix::{Matrix, MTUS};
use serde::{Deserialize, Serialize};

/// Figure-6 projection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// The underlying campaign.
    pub matrix: Matrix,
    /// Pearson correlation of energy vs power across CCAs at MTU 1500 —
    /// the configuration whose ordering the paper's §4.3 text discusses
    /// (the paper reports ≈ -0.8). Negative because the slow, low-power
    /// outliers (bbr2, baseline) dominate total energy.
    pub energy_power_correlation: f64,
    /// The same correlation across every cell of the campaign (mixes the
    /// MTU effect, which is positively correlated, into the CCA effect).
    pub correlation_all_cells: f64,
    /// Max/min power ratio across CCAs at MTU 1500 (the paper's "about
    /// 14%" spread corresponds to a ratio of ~1.14).
    pub power_spread_1500: f64,
}

/// Project the campaign into Figure 6.
pub fn from_matrix(matrix: Matrix) -> Result {
    let energies: Vec<f64> = matrix.cells.iter().map(|c| c.energy_j.mean).collect();
    let powers: Vec<f64> = matrix.cells.iter().map(|c| c.power_w.mean).collect();
    let correlation_all_cells = analysis::stats::pearson(&energies, &powers);

    let cells_1500 = matrix.at_mtu(1500);
    let e1500: Vec<f64> = cells_1500.iter().map(|c| c.energy_j.mean).collect();
    let p1500: Vec<f64> = cells_1500.iter().map(|c| c.power_w.mean).collect();
    let corr = analysis::stats::pearson(&e1500, &p1500);

    let at_1500: Vec<f64> = p1500.clone();
    let spread = if at_1500.is_empty() {
        1.0
    } else {
        let max = at_1500.iter().cloned().fold(f64::MIN, f64::max);
        let min = at_1500.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    };

    Result {
        matrix,
        energy_power_correlation: corr,
        correlation_all_cells,
        power_spread_1500: spread,
    }
}

/// Run the campaign and project it.
pub fn run(scale: crate::scale::Scale) -> Result {
    from_matrix(crate::matrix::run_matrix(scale))
}

/// Render the paper-style grouped bars as a table.
pub fn render(result: &Result) -> String {
    let mut header = vec!["cca".to_string()];
    header.extend(MTUS.iter().map(|m| format!("P@{m} (W)")));
    let mut t = analysis::table::Table::new(header);
    for cca in crate::fig5::kinds_in(&result.matrix) {
        let mut row = vec![cca.name().to_string()];
        for mtu in MTUS {
            let cell = result.matrix.cell(cca, mtu).expect("cell");
            row.push(format!(
                "{:.2} ± {:.2}",
                cell.power_w.mean, cell.power_w.std
            ));
        }
        t.row(row);
    }
    format!(
        "Figure 6 — rate of energy consumption (power) per CCA\n\n{t}\n\
         energy-vs-power correlation across CCAs at MTU 1500: {:.2} (paper: -0.8)\n\
         same correlation across all cells (MTU effect included): {:.2}\n\
         CCA power spread at MTU 1500: {:.1}% (paper: ~14%)\n",
        result.energy_power_correlation,
        result.correlation_all_cells,
        (result.power_spread_1500 - 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;

    fn mini_matrix() -> Matrix {
        crate::matrix::mini_matrix(
            &[
                CcaKind::Bbr,
                CcaKind::Cubic,
                CcaKind::Baseline,
                CcaKind::Bbr2,
            ],
            &MTUS,
        )
    }

    #[test]
    fn energy_and_power_anticorrelate_at_mtu_1500() {
        // At MTU 1500 the slow, low-power outlier (the bbr2 alpha)
        // dominates total energy while fast bbr draws the most power:
        // the correlation must be negative, as in the paper's §4.3.
        let r = from_matrix(mini_matrix());
        assert!(
            r.energy_power_correlation < -0.3,
            "energy/power correlation at 1500 should be negative: {:.2}",
            r.energy_power_correlation
        );
    }

    #[test]
    fn render_reports_the_correlation() {
        let r = from_matrix(mini_matrix());
        let s = render(&r);
        assert!(s.contains("Figure 6"));
        assert!(s.contains("correlation"));
    }
}
