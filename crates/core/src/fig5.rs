//! **Figure 5 / §4.3-4.4** — total energy per CCA to transmit the test
//! volume, across MTUs.
//!
//! The paper's findings: (a) every algorithm except the BBR2 alpha uses
//! 8.2-14.2% *less* energy than the no-CC baseline; (b) raising the MTU
//! from 1500 to 9000 cuts energy by 13.4-31.9%; (c) the BBR versions
//! differ by ~40%.

use crate::matrix::{Matrix, MTUS};
use cca::CcaKind;
use serde::{Deserialize, Serialize};

/// Figure-5 projection of the campaign matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// The underlying campaign.
    pub matrix: Matrix,
    /// Per-CCA energy saving of MTU 9000 over MTU 1500 (%), the §4.4
    /// claim (13.4-31.9% in the paper).
    pub mtu_savings_pct: Vec<(String, f64)>,
    /// Per-CCA energy relative to the baseline at MTU 9000 (%, negative
    /// means cheaper than baseline) — the §4.3 claim.
    pub vs_baseline_pct: Vec<(String, f64)>,
    /// Energy ratio bbr2 / bbr at MTU 9000 (the ~1.4x version gap).
    pub bbr2_over_bbr: f64,
}

/// The algorithms present in a campaign, in registry (Figure 5) order.
pub fn kinds_in(matrix: &Matrix) -> Vec<CcaKind> {
    CcaKind::ALL
        .into_iter()
        .filter(|&k| matrix.cell(k, 9000).is_some())
        .collect()
}

/// Project the campaign into Figure 5.
pub fn from_matrix(matrix: Matrix) -> Result {
    let kinds = kinds_in(&matrix);
    let energy = |cca: CcaKind, mtu: u32| -> f64 {
        matrix
            .cell(cca, mtu)
            .expect("campaign covers all cells")
            .energy_j
            .mean
    };

    let mtu_savings_pct = kinds
        .iter()
        .map(|&k| {
            let e1500 = energy(k, 1500);
            let e9000 = energy(k, 9000);
            (k.name().to_string(), 100.0 * (e1500 - e9000) / e1500)
        })
        .collect();

    let base = energy(CcaKind::Baseline, 9000);
    let vs_baseline_pct = kinds
        .iter()
        .filter(|&&k| k != CcaKind::Baseline)
        .map(|&k| {
            let e = energy(k, 9000);
            (k.name().to_string(), 100.0 * (e - base) / base)
        })
        .collect();

    let bbr2_over_bbr = energy(CcaKind::Bbr2, 9000) / energy(CcaKind::Bbr, 9000);

    Result {
        matrix,
        mtu_savings_pct,
        vs_baseline_pct,
        bbr2_over_bbr,
    }
}

/// Render the paper-style grouped bars as a table (kJ, scaled to the
/// paper's 50 GB for comparability).
pub fn render(result: &Result) -> String {
    let factor = (50.0 * 1e9) / result.matrix.transfer_bytes as f64;
    let mut header = vec!["cca".to_string()];
    header.extend(MTUS.iter().map(|m| format!("E@{m} (kJ/50GB)")));
    let mut t = analysis::table::Table::new(header);
    for cca in kinds_in(&result.matrix) {
        let mut row = vec![cca.name().to_string()];
        for mtu in MTUS {
            let cell = result.matrix.cell(cca, mtu).expect("cell");
            row.push(format!(
                "{:.3} ± {:.3}",
                cell.energy_j.mean * factor / 1000.0,
                cell.energy_j.std * factor / 1000.0
            ));
        }
        t.row(row);
    }
    let mut out = format!(
        "Figure 5 — average energy per CCA to transmit 50 GB (scaled from {} GB runs)\n\n{t}\n",
        result.matrix.transfer_bytes as f64 / 1e9
    );
    out.push_str("\nMTU 1500 -> 9000 energy savings (paper: 13.4%..31.9%):\n");
    for (name, pct) in &result.mtu_savings_pct {
        out.push_str(&format!("  {name:>10}: {pct:5.1}%\n"));
    }
    out.push_str("\nEnergy vs baseline at MTU 9000 (paper: CCAs 8.2-14.2% below, bbr2 above):\n");
    for (name, pct) in &result.vs_baseline_pct {
        out.push_str(&format!("  {name:>10}: {pct:+5.1}%\n"));
    }
    out.push_str(&format!(
        "\nbbr2 / bbr energy ratio at MTU 9000: {:.2} (paper: ~1.4)\n",
        result.bbr2_over_bbr
    ));
    let bars: Vec<(String, f64)> = kinds_in(&result.matrix)
        .into_iter()
        .map(|k| {
            let cell = result.matrix.cell(k, 1500).expect("cell");
            (k.name().to_string(), cell.energy_j.mean * factor / 1000.0)
        })
        .collect();
    out.push_str("\nEnergy at MTU 1500 (kJ per 50 GB):\n");
    out.push_str(&analysis::chart::bar_chart(&bars, 44, "kJ"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature four-MTU, four-CCA campaign for fast assertions.
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
    fn headline_relations_hold() {
        let r = from_matrix(mini_matrix());

        // (a) real CCAs beat the baseline at MTU 9000.
        for (name, pct) in &r.vs_baseline_pct {
            if name == "bbr2" {
                continue;
            }
            assert!(
                *pct < 0.0,
                "{name} should use less energy than baseline: {pct:+.1}%"
            );
        }

        // (b) jumbo frames save energy for every algorithm.
        for (name, pct) in &r.mtu_savings_pct {
            assert!(*pct > 5.0, "{name} MTU saving {pct:.1}% too small");
        }

        // (c) the BBR version gap.
        assert!(
            r.bbr2_over_bbr > 1.05,
            "bbr2 must cost more than bbr: {:.2}",
            r.bbr2_over_bbr
        );
    }

    #[test]
    fn render_mentions_every_cca() {
        let r = from_matrix(mini_matrix());
        let s = render(&r);
        for name in ["bbr", "cubic", "baseline", "bbr2"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
