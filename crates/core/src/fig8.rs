//! **Figure 8 / §4.5** — energy vs. retransmissions.
//!
//! Across CCAs and MTUs, more retransmissions mean more energy: the
//! paper computes a correlation of **0.47** excluding the wildly variable
//! BBR2 runs, with the no-CC baseline worst on both axes. Designing CCAs
//! that finish fast *and* lose little is an energy goal, not just a
//! performance one.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Figure-8 projection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// The underlying campaign.
    pub matrix: Matrix,
    /// Correlation of energy vs retransmission count, excluding bbr2
    /// (paper: 0.47).
    pub correlation_excl_bbr2: f64,
    /// Correlation including every cell.
    pub correlation_all: f64,
    /// The cell with the most retransmissions (name, mtu).
    pub most_retx: (String, u32),
}

/// Project the campaign into Figure 8.
pub fn from_matrix(matrix: Matrix) -> Result {
    let corr_of = |exclude_bbr2: bool| -> f64 {
        let cells: Vec<_> = matrix
            .cells
            .iter()
            .filter(|c| !(exclude_bbr2 && c.cca == "bbr2"))
            .collect();
        let retx: Vec<f64> = cells.iter().map(|c| c.retx.mean).collect();
        let energy: Vec<f64> = cells.iter().map(|c| c.energy_j.mean).collect();
        analysis::stats::pearson(&retx, &energy)
    };
    let most_retx = matrix
        .cells
        .iter()
        .max_by(|a, b| a.retx.mean.total_cmp(&b.retx.mean))
        .map(|c| (c.cca.clone(), c.mtu))
        .unwrap_or_default();

    Result {
        correlation_excl_bbr2: corr_of(true),
        correlation_all: corr_of(false),
        most_retx,
        matrix,
    }
}

/// Render the scatter as rows.
pub fn render(result: &Result) -> String {
    let mut t = analysis::table::Table::new(["cca", "mtu", "retransmissions", "energy (J)"]);
    for cell in &result.matrix.cells {
        t.row([
            cell.cca.clone(),
            cell.mtu.to_string(),
            format!("{:.0}", cell.retx.mean),
            format!("{:.1}", cell.energy_j.mean),
        ]);
    }
    format!(
        "Figure 8 — energy vs retransmissions (all CCA x MTU cells)\n\n{t}\n\
         correlation excl. bbr2: {:.2} (paper: 0.47) | incl. bbr2: {:.2}\n\
         most retransmissions: {} @ MTU {}\n",
        result.correlation_excl_bbr2,
        result.correlation_all,
        result.most_retx.0,
        result.most_retx.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;

    /// At MTU 9000 retransmission differences are sharpest.
    fn mini_matrix() -> Matrix {
        crate::matrix::mini_matrix(
            &[
                CcaKind::Bbr,
                CcaKind::Vegas,
                CcaKind::Cubic,
                CcaKind::Baseline,
            ],
            &[9000],
        )
    }

    #[test]
    fn baseline_dominates_retransmissions_and_correlation_is_positive() {
        let r = from_matrix(mini_matrix());
        assert_eq!(r.most_retx.0, "baseline");
        assert!(
            r.correlation_excl_bbr2 > 0.3,
            "retx-energy correlation should be positive: {:.2}",
            r.correlation_excl_bbr2
        );
    }

    #[test]
    fn render_reports_both_correlations() {
        let r = from_matrix(mini_matrix());
        let s = render(&r);
        assert!(s.contains("Figure 8"));
        assert!(s.contains("excl. bbr2"));
    }
}
