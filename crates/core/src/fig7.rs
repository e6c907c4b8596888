//! **Figure 7 / §4.5** — energy vs. flow completion time.
//!
//! A scatter of every (CCA, MTU) run: energy is strongly, positively
//! driven by completion time, and the points fall into two clusters —
//! small-MTU runs (slow, expensive, upper right) and jumbo-MTU runs
//! (fast, cheap, lower left).

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// One scatter point (a cell mean).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Completion time (s).
    pub fct_s: f64,
    /// Energy (J).
    pub energy_j: f64,
    /// MTU of the run.
    pub mtu: u32,
}

/// Figure-7 projection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// The underlying campaign.
    pub matrix: Matrix,
    /// All points.
    pub points: Vec<ScatterPoint>,
    /// Pearson correlation of energy vs FCT (the paper calls it
    /// "strongly correlated").
    pub energy_fct_correlation: f64,
    /// Mean (fct, energy) of the MTU-1500 cluster.
    pub cluster_1500: (f64, f64),
    /// Mean (fct, energy) of the jumbo (>= 3000) cluster.
    pub cluster_jumbo: (f64, f64),
}

/// Project the campaign into Figure 7.
pub fn from_matrix(matrix: Matrix) -> Result {
    let points: Vec<ScatterPoint> = matrix
        .cells
        .iter()
        .map(|c| ScatterPoint {
            fct_s: c.fct_s.mean,
            energy_j: c.energy_j.mean,
            mtu: c.mtu,
        })
        .collect();
    let fct: Vec<f64> = points.iter().map(|p| p.fct_s).collect();
    let energy: Vec<f64> = points.iter().map(|p| p.energy_j).collect();
    let corr = analysis::stats::pearson(&fct, &energy);

    let cluster = |pred: &dyn Fn(u32) -> bool| -> (f64, f64) {
        let sel: Vec<&ScatterPoint> = points.iter().filter(|p| pred(p.mtu)).collect();
        if sel.is_empty() {
            return (0.0, 0.0);
        }
        (
            analysis::stats::mean(&sel.iter().map(|p| p.fct_s).collect::<Vec<_>>()),
            analysis::stats::mean(&sel.iter().map(|p| p.energy_j).collect::<Vec<_>>()),
        )
    };

    let cluster_1500 = cluster(&|m| m == 1500);
    let cluster_jumbo = cluster(&|m| m >= 3000);
    Result {
        points,
        energy_fct_correlation: corr,
        cluster_1500,
        cluster_jumbo,
        matrix,
    }
}

/// Run the campaign and project it.
pub fn run(scale: crate::scale::Scale) -> Result {
    from_matrix(crate::matrix::run_matrix(scale))
}

/// Render the scatter as rows.
pub fn render(result: &Result) -> String {
    let mut t = analysis::table::Table::new(["cca", "mtu", "fct (s)", "energy (J)"]);
    for cell in &result.matrix.cells {
        t.row([
            cell.cca.clone(),
            cell.mtu.to_string(),
            format!("{:.3}", cell.fct_s.mean),
            format!("{:.1}", cell.energy_j.mean),
        ]);
    }
    format!(
        "Figure 7 — energy vs flow completion time (all CCA x MTU cells)\n\n{t}\n\
         energy-vs-FCT correlation: {:.2} (paper: strongly positive)\n\
         MTU-1500 cluster: fct {:.3} s, {:.1} J | jumbo cluster: fct {:.3} s, {:.1} J\n",
        result.energy_fct_correlation,
        result.cluster_1500.0,
        result.cluster_1500.1,
        result.cluster_jumbo.0,
        result.cluster_jumbo.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MTUS;
    use cca::CcaKind;

    fn mini_matrix() -> Matrix {
        crate::matrix::mini_matrix(&[CcaKind::Bbr, CcaKind::Cubic, CcaKind::Baseline], &MTUS)
    }

    #[test]
    fn energy_rises_with_fct_and_clusters_separate() {
        let r = from_matrix(mini_matrix());
        assert!(
            r.energy_fct_correlation > 0.5,
            "energy must track completion time: {:.2}",
            r.energy_fct_correlation
        );
        // The 1500 cluster is slower and more expensive than the jumbo one.
        assert!(r.cluster_1500.0 > r.cluster_jumbo.0, "1500 cluster slower");
        assert!(
            r.cluster_1500.1 > r.cluster_jumbo.1,
            "1500 cluster costlier"
        );
    }

    #[test]
    fn render_has_all_cells() {
        let r = from_matrix(mini_matrix());
        let s = render(&r);
        assert!(s.contains("Figure 7"));
        assert!(s.matches("1500").count() >= 3);
    }
}
