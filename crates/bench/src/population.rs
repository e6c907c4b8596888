//! Population-scale CCA-mix experiment: 10,000 CUBIC flows vs 1,000 BBR
//! flows (the content-provider mix ratio), run through the rack-sharded
//! population engine.
//!
//! The paper measures "unfair is greener" on a handful of flows; this
//! command asks the deployment-scale version of the question: when the
//! two algorithm populations share racks, how is goodput split between
//! them (Jain index, per-CCA means) and what does the energy bill per
//! delivered gigabyte look like?
//!
//! `GREENENVY_SCALE=paper|standard|quick|tiny cargo run --release -p
//! bench -- population` — paper/standard run the full 11,000-flow
//! `bulk_10k_flows` population; quick shrinks it 10x, tiny 100x. The
//! typed result lands in `results/population_mix_<scale>.json`.

use crate::args::{Args, Usage};
use crate::Ctx;
use greenenvy::Scale;
use serde::Serialize;
use workload::prelude::*;

#[derive(Serialize)]
struct CcaRow {
    cca: String,
    flows: usize,
    completed: usize,
    mean_goodput_gbps: f64,
    mean_fct_s: f64,
    retransmits: u64,
}

#[derive(Serialize)]
struct PopulationMix {
    scale: String,
    total_flows: usize,
    racks: usize,
    events_processed: u64,
    events_per_sec: f64,
    sim_end_s: f64,
    jain_fairness: f64,
    /// CUBIC mean goodput over BBR mean goodput: the mix's imbalance in
    /// one number (1.0 = perfectly fair split).
    goodput_ratio_cubic_over_bbr: f64,
    sender_energy_j: f64,
    receiver_energy_j: f64,
    /// Total sender+receiver energy per delivered application gigabyte.
    joules_per_gb: f64,
    rows: Vec<CcaRow>,
}

fn spec_at(scale: &Scale) -> PopulationSpec {
    match scale.name {
        "tiny" => PopulationSpec::bulk_10k_flows_tiny(),
        // 10x down: same mix, same per-flow size, fewer racks.
        "quick" => PopulationSpec::new(1_100, PopulationSpec::bulk_10k_flows().mix)
            .with_grid(4, 10)
            .with_bytes_per_flow(1_000_000)
            .with_seed(6),
        _ => PopulationSpec::bulk_10k_flows(),
    }
}

/// The `population` command.
pub fn run(ctx: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    println!(
        "=== population mix (10 CUBIC : 1 BBR) | scale: {} ===\n",
        scale.name
    );
    let spec = spec_at(&scale);
    // Racks run on every core; the thread count moves `events_per_sec`
    // and nothing else in the result.
    let out = run_population(&spec).unwrap_or_else(|e| panic!("population run: {e}"));

    let mut rows = Vec::new();
    for (cca, mean_gbps) in out.goodput_by_cca() {
        let flows: Vec<_> = out.reports.iter().filter(|r| r.cca == cca).collect();
        let completed = flows.iter().filter(|r| r.outcome.is_completed()).count();
        let mean_fct_s =
            flows.iter().map(|r| r.fct.as_secs_f64()).sum::<f64>() / flows.len().max(1) as f64;
        rows.push(CcaRow {
            cca: format!("{cca:?}"),
            flows: flows.len(),
            completed,
            mean_goodput_gbps: mean_gbps,
            mean_fct_s,
            retransmits: flows.iter().map(|r| r.retransmits).sum(),
        });
    }
    let gbps = |name: &str| {
        rows.iter()
            .find(|r| r.cca == name)
            .map(|r| r.mean_goodput_gbps)
    };
    let ratio = match (gbps("Cubic"), gbps("Bbr")) {
        (Some(c), Some(b)) if b > 0.0 => c / b,
        _ => f64::NAN,
    };
    let delivered_gb: f64 = out
        .reports
        .iter()
        .map(|r| r.bytes_acked as f64)
        .sum::<f64>()
        / 1e9;
    let result = PopulationMix {
        scale: scale.name.to_string(),
        total_flows: spec.total_flows,
        racks: spec.racks,
        events_processed: out.events_processed,
        events_per_sec: out.events_per_sec(),
        sim_end_s: out.sim_end.as_secs_f64(),
        jain_fairness: out.jain_fairness(),
        goodput_ratio_cubic_over_bbr: ratio,
        sender_energy_j: out.sender_energy_j,
        receiver_energy_j: out.receiver_energy_j,
        joules_per_gb: if delivered_gb > 0.0 {
            (out.sender_energy_j + out.receiver_energy_j) / delivered_gb
        } else {
            f64::NAN
        },
        rows,
    };

    for row in &result.rows {
        println!(
            "{:<8} flows={:<6} completed={:<6} goodput={:.3} Gb/s  fct={:.3} s  retx={}",
            row.cca,
            row.flows,
            row.completed,
            row.mean_goodput_gbps,
            row.mean_fct_s,
            row.retransmits
        );
    }
    println!(
        "\njain={:.4}  cubic/bbr goodput ratio={:.3}  energy: tx {:.1} J rx {:.1} J  {:.2} J/GB",
        result.jain_fairness,
        result.goodput_ratio_cubic_over_bbr,
        result.sender_energy_j,
        result.receiver_energy_j,
        result.joules_per_gb
    );
    println!(
        "engine: {} events, {:.2} M events/s on {} thread(s), sim {:.3} s",
        result.events_processed,
        result.events_per_sec / 1e6,
        out.threads,
        result.sim_end_s
    );
    if let Some(path) = crate::save_json(&format!("population_mix_{}", scale.name), &result) {
        println!("wrote {}", path.display());
    }
    Ok(greenenvy::exitcode::OK)
}
