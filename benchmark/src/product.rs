//! The one file through which the benchmark touches the product.
//!
//! Everything the benchmark calls or implements is re-exported here and
//! nowhere else (a unit test greps the other files), so this list is the
//! product surface a refactor must keep compiling — or change here, in
//! the open, in a PR that claims no gain.
//!
//! Entry points the timed regions go through:
//! `workload::scenario::run`, `workload::population::run_population`,
//! `greenenvy::campaign::run_campaign_with_runner` +
//! `greenenvy::matrix::run_cell_with`,
//! `greenenvy::{fig1, fig2, fig3, fig4, theorem}::run`,
//! `greenenvy::campaign::invariant::check`,
//! `greenenvy::campaign::journal::{Writer, create_sharded}`.
//!
//! Trait seams the traced run wraps in timing shims:
//! `netsim::agent::Agent`, `netsim::queue::Qdisc`,
//! `transport::cc::CongestionControl`, `obs::Recorder`.

// --- workload: the dumbbell and population runners ----------------------
pub use workload::iperf::{FlowReport, FlowSpec};
pub use workload::population::{run_population, PopulationOutcome, PopulationSpec};
pub use workload::scenario::{
    run as run_scenario, Observe, Scenario, ScenarioOutcome, BASELINE_CWND_FACTOR,
};

// --- core: campaign, figures, durability, exit codes --------------------
pub use greenenvy::campaign::invariant::check as invariant_check;
pub use greenenvy::campaign::journal::{
    self, create_sharded, load_sharded, Entry as JournalEntry, Fingerprint as JournalFingerprint,
    Writer as JournalWriter,
};
pub use greenenvy::campaign::persist::write_atomic;
pub use greenenvy::campaign::{run_campaign_with_runner, CampaignOptions, RetryPolicy};
pub use greenenvy::matrix::{run_cell_with, Cell, CellPolicy, MTUS};
pub use greenenvy::{exitcode, fig1, fig2, fig3, fig4, theorem, Scale};

// --- netsim: engine, links, queues, scheduler ---------------------------
pub use netsim::agent::{Agent, Ctx};
pub use netsim::engine::{Network, RunOutcome};
pub use netsim::fault::FaultSpec;
pub use netsim::ids::{FlowId, LinkId, NodeId};
pub use netsim::link::LinkSpec;
pub use netsim::packet::{EcnCodepoint, IntRecord, Packet, HEADER_BYTES};
pub use netsim::pool::{FramePool, FrameRef};
pub use netsim::queue::{
    DropTailQueue, EcnThresholdQueue, EnqueueOutcome, Qdisc, QueueStats, RedQueue,
};
pub use netsim::rng::SimRng;
pub use netsim::sched::Scheduler;
pub use netsim::time::{SimDuration, SimTime};
pub use netsim::trace::HostActivity;
pub use netsim::units::{average_rate, Rate, MB};

// --- transport + cca ----------------------------------------------------
pub use cca::{CcaConfig, CcaKind};
pub use transport::cc::{AckEvent, CongestionControl, CongestionEvent};
pub use transport::receiver::TcpReceiver;
pub use transport::scoreboard::Scoreboard;
pub use transport::sender::{TcpSender, TcpSenderConfig};

// --- energy -------------------------------------------------------------
pub use energy::calibration::{cc_cost_per_ack_ref_j, reference_host_model, PACING_PPS_BONUS};
pub use energy::host::HostContext;
pub use energy::meter::EnergyMeter;

// --- obs ----------------------------------------------------------------
pub use obs::{FlowEvent, Labels, ObsRecorder, Recorder, SharedRecorder, TrackKind};

#[cfg(test)]
mod tests {
    /// The façade is only worth having if nothing goes around it.
    #[test]
    fn no_other_file_names_a_product_crate() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let crates = [
            "netsim",
            "transport",
            "cca",
            "energy",
            "workload",
            "obs",
            "greenenvy",
        ];
        for entry in std::fs::read_dir(&src).expect("src/ is readable") {
            let path = entry.expect("dir entry").path();
            if path.file_name().is_some_and(|n| n == "product.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            for (i, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                for name in crates {
                    let used = code.contains(&format!("{name}::"))
                        && !code.contains(&format!("product::{name}::"))
                        && !code.contains(&format!("crate::{name}::"));
                    assert!(
                        !used,
                        "{}:{}: `{name}::` used outside product.rs: {line}",
                        path.display(),
                        i + 1
                    );
                }
            }
        }
    }
}
