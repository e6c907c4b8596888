//! The metric registry: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together. Tags in the descriptions: `[x]` exact count, `[t]` traced
//! time (raw seconds of the traced pass — read them as shares of its
//! `run` span), `[p]` isolated probe, `[n]` host-normalised timing.

use crate::product::CcaKind;

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, all lower-is-better. Bounds come from the
/// measured run-to-run spread on the reference sandbox (README, "Noise").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.20,
    },
];

const PER_LAYER_FIXED: [(&str, &str); 59] = [
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.engine_self_s", "s"),
    ("netsim.wheel_hit_ratio", "ratio"),
    ("netsim.heap_migrations", "count"),
    ("netsim.qdisc_ops", "count"),
    ("netsim.qdisc_busy_s", "s"),
    ("netsim.qdisc_drops", "count"),
    ("netsim.queue_max_bytes", "bytes"),
    ("netsim.qdisc_ns_per_op.droptail", "ns"),
    ("netsim.qdisc_ns_per_op.ecn", "ns"),
    ("netsim.qdisc_ns_per_op.red", "ns"),
    ("netsim.dispatch_batch_mean", "ratio"),
    ("netsim.fault_injected", "count"),
    ("netsim.build_s", "s"),
    ("netsim.sched_ns_per_op.near", "ns"),
    ("netsim.sched_ns_per_op.mixed", "ns"),
    ("transport.agent_calls", "count"),
    ("transport.self_s", "s"),
    ("transport.segs_sent", "count"),
    ("transport.acks_processed", "count"),
    ("transport.retx_ratio", "ratio"),
    ("transport.rto_count", "count"),
    ("transport.scoreboard_ns_per_cycle", "ns"),
    ("cca.calls", "count"),
    ("cca.busy_s", "s"),
    ("energy.meter_calls", "count"),
    ("energy.meter_s", "s"),
    ("energy.ns_per_bin", "ns"),
    ("energy.sender_j", "J"),
    ("obs.hook_calls", "count"),
    ("obs.busy_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("obs.noop_overhead_ratio", "ratio"),
    ("core.cells", "count"),
    ("core.cells_failed", "count"),
    ("core.cell_busy_s", "s"),
    ("core.worker_utilization", "ratio"),
    ("core.cells_per_s", "1/s"),
    ("core.journal_appends", "count"),
    ("core.journal_bytes", "bytes"),
    ("core.journal_rec_per_s.single", "1/s"),
    ("core.journal_rec_per_s.sharded", "1/s"),
    ("core.figure_s.fig1", "s"),
    ("core.figure_s.fig2", "s"),
    ("core.figure_s.fig3", "s"),
    ("core.figure_s.fig4", "s"),
    ("core.figure_s.theorem", "s"),
    ("core.paper_err_pct", "%"),
    ("workload.flows_completed", "count"),
    ("workload.flows_aborted", "count"),
    ("bench.hostref_s", "s"),
    ("bench.hostref_iqr_ratio", "ratio"),
    ("bench.wall_raw_s", "s"),
    ("bench.split_half_diff", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.samples", "count"),
    ("bench.fail_ratio", "ratio"),
];

/// Every per-layer metric as `(name, unit)`, in print order: the fixed
/// list plus one `cca.ns_per_ack.<kind>` per algorithm of the campaign.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (name, unit) in PER_LAYER_FIXED {
        out.push((name.to_string(), unit));
        if name == "cca.busy_s" {
            for kind in CcaKind::ALL {
                out.push((format!("cca.ns_per_ack.{}", kind.name()), "ns"));
            }
        }
    }
    out
}

/// In-sample raw timings recorded next to the counts: the ledger scales
/// them by the sample's host-normalisation factor, making them `[n]`.
pub fn is_in_sample_timing(name: &str) -> bool {
    name.starts_with("core.figure_s.")
}

/// Exact `[x]` counts both the product runner and the traced pass
/// report; they must agree to the last digit.
pub const EXACT_IN_BOTH: [&str; 14] = [
    "netsim.events",
    "netsim.wheel_hit_ratio",
    "netsim.heap_migrations",
    "netsim.qdisc_drops",
    "netsim.dispatch_batch_mean",
    "netsim.fault_injected",
    "transport.segs_sent",
    "transport.acks_processed",
    "transport.retx_ratio",
    "transport.rto_count",
    "energy.sender_j",
    "obs.export_bytes",
    "core.cells",
    "workload.flows_completed",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        assert!(per_layer().len() <= 128);
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        let ours: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed("per_layer", "name"), ours);
        let units: Vec<String> = per_layer()
            .into_iter()
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(listed("per_layer", "unit"), units);
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(listed("end_to_end", "name"), e2e);
        for m in doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("array")
        {
            let name = m.get("name").and_then(|v| v.as_str()).expect("name");
            let bound = m.get("bound").and_then(|v| v.as_f64()).expect("bound");
            let ours = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("known metric");
            assert_eq!(bound, ours.bound, "{name}");
            assert_eq!(m.get("better").and_then(|v| v.as_str()), Some("lower"));
        }
        let kinds: Vec<String> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(listed("workloads", "name"), kinds);
    }
}
