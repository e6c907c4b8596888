//! The measurement loops and the assembly of metrics from what they saw.
//!
//! One closed loop in one process: probe, sample, probe, sample, ... The
//! probe readings on either side of a sample turn its raw wall time into
//! nominal seconds ([`crate::hostref`]). The full ledger interleaves the
//! six workloads round by round, so slow host drift hits all of them
//! alike; a driver run measures one workload for a fixed time.

use crate::clock;
use crate::fingerprint::Facts;
use crate::hostref;
use crate::metrics::{self, EndToEnd, END_TO_END, EXACT_IN_BOTH};
use crate::probes;
use crate::report::{EndToEndResult, FailedCheck, LayerResult, RunResult, WorkloadResult};
use crate::rss;
use crate::stats::{median, split_half_diff, Summary};
use crate::trace::TraceReport;
use crate::workloads::{Check, Kind, Sample, Sizes, Traced, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Rounds of the full ledger.
pub const FULL_ROUNDS: usize = 15;
/// Rounds with `--quick`.
pub const QUICK_ROUNDS: usize = 3;
/// Set-ups per workload; `setup_s` is their median. The first one in a
/// process also pays for lazy statics and cold pages, which a second set
/// in the same process would not see again.
pub const SETUPS: usize = 3;
/// `Observe::Noop` / `Observe::Off` pairs the full ledger takes for
/// `obs.noop_overhead_ratio`.
const NOOP_PAIRS: usize = 3;

/// Fold an end-to-end metric's samples into its value.
///
/// `wall_s` is the **first quartile**, not the median. Interference on a
/// shared host only ever slows a sample down, so a workload's samples are
/// a tight cluster with a one-sided tail (`observed_mix`, raw seconds of
/// one run: 1.40 1.41 1.42 1.43 1.44 | 1.51 1.60 1.61 1.71 1.75 2.01). The
/// median sits wherever the tail's weight puts it that minute; the first
/// quartile sits in the cluster. On the same eight `small_pkt_bulk` runs
/// the run-to-run spread was 4.1 % for medians and 1.4 % for first
/// quartiles. (The minimum is worse again: one slow probe reading makes a
/// nominal sample look too fast.) `setup_s` has three samples and takes
/// their median. `peak_rss_mb` is the mean of the samples' peaks, because
/// the samples rotate over input variants whose peaks differ (see
/// `workloads::VARIANTS`).
pub fn estimate(metric: &str, samples: &[f64]) -> f64 {
    match metric {
        "wall_s" => Summary::of(samples).q1,
        "peak_rss_mb" => samples.iter().sum::<f64>() / samples.len().max(1) as f64,
        _ => median(samples),
    }
}

/// How far the layers' self times may miss the `run` span they partition.
const SELF_TIME_SLACK: f64 = 0.02;

/// The host-speed bracket: every timed region ends with a probe, whose
/// reading also opens the next region.
pub struct Host {
    probes: Vec<f64>,
}

impl Host {
    /// Take the opening probe reading.
    pub fn new() -> Host {
        Host {
            probes: vec![hostref::probe()],
        }
    }

    /// Run `f`; return its result, raw seconds, and nominal seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = *self.probes.last().expect("opened with one reading");
        let start = clock::now();
        let result = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = hostref::probe();
        self.probes.push(after);
        (result, raw_s, hostref::nominal(raw_s, before, after))
    }

    /// Every probe reading so far.
    pub fn readings(&self) -> &[f64] {
        &self.probes
    }
}

impl Default for Host {
    fn default() -> Self {
        Host::new()
    }
}

/// Everything observed about one workload in one run.
pub struct Record {
    /// Which workload.
    pub kind: Kind,
    workload: Option<Workload>,
    /// First-seen facts of each input variant; index 0 is what
    /// `sim_fingerprint` reports and what the traced pass must match.
    facts: Vec<Option<Facts>>,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<FailedCheck>,
    setup_nominal_s: Vec<f64>,
    wall_nominal_s: Vec<f64>,
    wall_raw_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    traced_raw_s: Vec<f64>,
    /// Per-layer observations by metric name; the reported value is
    /// their median.
    observed: BTreeMap<String, Vec<f64>>,
    last_untraced: Option<Sample>,
    last_trace: Option<TraceReport>,
}

impl Record {
    /// Nothing observed yet.
    pub fn new(kind: Kind) -> Record {
        Record {
            kind,
            workload: None,
            facts: Vec::new(),
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            setup_nominal_s: Vec::new(),
            wall_nominal_s: Vec::new(),
            wall_raw_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            traced_raw_s: Vec::new(),
            observed: BTreeMap::new(),
            last_untraced: None,
            last_trace: None,
        }
    }

    /// Count one correctness check as one operation.
    pub fn check(&mut self, check: Check) {
        self.attempted += 1;
        if !check.ok {
            self.failed += 1;
            self.failed_checks.push(FailedCheck {
                name: check.name,
                detail: check.detail,
            });
        }
    }

    fn note(&mut self, name: &str, value: f64) {
        self.observed
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Fold one sample in: its operations, its checks, the determinism
    /// check against the first sample, and its counts (in-sample timings
    /// scaled by `norm`, the sample's nominal/raw factor).
    fn absorb(&mut self, sample: &Sample, norm: f64) {
        self.attempted += sample.attempted;
        self.failed += sample.failed;
        for check in &sample.checks {
            self.check(check.clone());
        }
        if self.facts.len() <= sample.variant {
            self.facts.resize(sample.variant + 1, None);
        }
        match &self.facts[sample.variant] {
            None => self.facts[sample.variant] = Some(sample.facts.clone()),
            Some(first) => {
                let same = *first == sample.facts;
                let diff = || first.diff(&sample.facts).join("; ");
                self.check(Check::new(
                    "sim_fingerprint identical across rounds",
                    same,
                    diff,
                ));
            }
        }
        // Exact counts must repeat exactly, so only variant 0 reports
        // them (and is what the traced pass is compared with); in-sample
        // timings come from every variant.
        if sample.variant == 0 {
            self.last_untraced = Some(sample.clone());
        }
        for (name, value) in &sample.counts {
            if metrics::is_in_sample_timing(name) {
                self.note(name, value * norm);
            } else if sample.variant == 0 {
                self.note(name, *value);
            }
        }
    }

    /// Set the workload up: generate inputs, make scratch space, run the
    /// warm-up sample. Timed as `setup_s`.
    pub fn set_up(&mut self, host: &mut Host, seed: u64, sizes: &Sizes, scratch: &Path) {
        let kind = self.kind;
        let (outcome, raw_s, nominal_s) = host.time(|| {
            let mut workload = Workload::prepare(kind, seed, sizes, scratch);
            let warm = workload.sample(true);
            (workload, warm)
        });
        self.setup_nominal_s.push(nominal_s);
        let (workload, warm) = outcome;
        self.workload = Some(workload);
        match warm {
            Ok(sample) => self.absorb(&sample, nominal_s / raw_s),
            Err(e) => self.check(Check::new("warm-up sample runs", false, || e)),
        }
    }

    /// One timed sample with tracing off.
    pub fn timed_sample(&mut self, host: &mut Host) {
        let Some(workload) = self.workload.as_mut() else {
            return;
        };
        rss::reset_peak();
        let (result, raw_s, nominal_s) = host.time(|| workload.sample(false));
        let peak_mb = rss::peak_mb();
        match result {
            Ok(sample) => {
                self.wall_raw_s.push(raw_s);
                self.wall_nominal_s.push(nominal_s);
                self.peak_rss_mb.push(peak_mb);
                self.absorb(&sample, nominal_s / raw_s);
            }
            Err(e) => self.check(Check::new("timed sample runs", false, || e)),
        }
    }

    /// One traced pass, checked against the untraced samples.
    pub fn traced_pass(&mut self, host: &mut Host) {
        let Some(workload) = self.workload.as_mut() else {
            return;
        };
        let (result, raw_s, _) = host.time(|| workload.traced());
        match result {
            Ok(traced) => self.absorb_traced(traced, raw_s),
            Err(e) => self.check(Check::new("traced pass runs", false, || e)),
        }
    }

    fn absorb_traced(&mut self, traced: Traced, raw_s: f64) {
        let Traced { sample, trace } = traced;
        self.traced_raw_s.push(raw_s);
        if let Some(Some(first)) = self.facts.first() {
            let same = *first == sample.facts;
            let diff = || first.diff(&sample.facts).join("; ");
            self.check(Check::new(
                "traced run simulates what the product runner does",
                same,
                diff,
            ));
        }
        if let Some(untraced) = &self.last_untraced {
            let mismatched: Vec<String> = EXACT_IN_BOTH
                .iter()
                .filter_map(|name| {
                    let (a, b) = (untraced.counts.get(name)?, sample.counts.get(name)?);
                    (a != b).then(|| format!("{name}: {a} untraced vs {b} traced"))
                })
                .collect();
            self.check(Check::new(
                "exact counts identical traced and untraced",
                mismatched.is_empty(),
                || mismatched.join("; "),
            ));
        }
        if self.kind.is_dumbbell() {
            let run = trace.site("netsim", "run_until");
            let under_run: f64 = ["on_start", "on_packet", "on_packets", "on_timer"]
                .iter()
                .map(|call| trace.site("transport", call).self_s)
                .sum::<f64>()
                + trace.layer_self_s("cca")
                + trace.site("obs", "hook").self_s
                + trace.site("netsim", "enqueue").self_s
                + trace.site("netsim", "dequeue").self_s
                + run.self_s;
            let miss = (under_run - run.total_s).abs() / run.total_s.max(f64::MIN_POSITIVE);
            self.check(Check::new(
                "per-layer self times sum to the run span",
                miss <= SELF_TIME_SLACK,
                || format!("self times {under_run} s vs run span {} s", run.total_s),
            ));
        }
        // Counts only the benchmark's own wiring can see.
        for name in [
            "netsim.queue_max_bytes",
            "core.cell_busy_s",
            "core.worker_utilization",
        ] {
            if let Some(value) = sample.counts.get(name) {
                self.note(name, *value);
            }
        }
        let qdisc_ops =
            trace.site("netsim", "enqueue").count + trace.site("netsim", "dequeue").count;
        let qdisc_busy_s =
            trace.site("netsim", "enqueue").total_s + trace.site("netsim", "dequeue").total_s;
        for (name, value) in [
            (
                "netsim.engine_self_s",
                trace.site("netsim", "run_until").self_s,
            ),
            ("netsim.build_s", trace.site("netsim", "build").total_s),
            ("netsim.qdisc_ops", qdisc_ops as f64),
            ("netsim.qdisc_busy_s", qdisc_busy_s),
            (
                "transport.agent_calls",
                trace.layer_count("transport") as f64,
            ),
            ("transport.self_s", trace.layer_self_s("transport")),
            ("cca.calls", trace.layer_count("cca") as f64),
            ("cca.busy_s", trace.layer_total_s("cca")),
            ("energy.meter_calls", trace.layer_count("energy") as f64),
            ("energy.meter_s", trace.layer_total_s("energy")),
            ("obs.hook_calls", trace.site("obs", "hook").count as f64),
            ("obs.busy_s", trace.site("obs", "hook").total_s),
            ("obs.export_s", trace.site("obs", "export").total_s),
        ] {
            self.note(name, value);
        }
        self.last_trace = Some(trace);
    }

    /// `Observe::Noop` against `Observe::Off` on this workload's scenario:
    /// one bracketed sample of each.
    pub fn noop_pair(&mut self, host: &mut Host) {
        let Some([mut plain, mut noop]) = self.workload.as_ref().and_then(Workload::noop_pair)
        else {
            return;
        };
        let (off, _, off_s) = host.time(|| plain.sample(false));
        let (on, _, noop_s) = host.time(|| noop.sample(false));
        if off.is_ok() && on.is_ok() && off_s > 0.0 {
            self.note("obs.noop_overhead_ratio", noop_s / off_s);
        }
    }

    /// The last traced pass's spans, for `trace_<workload>.json`.
    pub fn trace(&self) -> Option<&TraceReport> {
        self.last_trace.as_ref()
    }

    /// Operations attempted and failed so far.
    pub fn operations(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// The end-to-end metrics as `(definition, value, samples)`.
    pub fn end_to_end(&self) -> Vec<(EndToEnd, f64, &[f64])> {
        let samples: [&[f64]; 3] = [
            &self.wall_nominal_s,
            &self.setup_nominal_s,
            &self.peak_rss_mb,
        ];
        END_TO_END
            .into_iter()
            .zip(samples)
            .map(|(def, xs)| (def, estimate(def.name, xs), xs))
            .collect()
    }

    /// Every per-layer metric, in registry order. `probes` are the
    /// workload-independent `[p]` values; `host` supplies the `bench.*`
    /// trust numbers.
    pub fn per_layer(
        &self,
        probes: &[(String, f64)],
        host: &Host,
    ) -> Vec<(String, f64, &'static str)> {
        let wall_s = estimate("wall_s", &self.wall_nominal_s);
        let observed = |name: &str| self.observed.get(name).map(|v| median(v));
        let events = observed("netsim.events").unwrap_or(0.0);
        let cells = observed("core.cells").unwrap_or(0.0);
        let traced_s = median(&self.traced_raw_s);
        let raw_s = median(&self.wall_raw_s);
        let readings = Summary::of(host.readings());
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let derived = match name.as_str() {
                    "netsim.ns_per_event" if events > 0.0 => Some(wall_s * 1e9 / events),
                    "core.cells_per_s" if wall_s > 0.0 && cells > 0.0 => Some(cells / wall_s),
                    "bench.hostref_s" => Some(readings.median),
                    "bench.hostref_iqr_ratio" => Some(readings.iqr_ratio()),
                    "bench.wall_raw_s" => Some(raw_s),
                    "bench.split_half_diff" => Some(split_half_diff(&self.wall_nominal_s, |h| {
                        estimate("wall_s", h)
                    })),
                    "bench.trace_overhead_ratio" if raw_s > 0.0 => Some(traced_s / raw_s),
                    "bench.samples" => Some(self.wall_nominal_s.len() as f64),
                    "bench.fail_ratio" => {
                        Some(crate::report::fail_ratio(self.failed, self.attempted))
                    }
                    _ => None,
                };
                let probe = probes.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                let value = derived.or(probe).or_else(|| observed(&name)).unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    }

    /// This workload's section of `result.json`.
    pub fn result(&self, probes: &[(String, f64)], host: &Host) -> WorkloadResult {
        let end_to_end = self
            .end_to_end()
            .into_iter()
            .map(|(def, value, samples)| {
                let split = split_half_diff(samples, |half| estimate(def.name, half));
                EndToEndResult {
                    name: def.name.to_string(),
                    unit: def.unit.to_string(),
                    value,
                    samples: Summary::of(samples),
                    bound: def.bound,
                    split_half_diff: split,
                    unresolved: split > def.bound,
                }
            })
            .collect();
        WorkloadResult {
            name: self.kind.name().to_string(),
            sim_fingerprint: self
                .facts
                .first()
                .and_then(|f| f.as_ref())
                .map(Facts::hex)
                .unwrap_or_default(),
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            per_layer: self
                .per_layer(probes, host)
                .into_iter()
                .map(|(name, value, unit)| LayerResult {
                    name,
                    unit: unit.to_string(),
                    value,
                })
                .collect(),
            failed_checks: self.failed_checks.clone(),
        }
    }
}

/// Where the benchmark writes: `result.json`, traces, scratch space.
pub struct OutDir(pub PathBuf);

impl OutDir {
    /// Scratch space for journals and probe files.
    pub fn scratch(&self) -> PathBuf {
        self.0.join("scratch")
    }

    /// Write `trace_<workload>.json` for a record that has a trace.
    pub fn save_trace(&self, record: &Record) -> Result<(), String> {
        let Some(trace) = record.trace() else {
            return Ok(());
        };
        let path = self.0.join(format!("trace_{}.json", record.kind.name()));
        let json = serde_json::to_string(trace).map_err(|e| e.to_string())?;
        crate::product::write_atomic(&path, json.as_bytes()).map_err(|e| e.to_string())
    }
}

/// One complete set of the ledger: set every workload up ([`SETUPS`]
/// times each), run `rounds` rounds of all of them in fixed order, then
/// one traced pass each, then the isolated probes.
pub fn run_set(seed: u64, sizes: &Sizes, rounds: usize, out: &OutDir) -> Result<RunResult, String> {
    rss::pin_allocator_policy();
    let scratch = out.scratch();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut host = Host::new();
    let mut records: Vec<Record> = Kind::ALL.into_iter().map(Record::new).collect();
    for record in &mut records {
        for _ in 0..SETUPS {
            record.set_up(&mut host, seed, sizes, &scratch);
        }
    }
    for _ in 0..rounds {
        for record in &mut records {
            record.timed_sample(&mut host);
        }
    }
    for record in &mut records {
        record.traced_pass(&mut host);
        for _ in 0..NOOP_PAIRS {
            record.noop_pair(&mut host);
        }
        out.save_trace(record)?;
    }
    let probes = probes::run_all(&scratch)?;
    let workloads: Vec<WorkloadResult> = records.iter().map(|r| r.result(&probes, &host)).collect();
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(RunResult {
        schema: crate::report::RESULT_SCHEMA,
        seed,
        sizes: sizes.name.to_string(),
        rounds: rounds as u64,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        hostref_nominal_s: hostref::NOMINAL_S,
        ok: workloads.iter().all(|w| w.failed == 0),
        workloads,
    })
}

/// What a driver run hands back: operation counts and the metrics of the
/// requested kind, as `(name, value, unit)`.
pub struct DriverOutcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every end-to-end metric (`trace` off) or every per-layer metric.
    pub metrics: Vec<(String, f64, String)>,
    /// Checks that failed, for stderr.
    pub failed_checks: Vec<FailedCheck>,
}

/// One driver run: measure `kind` for `seconds` seconds.
///
/// With tracing off: [`SETUPS`] set-ups (their median is
/// `setup_s`), then timed samples until the time is up. With tracing on:
/// one set-up, then untraced sample / traced pass pairs until the time is
/// up, then the probes; `trace_<workload>.json` is written.
pub fn run_driver(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
    out: &OutDir,
) -> Result<DriverOutcome, String> {
    let scratch = out
        .scratch()
        .join(format!("{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    rss::pin_allocator_policy();
    let mut host = Host::new();
    let mut record = Record::new(kind);
    let setups = if trace { 1 } else { SETUPS };
    for _ in 0..setups {
        // Only the first set-up's fingerprint seeds the determinism
        // check; every later sample, warm-up or timed, must match it.
        record.set_up(&mut host, seed, sizes, &scratch);
    }
    let start = clock::now();
    loop {
        record.timed_sample(&mut host);
        if trace {
            record.traced_pass(&mut host);
            record.noop_pair(&mut host);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let metrics = if trace {
        out.save_trace(&record)?;
        let probes = probes::run_all(&scratch)?;
        record
            .per_layer(&probes, &host)
            .into_iter()
            .map(|(name, value, unit)| (name, value, unit.to_string()))
            .collect()
    } else {
        record
            .end_to_end()
            .into_iter()
            .map(|(def, value, _)| (def.name.to_string(), value, def.unit.to_string()))
            .collect()
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (attempted, failed) = record.operations();
    Ok(DriverOutcome {
        attempted,
        failed,
        metrics,
        failed_checks: record.failed_checks.clone(),
    })
}

/// One end-to-end metric compared between two sets of the same code.
#[derive(Clone, Debug, PartialEq)]
pub struct SetDiff {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Relative difference between the two sets' values.
    pub diff: f64,
    /// The metric's bound.
    pub bound: f64,
}

/// Compare two sets metric by metric. The benchmark agrees with itself
/// when every difference is within its bound.
pub fn compare_sets(first: &RunResult, second: &RunResult) -> Vec<SetDiff> {
    let mut out = Vec::new();
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        for m in &a.end_to_end {
            let Some(other) = b.end_to_end(&m.name) else {
                continue;
            };
            out.push(SetDiff {
                workload: a.name.clone(),
                metric: m.name.clone(),
                diff: crate::stats::rel_diff(m.value, other.value),
                bound: m.bound,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir(name: &str) -> OutDir {
        OutDir(Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name))
    }

    #[test]
    fn a_failing_check_counts_as_a_failed_operation_and_is_reported() {
        let mut record = Record::new(Kind::LossyMix);
        record.check(Check::new("holds", true, String::new));
        record.check(Check::new("injected failure", false, || {
            "1 != 2".to_string()
        }));
        assert_eq!(record.operations(), (2, 1));
        let host = Host {
            probes: vec![hostref::NOMINAL_S],
        };
        let result = record.result(&[], &host);
        assert_eq!(result.failed, 1);
        assert_eq!(result.failed_checks[0].name, "injected failure");
        assert_eq!(result.fail_ratio(), 0.5);
        assert_eq!(result.layer("bench.fail_ratio"), 0.5);
    }

    #[test]
    fn a_sample_that_simulates_something_else_fails_the_determinism_check() {
        let mut record = Record::new(Kind::SmallPktBulk);
        let mut first = Sample::default();
        first.facts.set("events", 10);
        let mut second = first.clone();
        second.facts.set("events", 11);
        record.absorb(&first, 1.0);
        record.absorb(&first, 1.0);
        assert_eq!(record.operations().1, 0);
        record.absorb(&second, 1.0);
        assert_eq!(record.operations().1, 1);
        assert!(record.failed_checks[0].detail.contains("events"));
    }

    #[test]
    fn set_to_set_differences_are_judged_against_each_metrics_bound() {
        let mut a = crate::report::RunResult {
            schema: 1,
            seed: 1,
            sizes: "quick".into(),
            rounds: 1,
            nproc: 1,
            hostref_nominal_s: hostref::NOMINAL_S,
            workloads: vec![],
            ok: true,
        };
        let metric = |value: f64| EndToEndResult {
            name: "wall_s".into(),
            unit: "s".into(),
            value,
            samples: Summary::of(&[value]),
            bound: 0.15,
            split_half_diff: 0.0,
            unresolved: false,
        };
        let workload = |value: f64| WorkloadResult {
            name: "many_flows".into(),
            sim_fingerprint: String::new(),
            attempted: 1,
            failed: 0,
            end_to_end: vec![metric(value)],
            per_layer: vec![],
            failed_checks: vec![],
        };
        a.workloads.push(workload(1.0));
        let mut b = a.clone();
        b.workloads[0] = workload(1.2);
        let diffs = compare_sets(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert!((diffs[0].diff - 0.2).abs() < 1e-12 && diffs[0].diff > diffs[0].bound);
    }

    #[test]
    fn quick_ledger_smoke_runs_the_whole_pipeline() {
        let out = out_dir("test-ledger-smoke");
        let result = run_set(3, &Sizes::quick(), 1, &out).expect("the quick set runs");
        assert!(result.ok, "{}", result.render());
        assert_eq!(result.workloads.len(), Kind::ALL.len());
        for w in &result.workloads {
            assert_eq!(w.sim_fingerprint.len(), 16, "{}", w.name);
            assert!(w.end_to_end("wall_s").is_some_and(|m| m.value > 0.0));
            assert!(w.end_to_end("setup_s").is_some_and(|m| m.value > 0.0));
            assert_eq!(w.per_layer.len(), metrics::per_layer().len());
        }
        // The workloads stress what they claim to.
        let layer = |w: &str, m: &str| {
            result
                .workloads
                .iter()
                .find(|x| x.name == w)
                .map_or(f64::NAN, |x| x.layer(m))
        };
        assert_eq!(layer("small_pkt_bulk", "transport.retx_ratio"), 0.0);
        assert!(layer("lossy_mix", "transport.retx_ratio") > 0.01);
        // (Below 0.98 only at full size; a quarter of the flows leaves
        // fewer RTO timers beyond the wheel's horizon.)
        assert!(
            layer("many_flows", "netsim.wheel_hit_ratio")
                < layer("small_pkt_bulk", "netsim.wheel_hit_ratio")
        );
        assert!(layer("small_pkt_bulk", "netsim.wheel_hit_ratio") > 0.98);
        assert_eq!(layer("small_pkt_bulk", "obs.hook_calls"), 0.0);
        assert!(layer("observed_mix", "obs.hook_calls") > 0.0);
        assert_eq!(layer("campaign_grid", "core.cells"), 40.0);
        // Artifacts landed, and the trace reads back.
        for kind in Kind::ALL {
            let path = out.0.join(format!("trace_{}.json", kind.name()));
            let text = std::fs::read_to_string(&path).expect("trace written");
            let trace: TraceReport = serde_json::from_str(&text).expect("trace parses");
            if kind.is_dumbbell() {
                assert!(trace.spans_opened > crate::trace::RAW_SPAN_CAP as u64);
                assert_eq!(trace.spans.len(), crate::trace::RAW_SPAN_CAP);
            }
        }
    }
}
