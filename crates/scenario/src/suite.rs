//! Suites: named scenario collections with a deterministic verdict.
//!
//! A [`Suite`] bundles scenarios — including *negative* entries that
//! are **supposed** to fail their expectations, proving the checks
//! have teeth — and [`run_suite`] evaluates them all into one
//! [`SuiteVerdict`]: a JSON-serializable matrix of per-scenario,
//! per-expectation results. The verdict is a pure function of the
//! specs (no wall-clock, no paths, scenarios sorted by name, fixed
//! float handling), so two runs of the same suite serialize
//! byte-identically — `greenenvy`'s `tests/golden_resilience.rs` pins
//! those bytes across commits.
//!
//! Alongside the verdict, the runner exports observability: a
//! time-to-recover histogram ([`obs::recovery::RECOVERY_TIME_MS_METRIC`])
//! in Prometheus text format and a Perfetto trace with one span per
//! scenario plus an instant per failed expectation.

use crate::builder::ScenarioSpec;
use crate::expect::{self, Expectation, ExpectationReport};
use obs::{labels, MetricsRegistry, TraceBuilder, TrackKind};
use serde::{Deserialize, Serialize};

/// Bump when the verdict JSON shape changes.
pub const VERDICT_SCHEMA_VERSION: u32 = 1;

/// Perfetto counter bin for the suite trace (1 ms).
const TRACE_BIN_NS: u64 = 1_000_000;

/// One suite member.
pub struct SuiteEntry {
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// A negative entry is *expected to fail* its expectations; it
    /// behaves when `passed == false`. This keeps at least one
    /// deliberately-broken scenario in every suite proving the
    /// expectations engine actually rejects bad runs.
    pub negative: bool,
}

/// A named collection of scenarios evaluated together.
pub struct Suite {
    /// Suite name (verdict header, artifact filenames).
    pub name: String,
    /// Members, in insertion order. Verdicts are sorted by scenario
    /// name, so insertion order never leaks into the output.
    pub entries: Vec<SuiteEntry>,
}

impl Suite {
    /// An empty suite.
    pub fn new(name: &str) -> Suite {
        Suite {
            name: name.to_string(),
            entries: Vec::new(),
        }
    }

    /// Add a scenario that must pass all its expectations.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.entries.push(SuiteEntry {
            spec,
            negative: false,
        });
    }

    /// Add a scenario that must FAIL at least one expectation.
    pub fn push_negative(&mut self, spec: ScenarioSpec) {
        self.entries.push(SuiteEntry {
            spec,
            negative: true,
        });
    }
}

/// One scenario's row in the verdict matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioVerdict {
    /// Scenario name.
    pub name: String,
    /// Whether this was a negative (expected-to-fail) entry.
    pub negative: bool,
    /// Every expectation passed.
    pub passed: bool,
    /// The scenario did what the suite expects of it: passed if
    /// positive, failed if negative, and ran without a runner error
    /// either way.
    pub behaved: bool,
    /// Simulated end time, seconds.
    pub sim_end_s: f64,
    /// The bottleneck fault, as incident-timeline labels (see
    /// [`ScenarioSpec::chaos_labels`]).
    pub chaos: Vec<String>,
    /// Per-expectation reports, in declaration order.
    pub expectations: Vec<ExpectationReport>,
    /// The runner error, if the scenario failed to execute at all.
    pub error: Option<String>,
}

/// The whole suite's verdict: deterministic, diffable JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuiteVerdict {
    /// Verdict JSON schema version.
    pub schema_version: u32,
    /// Suite name.
    pub suite: String,
    /// Every scenario behaved (see [`ScenarioVerdict::behaved`]).
    pub all_behaved: bool,
    /// Per-scenario verdicts, sorted by scenario name.
    pub scenarios: Vec<ScenarioVerdict>,
}

impl SuiteVerdict {
    /// Pretty JSON for the verdict artifact. Deterministic: two runs
    /// of the same suite produce byte-identical output.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("verdict serializes")
    }
}

/// A suite run's full output: the verdict plus observability exports.
pub struct SuiteOutcome {
    /// The verdict matrix.
    pub verdict: SuiteVerdict,
    /// Prometheus text exposition (recovery histogram, behave counters).
    pub prometheus: String,
    /// Perfetto trace JSON: one span per scenario, an instant per
    /// failed expectation.
    pub trace_json: String,
}

/// Run every entry and fold the results into one deterministic verdict.
/// Runner errors never panic the suite — they become
/// [`ScenarioVerdict::error`] rows with `behaved: false`.
pub fn run_suite(suite: &Suite) -> SuiteOutcome {
    let mut metrics = MetricsRegistry::new();
    let mut trace = TraceBuilder::new(TRACE_BIN_NS);
    let mut scenarios = Vec::with_capacity(suite.entries.len());
    let mut max_end_ns = 0u64;

    for (i, entry) in suite.entries.iter().enumerate() {
        let name = entry.spec.name().to_string();
        let track = i as u32;
        trace.set_track_name(TrackKind::Host, track, &format!("scenario: {name}"));
        let verdict = match entry.spec.run() {
            Ok(run) => {
                let end_ns = run.measured.sim_end.as_nanos();
                max_end_ns = max_end_ns.max(end_ns);
                trace.span(0, end_ns, TrackKind::Host, track, &name);
                for _ in run.reports.iter().filter(|r| !r.passed) {
                    trace.instant(end_ns, TrackKind::Host, track, "expectation_failed");
                }
                record_recovery(
                    &mut metrics,
                    &name,
                    entry.spec.expectations(),
                    &run.measured,
                );
                ScenarioVerdict {
                    name,
                    negative: entry.negative,
                    passed: run.passed,
                    behaved: run.passed != entry.negative,
                    sim_end_s: run.measured.sim_end.as_secs_f64(),
                    chaos: entry.spec.chaos_labels(),
                    expectations: run.reports,
                    error: None,
                }
            }
            Err(err) => {
                trace.instant(0, TrackKind::Host, track, "runner_error");
                ScenarioVerdict {
                    name,
                    negative: entry.negative,
                    passed: false,
                    behaved: false,
                    sim_end_s: 0.0,
                    chaos: entry.spec.chaos_labels(),
                    expectations: Vec::new(),
                    error: Some(err.to_string()),
                }
            }
        };
        let counter = if verdict.behaved {
            "scenario_behaved_total"
        } else {
            "scenario_misbehaved_total"
        };
        metrics.counter_add(counter, labels([("suite", suite.name.clone())]), 1);
        scenarios.push(verdict);
    }

    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    let all_behaved = scenarios.iter().all(|v| v.behaved);
    SuiteOutcome {
        verdict: SuiteVerdict {
            schema_version: VERDICT_SCHEMA_VERSION,
            suite: suite.name.clone(),
            all_behaved,
            scenarios,
        },
        prometheus: metrics.snapshot(max_end_ns).prometheus_text(),
        trace_json: trace.json(),
    }
}

/// Feed each recovered flow's time-to-recover into the shared
/// histogram, labelled by scenario. Flows that never recovered are the
/// expectation's problem (it fails); the histogram only records
/// measured recoveries.
fn record_recovery(
    metrics: &mut MetricsRegistry,
    scenario: &str,
    expectations: &[Expectation],
    measured: &crate::expect::Measured,
) {
    for e in expectations {
        let Expectation::RecoveryWithin { band_frac, .. } = e else {
            continue;
        };
        let Some(times) = expect::recovery_times_ns(measured, *band_frac) else {
            continue;
        };
        for ns in times.into_iter().flatten() {
            metrics.observe(
                obs::recovery::RECOVERY_TIME_MS_METRIC,
                labels([("scenario", scenario.to_string())]),
                ns / 1_000_000,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ScenarioBuilder, Topology};
    use cca::CcaKind;
    use energy::calibration::CAL_MTU_BYTES;
    use netsim::fault::FaultSpec;
    use netsim::time::{SimDuration, SimTime};
    use workload::iperf::FlowSpec;
    use workload::scenario::Scenario;

    /// `n` CUBIC flows of `bytes` on the dumbbell, seed 9.
    fn cubic(name: &str, n: usize, bytes: u64) -> ScenarioBuilder {
        faulted(name, n, bytes, None)
    }

    /// [`cubic`] with `fault` on the bottleneck.
    fn faulted(name: &str, n: usize, bytes: u64, fault: Option<FaultSpec>) -> ScenarioBuilder {
        let flows = vec![FlowSpec::bulk(CcaKind::Cubic, bytes); n];
        let mut sc = Scenario::new(CAL_MTU_BYTES, flows).with_seed(9);
        sc.bottleneck_fault = fault;
        ScenarioBuilder::new(name, Topology::Dumbbell(sc))
    }

    fn passing(name: &str) -> ScenarioSpec {
        cubic(name, 2, 1_000_000)
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("valid scenario")
    }

    fn failing(name: &str) -> ScenarioSpec {
        // A utilization floor no 10 Gb/s link can reach.
        cubic(name, 1, 1_000_000)
            .expect_check(Expectation::UtilizationFloor { min_fraction: 1.5 })
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn positive_and_negative_entries_both_behave() {
        let mut suite = Suite::new("t");
        suite.push(passing("ok"));
        suite.push_negative(failing("broken-on-purpose"));
        let out = run_suite(&suite);
        assert!(out.verdict.all_behaved, "{}", out.verdict.to_json());
        let neg = &out.verdict.scenarios[0]; // sorted: "broken-on-purpose" < "ok"
        assert_eq!(neg.name, "broken-on-purpose");
        assert!(!neg.passed && neg.behaved);
    }

    #[test]
    fn a_failing_positive_entry_misbehaves() {
        let mut suite = Suite::new("t");
        suite.push(failing("should-have-passed"));
        let out = run_suite(&suite);
        assert!(!out.verdict.all_behaved);
        assert!(out.prometheus.contains("scenario_misbehaved_total"));
    }

    #[test]
    fn verdicts_sort_by_name_regardless_of_insertion_order() {
        let mut ab = Suite::new("t");
        ab.push(passing("a"));
        ab.push(passing("b"));
        let mut ba = Suite::new("t");
        ba.push(passing("b"));
        ba.push(passing("a"));
        assert_eq!(
            run_suite(&ab).verdict.to_json(),
            run_suite(&ba).verdict.to_json()
        );
    }

    #[test]
    fn verdict_json_is_byte_identical_across_runs() {
        let build = || {
            let mut s = Suite::new("t");
            s.push(passing("ok"));
            s.push_negative(failing("neg"));
            s
        };
        let a = run_suite(&build());
        let b = run_suite(&build());
        assert_eq!(a.verdict.to_json(), b.verdict.to_json());
        assert_eq!(a.prometheus, b.prometheus);
        assert_eq!(a.trace_json, b.trace_json);
    }

    #[test]
    fn recovery_scenarios_feed_the_histogram() {
        let flap = FaultSpec::default().with_flap(SimTime::from_millis(2), SimTime::from_millis(3));
        let spec = faulted("flappy", 2, 4_000_000, Some(flap))
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.2,
                within: SimDuration::from_secs(5),
            })
            .build()
            .expect("valid scenario");
        let mut suite = Suite::new("t");
        suite.push(spec);
        let out = run_suite(&suite);
        assert!(out.verdict.all_behaved, "{}", out.verdict.to_json());
        assert!(
            out.prometheus
                .contains(obs::recovery::RECOVERY_TIME_MS_METRIC),
            "{}",
            out.prometheus
        );
    }

    /// A lossy scenario's verdict row names the loss on its wire.
    #[test]
    fn a_faulted_scenarios_verdict_names_its_fault() {
        let lossy = faulted("lossy", 2, 1_000_000, Some(FaultSpec::random_loss(0.01)))
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("valid scenario");
        let mut suite = Suite::new("t");
        suite.push(lossy);
        suite.push(passing("clean"));
        let out = run_suite(&suite);
        let chaos = |name: &str| {
            let row = out.verdict.scenarios.iter().find(|v| v.name == name);
            row.expect("one row per scenario").chaos.clone()
        };
        assert_eq!(chaos("lossy"), ["loss(0.01)"]);
        assert!(chaos("clean").is_empty());
    }

    #[test]
    fn verdict_round_trips_through_json() {
        let mut suite = Suite::new("t");
        suite.push(passing("ok"));
        let out = run_suite(&suite);
        let back: SuiteVerdict = serde_json::from_str(&out.verdict.to_json()).expect("parses back");
        assert_eq!(back, out.verdict);
    }
}
