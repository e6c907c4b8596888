//! Population-scale traffic generation: thousands of flows across
//! independent rack cells.
//!
//! The paper measures a handful of flows; the deployment question is
//! population-scale — what does the energy bill look like when 10k CUBIC
//! flows meet 1k BBR flows (the CCA-mix regime of the content-provider
//! fairness studies in PAPERS.md)? A [`PopulationSpec`] describes N flows
//! with a CCA mix, staggered arrivals, and a rack grid: `racks`
//! independent rack cells of `hosts_per_rack` sender hosts, each host
//! kernel-multiplexing its share of flows behind one
//! [`transport::mux::MuxSender`].
//!
//! ## Determinism under parallelism
//!
//! Racks share no links, so each rack is an isolated simulation — a pure
//! function of the shared spec and its rack index, run as a dumbbell
//! placement on the run harness ([`crate::harness`]). That is the whole
//! parallelism story: [`run_population`] hands complete racks to one
//! worker thread per core, each worker builds and runs its own `Network`
//! locally, and outcomes are merged in rack-index order. The merged
//! result is therefore bit-identical for *any* thread count, including
//! 1 — the engine's `(at, seq)` event order inside each rack is never
//! touched. The golden fingerprint tests pin this through
//! [`run_population_with_threads`].
//!
//! Every core means as many racks alive at once, so a rack's memory is
//! kept proportional to the flows and packets it actually has: the
//! flow-id index is sized by entries ([`netsim::flowtab::FlowIndex`]),
//! host activity stores only bins that saw a packet
//! ([`netsim::trace::HostActivity`]), and a rack's metering renders no
//! power series.

use crate::harness::{
    self, simulate_on, PlacedFlow, Placement, SenderHost, Wiring, ACTIVITY_BIN, START_JITTER,
};
use crate::iperf::{FlowReport, FlowSpec};
use crate::par::{host_threads, par_map_with_threads};
use crate::scenario::{Observe, ScenarioError};
use crate::stress::StressLoad;
use cca::CcaKind;
use energy::calibration::CAL_MTU_BYTES;
use netsim::ids::FlowId;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::{
    Dumbbell, DumbbellConfig, BUFFER_BYTES, HOP_DELAY, LINK_GBPS, SENDER_BOND_LINKS,
};

/// Arrivals ramp linearly over this window (flow `f` of `total` starts
/// at `ARRIVAL_SPREAD * f / total`), modelling staggered client arrivals
/// rather than a synchronized stampede.
pub const ARRIVAL_SPREAD: SimDuration = SimDuration::from_millis(20);

/// A population of bulk flows over a grid of independent rack cells.
///
/// Every rack is the testbed's dumbbell ([`LINK_GBPS`], [`HOP_DELAY`], a
/// [`BUFFER_BYTES`] bottleneck under the run harness's one queue rule)
/// with a [`SENDER_BOND_LINKS`]-wide bottleneck. Flows start
/// on a ramp over [`ARRIVAL_SPREAD`] plus up to [`START_JITTER`] of
/// jitter. Hosts run with no packet-rate ceiling: the ceiling models a
/// single iperf socket's host, which a multiplexed sender is not, and
/// per-sub gaps would serialize the burst emission that feeds batched
/// dispatch. Racks are metered in [`ACTIVITY_BIN`] bins and stop at a
/// time limit derived from their bytes.
#[derive(Clone, Debug)]
pub struct PopulationSpec {
    /// MTU in bytes (wire size of a full segment).
    pub mtu: u32,
    /// Total flows across the whole population.
    pub total_flows: usize,
    /// CCA mix as (algorithm, weight) pairs; flows are assigned by
    /// smooth weighted round-robin over the global flow index, so the
    /// mix is even across racks and stable under re-sharding.
    pub mix: Vec<(CcaKind, u32)>,
    /// Application bytes per flow.
    pub bytes_per_flow: u64,
    /// Number of independent rack cells.
    pub racks: usize,
    /// Sender hosts per rack (the rack's fan-in).
    pub hosts_per_rack: usize,
    /// Master RNG seed; each rack derives an isolated stream from it.
    pub seed: u64,
    /// Same-timestamp delivery batching in the engine (on by default;
    /// the equivalence tests flip it off to pin bit-identity).
    pub delivery_batching: bool,
}

impl PopulationSpec {
    /// A population with the testbed defaults: jumbo frames
    /// ([`CAL_MTU_BYTES`]), bonded links, 8 racks of 8 sender hosts,
    /// 1 MB per flow.
    pub fn new(total_flows: usize, mix: Vec<(CcaKind, u32)>) -> Self {
        PopulationSpec {
            mtu: CAL_MTU_BYTES,
            total_flows,
            mix,
            bytes_per_flow: 1_000_000,
            racks: 8,
            hosts_per_rack: 8,
            seed: 1,
            delivery_batching: true,
        }
    }

    /// The tracked `bulk_10k_flows` benchmark population: 10,000 CUBIC
    /// flows sharing 22 racks with 1,000 BBR flows (the 10:1 CCA mix of
    /// the content-provider-fairness measurements), 1 MB per flow. This
    /// is the benchmark ledger's `many_flows` workload (`benchmark/`) and
    /// the population the golden tests fingerprint at tiny scale.
    pub fn bulk_10k_flows() -> Self {
        PopulationSpec::new(11_000, vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)])
            .with_grid(22, 10)
            .with_bytes_per_flow(1_000_000)
            .with_seed(6)
    }

    /// `bulk_10k_flows` shrunk ~100x (110 flows, 2 racks) with the same
    /// mix, per-flow size, and seed: small enough for CI to run in
    /// milliseconds, same shape everywhere else. The golden fingerprint
    /// test pins this spec's outcome bit-for-bit.
    pub fn bulk_10k_flows_tiny() -> Self {
        PopulationSpec::new(110, vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)])
            .with_grid(2, 10)
            .with_bytes_per_flow(1_000_000)
            .with_seed(6)
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the rack grid (racks x sender hosts per rack).
    pub fn with_grid(mut self, racks: usize, hosts_per_rack: usize) -> Self {
        self.racks = racks;
        self.hosts_per_rack = hosts_per_rack;
        self
    }

    /// Set the per-flow transfer size.
    pub fn with_bytes_per_flow(mut self, bytes: u64) -> Self {
        self.bytes_per_flow = bytes;
        self
    }

    /// Toggle same-timestamp delivery batching in the engine.
    pub fn with_delivery_batching(mut self, on: bool) -> Self {
        self.delivery_batching = on;
        self
    }

    /// The rules a population must meet before anything is built: at
    /// least one rack, one host per rack and one flow, and a mix with a
    /// positive weight. [`run_population`] checks them first; a spec that
    /// breaks one is [`PopulationError::Malformed`].
    pub fn check(&self) -> Result<(), PopulationError> {
        let malformed = |detail: String| Err(PopulationError::Malformed { detail });
        if self.racks == 0 || self.hosts_per_rack == 0 {
            return malformed(format!(
                "a rack grid needs at least one rack and one host per rack, got {} x {}",
                self.racks, self.hosts_per_rack
            ));
        }
        if self.total_flows == 0 || !self.mix.iter().any(|&(_, w)| w > 0) {
            return malformed(
                "a population mix needs at least one flow and a positive weight".into(),
            );
        }
        Ok(())
    }

    /// The CCA of every flow, in global flow order: smooth weighted
    /// round-robin over the mix, so any prefix carries (close to) the
    /// configured ratios and the assignment never depends on the rack
    /// grid or thread count.
    pub fn cca_assignment(&self) -> Vec<CcaKind> {
        let wsum: i64 = self.mix.iter().map(|&(_, w)| w as i64).sum();
        let mut credit = vec![0i64; self.mix.len()];
        let mut out = Vec::with_capacity(self.total_flows);
        for _ in 0..self.total_flows {
            for (c, &(_, w)) in credit.iter_mut().zip(&self.mix) {
                *c += w as i64;
            }
            let mut best = 0;
            for k in 1..credit.len() {
                if credit[k] > credit[best] {
                    best = k;
                }
            }
            credit[best] -= wsum;
            out.push(self.mix[best].0);
        }
        out
    }
}

/// Per-rack time limit: 20x the rack's ideal transfer time plus the
/// arrival ramp and a constant for RTO-heavy tails (the same shape as the
/// scenario runner's default).
fn rack_time_limit(rack_bytes: u64) -> SimTime {
    let ideal = rack_bytes as f64 * 8.0 / (LINK_GBPS * 1e9);
    SimTime::from_secs_f64(20.0 * ideal + ARRIVAL_SPREAD.as_secs_f64() + 30.0)
}

/// What one rack produced (merged by the population runner).
struct RackOutcome {
    reports: Vec<FlowReport>,
    sender_energy_j: f64,
    receiver_energy_j: f64,
    counters: netsim::engine::EngineCounters,
    marked_pkts: u64,
    sim_end: SimTime,
}

/// Why a population run failed.
#[derive(Debug)]
pub enum PopulationError {
    /// The spec breaks one of [`PopulationSpec::check`]'s rules.
    Malformed {
        /// The rule it breaks.
        detail: String,
    },
    /// One rack's simulation failed (stalled, incomplete, ...).
    Rack {
        /// Which rack.
        rack: usize,
        /// The underlying scenario-level failure.
        error: ScenarioError,
    },
}

impl std::fmt::Display for PopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopulationError::Malformed { detail } => write!(f, "{detail}"),
            PopulationError::Rack { rack, error } => write!(f, "rack {rack}: {error}"),
        }
    }
}

impl std::error::Error for PopulationError {}

/// Everything a population run produced.
#[derive(Debug)]
pub struct PopulationOutcome {
    /// Per-flow reports in global flow order.
    pub reports: Vec<FlowReport>,
    /// Total sender-side energy across all racks (J).
    pub sender_energy_j: f64,
    /// Total receiver-side energy across all racks (J).
    pub receiver_energy_j: f64,
    /// Events through all rack engines combined.
    pub events_processed: u64,
    /// Agent dispatches that carried a coalesced same-timestamp batch.
    pub dispatch_batches: u64,
    /// Packets delivered through those batched dispatches.
    pub batched_pkts: u64,
    /// Scheduler pushes served by the O(1) wheel, across racks.
    pub wheel_pushes: u64,
    /// Scheduler pushes that overflowed to the far-future heap.
    pub heap_pushes: u64,
    /// Heap entries later migrated into the wheel.
    pub migrations: u64,
    /// Packets CE-marked at rack bottlenecks, across racks.
    pub marked_pkts: u64,
    /// Latest simulated end time across racks.
    pub sim_end: SimTime,
    /// Wall-clock time for the whole population run (reporting only;
    /// never feeds back into simulated state).
    pub wall: std::time::Duration,
    /// Racks that actually ran (non-empty).
    pub racks_run: usize,
    /// Worker threads used.
    pub threads: usize,
}

/// The deterministic signature of a population run: compared with `==`
/// in the golden and equivalence tests, so batching mode, thread count,
/// and re-runs must all reproduce it bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationFingerprint {
    /// Events through all rack engines.
    pub events_processed: u64,
    /// Latest simulated end time, in nanoseconds.
    pub sim_end_ns: u64,
    /// Bit pattern of the total sender energy (exact, not approximate).
    pub sender_energy_bits: u64,
    /// Total retransmitted segments across all flows.
    pub total_retx: u64,
}

impl PopulationOutcome {
    /// Fraction of scheduler pushes served by the O(1) wheel path.
    pub fn wheel_hit_rate(&self) -> f64 {
        let total = self.wheel_pushes + self.heap_pushes;
        if total == 0 {
            return 1.0;
        }
        self.wheel_pushes as f64 / total as f64
    }

    /// Total retransmitted segments across the population.
    pub fn total_retx(&self) -> u64 {
        self.reports.iter().map(|r| r.retransmits).sum()
    }

    /// The deterministic run signature (see [`PopulationFingerprint`]).
    pub fn fingerprint(&self) -> PopulationFingerprint {
        PopulationFingerprint {
            events_processed: self.events_processed,
            sim_end_ns: self.sim_end.as_nanos(),
            sender_energy_bits: self.sender_energy_j.to_bits(),
            total_retx: self.total_retx(),
        }
    }

    /// Mean goodput (Gb/s) per CCA, in order of first appearance in the
    /// report list.
    pub fn goodput_by_cca(&self) -> Vec<(CcaKind, f64)> {
        let mut kinds: Vec<CcaKind> = Vec::new();
        for r in &self.reports {
            if !kinds.contains(&r.cca) {
                kinds.push(r.cca);
            }
        }
        kinds
            .into_iter()
            .map(|kind| {
                let mut sum = 0.0;
                let mut n = 0u64;
                for r in self.reports.iter().filter(|r| r.cca == kind) {
                    sum += r.mean_goodput.gbps();
                    n += 1;
                }
                (kind, if n == 0 { 0.0 } else { sum / n as f64 })
            })
            .collect()
    }

    /// Jain fairness index over per-flow mean goodputs.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.reports.iter().map(|r| r.mean_goodput.gbps()).collect();
        analysis::fairness::jain_index(&xs)
    }
}

/// Derive the isolated per-rack seed: a splitmix-style scramble of the
/// master seed and rack index, so racks never share RNG streams and
/// adding a rack never perturbs another's draws.
fn rack_seed(master: u64, rack: usize) -> u64 {
    let mut z = master ^ (rack as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt of a rack's start-jitter stream (`"popu"`).
const JITTER_SALT: u64 = 0x706f_7075;

/// Build and run rack cell `rack` of the population to completion: a
/// dumbbell placement on the shared harness. Flow `f` lands on rack
/// `f % racks` (even CCA mix per rack; `ccas` is the population-wide
/// [`PopulationSpec::cca_assignment`]) and, within the rack, on host
/// `local_index % hosts`, each host multiplexing its share — all pure
/// functions of the arguments: no global state, no host clock, no
/// cross-rack references. That is the worker-thread contract.
fn run_rack(
    spec: &PopulationSpec,
    ccas: &[CcaKind],
    rack: usize,
) -> Result<RackOutcome, PopulationError> {
    let seed = rack_seed(spec.seed, rack);
    let flows = || (rack..spec.total_flows).step_by(spec.racks);
    let n_flows = flows().count();
    let rack_bytes = n_flows as u64 * spec.bytes_per_flow;
    let wiring = Wiring {
        seed,
        mtu: spec.mtu,
        activity_bin: ACTIVITY_BIN,
        trace_bin: None,
        pkt_log_capacity: None,
        delivery_batching: spec.delivery_batching,
        observe: Observe::Off,
        host_pps_cap: None,
        max_rto_retries: None,
        path_capacity_bytes: harness::bdp_bytes(LINK_GBPS, HOP_DELAY.as_secs_f64() * 4.0)
            + BUFFER_BYTES,
        time_limit: rack_time_limit(rack_bytes),
        wall_deadline: None,
    };
    let run = simulate_on(&wiring, |net, _obs| {
        let cfg = DumbbellConfig {
            bottleneck_links: SENDER_BOND_LINKS,
            bottleneck_queue: harness::bottleneck_queue(
                spec.mtu,
                BUFFER_BYTES,
                flows().map(|f| ccas[f]),
            ),
            senders: spec.hosts_per_rack,
            ..DumbbellConfig::default()
        };
        let cell = Dumbbell::build(net, &cfg);
        // Every host multiplexes, even one left with a single flow.
        let mut senders: Vec<SenderHost> = cell
            .senders
            .iter()
            .map(|&host| SenderHost {
                host,
                flows: Vec::new(),
                mux: true,
            })
            .collect();
        let jitters = harness::start_jitters(seed ^ JITTER_SALT, START_JITTER, n_flows);
        let spread_ns = ARRIVAL_SPREAD.as_nanos();
        for (local, (f, jitter)) in flows().zip(jitters).enumerate() {
            let ramp = SimDuration::from_nanos(spread_ns * f as u64 / spec.total_flows as u64);
            senders[local % spec.hosts_per_rack].flows.push(PlacedFlow {
                flow: FlowId::from_raw(f as u32),
                spec: FlowSpec::bulk(ccas[f], spec.bytes_per_flow).with_start_delay(ramp + jitter),
                receiver: cell.receiver,
                base_rtt: HOP_DELAY * 4,
            });
        }
        senders.retain(|host| !host.flows.is_empty());
        Ok(Placement {
            senders,
            receivers: vec![cell.receiver],
        })
    })
    .map_err(|error| PopulationError::Rack { rack, error })?;
    let energy = run.meter(StressLoad::IDLE);
    Ok(RackOutcome {
        sender_energy_j: energy.sender_energy_j,
        receiver_energy_j: energy.receiver_energy_j,
        counters: run.engine,
        marked_pkts: run.net_stats.marked_pkts,
        sim_end: run.sim_end,
        // Host-major within the rack; the merger re-sorts globally.
        reports: run.reports,
    })
}

/// Run a population with its racks spread over every core
/// ([`host_threads`]). Identical result to
/// [`run_population_with_threads`] with any worker count, including 1.
///
/// Like [`crate::par::par_map`], not to be called from inside a
/// `par_map` job or a campaign cell: those already run one per core, and
/// a nested pool only multiplies live racks (and their memory) without
/// adding parallelism.
pub fn run_population(spec: &PopulationSpec) -> Result<PopulationOutcome, PopulationError> {
    run_population_with_threads(spec, host_threads())
}

/// Run a population with `threads` worker threads, whole racks per
/// worker, merged in rack-index order. Because every rack is a pure
/// function of its plan, the outcome is bit-identical for any
/// `threads >= 1`. This is the tests' seam for pinning that; product
/// callers use [`run_population`].
pub fn run_population_with_threads(
    spec: &PopulationSpec,
    threads: usize,
) -> Result<PopulationOutcome, PopulationError> {
    spec.check()?;
    // Racks past the last flow are empty and never run.
    let racks: Vec<usize> = (0..spec.racks.min(spec.total_flows)).collect();
    let racks_run = racks.len();
    let ccas = spec.cca_assignment();
    let threads = threads.clamp(1, racks_run.max(1));
    // simlint::allow(wall-clock, reason = "events/s reporting only; the reading never feeds back into simulated state")
    let t0 = std::time::Instant::now();
    // Which worker runs which rack affects only wall time: each rack is
    // a pure function of (spec, rack) and the merge below is in rack
    // order. A rack's panic is re-raised here, as on one thread.
    let outcomes = par_map_with_threads(&racks, threads, |&rack| run_rack(spec, &ccas, rack));
    let wall = t0.elapsed();

    // Deterministic merge: rack-index order, then global flow order.
    let mut reports = Vec::with_capacity(spec.total_flows);
    let mut sender_energy_j = 0.0;
    let mut receiver_energy_j = 0.0;
    let mut events_processed = 0u64;
    let mut dispatch_batches = 0u64;
    let mut batched_pkts = 0u64;
    let mut wheel_pushes = 0u64;
    let mut heap_pushes = 0u64;
    let mut migrations = 0u64;
    let mut marked_pkts = 0u64;
    let mut sim_end = SimTime::ZERO;
    for outcome in outcomes {
        let rack = outcome?;
        reports.extend(rack.reports);
        sender_energy_j += rack.sender_energy_j;
        receiver_energy_j += rack.receiver_energy_j;
        events_processed += rack.counters.events_processed;
        dispatch_batches += rack.counters.dispatch_batches;
        batched_pkts += rack.counters.batched_pkts;
        wheel_pushes += rack.counters.sched.wheel_pushes;
        heap_pushes += rack.counters.sched.heap_pushes;
        migrations += rack.counters.sched.migrations;
        marked_pkts += rack.marked_pkts;
        sim_end = sim_end.max(rack.sim_end);
    }
    reports.sort_by_key(|r| r.flow.index());
    Ok(PopulationOutcome {
        reports,
        sender_energy_j,
        receiver_energy_j,
        events_processed,
        dispatch_batches,
        batched_pkts,
        wheel_pushes,
        heap_pushes,
        migrations,
        marked_pkts,
        sim_end,
        wall,
        racks_run,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::KB;

    fn tiny_spec() -> PopulationSpec {
        PopulationSpec::new(48, vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)])
            .with_grid(4, 4)
            .with_bytes_per_flow(200 * KB)
            .with_seed(42)
    }

    #[test]
    fn mix_assignment_matches_ratios() {
        let spec = PopulationSpec::new(110, vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)]);
        let ccas = spec.cca_assignment();
        let cubic = ccas.iter().filter(|&&c| c == CcaKind::Cubic).count();
        let bbr = ccas.iter().filter(|&&c| c == CcaKind::Bbr).count();
        assert_eq!(cubic, 100);
        assert_eq!(bbr, 10);
        // Smooth: any window of 11 consecutive flows holds exactly 1 BBR.
        for w in ccas.windows(11) {
            assert_eq!(w.iter().filter(|&&c| c == CcaKind::Bbr).count(), 1);
        }
    }

    #[test]
    fn all_flows_complete_in_global_order() {
        let out = run_population(&tiny_spec()).expect("population completes");
        assert_eq!(out.reports.len(), 48);
        for (i, r) in out.reports.iter().enumerate() {
            assert_eq!(r.flow.index(), i, "reports in global flow order");
            assert!(r.outcome.is_completed(), "flow {i} incomplete");
            assert_eq!(r.bytes_acked, 200 * KB);
        }
        assert!(out.sender_energy_j > 0.0);
        assert!(out.receiver_energy_j > 0.0);
        assert!(out.events_processed > 0);
        assert_eq!(out.racks_run, 4);
    }

    #[test]
    fn thread_count_does_not_change_the_fingerprint() {
        let spec = tiny_spec();
        let one = run_population_with_threads(&spec, 1).expect("1 thread");
        let three = run_population_with_threads(&spec, 3).expect("3 threads");
        let eight = run_population_with_threads(&spec, 8).expect("8 threads");
        assert_eq!(one.fingerprint(), three.fingerprint());
        assert_eq!(one.fingerprint(), eight.fingerprint());
        // And the full per-flow detail, not just the digest.
        for (a, b) in one.reports.iter().zip(&three.reports) {
            assert_eq!(a.flow, b.flow);
            assert_eq!(a.fct, b.fct);
            assert_eq!(a.retransmits, b.retransmits);
            assert_eq!(a.acks_processed, b.acks_processed);
        }
    }

    /// The default path (every core) against the one-thread run, on the
    /// golden tiny spec and on the 4-rack / 48-flow one: the fingerprint,
    /// every field of every report (`Debug` prints floats round-trip, so
    /// string equality is bit equality) and the receiver-side Joules.
    #[test]
    fn the_default_thread_count_changes_nothing() {
        for spec in [PopulationSpec::bulk_10k_flows_tiny(), tiny_spec()] {
            let default = run_population(&spec).expect("default threads");
            let one = run_population_with_threads(&spec, 1).expect("1 thread");
            assert_eq!(default.threads, host_threads().min(default.racks_run));
            assert_eq!(one.threads, 1);
            assert_eq!(default.fingerprint(), one.fingerprint());
            assert_eq!(
                format!("{:?}", default.reports),
                format!("{:?}", one.reports)
            );
            assert_eq!(
                default.receiver_energy_j.to_bits(),
                one.receiver_energy_j.to_bits()
            );
        }
    }

    #[test]
    fn batching_off_matches_batching_on() {
        let spec = tiny_spec();
        let on = run_population(&spec).expect("batched");
        let off = run_population(&spec.clone().with_delivery_batching(false)).expect("unbatched");
        assert_eq!(on.fingerprint(), off.fingerprint());
        assert!(
            on.dispatch_batches < on.batched_pkts,
            "batched mode must coalesce somewhere: {} dispatches / {} pkts",
            on.dispatch_batches,
            on.batched_pkts
        );
        assert_eq!(
            off.dispatch_batches, off.batched_pkts,
            "unbatched mode must never coalesce"
        );
    }

    #[test]
    fn identical_seeds_reproduce_bit_for_bit() {
        let spec = tiny_spec();
        let a = run_population(&spec).expect("a");
        let b = run_population(&spec).expect("b");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.sender_energy_j.to_bits(), b.sender_energy_j.to_bits());
    }

    /// A rack's bottleneck follows the same queue rule as the dumbbell:
    /// DCTCP flows get CE marks, CUBIC flows a plain drop-tail.
    #[test]
    fn a_dctcp_rack_marks_and_a_cubic_rack_does_not() {
        let rack = |cca| {
            PopulationSpec::new(16, vec![(cca, 1)])
                .with_grid(1, 8)
                .with_bytes_per_flow(2_000_000)
                .with_seed(1)
        };
        let dctcp = run_population(&rack(CcaKind::Dctcp)).expect("dctcp rack");
        let cubic = run_population(&rack(CcaKind::Cubic)).expect("cubic rack");
        assert!(dctcp.marked_pkts > 0, "a DCTCP rack must see CE marks");
        assert_eq!(cubic.marked_pkts, 0);
    }

    #[test]
    fn fairness_helpers_are_sane() {
        let out = run_population(&tiny_spec()).expect("population completes");
        let jain = out.jain_fairness();
        assert!((0.0..=1.0).contains(&jain), "jain={jain}");
        let by_cca = out.goodput_by_cca();
        assert_eq!(by_cca.len(), 2);
        assert!(by_cca.iter().all(|&(_, g)| g > 0.0));
    }

    /// Every field of a spec is `pub`: each rule is checked before a
    /// rack is built, never a panic on a worker or a run of nothing.
    #[test]
    fn malformed_populations_are_typed_errors() {
        type Break = fn(&mut PopulationSpec);
        let spec = || PopulationSpec::new(4, vec![(CcaKind::Cubic, 1)]).with_grid(2, 2);
        let cases: [(&str, Break); 5] = [
            ("no racks", |s| s.racks = 0),
            ("no hosts", |s| s.hosts_per_rack = 0),
            ("no flows", |s| s.total_flows = 0),
            ("empty mix", |s| s.mix.clear()),
            ("zero weights", |s| {
                s.mix = vec![(CcaKind::Cubic, 0), (CcaKind::Bbr, 0)]
            }),
        ];
        for (what, break_it) in cases {
            let mut bad = spec();
            break_it(&mut bad);
            let err = run_population(&bad).expect_err(what);
            assert!(
                err.to_string().contains("needs at least one"),
                "{what}: {err}"
            );
        }
        assert!(run_population(&spec()).is_ok());
    }

    #[test]
    fn sparse_rack_grid_handles_fewer_flows_than_racks() {
        let spec = PopulationSpec::new(3, vec![(CcaKind::Cubic, 1)])
            .with_grid(8, 2)
            .with_bytes_per_flow(100 * KB);
        let out = run_population(&spec).expect("sparse population");
        assert_eq!(out.reports.len(), 3);
        assert_eq!(out.racks_run, 3, "empty racks are skipped");
    }
}
