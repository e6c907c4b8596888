//! The parking lot: one long flow against per-hop cross traffic.
//!
//! [`netsim::topology::ParkingLot`] builds the classic chain — switches
//! `S0..=Sh`, one "through" flow spanning every bottleneck, one local
//! flow straddling each hop. [`ParkingRun::run`] is that topology's
//! placement on the shared run harness ([`workload::harness`]): it
//! builds the chain, installs the fault on the **first** chain link (the
//! one every through-path packet crosses), names hosts and per-hop
//! queues for the trace viewer and puts one flow on each sender host.
//! Wiring, running, reports, metering and observability are the
//! harness's, so a run returns the same [`ScenarioOutcome`] a dumbbell
//! run does.
//!
//! Flow order: flow 0 is the through flow; flow `1 + i` is the local
//! flow over hop `i`.

use netsim::fault::FaultSpec;
use netsim::ids::FlowId;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::{BottleneckQueue, ParkingLot, ParkingLotConfig};
use netsim::units::Rate;
use workload::harness::{self, simulate_on, PlacedFlow, Placement, SenderHost, Wiring};
use workload::iperf::FlowSpec;
use workload::scenario::{Observe, ScenarioError, ScenarioOutcome};
use workload::stress::StressLoad;

/// Everything the parking lot needs for one run.
#[derive(Clone, Debug)]
pub struct ParkingRun {
    /// Bottleneck hops (and local flows). Flow specs must number
    /// `hops + 1`: the through flow first, then one local flow per hop.
    pub hops: usize,
    /// MTU in bytes.
    pub mtu: u32,
    /// Chain and edge link rate in Gb/s.
    pub link_gbps: f64,
    /// One-way propagation delay per hop.
    pub hop_delay: SimDuration,
    /// Bottleneck buffer per chain link, in bytes.
    pub buffer_bytes: u64,
    /// The flows: `[through, local_0, ..., local_{hops-1}]`.
    pub flows: Vec<FlowSpec>,
    /// Master RNG seed.
    pub seed: u64,
    /// Per-flow throughput tracing bin (`None` = no traces).
    pub trace_bin: Option<SimDuration>,
    /// Fault installed on the first chain link (`None` = clean wire).
    pub fault: Option<FaultSpec>,
    /// Consecutive-RTO retry budget override.
    pub max_rto_retries: Option<u32>,
    /// Observability mode; [`Observe::Full`] returns a report in
    /// [`ScenarioOutcome::obs`].
    pub observe: Observe,
}

impl ParkingRun {
    fn time_limit(&self) -> SimTime {
        let total: u64 = self.flows.iter().map(|f| f.bytes).sum();
        let ideal = total as f64 * 8.0 / (self.link_gbps * 1e9);
        SimTime::from_secs_f64(20.0 * ideal + 30.0)
    }

    /// Build, run, and measure with idle sender hosts. The through
    /// flow's path capacity (one chain link's rate) is the capacity
    /// expectations divide by.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        debug_assert_eq!(self.flows.len(), self.hops + 1, "through + one per hop");
        // The constant-cwnd baseline is sized against the longest path:
        // the through flow crosses every hop.
        let through_rtt_s = self.hop_delay.as_secs_f64() * 2.0 * (self.hops + 1) as f64;
        let wiring = Wiring {
            seed: self.seed,
            mtu: self.mtu,
            activity_bin: SimDuration::from_millis(1),
            trace_bin: self.trace_bin,
            pkt_log_capacity: None,
            delivery_batching: true,
            observe: self.observe,
            // The ceiling models the testbed's iperf hosts; the lot's
            // hosts are unconstrained.
            host_pps_cap: None,
            max_rto_retries: self.max_rto_retries,
            path_capacity_bytes: harness::bdp_bytes(self.link_gbps, through_rtt_s)
                + self.buffer_bytes,
            time_limit: self.time_limit(),
            wall_deadline: None,
        };
        let run = simulate_on(&wiring, |net, obs_rec| {
            let cfg = ParkingLotConfig {
                hops: self.hops,
                link_rate: Rate::from_gbps(self.link_gbps),
                edge_rate: Rate::from_gbps(self.link_gbps),
                hop_delay: self.hop_delay,
                bottleneck_queue: BottleneckQueue::DropTail {
                    capacity_bytes: self.buffer_bytes,
                },
                edge_buffer_bytes: 4_000_000,
            };
            let lot = ParkingLot::build(net, &cfg);
            if let Some(spec) = &self.fault {
                net.set_link_fault(lot.bottlenecks[0], spec.clone())
                    .map_err(ScenarioError::Fault)?;
            }
            if let Some(rec) = obs_rec {
                let mut r = rec.borrow_mut();
                r.name_host(lot.through_sender.index() as u32, "through sender");
                r.name_host(lot.through_receiver.index() as u32, "through receiver");
                for i in 0..self.hops {
                    r.name_host(
                        lot.local_senders[i].index() as u32,
                        &format!("local sender {i}"),
                    );
                    r.name_host(
                        lot.local_receivers[i].index() as u32,
                        &format!("local receiver {i}"),
                    );
                    r.name_queue(lot.bottlenecks[i].index() as u32, &format!("hop {i}"));
                }
            }

            // Sender host i drives flow i; the through pair spans the
            // chain, local pair i straddles hop i. Each flow's RTT
            // estimator is seeded with its own base RTT.
            let senders = std::iter::once(lot.through_sender).chain(lot.local_senders);
            let receivers: Vec<_> = std::iter::once(lot.through_receiver)
                .chain(lot.local_receivers)
                .collect();
            let senders = senders
                .zip(&receivers)
                .zip(&self.flows)
                .enumerate()
                .map(|(i, ((host, &receiver), spec))| {
                    let path_hops = if i == 0 { self.hops + 1 } else { 2 } as u64;
                    SenderHost {
                        host,
                        flows: vec![PlacedFlow {
                            flow: FlowId::from_raw(i as u32),
                            spec: spec.clone(),
                            receiver,
                            base_rtt: self.hop_delay.saturating_mul(2 * path_hops),
                        }],
                        mux: false,
                    }
                })
                .collect();
            Ok(Placement { senders, receivers })
        })?;
        Ok(run.finish(StressLoad::IDLE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;

    fn three_hop(bytes: u64) -> ParkingRun {
        ParkingRun {
            hops: 3,
            mtu: 1500,
            link_gbps: 10.0,
            hop_delay: SimDuration::from_micros(25),
            buffer_bytes: 500_000,
            flows: vec![
                FlowSpec::bulk(CcaKind::Cubic, bytes),
                FlowSpec::bulk(CcaKind::Cubic, bytes),
                FlowSpec::bulk(CcaKind::Cubic, bytes),
                FlowSpec::bulk(CcaKind::Cubic, bytes),
            ],
            seed: 7,
            trace_bin: None,
            fault: None,
            max_rto_retries: None,
            observe: Observe::Off,
        }
    }

    #[test]
    fn through_flow_completes_against_cross_traffic() {
        let m = three_hop(2_000_000).run().expect("run completes");
        assert_eq!(m.reports.len(), 4);
        assert!(m.reports.iter().all(|r| r.outcome.is_completed()));
        assert!(m.sender_energy_j > 0.0);
        // The through flow crosses every contended hop; each local flow
        // contends at exactly one. The through flow cannot beat the
        // best local flow.
        let through = m.reports[0].mean_goodput.gbps();
        let best_local = m.reports[1..]
            .iter()
            .map(|r| r.mean_goodput.gbps())
            .fold(0.0, f64::max);
        assert!(
            through <= best_local + 1e-9,
            "through {through} vs best local {best_local}"
        );
    }

    #[test]
    fn runs_replay_bit_identically() {
        let a = three_hop(1_000_000).run().expect("first run");
        let b = three_hop(1_000_000).run().expect("second run");
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.sender_energy_j.to_bits(), b.sender_energy_j.to_bits());
    }

    #[test]
    fn fault_on_the_first_hop_hits_the_through_flow() {
        let mut run = three_hop(1_000_000);
        run.fault = Some(FaultSpec::random_loss(0.02));
        let m = run.run().expect("survives 2% loss");
        assert!(m.injected_drops > 0);
        assert!(m.reports[0].retransmits > 0, "through flow crosses hop 0");
    }

    #[test]
    fn invalid_fault_surfaces_as_scenario_error() {
        let mut run = three_hop(100_000);
        run.fault = Some(FaultSpec::random_loss(2.0));
        match run.run() {
            Err(ScenarioError::Fault(_)) => {}
            other => panic!("expected Fault error, got {other:?}"),
        }
    }
}
