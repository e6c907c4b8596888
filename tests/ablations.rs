//! Ablations of the design choices `DESIGN.md` calls out: each test runs
//! the system with a mechanism enabled and disabled and asserts the
//! difference in the *simulated* outcome that the mechanism exists for.

use green_envy_repro::cca::{CcaConfig, CcaKind};
use green_envy_repro::energy::prelude::*;
use green_envy_repro::netsim::prelude::*;
use green_envy_repro::transport::prelude::*;
use green_envy_repro::workload::prelude::*;

/// Tail-loss probe: without TLP, a lossy transfer pays RTO stalls; with
/// it, recovery is RTT-scale.
#[test]
fn tlp_beats_rto_only_tail_recovery() {
    fn run_once(tlp: bool) -> (f64, u64) {
        let mut net = Network::new(5);
        let cfg = DumbbellConfig {
            bottleneck_queue: BottleneckQueue::DropTail {
                capacity_bytes: 30_000,
            },
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        // A short transfer whose entire window bursts at once into a
        // 30 KB buffer: the burst's tail — which is also the flow's tail —
        // is guaranteed to drop, with no later data to trigger SACKs.
        // That is precisely the loss TLP exists for.
        let mut scfg = TcpSenderConfig::bulk(FlowId::from_raw(0), d.receiver, 9000, 100_000);
        if !tlp {
            scfg = scfg.without_tlp();
        }
        let cc = CcaKind::Baseline.build(&CcaConfig::new(8960).with_baseline_cwnd(200_000));
        net.attach_agent(d.senders[0], Box::new(TcpSender::new(scfg, cc)));
        net.attach_agent(
            d.receiver,
            Box::new(TcpReceiver::new(AckPolicy::delayed_default())),
        );
        net.run_until(SimTime::from_secs(30));
        let s = net.agent::<TcpSender>(d.senders[0]).unwrap();
        assert!(s.is_complete());
        (s.fct().unwrap().as_secs_f64(), s.stats().rto_count)
    }

    let (fct_with, _) = run_once(true);
    let (fct_without, rtos_without) = run_once(false);
    assert!(
        fct_with < fct_without,
        "TLP must beat RTO-only tail recovery: {fct_with} vs {fct_without}"
    );
    assert!(rtos_without > 0, "the no-TLP run must pay RTOs");
}

/// Host pps ceiling: the cap is what separates the MTU-1500 cluster from
/// the jumbo cluster (paper Fig. 7). With the cap, an MTU-1500 sender
/// cruises *below* the wire rate and never congests; without it, the
/// flow reaches the queue and pays sawtooth losses.
#[test]
fn pps_cap_keeps_an_mtu_1500_flow_off_the_queue() {
    fn run_once(capped: bool) -> (f64, u64) {
        let mut s = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 25 * MB)]);
        if !capped {
            s.host_pps_cap = None;
        }
        let out = workload::scenario::run(&s).unwrap();
        (
            out.reports[0].mean_goodput.gbps(),
            out.reports[0].retransmits,
        )
    }
    let (capped, retx_capped) = run_once(true);
    let (_, retx_uncapped) = run_once(false);
    assert!(
        capped < 8.0,
        "the ceiling must keep the flow below the wire rate: {capped:.2} Gb/s"
    );
    assert_eq!(retx_capped, 0, "a capped flow never congests the link");
    assert!(
        retx_uncapped > 0,
        "an uncapped MTU-1500 flow reaches the queue and loses"
    );
}

/// Bottleneck discipline: DCTCP on its step-marking queue sees CE marks;
/// forced onto a plain drop-tail it sees none.
#[test]
fn dctcp_is_marked_only_on_the_ecn_queue() {
    fn marked_pkts(queue: BottleneckQueue) -> u64 {
        let mut net = Network::new(9);
        let cfg = DumbbellConfig {
            bottleneck_queue: queue,
            ..DumbbellConfig::default()
        };
        let d = Dumbbell::build(&mut net, &cfg);
        let scfg = TcpSenderConfig::bulk(FlowId::from_raw(0), d.receiver, 9000, 25 * MB);
        let cc = CcaKind::Dctcp.build(&CcaConfig::new(8960));
        net.attach_agent(d.senders[0], Box::new(TcpSender::new(scfg, cc)));
        net.attach_agent(
            d.receiver,
            Box::new(TcpReceiver::new(AckPolicy::dctcp_default())),
        );
        net.run_until(SimTime::from_secs(30));
        net.network_stats().marked_pkts
    }
    let marks_ecn = marked_pkts(BottleneckQueue::EcnThreshold {
        capacity_bytes: 1_000_000,
        mark_bytes: 100_000,
    });
    let marks_droptail = marked_pkts(BottleneckQueue::DropTail {
        capacity_bytes: 1_000_000,
    });
    assert!(marks_ecn > 0, "the step-marking queue must mark");
    assert_eq!(marks_droptail, 0, "a drop-tail queue never marks");
}

/// Load coupling: with the coupling removed, the loaded-host savings
/// stay near the idle-host 16% instead of collapsing to ~1%.
#[test]
fn load_coupling_collapses_the_savings_on_a_loaded_host() {
    fn savings(coupled: bool, load: f64) -> f64 {
        let mut model = reference_host_model();
        if !coupled {
            model.coupling = LoadCoupling::NONE;
        }
        let ctx = HostContext {
            background_util: load,
            cc_cost_per_ack_j: cc_cost_per_ack_ref_j(),
        };
        let p5 = model.sender_power_at(5.0, 9000, 0.5, ctx);
        let p10 = model.sender_power_at(10.0, 9000, 0.5, ctx);
        let p0 = model.sender_power_at(0.0, 9000, 0.5, ctx);
        let fair = 2.0 * 2.0 * p5;
        let unfair = 2.0 * (p10 + p0);
        (fair - unfair) / fair
    }
    let coupled = savings(true, 0.25);
    let uncoupled = savings(false, 0.25);
    assert!(
        coupled < uncoupled / 3.0,
        "savings at 25% load: coupled {coupled:.4} vs uncoupled {uncoupled:.4}"
    );
}
