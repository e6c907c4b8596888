//! Production-style traffic: Poisson flow arrivals with heavy-tailed
//! sizes.
//!
//! The paper's §5 asks whether the energy findings hold "with the sorts
//! of workloads used in production data centers". This module generates
//! them: flows arrive as a Poisson process and draw sizes from a
//! heavy-tailed mix patterned on published datacenter distributions
//! (many mice, a few elephants carrying most bytes).

use crate::iperf::FlowSpec;
use cca::CcaKind;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::topology::LINK_GBPS;

/// A heavy-tailed flow-size distribution: a discrete mix of (probability,
/// size) classes, defaulting to a web-search-like pattern.
#[derive(Clone, Debug)]
pub struct SizeMix {
    /// `(weight, bytes)` classes; weights need not sum to 1.
    pub classes: Vec<(f64, u64)>,
}

impl SizeMix {
    /// A web-search-like mix: 60% mice (100 KB), 30% medium (1 MB),
    /// 9% large (10 MB), 1% elephants (100 MB). Elephants carry most of
    /// the bytes, as in the DCTCP/pFabric workload studies.
    pub fn websearch() -> SizeMix {
        SizeMix {
            classes: vec![
                (0.60, 100_000),
                (0.30, 1_000_000),
                (0.09, 10_000_000),
                (0.01, 100_000_000),
            ],
        }
    }

    /// Mean flow size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let total_w: f64 = self.classes.iter().map(|c| c.0).sum();
        self.classes.iter().map(|&(w, b)| w * b as f64).sum::<f64>() / total_w
    }

    /// Draw one size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let total_w: f64 = self.classes.iter().map(|c| c.0).sum();
        let mut x = rng.next_f64() * total_w;
        for &(w, b) in &self.classes {
            if x < w {
                return b;
            }
            x -= w;
        }
        self.classes.last().expect("non-empty mix").1
    }
}

/// A Poisson open-loop workload description.
#[derive(Clone, Debug)]
pub struct PoissonWorkload {
    /// Target offered load as a fraction of the testbed's link rate
    /// ([`LINK_GBPS`]).
    pub load: f64,
    /// Flow-size distribution.
    pub sizes: SizeMix,
    /// Number of flows to generate.
    pub flows: usize,
    /// Congestion control for every flow.
    pub cca: CcaKind,
}

impl PoissonWorkload {
    /// A workload offering `load` of the testbed link with the
    /// web-search mix.
    pub fn new(load: f64, flows: usize, cca: CcaKind) -> Self {
        assert!(load > 0.0 && load < 1.0, "open-loop load must be in (0,1)");
        assert!(flows > 0);
        PoissonWorkload {
            load,
            sizes: SizeMix::websearch(),
            flows,
            cca,
        }
    }

    /// Mean inter-arrival time for the configured load.
    pub fn mean_interarrival(&self) -> SimDuration {
        let bytes_per_sec = self.load * LINK_GBPS * 1e9 / 8.0;
        let arrivals_per_sec = bytes_per_sec / self.sizes.mean_bytes();
        SimDuration::from_secs_f64(1.0 / arrivals_per_sec)
    }

    /// Generate the flow specs: exponential inter-arrivals, sampled sizes.
    pub fn generate(&self, seed: u64) -> Vec<FlowSpec> {
        // simlint::allow(rng-discipline, reason = "named stream: workload seed XOR 'pois' salt; arrival sampling must not share draws with any engine stream")
        let mut rng = SimRng::new(seed ^ 0x706f_6973);
        let mean_gap = self.mean_interarrival().as_secs_f64();
        let mut t = 0.0;
        (0..self.flows)
            .map(|_| {
                // Exponential(mean_gap) via inverse transform.
                let u = rng.next_f64().max(1e-12);
                t += -mean_gap * u.ln();
                FlowSpec::bulk(self.cca, self.sizes.sample(&mut rng))
                    .with_start_delay(SimDuration::from_secs_f64(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn websearch_mix_is_elephant_dominated() {
        let mix = SizeMix::websearch();
        // Mean ~ 0.6*0.1 + 0.3*1 + 0.09*10 + 0.01*100 MB = 2.26 MB.
        assert!((mix.mean_bytes() - 2_260_000.0).abs() < 1.0);
        // Elephants (1% of flows) carry ~44% of bytes.
        let elephant_share = 0.01 * 100e6 / mix.mean_bytes();
        assert!(elephant_share > 0.4);
    }

    #[test]
    fn sampling_matches_weights() {
        let mix = SizeMix::websearch();
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let mice = (0..n).filter(|_| mix.sample(&mut rng) == 100_000).count() as f64 / n as f64;
        assert!((mice - 0.6).abs() < 0.01, "mice fraction {mice}");
    }

    #[test]
    fn interarrival_matches_load() {
        let w = PoissonWorkload::new(0.5, 100, CcaKind::Cubic);
        // 0.5 * 10 Gb/s = 625 MB/s offered; mean size 2.26 MB
        // -> ~276 arrivals/s -> ~3.6 ms inter-arrival.
        let gap = w.mean_interarrival().as_secs_f64();
        assert!((gap - 0.00362).abs() < 0.0002, "gap {gap}");
    }

    #[test]
    fn generated_arrivals_are_ordered_and_sized() {
        let w = PoissonWorkload::new(0.3, 50, CcaKind::Cubic);
        let flows = w.generate(42);
        assert_eq!(flows.len(), 50);
        let mut prev = SimDuration::ZERO;
        for f in &flows {
            assert!(f.start_delay >= prev, "arrivals must be ordered");
            prev = f.start_delay;
            assert!(f.bytes >= 100_000);
        }
        // Determinism.
        let again = w.generate(42);
        assert_eq!(flows.len(), again.len());
        assert!(flows
            .iter()
            .zip(&again)
            .all(|(a, b)| a.start_delay == b.start_delay && a.bytes == b.bytes));
    }

    #[test]
    fn empirical_rate_tracks_the_poisson_mean() {
        let w = PoissonWorkload::new(0.5, 2000, CcaKind::Cubic);
        let flows = w.generate(7);
        let span = flows.last().unwrap().start_delay.as_secs_f64();
        let measured_rate = flows.len() as f64 / span;
        let expected = 1.0 / w.mean_interarrival().as_secs_f64();
        assert!(
            (measured_rate - expected).abs() / expected < 0.1,
            "rate {measured_rate} vs {expected}"
        );
    }
}
