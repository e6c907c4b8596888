//! # energy — RAPL-style end-host energy modeling
//!
//! The paper measures CPU energy with Intel RAPL on a physical testbed.
//! This crate substitutes a calibrated software model (see `DESIGN.md`):
//!
//! * a strictly **concave throughput→power curve** fitted through the
//!   paper's published CUBIC operating points (21.49 W idle, 34.23 W at
//!   5 Gb/s, 35.82 W at 10 Gb/s),
//! * **per-packet / per-ack / per-retransmission costs** that make MTU
//!   and CCA choices visible in power, as in the paper's Figs. 5-6,
//! * a **Fan-model background-compute curve** and a **load coupling**
//!   fitted to the paper's Fig. 4 savings (1% at 25% load, 0.17% at 75%),
//! * an emulated, quantized, wrapping **RAPL counter** read before/after
//!   each scenario, reproducing the paper's measurement procedure.
//!
//! ```
//! use energy::prelude::*;
//!
//! let model = reference_host_model();
//! let ctx = HostContext { background_util: 0.0,
//!                         cc_cost_per_ack_j: cc_cost_per_ack_ref_j() };
//! let p5 = model.sender_power_at(5.0, 9000, 0.5, ctx);
//! assert!((p5 - 34.23).abs() < 1e-6); // the paper's Figure 2 point
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod coupling;
pub mod host;
pub mod meter;
pub mod model;
pub mod rapl;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::calibration::{
        cc_cost_per_ack_ref_j, reference_coupling, reference_curve, reference_fan,
        reference_host_model, tx_pkt_cost_j, tx_pps, ACKS_PER_SEGMENT, MAX_HOST_PPS, P_10GBPS_W,
        P_5GBPS_W, P_BUSY_W, P_IDLE_W,
    };
    pub use crate::coupling::LoadCoupling;
    pub use crate::host::{EnergyBreakdown, HostContext, HostPowerModel, PacketCosts};
    pub use crate::meter::{EnergyMeter, EnergyReading};
    pub use crate::model::{is_strictly_concave, FanModel, ThroughputPowerCurve};
    pub use crate::rapl::{RaplCounter, DEFAULT_UNIT_J};
}
