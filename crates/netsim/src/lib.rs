//! # netsim — deterministic packet-level network simulation
//!
//! A small, fast discrete-event simulator purpose-built for transport and
//! energy experiments: integer-nanosecond clock, deterministic event
//! ordering, links with serialization/propagation delays and pluggable
//! queue disciplines (drop-tail, DCTCP step marking, RED), switches with
//! static routing, link bonding with round-robin spraying, and built-in
//! per-flow and per-host measurement instrumentation.
//!
//! ## Quick tour
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut net = Network::new(42);
//! let cfg = DumbbellConfig::default();           // the paper's testbed
//! let dumbbell = Dumbbell::build(&mut net, &cfg);
//! net.enable_flow_trace(SimDuration::from_millis(10));
//! // ... attach transport agents to dumbbell.senders / dumbbell.receiver,
//! // then:
//! net.run();
//! ```
//!
//! Hosts run [`agent::Agent`] implementations; the `transport` crate
//! provides TCP-like senders and receivers on top of this interface.

#![warn(missing_docs)]

pub mod agent;
pub mod engine;
pub mod fault;
pub mod flowtab;
pub mod ids;
pub mod link;
pub mod packet;
pub mod pktlog;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::agent::{Agent, Ctx, TOKEN_BITS, TOKEN_MASK};
    pub use crate::engine::{EngineCounters, Network, NetworkStats, RunOutcome};
    pub use crate::fault::{FaultSpec, FaultSpecError, LinkFlap};
    pub use crate::flowtab::FlowIndex;
    pub use crate::ids::{FlowId, LinkId, NodeId};
    pub use crate::link::{LinkSpec, LinkStats};
    pub use crate::packet::{
        AckInfo, EcnCodepoint, IntRecord, Packet, PacketKind, SackBlocks, HEADER_BYTES,
    };
    pub use crate::pktlog::{PacketEvent, PacketEventKind, PacketLog};
    pub use crate::pool::{FramePool, FrameRef};
    pub use crate::queue::{
        DropTailQueue, EcnThresholdQueue, EnqueueOutcome, Qdisc, QueueStats, RedQueue,
    };
    pub use crate::rng::SimRng;
    pub use crate::sched::{SchedStats, Scheduler};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{
        BottleneckQueue, Dumbbell, DumbbellConfig, Incast, IncastConfig, ParkingLot,
        ParkingLotConfig,
    };
    pub use crate::trace::{ActivityBin, ActivitySeries, ActivityTotals, FlowTrace, HostActivity};
    pub use crate::units::{average_rate, Rate, GB, KB, MB};
}
