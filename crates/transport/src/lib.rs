//! # transport — TCP-like reliable transport for the simulator
//!
//! The shared machinery the paper's kernel provides to every congestion
//! control algorithm: a SACK scoreboard with RFC 6675-style loss marking,
//! RFC 6298 RTO estimation with exponential backoff, delayed/immediate/
//! DCTCP acknowledgement policies, application rate limiting ("sending
//! smoothly at a certain throughput"), packet pacing, and a host
//! packet-processing ceiling.
//!
//! Congestion control is pluggable through [`cc::CongestionControl`]
//! (the analogue of Linux's `tcp_congestion_ops`); the `cca` crate
//! implements the paper's ten algorithms against it.
//!
//! A flow is a [`sender::TcpSender`] agent on one host and a
//! [`receiver::TcpReceiver`] agent on another, connected by any `netsim`
//! topology:
//!
//! ```
//! use netsim::prelude::*;
//! use transport::prelude::*;
//!
//! let mut net = Network::new(1);
//! let d = Dumbbell::build(&mut net, &DumbbellConfig::default());
//! let flow = FlowId::from_raw(0);
//! let cfg = TcpSenderConfig::bulk(flow, d.receiver, 9000, 10_000_000);
//! net.attach_agent(d.senders[0],
//!     Box::new(TcpSender::new(cfg, Box::new(FixedCwnd::new(1_000_000)))));
//! net.attach_agent(d.receiver,
//!     Box::new(TcpReceiver::new(AckPolicy::delayed_default())));
//! net.run();
//! assert!(net.agent::<TcpSender>(d.senders[0]).unwrap().is_complete());
//! ```

#![warn(missing_docs)]

pub mod cc;
pub mod gate;
pub mod mux;
pub mod receiver;
pub mod rtt;
pub mod scoreboard;
pub mod sender;
pub mod stats;
#[doc(hidden)]
pub mod testing;

/// The commonly-used names, re-exported in one place.
pub mod prelude {
    pub use crate::cc::{AckEvent, CongestionControl, CongestionEvent, FixedCwnd};
    pub use crate::gate::SendGate;
    pub use crate::mux::MuxSender;
    pub use crate::receiver::{AckPolicy, TcpReceiver};
    pub use crate::rtt::RttEstimator;
    pub use crate::scoreboard::{AckOutcome, Scoreboard, SegState, SentSegment};
    pub use crate::sender::{TcpSender, TcpSenderConfig};
    pub use crate::stats::{AbortReason, FlowOutcome, ReceiverFlowStats, SenderStats};
}
