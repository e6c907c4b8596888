//! Host agents.
//!
//! Hosts run an [`Agent`]: the engine calls it when a packet arrives at the
//! host or a timer the agent armed fires. Agents interact with the network
//! only through [`Ctx`], which exposes the clock, packet transmission,
//! timers, and a per-node RNG stream. The transport layer implements
//! `Agent`; so can any custom application an example wants to model.

use crate::ids::NodeId;
use crate::packet::Packet;
use crate::pool::{FramePool, FrameRef};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Behaviour attached to a host node.
///
/// Agents must be `Any` so callers can recover their concrete type after a
/// run (e.g. to read an iperf client's final report).
pub trait Agent: Any {
    /// Called once when the simulation starts, before any events fire.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this host has arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A timer armed via [`Ctx::set_timer_after`] has fired. `token` is the
    /// value passed when arming; agents use it to distinguish timer kinds
    /// and detect stale timers.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);

    /// A batch of packets that arrived at this host in the same dispatch
    /// round (identical arrival timestamp, consecutive event order). The
    /// engine hands the whole run to the agent in one call so composite
    /// agents can amortize per-dispatch setup (one flow-table walk, one
    /// recorder borrow) across the batch.
    ///
    /// The default implementation preserves per-packet semantics exactly:
    /// it calls [`Agent::on_packet`] once per packet, in delivery order,
    /// resetting the timer-token namespace before each — precisely what N
    /// separate engine dispatches would have done. Overrides must keep
    /// that equivalence: process packets in order, consume all of them,
    /// and leave `pkts` empty.
    fn on_packets(&mut self, pkts: &mut Vec<Packet>, ctx: &mut Ctx<'_>) {
        for pkt in pkts.drain(..) {
            ctx.set_token_namespace(0);
            self.on_packet(pkt, ctx);
        }
    }
}

/// Commands an agent issues during a callback; applied by the engine
/// immediately after the callback returns.
///
/// A sent frame is already in the engine's [`FramePool`] when its command
/// is queued, so the command carries the 4-byte ref, not the packet: a
/// frame is copied once on its way in, and a command is 24 bytes.
#[derive(Debug)]
pub(crate) enum AgentCommand {
    Send(FrameRef),
    SetTimer { at: SimTime, token: u64 },
    Stop,
}

/// The agent's window into the simulation.
///
/// `Ctx` buffers commands rather than mutating engine state directly; this
/// keeps callbacks free of aliasing gymnastics and makes every effect of a
/// callback take hold at one well-defined instant. The exception is a
/// sent frame's bytes, which go straight into the engine's frame pool;
/// the frame enters the network only when its command is applied.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) commands: &'a mut Vec<AgentCommand>,
    /// The engine's frame pool: [`Ctx::send`] writes the frame here.
    pub(crate) frames: &'a mut FramePool,
    /// Timer-token namespace for composite agents; see
    /// [`Ctx::set_token_namespace`]. Reset to 0 for every dispatch.
    pub(crate) token_ns: u16,
}

/// Bits of a timer token available to the agent itself; the top 16 bits
/// carry the [`Ctx::set_token_namespace`] tag.
pub const TOKEN_BITS: u32 = 48;

/// Mask selecting the agent-visible part of a token.
pub const TOKEN_MASK: u64 = (1 << TOKEN_BITS) - 1;

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent is attached to.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Transmit a packet from this node. The packet is routed by its `dst`
    /// field; `sent_at` is stamped with the current time.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.now;
        // Origination is the frame's entry into the pool: the one copy-in.
        let frame = self.frames.alloc(pkt);
        self.commands.push(AgentCommand::Send(frame));
    }

    /// Arm a timer to fire `after` from now, delivering `token` to
    /// [`Agent::on_timer`]. Timers cannot be cancelled; agents ignore
    /// stale tokens instead (the standard DES idiom).
    pub fn set_timer_after(&mut self, after: SimDuration, token: u64) {
        self.set_timer_at(self.now + after, token);
    }

    /// Arm a timer for an absolute instant (must not be in the past).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        debug_assert!(at >= self.now, "timer armed in the past");
        debug_assert!(token <= TOKEN_MASK, "token overflows the namespace");
        self.commands.push(AgentCommand::SetTimer {
            at,
            token: token | (self.token_ns as u64) << TOKEN_BITS,
        });
    }

    /// Set the timer-token namespace: tokens armed from now on carry this
    /// tag in their top 16 bits. Composite agents (e.g. a multiplexer of
    /// several transport state machines on one host) tag each sub-agent's
    /// timers so they can dispatch firings back to the right one. Resets
    /// to 0 on every engine dispatch.
    pub fn set_token_namespace(&mut self, ns: u16) {
        self.token_ns = ns;
    }

    /// Request that the simulation stop after this callback.
    pub fn request_stop(&mut self) {
        self.commands.push(AgentCommand::Stop);
    }

    /// This node's deterministic RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use crate::time::SimDuration;

    /// A composite agent that arms one timer in each of two namespaces
    /// and records which namespaces fire back.
    struct NsAgent {
        fired: Vec<(u16, u64)>,
    }
    impl Agent for NsAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_token_namespace(1);
            ctx.set_timer_after(SimDuration::from_micros(10), 7);
            ctx.set_token_namespace(2);
            ctx.set_timer_after(SimDuration::from_micros(20), 7);
            ctx.set_token_namespace(0);
            ctx.set_timer_after(SimDuration::from_micros(30), 7);
        }
        fn on_packet(&mut self, _p: crate::packet::Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.fired
                .push(((token >> TOKEN_BITS) as u16, token & TOKEN_MASK));
        }
    }

    #[test]
    fn token_namespaces_roundtrip_through_timers() {
        let mut net = Network::new(1);
        let host = net.add_host();
        net.attach_agent(host, Box::new(NsAgent { fired: Vec::new() }));
        net.run();
        let fired = &net.agent::<NsAgent>(host).unwrap().fired;
        assert_eq!(fired, &vec![(1, 7), (2, 7), (0, 7)]);
    }

    #[test]
    fn namespace_resets_between_dispatches() {
        // The second dispatch (a timer) arms without setting a namespace:
        // it must default back to 0 even though the previous dispatch set 2.
        struct ResetProbe {
            second_token: Option<u64>,
        }
        impl Agent for ResetProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_token_namespace(2);
                ctx.set_timer_after(SimDuration::from_micros(1), 1);
            }
            fn on_packet(&mut self, _p: crate::packet::Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                if token >> TOKEN_BITS == 2 {
                    // Re-arm WITHOUT setting a namespace.
                    ctx.set_timer_after(SimDuration::from_micros(1), 5);
                } else {
                    self.second_token = Some(token);
                }
            }
        }
        let mut net = Network::new(2);
        let host = net.add_host();
        net.attach_agent(host, Box::new(ResetProbe { second_token: None }));
        net.run();
        let probe = net.agent::<ResetProbe>(host).unwrap();
        assert_eq!(probe.second_token, Some(5), "namespace must reset to 0");
    }
}
