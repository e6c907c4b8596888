//! Counting/timing shims around the product's four public trait seams.
//!
//! Each shim forwards every call unchanged and opens a [`trace`] span
//! around the ones that do work, so a shim-wired run simulates exactly
//! what the product runner simulates (the fingerprint check proves it)
//! while the tracer learns where the wall time went.

use crate::product::{
    AckEvent, Agent, CongestionControl, CongestionEvent, Ctx, EnqueueOutcome, FlowEvent, FramePool,
    FrameRef, Packet, Qdisc, QueueStats, Rate, Recorder, SimTime,
};
use crate::trace::{span, Site};

/// An [`Agent`] with a span around every engine callback.
pub struct Timed<A: Agent> {
    /// The wrapped sender or receiver, readable after the run.
    pub inner: A,
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        span(Site::AgentStart, || self.inner.on_start(ctx))
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        span(Site::AgentPacket, || self.inner.on_packet(pkt, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        span(Site::AgentTimer, || self.inner.on_timer(token, ctx))
    }

    // Forwarded, not defaulted: the inner agent's batching behaviour (its
    // own override, or the per-packet default) must be what runs.
    fn on_packets(&mut self, pkts: &mut Vec<Packet>, ctx: &mut Ctx<'_>) {
        span(Site::AgentPackets, || self.inner.on_packets(pkts, ctx))
    }
}

/// A congestion controller with a span around each of its three event
/// handlers. The getters are forwarded untimed: the sender polls them
/// several times per ack and they do no work.
pub struct TimedCc(pub Box<dyn CongestionControl>);

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn initial_cwnd(&self, mss: u32) -> u64 {
        self.0.initial_cwnd(mss)
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        span(Site::CcAck, || self.0.on_ack(ev))
    }

    fn on_congestion_event(&mut self, ev: &CongestionEvent) {
        span(Site::CcCongestion, || self.0.on_congestion_event(ev))
    }

    fn on_rto(&mut self, now: SimTime, mss: u32) {
        span(Site::CcRto, || self.0.on_rto(now, mss))
    }

    fn cwnd(&self) -> u64 {
        self.0.cwnd()
    }

    fn ssthresh(&self) -> u64 {
        self.0.ssthresh()
    }

    fn pacing_rate(&self) -> Option<Rate> {
        self.0.pacing_rate()
    }

    fn wants_ecn(&self) -> bool {
        self.0.wants_ecn()
    }

    fn uses_pacing(&self) -> bool {
        self.0.uses_pacing()
    }

    fn compute_cost_factor(&self) -> f64 {
        self.0.compute_cost_factor()
    }
}

/// A queue discipline with a span around enqueue and dequeue.
pub struct TimedQdisc(pub Box<dyn Qdisc>);

impl Qdisc for TimedQdisc {
    fn enqueue(&mut self, frame: FrameRef, pool: &mut FramePool, now: SimTime) -> EnqueueOutcome {
        span(Site::QdiscEnqueue, || self.0.enqueue(frame, pool, now))
    }

    fn dequeue(&mut self, now: SimTime) -> Option<FrameRef> {
        span(Site::QdiscDequeue, || self.0.dequeue(now))
    }

    fn len_bytes(&self) -> u64 {
        self.0.len_bytes()
    }

    fn len_pkts(&self) -> usize {
        self.0.len_pkts()
    }

    fn stats(&self) -> QueueStats {
        self.0.stats()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A recorder with a span around every hook.
pub struct TimedRecorder<R: Recorder> {
    /// The wrapped recorder, readable after the run.
    pub inner: R,
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn flow_event(&mut self, at_ns: u64, flow: u32, event: FlowEvent) {
        span(Site::RecorderHook, || {
            self.inner.flow_event(at_ns, flow, event)
        })
    }

    fn queue_depth(&mut self, at_ns: u64, link: u32, bytes: u64) {
        span(Site::RecorderHook, || {
            self.inner.queue_depth(at_ns, link, bytes)
        })
    }

    fn queue_drop(&mut self, at_ns: u64, link: u32, flow: u32, injected: bool) {
        span(Site::RecorderHook, || {
            self.inner.queue_drop(at_ns, link, flow, injected)
        })
    }

    fn queue_mark(&mut self, at_ns: u64, link: u32, flow: u32) {
        span(Site::RecorderHook, || {
            self.inner.queue_mark(at_ns, link, flow)
        })
    }

    fn link_utilization(&mut self, at_ns: u64, link: u32, fraction: f64) {
        span(Site::RecorderHook, || {
            self.inner.link_utilization(at_ns, link, fraction)
        })
    }

    fn power_sample(&mut self, at_ns: u64, host: u32, watts: f64) {
        span(Site::RecorderHook, || {
            self.inner.power_sample(at_ns, host, watts)
        })
    }

    fn dispatch_batch(&mut self, at_ns: u64, node: u32, pkts: u32) {
        span(Site::RecorderHook, || {
            self.inner.dispatch_batch(at_ns, node, pkts)
        })
    }

    fn flow_table_occupancy(&mut self, at_ns: u64, live: u64, capacity: u64) {
        span(Site::RecorderHook, || {
            self.inner.flow_table_occupancy(at_ns, live, capacity)
        })
    }
}
