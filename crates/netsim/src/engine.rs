//! The discrete-event engine.
//!
//! [`Network`] owns the topology (nodes, links, routes), the event queue,
//! the clock, and the attached [`Agent`]s. A run processes events in
//! timestamp order — ties broken by insertion order, so identical
//! configurations replay identically — until the queue drains or a time
//! limit is reached.
//!
//! Routing is static: each node maps a destination host to one *or more*
//! outgoing links. Multi-link routes are sprayed round-robin per packet,
//! modelling the paper's bonded 2×10 Gb/s sender links.

use crate::agent::{Agent, AgentCommand, Ctx};
use crate::fault::{FaultSpec, FaultState, FAULT_STREAM_SALT};
use crate::ids::{LinkId, NodeId};
use crate::link::{LinkSpec, LinkState, LinkStats};
use crate::packet::Packet;
use crate::pool::{FramePool, FrameRef};
use crate::queue::{EnqueueOutcome, QueueStats};
use crate::rng::SimRng;
use crate::sched::{SchedStats, Scheduler};
use crate::time::{round_to_u64, SimDuration, SimTime};
use crate::trace::{FlowTrace, HostActivity};
use obs::SharedRecorder;
use std::any::Any;

/// What kind of node this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host: packets addressed to it are delivered to its agent.
    Host,
    /// A switch: packets are forwarded according to the route table.
    Switch,
}

/// A route entry: one or more parallel links toward a destination.
#[derive(Debug, Default, Clone)]
struct Route {
    links: Vec<LinkId>,
    /// Round-robin cursor for multi-link (bonded) routes: the index into
    /// `links` of the next packet's link, always `< links.len()`.
    next: usize,
}

/// Everything the engine keeps per node, in one record: a node is never
/// removed, so its id is its position in `Network::nodes` for good.
struct Node {
    kind: NodeKind,
    /// Indexed by destination node id.
    routes: Vec<Route>,
    /// The node's RNG stream (its agent draws from it).
    rng: SimRng,
    /// The attached agent (hosts only; `None` until `attach_agent`).
    agent: Option<Box<dyn Agent>>,
}

#[derive(Debug)]
enum Event {
    /// Frame finished propagation and arrives at `node`. The payload is
    /// a 4-byte ref into the engine's [`FramePool`], not the 128-byte
    /// packet: the event is 16 bytes, and the wheel links it once as a
    /// 40-byte slab node that is never moved afterwards (both asserted
    /// below).
    Arrive { node: NodeId, pkt: FrameRef },
    /// Link finished serializing its in-flight frame.
    TxDone { link: LinkId },
    /// Agent timer.
    Timer { node: NodeId, token: u64 },
}

// Build-time guards on the per-event floor (DESIGN.md, "Per-event
// floor"): a field that grows one of these types fails Tier-1 here
// instead of silently adding bytes to every push, pop or send.
#[cfg(target_pointer_width = "64")]
const _: () = {
    // Two 4-byte ids or a timer token, plus the tag: a push moves it in
    // two registers.
    assert!(std::mem::size_of::<Event>() == 16);
    // The event plus `(at, seq)` and a link: the wheel's slab node. The
    // slab is walked on every pop, so its stride is the cache footprint.
    assert!(std::mem::size_of::<crate::sched::Node<Event>>() == 40);
    // A send carries a `FrameRef`, not the 128-byte `Packet`: the frame
    // is copied into the pool once, by `Ctx::send`. A packet back in the
    // command makes it outgrow the packet and the copy a second one.
    assert!(std::mem::size_of::<AgentCommand>() == 24);
    // A frame is copied by value into the pool, into the delivery batch
    // and into `on_packet`. At 128 bytes each copy is inline moves; one
    // byte more and every copy is a `memmove` call again. The ack header
    // sits inline in every frame, so it and its SACK blocks are pinned
    // too.
    assert!(std::mem::size_of::<crate::packet::Packet>() == 128);
    assert!(std::mem::size_of::<crate::packet::AckInfo>() == 72);
    assert!(std::mem::size_of::<crate::packet::SackBlocks>() == 40);
};

/// Why a run returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain; the system is quiescent.
    Drained,
    /// The configured time limit was reached with events still pending.
    TimeLimit,
    /// The stall watchdog fired: more than the configured budget of
    /// events were processed without a single host delivery (see
    /// [`Network::set_stall_budget`]). The run is livelocked — agents and
    /// links keep generating events but no application progress happens.
    Stalled,
    /// The wall-clock deadline passed (see [`Network::set_wall_deadline`]).
    /// Unlike [`RunOutcome::TimeLimit`] this bounds *host* time, not
    /// simulated time: it catches cells that are slow-wedged — still
    /// making nominal event progress, but far past any sane runtime.
    DeadlineExceeded,
}

/// Aggregate drop/mark statistics across all links. Congestive counters
/// (queue drops/marks) and injected counters (fault layer) are disjoint
/// by construction: injection happens after a frame has left its queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetworkStats {
    /// Total packets dropped by all queues (congestive).
    pub dropped_pkts: u64,
    /// Total packets CE-marked by all queues.
    pub marked_pkts: u64,
    /// Frames lost to injected faults across all links.
    pub injected_drops: u64,
    /// Frames bit-corrupted by injected faults.
    pub injected_corrupts: u64,
    /// Frames duplicated by injected faults.
    pub injected_dups: u64,
    /// Frames held back for reordering by injected faults.
    pub injected_reorders: u64,
    /// Frames handed to the network by agents (`Ctx::send`). Together
    /// with the counters below this closes the frame conservation law
    /// the paranoid campaign checker asserts: every originated or
    /// fault-duplicated frame is eventually delivered, discarded as
    /// corrupt, injected-dropped, or congestively dropped.
    pub originated_pkts: u64,
    /// Frames dispatched to a host agent (clean deliveries).
    pub delivered_pkts: u64,
    /// Corrupted frames discarded at a host NIC (FCS failure).
    pub corrupt_discards: u64,
}

impl NetworkStats {
    /// Frame conservation residual: originated + duplicated minus every
    /// accounted fate. Zero at quiescence ([`RunOutcome::Drained`]);
    /// positive while frames are still queued or in flight. Negative
    /// means double-counting — always a bug.
    pub fn conservation_residual(&self) -> i64 {
        (self.originated_pkts + self.injected_dups) as i64
            - (self.delivered_pkts
                + self.corrupt_discards
                + self.injected_drops
                + self.dropped_pkts) as i64
    }
}

/// The packet log's two counts, derived from [`NetworkStats`]: every
/// packet fate the engine counts — congestive drop, CE mark, injected
/// drop, corrupt discard, clean host delivery — is one record of a log
/// that keeps at most `capacity` of them. Per-packet drop and mark
/// detail lives on the obs recorder's queue track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketLog {
    seen: u64,
    capacity: u64,
}

impl PacketLog {
    /// Packet fates observed since the network was created.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Records past the log's capacity. Non-zero means a log of that
    /// size would hold a suffix of the run, not the whole run.
    pub fn overflowed(&self) -> u64 {
        self.seen.saturating_sub(self.capacity)
    }
}

/// Engine performance counters: event totals plus the scheduler's
/// wheel/heap operation counts. Cheap to copy; sample before and after a
/// run to attribute costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Events popped and dispatched by the run loop.
    pub events_processed: u64,
    /// Host dispatches (one agent callback covering ≥1 delivered packets).
    pub dispatch_batches: u64,
    /// Packets delivered through those dispatches. `batched_pkts /
    /// dispatch_batches` is the mean batch size; 1.0 means batching never
    /// found coalescable arrivals (or is disabled).
    pub batched_pkts: u64,
    /// Scheduler operation counters (wheel vs heap pushes, migrations).
    pub sched: SchedStats,
}

impl EngineCounters {
    /// Fraction of event pushes served by the O(1) wheel path.
    pub fn wheel_hit_rate(&self) -> f64 {
        self.sched.wheel_hit_rate()
    }
}

/// The simulated network: topology + clock + event queue + agents.
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<LinkState>,
    sched: Scheduler<Event>,
    now: SimTime,
    rng: SimRng,
    /// The seed the network was created with; fault streams derive from
    /// it (salted) so installing faults never perturbs `rng`'s fork
    /// order — fault-free runs stay bit-identical.
    master_seed: u64,
    flow_trace: Option<FlowTrace>,
    activity: Option<HostActivity>,
    pkt_log_capacity: Option<usize>,
    /// Observability seam (see [`Network::set_recorder`]). `None` — the
    /// default — keeps the hot path at a single branch per site, and the
    /// recorder never touches the RNG or the event queue, so attaching
    /// one cannot perturb the simulation.
    recorder: Option<SharedRecorder>,
    commands: Vec<AgentCommand>,
    /// Reusable buffer for same-timestamp delivery batches; drained by
    /// the agent callback, so it is empty between dispatches.
    delivery_buf: Vec<Packet>,
    /// Coalesce consecutive same-timestamp arrivals at one host into a
    /// single [`Agent::on_packets`] dispatch (see
    /// [`Network::set_delivery_batching`]). On by default.
    batch_deliveries: bool,
    events_processed: u64,
    dispatch_batches: u64,
    batched_pkts: u64,
    /// Stall watchdog: events processed since the last host delivery,
    /// and the budget that trips [`RunOutcome::Stalled`] (`None` = off).
    events_since_progress: u64,
    stall_budget: Option<u64>,
    /// Wall-clock deadline for the run loop (`None` = off). Checked every
    /// [`DEADLINE_CHECK_MASK`]+1 events so the hot path pays a masked
    /// branch, not a clock read, per event.
    wall_deadline: Option<std::time::Instant>,
    /// Slab of frames in flight: every packet between `Ctx::send` and
    /// host delivery lives here, addressed by [`FrameRef`].
    frames: FramePool,
    /// Network-level frame conservation counters (see [`NetworkStats`]).
    originated_pkts: u64,
    delivered_pkts: u64,
    corrupt_discards: u64,
}

/// The run loop reads the wall clock once per this many events (power of
/// two; the check is `events_processed & MASK == 0`). At the engine's
/// multi-M events/s rate that is many checks per second — far finer than
/// any sane deadline — while keeping `Instant::now` off the hot path.
const DEADLINE_CHECK_MASK: u64 = (1 << 14) - 1;

impl Network {
    /// Create an empty network with a master seed. Components derive their
    /// own streams from it so runs are reproducible.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            master_seed: seed,
            flow_trace: None,
            activity: None,
            pkt_log_capacity: None,
            recorder: None,
            commands: Vec::new(),
            delivery_buf: Vec::new(),
            batch_deliveries: true,
            events_processed: 0,
            dispatch_batches: 0,
            batched_pkts: 0,
            events_since_progress: 0,
            stall_budget: None,
            wall_deadline: None,
            frames: FramePool::new(),
            originated_pkts: 0,
            delivered_pkts: 0,
            corrupt_discards: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Snapshot of the engine's performance counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            events_processed: self.events_processed,
            dispatch_batches: self.dispatch_batches,
            batched_pkts: self.batched_pkts,
            sched: self.sched.stats(),
        }
    }

    /// Enable or disable same-timestamp delivery batching. Batching is
    /// on by default and bit-identical to per-packet dispatch (the
    /// equivalence the workload proptests pin): only *consecutive*
    /// arrivals at the same host with the same timestamp coalesce, the
    /// per-packet bookkeeping runs per packet either way, and agent
    /// commands apply in the same global order. The switch exists so
    /// equivalence tests can run both modes.
    pub fn set_delivery_batching(&mut self, on: bool) {
        self.batch_deliveries = on;
    }

    /// Enable per-flow delivered-throughput tracing with the given bin.
    pub fn enable_flow_trace(&mut self, bin: SimDuration) {
        self.flow_trace = Some(FlowTrace::new(bin));
    }

    /// Enable per-host activity recording with the given bin. Required by
    /// the energy meter.
    pub fn enable_activity(&mut self, bin: SimDuration) {
        self.activity = Some(HostActivity::new(bin));
    }

    /// The flow trace, if enabled.
    pub fn flow_trace(&self) -> Option<&FlowTrace> {
        self.flow_trace.as_ref()
    }

    /// The host activity record, if enabled.
    pub fn activity(&self) -> Option<&HostActivity> {
        self.activity.as_ref()
    }

    /// Enable the packet log's counts (see [`PacketLog`]) for a log of
    /// `capacity` records. A capacity of 0 reports every record as
    /// overflowed.
    pub fn enable_packet_log(&mut self, capacity: usize) {
        self.pkt_log_capacity = Some(capacity);
    }

    /// The packet log's counts, if enabled.
    pub fn packet_log(&self) -> Option<PacketLog> {
        let capacity = self.pkt_log_capacity?;
        let s = self.network_stats();
        Some(PacketLog {
            seen: s.dropped_pkts
                + s.marked_pkts
                + s.injected_drops
                + s.corrupt_discards
                + s.delivered_pkts,
            capacity: capacity as u64,
        })
    }

    /// Attach an observability recorder. The engine reports queue
    /// depth, drops/marks, and link utilization into it; transport
    /// agents sharing the same recorder add per-flow events. Purely
    /// observational: the event stream, RNG draws, and all counters are
    /// bit-identical with or without a recorder attached.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    /// Add a host node; returns its id.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add a switch node; returns its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        let rng = self.rng.fork(id.index() as u64);
        self.nodes.push(Node {
            kind,
            routes: Vec::new(),
            rng,
            agent: None,
        });
        id
    }

    /// Add a unidirectional link from `src` to `dst`; returns its id.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
        assert!(src.index() < self.nodes.len(), "unknown src node");
        assert!(dst.index() < self.nodes.len(), "unknown dst node");
        let id = LinkId::from_raw(self.links.len() as u32);
        self.links.push(LinkState::new(src, dst, spec));
        id
    }

    /// Install a route at `node`: packets for `dst` leave via `link`.
    /// Calling repeatedly for the same `(node, dst)` *adds* parallel links,
    /// which the engine sprays round-robin (link bonding).
    pub fn add_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        assert_eq!(
            self.links[link.index()].src,
            node,
            "route must use a link leaving the node"
        );
        let routes = &mut self.nodes[node.index()].routes;
        if routes.len() <= dst.index() {
            routes.resize(dst.index() + 1, Route::default());
        }
        routes[dst.index()].links.push(link);
    }

    /// Attach an agent to a host node. Panics if the node is a switch or
    /// already has an agent.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        let n = &mut self.nodes[node.index()];
        assert_eq!(n.kind, NodeKind::Host, "agents attach to hosts");
        assert!(n.agent.is_none(), "node already has an agent");
        n.agent = Some(agent);
        self.report_agent_occupancy();
    }

    /// How many agents are attached, reported through the recorder after
    /// every attach and once at start. An agent is never detached, so the
    /// count is both the `live` and the `capacity` figure of the hook.
    fn report_agent_occupancy(&mut self) {
        if let Some(rec) = &self.recorder {
            let attached = self.nodes.iter().filter(|n| n.agent.is_some()).count() as u64;
            rec.borrow_mut()
                .flow_table_occupancy(self.now.as_nanos(), attached, attached);
        }
    }

    /// Borrow an attached agent, downcast to its concrete type.
    pub fn agent<T: Agent>(&self, node: NodeId) -> Option<&T> {
        let agent = self.nodes.get(node.index())?.agent.as_deref()?;
        (agent as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow an attached agent, downcast to its concrete type.
    pub fn agent_mut<T: Agent>(&mut self, node: NodeId) -> Option<&mut T> {
        let agent = self.nodes.get_mut(node.index())?.agent.as_deref_mut()?;
        (agent as &mut dyn Any).downcast_mut::<T>()
    }

    /// Queue statistics of a link's qdisc.
    pub fn queue_stats(&self, link: LinkId) -> QueueStats {
        self.links[link.index()].qdisc.stats()
    }

    /// Current queue occupancy of a link in bytes.
    pub fn queue_bytes(&self, link: LinkId) -> u64 {
        self.links[link.index()].qdisc.len_bytes()
    }

    /// Transmit statistics of a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.links[link.index()].stats
    }

    /// Install (or replace) a fault spec on a link. The fault stream is
    /// derived from the master seed and the link id — deliberately *not*
    /// forked from the engine's live RNG — so congestion randomness and
    /// the golden fingerprints of fault-free runs are untouched.
    ///
    /// The spec is validated against the target link's geometry before
    /// anything is installed ([`FaultSpec::validate_for_link`]): a NaN
    /// probability, an empty or overlapping flap window, or jitter at or
    /// above the link's propagation delay is a typed
    /// [`crate::fault::FaultSpecError`] here instead of silently biased
    /// behaviour a million events later.
    pub fn set_link_fault(
        &mut self,
        link: LinkId,
        spec: FaultSpec,
    ) -> Result<(), crate::fault::FaultSpecError> {
        spec.validate_for_link(self.links[link.index()].prop_delay)?;
        let stream =
            SimRng::new(self.master_seed ^ FAULT_STREAM_SALT).fork(link.index() as u64 + 1);
        self.links[link.index()].fault = Some(FaultState::new(spec, stream));
        Ok(())
    }

    /// Remove a link's fault spec, restoring the clean wire.
    pub fn clear_link_fault(&mut self, link: LinkId) {
        self.links[link.index()].fault = None;
    }

    /// The fault spec installed on a link, if any.
    pub fn link_fault(&self, link: LinkId) -> Option<&FaultSpec> {
        self.links[link.index()].fault.as_ref().map(|f| f.spec())
    }

    /// Arm the stall watchdog: if more than `budget` consecutive events
    /// are processed without a single packet delivered to a host, the run
    /// returns [`RunOutcome::Stalled`] instead of spinning. `None`
    /// disables (the default). Timer-driven retry loops advance slowly
    /// in event count, so a generous budget (~10^6) only trips on
    /// genuine livelock.
    pub fn set_stall_budget(&mut self, budget: Option<u64>) {
        self.stall_budget = budget;
    }

    /// Arm (or clear) a wall-clock deadline: once the host clock passes
    /// `deadline`, the run loop returns [`RunOutcome::DeadlineExceeded`]
    /// at its next check instead of running on. Complements the
    /// event-count stall watchdog: that one catches livelock (events
    /// without progress), this one catches slow-wedged runs that do make
    /// progress but have blown any reasonable time budget.
    pub fn set_wall_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.wall_deadline = deadline;
    }

    /// Aggregate drop/mark counters across all links.
    pub fn network_stats(&self) -> NetworkStats {
        let mut s = NetworkStats::default();
        for l in &self.links {
            let q = l.qdisc.stats();
            s.dropped_pkts += q.dropped_pkts;
            s.marked_pkts += q.marked_pkts;
            s.injected_drops += l.stats.injected_drops;
            s.injected_corrupts += l.stats.injected_corrupts;
            s.injected_dups += l.stats.injected_dups;
            s.injected_reorders += l.stats.injected_reorders;
        }
        s.originated_pkts = self.originated_pkts;
        s.delivered_pkts = self.delivered_pkts;
        s.corrupt_discards = self.corrupt_discards;
        s
    }

    /// Inlined with the scheduler's push (see [`Scheduler::push`]) so the
    /// event reaches its slab node from registers.
    #[inline]
    fn schedule(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.sched.push(at, event);
    }

    /// Route the frame out of `node` and enqueue it on the chosen link.
    fn route_and_transmit(&mut self, node: NodeId, frame: FrameRef) {
        let dst = self.frames.get(frame).dst;
        let route = self.nodes[node.index()]
            .routes
            .get_mut(dst.index())
            .filter(|r| !r.links.is_empty())
            // simlint::allow(panic-hygiene, reason = "a missing route is a topology construction bug, not a runtime condition; it fires on the first packet of a misbuilt scenario, never mid-campaign")
            .unwrap_or_else(|| panic!("no route from {node} to {dst}"));
        let link = route.links[route.next];
        // Wrap by compare, not `%`: no u64 division per packet
        // (DESIGN.md, "An event's life").
        route.next += 1;
        if route.next == route.links.len() {
            route.next = 0;
        }
        self.transmit_on(link, frame);
    }

    fn transmit_on(&mut self, link_id: LinkId, frame: FrameRef) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        match link.qdisc.enqueue(frame, &mut self.frames, now) {
            EnqueueOutcome::Dropped => {
                // The qdisc did not store the ref: report the drop, then
                // free the slot — the frame's life ends here.
                let pkt = self.frames.get(frame);
                if let Some(rec) = &self.recorder {
                    rec.borrow_mut().queue_drop(
                        now.as_nanos(),
                        link_id.index() as u32,
                        pkt.flow.index() as u32,
                        false,
                    );
                }
                self.frames.release(frame);
            }
            outcome @ (EnqueueOutcome::Enqueued | EnqueueOutcome::EnqueuedMarked) => {
                if outcome == EnqueueOutcome::EnqueuedMarked {
                    let pkt = self.frames.get(frame);
                    if let Some(rec) = &self.recorder {
                        rec.borrow_mut().queue_mark(
                            now.as_nanos(),
                            link_id.index() as u32,
                            pkt.flow.index() as u32,
                        );
                    }
                }
                if let Some(rec) = &self.recorder {
                    let depth = self.links[link_id.index()].qdisc.len_bytes();
                    rec.borrow_mut()
                        .queue_depth(now.as_nanos(), link_id.index() as u32, depth);
                }
                if !self.links[link_id.index()].is_busy() {
                    self.start_tx(link_id);
                }
            }
        }
    }

    /// Begin serializing the next queued packet on an idle link.
    fn start_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        debug_assert!(!link.is_busy());
        let Some(frame) = link.qdisc.dequeue(now) else {
            return;
        };
        let occupancy = link.occupancy_time(self.frames.get(frame));
        link.update_util(now, occupancy);
        let src = link.src;
        link.in_flight = Some(frame);
        link.tx_started = now;
        // In-band telemetry: every hop is INT-capable (as the paper's
        // Tofino is); the record keeps the most-utilized hop's state.
        // Stamped in place — the frame never leaves the pool for this.
        // Data frames only: an ack's record is the receiver's echo of the
        // data it acknowledges, and no hop ever stamps it.
        let pkt = self.frames.get_mut(frame);
        if pkt.is_data() {
            // `as u16` saturated the rounded float; `min` keeps that.
            let util_x1000 = round_to_u64(link.util_ewma * 1000.0).min(u16::MAX as u64) as u16;
            if !pkt.int.is_stamped() || util_x1000 >= pkt.int.util_x1000 {
                pkt.int = crate::packet::IntRecord {
                    queue_bytes: link.qdisc.len_bytes().min(u32::MAX as u64) as u32,
                    util_x1000,
                    link_mbps: link.mbps,
                };
            }
        }
        // Record the host's transmit work when the packet hits the wire.
        let (wire, retx) = (pkt.wire_bytes as u64, pkt.is_retx && pkt.is_data());
        let is_host = self.nodes[src.index()].kind == NodeKind::Host;
        if let Some(rec) = &self.recorder {
            let link = &self.links[link_id.index()];
            let mut rec = rec.borrow_mut();
            rec.link_utilization(now.as_nanos(), link_id.index() as u32, link.util_ewma);
            rec.queue_depth(
                now.as_nanos(),
                link_id.index() as u32,
                link.qdisc.len_bytes(),
            );
        }
        if is_host {
            if let Some(act) = self.activity.as_mut() {
                act.record_tx(src, now, wire, retx);
            }
        }
        self.schedule(now + occupancy, Event::TxDone { link: link_id });
    }

    fn on_tx_done(&mut self, link_id: LinkId) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        let Some(frame) = link.in_flight.take() else {
            // A TxDone without an in-flight frame would mean the scheduler
            // delivered a stale event; drop it rather than poison the run.
            debug_assert!(false, "TxDone with no in-flight packet on {link_id:?}");
            return;
        };
        link.stats.tx_pkts += 1;
        link.stats.tx_bytes += self.frames.get(frame).wire_bytes as u64;
        link.stats.busy_time += now - link.tx_started;
        let prop = link.prop_delay;
        let dst = link.dst;
        // Fault layer: decide the frame's fate *after* it has paid its
        // serialization time (the sender's energy accounting already
        // charged the transmit work — injected losses must not refund it).
        let mut lost = false;
        let mut duplicate = false;
        let mut extra = SimDuration::ZERO;
        if let Some(fault) = link.fault.as_mut() {
            let fate = fault.fate(now);
            if fate.drop {
                link.stats.injected_drops += 1;
                lost = true;
            } else {
                if fate.corrupt {
                    link.stats.injected_corrupts += 1;
                    self.frames.get_mut(frame).corrupted = true;
                }
                if fate.duplicate {
                    link.stats.injected_dups += 1;
                    duplicate = true;
                }
                if fate.reorder {
                    link.stats.injected_reorders += 1;
                }
                extra = fate.extra_delay;
            }
        }
        if lost {
            let pkt = self.frames.get(frame);
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().queue_drop(
                    now.as_nanos(),
                    link_id.index() as u32,
                    pkt.flow.index() as u32,
                    true,
                );
            }
            self.frames.release(frame);
        } else {
            self.schedule(
                now + prop + extra,
                Event::Arrive {
                    node: dst,
                    pkt: frame,
                },
            );
            if duplicate {
                // The copy arrives right behind the original (same
                // timestamp, later insertion order). A duplicate is the
                // one case that clones a pooled frame.
                let copy = *self.frames.get(frame);
                let dup = self.frames.alloc(copy);
                self.schedule(
                    now + prop + extra,
                    Event::Arrive {
                        node: dst,
                        pkt: dup,
                    },
                );
            }
        }
        // Keep the transmitter going.
        if self.links[link_id.index()].qdisc.len_pkts() > 0 {
            self.start_tx(link_id);
        }
    }

    fn on_arrive(&mut self, node: NodeId, frame: FrameRef) {
        match self.nodes[node.index()].kind {
            NodeKind::Switch => {
                // Switch forwarding never touches the payload: the frame
                // stays in the pool and only the 4-byte ref moves.
                self.route_and_transmit(node, frame);
            }
            NodeKind::Host => self.deliver_to_host(node, frame),
        }
    }

    /// Per-packet host receive bookkeeping: activity, FCS check, traces,
    /// and the conservation counters the packet log's counts read.
    /// Returns `false` when the frame is a corrupt discard that must not
    /// reach the agent. Runs once per packet whether or not the dispatch
    /// itself is batched, so batching cannot change any counter or trace.
    fn host_rx_bookkeeping(&mut self, node: NodeId, pkt: &Packet) -> bool {
        debug_assert_eq!(pkt.dst, node, "host received mis-routed packet");
        if let Some(act) = self.activity.as_mut() {
            act.record_rx(node, self.now, pkt.wire_bytes as u64, !pkt.is_data());
        }
        if pkt.corrupted {
            // FCS failure: the NIC paid for the receive (activity
            // recorded above) but discards the frame before the
            // transport ever sees it.
            self.corrupt_discards += 1;
            return false;
        }
        if pkt.is_data() {
            if let Some(trace) = self.flow_trace.as_mut() {
                trace.record(pkt.flow, self.now, pkt.payload_bytes as u64);
            }
        }
        // A host delivery is the watchdog's definition of
        // application progress.
        self.events_since_progress = 0;
        self.delivered_pkts += 1;
        true
    }

    /// Move a host arrival out of the pool — the frame's exit, and its
    /// one copy-out, straight into the delivery batch — then run its
    /// bookkeeping; a corrupt discard leaves the batch again.
    fn receive(&mut self, node: NodeId, frame: FrameRef, buf: &mut Vec<Packet>) {
        // `extend_from_slice` reserves before it reads, so the bytes go
        // from the slot to the batch in one copy; `push(*pkt)` makes two.
        buf.extend_from_slice(std::slice::from_ref(self.frames.get(frame)));
        self.frames.release(frame);
        if let Some(pkt) = buf.last() {
            if !self.host_rx_bookkeeping(node, pkt) {
                buf.pop();
            }
        }
    }

    /// Deliver a host arrival, coalescing any *consecutive* arrivals at
    /// the same host with the same timestamp into one agent dispatch.
    ///
    /// Determinism argument (pinned by the workload equivalence
    /// proptests): agent callbacks only buffer commands — the one engine
    /// state they touch is the frame pool, whose slot numbers nothing
    /// observes — so handing the agent packets `[p1, p2]` in one call
    /// draws the same RNG stream and emits the same command sequence as
    /// two back-to-back calls; commands then
    /// apply in the same global order either way. Only *consecutive*
    /// `(at, seq)` events coalesce, so no event is ever reordered past
    /// another. Per-packet bookkeeping still runs per packet.
    fn deliver_to_host(&mut self, node: NodeId, frame: FrameRef) {
        let mut buf = std::mem::take(&mut self.delivery_buf);
        debug_assert!(buf.is_empty());
        self.receive(node, frame, &mut buf);
        if self.batch_deliveries {
            let now = self.now;
            while let Some((_, ev)) = self.sched.pop_if(|at, ev| {
                at == now && matches!(ev, Event::Arrive { node: n, .. } if *n == node)
            }) {
                // Each coalesced event is still an event: it counts
                // toward the totals the golden fingerprints pin. (The
                // wall-deadline check may slide by one batch length —
                // bounded by the batch, far below its 2^14 granularity.)
                self.events_processed += 1;
                if let Event::Arrive { pkt: coalesced, .. } = ev {
                    self.receive(node, coalesced, &mut buf);
                }
            }
        }
        if !buf.is_empty() {
            self.dispatch_batches += 1;
            self.batched_pkts += buf.len() as u64;
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().dispatch_batch(
                    self.now.as_nanos(),
                    node.index() as u32,
                    buf.len() as u32,
                );
            }
            self.with_agent(node, |agent, ctx| agent.on_packets(&mut buf, ctx));
            buf.clear();
        }
        self.delivery_buf = buf;
    }

    /// Run an agent callback and apply the commands it issued.
    ///
    /// The agent is borrowed *in place* through split field borrows (the
    /// node's agent, the node's RNG, the command buffer and the frame
    /// pool are disjoint fields), so a panicking agent unwinds with the
    /// node fully intact — there is no take/put-back window that could
    /// leave the slot empty and turn one cell's panic into a poisoned
    /// network. What a panicking callback had queued stays in `commands`
    /// until [`Network::discard_commands`] at the next run.
    fn with_agent(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        let Some(Node {
            agent: Some(agent),
            rng,
            ..
        }) = self.nodes.get_mut(node.index())
        else {
            // No agent: packets/timers for this host are silently dropped.
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            node,
            rng,
            commands: &mut self.commands,
            frames: &mut self.frames,
            token_ns: 0,
        };
        f(agent.as_mut(), &mut ctx);
        self.apply_commands(node);
    }

    /// Drop the commands a *panicking* callback left half-queued, so a
    /// caught unwind cannot leak them into the next dispatch, and free
    /// the frames its sends had already written into the pool. A no-op
    /// otherwise: `apply_commands` drains the buffer after every callback
    /// that returns.
    fn discard_commands(&mut self) {
        for cmd in self.commands.drain(..) {
            if let AgentCommand::Send(frame) = cmd {
                self.frames.release(frame);
            }
        }
    }

    /// Apply the commands buffered by an agent callback, in issue order.
    fn apply_commands(&mut self, node: NodeId) {
        if self.commands.is_empty() {
            return;
        }
        // Drain in place and put the buffer back so its capacity is
        // reused across callbacks: this loop runs once per event, and a
        // fresh allocation per agent callback dominates the dispatch cost.
        let mut commands = std::mem::take(&mut self.commands);
        for cmd in commands.drain(..) {
            match cmd {
                AgentCommand::Send(frame) => {
                    self.originated_pkts += 1;
                    self.route_and_transmit(node, frame)
                }
                AgentCommand::SetTimer { at, token } => {
                    self.schedule(at.max(self.now), Event::Timer { node, token })
                }
            }
        }
        self.commands = commands;
    }

    /// Invoke every agent's `on_start`. Called automatically by the run
    /// methods on their first use.
    fn start_agents(&mut self) {
        if self.events_processed > 0 || self.now > SimTime::ZERO {
            return;
        }
        self.report_agent_occupancy();
        for i in 0..self.nodes.len() {
            self.with_agent(NodeId::from_raw(i as u32), |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Run until the event queue drains or `limit` simulated time is
    /// reached.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        // A callback can only unwind out of this loop, so the next entry
        // is the first chance to clean up after one.
        self.discard_commands();
        self.start_agents();
        loop {
            let (at, event) = match self.sched.pop_due(limit) {
                crate::sched::Due::Item(at, event) => (at, event),
                // Leave the event queued so a later run resumes it.
                crate::sched::Due::Later(_) => return RunOutcome::TimeLimit,
                crate::sched::Due::Empty => return RunOutcome::Drained,
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            if self.events_processed & DEADLINE_CHECK_MASK == 0 {
                if let Some(deadline) = self.wall_deadline {
                    // simlint::allow(wall-clock, reason = "the stall watchdog deadline is wall time by design; it only decides when to abandon a run, never what the run computes")
                    if std::time::Instant::now() >= deadline {
                        return RunOutcome::DeadlineExceeded;
                    }
                }
            }
            match event {
                Event::Arrive { node, pkt } => self.on_arrive(node, pkt),
                Event::TxDone { link } => self.on_tx_done(link),
                Event::Timer { node, token } => {
                    self.with_agent(node, |agent, ctx| agent.on_timer(token, ctx))
                }
            }
            if let Some(budget) = self.stall_budget {
                self.events_since_progress += 1;
                if self.events_since_progress > budget {
                    return RunOutcome::Stalled;
                }
            }
        }
    }

    /// Run until quiescent (no time limit).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::packet::{AckInfo, EcnCodepoint, Packet, PacketKind};
    use crate::units::Rate;
    use std::fmt::Write;

    /// What a topology builder made, one line per item: node kinds in id
    /// order, every link's ends, rate, delay, discipline and buffer in id
    /// order, then every route's members.
    pub(crate) fn layout(net: &Network) -> String {
        let mut out = String::new();
        for (i, node) in net.nodes.iter().enumerate() {
            writeln!(out, "node {i} {:?}", node.kind).unwrap();
        }
        for (i, l) in net.links.iter().enumerate() {
            writeln!(
                out,
                "link {i} {}->{} {} bps {} ns {} {} B",
                l.src.index(),
                l.dst.index(),
                l.rate.bps(),
                l.prop_delay.as_nanos(),
                l.qdisc.name(),
                l.qdisc.capacity_bytes()
            )
            .unwrap();
        }
        for (i, node) in net.nodes.iter().enumerate() {
            for (dst, route) in node.routes.iter().enumerate() {
                if !route.links.is_empty() {
                    let members: Vec<usize> = route.links.iter().map(|l| l.index()).collect();
                    writeln!(out, "route {i}->{dst} {members:?}").unwrap();
                }
            }
        }
        out
    }

    /// Test agent: sends `count` data packets to `peer` at start, records
    /// everything it receives, echoes an ack per data packet.
    struct Echo {
        peer: NodeId,
        count: u32,
        received: Vec<Packet>,
        acks_received: u32,
        timer_fired: Vec<u64>,
    }

    impl Echo {
        fn new(peer: NodeId) -> Self {
            Echo {
                peer,
                count: 0,
                received: Vec::new(),
                acks_received: 0,
                timer_fired: Vec::new(),
            }
        }

        fn sending(peer: NodeId, count: u32) -> Self {
            Echo {
                count,
                ..Echo::new(peer)
            }
        }
    }

    impl Agent for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.count {
                ctx.send(Packet::data(
                    FlowId::from_raw(0),
                    ctx.node(),
                    self.peer,
                    i as u64 * 1000,
                    1000,
                    EcnCodepoint::NotEct,
                ));
            }
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            match pkt.kind {
                PacketKind::Data => {
                    let ack = Packet::ack(
                        pkt.flow,
                        ctx.node(),
                        pkt.src,
                        AckInfo {
                            cum_ack: pkt.seq_end(),
                            ..AckInfo::default()
                        },
                    );
                    ctx.send(ack);
                    self.received.push(pkt);
                }
                PacketKind::Ack(_) => self.acks_received += 1,
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.timer_fired.push(token);
        }
    }

    fn two_hosts_direct() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(5),
                1_000_000,
            ),
        );
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(5),
                1_000_000,
            ),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
        (net, a, b)
    }

    #[test]
    fn packets_flow_and_acks_return() {
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(a, Box::new(Echo::sending(b, 5)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        let recv = net.agent::<Echo>(b).unwrap();
        assert_eq!(recv.received.len(), 5);
        let send = net.agent::<Echo>(a).unwrap();
        assert_eq!(send.acks_received, 5);
    }

    #[test]
    fn serialization_and_prop_delay_add_up() {
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(a, Box::new(Echo::sending(b, 1)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        let recv = net.agent::<Echo>(b).unwrap();
        // 1040 wire bytes at 10 Gbps = 832 ns serialization + 5 us prop.
        let arrival = recv.received[0];
        assert_eq!(arrival.sent_at, SimTime::ZERO);
        // Arrive time is recorded in network time; check via link stats.
        assert_eq!(net.link_stats(LinkId::from_raw(0)).tx_pkts, 1);
        assert_eq!(net.link_stats(LinkId::from_raw(0)).tx_bytes, 1040);
    }

    #[test]
    fn switch_forwards_between_hosts() {
        let mut net = Network::new(2);
        let a = net.add_host();
        let s = net.add_switch();
        let b = net.add_host();
        let a_s = net.add_link(
            a,
            s,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        let s_b = net.add_link(
            s,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        let b_s = net.add_link(
            b,
            s,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        let s_a = net.add_link(
            s,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        net.add_route(a, b, a_s);
        net.add_route(s, b, s_b);
        net.add_route(b, a, b_s);
        net.add_route(s, a, s_a);
        net.attach_agent(a, Box::new(Echo::sending(b, 3)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 3);
        assert_eq!(net.agent::<Echo>(a).unwrap().acks_received, 3);
    }

    #[test]
    fn bonded_route_sprays_round_robin() {
        let mut net = Network::new(3);
        let a = net.add_host();
        let b = net.add_host();
        let l1 = net.add_link(
            a,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        let l2 = net.add_link(
            a,
            b,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        let back = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        net.add_route(a, b, l1);
        net.add_route(a, b, l2); // second parallel link -> bonding
        net.add_route(b, a, back);
        net.attach_agent(a, Box::new(Echo::sending(b, 10)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        assert_eq!(net.link_stats(l1).tx_pkts, 5);
        assert_eq!(net.link_stats(l2).tx_pkts, 5);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 10);
    }

    #[test]
    fn droptail_overflow_loses_packets() {
        let mut net = Network::new(4);
        let a = net.add_host();
        let b = net.add_host();
        // Tiny buffer: 2 packets of 1040 wire bytes fit.
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(Rate::from_mbps(1.0), SimDuration::from_micros(1), 2_500),
        );
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
        net.attach_agent(a, Box::new(Echo::sending(b, 10)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        let received = net.agent::<Echo>(b).unwrap().received.len();
        assert!(received < 10, "expected drops, got all {received}");
        let drops = net.queue_stats(ab).dropped_pkts;
        assert_eq!(drops as usize + received, 10);
        assert_eq!(net.network_stats().dropped_pkts, drops);
    }

    #[test]
    fn min_pkt_gap_caps_packet_rate() {
        let mut net = Network::new(5);
        let a = net.add_host();
        let b = net.add_host();
        // 10 Gbps link but 10 us per-packet gap -> 100k pps cap.
        let spec = LinkSpec::droptail(Rate::from_gbps(10.0), SimDuration::ZERO, 10_000_000)
            .with_min_pkt_gap(SimDuration::from_micros(10));
        let ab = net.add_link(a, b, spec);
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(Rate::from_gbps(10.0), SimDuration::ZERO, 10_000_000),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
        net.attach_agent(a, Box::new(Echo::sending(b, 100)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        // 100 packets at 10 us spacing -> at least 990 us of simulated time.
        assert!(net.now() >= SimTime::from_micros(990), "now={}", net.now());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerAgent;
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(SimDuration::from_millis(2), 2);
                ctx.set_timer_after(SimDuration::from_millis(1), 1);
                ctx.set_timer_after(SimDuration::from_millis(3), 3);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
                // Record order via a static-free trick: re-arm nothing,
                // assert monotone tokens using time.
                assert_eq!(ctx.now(), SimTime::from_millis(token));
            }
        }
        let mut net = Network::new(6);
        let a = net.add_host();
        net.attach_agent(a, Box::new(TimerAgent));
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.events_processed(), 3);
    }

    #[test]
    fn time_limit_is_respected() {
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(a, Box::new(Echo::sending(b, 5)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        // Limit shorter than the 5 us propagation: nothing arrives.
        assert_eq!(
            net.run_until(SimTime::from_micros(1)),
            RunOutcome::TimeLimit
        );
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 0);
        // Resume to completion.
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 5);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let a = net.add_host();
            let b = net.add_host();
            let ab = net.add_link(
                a,
                b,
                LinkSpec::droptail(Rate::from_gbps(1.0), SimDuration::from_micros(3), 10_000),
            );
            let ba = net.add_link(
                b,
                a,
                LinkSpec::droptail(Rate::from_gbps(1.0), SimDuration::from_micros(3), 10_000),
            );
            net.add_route(a, b, ab);
            net.add_route(b, a, ba);
            net.attach_agent(a, Box::new(Echo::sending(b, 50)));
            net.attach_agent(b, Box::new(Echo::new(a)));
            net.run();
            (net.now(), net.events_processed())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn flow_trace_records_deliveries() {
        let (mut net, a, b) = two_hosts_direct();
        net.enable_flow_trace(SimDuration::from_millis(1));
        net.attach_agent(a, Box::new(Echo::sending(b, 4)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        let trace = net.flow_trace().unwrap();
        let delivered: u64 = trace.series(FlowId::from_raw(0)).iter().sum();
        assert_eq!(delivered, 4000);
    }

    #[test]
    fn recorder_sees_queue_activity_without_perturbing_the_run() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // Reference run: no recorder.
        let (mut plain, a, b) = two_hosts_direct();
        plain.attach_agent(a, Box::new(Echo::sending(b, 5)));
        plain.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(plain.run(), RunOutcome::Drained);

        // Same run with a full recorder attached.
        let (mut net, a, b) = two_hosts_direct();
        let rec = Rc::new(RefCell::new(obs::ObsRecorder::with_config(64, 0)));
        net.set_recorder(rec.clone());
        net.attach_agent(a, Box::new(Echo::sending(b, 5)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);

        // Observation is free: identical event count and end time.
        assert_eq!(net.events_processed(), plain.events_processed());
        assert_eq!(net.now(), plain.now());

        drop(net);
        let report = Rc::try_unwrap(rec).unwrap().into_inner().finalize(0);
        // 5 data + 5 ack enqueues, each sampled at enqueue and dequeue.
        let depth = report
            .metrics
            .histogram("queue_depth_bytes", &obs::labels([("link", "l0".into())]))
            .expect("forward link sampled");
        assert!(depth.count() >= 10);
        assert!(report.perfetto_json().contains("queue_bytes"));
    }

    #[test]
    fn recorder_counts_injected_drops_separately() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut net, a, b) = two_hosts_direct();
        let rec = Rc::new(RefCell::new(obs::ObsRecorder::with_config(64, 0)));
        net.set_recorder(rec.clone());
        net.set_link_fault(
            LinkId::from_raw(0),
            crate::fault::FaultSpec::random_loss(1.0),
        )
        .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 5)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        drop(net);
        let report = Rc::try_unwrap(rec).unwrap().into_inner().finalize(0);
        let mut labels = obs::labels([("link", "l0".into())]);
        labels.insert("injected", "yes".into());
        assert_eq!(
            report.metrics.counter("queue_drops_total", &labels),
            Some(5)
        );
    }

    #[test]
    fn injected_full_loss_drops_every_frame() {
        let (mut net, a, b) = two_hosts_direct();
        net.enable_packet_log(64);
        net.set_link_fault(
            LinkId::from_raw(0),
            crate::fault::FaultSpec::random_loss(1.0),
        )
        .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 5)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        // All five frames serialized (the sender paid for them), none arrived.
        let stats = net.link_stats(LinkId::from_raw(0));
        assert_eq!(stats.tx_pkts, 5);
        assert_eq!(stats.injected_drops, 5);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 0);
        // Injected losses never masquerade as congestive drops.
        assert_eq!(net.network_stats().dropped_pkts, 0);
        assert_eq!(net.network_stats().injected_drops, 5);
        // The injected drops are the run's only packet fates.
        assert_eq!(net.packet_log().unwrap().total_seen(), 5);
    }

    #[test]
    fn corrupted_frames_are_discarded_at_the_host() {
        let (mut net, a, b) = two_hosts_direct();
        net.enable_packet_log(64);
        let spec = crate::fault::FaultSpec::default().with_corruption(1.0);
        net.set_link_fault(LinkId::from_raw(0), spec)
            .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 4)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        // Frames traverse the wire (and are counted) but the agent never
        // sees them and no acks come back.
        assert_eq!(net.link_stats(LinkId::from_raw(0)).injected_corrupts, 4);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 0);
        assert_eq!(net.agent::<Echo>(a).unwrap().acks_received, 0);
        assert_eq!(net.network_stats().corrupt_discards, 4);
        // The discards are the run's only packet fates.
        assert_eq!(net.packet_log().unwrap().total_seen(), 4);
    }

    #[test]
    fn duplicated_frames_arrive_twice() {
        let (mut net, a, b) = two_hosts_direct();
        let spec = crate::fault::FaultSpec::default().with_duplication(1.0);
        net.set_link_fault(LinkId::from_raw(0), spec)
            .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 3)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 6);
        assert_eq!(net.link_stats(LinkId::from_raw(0)).injected_dups, 3);
    }

    #[test]
    fn flap_loses_frames_only_during_the_outage() {
        let (mut net, a, b) = two_hosts_direct();
        // Outage covers the whole run: everything sent at t=0 is lost.
        let spec =
            crate::fault::FaultSpec::default().with_flap(SimTime::ZERO, SimTime::from_secs(1));
        net.set_link_fault(LinkId::from_raw(0), spec)
            .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 4)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 0);
        assert_eq!(net.link_stats(LinkId::from_raw(0)).injected_drops, 4);
        // Clearing the fault restores the clean wire for a resumed run.
        net.clear_link_fault(LinkId::from_raw(0));
        assert!(net.link_fault(LinkId::from_raw(0)).is_none());
    }

    #[test]
    fn faulted_runs_replay_identically() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let a = net.add_host();
            let b = net.add_host();
            let ab = net.add_link(
                a,
                b,
                LinkSpec::droptail(Rate::from_gbps(1.0), SimDuration::from_micros(3), 100_000),
            );
            let ba = net.add_link(
                b,
                a,
                LinkSpec::droptail(Rate::from_gbps(1.0), SimDuration::from_micros(3), 100_000),
            );
            net.add_route(a, b, ab);
            net.add_route(b, a, ba);
            let spec = crate::fault::FaultSpec::random_loss(0.2)
                .with_duplication(0.1)
                .with_jitter(SimDuration::from_micros(2));
            net.set_link_fault(ab, spec).expect("valid fault spec");
            net.attach_agent(a, Box::new(Echo::sending(b, 60)));
            net.attach_agent(b, Box::new(Echo::new(a)));
            net.run();
            let s = net.link_stats(ab);
            (
                net.now(),
                net.events_processed(),
                s.injected_drops,
                s.injected_dups,
                net.agent::<Echo>(b).unwrap().received.len(),
            )
        };
        let first = run(11);
        assert_eq!(first, run(11));
        assert!(first.2 > 0, "0.2 loss over 60 frames should drop some");
        assert_ne!(first, run(12));
    }

    #[test]
    fn installing_a_noop_fault_changes_nothing() {
        // The fault stream is independent of the engine RNG, so a no-op
        // spec must leave the run bit-identical to a fault-free one.
        let run = |fault: bool| {
            let (mut net, a, b) = two_hosts_direct();
            if fault {
                net.set_link_fault(LinkId::from_raw(0), crate::fault::FaultSpec::default())
                    .expect("valid fault spec");
            }
            net.attach_agent(a, Box::new(Echo::sending(b, 20)));
            net.attach_agent(b, Box::new(Echo::new(a)));
            net.run();
            (net.now(), net.events_processed())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stall_watchdog_trips_on_livelock() {
        // A timer agent that re-arms itself forever and never receives a
        // packet: pure event churn with zero progress.
        struct Spinner;
        impl Agent for Spinner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(SimDuration::from_nanos(1), 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(SimDuration::from_nanos(1), 0);
            }
        }
        let mut net = Network::new(8);
        let a = net.add_host();
        net.attach_agent(a, Box::new(Spinner));
        net.set_stall_budget(Some(1_000));
        assert_eq!(net.run(), RunOutcome::Stalled);
        assert!(net.events_processed() <= 1_100);
    }

    #[test]
    fn stall_watchdog_stays_quiet_while_packets_deliver() {
        let (mut net, a, b) = two_hosts_direct();
        net.set_stall_budget(Some(50));
        net.attach_agent(a, Box::new(Echo::sending(b, 100)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        // 100 data + 100 acks deliver steadily; the budget never trips.
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.agent::<Echo>(b).unwrap().received.len(), 100);
    }

    #[test]
    fn conservation_counters_balance_on_a_clean_run() {
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(a, Box::new(Echo::sending(b, 25)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        let s = net.network_stats();
        // 25 data + 25 acks, all delivered.
        assert_eq!(s.originated_pkts, 50);
        assert_eq!(s.delivered_pkts, 50);
        assert_eq!(s.corrupt_discards, 0);
        assert_eq!(s.conservation_residual(), 0);
    }

    #[test]
    fn conservation_counters_balance_under_faults() {
        let (mut net, a, b) = two_hosts_direct();
        let spec = crate::fault::FaultSpec::random_loss(0.3)
            .with_corruption(0.2)
            .with_duplication(0.2);
        net.set_link_fault(LinkId::from_raw(0), spec)
            .expect("valid fault spec");
        net.attach_agent(a, Box::new(Echo::sending(b, 200)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        let s = net.network_stats();
        assert!(s.injected_drops > 0 && s.injected_corrupts > 0 && s.injected_dups > 0);
        assert!(s.corrupt_discards > 0);
        assert_eq!(
            s.conservation_residual(),
            0,
            "at quiescence every frame fate must be accounted: {s:?}"
        );
    }

    #[test]
    fn conservation_counters_balance_with_queue_drops() {
        let mut net = Network::new(9);
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(
            a,
            b,
            LinkSpec::droptail(Rate::from_mbps(1.0), SimDuration::from_micros(1), 2_500),
        );
        let ba = net.add_link(
            b,
            a,
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            ),
        );
        net.add_route(a, b, ab);
        net.add_route(b, a, ba);
        net.attach_agent(a, Box::new(Echo::sending(b, 10)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        assert_eq!(net.run(), RunOutcome::Drained);
        let s = net.network_stats();
        assert!(s.dropped_pkts > 0, "tiny buffer must overflow");
        assert_eq!(s.conservation_residual(), 0, "{s:?}");
    }

    /// Fires `remaining` back-to-back timer events — a cheap way to push
    /// the event counter past the deadline-check period.
    struct Ticker {
        remaining: u64,
    }
    impl Agent for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(SimDuration::from_nanos(1), 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer_after(SimDuration::from_nanos(1), 0);
            }
        }
    }

    #[test]
    fn expired_wall_deadline_aborts_a_long_run() {
        let mut net = Network::new(10);
        let a = net.add_host();
        // Plenty of events (> one deadline-check period) and a deadline
        // already in the past: the loop must bail at its first check.
        net.attach_agent(
            a,
            Box::new(Ticker {
                remaining: 10 * (DEADLINE_CHECK_MASK + 1),
            }),
        );
        net.set_wall_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        assert_eq!(net.run(), RunOutcome::DeadlineExceeded);
        assert_eq!(net.events_processed(), DEADLINE_CHECK_MASK + 1);
    }

    #[test]
    fn generous_wall_deadline_leaves_the_run_alone() {
        let mut net = Network::new(11);
        let a = net.add_host();
        net.attach_agent(
            a,
            Box::new(Ticker {
                remaining: 2 * (DEADLINE_CHECK_MASK + 1),
            }),
        );
        net.set_wall_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        ));
        assert_eq!(net.run(), RunOutcome::Drained);
    }

    /// Bonded links deliver back-to-back same-timestamp arrivals — the
    /// shape delivery batching coalesces.
    fn bonded_pair(seed: u64, count: u32, batching: bool) -> Network {
        let mut net = Network::new(seed);
        net.set_delivery_batching(batching);
        let a = net.add_host();
        let b = net.add_host();
        let spec = || {
            LinkSpec::droptail(
                Rate::from_gbps(10.0),
                SimDuration::from_micros(1),
                1_000_000,
            )
        };
        let l1 = net.add_link(a, b, spec());
        let l2 = net.add_link(a, b, spec());
        let back = net.add_link(b, a, spec());
        net.add_route(a, b, l1);
        net.add_route(a, b, l2);
        net.add_route(b, a, back);
        net.attach_agent(a, Box::new(Echo::sending(b, count)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        net
    }

    #[test]
    fn batched_delivery_is_bit_identical_to_per_packet() {
        let batched = bonded_pair(21, 40, true);
        let plain = bonded_pair(21, 40, false);
        assert_eq!(batched.now(), plain.now());
        assert_eq!(batched.events_processed(), plain.events_processed());
        let (sb, sp) = (batched.network_stats(), plain.network_stats());
        assert_eq!(sb.delivered_pkts, sp.delivered_pkts);
        assert_eq!(sb.originated_pkts, sp.originated_pkts);
        let (rb, rp) = (
            batched.agent::<Echo>(NodeId::from_raw(1)).unwrap(),
            plain.agent::<Echo>(NodeId::from_raw(1)).unwrap(),
        );
        assert_eq!(rb.received.len(), rp.received.len());
        for (x, y) in rb.received.iter().zip(rp.received.iter()) {
            assert_eq!(x.seq, y.seq, "delivery order must not change");
        }
        // And batching actually happened: bonded links land pairs at the
        // same instant, so dispatches < packets.
        let c = batched.counters();
        assert!(
            c.dispatch_batches < c.batched_pkts,
            "expected coalescing: {} dispatches for {} pkts",
            c.dispatch_batches,
            c.batched_pkts
        );
        let p = plain.counters();
        assert_eq!(p.dispatch_batches, p.batched_pkts, "unbatched mode is 1:1");
    }

    #[test]
    fn agent_panic_leaves_the_slot_intact() {
        struct Bomb {
            fuse: u32,
            handled: u32,
        }
        impl Agent for Bomb {
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
                self.handled += 1;
                if self.handled >= self.fuse {
                    // Queue commands first so the panic leaves the
                    // buffer dirty — the next run must discard them, and
                    // the send has already put a frame in the pool.
                    ctx.set_timer_after(SimDuration::from_micros(1), 99);
                    ctx.send(Packet::ack(
                        pkt.flow,
                        ctx.node(),
                        pkt.src,
                        AckInfo::default(),
                    ));
                    panic!("boom");
                }
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
        }
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(a, Box::new(Echo::sending(b, 3)));
        net.attach_agent(
            b,
            Box::new(Bomb {
                fuse: 2,
                handled: 0,
            }),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.run()));
        assert!(err.is_err(), "the bomb must go off");
        // The panic unwound out of with_agent mid-dispatch; both agents
        // are still attached and inspectable (the matrix runner relies
        // on this to report per-cell panic context).
        let bomb = net.agent::<Bomb>(b).expect("slot must not be poisoned");
        assert_eq!(bomb.handled, 2);
        assert!(net.agent::<Echo>(a).is_some());
        // And the network still runs: remaining queued events dispatch
        // into the (re-armed) agent without tripping over stale state.
        net.agent_mut::<Bomb>(b).unwrap().fuse = u32::MAX;
        assert_eq!(net.run(), RunOutcome::Drained);
        assert_eq!(net.agent::<Bomb>(b).unwrap().handled, 3);
        // The half-queued send was never originated, and its frame went
        // back to the pool: nothing leaks through the panic.
        assert_eq!(net.frames.live(), 0);
        assert_eq!(net.network_stats().conservation_residual(), 0);
        assert_eq!(net.agent::<Echo>(a).unwrap().acks_received, 0);
    }

    #[test]
    #[should_panic(expected = "node already has an agent")]
    fn attach_agent_on_an_occupied_node_panics() {
        let (mut net, a, b) = two_hosts_direct();
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.attach_agent(b, Box::new(Echo::new(a)));
    }

    #[test]
    fn activity_records_host_work() {
        let (mut net, a, b) = two_hosts_direct();
        net.enable_activity(SimDuration::from_millis(1));
        net.attach_agent(a, Box::new(Echo::sending(b, 4)));
        net.attach_agent(b, Box::new(Echo::new(a)));
        net.run();
        let act = net.activity().unwrap();
        let a_tot = act.totals(a);
        assert_eq!(a_tot.tx_pkts, 4);
        assert_eq!(a_tot.acks_rx, 4);
        let b_tot = act.totals(b);
        assert_eq!(b_tot.rx_pkts, 4);
        assert_eq!(b_tot.tx_pkts, 4); // the acks
    }
}
