//! The multi-bus platform engine: N bus shards under conservative
//! quantum synchronization.
//!
//! [`MultiSystem`] instantiates one complete single-bus backend per shard
//! (its own masters, arbiter, write buffer and DDR controller — an
//! `ahb-tlm` or `ahb-lt` instance with the bridge port attached) and runs
//! them under a barrier discipline:
//!
//! 1. every shard simulates freely up to the next quantum barrier;
//! 2. at the barrier, the crossings each shard issued are routed through
//!    the per-link bridge FIFOs ([`BridgeLink`]) and delivered to their
//!    destination shards as absolute-release work for the bridge replay
//!    masters;
//! 3. repeat until every shard drains and no crossing is in flight.
//!
//! The quantum equals the bridge's minimum crossing latency, so a
//! crossing issued inside quantum `k` can never be released before the
//! barrier ending quantum `k` — no shard can observe a remote effect it
//! should not yet see, regardless of execution order. That makes the
//! schedule *conservative* in the parallel-discrete-event sense, and it is
//! why the two execution modes — in-line on the calling thread, or one
//! worker thread per shard under `std::thread::scope` — run the identical
//! barrier/exchange schedule and produce probe-identical results. The
//! single-threaded mode is the reference implementation; the threaded
//! mode only changes wall-clock time.
//!
//! The platform itself implements [`BusModel`]: its probe aggregates the
//! shard probes (counting every workload transaction exactly once — the
//! remote replay of a crossing is bus occupancy, not new work) and its
//! report merges the per-master rows of all shards. `total_cycles` is the
//! **aggregate** number of bus cycles simulated across all shards (N
//! buses × the synchronized span), which is what makes Kcycles/s numbers
//! comparable across shard counts: the platform simulates N buses of
//! hardware per elapsed barrier cycle.

use std::sync::Mutex;
use std::time::Instant;

use ahb_lt::{LtConfig, LtSystem};
use ahb_tlm::{TlmConfig, TlmSystem};
use amba::bridge::{BridgePort, CrossingLeg, ReplayStats, WindowMap};
use amba::ids::MasterId;
use amba::txn::{Transaction, TransactionId};
use analysis::model::{BusModel, Probe, SyncStats};
use analysis::recorder::Recorder;
use analysis::report::{ModelKind, SimReport};
use analysis::trace::{TraceLog, Tracer, SCHEDULER_SHARD};
use simkern::time::Cycle;
use traffic::TrafficPattern;

use crate::config::{MultiConfig, ShardBackendKind};
use crate::link::BridgeLink;
use crate::sync::SyncBarrier;

/// Highest master identifier usable by shard traffic; identifiers above
/// it are reserved for the per-shard bridge replay masters
/// ([`bridge_master`]).
pub const MAX_TRAFFIC_MASTER_ID: u8 = 239;

/// The bridge replay master identifier of shard `shard`.
///
/// # Panics
///
/// Panics when the shard index leaves the reserved range.
#[must_use]
pub fn bridge_master(shard: usize) -> MasterId {
    assert!(shard < usize::from(u8::MAX - MAX_TRAFFIC_MASTER_ID));
    MasterId::new(u8::MAX - shard as u8)
}

/// One shard: a complete single-bus backend with its bridge port.
// The variant size difference (a TLM shard is a few KB of arbiter and
// recorder state, an LT shard a few hundred bytes) is irrelevant at one
// value per shard.
#[allow(clippy::large_enum_variant)]
enum ShardEngine {
    /// A transaction-level shard.
    Tlm(TlmSystem),
    /// A loosely-timed shard.
    Lt(LtSystem),
}

impl ShardEngine {
    fn run_until(&mut self, target: u64) {
        match self {
            ShardEngine::Tlm(s) => {
                s.run_until(Cycle::new(target));
            }
            ShardEngine::Lt(s) => {
                s.run_until(Cycle::new(target));
            }
        }
    }

    fn finished(&self) -> bool {
        match self {
            ShardEngine::Tlm(s) => BusModel::finished(s),
            ShardEngine::Lt(s) => BusModel::finished(s),
        }
    }

    /// Drains the egress log into `out` (cleared first), recycling the
    /// buffer's capacity across quanta instead of allocating per batch.
    fn drain_egress_into(&mut self, out: &mut Vec<amba::bridge::BridgeCrossing>) {
        match self {
            ShardEngine::Tlm(s) => s.drain_egress_into(out),
            ShardEngine::Lt(s) => s.drain_egress_into(out),
        }
    }

    fn inject_crossing(&mut self, txn: Transaction, release_at: u64, respond_to: Option<u8>) {
        match self {
            ShardEngine::Tlm(s) => s.inject_crossing(txn, Cycle::new(release_at), respond_to),
            ShardEngine::Lt(s) => s.inject_crossing(txn, release_at, respond_to),
        }
    }

    fn inject_response(&mut self, id: TransactionId, arrival: u64) {
        match self {
            ShardEngine::Tlm(s) => s.inject_response(id, Cycle::new(arrival)),
            ShardEngine::Lt(s) => s.inject_response(id, arrival),
        }
    }

    fn replayed(&self) -> ReplayStats {
        match self {
            ShardEngine::Tlm(s) => s.replayed(),
            ShardEngine::Lt(s) => s.replayed(),
        }
    }

    /// The shard's lookahead bound as a plain cycle number: the earliest
    /// cycle it could issue another crossing, `u64::MAX` when it never
    /// can from its current state.
    fn next_possible_crossing(&self) -> u64 {
        match self {
            ShardEngine::Tlm(s) => s.next_possible_crossing().map_or(u64::MAX, |c| c.value()),
            ShardEngine::Lt(s) => s.next_possible_crossing().map_or(u64::MAX, |c| c.value()),
        }
    }

    fn probe(&self) -> Probe {
        match self {
            ShardEngine::Tlm(s) => s.probe(),
            ShardEngine::Lt(s) => s.probe(),
        }
    }

    fn recorder(&self) -> &Recorder {
        match self {
            ShardEngine::Tlm(s) => s.recorder(),
            ShardEngine::Lt(s) => s.recorder(),
        }
    }

    fn set_tracing(&mut self, enabled: bool) {
        match self {
            ShardEngine::Tlm(s) => s.set_tracing(enabled),
            ShardEngine::Lt(s) => s.set_tracing(enabled),
        }
    }

    fn set_trace_shard(&mut self, shard: u16) {
        match self {
            ShardEngine::Tlm(s) => s.set_trace_shard(shard),
            ShardEngine::Lt(s) => s.set_trace_shard(shard),
        }
    }

    fn take_trace_log(&mut self) -> TraceLog {
        match self {
            ShardEngine::Tlm(s) => s.take_trace_log(),
            ShardEngine::Lt(s) => s.take_trace_log(),
        }
    }
}

/// One routed crossing waiting to be injected into its destination shard.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// A request leg: replay `txn` on the destination's bridge master;
    /// when `respond_to` names an origin, return a response leg there
    /// once the replay completes (non-posted read).
    Replay {
        /// The crossing transaction (original master id).
        txn: Transaction,
        /// Origin shard owed a response, if any.
        respond_to: Option<u8>,
    },
    /// A response leg: retire the master stalled on `txn.id`.
    Response {
        /// The original stalled transaction.
        txn: Transaction,
    },
}

impl Delivery {
    /// Deterministic tie-break rank within one release cycle: requests
    /// before responses, then master, then transaction id. For a
    /// posted-only platform every delivery is a replay, so the order is
    /// exactly the PR-4 `(cycle, master, id)` order.
    fn sort_key(&self) -> (u8, usize, u64) {
        match self {
            Delivery::Replay { txn, .. } => (0, txn.master.index(), txn.id.value()),
            Delivery::Response { txn } => (1, txn.master.index(), txn.id.value()),
        }
    }
}

/// Per-quantum exchange buffers, reused across barriers.
struct QuantumBuffers {
    /// Crossings drained from each shard this quantum.
    outbox: Vec<Vec<amba::bridge::BridgeCrossing>>,
    /// Routed deliveries per destination shard: `(release cycle, what)`.
    inbox: Vec<Vec<(u64, Delivery)>>,
    /// Each shard's completion flag, sampled after its quantum and before
    /// any injection.
    finished: Vec<bool>,
}

impl QuantumBuffers {
    fn new(shards: usize) -> Self {
        QuantumBuffers {
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            inbox: (0..shards).map(|_| Vec::new()).collect(),
            finished: vec![false; shards],
        }
    }
}

/// Routes every drained crossing through its bridge link and into the
/// destination inbox. Deterministic: sources are visited in shard order,
/// crossings in local completion order, and each inbox is stably sorted
/// by release time. Request legs route to the shard owning the address;
/// response legs route back to the origin shard over the reverse-direction
/// link (sharing its FIFO with requests travelling that way). Shared
/// verbatim by the single-threaded reference and the threaded leader,
/// which is what makes the two modes probe-identical.
fn route_quantum(
    map: &WindowMap,
    links: &mut [BridgeLink],
    buffers: &mut QuantumBuffers,
    crossings: &mut u64,
    fifo_peak: &mut u64,
) {
    let shards = buffers.outbox.len();
    let QuantumBuffers { outbox, inbox, .. } = buffers;
    for src in 0..shards {
        // Drain in place: the outbox keeps its capacity for the next
        // quantum instead of bouncing an allocation per crossing batch.
        for crossing in outbox[src].drain(..) {
            let (dst, delivery) = match crossing.leg {
                CrossingLeg::Posted => (
                    usize::from(map.owner(crossing.txn.addr)),
                    Delivery::Replay {
                        txn: crossing.txn,
                        respond_to: None,
                    },
                ),
                CrossingLeg::NonPostedRead { origin } => (
                    usize::from(map.owner(crossing.txn.addr)),
                    Delivery::Replay {
                        txn: crossing.txn,
                        respond_to: Some(origin),
                    },
                ),
                CrossingLeg::ReadResponse { origin } => (
                    usize::from(origin),
                    Delivery::Response { txn: crossing.txn },
                ),
            };
            debug_assert_ne!(dst, src, "local transaction routed across the bridge");
            let link = &mut links[src * shards + dst];
            let (arrival, occupancy) = link.forward(crossing.issued_at.value());
            *crossings += 1;
            *fifo_peak = (*fifo_peak).max(occupancy as u64);
            inbox[dst].push((arrival, delivery));
        }
    }
    for inbox in inbox.iter_mut() {
        inbox.sort_by_key(|(at, delivery)| {
            let (rank, master, id) = delivery.sort_key();
            (*at, rank, master, id)
        });
    }
}

/// Shared state of one threaded advance: the exchange buffers plus the
/// routing state the leader thread updates between the two barrier waits
/// of each quantum.
struct Exchange {
    buffers: QuantumBuffers,
    links: Vec<BridgeLink>,
    crossings: u64,
    fifo_peak: u64,
    barrier: u64,
    stop: bool,
    /// Per-shard lookahead bounds deposited alongside the egress (only
    /// meaningful when lookahead is enabled).
    bounds: Vec<u64>,
    /// The barrier every worker runs to next, published by the leader
    /// between the two waits of a quantum.
    next_target: u64,
    barriers: u64,
    stretched: u64,
    cycles_gained: u64,
    /// The platform's scheduler-event tracer (barriers, stretches),
    /// moved in from the system for the duration of a threaded advance
    /// so the leader records into it under the exchange lock.
    tracer: Tracer,
}

/// The multi-bus AHB+ platform.
pub struct MultiSystem {
    kind: ModelKind,
    map: WindowMap,
    quantum: u64,
    max_cycles: u64,
    threaded: bool,
    spin_sync: bool,
    /// Adaptive lookahead: stretch the quantum past the fixed value when
    /// every shard proves no crossing can be issued before the stretched
    /// barrier. Off → the fixed schedule, byte for byte.
    lookahead: bool,
    /// Upper bound on one stretch past the fixed barrier position.
    max_stretch: u64,
    shards: Vec<ShardEngine>,
    bridge_ids: Vec<MasterId>,
    /// Directed links, indexed `source * shards + destination`.
    links: Vec<BridgeLink>,
    buffers: QuantumBuffers,
    /// The synchronized barrier clock (the platform's `now`).
    barrier: u64,
    /// The committed end of the quantum in flight: both execution modes
    /// run every shard to exactly this barrier next, so bounded stepping
    /// re-enters the identical schedule a one-shot run would take.
    next_target: u64,
    crossings: u64,
    fifo_peak: u64,
    /// Barriers taken / barriers stretched past the fixed quantum /
    /// simulated cycles gained by those stretches (sync observability —
    /// kept out of [`Probe`] so probe-equality stays a statement about
    /// simulated work, not scheduler policy).
    barriers: u64,
    stretched: u64,
    cycles_gained: u64,
    wall_seconds: f64,
    /// Records the platform's own scheduler events (barriers taken,
    /// lookahead stretches) under [`SCHEDULER_SHARD`]; the per-shard
    /// lifecycle streams live inside the shard engines.
    tracer: Tracer,
}

impl std::fmt::Debug for MultiSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSystem")
            .field("kind", &self.kind)
            .field("shards", &self.shards.len())
            .field("quantum", &self.quantum)
            .field("barrier", &self.barrier)
            .finish()
    }
}

impl MultiSystem {
    /// Builds a platform with one shard per traffic pattern: every master
    /// of pattern `s` lives on shard `s`, and every shard runs the same
    /// deterministic workload expansion as the single-bus backends (same
    /// `(id, profile, seed)` → same trace), so a sharded platform
    /// completes exactly the work a single-bus platform would on the union
    /// of the patterns. The platform's *shape* — backend per shard, window
    /// ownership, per-link timing, read-crossing mode — comes from the
    /// configuration's [`crate::Topology`].
    ///
    /// # Panics
    ///
    /// Panics when no patterns are given, when more than 16 shards are
    /// requested, when the topology fixes a different shard count, or
    /// when a master identifier collides with the reserved
    /// bridge/write-buffer range.
    #[must_use]
    pub fn from_shard_patterns(
        config: &MultiConfig,
        patterns: &[TrafficPattern],
        transactions_per_master: usize,
        seed: u64,
    ) -> Self {
        let shards = patterns.len();
        assert!(shards >= 1, "a platform needs at least one shard");
        assert!(shards <= 16, "bridge master ids support at most 16 shards");
        config.topology.validate_links(shards);
        let backends = config.topology.backends(shards);
        let map = config.topology.window_map(shards);
        let quantum = config.effective_quantum(shards);
        let bridge_ids: Vec<MasterId> = (0..shards).map(bridge_master).collect();
        let engines = patterns
            .iter()
            .enumerate()
            .map(|(shard, pattern)| {
                for (id, _) in &pattern.masters {
                    assert!(
                        id.index() <= usize::from(MAX_TRAFFIC_MASTER_ID),
                        "master {id} collides with the reserved bridge range"
                    );
                }
                let port = BridgePort {
                    map: map.clone(),
                    own: shard as u8,
                    slave_cycles: config.topology.default_link.slave_cycles,
                    master: bridge_ids[shard],
                    posted_reads: config.topology.posted_reads,
                };
                let masters = pattern.expand(transactions_per_master, seed);
                let params = config.topology.params_for(shard, &config.params);
                let ddr = config.topology.ddr_for(shard, config.ddr);
                match backends[shard] {
                    ShardBackendKind::Tlm => {
                        let tlm = TlmConfig {
                            params,
                            ddr,
                            max_cycles: config.max_cycles,
                        };
                        ShardEngine::Tlm(TlmSystem::with_bridge(tlm, masters, port))
                    }
                    ShardBackendKind::Lt => {
                        let lt = LtConfig {
                            params,
                            ddr,
                            max_cycles: config.max_cycles,
                        };
                        ShardEngine::Lt(LtSystem::with_bridge(lt, masters, port))
                    }
                }
            })
            .collect();
        let links = (0..shards * shards)
            .map(|index| {
                let link = config.topology.link(index / shards, index % shards);
                BridgeLink::new(
                    link.crossing_latency,
                    link.forward_interval,
                    link.fifo_depth,
                )
            })
            .collect();
        // A lookahead-enabled uniform-TLM platform is its own spectrum
        // point (`sharded-tlm-la`): identical results, different wall
        // clock. Other shapes keep their kind — the lookahead flag rides
        // along as a scheduling policy of the same artifact key.
        let kind = match config.topology.model_kind(&backends) {
            ModelKind::ShardedTlm if config.lookahead => ModelKind::ShardedTlmLa,
            kind => kind,
        };
        MultiSystem {
            kind,
            map,
            quantum,
            max_cycles: config.max_cycles,
            threaded: config.threaded,
            spin_sync: config.effective_spin_sync(),
            lookahead: config.lookahead,
            max_stretch: config.effective_max_stretch(quantum),
            shards: engines,
            bridge_ids,
            links,
            buffers: QuantumBuffers::new(shards),
            barrier: 0,
            next_target: quantum.min(config.max_cycles),
            crossings: 0,
            fifo_peak: 0,
            barriers: 0,
            stretched: 0,
            cycles_gained: 0,
            wall_seconds: 0.0,
            tracer: Tracer::disabled(),
        }
    }

    /// Number of bus shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The effective synchronization quantum in cycles.
    #[must_use]
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Total crossings forwarded over all bridge links so far.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Barriers taken so far.
    #[must_use]
    pub fn barriers_taken(&self) -> u64 {
        self.barriers
    }

    /// Barriers whose quantum the lookahead stretched past the fixed
    /// value. Always 0 with lookahead disabled.
    #[must_use]
    pub fn barriers_stretched(&self) -> u64 {
        self.stretched
    }

    /// Simulated cycles gained by lookahead stretches: the sum over all
    /// stretched barriers of (stretched − fixed) quantum span.
    #[must_use]
    pub fn lookahead_cycles_gained(&self) -> u64 {
        self.cycles_gained
    }

    /// Per-shard observability: one [`Probe`] per shard, in shard order —
    /// the breakdown behind the aggregated [`MultiSystem::probe`].
    #[must_use]
    pub fn shard_probes(&self) -> Vec<Probe> {
        self.shards.iter().map(ShardEngine::probe).collect()
    }

    /// Enables or disables tracing on every shard plus the platform's
    /// scheduler-event stream. Each shard's events are tagged with its
    /// shard index; scheduler events carry [`SCHEDULER_SHARD`].
    pub fn set_tracing(&mut self, enabled: bool) {
        for (index, shard) in self.shards.iter_mut().enumerate() {
            shard.set_trace_shard(index as u16);
            shard.set_tracing(enabled);
        }
        self.tracer.set_shard(SCHEDULER_SHARD);
        self.tracer.set_enabled(enabled);
    }

    /// Drains and merges the per-shard trace streams with the scheduler
    /// events into one deterministic log (stable `(cycle, shard, seq)`
    /// order), filling the platform-level bridge counters. The merged
    /// stream is a pure function of the simulated schedule, so it is
    /// byte-identical across the single-threaded, threaded and spin-sync
    /// execution modes.
    pub fn take_trace_log(&mut self) -> TraceLog {
        let mut parts: Vec<TraceLog> = self
            .shards
            .iter_mut()
            .map(ShardEngine::take_trace_log)
            .collect();
        parts.push(self.tracer.take());
        let mut log = TraceLog::merge(parts);
        log.counters.crossings = self.crossings;
        log.counters.bridge_fifo_peak = self.fifo_peak;
        log
    }

    /// Current synchronized time (the barrier clock).
    #[must_use]
    pub fn now(&self) -> Cycle {
        Cycle::new(self.barrier)
    }

    /// `true` once every shard has drained (including all delivered
    /// bridge replays) or the cycle limit is reached.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.barrier >= self.max_cycles || self.shards.iter().all(ShardEngine::finished)
    }

    /// Advances the platform in whole quanta until the barrier clock
    /// reaches `target`, the workload drains everywhere, or the cycle
    /// limit is hit. May overshoot `target` by at most one quantum (the
    /// barrier discipline never stops inside a quantum); with lookahead
    /// enabled a quantum may span up to the configured stretch bound.
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        let wall = Instant::now();
        let end = target.value().min(self.max_cycles);
        if self.threaded {
            self.advance_threaded(end);
        } else {
            self.advance_single(end);
        }
        self.wall_seconds += wall.elapsed().as_secs_f64();
        Cycle::new(self.barrier)
    }

    /// The barrier the platform commits to after finishing the quantum
    /// ending at `next`: the fixed position, or — when lookahead is on
    /// and `quiet` (nothing was routed this barrier, so no shard state
    /// is about to change) — the stretched position justified by the
    /// minimum shard bound. A crossing issued at cycle `t ≥ bound`
    /// arrives no earlier than `t + quantum` (the quantum never exceeds
    /// the minimum link latency), so advancing every shard to
    /// `bound + quantum` without exchanging is causally safe.
    ///
    /// Returns `(target, gained)` where `gained` is how many cycles the
    /// stretch added over the fixed schedule (zero when not stretched).
    fn commit_next_target(
        lookahead: bool,
        quiet: bool,
        bound: u64,
        next: u64,
        quantum: u64,
        max_stretch: u64,
        max_cycles: u64,
    ) -> (u64, u64) {
        let fixed = (next + quantum).min(max_cycles);
        if !(lookahead && quiet) {
            return (fixed, 0);
        }
        let target = bound
            .saturating_add(quantum)
            .min(next.saturating_add(max_stretch))
            .min(max_cycles)
            .max(fixed);
        (target, target - fixed)
    }

    /// The single-threaded reference schedule: per quantum, run every
    /// shard in order, route, inject, repeat. The barrier each iteration
    /// runs to was committed at the previous barrier (`next_target`), so
    /// the schedule is a pure function of the shard states — identical
    /// in both execution modes and across bounded stepping.
    fn advance_single(&mut self, end: u64) {
        if self.barrier >= end || self.is_finished() {
            return;
        }
        loop {
            let next = self.next_target;
            let mut bound = u64::MAX;
            for (index, shard) in self.shards.iter_mut().enumerate() {
                shard.run_until(next);
                shard.drain_egress_into(&mut self.buffers.outbox[index]);
                self.buffers.finished[index] = shard.finished();
                if self.lookahead {
                    bound = bound.min(shard.next_possible_crossing());
                }
            }
            route_quantum(
                &self.map,
                &mut self.links,
                &mut self.buffers,
                &mut self.crossings,
                &mut self.fifo_peak,
            );
            self.barrier = next;
            self.barriers += 1;
            let quiet = self.buffers.inbox.iter().all(Vec::is_empty);
            let (target, gained) = Self::commit_next_target(
                self.lookahead,
                quiet,
                bound,
                next,
                self.quantum,
                self.max_stretch,
                self.max_cycles,
            );
            self.next_target = target;
            self.tracer.barrier(next, target.saturating_sub(next));
            if gained > 0 {
                self.stretched += 1;
                self.cycles_gained += gained;
                self.tracer.stretch(next, gained);
            }
            let drained = self.buffers.finished.iter().all(|&f| f) && quiet;
            let stop = drained || next >= end;
            for (index, shard) in self.shards.iter_mut().enumerate() {
                for (at, delivery) in self.buffers.inbox[index].drain(..) {
                    match delivery {
                        Delivery::Replay { txn, respond_to } => {
                            shard.inject_crossing(txn, at, respond_to);
                        }
                        Delivery::Response { txn } => shard.inject_response(txn.id, at),
                    }
                }
            }
            if stop {
                break;
            }
        }
    }

    /// The threaded schedule: one worker per shard, two barrier waits per
    /// quantum (deposit egress → leader routes → inject), executing the
    /// *same* exchange code as [`MultiSystem::advance_single`] on the
    /// same barrier clock — probe-identical by construction.
    fn advance_threaded(&mut self, end: u64) {
        if self.barrier >= end || self.is_finished() {
            return;
        }
        let shards = self.shards.len();
        let quantum = self.quantum;
        let max = self.max_cycles;
        let lookahead = self.lookahead;
        let max_stretch = self.max_stretch;
        let map = self.map.clone();
        let map = &map;
        let first = self.next_target;
        let sync = SyncBarrier::new(shards, self.spin_sync);
        let exchange = Mutex::new(Exchange {
            buffers: std::mem::replace(&mut self.buffers, QuantumBuffers::new(0)),
            links: std::mem::take(&mut self.links),
            crossings: self.crossings,
            fifo_peak: self.fifo_peak,
            barrier: self.barrier,
            stop: false,
            bounds: vec![u64::MAX; shards],
            next_target: first,
            barriers: self.barriers,
            stretched: self.stretched,
            cycles_gained: self.cycles_gained,
            tracer: std::mem::replace(&mut self.tracer, Tracer::disabled()),
        });
        std::thread::scope(|scope| {
            for (index, shard) in self.shards.iter_mut().enumerate() {
                let sync = &sync;
                let exchange = &exchange;
                scope.spawn(move || {
                    let mut next = first;
                    // Worker-local scratch buffers, swapped with the shared
                    // exchange slots under the lock: the egress and inbox
                    // capacities ping-pong between worker and leader
                    // instead of reallocating every quantum.
                    let mut egress = Vec::new();
                    let mut batch = Vec::new();
                    loop {
                        shard.run_until(next);
                        shard.drain_egress_into(&mut egress);
                        let finished = shard.finished();
                        let bound = if lookahead {
                            shard.next_possible_crossing()
                        } else {
                            u64::MAX
                        };
                        {
                            let mut guard = exchange.lock().expect("no panics hold the lock");
                            std::mem::swap(&mut guard.buffers.outbox[index], &mut egress);
                            guard.buffers.finished[index] = finished;
                            guard.bounds[index] = bound;
                        }
                        if sync.wait() {
                            let mut guard = exchange.lock().expect("no panics hold the lock");
                            let guard = &mut *guard;
                            route_quantum(
                                map,
                                &mut guard.links,
                                &mut guard.buffers,
                                &mut guard.crossings,
                                &mut guard.fifo_peak,
                            );
                            guard.barrier = next;
                            guard.barriers += 1;
                            let quiet = guard.buffers.inbox.iter().all(Vec::is_empty);
                            let bound = guard.bounds.iter().copied().min().unwrap_or(u64::MAX);
                            let (target, gained) = MultiSystem::commit_next_target(
                                lookahead,
                                quiet,
                                bound,
                                next,
                                quantum,
                                max_stretch,
                                max,
                            );
                            guard.next_target = target;
                            guard.tracer.barrier(next, target.saturating_sub(next));
                            if gained > 0 {
                                guard.stretched += 1;
                                guard.cycles_gained += gained;
                                guard.tracer.stretch(next, gained);
                            }
                            let drained = guard.buffers.finished.iter().all(|&f| f) && quiet;
                            guard.stop = drained || next >= end;
                        }
                        sync.wait();
                        let (stop, following) = {
                            let mut guard = exchange.lock().expect("no panics hold the lock");
                            std::mem::swap(&mut guard.buffers.inbox[index], &mut batch);
                            (guard.stop, guard.next_target)
                        };
                        for (at, delivery) in batch.drain(..) {
                            match delivery {
                                Delivery::Replay { txn, respond_to } => {
                                    shard.inject_crossing(txn, at, respond_to);
                                }
                                Delivery::Response { txn } => shard.inject_response(txn.id, at),
                            }
                        }
                        if stop {
                            break;
                        }
                        next = following;
                    }
                });
            }
        });
        let exchange = exchange.into_inner().expect("workers have exited");
        self.buffers = exchange.buffers;
        self.links = exchange.links;
        self.crossings = exchange.crossings;
        self.fifo_peak = exchange.fifo_peak;
        self.barrier = exchange.barrier;
        self.next_target = exchange.next_target;
        self.barriers = exchange.barriers;
        self.stretched = exchange.stretched;
        self.cycles_gained = exchange.cycles_gained;
        self.tracer = exchange.tracer;
    }

    /// Aggregates the shard probes in one pass: the summed probe with
    /// every workload transaction counted exactly once (bridge replays are
    /// subtracted — they are remote bus occupancy for work already counted
    /// at its source) plus the platform-level bridge statistics, and the
    /// sum of the shards' bus cycles.
    ///
    /// # Panics
    ///
    /// Panics when the replays exceed the shard totals, which would be an
    /// accounting bug.
    fn aggregate(&self) -> (Probe, u64) {
        let mut aggregate = Probe::default();
        let mut replays = ReplayStats::default();
        let mut bus_cycles = 0;
        for shard in &self.shards {
            let probe = shard.probe();
            bus_cycles += probe.cycle;
            aggregate.cycle = aggregate.cycle.max(probe.cycle);
            aggregate.transactions += probe.transactions;
            aggregate.bytes += probe.bytes;
            aggregate.data_beats += probe.data_beats;
            aggregate.busy_cycles += probe.busy_cycles;
            aggregate.write_buffer_fill += probe.write_buffer_fill;
            aggregate.write_buffer_absorbed += probe.write_buffer_absorbed;
            aggregate.write_buffer_drained += probe.write_buffer_drained;
            aggregate.write_buffer_peak += probe.write_buffer_peak;
            aggregate.dram_row_hits += probe.dram_row_hits;
            aggregate.dram_prepared_hits += probe.dram_prepared_hits;
            aggregate.dram_accesses += probe.dram_accesses;
            aggregate.assertion_errors += probe.assertion_errors;
            aggregate.assertion_warnings += probe.assertion_warnings;
            let replayed = shard.replayed();
            replays.transactions += replayed.transactions;
            replays.bytes += replayed.bytes;
            replays.data_beats += replayed.data_beats;
        }
        let unreplayed = |total: u64, replayed: u64| {
            total
                .checked_sub(replayed)
                .expect("bridge replays exceed the shard totals")
        };
        aggregate.transactions = unreplayed(aggregate.transactions, replays.transactions);
        aggregate.bytes = unreplayed(aggregate.bytes, replays.bytes);
        aggregate.data_beats = unreplayed(aggregate.data_beats, replays.data_beats);
        aggregate.bridge_crossings = self.crossings;
        aggregate.bridge_fifo_peak = self.fifo_peak;
        (aggregate, bus_cycles)
    }

    /// Aggregated snapshot over every shard; the [`Probe`] field docs say
    /// which fields are sums and which are maxima.
    #[must_use]
    pub fn probe(&self) -> Probe {
        self.aggregate().0
    }

    /// The aggregated metric report: the shards' recorder rows merged
    /// (the bridge replay ports are internal plumbing and are omitted),
    /// projected with the aggregated probe. `total_cycles` is the
    /// aggregate bus cycles simulated across the fabric.
    ///
    /// # Panics
    ///
    /// Panics when two shards share a master identifier (the sharded
    /// pattern constructors guarantee uniqueness).
    #[must_use]
    pub fn report(&self) -> SimReport {
        let (probe, bus_cycles) = self.aggregate();
        let mut recorder = Recorder::new(self.kind);
        for (shard, bridge) in self.shards.iter().zip(&self.bridge_ids) {
            recorder.merge(shard.recorder(), *bridge);
        }
        recorder.report(&probe, bus_cycles, self.wall_seconds)
    }

    /// Runs the platform to completion (or the cycle limit) and reports.
    pub fn run(&mut self) -> SimReport {
        self.run_until(Cycle::MAX);
        self.report()
    }
}

impl BusModel for MultiSystem {
    fn kind(&self) -> ModelKind {
        self.kind
    }

    fn now(&self) -> Cycle {
        MultiSystem::now(self)
    }

    fn finished(&self) -> bool {
        self.is_finished()
    }

    fn run_until(&mut self, target: Cycle) -> Cycle {
        MultiSystem::run_until(self, target)
    }

    fn probe(&self) -> Probe {
        MultiSystem::probe(self)
    }

    fn report(&self) -> SimReport {
        MultiSystem::report(self)
    }

    fn set_tracing(&mut self, enabled: bool) {
        MultiSystem::set_tracing(self, enabled);
    }

    fn take_trace(&mut self) -> Option<TraceLog> {
        self.tracer.is_enabled().then(|| self.take_trace_log())
    }

    fn sync_stats(&self) -> Option<SyncStats> {
        let mean_quantum = if self.barriers == 0 {
            0.0
        } else {
            self.barrier as f64 / self.barriers as f64
        };
        Some(SyncStats {
            barriers: self.barriers,
            stretched: self.stretched,
            cycles_gained: self.cycles_gained,
            mean_quantum,
        })
    }
}

/// Splits a single-bus traffic pattern into `shards` per-shard patterns,
/// assigning master `i` to shard `i % shards` (a pattern with fewer
/// masters than shards leaves the tail shards with only their bridge
/// port). Master ids and profiles are untouched, so the union of the
/// sharded workload equals the single-bus workload exactly.
///
/// # Panics
///
/// Panics when `shards` is zero.
#[must_use]
pub fn partition_round_robin(pattern: &TrafficPattern, shards: usize) -> Vec<TrafficPattern> {
    assert!(shards >= 1, "a platform needs at least one shard");
    let mut parts: Vec<TrafficPattern> = (0..shards)
        .map(|_| TrafficPattern {
            name: pattern.name,
            masters: Vec::new(),
        })
        .collect();
    for (index, entry) in pattern.masters.iter().enumerate() {
        parts[index % shards].masters.push(entry.clone());
    }
    parts
}

/// Splits a single-bus traffic pattern into `shards` per-shard patterns,
/// assigning every master to the shard that *owns its region* under the
/// interleaved window map — the zero-crossing partition: each master's
/// traffic stays on its own shard, so the sharded platform is pure
/// scaling (same work, no bridge traffic).
///
/// # Panics
///
/// Panics when `shards` is zero.
#[must_use]
pub fn partition_by_window(
    pattern: &TrafficPattern,
    shards: usize,
    window_shift: u32,
) -> Vec<TrafficPattern> {
    assert!(shards >= 1, "a platform needs at least one shard");
    let map = WindowMap::interleaved(window_shift, shards as u8);
    let mut parts: Vec<TrafficPattern> = (0..shards)
        .map(|_| TrafficPattern {
            name: pattern.name,
            masters: Vec::new(),
        })
        .collect();
    for entry in &pattern.masters {
        parts[usize::from(map.owner(entry.1.region_base))]
            .masters
            .push(entry.clone());
    }
    parts
}
