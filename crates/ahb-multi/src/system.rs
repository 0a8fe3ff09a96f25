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
//! Each shard's end of the bridge is its [`ShardPort`]: the scheduler
//! drains the port's egress log, reads its replay totals for the
//! aggregate, and asks the backend for the port's lookahead bound.
//!
//! The quantum equals the bridge's minimum crossing latency, so a
//! crossing issued inside quantum `k` can never be released before the
//! barrier ending quantum `k` — no shard can observe a remote effect it
//! should not yet see, regardless of the order the shards run in. That
//! makes the schedule *conservative* in the parallel-discrete-event sense.
//! The shards run one after another on the calling thread: with a
//! 96-cycle quantum a shard has well under a microsecond of work per
//! barrier, less than one thread rendezvous costs, so the platform has
//! one scheduler and the adaptive lookahead is its only lever on
//! synchronization cost.
//!
//! The platform itself implements [`BusModel`]: its probe aggregates the
//! shard probes (counting every workload transaction exactly once — the
//! remote replay of a crossing is bus occupancy, not new work) and its
//! report merges the per-master rows of all shards. `total_cycles` is the
//! **aggregate** number of bus cycles simulated across all shards (N
//! buses × the synchronized span), which is what makes Kcycles/s numbers
//! comparable across shard counts: the platform simulates N buses of
//! hardware per elapsed barrier cycle.

use std::time::Instant;

use ahb_lt::{LtConfig, LtSystem};
use ahb_tlm::{TlmConfig, TlmSystem};
use amba::bridge::{BridgeCrossing, BridgePort, CrossingLeg, ReplayStats, ShardPort, WindowMap};
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

    /// The shard's bridge endpoint (every shard is built with one).
    fn port(&self) -> &ShardPort {
        match self {
            ShardEngine::Tlm(s) => s.bridge_port(),
            ShardEngine::Lt(s) => s.bridge_port(),
        }
        .expect("every shard carries a bridge port")
    }

    fn port_mut(&mut self) -> &mut ShardPort {
        match self {
            ShardEngine::Tlm(s) => s.bridge_port_mut(),
            ShardEngine::Lt(s) => s.bridge_port_mut(),
        }
        .expect("every shard carries a bridge port")
    }

    fn inject_crossing(&mut self, txn: Transaction, release_at: Cycle, respond_to: Option<u8>) {
        match self {
            ShardEngine::Tlm(s) => s.inject_crossing(txn, release_at, respond_to),
            ShardEngine::Lt(s) => s.inject_crossing(txn, release_at, respond_to),
        }
    }

    fn inject_response(&mut self, id: TransactionId, arrival: Cycle) {
        match self {
            ShardEngine::Tlm(s) => s.inject_response(id, arrival),
            ShardEngine::Lt(s) => s.inject_response(id, arrival),
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

/// The bridge fabric between the shards: the directed links, the
/// deliveries routed at the current barrier and the crossing counters.
struct Fabric {
    map: WindowMap,
    /// Directed links, indexed `source * shards + destination`.
    links: Vec<BridgeLink>,
    /// The egress of the shard being routed, reused across quanta so a
    /// crossing batch never allocates.
    egress: Vec<BridgeCrossing>,
    /// Routed deliveries per destination shard: `(release cycle, what)`.
    inbox: Vec<Vec<(u64, Delivery)>>,
    crossings: u64,
    fifo_peak: u64,
}

impl Fabric {
    /// Routes shard `src`'s drained egress through its bridge links into
    /// the destination inboxes. Request legs route to the shard owning
    /// the address; response legs route back to the origin shard over the
    /// reverse-direction link (sharing its FIFO with requests travelling
    /// that way). Routing a shard right after its quantum is exact: a
    /// link only carries its source's crossings, and nothing is injected
    /// before every shard has run to the barrier.
    fn route(&mut self, src: usize) {
        let shards = self.inbox.len();
        for crossing in self.egress.drain(..) {
            let (dst, delivery) = match crossing.leg {
                CrossingLeg::Posted => (
                    usize::from(self.map.owner(crossing.txn.addr)),
                    Delivery::Replay {
                        txn: crossing.txn,
                        respond_to: None,
                    },
                ),
                CrossingLeg::NonPostedRead { origin } => (
                    usize::from(self.map.owner(crossing.txn.addr)),
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
            let (arrival, occupancy) =
                self.links[src * shards + dst].forward(crossing.issued_at.value());
            self.crossings += 1;
            self.fifo_peak = self.fifo_peak.max(occupancy as u64);
            self.inbox[dst].push((arrival, delivery));
        }
    }

    /// Orders every inbox for injection. Deterministic: sources were
    /// routed in shard order and crossings in local completion order, and
    /// the stable sort by release time breaks ties by
    /// [`Delivery::sort_key`].
    fn sort_inboxes(&mut self) {
        for inbox in &mut self.inbox {
            inbox.sort_by_key(|(at, delivery)| {
                let (rank, master, id) = delivery.sort_key();
                (*at, rank, master, id)
            });
        }
    }
}

/// The multi-bus AHB+ platform.
pub struct MultiSystem {
    kind: ModelKind,
    quantum: u64,
    max_cycles: u64,
    /// Adaptive lookahead: stretch the quantum past the fixed value when
    /// every shard proves no crossing can be issued before the stretched
    /// barrier. Off → the fixed schedule, byte for byte.
    lookahead: bool,
    /// Upper bound on one stretch past the fixed barrier position.
    max_stretch: u64,
    shards: Vec<ShardEngine>,
    fabric: Fabric,
    /// The synchronized barrier clock (the platform's `now`).
    barrier: u64,
    /// The committed end of the quantum in flight: every shard runs to
    /// exactly this barrier next, so bounded stepping re-enters the
    /// identical schedule a one-shot run would take.
    next_target: u64,
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
                    master: bridge_master(shard),
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
            quantum,
            max_cycles: config.max_cycles,
            lookahead: config.lookahead,
            max_stretch: config.effective_max_stretch(quantum),
            shards: engines,
            fabric: Fabric {
                map,
                links,
                egress: Vec::new(),
                inbox: (0..shards).map(|_| Vec::new()).collect(),
                crossings: 0,
                fifo_peak: 0,
            },
            barrier: 0,
            next_target: quantum.min(config.max_cycles),
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
        self.fabric.crossings
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
    /// byte-identical however the run was stepped.
    pub fn take_trace_log(&mut self) -> TraceLog {
        let mut parts: Vec<TraceLog> = self
            .shards
            .iter_mut()
            .map(ShardEngine::take_trace_log)
            .collect();
        parts.push(self.tracer.take());
        let mut log = TraceLog::merge(parts);
        log.counters.crossings = self.fabric.crossings;
        log.counters.bridge_fifo_peak = self.fabric.fifo_peak;
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
        self.advance(target.value().min(self.max_cycles));
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
    fn commit_next_target(&self, quiet: bool, bound: u64, next: u64) -> (u64, u64) {
        let fixed = (next + self.quantum).min(self.max_cycles);
        if !(self.lookahead && quiet) {
            return (fixed, 0);
        }
        let target = bound
            .saturating_add(self.quantum)
            .min(next.saturating_add(self.max_stretch))
            .min(self.max_cycles)
            .max(fixed);
        (target, target - fixed)
    }

    /// The quantum schedule: per barrier, run every shard in order and
    /// route its egress, then inject the routed deliveries. The barrier
    /// each iteration runs to was committed at the previous barrier
    /// (`next_target`), so the schedule is a pure function of the shard
    /// states and bounded stepping re-enters it exactly.
    fn advance(&mut self, end: u64) {
        if self.barrier >= end || self.is_finished() {
            return;
        }
        loop {
            let next = self.next_target;
            let mut bound = u64::MAX;
            // Each shard's completion flag is sampled after its quantum
            // and before any injection.
            let mut finished = true;
            for (index, shard) in self.shards.iter_mut().enumerate() {
                shard.run_until(next);
                shard.port_mut().drain_into(&mut self.fabric.egress);
                finished &= shard.finished();
                if self.lookahead {
                    bound = bound.min(shard.next_possible_crossing());
                }
                self.fabric.route(index);
            }
            self.fabric.sort_inboxes();
            self.barrier = next;
            self.barriers += 1;
            let quiet = self.fabric.inbox.iter().all(Vec::is_empty);
            let (target, gained) = self.commit_next_target(quiet, bound, next);
            self.next_target = target;
            self.tracer.barrier(next, target.saturating_sub(next));
            if gained > 0 {
                self.stretched += 1;
                self.cycles_gained += gained;
                self.tracer.stretch(next, gained);
            }
            for (shard, inbox) in self.shards.iter_mut().zip(&mut self.fabric.inbox) {
                for (at, delivery) in inbox.drain(..) {
                    let at = Cycle::new(at);
                    match delivery {
                        Delivery::Replay { txn, respond_to } => {
                            shard.inject_crossing(txn, at, respond_to);
                        }
                        Delivery::Response { txn } => shard.inject_response(txn.id, at),
                    }
                }
            }
            if (finished && quiet) || next >= end {
                break;
            }
        }
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
            let replayed = shard.port().replayed();
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
        aggregate.bridge_crossings = self.fabric.crossings;
        aggregate.bridge_fifo_peak = self.fabric.fifo_peak;
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
        for shard in &self.shards {
            recorder.merge(shard.recorder(), shard.port().port().master);
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
