//! The loosely-timed AHB+ bus engine.
//!
//! [`LtSystem`] runs the same deterministic traces as the other two
//! backends but advances time with *estimates*: the bus is a single
//! cursor, DRAM latency comes from a per-bank row sketch, and the write
//! buffer is a batch queue. Every trace transaction still completes with
//! its exact functional payload (count, bytes, beats, assertion
//! outcome), which is what makes the backend a drop-in [`BusModel`]: the
//! lockstep results-match check against the other models holds by
//! construction, while elapsed time carries a documented, measured error
//! (see [`crate::LT_TIMING_ERROR_BOUND_PCT`]).
//!
//! # What is and is not modeled
//!
//! | modeled approximately | dropped entirely |
//! |---|---|
//! | grant latency (idle +1, pipelined overlap) | arbitration filter chain |
//! | per-class DRAM latency (CAS/tRCD/tRP) via row sketch | bank FSM, tRAS/tRC windows, refresh |
//! | BI-hint activation hiding on bank switches | DRAM data-bus queueing |
//! | write-buffer capacity + batch drain | per-entry buffer arbitration |

use std::collections::VecDeque;
use std::time::Instant;

use amba::bridge::{BridgePort, ParkedRead, ShardPort};
use amba::check::validate_transaction;
use amba::qos::QosConfig;
use amba::txn::{Transaction, TransactionId};
use analysis::model::{BusModel, Probe};
use analysis::recorder::Recorder;
use analysis::report::{ModelKind, SimReport};
use analysis::trace::{TraceEventKind, TraceLog, Tracer, FLAG_REMOTE, FLAG_ROW_HIT, FLAG_WRITE};
use ddrc::DdrGeometry;
use simkern::time::Cycle;
use traffic::{TrafficPattern, TrafficTrace};

use crate::config::LtConfig;

/// Cycles from an idle-bus request until the granted master drives its
/// address phase (request → grant register → address), matching the other
/// backends.
const GRANT_TO_ADDRESS_CYCLES: u64 = 1;

/// Cycles from the address phase until the DDR controller sees the
/// access (the bus-side handoff the cycle-counting models pay per burst).
const ADDRESS_TO_ACCESS_CYCLES: u64 = 0;

/// Extra turnaround paid between back-to-back transactions when request
/// pipelining is disabled (idle cycle + re-arbitration).
const NON_PIPELINED_TURNAROUND: u64 = 2;

/// Per-burst latency estimates derived once from the DDR timing
/// parameters: cycles from the access until the first data beat, by
/// access class and direction.
#[derive(Debug, Clone, Copy)]
struct LatencyTable {
    read_hit: u64,
    read_miss: u64,
    read_conflict: u64,
    write_hit: u64,
    write_miss: u64,
    write_conflict: u64,
}

impl LatencyTable {
    fn new(config: &LtConfig) -> Self {
        let t = config.ddr.timing;
        let (rcd, rp) = (u64::from(t.t_rcd), u64::from(t.t_rp));
        let (cl, cwl) = (u64::from(t.cl), u64::from(t.cwl));
        LatencyTable {
            read_hit: cl,
            read_miss: rcd + cl,
            read_conflict: rp + rcd + cl,
            write_hit: cwl,
            write_miss: rcd + cwl,
            write_conflict: rp + rcd + cwl,
        }
    }
}

/// One trace-driven master port of the loosely-timed platform.
#[derive(Debug, Clone)]
struct LtMaster {
    posted: bool,
    items: TrafficTrace,
    next: usize,
    ready_at: u64,
}

impl LtMaster {
    fn new(trace: TrafficTrace, posted: bool) -> Self {
        LtMaster {
            posted,
            ready_at: trace.first_release().value(),
            items: trace,
            next: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.next >= self.items.len()
    }

    /// Advances the trace past its head, released for the next item at
    /// `done` (the head's completion or absorption time).
    fn advance(&mut self, done: u64) {
        self.next += 1;
        if let Some(item) = self.items.items().get(self.next) {
            self.ready_at = item.release.after(Cycle::new(done)).value();
        }
    }
}

/// One write absorbed by the batch write buffer, waiting to drain. The
/// full transaction is kept so a drain targeting a remote shard window
/// can be forwarded across the bridge intact.
#[derive(Debug, Clone, Copy)]
struct BacklogEntry {
    master_index: usize,
    absorbed_at: u64,
    txn: Transaction,
}

/// The loosely-timed AHB+ platform.
pub struct LtSystem {
    config: LtConfig,
    masters: Vec<LtMaster>,
    latency: LatencyTable,
    geometry: DdrGeometry,
    /// Open-row sketch: the last accessed row per bank, or `None` while
    /// the bank is untouched. This is the whole DRAM state.
    rows: Vec<Option<u32>>,
    /// Bank of the previous burst, for the BI-hint hiding estimate.
    prev_bank: Option<u8>,
    /// Data-phase length of the previous burst (cycles the hint had to
    /// hide activation behind).
    prev_data_cycles: u64,
    /// Posted writes absorbed but not yet drained onto the bus.
    backlog: VecDeque<BacklogEntry>,
    now: u64,
    /// Cycle at which the bus finishes its current burst (the single
    /// resource cursor replacing arbitration).
    bus_free_at: u64,
    last_completion: u64,
    masters_done: usize,
    traces_valid: bool,
    /// Per-master rows and bus counters; a master's slot is its index in
    /// `masters`.
    recorder: Recorder,
    // Batch write-buffer, row-sketch and assertion totals.
    wb_absorbed: u64,
    wb_drained: u64,
    wb_peak: usize,
    dram_row_hits: u64,
    dram_prepared_hits: u64,
    dram_accesses: u64,
    assertion_errors: u64,
    wall_seconds: f64,
    /// The bridge endpoint when this system is one shard of a multi-bus
    /// platform; `None` on a standalone platform.
    bridge: Option<ShardPort>,
    /// Structured event tracer (disabled by default; every record call
    /// starts with one branch on the enabled flag).
    tracer: Tracer,
}

impl std::fmt::Debug for LtSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LtSystem")
            .field("masters", &self.masters.len())
            .field("now", &self.now)
            .finish()
    }
}

impl LtSystem {
    /// Builds a platform from explicit per-master traces (same element
    /// shape as `ahb_tlm::TlmSystem::new`).
    #[must_use]
    pub fn new(config: LtConfig, masters: Vec<(TrafficTrace, String, QosConfig, bool)>) -> Self {
        LtSystem::assemble(config, masters, None)
    }

    /// Builds a platform that is one *shard* of a multi-bus system, with
    /// the AHB-to-AHB bridge port attached: remote-window transactions
    /// complete against the bridge slave (no local DRAM access) and are
    /// logged as [`amba::bridge::BridgeCrossing`]s; an extra bridge master replays the
    /// crossings delivered by [`LtSystem::inject_crossing`].
    ///
    /// # Panics
    ///
    /// Panics when the bridge master id collides with a trace master.
    #[must_use]
    pub fn with_bridge(
        config: LtConfig,
        masters: Vec<(TrafficTrace, String, QosConfig, bool)>,
        port: BridgePort,
    ) -> Self {
        LtSystem::assemble(config, masters, Some(port))
    }

    fn assemble(
        config: LtConfig,
        mut masters: Vec<(TrafficTrace, String, QosConfig, bool)>,
        port: Option<BridgePort>,
    ) -> Self {
        let bridge = port.map(|port| traffic::attach_bridge(&mut masters, port));
        let mut recorder = Recorder::new(ModelKind::LooselyTimed);
        let lt_masters: Vec<LtMaster> = masters
            .into_iter()
            .map(|(trace, label, qos, posted)| {
                recorder.register_master(trace.master(), &label, qos);
                LtMaster::new(trace, posted)
            })
            .collect();
        let traces_valid = lt_masters.iter().all(|m| {
            m.items
                .items()
                .iter()
                .all(|item| validate_transaction(&item.txn).is_ok())
        });
        let masters_done = lt_masters.iter().filter(|m| m.is_done()).count();
        let latency = LatencyTable::new(&config);
        let geometry = config.ddr.geometry;
        let banks = usize::from(geometry.banks);
        LtSystem {
            config,
            masters: lt_masters,
            latency,
            geometry,
            rows: vec![None; banks],
            prev_bank: None,
            prev_data_cycles: 0,
            backlog: VecDeque::new(),
            now: 0,
            bus_free_at: 0,
            last_completion: 0,
            masters_done,
            traces_valid,
            recorder,
            wb_absorbed: 0,
            wb_drained: 0,
            wb_peak: 0,
            dram_row_hits: 0,
            dram_prepared_hits: 0,
            dram_accesses: 0,
            assertion_errors: 0,
            wall_seconds: 0.0,
            bridge,
            tracer: Tracer::disabled(),
        }
    }

    /// Builds a platform from a named traffic pattern with the shared
    /// deterministic workload expansion (identical stimulus to the other
    /// backends for the same pattern/count/seed).
    #[must_use]
    pub fn from_pattern(
        config: LtConfig,
        pattern: &TrafficPattern,
        transactions_per_master: usize,
        seed: u64,
    ) -> Self {
        LtSystem::new(config, pattern.expand(transactions_per_master, seed))
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        Cycle::new(self.now)
    }

    /// Returns `true` once every master trace has drained and the write
    /// backlog is empty.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.masters_done == self.masters.len() && self.backlog.is_empty()
    }

    /// Enables or disables structured event tracing (off by default).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Tags this system's trace events with a shard id (used when the
    /// system is one shard of a multi-bus platform).
    pub fn set_trace_shard(&mut self, shard: u16) {
        self.tracer.set_shard(shard);
    }

    /// Takes the buffered trace events, with the header's DDR and
    /// write-backlog counters filled in from the probe.
    pub fn take_trace_log(&mut self) -> TraceLog {
        let probe = self.probe();
        self.tracer.take().with_probe_counters(&probe)
    }

    /// The bridge endpoint, when this system is one shard of a multi-bus
    /// platform.
    #[must_use]
    pub fn bridge_port(&self) -> Option<&ShardPort> {
        self.bridge.as_ref()
    }

    /// Mutable access to the bridge endpoint (the platform drains its
    /// egress log every quantum).
    pub fn bridge_port_mut(&mut self) -> Option<&mut ShardPort> {
        self.bridge.as_mut()
    }

    /// The shard's lookahead bound: [`ShardPort::next_possible_crossing`]
    /// over the batch backlog and the master heads. A parked master
    /// carries `ready_at == u64::MAX`, which keeps it out of the minimum;
    /// its in-flight response leg vetoes through the shards carrying it.
    #[must_use]
    pub fn next_possible_crossing(&self) -> Option<Cycle> {
        let bridge = self.bridge.as_ref()?;
        bridge.next_possible_crossing(
            Cycle::new(self.now),
            self.backlog.iter().map(|entry| entry.txn.addr),
            self.masters
                .iter()
                .enumerate()
                .filter(|(_, master)| !master.is_done())
                .map(|(index, master)| (index, Cycle::new(master.ready_at), master.next)),
        )
    }

    /// Delivers one bridge crossing: the transaction is queued on the
    /// bridge replay master with an absolute release at `release_at` (its
    /// arrival out of the bridge FIFO). When `respond_to` names an origin
    /// shard, a `ReadResponse` crossing carrying the original transaction
    /// is emitted once the replay completes.
    ///
    /// # Panics
    ///
    /// Panics when the system was built without a bridge port.
    pub fn inject_crossing(
        &mut self,
        source: Transaction,
        release_at: Cycle,
        respond_to: Option<u8>,
    ) {
        let bridge = self
            .bridge
            .as_mut()
            .expect("inject_crossing without a bridge port");
        let index = bridge.ingress();
        let txn = bridge.replay(source, respond_to);
        let master = &mut self.masters[index];
        let was_done = master.is_done();
        // A parked head keeps its `u64::MAX` sentinel: its release precedes
        // any arrival, so nothing lands ahead of it.
        if master.items.insert_pending(master.next, txn, release_at) == master.next {
            master.ready_at = release_at.value();
        }
        if was_done {
            self.masters_done -= 1;
        }
        // Trace the crossing's arrival out of the bridge FIFO (delivery
        // order is the scheduler's deterministic sort, so the event
        // stream is identical across scheduler modes).
        self.tracer
            .crossing(TraceEventKind::BridgeReplay, &source, release_at);
    }

    /// Delivers the response leg of a non-posted read: the master stalled
    /// on transaction `id` is retired at `arrival` with the full
    /// round-trip latency, and its trace resumes.
    ///
    /// # Panics
    ///
    /// Panics when the system was built without a bridge port or no
    /// master is stalled on `id` (a platform routing bug).
    pub fn inject_response(&mut self, id: TransactionId, arrival: Cycle) {
        let parked = self
            .bridge
            .as_mut()
            .expect("inject_response without a bridge port")
            .unpark(id);
        self.tracer.response(&parked, arrival);
        // The transfer completes now: count the work (the request leg only
        // contributed bus occupancy; the data return travels inside the
        // crossing cost, not over the local bus).
        let arrival = arrival.value();
        self.recorder.record_completion(
            parked.position,
            parked.txn.bytes(),
            parked.txn.beats(),
            parked.requested_at.value(),
            parked.granted_at.value(),
            arrival,
        );
        self.last_completion = self.last_completion.max(arrival);
        let master = &mut self.masters[parked.position];
        master.advance(arrival);
        if master.is_done() {
            self.masters_done += 1;
        }
    }

    /// Estimated bus occupancy of one burst, routed by address: a remote
    /// shard window costs the bridge slave's wait states plus the beats
    /// (the FIFO buffers the burst; no local DRAM access), everything else
    /// goes through the DRAM row sketch. Returns the cost, whether the
    /// burst left through the bridge, and whether the DRAM sketch served
    /// it from an open or hint-prepared row (always `false` for remote).
    fn transfer_cost(&mut self, txn: &Transaction) -> (u64, bool, bool) {
        if let Some(port) = self.bridge.as_ref().map(ShardPort::port) {
            if port.is_remote(txn.addr) {
                return (port.slave_cycles + u64::from(txn.beats()), true, false);
            }
        }
        let (cost, row_hit) = self.burst_cost(txn.addr, txn.is_write(), txn.beats());
        (cost, false, row_hit)
    }

    /// Estimated bus occupancy of one burst: address handoff, first-data
    /// latency from the row sketch, then one cycle per beat. Updates the
    /// sketch and the DRAM statistics. The second element reports whether
    /// the access counted as a row hit (open row or prepare hint).
    fn burst_cost(&mut self, addr: amba::ids::Addr, is_write: bool, beats: u32) -> (u64, bool) {
        let decoded = self.geometry.decode(addr);
        let bank = usize::from(decoded.bank);
        let open = self.rows[bank];
        let (mut first_data, hit) = match open {
            Some(row) if row == decoded.row => {
                let latency = if is_write {
                    self.latency.write_hit
                } else {
                    self.latency.read_hit
                };
                (latency, true)
            }
            Some(_) => {
                let latency = if is_write {
                    self.latency.write_conflict
                } else {
                    self.latency.read_conflict
                };
                (latency, false)
            }
            None => {
                let latency = if is_write {
                    self.latency.write_miss
                } else {
                    self.latency.read_miss
                };
                (latency, false)
            }
        };
        let mut row_hit = hit;
        self.dram_accesses += 1;
        if hit {
            self.dram_row_hits += 1;
        } else {
            // The BI next-transaction hint starts activating the bank of
            // the *following* burst while the current one transfers, so a
            // bank switch hides (part of) the activation behind the
            // previous data phase. The CAS component cannot be hidden.
            let cas = if is_write {
                self.latency.write_hit
            } else {
                self.latency.read_hit
            };
            let hidable = first_data - cas;
            let hints = self.config.params.bi_next_transaction_hints
                && self.config.params.request_pipelining
                && self.config.ddr.honour_prepare_hints;
            if hints && self.prev_bank.is_some() && self.prev_bank != Some(decoded.bank) {
                let hidden = hidable.min(self.prev_data_cycles);
                first_data -= hidden;
                if hidden > 0 {
                    self.dram_prepared_hits += 1;
                    row_hit = true;
                }
            }
        }
        self.rows[bank] = Some(decoded.row);
        self.prev_bank = Some(decoded.bank);
        self.prev_data_cycles = u64::from(beats);
        (
            ADDRESS_TO_ACCESS_CYCLES + first_data + u64::from(beats),
            row_hit,
        )
    }

    /// Drains the oldest backlog entry onto the bus, starting no earlier
    /// than `bus_free_at` and the entry's absorption time. Returns the
    /// drain completion cycle.
    fn drain_one(&mut self) -> u64 {
        let entry = self
            .backlog
            .pop_front()
            .expect("drain_one on empty backlog");
        let start = self.bus_free_at.max(entry.absorbed_at);
        let (cost, remote, _row_hit) = self.transfer_cost(&entry.txn);
        let completed = start + cost;
        self.bus_free_at = completed;
        self.wb_drained += 1;
        self.recorder.add_busy_cycles(cost, false);
        self.recorder.record_completion(
            entry.master_index,
            entry.txn.bytes(),
            entry.txn.beats(),
            entry.absorbed_at,
            start,
            completed,
        );
        self.last_completion = self.last_completion.max(completed);
        self.bridge_complete(&entry.txn, remote, completed);
        self.tracer.drain(
            entry.txn.master.index() as u16,
            entry.txn.id.value(),
            start,
            completed,
        );
        completed
    }

    /// Accounts a transfer that completed at `completed` with the bridge
    /// endpoint (see [`ShardPort::complete`]) and traces the crossing it
    /// issued, if any.
    fn bridge_complete(&mut self, txn: &Transaction, remote: bool, completed: u64) {
        let completed = Cycle::new(completed);
        if let Some(crossing) = self
            .bridge
            .as_mut()
            .and_then(|b| b.complete(txn, remote, completed))
        {
            self.tracer
                .crossing(TraceEventKind::BridgeEgress, &crossing.txn, completed);
        }
    }

    /// Drains backlog entries whose bus slot *starts* by `horizon`
    /// (non-preemptive: a drain that starts in time may complete past the
    /// horizon).
    fn drain_started_by(&mut self, horizon: u64) {
        while let Some(head) = self.backlog.front() {
            if self.bus_free_at.max(head.absorbed_at) > horizon {
                break;
            }
            self.drain_one();
        }
    }

    /// Serves the next event: one absorption or one bus burst. `max` is
    /// the configured cycle limit, `end` the bounded-run horizon. Returns
    /// `false` when nothing can make progress (all traces drained or past
    /// the cycle limit) or when the idle bus reached `end`.
    fn step_event(&mut self, max: u64, end: u64) -> bool {
        // The earliest-released pending request (ties to the lowest
        // master index, like the shared arbitration chain's final
        // tie-break).
        let mut next: Option<usize> = None;
        let mut ready = u64::MAX;
        for (index, master) in self.masters.iter().enumerate() {
            if !master.is_done() && master.ready_at < ready {
                ready = master.ready_at;
                next = Some(index);
            }
        }
        let Some(index) = next else {
            // Every trace has drained; the remaining backlog drains
            // back-to-back (bounded overshoot past `end` is allowed only
            // per entry, so stop once a drain would start after `end`).
            self.drain_started_by(end);
            if let Some(head) = self.backlog.front() {
                let start = self.bus_free_at.max(head.absorbed_at);
                self.now = self.now.max(end.min(start));
                return false;
            }
            self.now = self.now.max(self.last_completion.min(end));
            return false;
        };
        if ready >= max {
            // The cycle limit falls inside this idle stretch.
            self.drain_started_by(max);
            self.now = max;
            return false;
        }
        if ready > end {
            // The bounded-run horizon falls inside an idle stretch: drain
            // what the gap allows and pause exactly at `end`.
            self.drain_started_by(end);
            self.now = end;
            return false;
        }

        let item = &self.masters[index].items.items()[self.masters[index].next];
        let txn = item.txn;
        if !self.traces_valid && validate_transaction(&txn).is_err() {
            // Same functional-debug assertion the other backends raise;
            // counted so assertion outcomes stay results-identical.
            self.assertion_errors += 1;
        }
        let beats = txn.beats();
        let bytes = txn.bytes();

        let depth = self.config.params.write_buffer_depth;
        if depth > 0 && self.masters[index].posted && txn.posted_ok && txn.is_write() {
            // Materialize the drains whose bus slot starts before this
            // absorption first, so the occupancy (and its recorded peak)
            // reflects simulated time rather than how many events a
            // bounded-run horizon happened to batch together. Every event
            // with an earlier release has already been served, so nothing
            // can outrank these slots; the drain times are unchanged —
            // only their call order moves.
            self.drain_started_by(ready.saturating_sub(1));
            if self.backlog.len() >= depth {
                // Overflow protection: the buffer wins the bus and drains
                // its head before the new write is absorbed — the batch
                // equivalent of the write-buffer urgency filter.
                self.drain_one();
            }
            self.backlog.push_back(BacklogEntry {
                master_index: index,
                absorbed_at: ready,
                txn,
            });
            self.wb_absorbed += 1;
            self.wb_peak = self.wb_peak.max(self.backlog.len());
            self.tracer
                .absorb(txn.master.index() as u16, txn.id.value(), ready, ready);
            self.masters[index].advance(ready);
            if self.masters[index].is_done() {
                self.masters_done += 1;
            }
            self.now = self.now.max(ready);
            return true;
        }

        // Demand path. The buffer is the lowest-priority requester: it
        // only drains ahead of this burst through bus slots that start
        // before the demand request was raised.
        if self.bus_free_at < ready {
            self.drain_started_by(ready.saturating_sub(1));
        }
        let contended = self.bus_free_at > ready;
        let grant = if self.config.params.request_pipelining {
            (ready + GRANT_TO_ADDRESS_CYCLES).max(self.bus_free_at)
        } else {
            (ready + GRANT_TO_ADDRESS_CYCLES).max(self.bus_free_at + NON_PIPELINED_TURNAROUND)
        };

        // A non-posted read crossing stalls: only the request handshake
        // occupies the local bus; the transfer is counted when
        // `inject_response` retires it.
        let stall_cost = self
            .bridge
            .as_ref()
            .filter(|b| b.stalls(&txn) && b.port().is_remote(txn.addr))
            .map(|b| b.port().slave_cycles + 1);
        if let Some(cost) = stall_cost {
            let completed_req = grant + cost;
            self.bus_free_at = completed_req;
            self.recorder.add_busy_cycles(cost, contended);
            self.bridge_complete(&txn, true, completed_req);
            let bridge = self.bridge.as_mut().expect("stall implies a bridge");
            bridge.park(ParkedRead {
                position: index,
                txn,
                requested_at: Cycle::new(ready),
                granted_at: Cycle::new(grant),
            });
            // Parked: invisible to the release scan until the response.
            self.masters[index].ready_at = u64::MAX;
            self.now = self.now.max(completed_req);
            return true;
        }

        let (cost, remote, row_hit) = self.transfer_cost(&txn);
        let completed = grant + cost;
        self.bus_free_at = completed;
        self.recorder.add_busy_cycles(cost, contended);
        self.recorder
            .record_completion(index, bytes, beats, ready, grant, completed);
        self.last_completion = self.last_completion.max(completed);
        self.bridge_complete(&txn, remote, completed);
        let flags = if txn.is_write() { FLAG_WRITE } else { 0 }
            | if remote { FLAG_REMOTE } else { 0 }
            | if row_hit { FLAG_ROW_HIT } else { 0 };
        self.tracer.span(
            txn.master.index() as u16,
            txn.id.value(),
            ready,
            grant,
            completed,
            bytes,
            flags,
        );
        self.masters[index].advance(completed);
        if self.masters[index].is_done() {
            self.masters_done += 1;
        }
        self.now = self.now.max(completed);
        true
    }

    /// Advances the platform event by event until `now()` reaches
    /// `target`, the workload drains, or the configured cycle limit is
    /// hit, and returns the new time. Transaction-boundary overshoot
    /// rules match the transaction-level model; this is the
    /// [`BusModel::run_until`] entry point and the only simulation loop.
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        let wall_start = Instant::now();
        let max = self.config.max_cycles;
        let end = target.value().min(max);
        while !self.is_finished() && self.now < end {
            if !self.step_event(max, end) {
                break;
            }
        }
        self.wall_seconds += wall_start.elapsed().as_secs_f64();
        Cycle::new(self.now)
    }

    /// Snapshot of the observable state at the current time: the
    /// recorder's counters plus the batch write buffer, row sketch and
    /// assertion totals.
    #[must_use]
    pub fn probe(&self) -> Probe {
        Probe {
            cycle: self.last_completion.max(self.now),
            write_buffer_fill: self.backlog.len() as u64,
            write_buffer_absorbed: self.wb_absorbed,
            write_buffer_drained: self.wb_drained,
            write_buffer_peak: self.wb_peak as u64,
            dram_row_hits: self.dram_row_hits,
            dram_prepared_hits: self.dram_prepared_hits,
            dram_accesses: self.dram_accesses,
            assertion_errors: self.assertion_errors,
            ..self.recorder.probe()
        }
    }

    /// The metric report as of the current time: the recorder projected
    /// with [`LtSystem::probe`].
    #[must_use]
    pub fn report(&self) -> SimReport {
        let probe = self.probe();
        self.recorder.report(&probe, probe.cycle, self.wall_seconds)
    }

    /// The per-master rows and bus counters recorded so far.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Runs the platform until every trace has drained (or the cycle
    /// limit is hit) and returns the metric report.
    pub fn run(&mut self) -> SimReport {
        self.run_until(Cycle::MAX);
        self.report()
    }
}

impl BusModel for LtSystem {
    fn kind(&self) -> ModelKind {
        ModelKind::LooselyTimed
    }

    fn now(&self) -> Cycle {
        LtSystem::now(self)
    }

    fn finished(&self) -> bool {
        self.is_finished() || self.now >= self.config.max_cycles
    }

    fn run_until(&mut self, target: Cycle) -> Cycle {
        LtSystem::run_until(self, target)
    }

    fn probe(&self) -> Probe {
        LtSystem::probe(self)
    }

    fn report(&self) -> SimReport {
        LtSystem::report(self)
    }

    fn set_tracing(&mut self, enabled: bool) {
        LtSystem::set_tracing(self, enabled);
    }

    fn take_trace(&mut self) -> Option<TraceLog> {
        self.tracer.is_enabled().then(|| self.take_trace_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::params::AhbPlusParams;
    use simkern::time::CycleDelta;
    use traffic::{pattern_a, pattern_c, Workload};

    fn small_system(transactions: usize) -> LtSystem {
        LtSystem::from_pattern(LtConfig::default(), &pattern_a(), transactions, 7)
    }

    #[test]
    fn runs_a_pattern_to_completion() {
        let mut system = small_system(40);
        let report = system.run();
        assert!(system.is_finished(), "all traces must drain");
        assert_eq!(report.total_transactions(), 4 * 40);
        assert!(report.total_cycles > 0);
        assert_eq!(report.model, ModelKind::LooselyTimed);
    }

    #[test]
    fn functional_results_match_the_trace_payload() {
        // The LT claim in miniature: whatever the timing estimates do,
        // the completed work equals the generated workload exactly.
        let pattern = pattern_c();
        let mut expected_bytes = 0u64;
        let mut expected_beats = 0u64;
        for (id, profile) in &pattern.masters {
            let trace = Workload::new(*id, profile.clone(), 3).generate(50);
            expected_bytes += trace.total_bytes();
            expected_beats += trace.total_beats();
        }
        let mut system = LtSystem::from_pattern(LtConfig::default(), &pattern, 50, 3);
        let report = system.run();
        let probe = system.probe();
        assert_eq!(report.total_transactions(), 4 * 50);
        assert_eq!(probe.bytes, expected_bytes);
        assert_eq!(probe.data_beats, expected_beats);
        assert_eq!(probe.assertion_errors, 0);
    }

    #[test]
    fn same_seed_gives_identical_reports() {
        let a = small_system(30).run();
        let b = small_system(30).run();
        assert!(a.metrics_eq(&b));
    }

    #[test]
    fn write_heavy_pattern_exercises_the_batch_buffer() {
        let mut system = LtSystem::from_pattern(LtConfig::default(), &pattern_c(), 60, 3);
        let report = system.run();
        assert!(report.bus.write_buffer_hits > 0, "pattern C posts writes");
        assert!(report.bus.write_buffer_peak > 0);
        let probe = system.probe();
        assert_eq!(probe.write_buffer_absorbed, probe.write_buffer_drained);
        assert_eq!(probe.write_buffer_fill, 0);
    }

    #[test]
    fn disabling_the_write_buffer_removes_buffer_hits() {
        let config =
            LtConfig::default().with_params(AhbPlusParams::ahb_plus().with_write_buffer_depth(0));
        let mut system = LtSystem::from_pattern(config, &pattern_c(), 40, 3);
        let report = system.run();
        assert_eq!(report.bus.write_buffer_hits, 0);
        assert_eq!(report.total_transactions(), 4 * 40);
    }

    #[test]
    fn cycle_limit_stops_the_run() {
        let config = LtConfig::default().with_max_cycles(200);
        let mut system = LtSystem::from_pattern(config, &pattern_a(), 500, 1);
        let report = system.run();
        assert!(!system.is_finished());
        assert!(
            BusModel::finished(&system),
            "limit reached counts as finished"
        );
        assert!(report.total_cycles <= 1_000, "run must stop near the limit");
    }

    #[test]
    fn bounded_stepping_matches_one_shot_run() {
        let one_shot = small_system(40).run();
        let mut stepped = small_system(40);
        let mut guard = 0u64;
        while !BusModel::finished(&stepped) {
            stepped.step(CycleDelta::ONE);
            guard += 1;
            assert!(guard < 1_000_000, "stepping must terminate");
        }
        let report = stepped.report();
        assert!(
            one_shot.metrics_eq(&report),
            "step(1)-driven run must be metrically identical to run()"
        );
    }

    #[test]
    fn probe_tracks_progress_and_matches_the_final_report() {
        let mut system = small_system(30);
        assert_eq!(system.probe().transactions, 0);
        system.run_until(Cycle::new(2_000));
        let mid = system.probe();
        assert!(mid.transactions > 0, "mid-run probe sees progress");
        let report = system.run();
        let end = system.probe();
        assert_eq!(end.transactions, report.total_transactions());
        assert_eq!(end.bytes, report.total_bytes());
        assert_eq!(end.cycle, report.total_cycles);
        assert!(mid.transactions <= end.transactions);
    }

    #[test]
    fn report_is_idempotent_mid_run_and_after() {
        let mut system = small_system(20);
        system.run_until(Cycle::new(1_500));
        let first = system.report();
        let second = system.report();
        assert!(first.metrics_eq(&second), "snapshots must not double-count");
        let done = system.run();
        assert!(done.metrics_eq(&system.report()));
    }

    #[test]
    fn row_sketch_produces_dram_locality_stats() {
        let mut system = small_system(60);
        system.run();
        let probe = system.probe();
        assert!(probe.dram_accesses > 0);
        assert!(
            probe.dram_row_hits + probe.dram_prepared_hits > 0,
            "streaming masters must hit open rows"
        );
        assert!(probe.dram_row_hits + probe.dram_prepared_hits <= probe.dram_accesses);
    }
}
