//! The pin-accurate AHB+ platform: masters, arbiter, write buffer, decoder
//! and DDR slave wired together and stepped cycle by cycle.
//!
//! Every simulated clock cycle performs the full evaluate/commit sequence of
//! the two-step cycle-based engine: the master BFMs update their request
//! wires, the write buffer watches for posted writes losing arbitration, the
//! arbiter samples every request and drives the registered `HGRANT`, and the
//! bus sequencer advances the in-flight burst one beat (or one wait state)
//! at a time, driving `HTRANS`/`HADDR`/`HREADY` so the protocol checker can
//! watch every address phase. All of this happens whether or not anything
//! interesting occurs in a given cycle — the defining cost of signal-level
//! simulation and the baseline the transaction-level model is measured
//! against.

use std::time::Instant;

use amba::arbitration::SampledRequests;
use amba::check::ProtocolChecker;
use amba::ids::MasterId;
use amba::qos::QosConfig;
use amba::signal::{HResp, HTrans};
use amba::txn::Transaction;
use analysis::model::{BusModel, Probe};
use analysis::recorder::Recorder;
use analysis::report::{ModelKind, SimReport};
use analysis::trace::{TraceLog, Tracer, FLAG_ROW_HIT, FLAG_WRITE};
use ddrc::AccessClass;
use simkern::assertion::AssertionSink;
use simkern::component::Clocked;
use simkern::time::{Cycle, CycleDelta};
use traffic::{TrafficPattern, TrafficTrace};

use crate::arbiter::RtlArbiter;
use crate::config::RtlConfig;
use crate::ddr_slave::DdrSlave;
use crate::master::RtlMaster;
use crate::signals::{MasterPins, SharedPins};
use crate::write_buffer::{RtlWriteBuffer, RTL_WRITE_BUFFER_MASTER};

/// The burst currently occupying the bus.
#[derive(Debug, Clone)]
struct BurstInProgress {
    owner: MasterId,
    via_write_buffer: bool,
    txn: Transaction,
    issued_at: Cycle,
    addr_started: Cycle,
    /// Beats whose data phase has completed.
    beats_done: u32,
    /// Wait states left before the next data beat completes.
    wait_left: u64,
    /// Whether the DDR served this burst from an open or prepared row.
    row_hit: bool,
}

/// The pin-accurate AHB+ platform.
pub struct RtlSystem {
    config: RtlConfig,
    masters: Vec<RtlMaster>,
    /// One pin bundle per master plus one for the write buffer (last entry).
    pins: Vec<MasterPins>,
    shared: SharedPins,
    arbiter: RtlArbiter,
    /// The request wires as sampled this cycle (reused every cycle).
    sampled: SampledRequests,
    /// Arbitration slot by master position, and the write buffer's.
    slots: Vec<usize>,
    write_buffer_slot: usize,
    write_buffer: RtlWriteBuffer,
    slave: DdrSlave,
    checker: ProtocolChecker,
    assertions: AssertionSink,
    recorder: Recorder,
    burst: Option<BurstInProgress>,
    now: Cycle,
    last_completion: Cycle,
    last_bi_hint: Option<amba::ids::Addr>,
    /// Wall-clock seconds spent inside `run_until` so far (accumulated
    /// across bounded steps).
    wall_seconds: f64,
    /// Cycles fast-forwarded by idle-skip (observability: lets tests and
    /// probes confirm the skip path actually engaged).
    idle_skipped_cycles: u64,
    tracer: Tracer,
}

impl std::fmt::Debug for RtlSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlSystem")
            .field("masters", &self.masters.len())
            .field("now", &self.now)
            .finish()
    }
}

impl RtlSystem {
    /// Builds a platform from explicit per-master traces (same signature as
    /// the transaction-level system so harnesses can drive both).
    #[must_use]
    pub fn new(config: RtlConfig, masters: Vec<(TrafficTrace, String, QosConfig, bool)>) -> Self {
        let mut recorder = Recorder::new(ModelKind::PinAccurateRtl);
        let mut arbiter = RtlArbiter::new(
            config.params.arbiter.clone(),
            config.params.bi_next_transaction_hints,
        );
        let mut bfms = Vec::with_capacity(masters.len());
        for (trace, label, qos, posted) in masters {
            let bfm = RtlMaster::new(trace, &label, qos, posted);
            // The recorder slot of a master is its position.
            recorder.register_master(bfm.id(), &label, qos);
            arbiter.program_qos(bfm.id(), qos);
            bfms.push(bfm);
        }
        arbiter.program_qos(RTL_WRITE_BUFFER_MASTER, QosConfig::non_real_time(u8::MAX));
        let slot_of = |id: MasterId| arbiter.slot(id).expect("every requester is programmed");
        let slots = bfms.iter().map(|bfm| slot_of(bfm.id())).collect();
        let write_buffer_slot = slot_of(RTL_WRITE_BUFFER_MASTER);
        let pins = (0..=bfms.len()).map(|_| MasterPins::new()).collect();
        let write_buffer = RtlWriteBuffer::new(config.params.write_buffer_depth);
        let slave = DdrSlave::new(config.ddr);
        RtlSystem {
            config,
            masters: bfms,
            pins,
            shared: SharedPins::new(),
            arbiter,
            sampled: SampledRequests::new(),
            slots,
            write_buffer_slot,
            write_buffer,
            slave,
            checker: ProtocolChecker::new(),
            assertions: AssertionSink::new(),
            recorder,
            burst: None,
            now: Cycle::ZERO,
            last_completion: Cycle::ZERO,
            last_bi_hint: None,
            wall_seconds: 0.0,
            idle_skipped_cycles: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Builds a platform from a traffic pattern (mirrors
    /// `TlmSystem::from_pattern`).
    #[must_use]
    pub fn from_pattern(
        config: RtlConfig,
        pattern: &TrafficPattern,
        transactions_per_master: usize,
        seed: u64,
    ) -> Self {
        RtlSystem::new(config, pattern.expand(transactions_per_master, seed))
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The assertion sink (protocol + model checks).
    #[must_use]
    pub fn assertions(&self) -> &AssertionSink {
        &self.assertions
    }

    /// The protocol checker attached to the address phases.
    #[must_use]
    pub fn checker(&self) -> &ProtocolChecker {
        &self.checker
    }

    /// The DDR slave (for bank statistics).
    #[must_use]
    pub fn ddr(&self) -> &DdrSlave {
        &self.slave
    }

    /// The write buffer block.
    #[must_use]
    pub fn write_buffer(&self) -> &RtlWriteBuffer {
        &self.write_buffer
    }

    /// Returns `true` once every trace has drained, the write buffer is
    /// empty and no burst is in flight.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.burst.is_none()
            && !self.write_buffer.is_occupied()
            && self.masters.iter().all(RtlMaster::is_done)
    }

    /// Cycles fast-forwarded through quiescent stretches so far.
    #[must_use]
    pub fn idle_skipped_cycles(&self) -> u64 {
        self.idle_skipped_cycles
    }

    /// Whole-platform quiescence: `None` while any block is active or a
    /// wake-up is due at or before `now`; otherwise the earliest cycle at
    /// which the platform becomes active of its own accord
    /// (`Cycle::MAX` = never again, i.e. the workload has drained).
    ///
    /// Quiescence composes over the registered blocks exactly as the
    /// [`Clocked`] contract requires: no burst in flight, no grant pending
    /// in the registered `HGRANT`, the write buffer and the DDR slave
    /// quiescent ([`Clocked::is_quiescent`]), and every master idle with a
    /// release time still in the future. Between `now` and the returned
    /// cycle every `eval`/`commit` pair is a provable no-op (the arbiter's
    /// filter chain is pure and sees no candidates; the recorder observes
    /// nothing), so jumping is state-identical to stepping.
    fn quiescent_wake(&self) -> Option<Cycle> {
        if self.burst.is_some()
            || self.shared.hgrant.get().is_some()
            || !self.write_buffer.is_quiescent()
            || !self.slave.is_quiescent()
        {
            return None;
        }
        let mut wake = self.slave.wake_at().unwrap_or(Cycle::MAX);
        for master in &self.masters {
            if master.is_requesting() {
                return None;
            }
            if let Some(ready) = master.ready_at() {
                if ready <= self.now {
                    return None;
                }
                wake = wake.min(ready);
            }
        }
        Some(wake)
    }

    /// The cycle the run loop may fast-forward to, when quiescent and a
    /// finite wake-up exists (a drained platform is quiescent but has
    /// nothing to jump to — the loop's completion check handles it).
    fn idle_skip_target(&self) -> Option<Cycle> {
        match self.quiescent_wake() {
            Some(wake) if wake < Cycle::MAX => Some(wake),
            _ => None,
        }
    }

    /// Advances the platform cycle by cycle until `now()` reaches
    /// `target`, the workload drains, or the configured cycle limit is
    /// hit, and returns the new time. This is the [`BusModel::run_until`]
    /// entry point and the only simulation loop; `run` and bounded
    /// stepping share it. With [`RtlConfig::idle_skip`] enabled, fully
    /// quiescent stretches are fast-forwarded in one jump.
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        let wall_start = Instant::now();
        let end = target.min(Cycle::new(self.config.max_cycles));
        while !self.is_finished() && self.now < end {
            if self.config.idle_skip {
                if let Some(wake) = self.idle_skip_target() {
                    let jump_to = wake.min(end);
                    self.idle_skipped_cycles += jump_to.saturating_since(self.now).value();
                    self.now = jump_to;
                    if self.now >= end {
                        break;
                    }
                }
            }
            let now = self.now;
            self.eval(now);
            self.commit(now);
            self.now += CycleDelta::ONE;
        }
        self.wall_seconds += wall_start.elapsed().as_secs_f64();
        self.now
    }

    /// The metric report as of the current time: the recorder projected
    /// with [`RtlSystem::probe`].
    #[must_use]
    pub fn report(&self) -> SimReport {
        let probe = self.probe();
        self.recorder.report(&probe, probe.cycle, self.wall_seconds)
    }

    /// Snapshot of the observable state at the current time (the uniform
    /// surface behind [`BusModel::probe`]): the recorder's counters plus
    /// the totals the write buffer, DDR slave and assertion sink own.
    #[must_use]
    pub fn probe(&self) -> Probe {
        let dram = self.slave.controller().stats();
        Probe {
            cycle: self.now.value(),
            write_buffer_fill: self.write_buffer.fill() as u64,
            write_buffer_absorbed: self.write_buffer.absorbed(),
            write_buffer_drained: self.write_buffer.drained(),
            write_buffer_peak: self.write_buffer.peak_fill() as u64,
            dram_row_hits: dram.row_hits.value(),
            dram_prepared_hits: dram.prepared_hits.value(),
            dram_accesses: dram.accesses(),
            assertion_errors: self.assertions.error_count() as u64,
            assertion_warnings: self.assertions.warning_count() as u64,
            ..self.recorder.probe()
        }
    }

    /// Runs the platform to completion (or the cycle limit) and returns the
    /// metric report.
    pub fn run(&mut self) -> SimReport {
        self.run_until(Cycle::MAX);
        self.report()
    }

    // ---- per-cycle phases -------------------------------------------------

    fn phase_masters(&mut self, now: Cycle) {
        for (index, master) in self.masters.iter_mut().enumerate() {
            let requesting = master.update_request(now);
            self.pins[index].hbusreq.load(requesting);
            self.pins[index].pending_addr.load(if requesting {
                master.current().map(|t| t.addr)
            } else {
                None
            });
            if !requesting {
                self.pins[index].drive_idle();
            }
        }
        // The write buffer's request appears on the extra pin bundle.
        let buffer_index = self.masters.len();
        let occupied = self.write_buffer.is_occupied();
        self.pins[buffer_index].hbusreq.load(occupied);
        self.pins[buffer_index]
            .pending_addr
            .load(self.write_buffer.head().map(|h| h.txn.addr));
    }

    fn phase_write_buffer(&mut self, now: Cycle) {
        if !self.write_buffer.is_enabled() {
            return;
        }
        for index in 0..self.masters.len() {
            let master = &self.masters[index];
            if !master.is_requesting() || !master.posted_writes() {
                continue;
            }
            if !self.write_buffer.has_space() {
                continue;
            }
            let Some(txn) = master.current().cloned() else {
                continue;
            };
            if txn.is_write() && txn.posted_ok && self.write_buffer.absorb(&txn, now) {
                let requested_at = self.masters[index].requested_at();
                self.tracer.absorb(
                    txn.master.index() as u16,
                    txn.id.value(),
                    requested_at.value(),
                    now.value(),
                );
                self.masters[index].absorb_posted(now);
                self.pins[index].hbusreq.load(false);
                self.pins[index].pending_addr.load(None);
                self.pins[index].drive_idle();
            }
        }
    }

    fn phase_arbiter(&mut self, now: Cycle) {
        let burst_active = self.burst.is_some();
        let allow_grant = !burst_active || self.config.params.request_pipelining;
        if !allow_grant {
            self.shared.hgrant.load(None);
            return;
        }
        self.sampled.clear();
        for (master, &slot) in self.masters.iter().zip(&self.slots) {
            if master.is_requesting() {
                if let Some(txn) = master.current() {
                    self.sampled.push(slot, master.requested_at(), txn.addr);
                }
            }
        }
        // The buffer requests the bus unless its head is the burst already
        // in flight.
        let buffer_busy = self.burst.as_ref().is_some_and(|b| b.via_write_buffer);
        if !buffer_busy {
            if let Some(head) = self.write_buffer.head() {
                self.sampled.push_write_buffer(
                    self.write_buffer_slot,
                    head.absorbed_at,
                    head.txn.addr,
                    self.write_buffer.fill(),
                );
            }
        }
        match self
            .arbiter
            .decide(now, &self.sampled, self.slave.controller())
        {
            Some(decision) => {
                let previous = self.shared.hgrant.get();
                self.shared.hgrant.load(Some(decision.master));
                // Bus Interface: forward the next transaction's address so
                // the DDR controller can open its bank in advance.
                if burst_active && self.config.params.bi_next_transaction_hints {
                    let addr = self
                        .arbiter
                        .slot(decision.master)
                        .and_then(|slot| self.sampled.addr(slot));
                    if let Some(addr) = addr {
                        if previous != Some(decision.master) || self.last_bi_hint != Some(addr) {
                            self.slave.prepare(now, addr);
                            self.last_bi_hint = Some(addr);
                        }
                    }
                }
            }
            None => self.shared.hgrant.load(None),
        }
    }

    fn phase_bus(&mut self, now: Cycle) {
        let requesting_others = |masters: &[RtlMaster], owner: Option<MasterId>| {
            masters
                .iter()
                .any(|m| m.is_requesting() && Some(m.id()) != owner)
        };

        match self.burst.take() {
            None => {
                // Requests may exist while the bus is idle waiting for the
                // registered grant; that is arbitration latency, not
                // contention, so nothing is recorded for it.
                self.shared.hready.load(true);
                self.shared.hresp.load(HResp::Okay);
                if let Some(owner) = self.shared.hgrant.get() {
                    self.burst = self.start_burst(owner, now);
                }
            }
            Some(mut burst) => {
                self.recorder
                    .add_busy_cycles(1, requesting_others(&self.masters, Some(burst.owner)));
                if burst.wait_left > 0 {
                    burst.wait_left -= 1;
                    self.shared.hready.load(false);
                    self.burst = Some(burst);
                } else {
                    // One data beat completes this cycle.
                    self.shared.hready.load(true);
                    burst.beats_done += 1;
                    if burst.beats_done < burst.txn.beats() {
                        self.drive_address_phase(&burst, burst.beats_done, now);
                        self.burst = Some(burst);
                    } else {
                        self.finish_burst(&burst, now);
                        // Request pipelining: the next owner's address phase
                        // overlaps the final data beat, so a registered grant
                        // starts its burst in this same cycle.
                        if self.config.params.request_pipelining {
                            if let Some(owner) = self.shared.hgrant.get() {
                                self.burst = self.start_burst(owner, now);
                            }
                        }
                    }
                }
            }
        }
    }

    fn start_burst(&mut self, owner: MasterId, now: Cycle) -> Option<BurstInProgress> {
        let (txn, issued_at, via_write_buffer) = if owner == RTL_WRITE_BUFFER_MASTER {
            let head = self.write_buffer.head()?;
            (head.txn, head.absorbed_at, true)
        } else {
            let master = self.masters.iter_mut().find(|m| m.id() == owner)?;
            if !master.is_requesting() {
                return None;
            }
            let issued_at = master.requested_at();
            let txn = master.begin_transfer();
            (txn, issued_at, false)
        };
        self.arbiter.record_grant(owner);
        self.shared.hmaster.load(Some(owner));
        let (wait_states, timing) = self.slave.burst_start(now + CycleDelta::ONE, &txn);
        let burst = BurstInProgress {
            owner,
            via_write_buffer,
            txn,
            issued_at,
            addr_started: now,
            beats_done: 0,
            wait_left: wait_states,
            row_hit: matches!(timing.class, AccessClass::RowHit | AccessClass::PreparedHit),
        };
        self.drive_address_phase(&burst, 0, now);
        Some(burst)
    }

    fn drive_address_phase(&mut self, burst: &BurstInProgress, beat: u32, now: Cycle) {
        let pins_index = if burst.via_write_buffer {
            self.masters.len()
        } else {
            self.masters
                .iter()
                .position(|m| m.id() == burst.owner)
                .unwrap_or(self.masters.len())
        };
        let addr = burst.txn.beat_addresses().beat_addr(beat);
        let trans = if beat == 0 {
            HTrans::NonSeq
        } else {
            HTrans::Seq
        };
        let pins = &mut self.pins[pins_index];
        pins.htrans.load(trans);
        pins.haddr.load(addr);
        pins.hburst.load(burst.txn.burst.hburst());
        pins.hsize.load(burst.txn.size);
        pins.hwrite.load(burst.txn.is_write());
        if self.config.protocol_checks {
            self.checker.observe_address_phase(
                now,
                burst.owner,
                trans,
                addr,
                burst.txn.burst.hburst(),
                burst.txn.size,
                &mut self.assertions,
            );
        }
    }

    fn finish_burst(&mut self, burst: &BurstInProgress, now: Cycle) {
        // A drain is recorded against the master that posted the write.
        let slot = self
            .masters
            .iter()
            .position(|m| m.id() == burst.txn.master)
            .expect("every burst belongs to a registered master");
        self.recorder.record_completion(
            slot,
            burst.txn.bytes(),
            burst.txn.beats(),
            burst.issued_at.value(),
            burst.addr_started.value(),
            now.value(),
        );
        self.last_completion = self.last_completion.max(now);
        if burst.via_write_buffer {
            self.tracer.drain(
                burst.txn.master.index() as u16,
                burst.txn.id.value(),
                burst.addr_started.value(),
                now.value(),
            );
        } else {
            let flags = if burst.txn.is_write() { FLAG_WRITE } else { 0 }
                | if burst.row_hit { FLAG_ROW_HIT } else { 0 };
            self.tracer.span(
                burst.txn.master.index() as u16,
                burst.txn.id.value(),
                burst.issued_at.value(),
                burst.addr_started.value(),
                now.value(),
                burst.txn.bytes(),
                flags,
            );
        }
        if burst.via_write_buffer {
            self.write_buffer.drain_head();
        } else {
            self.masters[slot].finish_transfer(now);
        }
        self.shared.hmaster.load(None);
    }

    /// Enables or disables transaction-lifecycle tracing.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Tags this system's trace events with a shard id (used when the
    /// platform runs as one shard of a multi-bus system).
    pub fn set_trace_shard(&mut self, shard: u16) {
        self.tracer.set_shard(shard);
    }

    /// Drains the accumulated trace log, with the header's DDR and
    /// write-buffer counters filled in from the probe.
    pub fn take_trace_log(&mut self) -> TraceLog {
        let probe = self.probe();
        self.tracer.take().with_probe_counters(&probe)
    }
}

impl Clocked for RtlSystem {
    fn eval(&mut self, now: Cycle) {
        self.phase_masters(now);
        self.phase_write_buffer(now);
        self.phase_arbiter(now);
        self.phase_bus(now);
    }

    fn commit(&mut self, _now: Cycle) {
        for pins in &mut self.pins {
            pins.commit();
        }
        self.shared.commit();
    }

    fn name(&self) -> &str {
        "ahb-plus-rtl"
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent_wake().is_some()
    }

    fn wake_at(&self) -> Option<Cycle> {
        // `Cycle::MAX` means the platform never wakes of its own accord
        // (drained) — the contract's `None`.
        self.quiescent_wake().filter(|wake| *wake < Cycle::MAX)
    }
}

impl BusModel for RtlSystem {
    fn kind(&self) -> ModelKind {
        ModelKind::PinAccurateRtl
    }

    fn now(&self) -> Cycle {
        RtlSystem::now(self)
    }

    fn finished(&self) -> bool {
        self.is_finished() || self.now >= Cycle::new(self.config.max_cycles)
    }

    fn run_until(&mut self, target: Cycle) -> Cycle {
        RtlSystem::run_until(self, target)
    }

    fn probe(&self) -> Probe {
        RtlSystem::probe(self)
    }

    fn report(&self) -> SimReport {
        RtlSystem::report(self)
    }

    fn set_tracing(&mut self, enabled: bool) {
        RtlSystem::set_tracing(self, enabled);
    }

    fn take_trace(&mut self) -> Option<TraceLog> {
        self.tracer.is_enabled().then(|| self.take_trace_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::params::AhbPlusParams;
    use traffic::{pattern_a, pattern_c, MasterProfile, Workload};

    fn small_system(transactions: usize) -> RtlSystem {
        RtlSystem::from_pattern(RtlConfig::default(), &pattern_a(), transactions, 7)
    }

    #[test]
    fn runs_a_pattern_to_completion() {
        let mut system = small_system(25);
        let report = system.run();
        assert!(system.is_finished());
        assert_eq!(report.total_transactions(), 4 * 25);
        assert!(report.total_cycles > 0);
        assert!(system.assertions().is_clean(), "no protocol violations");
        assert!(system.checker().observed_beats() > 0);
    }

    #[test]
    fn report_contains_all_masters_with_positive_latency() {
        let mut system = small_system(15);
        let report = system.run();
        assert_eq!(report.masters.len(), 4);
        for metrics in report.masters.values() {
            assert_eq!(metrics.completed, 15);
            assert!(metrics.avg_latency > 0.0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small_system(20).run();
        let b = small_system(20).run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.bus.busy_cycles, b.bus.busy_cycles);
    }

    #[test]
    fn tracing_captures_every_completion() {
        let mut system = small_system(10);
        system.set_tracing(true);
        let report = system.run();
        let log = system.take_trace_log();
        let spans = log.events.iter().filter(|e| !e.kind.is_scheduler()).count();
        assert!(spans as u64 >= report.total_transactions());
        assert!(log.counters.dram_accesses > 0);
        for event in &log.events {
            assert!(event.start <= event.grant && event.grant <= event.cycle);
        }
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut system = small_system(10);
        system.run();
        let log = system.take_trace_log();
        assert!(log.events.is_empty());
    }

    #[test]
    fn write_heavy_pattern_uses_the_write_buffer() {
        let mut system = RtlSystem::from_pattern(RtlConfig::default(), &pattern_c(), 40, 3);
        let report = system.run();
        assert!(report.bus.write_buffer_hits > 0);
        assert!(system.write_buffer().absorbed() > 0);
    }

    #[test]
    fn disabling_the_write_buffer_removes_buffer_traffic() {
        let config =
            RtlConfig::default().with_params(AhbPlusParams::ahb_plus().with_write_buffer_depth(0));
        let mut system = RtlSystem::from_pattern(config, &pattern_c(), 30, 3);
        let report = system.run();
        assert_eq!(report.bus.write_buffer_hits, 0);
    }

    #[test]
    fn utilization_is_sane_and_cycle_limit_is_respected() {
        let config = RtlConfig::default().with_max_cycles(500);
        let mut system = RtlSystem::from_pattern(config, &pattern_a(), 1_000, 1);
        let report = system.run();
        assert!(report.total_cycles <= 500);
        let utilization = report.bus.utilization(report.total_cycles);
        assert!(utilization > 0.0 && utilization <= 1.0);
    }

    #[test]
    fn single_master_platform_runs() {
        let profile = MasterProfile::dma_stream();
        let trace = Workload::new(MasterId::new(0), profile.clone(), 5).generate(60);
        let mut system = RtlSystem::new(
            RtlConfig::default(),
            vec![(
                trace,
                "dma".to_owned(),
                profile.qos_config(),
                profile.posted_writes,
            )],
        );
        let report = system.run();
        assert_eq!(report.total_transactions(), 60);
    }

    #[test]
    fn bi_hints_generate_prepared_hits() {
        let mut with_hints = RtlSystem::from_pattern(RtlConfig::default(), &pattern_a(), 60, 9);
        with_hints.run();
        let hinted = with_hints.ddr().controller().stats().prepared_hits.value();

        let config =
            RtlConfig::default().with_params(AhbPlusParams::ahb_plus().with_bi_hints(false));
        let mut without_hints = RtlSystem::from_pattern(config, &pattern_a(), 60, 9);
        without_hints.run();
        let unhinted = without_hints
            .ddr()
            .controller()
            .stats()
            .prepared_hits
            .value();

        assert!(hinted > 0);
        assert_eq!(unhinted, 0);
    }

    #[test]
    fn idle_skip_reports_are_bit_identical_to_full_stepping() {
        // The idle-skip contract (`Clocked::is_quiescent`/`wake_at`): for
        // every catalogue pattern, fast-forwarding quiescent stretches
        // must produce a metrically identical report to stepping through
        // every cycle — and on gap-heavy traffic it must actually skip.
        for pattern in [pattern_a(), pattern_c()] {
            let name = pattern.name;
            let mut skipping =
                RtlSystem::from_pattern(RtlConfig::default().with_idle_skip(true), &pattern, 30, 7);
            let mut stepping = RtlSystem::from_pattern(
                RtlConfig::default().with_idle_skip(false),
                &pattern,
                30,
                7,
            );
            let fast = skipping.run();
            let slow = stepping.run();
            assert!(
                fast.metrics_eq(&slow),
                "{name}: idle-skip must not change any metric"
            );
            assert_eq!(stepping.idle_skipped_cycles(), 0);
        }
        // A sparse single-master workload has long quiescent stretches.
        let profile = MasterProfile::video_realtime();
        let trace = Workload::new(MasterId::new(0), profile.clone(), 3).generate(40);
        let build = |idle_skip: bool| {
            RtlSystem::new(
                RtlConfig::default().with_idle_skip(idle_skip),
                vec![(
                    trace.clone(),
                    "video".to_owned(),
                    profile.qos_config(),
                    profile.posted_writes,
                )],
            )
        };
        let mut skipping = build(true);
        let mut stepping = build(false);
        let fast = skipping.run();
        let slow = stepping.run();
        assert!(fast.metrics_eq(&slow));
        assert!(
            skipping.idle_skipped_cycles() > 0,
            "sparse traffic must exercise the skip path"
        );
    }

    #[test]
    fn bounded_stepping_matches_one_shot_run() {
        let one_shot = small_system(15).run();
        let mut stepped = small_system(15);
        while !BusModel::finished(&stepped) {
            stepped.step(CycleDelta::new(1));
        }
        let report = stepped.report();
        assert!(one_shot.metrics_eq(&report));
    }

    #[test]
    fn drained_system_is_quiescent_with_no_wakeup() {
        // Clocked contract: a finished platform's eval/commit are no-ops
        // forever, so it must report quiescent with wake_at = None (not
        // "never quiescent") — otherwise a run loop composing it with other
        // components could never fast-forward past it again.
        let mut system = small_system(5);
        system.run();
        assert!(system.is_finished());
        assert!(Clocked::is_quiescent(&system));
        assert!(Clocked::wake_at(&system).is_none());
    }

    #[test]
    fn probe_matches_the_final_report() {
        let mut system = small_system(15);
        let report = system.run();
        let probe = system.probe();
        assert_eq!(probe.transactions, report.total_transactions());
        assert_eq!(probe.bytes, report.total_bytes());
        assert_eq!(probe.busy_cycles, report.bus.busy_cycles);
        assert_eq!(probe.cycle, report.total_cycles);
        assert_eq!(probe.assertion_errors, 0);
    }

    #[test]
    fn rtl_is_slower_per_simulated_cycle_than_it_is_small() {
        // Sanity: the model actually advances cycle by cycle — simulated
        // cycles must exceed the number of transactions by a wide margin.
        let mut system = small_system(20);
        let report = system.run();
        assert!(report.total_cycles > report.total_transactions() * 5);
    }
}
