//! The counter core every backend fills while running.
//!
//! The paper builds "bus and master port profiling features in
//! transaction-level ports and some internal functions such as arbiter,
//! write buffer and so on" (§3.6). [`Recorder`] holds the part of that
//! profiling only the bus loop knows: per-master completion rows plus the
//! bus-level work and occupancy counters. Everything a component owns —
//! write-buffer occupancy, DRAM access classes, assertion counts, bridge
//! traffic — stays in the component and reaches the observation surface
//! through the backend's [`Probe`]. A [`SimReport`] is a projection of the
//! two ([`Recorder::report`]), so the report and the probe can never
//! disagree on a counter they share.

use std::collections::BTreeMap;

use amba::ids::MasterId;
use amba::qos::QosConfig;

use crate::model::Probe;
use crate::report::{BusMetrics, MasterMetrics, ModelKind, SimReport};

/// One master's integer accumulators, averaged only when a report is
/// built.
#[derive(Debug, Clone)]
struct MasterRow {
    id: MasterId,
    label: String,
    /// Grant-latency objective in cycles; `u64::MAX` for a master that is
    /// not real-time (it can never violate).
    objective: u64,
    completed: u64,
    bytes: u64,
    last_completion: u64,
    latency_sum: u64,
    latency_max: u64,
    grant_latency_sum: u64,
    qos_violations: u64,
}

/// Per-master rows and bus-level counters of one bus (or, merged, of a
/// multi-bus platform).
#[derive(Debug, Clone)]
pub struct Recorder {
    model: ModelKind,
    /// Dense, in registration order: a master's slot is its index here.
    rows: Vec<MasterRow>,
    transactions: u64,
    bytes: u64,
    data_beats: u64,
    busy_cycles: u64,
    contention_cycles: u64,
}

impl Recorder {
    /// Creates an empty recorder for the given model.
    #[must_use]
    pub fn new(model: ModelKind) -> Self {
        Recorder {
            model,
            rows: Vec::new(),
            transactions: 0,
            bytes: 0,
            data_beats: 0,
            busy_cycles: 0,
            contention_cycles: 0,
        }
    }

    /// Declares a master with its QoS programming and returns its slot,
    /// the index [`Recorder::record_completion`] takes. Slots are handed
    /// out densely in registration order, so a backend that registers its
    /// masters in port order uses its port index as the slot. A registered
    /// master appears in the report even if it never completes anything.
    pub fn register_master(&mut self, master: MasterId, label: &str, qos: QosConfig) -> usize {
        self.rows.push(MasterRow {
            id: master,
            label: label.to_owned(),
            objective: if qos.class.is_real_time() {
                u64::from(qos.objective_cycles)
            } else {
                u64::MAX
            },
            completed: 0,
            bytes: 0,
            last_completion: 0,
            latency_sum: 0,
            latency_max: 0,
            grant_latency_sum: 0,
            qos_violations: 0,
        });
        self.rows.len() - 1
    }

    /// Records one completed transaction of the master in `slot`: issued
    /// (requested) at `issued_at`, granted at `granted_at`, retired at
    /// `completed_at`.
    #[inline]
    pub fn record_completion(
        &mut self,
        slot: usize,
        bytes: u32,
        beats: u32,
        issued_at: u64,
        granted_at: u64,
        completed_at: u64,
    ) {
        let latency = completed_at.saturating_sub(issued_at);
        let grant_latency = granted_at.saturating_sub(issued_at);
        let row = &mut self.rows[slot];
        row.completed += 1;
        row.bytes += u64::from(bytes);
        row.last_completion = row.last_completion.max(completed_at);
        row.latency_sum += latency;
        row.latency_max = row.latency_max.max(latency);
        row.grant_latency_sum += grant_latency;
        if grant_latency > row.objective {
            row.qos_violations += 1;
        }
        self.transactions += 1;
        self.bytes += u64::from(bytes);
        self.data_beats += u64::from(beats);
    }

    /// Adds `cycles` of bus data-transfer activity; `contended` when at
    /// least one other request waited while the bus served this one.
    #[inline]
    pub fn add_busy_cycles(&mut self, cycles: u64, contended: bool) {
        self.busy_cycles += cycles;
        if contended {
            self.contention_cycles += cycles;
        }
    }

    /// The recorder's share of a probe: transactions, bytes, data beats
    /// and busy cycles, every other field zero. A backend fills the rest
    /// from its components.
    #[must_use]
    pub fn probe(&self) -> Probe {
        Probe {
            transactions: self.transactions,
            bytes: self.bytes,
            data_beats: self.data_beats,
            busy_cycles: self.busy_cycles,
            ..Probe::default()
        }
    }

    /// Adds the rows and counters of `other` (one shard of a multi-bus
    /// platform) to this recorder, leaving out the row of `skip` (the
    /// shard's bridge replay port, which is internal plumbing).
    ///
    /// # Panics
    ///
    /// Panics when a master of `other` is already present (two shards
    /// share a master identifier).
    pub fn merge(&mut self, other: &Recorder, skip: MasterId) {
        for row in other.rows.iter().filter(|row| row.id != skip) {
            assert!(
                self.rows.iter().all(|mine| mine.id != row.id),
                "master {} appears on more than one shard",
                row.id
            );
            self.rows.push(row.clone());
        }
        self.transactions += other.transactions;
        self.bytes += other.bytes;
        self.data_beats += other.data_beats;
        self.busy_cycles += other.busy_cycles;
        self.contention_cycles += other.contention_cycles;
    }

    /// Projects the recorder and the backend's `probe` into a
    /// [`SimReport`]. The per-master rows and the contention cycles come
    /// from the recorder; every other bus counter is read off the probe,
    /// which is the one place a backend publishes its totals.
    #[must_use]
    pub fn report(&self, probe: &Probe, total_cycles: u64, wall_seconds: f64) -> SimReport {
        let masters: BTreeMap<MasterId, MasterMetrics> = self
            .rows
            .iter()
            .map(|row| {
                let completed = row.completed.max(1) as f64;
                let metrics = MasterMetrics {
                    label: row.label.clone(),
                    completed: row.completed,
                    bytes: row.bytes,
                    last_completion_cycle: row.last_completion,
                    avg_latency: row.latency_sum as f64 / completed,
                    max_latency: row.latency_max as f64,
                    avg_grant_latency: row.grant_latency_sum as f64 / completed,
                    qos_violations: row.qos_violations,
                };
                (row.id, metrics)
            })
            .collect();
        SimReport {
            model: self.model,
            total_cycles,
            wall_seconds,
            masters,
            bus: BusMetrics {
                busy_cycles: probe.busy_cycles,
                contention_cycles: self.contention_cycles,
                transactions: probe.transactions,
                data_beats: probe.data_beats,
                write_buffer_hits: probe.write_buffer_drained,
                write_buffer_peak: probe.write_buffer_peak,
                dram_row_hits: probe.dram_row_hits + probe.dram_prepared_hits,
                dram_accesses: probe.dram_accesses,
                assertion_errors: probe.assertion_errors,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with the cpu (slot 0, best effort) and video (slot 1,
    /// real-time with a 10-cycle objective) masters.
    fn two_masters() -> Recorder {
        let mut r = Recorder::new(ModelKind::TransactionLevel);
        assert_eq!(
            r.register_master(MasterId::new(0), "cpu", QosConfig::non_real_time(1)),
            0
        );
        assert_eq!(
            r.register_master(MasterId::new(1), "video", QosConfig::real_time(10, 0)),
            1
        );
        r
    }

    #[test]
    fn completions_accumulate_per_master() {
        let mut r = two_masters();
        r.record_completion(0, 32, 8, 0, 5, 20);
        r.record_completion(0, 16, 4, 10, 12, 40);
        r.record_completion(1, 64, 16, 0, 2, 30);
        let probe = r.probe();
        assert_eq!(probe.transactions, 3);
        assert_eq!(probe.bytes, 112);
        assert_eq!(probe.data_beats, 28);
        let report = r.report(&probe, 100, 0.001);
        assert_eq!(report.masters.len(), 2);
        let cpu = &report.masters[&MasterId::new(0)];
        assert_eq!(cpu.completed, 2);
        assert_eq!(cpu.bytes, 48);
        assert_eq!(cpu.last_completion_cycle, 40);
        assert!((cpu.avg_latency - 25.0).abs() < 1e-9);
        assert!((cpu.max_latency - 30.0).abs() < 1e-9);
        assert!((cpu.avg_grant_latency - 3.5).abs() < 1e-9);
    }

    #[test]
    fn qos_violations_are_counted_against_registered_objectives() {
        let mut r = two_masters();
        // Grant latency 5: fine. Grant latency 30: violation. The
        // best-effort master never violates.
        r.record_completion(1, 64, 16, 0, 5, 20);
        r.record_completion(1, 64, 16, 100, 130, 150);
        r.record_completion(0, 64, 16, 100, 900, 950);
        let report = r.report(&r.probe(), 200, 0.001);
        assert_eq!(report.masters[&MasterId::new(1)].qos_violations, 1);
        assert_eq!(report.masters[&MasterId::new(0)].qos_violations, 0);
    }

    #[test]
    fn the_report_projects_component_totals_from_the_probe() {
        let mut r = two_masters();
        r.add_busy_cycles(60, false);
        r.add_busy_cycles(12, true);
        r.record_completion(0, 32, 8, 0, 0, 9);
        let probe = Probe {
            write_buffer_drained: 3,
            write_buffer_peak: 5,
            dram_row_hits: 7,
            dram_prepared_hits: 2,
            dram_accesses: 10,
            assertion_errors: 1,
            ..r.probe()
        };
        assert_eq!(probe.busy_cycles, 72);
        let report = r.report(&probe, 100, 0.5);
        assert_eq!(report.bus.busy_cycles, 72);
        assert_eq!(report.bus.contention_cycles, 12);
        assert_eq!(report.bus.transactions, 1);
        assert_eq!(report.bus.data_beats, 8);
        assert_eq!(report.bus.write_buffer_hits, 3);
        assert_eq!(report.bus.write_buffer_peak, 5);
        assert_eq!(report.bus.dram_row_hits, 9, "row plus prepared hits");
        assert_eq!(report.bus.dram_accesses, 10);
        assert_eq!(report.bus.assertion_errors, 1);
        assert_eq!(report, r.report(&probe, 100, 0.5), "reports are pure");
    }

    #[test]
    fn registered_but_idle_masters_appear_in_the_report() {
        let mut r = Recorder::new(ModelKind::PinAccurateRtl);
        r.register_master(MasterId::new(3), "writer", QosConfig::non_real_time(0));
        let report = r.report(&r.probe(), 10, 0.0);
        let writer = &report.masters[&MasterId::new(3)];
        assert_eq!(writer.completed, 0);
        assert_eq!(writer.label, "writer");
        assert_eq!(writer.avg_latency, 0.0);
    }

    #[test]
    fn merge_skips_the_bridge_port_and_sums_counters() {
        let mut shard = two_masters();
        let bridge =
            shard.register_master(MasterId::new(255), "bridge", QosConfig::non_real_time(254));
        shard.record_completion(bridge, 32, 8, 0, 1, 9);
        shard.add_busy_cycles(9, true);
        let mut merged = Recorder::new(ModelKind::ShardedTlm);
        merged.merge(&shard, MasterId::new(255));
        assert_eq!(merged.probe(), shard.probe());
        let report = merged.report(&merged.probe(), 9, 0.0);
        assert_eq!(report.masters.len(), 2, "bridge row left out");
        assert_eq!(report.bus.contention_cycles, 9);
        assert_eq!(report.model, ModelKind::ShardedTlm);
    }

    #[test]
    #[should_panic(expected = "more than one shard")]
    fn merge_rejects_a_master_on_two_shards() {
        let shard = two_masters();
        let mut merged = Recorder::new(ModelKind::ShardedTlm);
        merged.merge(&shard, MasterId::new(255));
        merged.merge(&shard, MasterId::new(255));
    }
}
