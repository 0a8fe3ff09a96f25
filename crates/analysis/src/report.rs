//! Per-run simulation reports.
//!
//! A [`SimReport`] is the common output schema of both bus models. It holds
//! one [`MasterMetrics`] row per master plus bus-level [`BusMetrics`], and
//! the wall-clock accounting needed for the speed comparison. Because both
//! models emit the same schema, the accuracy comparison is a pure function
//! of two reports.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use amba::ids::MasterId;

/// Which backend produced a report: the label a built model stamps on its
/// [`SimReport`]. The list of runnable models is the `ahbplus` model
/// registry, not this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The pin-accurate, cycle-level reference model (`ahb-rtl`).
    PinAccurateRtl,
    /// The transaction-level model (`ahb-tlm`).
    TransactionLevel,
    /// The loosely-timed model (`ahb-lt`): exact functional results,
    /// per-burst latency estimates instead of a bank state machine.
    LooselyTimed,
    /// The multi-bus platform (`ahb-multi`) with transaction-level shards:
    /// N independent AHB+ buses connected by AHB-to-AHB bridges, each
    /// shard an `ahb-tlm` instance.
    ShardedTlm,
    /// The transaction-level multi-bus platform running under the
    /// adaptive-lookahead scheduler: quantum barriers are stretched past
    /// the fixed conservative value whenever every shard proves no
    /// crossing can be issued before the stretched barrier. Results are
    /// identical to [`ModelKind::ShardedTlm`]; only the wall-clock cost
    /// of synchronization differs.
    ShardedTlmLa,
    /// The multi-bus platform with transaction-level shards and a
    /// *non-uniform* window map: an explicit per-window owner table
    /// (skewed ownership) instead of the round-robin interleave.
    ShardedSkew,
    /// The multi-bus platform with transaction-level shards and
    /// **non-posted read crossings**: a remote read stalls its master
    /// until the response leg crosses back, so bridges carry traffic in
    /// both directions.
    ShardedTlmReads,
    /// The multi-bus platform with loosely-timed shards.
    ShardedLt,
    /// The heterogeneous multi-bus platform: shards mix backends
    /// (cycle-accurate `tlm` where fidelity matters, loosely-timed `lt`
    /// where speed does) behind the same bridge fabric.
    ShardedHet,
}

impl ModelKind {
    /// Short machine-readable identifier (`"rtl"` / `"tlm"` / `"lt"` /
    /// `"sharded-tlm"` / ...): what `BusModel::model_name` reports, and the
    /// registry name of the spectrum entry that builds this backend.
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            ModelKind::PinAccurateRtl => "rtl",
            ModelKind::TransactionLevel => "tlm",
            ModelKind::LooselyTimed => "lt",
            ModelKind::ShardedTlm => "sharded-tlm",
            ModelKind::ShardedTlmLa => "sharded-tlm-la",
            ModelKind::ShardedSkew => "sharded-skew",
            ModelKind::ShardedTlmReads => "sharded-tlm-reads",
            ModelKind::ShardedLt => "sharded-lt",
            ModelKind::ShardedHet => "sharded-het",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::PinAccurateRtl => write!(f, "RTL"),
            ModelKind::TransactionLevel => write!(f, "TL"),
            ModelKind::LooselyTimed => write!(f, "LT"),
            ModelKind::ShardedTlm => write!(f, "S-TL"),
            ModelKind::ShardedTlmLa => write!(f, "S-TL-LA"),
            ModelKind::ShardedSkew => write!(f, "S-SK"),
            ModelKind::ShardedTlmReads => write!(f, "S-TL-R"),
            ModelKind::ShardedLt => write!(f, "S-LT"),
            ModelKind::ShardedHet => write!(f, "S-HET"),
        }
    }
}

/// Metrics collected for one master.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterMetrics {
    /// Human-readable master label ("cpu", "video", ...).
    pub label: String,
    /// Number of completed transactions.
    pub completed: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Cycle at which the master's last transaction completed.
    pub last_completion_cycle: u64,
    /// Average request-to-completion latency in cycles.
    pub avg_latency: f64,
    /// Worst-case request-to-completion latency in cycles.
    pub max_latency: f64,
    /// Average request-to-grant latency in cycles.
    pub avg_grant_latency: f64,
    /// Number of transactions whose grant latency exceeded the master's QoS
    /// objective.
    pub qos_violations: u64,
}

impl MasterMetrics {
    /// Creates an empty row with the given label.
    #[must_use]
    pub fn empty(label: &str) -> Self {
        MasterMetrics {
            label: label.to_owned(),
            completed: 0,
            bytes: 0,
            last_completion_cycle: 0,
            avg_latency: 0.0,
            max_latency: 0.0,
            avg_grant_latency: 0.0,
            qos_violations: 0,
        }
    }

    /// Effective throughput in bytes per kilo-cycle.
    #[must_use]
    pub fn bytes_per_kcycle(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.bytes as f64 / (total_cycles as f64 / 1000.0)
    }
}

/// Bus-level metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BusMetrics {
    /// Cycles in which the bus was transferring data.
    pub busy_cycles: u64,
    /// Cycles in which at least one request was waiting while the bus served
    /// another master (contention).
    pub contention_cycles: u64,
    /// Completed transactions across all masters.
    pub transactions: u64,
    /// Data beats transferred across all masters.
    pub data_beats: u64,
    /// Transactions that were served out of the write buffer.
    pub write_buffer_hits: u64,
    /// Peak write-buffer occupancy observed.
    pub write_buffer_peak: u64,
    /// DRAM row hits + prepared hits (bank interleaving effectiveness).
    pub dram_row_hits: u64,
    /// Total DRAM accesses.
    pub dram_accesses: u64,
    /// Protocol / model assertion errors recorded during the run.
    pub assertion_errors: u64,
}

impl BusMetrics {
    /// Bus utilization in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        (self.busy_cycles as f64 / total_cycles as f64).min(1.0)
    }

    /// DRAM row-hit rate in `[0, 1]`.
    #[must_use]
    pub fn dram_hit_rate(&self) -> f64 {
        if self.dram_accesses == 0 {
            return 0.0;
        }
        self.dram_row_hits as f64 / self.dram_accesses as f64
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Which model produced the report.
    pub model: ModelKind,
    /// Simulated bus cycles executed.
    pub total_cycles: u64,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Per-master metric rows, keyed by master id.
    pub masters: BTreeMap<MasterId, MasterMetrics>,
    /// Bus-level metrics.
    pub bus: BusMetrics,
}

impl SimReport {
    /// Simulation throughput in kilo-cycles per second (the paper's speed
    /// metric).
    #[must_use]
    pub fn kcycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return f64::INFINITY;
        }
        (self.total_cycles as f64 / 1000.0) / self.wall_seconds
    }

    /// Total completed transactions.
    #[must_use]
    pub fn total_transactions(&self) -> u64 {
        self.masters.values().map(|m| m.completed).sum()
    }

    /// Total bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.masters.values().map(|m| m.bytes).sum()
    }

    /// Cycle at which the last transaction of any master completed — the
    /// per-pattern "completion time" metric of Table 1.
    #[must_use]
    pub fn last_completion_cycle(&self) -> u64 {
        self.masters
            .values()
            .map(|m| m.last_completion_cycle)
            .max()
            .unwrap_or(0)
    }

    /// Whether two reports carry identical simulation metrics — every
    /// field except the wall-clock time, which depends on the host, not
    /// the model. This is the equality the determinism and idle-skip
    /// guarantees are stated in: "bit-identical reports" means
    /// `metrics_eq`, not `==`.
    #[must_use]
    pub fn metrics_eq(&self, other: &SimReport) -> bool {
        self.model == other.model
            && self.total_cycles == other.total_cycles
            && self.masters == other.masters
            && self.bus == other.bus
    }

    /// Renders the report as a human-readable table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} model: {} cycles in {:.3} s ({:.1} Kcycles/s)",
            self.model,
            self.total_cycles,
            self.wall_seconds,
            self.kcycles_per_second()
        );
        let _ = writeln!(
            out,
            "bus utilization {:.1}%  contention {} cycles  dram hit rate {:.1}%  wbuf hits {}",
            self.bus.utilization(self.total_cycles) * 100.0,
            self.bus.contention_cycles,
            self.bus.dram_hit_rate() * 100.0,
            self.bus.write_buffer_hits
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
            "master", "txns", "bytes", "avg lat", "max lat", "avg grant", "qos-viol"
        );
        for (id, m) in &self.masters {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>12} {:>12.1} {:>12.1} {:>12.1} {:>8}",
                format!("{id} {}", m.label),
                m.completed,
                m.bytes,
                m.avg_latency,
                m.max_latency,
                m.avg_grant_latency,
                m.qos_violations
            );
        }
        out
    }

    /// Renders the report as CSV (one row per master).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "model,master,label,completed,bytes,avg_latency,max_latency,avg_grant_latency,qos_violations\n",
        );
        for (id, m) in &self.masters {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.3},{:.3},{:.3},{}",
                self.model,
                id,
                m.label,
                m.completed,
                m.bytes,
                m.avg_latency,
                m.max_latency,
                m.avg_grant_latency,
                m.qos_violations
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        let mut masters = BTreeMap::new();
        masters.insert(
            MasterId::new(0),
            MasterMetrics {
                label: "cpu".into(),
                completed: 100,
                bytes: 6400,
                last_completion_cycle: 9_000,
                avg_latency: 25.0,
                max_latency: 80.0,
                avg_grant_latency: 4.0,
                qos_violations: 0,
            },
        );
        masters.insert(
            MasterId::new(1),
            MasterMetrics {
                label: "video".into(),
                completed: 50,
                bytes: 3200,
                last_completion_cycle: 9_500,
                avg_latency: 40.0,
                max_latency: 120.0,
                avg_grant_latency: 6.0,
                qos_violations: 2,
            },
        );
        SimReport {
            model: ModelKind::TransactionLevel,
            total_cycles: 10_000,
            wall_seconds: 0.05,
            masters,
            bus: BusMetrics {
                busy_cycles: 6_000,
                contention_cycles: 1_500,
                transactions: 150,
                data_beats: 2_400,
                write_buffer_hits: 30,
                write_buffer_peak: 4,
                dram_row_hits: 90,
                dram_accesses: 150,
                assertion_errors: 0,
            },
        }
    }

    #[test]
    fn aggregates_sum_over_masters() {
        let report = sample_report();
        assert_eq!(report.total_transactions(), 150);
        assert_eq!(report.total_bytes(), 9600);
        assert_eq!(report.last_completion_cycle(), 9_500);
    }

    #[test]
    fn throughput_and_utilization() {
        let report = sample_report();
        assert!((report.kcycles_per_second() - 200.0).abs() < 1e-9);
        assert!((report.bus.utilization(report.total_cycles) - 0.6).abs() < 1e-12);
        assert!((report.bus.dram_hit_rate() - 0.6).abs() < 1e-12);
        let m = &report.masters[&MasterId::new(0)];
        assert!((m.bytes_per_kcycle(report.total_cycles) - 640.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_division_guards() {
        let empty = BusMetrics::default();
        assert_eq!(empty.utilization(0), 0.0);
        assert_eq!(empty.dram_hit_rate(), 0.0);
        let m = MasterMetrics::empty("x");
        assert_eq!(m.bytes_per_kcycle(0), 0.0);
        let mut report = sample_report();
        report.wall_seconds = 0.0;
        assert!(report.kcycles_per_second().is_infinite());
    }

    #[test]
    fn table_and_csv_render_all_masters() {
        let report = sample_report();
        let table = report.format_table();
        assert!(table.contains("M0 cpu"));
        assert!(table.contains("M1 video"));
        assert!(table.contains("utilization 60.0%"));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 masters");
        assert!(csv.lines().nth(1).unwrap().starts_with("TL,M0,cpu,100"));
    }

    #[test]
    fn model_kind_display() {
        assert_eq!(ModelKind::PinAccurateRtl.to_string(), "RTL");
        assert_eq!(ModelKind::TransactionLevel.to_string(), "TL");
        assert_eq!(ModelKind::LooselyTimed.to_string(), "LT");
        assert_eq!(ModelKind::ShardedTlm.to_string(), "S-TL");
        assert_eq!(ModelKind::PinAccurateRtl.id(), "rtl");
        assert_eq!(ModelKind::TransactionLevel.id(), "tlm");
        assert_eq!(ModelKind::LooselyTimed.id(), "lt");
        assert_eq!(ModelKind::ShardedTlm.id(), "sharded-tlm");
        assert_eq!(ModelKind::ShardedTlmLa.id(), "sharded-tlm-la");
        assert_eq!(ModelKind::ShardedTlmLa.to_string(), "S-TL-LA");
        assert_eq!(ModelKind::ShardedLt.id(), "sharded-lt");
        assert_eq!(ModelKind::ShardedHet.id(), "sharded-het");
        assert_eq!(ModelKind::ShardedTlmReads.id(), "sharded-tlm-reads");
        assert_eq!(ModelKind::ShardedSkew.id(), "sharded-skew");
    }

    #[test]
    fn metrics_eq_ignores_wall_clock_only() {
        let a = sample_report();
        let mut b = a.clone();
        b.wall_seconds = a.wall_seconds * 3.0;
        assert!(
            a.metrics_eq(&b),
            "wall clock must not affect metric equality"
        );
        b.total_cycles += 1;
        assert!(!a.metrics_eq(&b));
    }
}
