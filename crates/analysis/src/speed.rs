//! Simulation-speed comparison (§4 of the paper).
//!
//! The paper reports simulation throughput in kilo-cycles per wall-clock
//! second: 0.47 Kcycles/s for the pin-accurate RTL model, 166 Kcycles/s for
//! the transaction-level model (353× faster), and 456 Kcycles/s for the TLM
//! driven by a single master. [`SpeedReport`] packages the same three
//! numbers measured on this reproduction.

use std::fmt;
use std::fmt::Write as _;

use crate::jsonfmt::{escape_json, json_f64};
use crate::model::SyncStats;

/// Simulation-speed summary for one platform configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedReport {
    /// RTL throughput in kilo-cycles per second.
    pub rtl_kcycles_per_sec: f64,
    /// TLM throughput in kilo-cycles per second (full master set).
    pub tlm_kcycles_per_sec: f64,
    /// TLM throughput with a single master, if measured.
    pub tlm_single_master_kcycles_per_sec: Option<f64>,
}

impl SpeedReport {
    /// Speed-up of the transaction-level model over the RTL reference —
    /// the paper's headline 353× figure.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.rtl_kcycles_per_sec <= 0.0 {
            return f64::INFINITY;
        }
        self.tlm_kcycles_per_sec / self.rtl_kcycles_per_sec
    }

    /// Renders the §4 speed table. Models that were filtered out of the
    /// measurement (non-finite throughput) are omitted from the table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>16}", "model", "Kcycles/s");
        if self.rtl_kcycles_per_sec.is_finite() {
            let _ = writeln!(
                out,
                "{:<28} {:>16.2}",
                "pin-accurate RTL", self.rtl_kcycles_per_sec
            );
        }
        if self.tlm_kcycles_per_sec.is_finite() {
            let _ = writeln!(
                out,
                "{:<28} {:>16.2}",
                "transaction-level", self.tlm_kcycles_per_sec
            );
        }
        if let Some(single) = self.tlm_single_master_kcycles_per_sec {
            let _ = writeln!(
                out,
                "{:<28} {:>16.2}",
                "transaction-level (1 master)", single
            );
        }
        if self.rtl_kcycles_per_sec.is_finite() && self.tlm_kcycles_per_sec.is_finite() {
            let _ = writeln!(out, "{:<28} {:>15.1}x", "TL / RTL speed-up", self.speedup());
        }
        out
    }
}

/// The paper's Table 2 reference numbers (Kcycles/s on the authors' 2005
/// setup), kept with the report so every emitted benchmark artifact can
/// carry the comparison target.
pub mod paper_reference {
    /// Pin-accurate RTL model throughput.
    pub const RTL_KCYCLES_PER_SEC: f64 = 0.47;
    /// Transaction-level model throughput (full master set).
    pub const TLM_KCYCLES_PER_SEC: f64 = 166.0;
    /// Transaction-level model with a single master.
    pub const TLM_SINGLE_MASTER_KCYCLES_PER_SEC: f64 = 456.0;
    /// Headline TL/RTL speed-up factor.
    pub const SPEEDUP: f64 = 353.0;
}

/// One measured model configuration inside a [`SpeedBenchRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeasurement {
    /// The model's registry name (e.g. `"tlm"`, `"tlm-single-master"`).
    pub name: String,
    /// Simulated bus cycles of the measured run.
    pub cycles: u64,
    /// Measured throughput in kilo-cycles per second (best of N runs).
    pub kcycles_per_sec: f64,
    /// Synchronization-scheduler statistics of the kept (fastest) run,
    /// for models with quantum barriers. `None` on single-bus models.
    pub sync: Option<SyncStats>,
    /// Throughput cost of running with tracing enabled, in percent of
    /// the plain throughput: the smallest paired overhead over the N
    /// repetitions (a traced twin runs next to every plain run and the
    /// best traced/plain ratio wins, clamped at zero), so environmental
    /// drift cancels instead of accumulating across independently-taken
    /// bests. Being a minimum of noisy ratios, it is biased toward zero;
    /// it is not a bound on what the seams cost when tracing is off.
    /// `None` when the harness did not take traced measurements.
    pub trace_overhead_pct: Option<f64>,
}

/// A machine-readable record of one speed measurement, emitted by the
/// benchmark harness as `BENCH_speed.json` so every PR leaves a comparable
/// perf data point.
///
/// The record is a list of named [`ModelMeasurement`]s, so a new backend
/// measured by the harness appears in the artifact without schema edits.
/// The flat `rtl_*` / `tlm_*` keys of schema v1 are still emitted (derived
/// from the list) so cross-PR comparisons keep working.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedBenchRecord {
    /// Free-form workload label, e.g. `"pattern_a"`.
    pub workload: String,
    /// Transactions generated per master.
    pub transactions_per_master: usize,
    /// Workload seed.
    pub seed: u64,
    /// The host's available parallelism during the measurement.
    pub host_cores: usize,
    /// One entry per measured model configuration.
    pub models: Vec<ModelMeasurement>,
}

impl SpeedBenchRecord {
    /// The measurement with the given model name, if it was run.
    #[must_use]
    pub fn model(&self, name: &str) -> Option<&ModelMeasurement> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Condenses the measurement list into the three-number §4 summary.
    /// Models that were not measured appear as NaN / `None` (rendered as
    /// `null` in JSON and omitted from tables).
    #[must_use]
    pub fn speed_report(&self) -> SpeedReport {
        let throughput = |name: &str| self.model(name).map(|m| m.kcycles_per_sec);
        SpeedReport {
            rtl_kcycles_per_sec: throughput("rtl").unwrap_or(f64::NAN),
            tlm_kcycles_per_sec: throughput("tlm").unwrap_or(f64::NAN),
            tlm_single_master_kcycles_per_sec: throughput("tlm-single-master"),
        }
    }

    /// Serializes the record as a self-contained JSON object (no external
    /// serializer available in this build environment; the format is flat
    /// and stable on purpose). Every v1 key is preserved; v2 adds the
    /// per-model `models` array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let speed = self.speed_report();
        let cycles_of = |name: &str| self.model(name).map(|m| m.cycles);
        let json_u64 =
            |value: Option<u64>| value.map_or_else(|| "null".to_owned(), |v| v.to_string());
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ahbplus-bench-speed/v2\",");
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape_json(&self.workload));
        let _ = writeln!(
            out,
            "  \"transactions_per_master\": {},",
            self.transactions_per_master
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(out, "  \"rtl_cycles\": {},", json_u64(cycles_of("rtl")));
        let _ = writeln!(out, "  \"tlm_cycles\": {},", json_u64(cycles_of("tlm")));
        let _ = writeln!(
            out,
            "  \"rtl_kcycles_per_sec\": {},",
            json_f64(speed.rtl_kcycles_per_sec)
        );
        let _ = writeln!(
            out,
            "  \"tlm_kcycles_per_sec\": {},",
            json_f64(speed.tlm_kcycles_per_sec)
        );
        let _ = writeln!(
            out,
            "  \"tlm_single_master_kcycles_per_sec\": {},",
            speed
                .tlm_single_master_kcycles_per_sec
                .map_or_else(|| "null".to_owned(), json_f64)
        );
        let _ = writeln!(
            out,
            "  \"lt_kcycles_per_sec\": {},",
            self.model("lt")
                .map_or_else(|| "null".to_owned(), |m| json_f64(m.kcycles_per_sec))
        );
        let _ = writeln!(out, "  \"speedup\": {},", json_f64(speed.speedup()));
        let _ = writeln!(out, "  \"models\": [");
        for (index, model) in self.models.iter().enumerate() {
            let comma = if index + 1 < self.models.len() {
                ","
            } else {
                ""
            };
            let sync = model.sync.map_or_else(String::new, |s| {
                format!(
                    ", \"sync_barriers\": {}, \"sync_stretched\": {}, \"sync_cycles_gained\": {}, \"mean_quantum\": {}",
                    s.barriers,
                    s.stretched,
                    s.cycles_gained,
                    json_f64(s.mean_quantum)
                )
            });
            let trace = model.trace_overhead_pct.map_or_else(String::new, |pct| {
                format!(", \"trace_overhead_pct\": {}", json_f64(pct))
            });
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"cycles\": {}, \"kcycles_per_sec\": {}{sync}{trace}}}{comma}",
                escape_json(&model.name),
                model.cycles,
                json_f64(model.kcycles_per_sec)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"paper_reference\": {{");
        let _ = writeln!(
            out,
            "    \"rtl_kcycles_per_sec\": {},",
            json_f64(paper_reference::RTL_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"tlm_kcycles_per_sec\": {},",
            json_f64(paper_reference::TLM_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"tlm_single_master_kcycles_per_sec\": {},",
            json_f64(paper_reference::TLM_SINGLE_MASTER_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"speedup\": {}",
            json_f64(paper_reference::SPEEDUP)
        );
        let _ = writeln!(out, "  }}");
        out.push('}');
        out.push('\n');
        out
    }
}

impl fmt::Display for SpeedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RTL {:.2} Kc/s, TL {:.2} Kc/s ({:.0}x)",
            self.rtl_kcycles_per_sec,
            self.tlm_kcycles_per_sec,
            self.speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_matches_throughput_ratio() {
        let speed = SpeedReport {
            rtl_kcycles_per_sec: 10.0,
            tlm_kcycles_per_sec: 2_000.0,
            tlm_single_master_kcycles_per_sec: None,
        };
        assert!((speed.speedup() - 200.0).abs() < 1e-9);
        assert!(speed.tlm_single_master_kcycles_per_sec.is_none());
    }

    #[test]
    fn single_master_run_is_included_when_given() {
        let speed = SpeedReport {
            rtl_kcycles_per_sec: 10.0,
            tlm_kcycles_per_sec: 1_000.0,
            tlm_single_master_kcycles_per_sec: Some(2_000.0),
        };
        assert!(speed.tlm_single_master_kcycles_per_sec.unwrap() > speed.tlm_kcycles_per_sec);
        let table = speed.format_table();
        assert!(table.contains("1 master"));
        assert!(table.contains("speed-up"));
    }

    #[test]
    fn degenerate_rtl_speed_yields_infinite_speedup() {
        let speed = SpeedReport {
            rtl_kcycles_per_sec: 0.0,
            tlm_kcycles_per_sec: 100.0,
            tlm_single_master_kcycles_per_sec: None,
        };
        assert!(speed.speedup().is_infinite());
    }

    fn measurement(name: &str, cycles: u64, kcycles_per_sec: f64) -> ModelMeasurement {
        ModelMeasurement {
            name: name.to_owned(),
            cycles,
            kcycles_per_sec,
            sync: None,
            trace_overhead_pct: None,
        }
    }

    fn record(workload: &str, models: Vec<ModelMeasurement>) -> SpeedBenchRecord {
        SpeedBenchRecord {
            workload: workload.to_owned(),
            transactions_per_master: 100,
            seed: 1,
            host_cores: 2,
            models,
        }
    }

    #[test]
    fn trace_overhead_extends_the_per_model_json_line() {
        let mut traced = measurement("tlm", 50_000, 1_000.0);
        traced.trace_overhead_pct = Some(1.25);
        let record = record(
            "pattern_a",
            vec![traced, measurement("lt", 50_000, 2_000.0)],
        );
        let json = record.to_json();
        assert!(json.contains("\"kcycles_per_sec\": 1000, \"trace_overhead_pct\": 1.25}"));
        // Models without a traced measurement keep the bare line.
        assert!(json.contains("{\"name\": \"lt\", \"cycles\": 50000, \"kcycles_per_sec\": 2000}"));
    }

    #[test]
    fn sync_stats_extend_the_per_model_json_line() {
        let mut sharded = measurement("sharded-tlm-la-4x4", 40_000, 5_000.0);
        sharded.sync = Some(SyncStats {
            barriers: 100,
            stretched: 25,
            cycles_gained: 12_000,
            mean_quantum: 400.0,
        });
        let record = record(
            "pattern_shards",
            vec![measurement("tlm", 50_000, 1_000.0), sharded],
        );
        let json = record.to_json();
        // Single-bus lines are unchanged; sharded lines append the
        // scheduler counters after the throughput.
        assert!(json.contains("{\"name\": \"tlm\", \"cycles\": 50000, \"kcycles_per_sec\": 1000}"));
        assert!(json.contains(
            "\"kcycles_per_sec\": 5000, \"sync_barriers\": 100, \"sync_stretched\": 25, \
             \"sync_cycles_gained\": 12000, \"mean_quantum\": 400"
        ));
    }

    #[test]
    fn bench_record_serializes_to_stable_json() {
        let record = SpeedBenchRecord {
            workload: "pattern_a".to_owned(),
            transactions_per_master: 1_000,
            seed: 2005,
            host_cores: 2,
            models: vec![
                measurement("rtl", 123_456, 250.5),
                measurement("tlm", 123_400, 60_000.0),
                measurement("tlm-single-master", 60_000, 90_000.0),
            ],
        };
        let json = record.to_json();
        assert!(json.contains("\"schema\": \"ahbplus-bench-speed/v2\""));
        assert!(json.contains("\"workload\": \"pattern_a\""));
        // v1-compatible flat keys are derived from the model list.
        assert!(json.contains("\"rtl_cycles\": 123456"));
        assert!(json.contains("\"host_cores\": 2,\n  \"rtl_cycles\""));
        assert!(json.contains("\"tlm_kcycles_per_sec\": 60000"));
        assert!(json.contains("\"paper_reference\""));
        assert!(json.contains("\"speedup\""));
        // v2 per-model array carries every measured configuration by name.
        assert!(json.contains("{\"name\": \"tlm-single-master\", \"cycles\": 60000"));
    }

    #[test]
    fn filtered_record_degrades_missing_models_to_null() {
        // A harness run filtered to the TLM only must still emit valid
        // JSON: every key about unmeasured models becomes null.
        let record = record("pattern_a", vec![measurement("tlm", 50_000, 1_000.0)]);
        let json = record.to_json();
        assert!(json.contains("\"rtl_cycles\": null"));
        assert!(json.contains("\"rtl_kcycles_per_sec\": null"));
        assert!(json.contains("\"tlm_kcycles_per_sec\": 1000"));
        assert!(json.contains("\"tlm_single_master_kcycles_per_sec\": null"));
        assert!(json.contains("\"speedup\": null"));
        let speed = record.speed_report();
        assert!(speed.rtl_kcycles_per_sec.is_nan());
        assert!(speed.tlm_single_master_kcycles_per_sec.is_none());
        // The table omits unmeasured models instead of printing NaN.
        let table = speed.format_table();
        assert!(!table.contains("NaN"));
        assert!(table.contains("transaction-level"));
        assert!(!table.contains("pin-accurate"));
    }

    #[test]
    fn display_is_compact() {
        let speed = SpeedReport {
            rtl_kcycles_per_sec: 0.5,
            tlm_kcycles_per_sec: 170.0,
            tlm_single_master_kcycles_per_sec: None,
        };
        let text = speed.to_string();
        assert!(text.contains("RTL 0.50"));
        assert!(text.contains("340x"));
    }
}
