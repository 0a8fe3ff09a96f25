//! Model-accuracy comparison (Table 1 of the paper, generalized).
//!
//! The paper validates the transaction-level AHB+ model by simulating the
//! same target system at both abstraction levels and comparing cycle-count
//! metrics; "the average accuracy difference is below 3%" (§4). A
//! [`ModelComparison`] performs that comparison for *any pair of
//! [`crate::model::BusModel`] backends* run on identical stimulus. It
//! carries two views of the pair:
//!
//! * the Table-1 rows, built from the two [`SimReport`]s: per-master
//!   completion cycle and average latency, plus bus busy cycles, whose
//!   mean is the paper's "average difference";
//! * every [`Probe`] counter side by side, plus whether the functional
//!   results are identical ([`Probe::results_match`]).
//!
//! Both use the one error rule, [`relative_error_pct`]. A set of
//! comparisons over the scenario catalogue packs into an
//! [`AccuracyBenchRecord`], the payload of the `BENCH_accuracy.json`
//! artifact — the accuracy axis of the paper's speed/accuracy trade-off,
//! emitted per commit alongside `BENCH_speed.json` — whose per-pair
//! summaries give the Table-1 mean over the compared scenarios.

use std::fmt::Write as _;

use crate::jsonfmt::{escape_json, json_f64};
use crate::model::{Probe, PROBE_FIELDS};
use crate::report::SimReport;

/// Relative error of `candidate` against `reference`, in percent — the
/// paper's `|TL − RTL| / RTL`. A zero reference yields 0% when both agree
/// and 100% otherwise.
#[must_use]
pub fn relative_error_pct(reference: f64, candidate: f64) -> f64 {
    if reference == 0.0 {
        if candidate == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        ((candidate - reference) / reference * 100.0).abs()
    }
}

/// One Table-1 metric compared between two backends.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Metric name, e.g. `"M1 video completion cycle"`.
    pub metric: String,
    /// Value measured on the reference (more timing-accurate) model.
    pub reference: f64,
    /// Value measured on the candidate model.
    pub candidate: f64,
}

impl Table1Row {
    /// Relative error of the candidate against the reference, in percent.
    #[must_use]
    pub fn error_pct(&self) -> f64 {
        relative_error_pct(self.reference, self.candidate)
    }
}

/// The Table-1 rows of two reports produced from identical stimulus: for
/// each master present in both, its completion cycle and average latency,
/// then the bus busy cycles.
fn table1_rows(reference: &SimReport, candidate: &SimReport) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (id, ref_m) in &reference.masters {
        let Some(cand_m) = candidate.masters.get(id) else {
            continue;
        };
        rows.push(Table1Row {
            metric: format!("{id} {} completion cycle", ref_m.label),
            reference: ref_m.last_completion_cycle as f64,
            candidate: cand_m.last_completion_cycle as f64,
        });
        rows.push(Table1Row {
            metric: format!("{id} {} avg latency", ref_m.label),
            reference: ref_m.avg_latency,
            candidate: cand_m.avg_latency,
        });
    }
    rows.push(Table1Row {
        metric: "bus busy cycles".to_owned(),
        reference: reference.bus.busy_cycles as f64,
        candidate: candidate.bus.busy_cycles as f64,
    });
    rows
}

/// One observable counter compared between two backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterComparison {
    /// Probe field name (see [`PROBE_FIELDS`]).
    pub counter: &'static str,
    /// Value on the reference (more timing-accurate) model.
    pub reference: u64,
    /// Value on the candidate model.
    pub candidate: u64,
}

impl CounterComparison {
    /// Relative error of the candidate against the reference, in percent.
    #[must_use]
    pub fn error_pct(&self) -> f64 {
        relative_error_pct(self.reference as f64, self.candidate as f64)
    }
}

/// The full accuracy comparison of one backend pair on one scenario: the
/// Table-1 rows and every probe counter side by side, plus the
/// functional-identity verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// Scenario label the two runs were produced under.
    pub scenario: String,
    /// `model_name` of the reference backend.
    pub reference: String,
    /// `model_name` of the candidate backend.
    pub candidate: String,
    /// Whether the end-of-run *results* are identical
    /// ([`Probe::results_match`]) — the paper's hard requirement; timing
    /// counters may differ, completed work may not.
    pub results_match: bool,
    /// First cycle at which lockstep co-simulation observed a divergence,
    /// when the comparison was driven in lockstep (`None` = never
    /// diverged, or the runs were only compared at completion).
    pub first_divergence_cycle: Option<u64>,
    /// The Table-1 rows: for each master present in both reports, its
    /// completion cycle and average latency, then the bus busy cycles.
    pub table1: Vec<Table1Row>,
    /// Per-counter comparison rows, in [`PROBE_FIELDS`] order.
    pub counters: Vec<CounterComparison>,
}

impl ModelComparison {
    /// Builds the comparison from each backend's end-of-run probe and
    /// report.
    #[must_use]
    pub fn from_runs(
        scenario: &str,
        reference_name: &str,
        candidate_name: &str,
        (reference, reference_report): (&Probe, &SimReport),
        (candidate, candidate_report): (&Probe, &SimReport),
    ) -> Self {
        let counters = PROBE_FIELDS
            .iter()
            .map(|(name, get)| CounterComparison {
                counter: name,
                reference: get(reference),
                candidate: get(candidate),
            })
            .collect();
        ModelComparison {
            scenario: scenario.to_owned(),
            reference: reference_name.to_owned(),
            candidate: candidate_name.to_owned(),
            results_match: reference.results_match(candidate),
            first_divergence_cycle: None,
            table1: table1_rows(reference_report, candidate_report),
            counters,
        }
    }

    /// Records the first lockstep divergence horizon.
    #[must_use]
    pub fn with_divergence(mut self, cycle: Option<u64>) -> Self {
        self.first_divergence_cycle = cycle;
        self
    }

    /// The comparison row of one counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<&CounterComparison> {
        self.counters.iter().find(|c| c.counter == name)
    }

    /// Relative error of the elapsed-cycle count — the headline timing
    /// error of a faster backend.
    #[must_use]
    pub fn cycle_error_pct(&self) -> f64 {
        self.counter("cycle")
            .map_or(0.0, CounterComparison::error_pct)
    }

    /// Relative error of the bus-busy-cycle count. On workloads whose
    /// end time is pinned by a periodic master the elapsed-cycle error
    /// can be deceptively small; busy cycles expose the timing estimate
    /// itself.
    #[must_use]
    pub fn busy_error_pct(&self) -> f64 {
        self.counter("busy_cycles")
            .map_or(0.0, CounterComparison::error_pct)
    }

    /// The Table-1 row of one metric, if present.
    #[must_use]
    pub fn table1_row(&self, metric: &str) -> Option<&Table1Row> {
        self.table1.iter().find(|row| row.metric == metric)
    }

    /// Mean error over the Table-1 rows, in percent — the paper's
    /// per-pattern "average difference".
    #[must_use]
    pub fn table1_error_pct(&self) -> f64 {
        if self.table1.is_empty() {
            return 0.0;
        }
        self.table1.iter().map(Table1Row::error_pct).sum::<f64>() / self.table1.len() as f64
    }

    /// Renders the Table-1 block: metric, reference, candidate,
    /// difference %, then the average difference.
    #[must_use]
    pub fn format_table1(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {} vs {}",
            self.scenario, self.candidate, self.reference
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>10}",
            "metric", self.reference, self.candidate, "diff %"
        );
        for row in &self.table1 {
            let _ = writeln!(
                out,
                "{:<34} {:>14.1} {:>14.1} {:>9.2}%",
                row.metric,
                row.reference,
                row.candidate,
                row.error_pct()
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>40.2}%",
            "average difference",
            self.table1_error_pct()
        );
        out
    }

    /// Renders the comparison as a table: counter, reference, candidate,
    /// error %. Counters that agree exactly are summarized in one line.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {} vs {} (results match: {})",
            self.scenario, self.candidate, self.reference, self.results_match
        );
        let mut exact = 0usize;
        for row in &self.counters {
            if row.reference == row.candidate {
                exact += 1;
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<24} {:>14} {:>14} {:>9.2}%",
                row.counter,
                row.reference,
                row.candidate,
                row.error_pct()
            );
        }
        let _ = writeln!(out, "  ({exact} counters agree exactly)");
        out
    }
}

/// The `BENCH_accuracy.json` payload: every pairwise model comparison over
/// the scenario catalogue, plus per-pair aggregates — the accuracy
/// counterpart of [`crate::speed::SpeedBenchRecord`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccuracyBenchRecord {
    /// One entry per (scenario, reference, candidate) triple.
    pub comparisons: Vec<ModelComparison>,
}

/// Aggregate accuracy of one (reference, candidate) pair across every
/// compared scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSummary {
    /// `model_name` of the reference backend.
    pub reference: String,
    /// `model_name` of the candidate backend.
    pub candidate: String,
    /// Number of scenarios compared.
    pub scenarios: usize,
    /// Whether the functional results matched on *every* scenario.
    pub results_match_all: bool,
    /// Mean elapsed-cycle error over the scenarios, in percent.
    pub mean_cycle_error_pct: f64,
    /// Worst elapsed-cycle error over the scenarios, in percent.
    pub max_cycle_error_pct: f64,
    /// Mean bus-busy-cycle error over the scenarios, in percent.
    pub mean_busy_error_pct: f64,
    /// Worst bus-busy-cycle error over the scenarios, in percent.
    pub max_busy_error_pct: f64,
    /// Mean Table-1 average difference over the scenarios, in percent —
    /// the paper's overall figure.
    pub mean_table1_error_pct: f64,
    /// Worst Table-1 average difference over the scenarios, in percent.
    pub max_table1_error_pct: f64,
}

impl PairSummary {
    /// The Table-1 overall figure: the mean difference and the accuracy
    /// it implies (100 − mean, floored at zero), as the paper states it.
    #[must_use]
    pub fn format_table1_overall(&self) -> String {
        format!(
            "average difference {:.2}%  (accuracy {:.1}%)",
            self.mean_table1_error_pct,
            (100.0 - self.mean_table1_error_pct).max(0.0)
        )
    }
}

impl AccuracyBenchRecord {
    /// Aggregates the comparisons into one summary row per backend pair,
    /// in first-seen order.
    #[must_use]
    pub fn summaries(&self) -> Vec<PairSummary> {
        let mut out: Vec<PairSummary> = Vec::new();
        for cmp in &self.comparisons {
            let entry = out
                .iter_mut()
                .find(|s| s.reference == cmp.reference && s.candidate == cmp.candidate);
            let error = cmp.cycle_error_pct();
            let busy = cmp.busy_error_pct();
            let table1 = cmp.table1_error_pct();
            match entry {
                Some(summary) => {
                    summary.scenarios += 1;
                    summary.results_match_all &= cmp.results_match;
                    summary.mean_cycle_error_pct += error;
                    summary.max_cycle_error_pct = summary.max_cycle_error_pct.max(error);
                    summary.mean_busy_error_pct += busy;
                    summary.max_busy_error_pct = summary.max_busy_error_pct.max(busy);
                    summary.mean_table1_error_pct += table1;
                    summary.max_table1_error_pct = summary.max_table1_error_pct.max(table1);
                }
                None => out.push(PairSummary {
                    reference: cmp.reference.clone(),
                    candidate: cmp.candidate.clone(),
                    scenarios: 1,
                    results_match_all: cmp.results_match,
                    mean_cycle_error_pct: error,
                    max_cycle_error_pct: error,
                    mean_busy_error_pct: busy,
                    max_busy_error_pct: busy,
                    mean_table1_error_pct: table1,
                    max_table1_error_pct: table1,
                }),
            }
        }
        for summary in &mut out {
            summary.mean_cycle_error_pct /= summary.scenarios as f64;
            summary.mean_busy_error_pct /= summary.scenarios as f64;
            summary.mean_table1_error_pct /= summary.scenarios as f64;
        }
        out
    }

    /// Whether every comparison produced identical functional results —
    /// the regression gate CI enforces per commit.
    #[must_use]
    pub fn all_results_match(&self) -> bool {
        self.comparisons.iter().all(|c| c.results_match)
    }

    /// Serializes the record as the `BENCH_accuracy.json` artifact
    /// (schema `ahbplus-bench-accuracy/v1`). Only counters that differ
    /// are listed per comparison; agreement is the default and is implied
    /// by absence, which keeps the artifact readable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ahbplus-bench-accuracy/v1\",");
        let _ = writeln!(
            out,
            "  \"all_results_match\": {},",
            self.all_results_match()
        );
        let _ = writeln!(out, "  \"summaries\": [");
        let summaries = self.summaries();
        for (index, s) in summaries.iter().enumerate() {
            let comma = if index + 1 < summaries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"reference\": \"{}\", \"candidate\": \"{}\", \"scenarios\": {}, \
                 \"results_match_all\": {}, \"mean_cycle_error_pct\": {}, \
                 \"max_cycle_error_pct\": {}, \"mean_busy_error_pct\": {}, \
                 \"max_busy_error_pct\": {}, \"mean_table1_error_pct\": {}, \
                 \"max_table1_error_pct\": {}}}{comma}",
                escape_json(&s.reference),
                escape_json(&s.candidate),
                s.scenarios,
                s.results_match_all,
                json_f64(s.mean_cycle_error_pct),
                json_f64(s.max_cycle_error_pct),
                json_f64(s.mean_busy_error_pct),
                json_f64(s.max_busy_error_pct),
                json_f64(s.mean_table1_error_pct),
                json_f64(s.max_table1_error_pct)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"comparisons\": [");
        for (index, cmp) in self.comparisons.iter().enumerate() {
            let comma = if index + 1 < self.comparisons.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(
                out,
                "      \"scenario\": \"{}\",",
                escape_json(&cmp.scenario)
            );
            let _ = writeln!(
                out,
                "      \"reference\": \"{}\",",
                escape_json(&cmp.reference)
            );
            let _ = writeln!(
                out,
                "      \"candidate\": \"{}\",",
                escape_json(&cmp.candidate)
            );
            let _ = writeln!(out, "      \"results_match\": {},", cmp.results_match);
            let _ = writeln!(
                out,
                "      \"first_divergence_cycle\": {},",
                cmp.first_divergence_cycle
                    .map_or_else(|| "null".to_owned(), |c| c.to_string())
            );
            let _ = writeln!(
                out,
                "      \"cycle_error_pct\": {},",
                json_f64(cmp.cycle_error_pct())
            );
            let _ = writeln!(
                out,
                "      \"table1_error_pct\": {},",
                json_f64(cmp.table1_error_pct())
            );
            let _ = writeln!(out, "      \"diverging_counters\": [");
            let diverging: Vec<&CounterComparison> = cmp
                .counters
                .iter()
                .filter(|c| c.reference != c.candidate)
                .collect();
            for (i, row) in diverging.iter().enumerate() {
                let row_comma = if i + 1 < diverging.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        {{\"counter\": \"{}\", \"reference\": {}, \"candidate\": {}, \
                     \"error_pct\": {}}}{row_comma}",
                    row.counter,
                    row.reference,
                    row.candidate,
                    json_f64(row.error_pct())
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BusMetrics, MasterMetrics, ModelKind};
    use amba::ids::MasterId;
    use std::collections::BTreeMap;

    fn report(model: ModelKind, completion: u64, latency: f64, busy: u64) -> SimReport {
        let mut masters = BTreeMap::new();
        masters.insert(
            MasterId::new(0),
            MasterMetrics {
                label: "cpu".into(),
                completed: 10,
                bytes: 640,
                last_completion_cycle: completion,
                avg_latency: latency,
                max_latency: latency * 2.0,
                avg_grant_latency: 3.0,
                qos_violations: 0,
            },
        );
        SimReport {
            model,
            total_cycles: completion + 100,
            wall_seconds: 0.1,
            masters,
            bus: BusMetrics {
                busy_cycles: busy,
                ..BusMetrics::default()
            },
        }
    }

    fn probe(cycle: u64, transactions: u64, busy: u64) -> Probe {
        Probe {
            cycle,
            transactions,
            bytes: transactions * 64,
            data_beats: transactions * 8,
            busy_cycles: busy,
            ..Probe::default()
        }
    }

    /// Compares two reports under identical probes: only the Table-1 rows
    /// can differ.
    fn table1(scenario: &str, reference: &SimReport, candidate: &SimReport) -> ModelComparison {
        let p = probe(10_000, 100, 6_000);
        ModelComparison::from_runs(scenario, "rtl", "tlm", (&p, reference), (&p, candidate))
    }

    /// Compares two probes under identical reports: only the counters can
    /// differ.
    fn counters(scenario: &str, candidate: &str, a: &Probe, b: &Probe) -> ModelComparison {
        let r = report(ModelKind::TransactionLevel, 10_000, 25.0, 6_000);
        ModelComparison::from_runs(scenario, "rtl", candidate, (a, &r), (b, &r))
    }

    #[test]
    fn identical_reports_give_perfect_accuracy() {
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 25.0, 6_000);
        let tlm = report(ModelKind::TransactionLevel, 10_000, 25.0, 6_000);
        let cmp = table1("pattern A", &rtl, &tlm);
        assert_eq!(cmp.table1.len(), 3);
        assert_eq!(cmp.table1_error_pct(), 0.0);
        assert!(cmp.table1.iter().all(|row| row.error_pct() == 0.0));
    }

    #[test]
    fn three_percent_difference_is_reported_as_such() {
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 100.0, 6_000);
        let tlm = report(ModelKind::TransactionLevel, 10_300, 103.0, 6_180);
        let record = AccuracyBenchRecord {
            comparisons: vec![table1("pattern A", &rtl, &tlm)],
        };
        assert!((record.comparisons[0].table1_error_pct() - 3.0).abs() < 1e-9);
        let overall = record.summaries()[0].format_table1_overall();
        assert_eq!(overall, "average difference 3.00%  (accuracy 97.0%)");
    }

    #[test]
    fn error_direction_does_not_matter() {
        assert!((relative_error_pct(100.0, 90.0) - 10.0).abs() < 1e-9);
        assert!((relative_error_pct(100.0, 110.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_reference_handling() {
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert_eq!(relative_error_pct(0.0, 5.0), 100.0);
        assert!((relative_error_pct(200.0, 190.0) - 5.0).abs() < 1e-9);
        let zero_row = Table1Row {
            metric: "x".into(),
            reference: 0.0,
            candidate: 0.0,
        };
        assert_eq!(zero_row.error_pct(), 0.0);
    }

    #[test]
    fn counter_comparison_error_handles_zero_reference() {
        let both_zero = CounterComparison {
            counter: "x",
            reference: 0,
            candidate: 0,
        };
        assert_eq!(both_zero.error_pct(), 0.0);
        let zero_ref = CounterComparison {
            counter: "x",
            reference: 0,
            candidate: 3,
        };
        assert_eq!(zero_ref.error_pct(), 100.0);
        let off = CounterComparison {
            counter: "x",
            reference: 200,
            candidate: 190,
        };
        assert!((off.error_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 25.0, 6_000);
        let tlm = report(ModelKind::TransactionLevel, 10_100, 26.0, 6_100);
        let table = table1("pattern B", &rtl, &tlm).format_table1();
        assert!(table.contains("pattern B — tlm vs rtl"));
        assert!(table.contains("completion cycle"));
        assert!(table.contains("avg latency"));
        assert!(table.contains("bus busy cycles"));
        assert!(table.contains("average difference"));
    }

    #[test]
    fn overall_average_combines_patterns() {
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 100.0, 6_000);
        let exact = table1(
            "a",
            &rtl,
            &report(ModelKind::TransactionLevel, 10_000, 100.0, 6_000),
        );
        let off = table1(
            "b",
            &rtl,
            &report(ModelKind::TransactionLevel, 10_400, 104.0, 6_240),
        );
        let record = AccuracyBenchRecord {
            comparisons: vec![exact, off],
        };
        let summaries = record.summaries();
        assert_eq!(summaries.len(), 1);
        assert!((summaries[0].mean_table1_error_pct - 2.0).abs() < 1e-9);
        assert!((summaries[0].max_table1_error_pct - 4.0).abs() < 1e-9);
    }

    #[test]
    fn model_comparison_covers_every_probe_field() {
        let a = probe(1_000, 40, 700);
        let b = probe(1_050, 40, 690);
        let cmp = counters("s", "lt", &a, &b);
        assert_eq!(cmp.counters.len(), crate::model::PROBE_FIELDS.len());
        assert!(cmp.results_match, "identical work is a results match");
        assert!((cmp.cycle_error_pct() - 5.0).abs() < 1e-9);
        assert!(cmp.busy_error_pct() > 0.0);
        let table = cmp.format_table();
        assert!(table.contains("cycle"));
        assert!(table.contains("busy_cycles"));
        assert!(table.contains("agree exactly"));
    }

    #[test]
    fn lost_work_breaks_the_results_match() {
        let a = probe(1_000, 40, 700);
        let b = probe(1_000, 39, 700);
        let cmp = counters("s", "lt", &a, &b);
        assert!(!cmp.results_match);
        assert!(cmp.counter("transactions").unwrap().error_pct() > 0.0);
    }

    #[test]
    fn bench_record_aggregates_and_serializes() {
        let reference = probe(10_000, 100, 6_000);
        let close = probe(10_200, 100, 6_100);
        let exact = probe(10_000, 100, 6_000);
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 100.0, 6_000);
        let off = report(ModelKind::LooselyTimed, 10_600, 106.0, 6_360);
        let record = AccuracyBenchRecord {
            comparisons: vec![
                ModelComparison::from_runs("a", "rtl", "lt", (&reference, &rtl), (&close, &off))
                    .with_divergence(Some(512)),
                counters("b", "lt", &reference, &exact),
                counters("a", "tlm", &reference, &exact),
            ],
        };
        assert!(record.all_results_match());
        let summaries = record.summaries();
        assert_eq!(summaries.len(), 2);
        let lt = &summaries[0];
        assert_eq!(lt.candidate, "lt");
        assert_eq!(lt.scenarios, 2);
        assert!(lt.results_match_all);
        assert!((lt.mean_cycle_error_pct - 1.0).abs() < 1e-9);
        assert!((lt.max_cycle_error_pct - 2.0).abs() < 1e-9);
        assert!((lt.mean_table1_error_pct - 3.0).abs() < 1e-9);
        assert!((lt.max_table1_error_pct - 6.0).abs() < 1e-9);
        let json = record.to_json();
        assert!(json.contains("\"schema\": \"ahbplus-bench-accuracy/v1\""));
        assert!(json.contains("\"all_results_match\": true"));
        assert!(json.contains("\"first_divergence_cycle\": 512"));
        assert!(json.contains("\"candidate\": \"lt\""));
        assert!(json.contains("\"table1_error_pct\": 6"));
        assert!(json.contains("\"mean_table1_error_pct\": 3"));
        assert!(json.contains("\"max_table1_error_pct\": 6"));
        // Counters that agree are implied by absence.
        assert!(!json.contains("\"counter\": \"transactions\""));
        assert!(json.contains("\"counter\": \"cycle\""));
    }

    #[test]
    fn empty_record_serializes_and_trivially_matches() {
        let record = AccuracyBenchRecord::default();
        assert!(record.all_results_match());
        assert!(record.summaries().is_empty());
        let json = record.to_json();
        assert!(json.contains("\"comparisons\": ["));
    }

    #[test]
    fn masters_missing_from_one_report_are_skipped() {
        let rtl = report(ModelKind::PinAccurateRtl, 10_000, 25.0, 6_000);
        let mut tlm = report(ModelKind::TransactionLevel, 10_000, 25.0, 6_000);
        tlm.masters.clear();
        let cmp = table1("pattern", &rtl, &tlm);
        assert_eq!(cmp.table1.len(), 1, "only the bus-level row remains");
        assert!(cmp.table1_row("bus busy cycles").is_some());
    }
}
