//! The accuracy experiment: every registered model pair, lockstepped
//! over the scenario catalogue.
//!
//! Table 1 of the paper compares *two* abstraction levels on a handful of
//! traffic patterns. With the model spectrum generalized behind
//! [`BusModel`], the experiment generalizes too: for
//! every ordered pair of the registry's [`spectrum`] (more-accurate model
//! as the reference) and every catalogue scenario, run the two backends in
//! lockstep on identical stimulus, record the first observable divergence
//! horizon, verify the end-of-run results match, and compute the Table-1
//! rows and per-counter error percentages. The result packs into an
//! [`AccuracyBenchRecord`] — the `BENCH_accuracy.json` artifact CI emits
//! next to `BENCH_speed.json`, so every commit leaves a speed *and* an
//! accuracy data point per backend.
//!
//! The paper's Table 1 itself is one view over the same comparison:
//! [`table1_record`] runs [`compare_pair_on`] from `rtl` to one candidate
//! over the catalogue's [`TABLE1_SCENARIOS`].

use analysis::accuracy::{AccuracyBenchRecord, ModelComparison};
use analysis::model::{BusModel, Probe};
use analysis::report::SimReport;
use simkern::time::{Cycle, CycleDelta};

use crate::registry::{lookup, spectrum, ModelSpec};
use crate::scenario::{scenario, scenario_catalogue, ScenarioSpec};
use crate::simulation::run_lockstep;

/// Lockstep comparison stride used by the accuracy experiment. Coarse
/// enough to keep the harness fast, fine enough to localize divergences
/// to a few hundred cycles.
pub const ACCURACY_LOCKSTEP_STRIDE: u64 = 256;

/// The catalogue scenarios of the paper's Table 1: patterns A, B and C.
pub const TABLE1_SCENARIOS: [&str; 3] = ["table1-a", "table1-b", "table1-c"];

/// Every ordered backend pair of the spectrum: the more timing-accurate
/// kind first (the reference the error is measured against).
#[must_use]
pub fn model_pairs() -> Vec<(&'static ModelSpec, &'static ModelSpec)> {
    let models: Vec<&'static ModelSpec> = spectrum().collect();
    let mut pairs = Vec::new();
    for (i, &reference) in models.iter().enumerate() {
        for &candidate in &models[i + 1..] {
            pairs.push((reference, candidate));
        }
    }
    pairs
}

/// Lockstep-compares one backend pair on one scenario.
///
/// # Panics
///
/// Panics when the spec does not resolve (catalogue scenarios always do).
#[must_use]
pub fn compare_pair_on(
    spec: &ScenarioSpec,
    reference: &ModelSpec,
    candidate: &ModelSpec,
) -> ModelComparison {
    let config = spec
        .resolve()
        .unwrap_or_else(|e| panic!("scenario '{}' must resolve: {e}", spec.name));
    let mut a = reference.build(&config);
    let mut b = candidate.build(&config);
    let outcome = run_lockstep(
        a.as_mut(),
        b.as_mut(),
        CycleDelta::new(ACCURACY_LOCKSTEP_STRIDE),
    );
    ModelComparison::from_runs(
        &spec.name,
        reference.id,
        candidate.id,
        (&a.probe(), &outcome.a),
        (&b.probe(), &outcome.b),
    )
    .with_divergence(outcome.first_divergence.as_ref().map(|d| d.cycle))
}

/// The paper's Table 1 for one candidate: [`compare_pair_on`] from `rtl`
/// to `candidate` on each of [`TABLE1_SCENARIOS`], at the given workload
/// length and seed. The record's one pair summary carries the overall
/// figure.
///
/// # Panics
///
/// Panics when `rtl` or a Table-1 scenario is not registered (both are
/// fixed parts of the catalogue).
#[must_use]
pub fn table1_record(
    candidate: &ModelSpec,
    transactions_per_master: usize,
    seed: u64,
) -> AccuracyBenchRecord {
    let rtl = lookup("rtl").expect("rtl is registered");
    let comparisons = TABLE1_SCENARIOS
        .iter()
        .map(|name| {
            let spec = scenario(name)
                .expect("Table-1 scenarios are catalogued")
                .with_transactions(transactions_per_master)
                .with_seed(seed);
            compare_pair_on(&spec, rtl, candidate)
        })
        .collect();
    AccuracyBenchRecord { comparisons }
}

/// One model run to completion: its probe at every lockstep horizon and
/// its final report.
struct ProbeStream {
    probes: Vec<Probe>,
    report: SimReport,
}

/// Runs one model to completion, recording its probe at every lockstep
/// horizon. Because the models are deterministic, two recorded streams
/// reconstruct exactly what [`run_lockstep`] would have observed on the
/// pair — without re-simulating either model.
fn probe_stream(model: &mut dyn BusModel, stride: CycleDelta) -> ProbeStream {
    let mut probes = Vec::new();
    let mut horizon = Cycle::ZERO;
    while !model.finished() {
        horizon += stride;
        model.run_until(horizon);
        probes.push(model.probe());
    }
    ProbeStream {
        probes,
        report: model.report(),
    }
}

impl ProbeStream {
    /// The probe at lockstep horizon `index`. A model that finished early
    /// holds its last probe, matching the lockstep driver's no-op
    /// `run_until` on a finished model.
    fn at(&self, index: usize) -> Probe {
        self.probes
            .get(index)
            .or(self.probes.last())
            .copied()
            .unwrap_or_default()
    }
}

/// Pairwise comparison of two recorded streams: first divergence horizon
/// plus the end-of-run comparison.
fn compare_streams(
    scenario: &str,
    reference: &ModelSpec,
    candidate: &ModelSpec,
    stride: CycleDelta,
    a: &ProbeStream,
    b: &ProbeStream,
) -> ModelComparison {
    let end = a.probes.len().max(b.probes.len());
    let divergence = (0..end)
        .find(|&index| !a.at(index).divergence(&b.at(index)).is_empty())
        .map(|index| (index as u64 + 1) * stride.value());
    ModelComparison::from_runs(
        scenario,
        reference.id,
        candidate.id,
        (&a.at(end), &a.report),
        (&b.at(end), &b.report),
    )
    .with_divergence(divergence)
}

/// Runs the full accuracy experiment: every model pair over every
/// catalogue scenario, optionally with the per-master workload capped at
/// `max_transactions` (used by tests and smoke runs; `None` runs the
/// catalogue lengths). Each backend is simulated **once** per scenario
/// and the pairs are compared on the recorded probe streams, so the slow
/// reference does not pay one run per pair; the scenarios are *chunked*
/// over at most `available_parallelism` worker threads
/// (`std::thread::scope`), so the harness stays bounded by the host core
/// count however large the catalogue grows, instead of spawning one
/// thread per scenario. Output order — and content, each scenario being
/// a deterministic closed computation — is identical to the sequential
/// run.
///
/// # Panics
///
/// Panics when a catalogue scenario fails to resolve or a worker thread
/// panics (both are harness bugs, not measurement outcomes).
#[must_use]
pub fn measure_accuracy_record(max_transactions: Option<usize>) -> AccuracyBenchRecord {
    let stride = CycleDelta::new(ACCURACY_LOCKSTEP_STRIDE);
    let specs: Vec<ScenarioSpec> = scenario_catalogue()
        .into_iter()
        .map(|spec| match max_transactions {
            Some(cap) if spec.transactions_per_master > cap => spec.with_transactions(cap),
            _ => spec,
        })
        .collect();
    let run_scenario = |spec: &ScenarioSpec| -> Vec<(&'static ModelSpec, ProbeStream)> {
        let config = spec
            .resolve()
            .unwrap_or_else(|e| panic!("scenario '{}' must resolve: {e}", spec.name));
        spectrum()
            .map(|spec| (spec, probe_stream(spec.build(&config).as_mut(), stride)))
            .collect()
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(specs.len())
        .max(1);
    let chunk_size = specs.len().div_ceil(workers);
    let streams_per_scenario: Vec<Vec<(&'static ModelSpec, ProbeStream)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || chunk.iter().map(run_scenario).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|worker| worker.join().expect("scenario worker must not panic"))
                .collect()
        });
    let mut comparisons = Vec::new();
    for (spec, streams) in specs.iter().zip(streams_per_scenario) {
        for (i, (reference, ref_stream)) in streams.iter().enumerate() {
            for (candidate, cand_stream) in &streams[i + 1..] {
                comparisons.push(compare_streams(
                    &spec.name,
                    reference,
                    candidate,
                    stride,
                    ref_stream,
                    cand_stream,
                ));
            }
        }
    }
    AccuracyBenchRecord { comparisons }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(id: &str) -> &'static ModelSpec {
        lookup(id).expect("registered")
    }

    #[test]
    fn model_pairs_cover_the_spectrum_in_accuracy_order() {
        let pairs = model_pairs();
        // Nine spectrum points → C(9, 2) ordered pairs, more-accurate
        // model first.
        assert_eq!(pairs.len(), 36);
        let ids: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (a.id, b.id)).collect();
        assert_eq!(ids[0], ("rtl", "tlm"));
        assert!(ids.contains(&("rtl", "sharded-tlm")));
        assert!(ids.contains(&("tlm", "sharded-tlm")));
        assert!(ids.contains(&("sharded-tlm", "sharded-lt")));
        assert!(ids.contains(&("sharded-tlm", "sharded-tlm-reads")));
        assert!(ids.contains(&("sharded-skew", "sharded-het")));
        let position = |id| spectrum().position(|spec| spec.id == id).unwrap();
        for (reference, candidate) in ids {
            assert!(position(reference) < position(candidate));
        }
    }

    #[test]
    fn one_scenario_pair_compares_and_matches_results() {
        let spec = scenario("table1-a")
            .expect("catalogued")
            .with_transactions(25);
        let cmp = compare_pair_on(&spec, model("tlm"), model("lt"));
        assert_eq!(cmp.reference, "tlm");
        assert_eq!(cmp.candidate, "lt");
        assert!(cmp.results_match, "{}", cmp.format_table());
    }

    #[test]
    fn stream_comparison_agrees_with_true_lockstep() {
        // The record is built from one probe stream per backend; that
        // reconstruction must agree with genuinely lockstepped models —
        // counters, divergence horizon and Table-1 rows alike.
        let spec = scenario("table1-c")
            .expect("catalogued")
            .with_transactions(30);
        let config = spec.resolve().expect("resolves");
        let stride = CycleDelta::new(ACCURACY_LOCKSTEP_STRIDE);
        for (reference, candidate) in [("tlm", "lt"), ("rtl", "tlm")] {
            let (reference, candidate) = (model(reference), model(candidate));
            let lockstepped = compare_pair_on(&spec, reference, candidate);
            let streamed = compare_streams(
                &spec.name,
                reference,
                candidate,
                stride,
                &probe_stream(reference.build(&config).as_mut(), stride),
                &probe_stream(candidate.build(&config).as_mut(), stride),
            );
            assert!(!streamed.table1.is_empty());
            assert_eq!(lockstepped, streamed);
        }
    }

    #[test]
    fn single_pattern_validation_produces_rows() {
        let spec = scenario("table1-a")
            .expect("catalogued")
            .with_transactions(20)
            .with_seed(3);
        let cmp = compare_pair_on(&spec, model("rtl"), model("tlm"));
        assert!(!cmp.table1.is_empty());
        let transactions = cmp.counter("transactions").expect("probe field");
        assert_eq!(transactions.reference, transactions.candidate);
    }

    #[test]
    fn tlm_tracks_rtl_on_a_small_workload() {
        // The paper reports <3% average difference on its workloads; this
        // reproduction tracks the headline cycle counts (completion cycles
        // of the longest-running master, bus busy cycles) tightly but the
        // per-master latency of write-posting masters diverges more, so the
        // unit test guards against gross divergence only. The calibrated
        // comparison lives in the integration tests and `table1_accuracy`.
        let spec = scenario("table1-a")
            .expect("catalogued")
            .with_transactions(60)
            .with_seed(7);
        let cmp = compare_pair_on(&spec, model("rtl"), model("tlm"));
        let error = cmp.table1_error_pct();
        assert!(
            error < 25.0,
            "TLM diverged from RTL by {error:.2}% on the smoke workload"
        );
        // Bus busy cycles — total bus work — must agree closely.
        let busy = cmp.table1_row("bus busy cycles").expect("busy row");
        assert!(
            busy.error_pct() < 8.0,
            "busy cycle error {:.2}%",
            busy.error_pct()
        );
    }

    #[test]
    fn table1_aggregates_all_patterns() {
        let record = table1_record(model("tlm"), 15, 1);
        assert_eq!(record.comparisons.len(), 3);
        let text: String = record
            .comparisons
            .iter()
            .map(ModelComparison::format_table1)
            .collect();
        assert!(text.contains("table1-a — tlm vs rtl"));
        assert!(text.contains("table1-c — tlm vs rtl"));
        let summaries = record.summaries();
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0]
            .format_table1_overall()
            .contains("average difference"));
        assert!(summaries[0].mean_table1_error_pct < 100.0);
    }

    #[test]
    fn capped_record_covers_every_scenario_and_pair() {
        // A heavily capped run keeps this a unit test; the full-length
        // record is produced by the benchmark binary.
        let record = measure_accuracy_record(Some(15));
        let scenarios = scenario_catalogue().len();
        let pairs = model_pairs().len();
        assert_eq!(record.comparisons.len(), scenarios * pairs);
        assert!(
            record.all_results_match(),
            "every backend must complete identical work:\n{}",
            record
                .comparisons
                .iter()
                .filter(|c| !c.results_match)
                .map(ModelComparison::format_table)
                .collect::<String>()
        );
        let summaries = record.summaries();
        assert_eq!(summaries.len(), pairs);
        for summary in &summaries {
            assert_eq!(summary.scenarios, scenarios);
            assert!(summary.results_match_all);
        }
    }
}
