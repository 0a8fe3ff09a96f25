//! The N-backend accuracy experiment: every registered model pair,
//! lockstepped over the scenario catalogue.
//!
//! Table 1 of the paper compares *two* abstraction levels on a handful of
//! traffic patterns. With the model spectrum generalized behind
//! [`BusModel`], the experiment generalizes too: for
//! every ordered pair of the registry's [`spectrum`] (more-accurate model
//! as the reference) and every catalogue scenario, run the two backends in
//! lockstep on identical stimulus, record the first observable divergence
//! horizon, verify the end-of-run results match, and compute per-counter
//! error percentages. The result packs into an
//! [`AccuracyBenchRecord`] — the `BENCH_accuracy.json` artifact CI emits
//! next to `BENCH_speed.json`, so every commit leaves a speed *and* an
//! accuracy data point per backend.

use analysis::accuracy::{AccuracyBenchRecord, ModelComparison};
use analysis::model::{BusModel, Probe};
use simkern::time::{Cycle, CycleDelta};

use crate::registry::{spectrum, ModelSpec};
use crate::scenario::{scenario_catalogue, ScenarioSpec};
use crate::simulation::run_lockstep;

/// Lockstep comparison stride used by the accuracy experiment. Coarse
/// enough to keep the harness fast, fine enough to localize divergences
/// to a few hundred cycles.
pub const ACCURACY_LOCKSTEP_STRIDE: u64 = 256;

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
    ModelComparison::from_probes(
        &spec.name,
        reference.id,
        candidate.id,
        &a.probe(),
        &b.probe(),
    )
    .with_divergence(outcome.first_divergence.as_ref().map(|d| d.cycle))
}

/// Runs one model to completion, recording its probe at every lockstep
/// horizon. Because the models are deterministic, two recorded streams
/// reconstruct exactly what [`run_lockstep`] would have observed on the
/// pair — without re-simulating either model.
fn probe_stream(model: &mut dyn BusModel, stride: CycleDelta) -> Vec<Probe> {
    let mut probes = Vec::new();
    let mut horizon = Cycle::ZERO;
    while !model.finished() {
        horizon += stride;
        model.run_until(horizon);
        probes.push(model.probe());
    }
    probes
}

/// Pairwise comparison of two recorded probe streams: first divergence
/// horizon plus the end-of-run counter comparison. A model that finished
/// early holds its last probe, matching the lockstep driver's no-op
/// `run_until` on a finished model.
fn compare_streams(
    scenario: &str,
    reference: &ModelSpec,
    candidate: &ModelSpec,
    stride: CycleDelta,
    a: &[Probe],
    b: &[Probe],
) -> ModelComparison {
    let last = |stream: &[Probe]| stream.last().copied().unwrap_or_default();
    let mut divergence = None;
    for index in 0..a.len().max(b.len()) {
        let pa = a.get(index).copied().unwrap_or_else(|| last(a));
        let pb = b.get(index).copied().unwrap_or_else(|| last(b));
        if !pa.divergence(&pb).is_empty() {
            divergence = Some((index as u64 + 1) * stride.value());
            break;
        }
    }
    ModelComparison::from_probes(scenario, reference.id, candidate.id, &last(a), &last(b))
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
    let run_scenario = |spec: &ScenarioSpec| -> Vec<(&'static ModelSpec, Vec<Probe>)> {
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
    let streams_per_scenario: Vec<Vec<(&'static ModelSpec, Vec<Probe>)>> =
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
    use crate::registry::lookup;
    use crate::scenario;

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
        // reconstruction must agree with genuinely lockstepped models.
        let spec = scenario("table1-c")
            .expect("catalogued")
            .with_transactions(30);
        let (tlm_spec, lt_spec) = (model("tlm"), model("lt"));
        let lockstepped = compare_pair_on(&spec, tlm_spec, lt_spec);
        let config = spec.resolve().expect("resolves");
        let stride = CycleDelta::new(ACCURACY_LOCKSTEP_STRIDE);
        let mut tlm = tlm_spec.build(&config);
        let mut lt = lt_spec.build(&config);
        let streamed = compare_streams(
            &spec.name,
            tlm_spec,
            lt_spec,
            stride,
            &probe_stream(tlm.as_mut(), stride),
            &probe_stream(lt.as_mut(), stride),
        );
        assert_eq!(lockstepped, streamed);
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
