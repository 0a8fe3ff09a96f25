//! The §4 simulation-speed experiment.
//!
//! Measures the wall-clock throughput (kilo-cycles of simulated bus time
//! per second of host time) of every registered model configuration — the
//! paper reports 0.47 Kcycles/s (pin-accurate), 166 Kcycles/s
//! (transaction-level, 353×) and 456 Kcycles/s (single master).
//!
//! The harness is written against the [`BusModel`] trait and the model
//! registry ([`crate::registry::MODELS`]): each measured row is a registry
//! entry, measured under its registry name in tables, filters and
//! `BENCH_speed.json`. Adding an entry to the registry (or passing a
//! custom list to [`measure_models`]) is all it takes for a model to show
//! up everywhere — the harness binaries never change. Dynamic dispatch
//! happens once per run; the simulation loops inside `run_until` stay
//! monomorphized.

use analysis::model::{BusModel, SyncStats};
use analysis::report::SimReport;
use analysis::speed::{ModelMeasurement, SpeedBenchRecord};

use crate::platform::PlatformConfig;
pub use crate::registry::ModelSpec;
use crate::registry::{unknown_model, MODELS};

/// The host's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The standard measurement set: every entry of the model registry, in
/// table order (the spectrum plus the single-master, many-master and
/// dedicated sharded scaling configurations).
#[must_use]
pub fn standard_models() -> Vec<ModelSpec> {
    MODELS.to_vec()
}

/// Number of repetitions per model; the fastest run is reported. The runs
/// are short (milliseconds), so a single sample is dominated by scheduler
/// noise — best-of-N reports the machine's actual capability and is
/// stable across invocations.
pub const SPEED_MEASUREMENT_REPS: usize = 5;

/// Measures the given model specs on `config`, optionally restricted to
/// the model names in `filter` (as printed in tables and accepted by the
/// `table2_speed --models` flag). Only the selected specs are built.
///
/// # Errors
///
/// Returns `unknown model 'NAME' (registered: ...)` over `specs` when
/// `filter` names a model none of them is registered under.
pub fn measure_models(
    config: &PlatformConfig,
    workload: &str,
    specs: &[ModelSpec],
    filter: Option<&[String]>,
) -> Result<SpeedBenchRecord, String> {
    measure_models_with_reps(config, workload, specs, filter, SPEED_MEASUREMENT_REPS)
}

/// [`measure_models`] with an explicit repetition count (the
/// `table2_speed --reps` flag): best-of-`reps` per model, so `1` is the
/// cheap single-sample mode campaign sweeps and CI smoke runs use, and
/// larger counts trade wall time for stability. A count of `0` is
/// clamped to one repetition — every measured model must run at least
/// once.
///
/// # Errors
///
/// Returns `unknown model 'NAME' (registered: ...)` over `specs` when
/// `filter` names a model none of them is registered under.
pub fn measure_models_with_reps(
    config: &PlatformConfig,
    workload: &str,
    specs: &[ModelSpec],
    filter: Option<&[String]>,
    reps: usize,
) -> Result<SpeedBenchRecord, String> {
    if let Some(wanted) = filter {
        for name in wanted {
            if !specs.iter().any(|spec| spec.id == name) {
                return Err(unknown_model(name, specs.iter().map(|spec| spec.id)));
            }
        }
    }
    // The fastest repetition seen so far for one model, plus whatever it
    // measured alongside (each run constructs a fresh system, so state
    // never leaks between repetitions). Tracing overhead is estimated
    // from paired ratios, not from a ratio of bests: each repetition
    // runs a fresh traced twin right next to its plain run and the pair
    // yields one traced/plain throughput ratio. Environmental drift
    // (frequency scaling, noisy neighbours) hits both halves of a pair
    // roughly equally and cancels in the ratio, where it would skew two
    // independently-taken bests for minutes at a time. The best pair
    // becomes `trace_overhead_pct`; the within-pair order alternates per
    // repetition so warm-up and thermal decay do not systematically
    // favour one side.
    type BestRun = Option<(SimReport, Option<SyncStats>)>;
    type BestRatio = Option<f64>;
    // The repetitions are interleaved across models (rep 0 of every
    // model, then rep 1, ...) rather than measured as per-model blocks:
    // host-level noise tends to arrive as sustained episodes, and a
    // block layout lands a whole episode on one model, skewing every
    // cross-model comparison. Round-robin spreads an episode over all
    // models so best-of-N converges on comparable quiet samples.
    let mut measured: Vec<(&ModelSpec, BestRun, BestRatio)> = specs
        .iter()
        .filter(|spec| filter.is_none_or(|wanted| wanted.iter().any(|name| name == spec.id)))
        .map(|spec| (spec, None, None))
        .collect();
    for rep in 0..reps.max(1) {
        for (spec, best, best_ratio) in &mut measured {
            let mut model = spec.build(config);
            let mut traced = spec.build(config);
            traced.set_tracing(true);
            let (report, traced_report) = if rep % 2 == 0 {
                let plain = model.run();
                (plain, traced.run())
            } else {
                let traced_report = traced.run();
                (model.run(), traced_report)
            };
            let plain = report.kcycles_per_second();
            let faster = best
                .as_ref()
                .is_none_or(|(b, _)| plain > b.kcycles_per_second());
            if faster {
                *best = Some((report, model.sync_stats()));
            }
            if plain > 0.0 {
                let ratio = traced_report.kcycles_per_second() / plain;
                if best_ratio.is_none_or(|b| ratio > b) {
                    *best_ratio = Some(ratio);
                }
            }
        }
    }
    let models = measured
        .into_iter()
        .map(|(spec, best, best_ratio)| {
            let (report, sync) = best.expect("every model measured at least once");
            let plain = report.kcycles_per_second();
            let trace_overhead_pct = best_ratio.map(|ratio| ((1.0 - ratio) * 100.0).max(0.0));
            ModelMeasurement {
                name: spec.id.to_owned(),
                cycles: report.total_cycles,
                kcycles_per_sec: plain,
                sync,
                trace_overhead_pct,
            }
        })
        .collect();
    Ok(SpeedBenchRecord {
        workload: workload.to_owned(),
        transactions_per_master: config.transactions_per_master,
        seed: config.seed,
        host_cores: host_cores(),
        models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::pattern_a;

    #[test]
    fn tlm_is_faster_than_rtl_in_wall_clock_terms() {
        // Keep the workload small so the unit test stays quick; the full
        // measurement lives in the speed benchmark.
        let config = PlatformConfig::new(pattern_a(), 60, 13);
        let filter = ["rtl", "tlm", "tlm-single-master"].map(str::to_owned);
        let speed = measure_models(&config, "t", &standard_models(), Some(&filter))
            .expect("registered models")
            .speed_report();
        assert!(
            speed.tlm_kcycles_per_sec > speed.rtl_kcycles_per_sec,
            "transaction-level model must simulate faster than the RTL model: {speed}"
        );
        assert!(speed.speedup() > 1.0);
        assert!(speed.tlm_single_master_kcycles_per_sec.is_some());
    }

    #[test]
    fn model_names_come_from_the_trait() {
        // Rows are named by their registry entry, and every name extends
        // the built model's own `BusModel::model_name`, so a row never
        // hides which backend it measured.
        let config = PlatformConfig::new(pattern_a(), 1, 1);
        let specs = standard_models();
        for spec in &specs {
            let base = spec.build(&config).model_name();
            let name = spec.name(&config);
            assert!(
                name == base || name.starts_with(&format!("{base}-")),
                "{name} does not extend {base}"
            );
        }
        let names: Vec<String> = specs.iter().map(|spec| spec.name(&config)).collect();
        let expected = "rtl tlm lt tlm-single-master tlm-32-master tlm-64-master sharded-tlm \
                        sharded-tlm-4x4 sharded-tlm-4x4-bridge sharded-tlm-la sharded-tlm-la-4x4 \
                        sharded-skew sharded-tlm-reads sharded-tlm-reads-4x4 sharded-lt \
                        sharded-lt-4x16 sharded-lt-4x16-la sharded-het";
        assert_eq!(names.join(" "), expected);
    }

    #[test]
    fn filter_restricts_the_measured_set() {
        let config = PlatformConfig::new(pattern_a(), 20, 13);
        let filter = vec!["tlm".to_owned()];
        let record =
            measure_models(&config, "t", &standard_models(), Some(&filter)).expect("valid filter");
        assert_eq!(record.models.len(), 1);
        assert_eq!(record.models[0].name, "tlm");
        assert!(record.model("rtl").is_none());
        // The derived summary degrades unmeasured models gracefully.
        assert!(record.speed_report().rtl_kcycles_per_sec.is_nan());
    }

    #[test]
    fn unknown_filter_names_are_rejected_with_the_available_list() {
        let config = PlatformConfig::new(pattern_a(), 10, 1);
        let filter = vec!["warp-drive".to_owned()];
        let error = measure_models(&config, "t", &standard_models(), Some(&filter)).unwrap_err();
        assert!(error.contains("warp-drive"));
        assert!(error.contains("tlm-single-master"));
    }
}
