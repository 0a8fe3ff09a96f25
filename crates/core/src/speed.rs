//! The §4 simulation-speed experiment.
//!
//! Measures the wall-clock throughput (kilo-cycles of simulated bus time
//! per second of host time) of every registered model configuration — the
//! paper reports 0.47 Kcycles/s (pin-accurate), 166 Kcycles/s
//! (transaction-level, 353×) and 456 Kcycles/s (single master).
//!
//! The harness is written against the [`BusModel`] trait: each
//! measurement entry is a named builder returning a boxed model, and the
//! model's *own* [`BusModel::model_name`] provides the name under which
//! it appears in tables, filters and `BENCH_speed.json`. Registering a
//! new backend in [`standard_models`] (or passing a custom list to
//! [`measure_models`]) is all it takes for it to show up everywhere —
//! the harness binaries never change. Dynamic dispatch happens once per
//! run; the simulation loops inside `run_until` stay monomorphized.

use analysis::model::{BusModel, SyncStats};
use analysis::report::SimReport;
use analysis::speed::{ModelMeasurement, SpeedBenchRecord, SpeedReport};

use crate::platform::PlatformConfig;

/// Builds a fresh boxed model from a platform configuration.
type ModelBuilder = Box<dyn Fn(&PlatformConfig) -> Box<dyn BusModel>>;

/// One measurable model configuration: how to build it from a platform,
/// plus an optional variant suffix appended to the model's own name
/// (e.g. `"tlm"` + `"single-master"` → `"tlm-single-master"`).
pub struct ModelSpec {
    variant: Option<&'static str>,
    build: ModelBuilder,
}

impl ModelSpec {
    /// A spec measuring the plain model produced by `build`.
    #[must_use]
    pub fn new(build: impl Fn(&PlatformConfig) -> Box<dyn BusModel> + 'static) -> Self {
        ModelSpec {
            variant: None,
            build: Box::new(build),
        }
    }

    /// A spec measuring a derived configuration; `variant` is appended to
    /// the model's [`BusModel::model_name`].
    #[must_use]
    pub fn variant(
        variant: &'static str,
        build: impl Fn(&PlatformConfig) -> Box<dyn BusModel> + 'static,
    ) -> Self {
        ModelSpec {
            variant: Some(variant),
            build: Box::new(build),
        }
    }

    /// Builds a fresh model for one measurement run.
    #[must_use]
    pub fn build(&self, config: &PlatformConfig) -> Box<dyn BusModel> {
        (self.build)(config)
    }

    /// The name an already-built model is measured under (its own
    /// [`BusModel::model_name`] plus this spec's variant suffix).
    #[must_use]
    pub fn qualified_name(&self, model: &dyn BusModel) -> String {
        let base = model.model_name();
        match self.variant {
            None => base.to_owned(),
            Some(variant) => format!("{base}-{variant}"),
        }
    }

    /// The name this spec is measured under (builds a throwaway instance
    /// to ask it; [`measure_models`] instead reuses its first measurement
    /// build for this).
    #[must_use]
    pub fn name(&self, config: &PlatformConfig) -> String {
        self.qualified_name(self.build(config).as_ref())
    }
}

/// The standard measurement set: the pin-accurate reference, the
/// transaction-level model, the loosely-timed model, the paper's
/// single-master TLM configuration, the 32-/64-master TLM scaling
/// configurations (same per-master workload over `traffic::pattern_many`,
/// so the ready-set scaling shows up in `BENCH_speed.json`), and the
/// multi-bus platforms: the default 2-shard partitions of the speed
/// workload, the dedicated sharded scaling configurations over
/// `traffic::pattern_shards` (`sharded-tlm-4x4` bridge-light and
/// bridge-heavy, `sharded-lt-4x16`, plus the adaptive-lookahead twins
/// `sharded-tlm-la-4x4` and `sharded-lt-4x16-la` over the identical
/// workloads), and the topology configurations —
/// heterogeneous shards (`sharded-het`), non-posted read crossings
/// (`sharded-tlm-reads`, plus its 4×4 read-heavy scaling variant) and
/// the skewed window map (`sharded-skew`).
#[must_use]
pub fn standard_models() -> Vec<ModelSpec> {
    use ahb_multi::{MultiSystem, ShardBackendKind, Topology};
    use traffic::{pattern_shards, ShardMix, TrafficPattern};

    let scaled = |masters: usize| {
        move |config: &PlatformConfig| -> Box<dyn BusModel> {
            Box::new(ahb_tlm::TlmSystem::from_pattern(
                config.tlm_config(),
                &traffic::pattern_many(masters),
                config.transactions_per_master,
                config.seed,
            ))
        }
    };
    // Threading only changes wall-clock time (results are verified
    // probe-identical), so every measured sharded configuration uses
    // worker threads exactly when the host has cores for them.
    let threaded = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
    // A multi-bus platform of `topology` (what `PlatformConfig::build_multi`
    // builds), with the measurement threading policy applied. `patterns`
    // overrides the per-shard workloads; `None` partitions the speed
    // workload round-robin over the topology's shard count. The platform
    // inherits the speed scenario's bus and DRAM parameters like every
    // other spec, so the sharded rows stay comparable to the flat-bus rows.
    let multi =
        move |topology: Topology, patterns: Option<Vec<TrafficPattern>>, lookahead: bool| {
            move |config: &PlatformConfig| -> Box<dyn BusModel> {
                let multi_config = config
                    .multi_config(topology.clone())
                    .with_threaded(threaded)
                    .with_lookahead(lookahead);
                let partitioned;
                let parts = match &patterns {
                    Some(parts) => parts,
                    None => {
                        let shards = topology
                            .shard_count()
                            .unwrap_or(PlatformConfig::DEFAULT_SHARDS);
                        partitioned = ahb_multi::partition_round_robin(&config.pattern, shards);
                        &partitioned
                    }
                };
                Box::new(MultiSystem::from_shard_patterns(
                    &multi_config,
                    parts,
                    config.transactions_per_master,
                    config.seed,
                ))
            }
        };
    vec![
        ModelSpec::new(|config| Box::new(config.build_rtl())),
        ModelSpec::new(|config| Box::new(config.build_tlm())),
        ModelSpec::new(|config| Box::new(config.build_lt())),
        ModelSpec::variant("single-master", |config| {
            Box::new(config.clone().with_master_subset(1).build_tlm())
        }),
        ModelSpec::variant("32-master", scaled(32)),
        ModelSpec::variant("64-master", scaled(64)),
        ModelSpec::new(multi(Topology::uniform(ShardBackendKind::Tlm), None, false)),
        ModelSpec::new(multi(Topology::uniform(ShardBackendKind::Lt), None, false)),
        ModelSpec::variant(
            "4x4",
            multi(
                Topology::uniform(ShardBackendKind::Tlm),
                Some(pattern_shards(4, 4, ShardMix::LocalHeavy)),
                false,
            ),
        ),
        // The same 4×4 workload under the adaptive-lookahead scheduler
        // (the platform reports itself as `sharded-tlm-la`, so the
        // variant suffix stays `4x4`): the fixed/lookahead pair isolates
        // the synchronization cost.
        ModelSpec::variant(
            "4x4",
            multi(
                Topology::uniform(ShardBackendKind::Tlm),
                Some(pattern_shards(4, 4, ShardMix::LocalHeavy)),
                true,
            ),
        ),
        ModelSpec::variant(
            "4x4-bridge",
            multi(
                Topology::uniform(ShardBackendKind::Tlm),
                Some(pattern_shards(4, 4, ShardMix::BridgeHeavy)),
                false,
            ),
        ),
        ModelSpec::variant(
            "4x16",
            multi(
                Topology::uniform(ShardBackendKind::Lt),
                Some(pattern_shards(4, 16, ShardMix::LocalHeavy)),
                false,
            ),
        ),
        // Loosely-timed shards keep their model kind under lookahead, so
        // the variant suffix carries the `-la` marker instead.
        ModelSpec::variant(
            "4x16-la",
            multi(
                Topology::uniform(ShardBackendKind::Lt),
                Some(pattern_shards(4, 16, ShardMix::LocalHeavy)),
                true,
            ),
        ),
        ModelSpec::new(multi(Topology::het_2x2(), None, false)),
        ModelSpec::new(multi(Topology::tlm_non_posted_reads(), None, false)),
        ModelSpec::new(multi(Topology::tlm_skewed_windows(), None, false)),
        // Four non-posted-read TLM shards over the read-heavy cross-shard
        // mix: the response-leg scaling configuration.
        ModelSpec::variant(
            "4x4",
            multi(
                Topology::heterogeneous(vec![ShardBackendKind::Tlm; 4]).with_posted_reads(false),
                Some(pattern_shards(4, 4, ShardMix::ReadHeavy)),
                false,
            ),
        ),
    ]
}

/// Number of repetitions per model; the fastest run is reported. The runs
/// are short (milliseconds), so a single sample is dominated by scheduler
/// noise — best-of-N reports the machine's actual capability and is
/// stable across invocations.
pub const SPEED_MEASUREMENT_REPS: usize = 5;

/// Measures the given model specs on `config`, optionally restricted to
/// the model names in `filter` (as printed in tables and accepted by the
/// `table2_speed --models` flag). Unknown filter names are reported back
/// as an error listing what is measurable.
///
/// # Errors
///
/// Returns the offending name and the available names when `filter`
/// contains a model that no spec produces.
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
/// Returns the offending name and the available names when `filter`
/// contains a model that no spec produces.
pub fn measure_models_with_reps(
    config: &PlatformConfig,
    workload: &str,
    specs: &[ModelSpec],
    filter: Option<&[String]>,
    reps: usize,
) -> Result<SpeedBenchRecord, String> {
    // One prototype per spec: it supplies the trait-reported name (for
    // filter validation and the artifact) and doubles as the first
    // measurement run, so asking for names costs no extra construction
    // for models that are actually measured.
    let mut prototypes: Vec<Option<Box<dyn BusModel>>> =
        specs.iter().map(|spec| Some(spec.build(config))).collect();
    let available: Vec<String> = specs
        .iter()
        .zip(&prototypes)
        .map(|(spec, proto)| spec.qualified_name(proto.as_deref().expect("unused prototype")))
        .collect();
    if let Some(wanted) = filter {
        for name in wanted {
            if !available.iter().any(|a| a == name) {
                return Err(format!(
                    "unknown model '{name}' (available: {})",
                    available.join(", ")
                ));
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
    let mut measured: Vec<(usize, String, BestRun, BestRatio)> = specs
        .iter()
        .zip(available)
        .enumerate()
        .filter(|(_, (_, name))| filter.is_none_or(|wanted| wanted.contains(name)))
        .map(|(index, (_, name))| (index, name, None, None))
        .collect();
    for rep in 0..reps.max(1) {
        for (index, _, best, best_ratio) in &mut measured {
            let mut model = match prototypes[*index].take() {
                Some(model) => model,
                None => specs[*index].build(config),
            };
            let mut traced = specs[*index].build(config);
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
        .map(|(_, name, best, best_ratio)| {
            let (report, sync) = best.expect("every model measured at least once");
            let plain = report.kcycles_per_second();
            let trace_overhead_pct = best_ratio.map(|ratio| ((1.0 - ratio) * 100.0).max(0.0));
            ModelMeasurement {
                name,
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
        models,
    })
}

/// Runs the full standard measurement set and packages it as the
/// `BENCH_speed.json` payload.
#[must_use]
pub fn measure_speed_record(config: &PlatformConfig, workload: &str) -> SpeedBenchRecord {
    measure_models(config, workload, &standard_models(), None)
        .expect("unfiltered measurement cannot name unknown models")
}

/// Runs the standard measurements and condenses them into the
/// three-number §4 summary.
#[must_use]
pub fn measure_speed(config: &PlatformConfig) -> SpeedReport {
    measure_speed_record(config, "ad-hoc").speed_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::speed::model_names;
    use traffic::pattern_a;

    #[test]
    fn tlm_is_faster_than_rtl_in_wall_clock_terms() {
        // Keep the workload small so the unit test stays quick; the full
        // measurement lives in the speed benchmark.
        let config = PlatformConfig::new(pattern_a(), 60, 13);
        let speed = measure_speed(&config);
        assert!(
            speed.tlm_kcycles_per_sec > speed.rtl_kcycles_per_sec,
            "transaction-level model must simulate faster than the RTL model: {speed}"
        );
        assert!(speed.speedup() > 1.0);
        assert!(speed.tlm_single_master_kcycles_per_sec.is_some());
    }

    #[test]
    fn model_names_come_from_the_trait() {
        let config = PlatformConfig::new(pattern_a(), 10, 1);
        let names: Vec<String> = standard_models()
            .iter()
            .map(|spec| spec.name(&config))
            .collect();
        assert_eq!(
            names,
            vec![
                model_names::RTL,
                model_names::TLM,
                model_names::LT,
                model_names::TLM_SINGLE_MASTER,
                model_names::TLM_32_MASTER,
                model_names::TLM_64_MASTER,
                model_names::SHARDED_TLM,
                model_names::SHARDED_LT,
                model_names::SHARDED_TLM_4X4,
                model_names::SHARDED_TLM_LA_4X4,
                model_names::SHARDED_TLM_4X4_BRIDGE,
                model_names::SHARDED_LT_4X16,
                model_names::SHARDED_LT_4X16_LA,
                model_names::SHARDED_HET,
                model_names::SHARDED_TLM_READS,
                model_names::SHARDED_SKEW,
                model_names::SHARDED_TLM_READS_4X4,
            ]
        );
    }

    #[test]
    fn filter_restricts_the_measured_set() {
        let config = PlatformConfig::new(pattern_a(), 20, 13);
        let filter = vec![model_names::TLM.to_owned()];
        let record =
            measure_models(&config, "t", &standard_models(), Some(&filter)).expect("valid filter");
        assert_eq!(record.models.len(), 1);
        assert_eq!(record.models[0].name, model_names::TLM);
        assert!(record.model(model_names::RTL).is_none());
        // The derived summary degrades unmeasured models gracefully.
        assert!(record.speed_report().rtl_kcycles_per_sec.is_nan());
    }

    #[test]
    fn unknown_filter_names_are_rejected_with_the_available_list() {
        let config = PlatformConfig::new(pattern_a(), 10, 1);
        let filter = vec!["warp-drive".to_owned()];
        let error = measure_models(&config, "t", &standard_models(), Some(&filter)).unwrap_err();
        assert!(error.contains("warp-drive"));
        assert!(error.contains(model_names::TLM_SINGLE_MASTER));
    }
}
