//! The simulation workloads: each measures one registered model, so every
//! model's throughput is its own (workload, metric) pair.
//!
//! Every model comes from `ahbplus::speed::standard_models()` by registry
//! name, so the benchmark measures exactly what `table2_speed` measures,
//! threading policy included. A workload may name a companion model that
//! runs outside the timed loop: the pin-accurate reference its results are
//! checked against, or the twin whose host-time gap isolates one layer's
//! cost in the traced pass.

use std::time::Instant;

use ahbplus::speed::{standard_models, ModelSpec};
use ahbplus::{BusModel, PlatformConfig, Probe, SimReport};
use analysis::model::SyncStats;
use simkern::time::Cycle;
use traffic::{pattern_by_name, pattern_shards, ShardMix, TrafficPattern};

use crate::layers;
use crate::spans::Spans;
use crate::stats;
use crate::Outcome;

/// Paired model/companion runs behind each traced cost estimate.
const PAIRS: usize = 5;

/// A model run beside the measured one, outside the timed loop.
#[derive(Debug, Clone, Copy)]
pub enum Companion {
    /// The pin-accurate reference: results must match it, and the
    /// model's average-latency error against it is reported.
    Reference(&'static str),
    /// The same traffic under the fixed-quantum schedule: probes must be
    /// identical, so the host-time gap per barrier the model removed is
    /// what a barrier costs.
    FixedSchedule(&'static str),
    /// The same bus shape with local-heavy traffic: the host-time gap per
    /// extra crossing is what a crossing costs.
    LocalTraffic(&'static str),
}

/// One simulation workload: a registered model, its traffic and size.
pub struct SimWorkload {
    /// Pattern, transactions per master, seed (the sharded specs take only
    /// the size, seed and bus/DDR parameters from it).
    pub config: PlatformConfig,
    /// Registry name of the measured model.
    pub model: &'static str,
    /// The model's traffic, one pattern per bus.
    pub patterns: Vec<TrafficPattern>,
    pub companion: Option<Companion>,
}

impl SimWorkload {
    /// Pattern `a` on one bus; every model but `rtl` is checked against
    /// `rtl`.
    pub fn flat_a(model: &'static str, transactions_per_master: usize, seed: u64) -> SimWorkload {
        let pattern = pattern_by_name("a").expect("pattern a is registered");
        SimWorkload {
            config: PlatformConfig::new(pattern.clone(), transactions_per_master, seed),
            model,
            patterns: vec![pattern],
            companion: (model != "rtl").then_some(Companion::Reference("rtl")),
        }
    }

    pub fn many_64(transactions_per_master: usize, seed: u64) -> SimWorkload {
        let pattern = pattern_by_name("many-64").expect("pattern many-64 is registered");
        SimWorkload {
            config: PlatformConfig::new(pattern.clone(), transactions_per_master, seed),
            model: "tlm",
            patterns: vec![pattern],
            companion: None,
        }
    }

    /// `pattern_shards(4, 4, ·)`: the fixed-quantum model, its lookahead
    /// twin, or the bridge-heavy mix.
    pub fn sharded_4x4(
        model: &'static str,
        transactions_per_master: usize,
        seed: u64,
    ) -> SimWorkload {
        const FIXED: &str = "sharded-tlm-4x4";
        let (mix, companion) = match model {
            FIXED => (ShardMix::LocalHeavy, None),
            "sharded-tlm-la-4x4" => (ShardMix::LocalHeavy, Some(Companion::FixedSchedule(FIXED))),
            "sharded-tlm-4x4-bridge" => {
                (ShardMix::BridgeHeavy, Some(Companion::LocalTraffic(FIXED)))
            }
            other => panic!("'{other}' is not a 4x4 sharded model"),
        };
        let pattern = pattern_by_name("a").expect("pattern a is registered");
        SimWorkload {
            config: PlatformConfig::new(pattern, transactions_per_master, seed),
            model,
            patterns: pattern_shards(4, 4, mix),
            companion,
        }
    }

    /// Transactions the model must complete: each master's whole trace.
    fn expected_transactions(&self) -> u64 {
        let masters: usize = self.patterns.iter().map(TrafficPattern::master_count).sum();
        (masters * self.config.transactions_per_master) as u64
    }
}

/// Looks registry specs up by name. `ModelSpec::name` builds a whole
/// model, so names are resolved on a one-transaction copy of `config`.
pub fn resolve_specs(config: &PlatformConfig, names: &[&str]) -> Vec<ModelSpec> {
    let mut tiny = config.clone();
    tiny.transactions_per_master = 1;
    let mut specs: Vec<Option<ModelSpec>> = standard_models().into_iter().map(Some).collect();
    let registered: Vec<String> = specs
        .iter()
        .map(|spec| spec.as_ref().expect("not taken yet").name(&tiny))
        .collect();
    names
        .iter()
        .map(|name| {
            let index = registered
                .iter()
                .position(|r| r == name)
                .unwrap_or_else(|| panic!("model '{name}' is not in standard_models()"));
            specs[index].take().expect("each model is named once")
        })
        .collect()
}

/// Builds `spec` and runs it to completion; returns the model and the
/// host seconds of `run_until(Cycle::MAX)`.
fn timed_run(
    spec: &ModelSpec,
    config: &PlatformConfig,
    spans: &mut Spans,
) -> (Box<dyn BusModel>, f64) {
    let mut model = spec.build(config);
    let span = spans.enter("run");
    let began = Instant::now();
    model.run_until(Cycle::MAX);
    let elapsed = began.elapsed().as_secs_f64();
    spans.exit(span);
    (model, elapsed)
}

/// Runs one simulation workload for at least `seconds` of measurement.
pub fn run(workload: &SimWorkload, seconds: f64, traced: bool, spans: &mut Spans) -> Outcome {
    let mut outcome = Outcome::default();
    let config = &workload.config;
    let expected = workload.expected_transactions();
    let spec = resolve_specs(config, &[workload.model])
        .pop()
        .expect("one spec");

    let mut build_s = Vec::new();
    let mut run_s = Vec::new();
    let mut measured: Option<Measured> = None;
    let start = Instant::now();
    while run_s.len() < stats::BLOCKS || start.elapsed().as_secs_f64() < seconds {
        let rep = spans.enter("rep");
        let build = spans.enter("build");
        let began = Instant::now();
        let mut model = spec.build(config);
        build_s.push(began.elapsed().as_secs_f64());
        spans.exit(build);
        let run = spans.enter("run");
        let began = Instant::now();
        model.run_until(Cycle::MAX);
        run_s.push(began.elapsed().as_secs_f64());
        spans.exit(run);
        let probe = model.probe();
        let mut problems = Vec::new();
        if probe.transactions != expected {
            problems.push(format!(
                "{}: completed {} of {expected} transactions",
                workload.model, probe.transactions
            ));
        }
        match &measured {
            Some(first) if first.probe != probe => problems.push(format!(
                "{}: rep {} probe differs from rep 0 in {:?}",
                workload.model,
                run_s.len() - 1,
                first.probe.divergence(&probe)
            )),
            Some(_) => {}
            None => {
                // What one build and run of the model needs, in a fresh
                // process.
                crate::record_peak_rss(&mut outcome);
                measured = Some(Measured {
                    probe,
                    report: model.report(),
                    sync: model.sync_stats(),
                });
            }
        }
        outcome.op(problems);
        spans.exit(rep);
    }
    let measured = measured.expect("the model ran");
    let probe = measured.probe;
    let run = stats::block_best(&run_s).expect("the model ran");
    // Multi-bus reports count bus-cycles summed over shards, as
    // `BENCH_speed.json` does.
    outcome.set("kcps", measured.report.total_cycles as f64 / 1e3 / run);
    outcome.set("latency_ms", run * 1e3);
    outcome.set("setup_s", stats::median(&build_s).expect("the model ran"));
    outcome.set(
        "run.ns_per_txn",
        run * 1e9 / probe.transactions.max(1) as f64,
    );
    set_sim_counters(&mut outcome, &probe);
    if let Some(sync) = measured.sync {
        outcome.set("sync.barriers", sync.barriers as f64);
        outcome.set("sync.stretched", sync.stretched as f64);
        outcome.set("sync.mean_quantum", sync.mean_quantum);
    }
    outcome.size = vec![
        (
            "transactions_per_master",
            config.transactions_per_master as u64,
        ),
        (
            "masters",
            workload
                .patterns
                .iter()
                .map(TrafficPattern::master_count)
                .sum::<usize>() as u64,
        ),
        ("reps", run_s.len() as u64),
    ];
    outcome.sim = vec![(workload.model.to_owned(), probe)];

    let span = spans.enter("companion");
    check_companion(workload, &spec, &measured, traced, &mut outcome, spans);
    spans.exit(span);
    if traced {
        layers::measure(
            &spec,
            config,
            &workload.patterns,
            &probe,
            &mut outcome,
            spans,
        );
    }
    outcome
}

/// What rep 0 of the measured model produced.
struct Measured {
    probe: Probe,
    report: SimReport,
    sync: Option<SyncStats>,
}

/// Runs the companion once for its check and, in the traced pass, times
/// `PAIRS` alternating model/companion pairs for the cost of the layer
/// that separates them.
fn check_companion(
    workload: &SimWorkload,
    spec: &ModelSpec,
    measured: &Measured,
    traced: bool,
    outcome: &mut Outcome,
    spans: &mut Spans,
) {
    let companion = match workload.companion {
        // The local-heavy twin has nothing to check; it serves only the
        // traced cost estimate.
        Some(Companion::LocalTraffic(_)) if !traced => return,
        Some(companion) => companion,
        None => return,
    };
    let config = &workload.config;
    let Measured { probe, report, .. } = measured;
    let barriers = measured.sync.unwrap_or_default().barriers;
    let name = match companion {
        Companion::Reference(name)
        | Companion::FixedSchedule(name)
        | Companion::LocalTraffic(name) => name,
    };
    let other = resolve_specs(config, &[name]).pop().expect("one spec");
    let (mut model, other_s) = timed_run(&other, config, spans);
    let other_probe = model.probe();
    let mut problems = Vec::new();
    match companion {
        Companion::Reference(_) => {
            if !probe.results_match(&other_probe) {
                problems.push(format!("results differ from {name}"));
            }
            outcome.set(
                "accuracy.latency_err_pct",
                latency_error_pct(report, &model.report()),
            );
        }
        Companion::FixedSchedule(_) => {
            if *probe != other_probe {
                problems.push(format!(
                    "probe differs from {name} in {:?}",
                    probe.divergence(&other_probe)
                ));
            }
        }
        Companion::LocalTraffic(_) => {}
    }
    let other_sync = model.sync_stats().unwrap_or_default();
    outcome.op(problems);
    if !traced || matches!(companion, Companion::Reference(_)) {
        return;
    }
    let (mut best, mut other_best) = (f64::INFINITY, other_s);
    for pair in 0..PAIRS {
        // Alternate which side runs first, so host drift lands on both.
        for companion_side in [pair % 2 == 1, pair % 2 == 0] {
            if companion_side {
                other_best = other_best.min(timed_run(&other, config, spans).1);
            } else {
                best = best.min(timed_run(spec, config, spans).1);
            }
        }
    }
    match companion {
        Companion::Reference(_) => {}
        Companion::FixedSchedule(_) => {
            let removed = other_sync.barriers.saturating_sub(barriers);
            if removed > 0 {
                outcome.set(
                    "sync.us_per_barrier",
                    (other_best - best) / removed as f64 * 1e6,
                );
            }
        }
        Companion::LocalTraffic(_) => {
            let extra = probe
                .bridge_crossings
                .saturating_sub(other_probe.bridge_crossings);
            if extra > 0 {
                outcome.set(
                    "bridge.us_per_crossing",
                    (best - other_best) / extra as f64 * 1e6,
                );
            }
        }
    }
}

/// The simulated counters of the measured run (exact; identical after any
/// change that only touches host speed).
pub fn set_sim_counters(outcome: &mut Outcome, probe: &Probe) {
    outcome.set("sim.cycles", probe.cycle as f64);
    outcome.set("sim.transactions", probe.transactions as f64);
    outcome.set("sim.busy_cycles", probe.busy_cycles as f64);
    outcome.set("ddrc.accesses", probe.dram_accesses as f64);
    outcome.set("ddrc.hit_rate", probe.dram_hit_rate());
    outcome.set("write_buffer.absorbed", probe.write_buffer_absorbed as f64);
    outcome.set("write_buffer.drained", probe.write_buffer_drained as f64);
    outcome.set("bridge.crossings", probe.bridge_crossings as f64);
}

/// Mean over masters of |avg latency − reference avg latency| ÷ reference
/// avg latency, in percent.
fn latency_error_pct(report: &SimReport, reference: &SimReport) -> f64 {
    let errors: Vec<f64> = reference
        .masters
        .iter()
        .filter(|(_, r)| r.avg_latency > 0.0)
        .filter_map(|(id, r)| {
            let m = report.masters.get(id)?;
            Some((m.avg_latency - r.avg_latency).abs() / r.avg_latency * 100.0)
        })
        .collect();
    if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    }
}
