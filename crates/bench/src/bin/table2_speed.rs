//! Regenerates the §4 simulation-speed comparison: Kcycles of simulated bus
//! time per wall-clock second for every model configuration registered with
//! the speed harness, plus the TL/RTL speed-up factor.
//!
//! The rows are the entries of the `ahbplus` model registry, under their
//! registry names, so a model added there appears here — and in the
//! emitted `BENCH_speed.json` (schema `ahbplus-bench-speed/v2`,
//! v1-compatible keys preserved, plus the host's core count) — without
//! harness edits.
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin table2_speed \
//!     [OUTPUT.json] [--models rtl,tlm,sharded-tlm-4x4] [--reps N] \
//!     [--trace TRACE.json] [--trace-model NAME] [--quiet] [--list-models]
//! ```
//!
//! `--models` restricts the measurement to a comma-separated subset;
//! unmeasured models appear as `null` in the JSON artifact. An unknown
//! name fails fast (exit 2) with the list of registered names — it never
//! silently measures nothing. `--reps` overrides the best-of-5 repetition
//! count (use `--reps 1` for cheap smoke sweeps); `--quiet` suppresses
//! the table and commentary, leaving only the artifact write.
//! `--list-models` prints the registered names and exits. `--trace`
//! additionally runs one configuration (default `sharded-tlm-la-4x4`;
//! pick another registered name with `--trace-model`) once with tracing
//! enabled and writes the merged event stream as Chrome-trace/Perfetto
//! JSON (load it at <https://ui.perfetto.dev>).

use ahbplus::speed::{
    host_cores, measure_models_with_reps, standard_models, SPEED_MEASUREMENT_REPS,
};
use ahbplus::{lookup, scenario, ModelSpec, PlatformConfig, MODELS};
use analysis::model::BusModel;

/// Looks a registry name up, or exits 2 with the registered list.
fn registered(flag: &str, name: &str) -> &'static ModelSpec {
    lookup(name).unwrap_or_else(|error| {
        eprintln!("{flag}: {error}");
        std::process::exit(2);
    })
}

/// Runs the registered configuration `spec` once with tracing enabled
/// and writes the Perfetto export to `path`.
fn write_trace(config: &PlatformConfig, spec: &ModelSpec, path: &str, quiet: bool) {
    let model = spec.id;
    let mut platform = spec.build(config);
    platform.set_tracing(true);
    platform.run();
    let Some(log) = platform.take_trace() else {
        eprintln!("--trace-model: model '{model}' does not support tracing");
        std::process::exit(2);
    };
    let perfetto = log.to_perfetto_json(model);
    match std::fs::write(path, perfetto) {
        Ok(()) => {
            if !quiet {
                println!(
                    "wrote {path} ({} trace events, Perfetto JSON, model {model})",
                    log.events.len()
                );
            }
        }
        Err(error) => {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut output_path = "BENCH_speed.json".to_owned();
    let mut filter: Option<Vec<String>> = None;
    let mut list_models = false;
    let mut quiet = false;
    let mut reps = SPEED_MEASUREMENT_REPS;
    let mut trace_path: Option<String> = None;
    let mut trace_model = "sharded-tlm-la-4x4".to_owned();
    let mut args = std::env::args().skip(1);
    let parse_reps = |value: &str| -> usize {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--reps needs a positive integer, got '{value}'");
                std::process::exit(2);
            }
        }
    };
    while let Some(arg) = args.next() {
        if let Some(list) = arg.strip_prefix("--models=") {
            filter = Some(list.split(',').map(str::to_owned).collect());
        } else if arg == "--models" {
            let Some(list) = args.next() else {
                eprintln!("--models needs a comma-separated list of model names");
                std::process::exit(2);
            };
            filter = Some(list.split(',').map(str::to_owned).collect());
        } else if let Some(value) = arg.strip_prefix("--reps=") {
            reps = parse_reps(value);
        } else if arg == "--reps" {
            let Some(value) = args.next() else {
                eprintln!("--reps needs a positive integer");
                std::process::exit(2);
            };
            reps = parse_reps(&value);
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            trace_path = Some(path.to_owned());
        } else if arg == "--trace" {
            let Some(path) = args.next() else {
                eprintln!("--trace needs an output path for the Perfetto JSON");
                std::process::exit(2);
            };
            trace_path = Some(path);
        } else if let Some(name) = arg.strip_prefix("--trace-model=") {
            trace_model = name.to_owned();
        } else if arg == "--trace-model" {
            let Some(name) = args.next() else {
                eprintln!("--trace-model needs a registered model name");
                std::process::exit(2);
            };
            trace_model = name;
        } else if arg == "--quiet" {
            quiet = true;
        } else if arg == "--list-models" {
            list_models = true;
        } else if arg.starts_with("--") {
            // A typo'd flag must not be mistaken for the output path and
            // silently trigger a full multi-minute measurement.
            eprintln!(
                "unknown option '{arg}' \
                 (usage: table2_speed [OUTPUT.json] [--models a,b,...] [--reps N] \
                 [--trace TRACE.json] [--trace-model NAME] [--quiet] [--list-models])"
            );
            std::process::exit(2);
        } else {
            output_path = arg;
        }
    }

    if list_models {
        for spec in &MODELS {
            println!("{}", spec.id);
        }
        return;
    }
    // Unknown names fail before anything is measured or printed.
    for name in filter.iter().flatten() {
        registered("--models", name);
    }
    let trace_spec = trace_path
        .is_some()
        .then(|| registered("--trace-model", &trace_model));
    let spec = scenario("table2-speed").expect("catalogued speed scenario");
    let config = spec.resolve().expect("speed scenario resolves");
    if !quiet {
        println!(
            "Simulation speed — {}, {} transactions per master",
            config.pattern.name, config.transactions_per_master
        );
        println!("host: {} cores\n", host_cores());
    }
    let record = match measure_models_with_reps(
        &config,
        "pattern_a",
        &standard_models(),
        filter.as_deref(),
        reps,
    ) {
        Ok(record) => record,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    };
    if !quiet {
        println!("{}", record.speed_report().format_table());
        println!("measured models:");
        for model in &record.models {
            // Sharded platforms also surface their synchronization counters:
            // how many barriers the run took, how many the lookahead
            // scheduler stretched, and the resulting mean effective quantum.
            let sync = model.sync.map_or_else(String::new, |s| {
                format!(
                    "  [{} barriers, {} stretched, mean quantum {:.1}]",
                    s.barriers, s.stretched, s.mean_quantum
                )
            });
            let trace = model
                .trace_overhead_pct
                .map_or_else(String::new, |pct| format!("  [trace +{pct:.1}%]"));
            println!(
                "  {:<24} {:>12.2} Kcycles/s  ({} cycles){sync}{trace}",
                model.name, model.kcycles_per_sec, model.cycles
            );
        }
        println!("\npaper reference: RTL 0.47 Kcycles/s, TL 166 Kcycles/s (353x),");
        println!("TL with a single master 456 Kcycles/s.");
        println!("Absolute numbers differ (the reference here is a signal-level Rust model,");
        println!("not a commercial HDL simulator on 2005 hardware); the shape — TL orders of");
        println!("magnitude faster than pin-accurate, single-master TL faster still — holds.");
    }
    match std::fs::write(&output_path, record.to_json()) {
        Ok(()) => {
            if !quiet {
                println!("\nwrote {output_path}");
            }
        }
        Err(error) => {
            eprintln!("failed to write {output_path}: {error}");
            std::process::exit(1);
        }
    }
    if let (Some(path), Some(spec)) = (trace_path, trace_spec) {
        write_trace(&config, spec, &path, quiet);
    }
}
