//! Latency-attribution reports over lifecycle traces.
//!
//! Replays a saved trace (compact binary `.ahbt` or JSON-lines — the
//! container is sniffed from the file header, not the extension) or runs
//! any model of the `ahbplus` registry live with tracing on,
//! then prints the `analysis::profile` attribution report: per-master /
//! per-shard latency percentiles, attributed component totals, the
//! utilization timeline summary and the slowest transactions. Two
//! sources produce an A/B diff instead — the regression check for perf
//! work, and the schedule-independence proof for a fixed-vs-lookahead
//! pair of the same platform.
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin trace_report -- \
//!     [TRACE...] [--model NAME]... [--json OUT] [--top K] [--window W] \
//!     [--txns N] [--seed S] [--save-ahbt OUT] [--save-json OUT] \
//!     [--list-models]
//! ```
//!
//! Sources are files (positional) and `--model NAME` live runs
//! (validated against the registry, workload = the `table2-speed`
//! catalogue scenario; `--txns` / `--seed` override it), in the order
//! given. One source prints its report; two sources print their diff;
//! `--json` additionally writes the report (or diff) as JSON.
//! `--save-ahbt` / `--save-json` export the first live run's captured
//! trace, which is how CI produces a size-comparable `.ahbt` +
//! JSON-lines pair from one simulation.

use ahbplus::scenario;
use ahbplus::{lookup, MODELS};
use analysis::model::BusModel;
use analysis::profile::{Profile, ProfileBuilder, ProfileDiff, ProfileOptions};
use analysis::trace::{TraceEvent, TraceLog};
use analysis::tracebin::{is_ahbt, TraceReader};

const USAGE: &str = "usage: trace_report [TRACE...] [--model NAME]... [--json OUT] \
                     [--top K] [--window W] [--txns N] [--seed S] \
                     [--save-ahbt OUT] [--save-json OUT] [--list-models]";

enum Source {
    File(String),
    Model(String),
}

fn fail_usage(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_u64(flag: &str, value: &str) -> u64 {
    match value.parse::<u64>() {
        Ok(parsed) => parsed,
        Err(_) => fail_usage(&format!("{flag} needs an unsigned integer, got '{value}'")),
    }
}

/// Profiles a trace file, sniffing the container from its first bytes:
/// `.ahbt` streams through [`TraceReader`], anything else is parsed as
/// JSON-lines (unknown lines without a `"kind"` field — e.g. the report
/// line of a served ndjson stream — are skipped).
fn profile_file(path: &str, options: ProfileOptions) -> Profile {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) => {
            eprintln!("failed to read {path}: {error}");
            std::process::exit(1);
        }
    };
    let mut builder = ProfileBuilder::new(options);
    if is_ahbt(&bytes) {
        let reader = match TraceReader::new(bytes.as_slice()) {
            Ok(reader) => reader,
            Err(error) => {
                eprintln!("{path}: invalid .ahbt header: {error}");
                std::process::exit(1);
            }
        };
        for event in reader {
            match event {
                Ok(event) => builder.add(&event),
                Err(error) => {
                    eprintln!("{path}: corrupt .ahbt stream: {error}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        let text = match std::str::from_utf8(&bytes) {
            Ok(text) => text,
            Err(_) => {
                eprintln!("{path}: neither .ahbt (bad magic) nor UTF-8 JSON-lines");
                std::process::exit(1);
            }
        };
        for (index, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || !line.contains("\"kind\"") {
                continue;
            }
            match TraceEvent::from_json_line(line) {
                Ok(event) => builder.add(&event),
                Err(error) => {
                    eprintln!("{path}:{}: bad trace line: {error}", index + 1);
                    std::process::exit(1);
                }
            }
        }
    }
    builder.finish()
}

/// Runs a registered model once with tracing enabled and returns its
/// merged trace log.
fn run_model(name: &str, config: &ahbplus::PlatformConfig) -> TraceLog {
    let spec = lookup(name).unwrap_or_else(|error| fail_usage(&error));
    let mut model = spec.build(config);
    model.set_tracing(true);
    model.run();
    match model.take_trace() {
        Some(log) => log,
        None => {
            eprintln!("model '{name}' does not support tracing");
            std::process::exit(1);
        }
    }
}

fn write_or_die(path: &str, contents: &[u8], what: &str) {
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("failed to write {what} {path}: {error}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} bytes, {what})", contents.len());
}

fn main() {
    let mut sources: Vec<Source> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut save_ahbt: Option<String> = None;
    let mut save_json: Option<String> = None;
    let mut txns: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut options = ProfileOptions::default();
    let mut list_models = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take_value = |flag: &str| -> String {
            match args.next() {
                Some(value) => value,
                None => fail_usage(&format!("{flag} needs a value")),
            }
        };
        if let Some(name) = arg.strip_prefix("--model=") {
            sources.push(Source::Model(name.to_owned()));
        } else if arg == "--model" {
            let name = take_value("--model");
            sources.push(Source::Model(name));
        } else if let Some(path) = arg.strip_prefix("--json=") {
            json_path = Some(path.to_owned());
        } else if arg == "--json" {
            json_path = Some(take_value("--json"));
        } else if let Some(path) = arg.strip_prefix("--save-ahbt=") {
            save_ahbt = Some(path.to_owned());
        } else if arg == "--save-ahbt" {
            save_ahbt = Some(take_value("--save-ahbt"));
        } else if let Some(path) = arg.strip_prefix("--save-json=") {
            save_json = Some(path.to_owned());
        } else if arg == "--save-json" {
            save_json = Some(take_value("--save-json"));
        } else if let Some(value) = arg.strip_prefix("--top=") {
            options.top_k = parse_u64("--top", value) as usize;
        } else if arg == "--top" {
            let value = take_value("--top");
            options.top_k = parse_u64("--top", &value) as usize;
        } else if let Some(value) = arg.strip_prefix("--window=") {
            options.window = parse_u64("--window", value).max(1);
        } else if arg == "--window" {
            let value = take_value("--window");
            options.window = parse_u64("--window", &value).max(1);
        } else if let Some(value) = arg.strip_prefix("--txns=") {
            txns = Some(parse_u64("--txns", value) as usize);
        } else if arg == "--txns" {
            let value = take_value("--txns");
            txns = Some(parse_u64("--txns", &value) as usize);
        } else if let Some(value) = arg.strip_prefix("--seed=") {
            seed = Some(parse_u64("--seed", value));
        } else if arg == "--seed" {
            let value = take_value("--seed");
            seed = Some(parse_u64("--seed", &value));
        } else if arg == "--list-models" {
            list_models = true;
        } else if arg.starts_with("--") {
            fail_usage(&format!("unknown option '{arg}'"));
        } else {
            sources.push(Source::File(arg));
        }
    }

    let spec = scenario("table2-speed").expect("catalogued speed scenario");
    let mut config = spec.resolve().expect("speed scenario resolves");
    if let Some(txns) = txns {
        config.transactions_per_master = txns;
    }
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if list_models {
        for spec in &MODELS {
            println!("{}", spec.id);
        }
        return;
    }
    if sources.is_empty() {
        fail_usage("no trace source: pass a trace file and/or --model NAME");
    }
    if sources.len() > 2 {
        fail_usage("at most two sources (one report or one A/B diff)");
    }

    let mut saved = false;
    let mut profiles: Vec<(String, Profile)> = Vec::new();
    for source in &sources {
        match source {
            Source::File(path) => {
                profiles.push((path.clone(), profile_file(path, options)));
            }
            Source::Model(name) => {
                let log = run_model(name, &config);
                if !saved {
                    if let Some(path) = &save_ahbt {
                        write_or_die(path, &log.to_binary(), ".ahbt");
                    }
                    if let Some(path) = &save_json {
                        write_or_die(path, log.to_json_lines().as_bytes(), "JSON-lines");
                    }
                    saved = save_ahbt.is_some() || save_json.is_some();
                }
                profiles.push((name.clone(), Profile::from_log(&log, options)));
            }
        }
    }
    if (save_ahbt.is_some() || save_json.is_some()) && !saved {
        fail_usage("--save-ahbt/--save-json need a --model source to capture");
    }

    if profiles.len() == 1 {
        let (label, profile) = &profiles[0];
        println!("trace report — {label}\n");
        print!("{}", profile.format_table());
        if let Some(path) = &json_path {
            write_or_die(path, profile.to_json().as_bytes(), "attribution JSON");
        }
    } else {
        let (label_a, a) = &profiles[0];
        let (label_b, b) = &profiles[1];
        println!("trace diff — A: {label_a}  vs  B: {label_b}\n");
        let diff = ProfileDiff::between(a, b);
        print!("{}", diff.format_table());
        if let Some(path) = &json_path {
            write_or_die(path, diff.to_json().as_bytes(), "diff JSON");
        }
    }
}
