//! Design-space campaign driver: resumable sweeps over the model
//! registry, plus the serving mode.
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin campaign -- <subcommand>
//!
//! run     [--dir DIR] [--models a,b,...] [--seeds 1,2,...]
//!         [--depths 0,2,...] [--ddrs bi,no-bi] [--transactions N]
//!         [--workers N] [--max-points N] [--stride N]
//! resume  [--dir DIR] [--workers N] [--max-points N]
//! report  [--dir DIR] [OUTPUT.json]
//! serve   [--addr HOST:PORT] [--handlers N] [--limit N]
//! ```
//!
//! `run` creates (or idempotently re-opens) a campaign directory holding
//! the default table2 lattice — the `table2-speed` workload crossed with
//! a model axis, a seed axis, a write-buffer-depth axis and a DDR
//! bank-interleaving axis, 64 points by default — and drains every point
//! the journal does not already record. `--max-points` stops the session
//! early (the induced-interrupt path CI exercises); a later `run` with
//! the same flags, or `resume`, completes exactly the remainder. Killing
//! the process — SIGKILL included — is equivalent: the journal is
//! flushed per point, so nothing completed is repeated.
//!
//! `report` aggregates the journal into `BENCH_campaign.json`
//! (schema `ahbplus-bench-campaign/v1`). `serve` answers scenario
//! requests over HTTP — see the `campaign::serve` module docs for the
//! protocol.

use std::path::PathBuf;
use std::process::exit;

use ahbplus::{lookup, scenario, ModelSpec};
use amba::AhbPlusParams;
use campaign::{Campaign, CampaignServer, CampaignSpec, RunOptions};
use ddrc::DdrConfig;

const USAGE: &str = "usage: campaign <run|resume|report|serve> [options]
  run     [--dir DIR] [--models a,b,...] [--seeds 1,2,...]
          [--depths 0,2,...] [--ddrs bi,no-bi] [--transactions N]
          [--workers N] [--max-points N] [--stride N]
  resume  [--dir DIR] [--workers N] [--max-points N]
  report  [--dir DIR] [OUTPUT.json]
  serve   [--addr HOST:PORT] [--handlers N] [--limit N]";

const DEFAULT_DIR: &str = "campaign-table2";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    let subcommand = args.remove(0);
    match subcommand.as_str() {
        "run" => run(&args, false),
        "resume" => run(&args, true),
        "report" => report(&args),
        "serve" => serve(&args),
        other => {
            eprintln!("unknown subcommand '{other}'\n{USAGE}");
            exit(2);
        }
    }
}

/// One `--flag value` / `--flag=value` option walker over the argument
/// list (the `table2_speed` idiom); returns the value or exits 2.
struct Options {
    args: Vec<String>,
    index: usize,
}

impl Options {
    fn new(args: &[String]) -> Options {
        Options {
            args: args.to_vec(),
            index: 0,
        }
    }

    fn next(&mut self) -> Option<String> {
        let arg = self.args.get(self.index).cloned();
        self.index += 1;
        arg
    }

    /// If `arg` is `--name` or `--name=value`, returns its value
    /// (consuming the following argument in the two-token form).
    fn value_of(&mut self, arg: &str, name: &str) -> Option<String> {
        if let Some(value) = arg.strip_prefix(&format!("--{name}=")) {
            return Some(value.to_owned());
        }
        if arg == format!("--{name}") {
            let Some(value) = self.next() else {
                eprintln!("--{name} needs a value");
                exit(2);
            };
            return Some(value);
        }
        None
    }
}

fn parse_or_exit<T: std::str::FromStr>(value: &str, what: &str) -> T {
    match value.parse() {
        Ok(parsed) => parsed,
        Err(_) => {
            eprintln!("bad {what} '{value}'");
            exit(2);
        }
    }
}

fn parse_list<T: std::str::FromStr>(value: &str, what: &str) -> Vec<T> {
    value
        .split(',')
        .map(|item| parse_or_exit(item.trim(), what))
        .collect()
}

fn parse_models(value: &str) -> Vec<&'static ModelSpec> {
    value
        .split(',')
        .map(|id| {
            lookup(id.trim()).unwrap_or_else(|error| {
                eprintln!("{error}");
                exit(2);
            })
        })
        .collect()
}

fn parse_ddrs(value: &str) -> Vec<(String, DdrConfig)> {
    value
        .split(',')
        .map(|name| match name.trim() {
            "bi" => ("bi".to_owned(), DdrConfig::ahb_plus()),
            "no-bi" => ("no-bi".to_owned(), DdrConfig::without_interleaving()),
            other => {
                eprintln!("unknown DDR variant '{other}' (known: bi, no-bi)");
                exit(2);
            }
        })
        .collect()
}

/// The default table2 design-space lattice: 2 models × 4 seeds × 4
/// write-buffer depths × 2 DDR variants = 64 points.
fn build_spec(
    models: Vec<&'static ModelSpec>,
    seeds: Vec<u64>,
    depths: Vec<usize>,
    ddrs: Vec<(String, DdrConfig)>,
    transactions: usize,
    stride: Option<u64>,
) -> CampaignSpec {
    let base = scenario("table2-speed")
        .expect("catalogued speed scenario")
        .with_transactions(transactions);
    let mut spec = CampaignSpec::new("table2-sweep").with_scenario(base);
    for model in models {
        spec = spec.with_model(model);
    }
    spec = spec.with_seeds(seeds);
    for depth in depths {
        spec = spec.with_params_variant(
            &format!("wb{depth}"),
            AhbPlusParams::ahb_plus().with_write_buffer_depth(depth),
        );
    }
    for (name, ddr) in ddrs {
        spec = spec.with_ddr_variant(&name, ddr);
    }
    if let Some(stride) = stride {
        spec = spec.with_snapshot_stride(stride);
    }
    spec
}

fn run(args: &[String], resume_only: bool) {
    let mut dir = PathBuf::from(DEFAULT_DIR);
    let mut models = parse_models("tlm,lt");
    let mut seeds: Vec<u64> = vec![2005, 2006, 2007, 2008];
    let mut depths: Vec<usize> = vec![0, 2, 4, 8];
    let mut ddrs = parse_ddrs("bi,no-bi");
    let mut transactions = 1000usize;
    let mut stride: Option<u64> = None;
    let mut options = RunOptions::default();
    let mut walker = Options::new(args);
    while let Some(arg) = walker.next() {
        if let Some(value) = walker.value_of(&arg, "dir") {
            dir = PathBuf::from(value);
        } else if let Some(value) = walker.value_of(&arg, "workers") {
            options.workers = parse_or_exit(&value, "worker count");
        } else if let Some(value) = walker.value_of(&arg, "max-points") {
            options.max_points = Some(parse_or_exit(&value, "point budget"));
        } else if resume_only {
            eprintln!("unknown option '{arg}' for resume\n{USAGE}");
            exit(2);
        } else if let Some(value) = walker.value_of(&arg, "models") {
            models = parse_models(&value);
        } else if let Some(value) = walker.value_of(&arg, "seeds") {
            seeds = parse_list(&value, "seed");
        } else if let Some(value) = walker.value_of(&arg, "depths") {
            depths = parse_list(&value, "write-buffer depth");
        } else if let Some(value) = walker.value_of(&arg, "ddrs") {
            ddrs = parse_ddrs(&value);
        } else if let Some(value) = walker.value_of(&arg, "transactions") {
            transactions = parse_or_exit(&value, "transaction count");
        } else if let Some(value) = walker.value_of(&arg, "stride") {
            stride = Some(parse_or_exit(&value, "snapshot stride"));
        } else {
            eprintln!("unknown option '{arg}'\n{USAGE}");
            exit(2);
        }
    }

    let campaign = if resume_only {
        match Campaign::open(&dir) {
            Ok(campaign) => campaign,
            Err(error) => {
                eprintln!("{error}");
                exit(2);
            }
        }
    } else {
        let spec = build_spec(models, seeds, depths, ddrs, transactions, stride);
        match Campaign::create(&dir, spec) {
            Ok(campaign) => campaign,
            Err(error) => {
                eprintln!("{error}");
                exit(2);
            }
        }
    };
    println!(
        "campaign '{}' ({} lattice points, spec hash {}) in {}",
        campaign.spec().name,
        campaign.spec().point_count(),
        campaign.spec().spec_hash(),
        campaign.dir().display()
    );
    let summary = match campaign.run(options) {
        Ok(summary) => summary,
        Err(error) => {
            eprintln!("campaign run failed: {error}");
            exit(1);
        }
    };
    println!(
        "session done: {} simulated, {} from cache, {} still pending \
         ({} workers, {:.3}s wall)",
        summary.executed,
        summary.cached,
        summary.remaining,
        summary.workers,
        summary.wall_micros as f64 / 1e6
    );
    if summary.remaining > 0 {
        println!("resume with: campaign resume --dir {}", dir.display());
    }
}

fn report(args: &[String]) {
    let mut dir = PathBuf::from(DEFAULT_DIR);
    let mut output_path = "BENCH_campaign.json".to_owned();
    let mut walker = Options::new(args);
    while let Some(arg) = walker.next() {
        if let Some(value) = walker.value_of(&arg, "dir") {
            dir = PathBuf::from(value);
        } else if arg.starts_with("--") {
            eprintln!("unknown option '{arg}'\n{USAGE}");
            exit(2);
        } else {
            output_path = arg;
        }
    }
    let campaign = match Campaign::open(&dir) {
        Ok(campaign) => campaign,
        Err(error) => {
            eprintln!("{error}");
            exit(2);
        }
    };
    let record = match campaign.report() {
        Ok(record) => record,
        Err(error) => {
            eprintln!("campaign report failed: {error}");
            exit(1);
        }
    };
    println!(
        "campaign '{}': {} points, {} pending",
        record.campaign,
        record.points.len(),
        record.pending()
    );
    for session in &record.sessions {
        println!(
            "  session: {} workers, {} simulated, {} cached, {:.3}s wall",
            session.workers,
            session.executed,
            session.cached,
            session.wall_micros as f64 / 1e6
        );
    }
    match std::fs::write(&output_path, record.to_json()) {
        Ok(()) => println!("wrote {output_path}"),
        Err(error) => {
            eprintln!("failed to write {output_path}: {error}");
            exit(1);
        }
    }
}

fn serve(args: &[String]) {
    let mut addr = "127.0.0.1:8093".to_owned();
    let mut handlers = 2usize;
    let mut limit: Option<usize> = None;
    let mut walker = Options::new(args);
    while let Some(arg) = walker.next() {
        if let Some(value) = walker.value_of(&arg, "addr") {
            addr = value;
        } else if let Some(value) = walker.value_of(&arg, "handlers") {
            handlers = parse_or_exit(&value, "handler count");
        } else if let Some(value) = walker.value_of(&arg, "limit") {
            limit = Some(parse_or_exit(&value, "connection limit"));
        } else {
            eprintln!("unknown option '{arg}'\n{USAGE}");
            exit(2);
        }
    }
    let server = match CampaignServer::bind(&addr) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to bind {addr}: {error}");
            exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("serving on http://{bound} ({handlers} handlers)"),
        Err(_) => println!("serving on {addr} ({handlers} handlers)"),
    }
    if let Err(error) = server.serve(handlers, limit) {
        eprintln!("serve loop failed: {error}");
        exit(1);
    }
}
