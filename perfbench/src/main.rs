//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! It measures the paper's two claims as a user meets them: how fast the
//! models simulate (host time), and how close the faster models stay to the
//! pin-accurate one (simulated time). It also measures the campaign server
//! that serves runs, and it times each layer of a run from outside. It
//! drives the system only through public APIs and changes no crate.
//!
//! It is a package of its own (empty `[workspace]` table, path
//! dependencies, a copy of the repository's release profile), so it builds
//! without touching the repository's manifests. Its unit tests therefore
//! run with its own manifest, not with the repository's `cargo test`.
//!
//! # Command lines
//!
//! ```text
//! # One workload. The last line of stdout is the result.
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat-a-tlm [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! # Every workload, each in a fresh child process; writes a result file.
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! # The no-regression rule over two sets of result files.
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     compare BASE.json... -- CHANGE.json...
//! # Unit tests, including a tiny debug-build run of every workload.
//! cargo test --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Defaults: seed 2005, 12 s of measurement per workload, tracing off. The
//! result file defaults to `perfbench/results.json` under
//! `$CARGO_TARGET_DIR`, or under the package's own `target/`.
//!
//! With `--workload`, a report goes to stderr. Stdout gets the workload's
//! record (sizes, reps, checks, metrics, exact simulated counters), then
//! the result line `{"correct", "attempted", "failed", "metrics"}`. The
//! result line holds every end-to-end metric with `--trace 0` and every
//! per-layer metric with `--trace 1`, each with its unit. A result file
//! (`--out`, or the run over every workload) adds the host context:
//! `host.cores`, `host.threaded` (the threading choice that
//! `ahbplus::speed::standard_models()` makes), the seed and the seconds.
//!
//! Held-out seed: a change that claims a gain is written against the
//! default seed, and the claim must also hold with `--seed 7`.
//!
//! # Workloads
//!
//! Each simulation workload measures one registered model, so every
//! model's throughput is its own (workload, metric) pair and a slowdown in
//! any one of them moves an end-to-end metric by its full size.
//!
//! | workload | model | size per rep | why |
//! |---|---|---|---|
//! | `flat-a-rtl` | `rtl` | pattern `a` (4 masters), 25,000 txns/master, ≈3.0M cycles | The pin-accurate reference: the slow end of the paper's speed claim, and the model `tlm` and `lt` are checked against. |
//! | `flat-a-tlm` | `tlm` | same | The paper's TLM. DDR timing and write-buffer work are a large share of each transaction. |
//! | `flat-a-lt` | `lt` | same | The loosely-timed model: no arbitration filter chain, so it bypasses what `many-64` stresses. |
//! | `many-64` | `tlm` | pattern `many-64`, 4,000 txns/master (256k txns) | The same per-master mix with 64 masters. The arbitration filter chain and the ready set become the critical path; DDR work per transaction stays the same. |
//! | `sharded-4x4` | `sharded-tlm-4x4` | `pattern_shards(4, 4, LocalHeavy)`, 5,000 txns/master (80k txns) | Four buses on `ahb_multi` with fixed-quantum barriers, under the registry's threading policy. |
//! | `sharded-4x4-la` | `sharded-tlm-la-4x4` | same traffic | The adaptive-lookahead schedule: fewer barriers and identical results, so the gap to `sharded-4x4` is barrier cost. |
//! | `sharded-4x4-bridge` | `sharded-tlm-4x4-bridge` | `pattern_shards(4, 4, BridgeHeavy)`, same size | The exchange path: bridge FIFOs carry most transactions. |
//! | `serve-traced` | `tlm` behind `campaign::CampaignServer` | windows of 125 closed-loop `POST /run` requests, `table2-speed` at 1,000 txns/master with `"trace": true` | The only workload with tracing on and the only server: HTTP, canonical-JSON parsing, model build, tracing, `analysis::profile` and ndjson streaming in every request. Request *i* uses seed `--seed + i`, so a response cache cannot help. |
//!
//! Models come from `standard_models()` by registry name, and each rep
//! builds a fresh model. The serve load uses `min(2, cores)` client
//! threads and connections against as many server handlers, one in-process
//! server per window. Measurement repeats reps or windows (at least 5)
//! until `--seconds` have passed.
//!
//! Every operation is checked, and a failed check is printed and counted
//! in `failed`; the run never aborts. The checks: every run completes its
//! whole workload, and its `probe()` equals rep 0's (traced twins
//! included). Outside the timed loop a companion model runs once: on the
//! `flat-a` workloads `tlm` and `lt` must give the same results as `rtl`
//! (`Probe::results_match`), and `sharded-tlm-la-4x4` must give a probe
//! identical to `sharded-tlm-4x4`'s. Every serve response must be HTTP 200
//! with exactly one report line, last. That line must report every
//! transaction, and its `trace_events` must equal the number of streamed
//! trace lines.
//!
//! # End-to-end metrics (tracing off)
//!
//! Every workload reports all four, and `BENCHMARK.json` fixes one bound
//! per metric for every workload.
//!
//! | metric | unit | definition | bound |
//! |---|---|---|---|
//! | `setup_s` | s | Simulation: median `ModelSpec::build` time over every rep. Serve: median time from binding a fresh server to the end of its first `/run` response, one cold start per window. | 25% |
//! | `kcps` | Kcycles/s | Simulation: simulated cycles ÷ the block-best host seconds of `run_until(Cycle::MAX)`. Multi-bus models count bus-cycles summed over shards, as `BENCH_speed.json` does. Serve: simulated cycles served per wall second, block-best window. | 25% |
//! | `latency_ms` | ms | Simulation: the block-best run. Serve: client-side p50 latency, from connect to EOF, block-best window (n = 125 per window). | 25% |
//! | `peak_rss_mb` | MB | Simulation: `VmHWM` right after rep 0, what one build and run of the model needs in a fresh process. Serve: `VmHWM` when the last window ends, before the direct runs and the traced pass. | 10% |
//!
//! Failed checks are not a metric; they are `failed` out of `attempted`.
//!
//! *Block-best*: the samples of a run, in the order taken, are split into
//! five consecutive blocks, and the figure is the median of each block's
//! best. Inside one invocation on a 2-vCPU shared VM, single runs of the
//! same model differ by up to 2× with the neighbours' load, so a median of
//! all reps follows that load; a plain best-of instead follows the one
//! short stretch in which the host ran fastest. Over two sets of ten 8 s
//! invocations, the spread (quartile distance over median) of the best-of
//! `latency_ms` reached 8.8% on `many-64` and 7.1% on `flat-a-tlm`; the
//! block-best figure from the same samples stayed at or below 4.8% on
//! every simulation workload and 5.8% for serve throughput.
//!
//! `BENCHMARK.json` holds one bound per metric, applied to every
//! workload, so no workload can have a tighter bound of its own. Five sets
//! of ten invocations on that VM (ten seeds each; 10 s runs in the first
//! set, 12 s in the others) gave these spreads of `kcps`, in percent
//! (`latency_ms` stays within 0.5 points of it on the simulation
//! workloads; serve `latency_ms` is given after the slash):
//!
//! | workload | set 1 | set 2 | set 3 | set 4 | set 5 |
//! |---|---|---|---|---|---|
//! | `flat-a-rtl` | 9.1 | 3.6 | 0.8 | 3.7 | 5.3 |
//! | `flat-a-tlm` | 0.8 | 1.6 | 4.8 | 5.4 | 0.5 |
//! | `flat-a-lt` | 5.8 | 2.6 | 2.9 | 8.6 | 0.5 |
//! | `many-64` | 3.6 | 3.3 | 3.0 | 1.3 | 3.5 |
//! | `sharded-4x4` | 6.6 | 3.7 | 4.5 | 2.4 | 16.0 |
//! | `sharded-4x4-la` | 1.9 | 3.0 | 1.8 | 3.5 | 4.3 |
//! | `sharded-4x4-bridge` | 6.4 | 4.3 | 3.8 | 5.7 | 5.7 |
//! | `serve-traced` | 7.2 / 4.6 | 3.6 / 3.2 | 2.1 / 1.3 | 21.8 / 17.0 | 5.4 / 3.1 |
//!
//! In calm sets every spread stayed under 7%, no workload being steadier
//! than the rest in every set. The larger figures come from sets that ran
//! while the host slowed for a minute or more (five consecutive serve
//! invocations lost 20% of their throughput in set 4). In such periods
//! this VM also ran models 20–50% slower for minutes at a time; no
//! statistic inside one run removes that, so the bound has to let those
//! sets pass. Sets 4 and 5 used the same ten seeds, and `perfbench
//! compare` rated every (workload, metric) pair `Within`, except serve
//! `setup_s` (`Unresolved`: its spread in set 4 was 28%); their medians
//! differed by at most 10.7% (`flat-a-lt` `latency_ms`), and every
//! simulated counter was identical. `peak_rss_mb` spread at most 1.9%, and
//! `setup_s` up to 38%; a median of set-up samples is what the run
//! reports, and its bound is the largest allowed.
//!
//! Baseline medians on that VM (`host.cores` 2, `host.threaded` true;
//! sets 4 and 5, twenty invocations on seeds 401–410):
//!
//! | workload | `setup_s` | `kcps` | `latency_ms` | `peak_rss_mb` |
//! |---|---|---|---|---|
//! | `flat-a-rtl` | 0.0054 | 22,201 | 135.1 | 7.61 |
//! | `flat-a-tlm` | 0.0062 | 305,880 | 9.81 | 7.60 |
//! | `flat-a-lt` | 0.0062 | 670,410 | 4.48 | 7.62 |
//! | `many-64` | 0.0183 | 24,051 | 141.0 | 14.83 |
//! | `sharded-4x4` | 0.0060 | 23,406 | 102.5 | 10.15 |
//! | `sharded-4x4-la` | 0.0049 | 61,632 | 38.9 | 10.11 |
//! | `sharded-4x4-bridge` | 0.0059 | 22,059 | 108.8 | 12.00 |
//! | `serve-traced` | 0.0041 | 54,602 | 3.72 | 10.76 |
//!
//! # Per-layer metrics (tracing on)
//!
//! The traced pass repeats the workload's runs and adds measurements that
//! only it makes. A per-layer metric that a workload does not exercise
//! reads 0. The last column names the end-to-end metric each should move.
//!
//! | metric | layer | measured from outside | moves |
//! |---|---|---|---|
//! | `traffic.expand_ms`, `traffic.items` | `traffic` | median `TrafficPattern::expand` of the model's traffic | `setup_s` everywhere; part of each serve request |
//! | `build.construct_ms` | backend constructors | median build − median expansion | `setup_s` |
//! | `run.ns_per_txn` | `ahb_rtl`/`ahb_tlm`/`ahb_lt`/`ahb_multi` run loops | host ns per transaction of the block-best run (serve: best of 3 direct runs) | `latency_ms`, `kcps` |
//! | `ddrc.ns_per_access` | `ddrc` | each bus's expanded transactions, round-robin by master, through that bus's own fresh `DdrController` (`prepare` the next, then `access`), best of 5 | `kcps`, `latency_ms`: about a fifth of a `flat-a-tlm` transaction, under 5% on `many-64` |
//! | `arbiter.ns_per_decision` | `amba::arbitration` via `TlmArbiter` | `decide` + `record_grant` with every master of a bus pending, one arbiter per bus, best of 5 | `many-64` most; none on `flat-a-lt`, which has no filter chain |
//! | `trace.overhead_pct` | tracer seams | 1 − best of 5 paired plain/traced time ratios of the model | serve `latency_ms`; nothing elsewhere (tracing is off) |
//! | `trace.events`, `trace.take_ms`, `profile.build_ms`, `trace.jsonl_ms`, `tracebin.encode_ms`, `tracebin.bytes_per_event` | `analysis::{trace, profile, tracebin}` | `take_trace`, `Profile::from_log`, `to_json_lines` and `to_binary` on one traced run | serve `latency_ms`, `kcps` |
//! | `sim.cycles`, `sim.transactions`, `sim.busy_cycles`, `ddrc.accesses`, `ddrc.hit_rate`, `write_buffer.absorbed`, `write_buffer.drained`, `bridge.crossings` | simulated counters | rep 0's `probe()` | must stay bit-identical after a host-speed-only change |
//! | `profile.*_cycles` (8 components), `txn.latency_p50_cycles`, `txn.latency_p99_cycles` | `analysis::profile` (simulated attribution) | `profile.overall` of the traced run | same |
//! | `accuracy.latency_err_pct` | model fidelity | `flat-a-tlm`, `flat-a-lt`: mean over masters of \|avg latency − `rtl` avg latency\| ÷ `rtl` avg latency | changes only with fidelity; the other workloads have no `rtl` reference |
//! | `sync.barriers`, `sync.stretched`, `sync.mean_quantum` | `ahb_multi::sync` | the model's `sync_stats()` | sharded `kcps` |
//! | `sync.us_per_barrier` | `ahb_multi::sync` | `sharded-4x4-la`: (best fixed − best lookahead run) ÷ barriers removed, over 5 alternating pairs. Both schedules give identical results, so the gap is barrier cost. | `sharded-4x4` `kcps` most, `sharded-4x4-la` less; no effect elsewhere |
//! | `bridge.us_per_crossing` | `ahb_multi::link` | `sharded-4x4-bridge`: (best bridge-heavy − best local-heavy run) ÷ extra crossings, over 5 alternating pairs | `sharded-4x4-bridge` `kcps` |
//! | `serve.req_per_s`, `serve.response_kb` | `campaign::serve` | requests ÷ window wall time, mean response size, over the run | serve `kcps` |
//! | `serve.tail_ratio` | `campaign::serve` | p99 ÷ p50 latency over every request of the run (the guide's highest percentile with ten samples beyond it per thousand) | serve `latency_ms` |
//! | `serve.ttfb_share_pct`, `serve.server_share_pct` | `campaign::serve` | p50 time to first byte (parse, resolve and build: headers go out before the run), and p50 of the report line's `wall_micros` (run, profile, event lines), each ÷ p50 latency | serve `latency_ms` |
//!
//! With `--trace 1` the benchmark also records spans in its own code: each
//! rep, build and run, the companion, each layer measurement, each serve
//! window, cold start and request (one thread id per client). Each span
//! has a name, start, end and parent. At exit they are written as
//! Chrome-trace JSON to `perfbench/spans-<workload>.json` beside the result
//! file (it loads in <https://ui.perfetto.dev>), and a table of count,
//! total and self time per span name goes to stderr. End-to-end numbers of
//! a traced run are not comparable, and its result file says so.

mod compare;
mod json;
mod layers;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use analysis::jsonfmt::{escape_json, json_f64};
use analysis::{Probe, PROBE_FIELDS};

use crate::serve::ServeWorkload;
use crate::sim::SimWorkload;
use crate::spans::Spans;

/// The benchmark's declaration: workloads, metrics, units and bounds.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The workloads, in the order an invocation without `--workload` runs
/// them.
pub const WORKLOADS: [&str; 8] = [
    "flat-a-rtl",
    "flat-a-tlm",
    "flat-a-lt",
    "many-64",
    "sharded-4x4",
    "sharded-4x4-la",
    "sharded-4x4-bridge",
    "serve-traced",
];

const DEFAULT_SEED: u64 = 2005;
const DEFAULT_SECONDS: f64 = 12.0;

/// What one workload invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Size and repetition counts, for the result file.
    pub size: Vec<(&'static str, u64)>,
    /// Exact simulated counters per model, for `compare`.
    pub sim: Vec<(String, Probe)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Counts one operation; any problem makes it a failed one, and each
    /// is printed. The run goes on either way.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                eprintln!("perfbench: check failed: {problem}");
            }
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The parsed declaration.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<(String, String)>,
}

pub fn declared() -> Declared {
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    let text = |v: &json::Json, key| {
        v.get(key)
            .and_then(json::Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let list = |key| doc.get(key).map(json::Json::as_array).unwrap_or_default();
    Declared {
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| EndToEnd {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: text(m, "better") == "higher",
                bound: m.get("bound").and_then(json::Json::as_f64).unwrap_or(0.0),
            })
            .collect(),
        per_layer: list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect(),
    }
}

/// Workload sizes: the benchmark's, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Runs one workload in this process; `None` for an unknown name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    spans: &mut Spans,
) -> Option<Outcome> {
    let size = |full: usize, tiny: usize| if scale == Scale::Full { full } else { tiny };
    let flat_a = |model| SimWorkload::flat_a(model, size(25_000, 40), seed);
    let sharded = |model| SimWorkload::sharded_4x4(model, size(5_000, 20), seed);
    let workload = match name {
        "flat-a-rtl" => flat_a("rtl"),
        "flat-a-tlm" => flat_a("tlm"),
        "flat-a-lt" => flat_a("lt"),
        "many-64" => SimWorkload::many_64(size(4_000, 8), seed),
        "sharded-4x4" => sharded("sharded-tlm-4x4"),
        "sharded-4x4-la" => sharded("sharded-tlm-la-4x4"),
        "sharded-4x4-bridge" => sharded("sharded-tlm-4x4-bridge"),
        "serve-traced" => {
            let workload = ServeWorkload {
                window: size(125, 4),
                transactions_per_master: size(1_000, 10),
                seed,
            };
            return Some(serve::run(&workload, seconds, traced, spans));
        }
        _ => return None,
    };
    Some(sim::run(&workload, seconds, traced, spans))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sets `peak_rss_mb` to the process's high-water mark so far; each
/// workload calls it where the metric's definition says.
pub fn record_peak_rss(outcome: &mut Outcome) {
    match peak_rss_mb() {
        Some(mb) => outcome.set("peak_rss_mb", mb),
        None => outcome.op(vec!["cannot read VmHWM from /proc/self/status".to_owned()]),
    }
}

/// The metrics an invocation reports: every end-to-end metric with tracing
/// off, every per-layer metric with it on. A per-layer metric the workload
/// does not exercise reads 0; an end-to-end metric that was not measured
/// is a failed check.
fn reported(outcome: &mut Outcome, traced: bool) -> Vec<(String, String, f64)> {
    let declared = declared();
    let wanted: Vec<(String, String, bool)> = if traced {
        declared
            .per_layer
            .into_iter()
            .map(|(name, unit)| (name, unit, false))
            .collect()
    } else {
        declared
            .end_to_end
            .into_iter()
            .map(|m| (m.name, m.unit, true))
            .collect()
    };
    let mut problems = Vec::new();
    let rows = wanted
        .into_iter()
        .map(|(name, unit, required)| {
            let value = match outcome.metrics.get(&name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("{name} measured as {v}"));
                    0.0
                }
                None => {
                    if required {
                        problems.push(format!("{name} was not measured"));
                    }
                    0.0
                }
            };
            (name, unit, value)
        })
        .collect();
    if !problems.is_empty() {
        outcome.op(problems);
    }
    rows
}

fn metrics_json(rows: &[(String, String, f64)]) -> String {
    let members: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape_json(name),
                json_f64(*value),
                escape_json(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The one-line record of a workload inside a result file.
fn record_json(workload: &str, outcome: &Outcome, rows: &[(String, String, f64)]) -> String {
    let size: Vec<String> = outcome
        .size
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    let sim: Vec<String> = outcome
        .sim
        .iter()
        .map(|(model, probe)| {
            let fields: Vec<String> = PROBE_FIELDS
                .iter()
                .map(|(field, get)| format!("\"{field}\": {}", get(probe)))
                .collect();
            format!("\"{}\": {{{}}}", escape_json(model), fields.join(", "))
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"size\": {{{}}}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}, \"sim\": {{{}}}}}",
        size.join(", "),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(rows),
        sim.join(", ")
    )
}

/// Whether the registered sharded models run threaded here: the policy of
/// `ahbplus::speed::standard_models()` (worker threads whenever the host
/// has more than one core), which the registry does not expose. This rule
/// must stay in step with the `threaded` line of `standard_models()` in
/// `crates/core/src/speed.rs`.
fn host_threaded() -> bool {
    std::thread::available_parallelism().is_ok_and(|p| p.get() > 1)
}

fn result_file(seed: u64, seconds: f64, traced: bool, records: &[String]) -> String {
    format!(
        "{{\"schema\": \"perfbench/v1\", \"host\": {{\"cores\": {}, \"threaded\": {}}}, \
         \"seed\": {seed}, \"seconds\": {}, \"trace\": {traced}, \"comparable\": {}, \
         \"workloads\": [\n{}\n]}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        host_threaded(),
        json_f64(seconds),
        !traced,
        records.join(",\n")
    )
}

/// Where spans and default result files go: `$CARGO_TARGET_DIR/perfbench`
/// when set (relative to the working directory, as cargo reads it), else
/// the package's own `target/perfbench`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench")
}

fn write_file(path: &PathBuf, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE]\n       perfbench compare BASE.json... -- CHANGE.json...";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (workloads: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                options.workload = Some(name.clone());
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number from 0 to 600")?;
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

/// One workload in this process: a report on stderr, the workload record
/// and then the result line on stdout.
fn run_one(name: &str, options: &Options) -> Result<(), String> {
    let mut spans = Spans::new(options.traced);
    let root = spans.enter("workload");
    let mut outcome = run_workload(
        name,
        options.seed,
        options.seconds,
        options.traced,
        Scale::Full,
        &mut spans,
    )
    .expect("workload names are validated");
    spans.exit(root);
    let rows = reported(&mut outcome, options.traced);
    let mut report = format!(
        "perfbench {name}: seed {}, {} operations, {} failed{}\n",
        options.seed,
        outcome.attempted,
        outcome.failed,
        if options.traced {
            " (traced run: end-to-end numbers are not comparable)"
        } else {
            ""
        }
    );
    for (metric, unit, value) in &rows {
        let _ = writeln!(report, "  {metric:<36} {value:>16.4} {unit}");
    }
    eprint!("{report}");
    if options.traced {
        let path = out_dir().join(format!("spans-{name}.json"));
        write_file(&path, &spans.to_chrome_json())?;
        eprintln!("wrote {} ({} spans)", path.display(), spans.spans().len());
        eprint!("{}", spans.format_table());
    }
    let record = record_json(name, &outcome, &rows);
    if let Some(path) = &options.out {
        write_file(
            path,
            &result_file(
                options.seed,
                options.seconds,
                options.traced,
                std::slice::from_ref(&record),
            ),
        )?;
    }
    println!("{record}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&rows)
    );
    Ok(())
}

/// Every workload, each in a fresh child process of this binary (its own
/// peak RSS, no allocator state carried over), one after another.
fn run_all(options: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut failed = 0;
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = stdout
            .lines()
            .find(|l| l.starts_with("{\"workload\""))
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("{name}: child exited with {}", output.status))?;
        let parsed = json::parse(record).map_err(|e| format!("{name}: {e}"))?;
        failed += parsed
            .get("failed")
            .and_then(json::Json::as_f64)
            .unwrap_or(1.0) as u64;
        records.push(record.to_owned());
    }
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    write_file(
        &path,
        &result_file(options.seed, options.seconds, options.traced, &records),
    )?;
    println!("wrote {} ({failed} failed checks)", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::run(&args[1..]) as u8);
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match options.workload.clone() {
        Some(name) => run_one(&name, &options),
        None => run_all(&options),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_workloads_match_the_runner() {
        assert_eq!(declared().workloads, WORKLOADS);
    }

    #[test]
    fn tiny_smoke_run_emits_exactly_the_declared_metrics() {
        let declared = declared();
        let e2e: BTreeSet<String> = declared.end_to_end.iter().map(|m| m.name.clone()).collect();
        let per_layer: BTreeSet<String> =
            declared.per_layer.iter().map(|(n, _)| n.clone()).collect();
        let mut produced = BTreeSet::new();
        for workload in WORKLOADS {
            let mut spans = Spans::new(true);
            let mut outcome = run_workload(workload, 11, 0.0, true, Scale::Tiny, &mut spans)
                .expect("declared workload runs");
            assert_eq!(outcome.failed, 0, "{workload}: checks failed");
            assert!(outcome.attempted > 0, "{workload}");
            for name in outcome.metrics.keys() {
                assert!(
                    e2e.contains(name) || per_layer.contains(name),
                    "{workload} measures undeclared metric '{name}'"
                );
            }
            for name in &e2e {
                let value = outcome.metrics.get(name).copied();
                assert!(
                    value.is_some_and(|v| v.is_finite() && v != 0.0),
                    "{workload}: end-to-end metric {name} = {value:?}"
                );
            }
            let traced: Vec<String> = reported(&mut outcome, true)
                .into_iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(
                traced,
                declared
                    .per_layer
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>()
            );
            let plain: Vec<String> = reported(&mut outcome, false)
                .into_iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(
                plain,
                declared
                    .end_to_end
                    .iter()
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>()
            );
            assert_eq!(outcome.failed, 0, "{workload}: a metric is missing");
            assert!(!spans.spans().is_empty());
            produced.extend(outcome.metrics.into_keys());
        }
        let unmeasured: Vec<_> = per_layer.difference(&produced).collect();
        assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
    }

    #[test]
    fn options_reject_bad_input() {
        let parse = |args: &[&str]| {
            parse_options(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
        };
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        let ok = parse(&[
            "--workload",
            "many-64",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload.as_deref(), Some("many-64"));
        assert_eq!((ok.seed, ok.seconds, ok.traced), (7, 1.0, true));
    }
}
