//! Per-layer measurements that only the traced pass (`--trace 1`) makes.
//!
//! Each one times a single layer from outside, through its public API, on
//! the workload's own model and traffic: traffic expansion versus
//! the rest of construction, a DDR-controller replay, an arbiter replay,
//! paired traced/plain runs for the tracer seams, and the trace tooling
//! (`take_trace`, `analysis::profile`, JSON lines, `.ahbt` encoding).

use std::hint::black_box;
use std::time::Instant;

use ahb_tlm::arbiter::PendingRequest;
use ahb_tlm::TlmArbiter;
use ahbplus::speed::ModelSpec;
use ahbplus::{BusModel, DdrController, PlatformConfig, Probe};
use amba::txn::TxnArena;
use analysis::profile::{Profile, ProfileOptions};
use analysis::TraceLog;
use simkern::time::Cycle;
use traffic::{TrafficPattern, TrafficTrace};

use crate::spans::Spans;
use crate::stats;
use crate::Outcome;

/// Samples behind each median (expansion and builds) and best-of
/// (replays, traced/plain pairs).
const SAMPLES: usize = 5;
/// Upper bound on replayed arbitration decisions, over all buses.
const MAX_DECISIONS: usize = 200_000;

pub fn measure(
    spec: &ModelSpec,
    config: &PlatformConfig,
    patterns: &[TrafficPattern],
    reference: &Probe,
    outcome: &mut Outcome,
    spans: &mut Spans,
) {
    let layers = spans.enter("layers");
    let traces = expand_and_construct(spec, config, patterns, outcome, spans);
    ddrc_replay(config, &traces, outcome, spans);
    arbiter_replay(config, patterns, &traces, outcome, spans);
    let log = traced_twins(spec, config, reference, outcome, spans);
    trace_tooling(&log, outcome, spans);
    spans.exit(layers);
}

/// `traffic.expand_ms` and `build.construct_ms`: the build that `setup_s`
/// times, split into traffic expansion and everything else. Returns the
/// expanded traces, one list per bus.
fn expand_and_construct(
    spec: &ModelSpec,
    config: &PlatformConfig,
    patterns: &[TrafficPattern],
    outcome: &mut Outcome,
    spans: &mut Spans,
) -> Vec<Vec<TrafficTrace>> {
    let mut expand_s = Vec::new();
    let mut build_s = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SAMPLES {
        let span = spans.enter("traffic.expand");
        let start = Instant::now();
        let expanded: Vec<Vec<_>> = patterns
            .iter()
            .map(|p| p.expand(config.transactions_per_master, config.seed))
            .collect();
        expand_s.push(start.elapsed().as_secs_f64());
        spans.exit(span);
        traces = expanded
            .into_iter()
            .map(|bus| bus.into_iter().map(|(trace, ..)| trace).collect())
            .collect();

        let span = spans.enter("build");
        let start = Instant::now();
        let model = spec.build(config);
        build_s.push(start.elapsed().as_secs_f64());
        spans.exit(span);
        drop(model);
    }
    let expand = stats::median(&expand_s).expect("sampled");
    let build = stats::median(&build_s).expect("sampled");
    outcome.set("traffic.expand_ms", expand * 1e3);
    outcome.set("build.construct_ms", (build - expand) * 1e3);
    outcome.set(
        "traffic.items",
        traces
            .iter()
            .flatten()
            .map(TrafficTrace::len)
            .sum::<usize>() as f64,
    );
    traces
}

/// `ddrc.ns_per_access`: each bus's expanded transactions, round-robin by
/// master, through that bus's own fresh controller — the next access's
/// prepare hint, then the access itself, as the Bus Interface issues them.
fn ddrc_replay(
    config: &PlatformConfig,
    buses: &[Vec<TrafficTrace>],
    outcome: &mut Outcome,
    spans: &mut Spans,
) {
    let streams: Vec<Vec<_>> = buses
        .iter()
        .map(|traces| {
            let longest = traces.iter().map(TrafficTrace::len).max().unwrap_or(0);
            (0..longest)
                .flat_map(|i| traces.iter().filter_map(move |t| t.items().get(i)))
                .map(|item| (item.txn.addr, item.txn.is_write(), item.txn.beats()))
                .collect()
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let span = spans.enter("ddrc.replay");
        let start = Instant::now();
        for accesses in &streams {
            let mut ddr = DdrController::new(config.ddr);
            let mut now = Cycle::ZERO;
            for (k, &(addr, is_write, beats)) in accesses.iter().enumerate() {
                if let Some(&(next, ..)) = accesses.get(k + 1) {
                    ddr.prepare(now, next);
                }
                now += ddr.access(now, addr, is_write, beats).total();
            }
            black_box(now);
        }
        best = best.min(start.elapsed().as_secs_f64());
        spans.exit(span);
    }
    let accesses: usize = streams.iter().map(Vec::len).sum();
    outcome.set("ddrc.ns_per_access", best * 1e9 / accesses.max(1) as f64);
}

/// `arbiter.ns_per_decision`: each bus's filter chain deciding among every
/// master of that bus at once, each grant re-raising the winner's request.
fn arbiter_replay(
    config: &PlatformConfig,
    patterns: &[TrafficPattern],
    buses: &[Vec<TrafficTrace>],
    outcome: &mut Outcome,
    spans: &mut Spans,
) {
    let ddr = DdrController::new(config.ddr);
    let mut arena = TxnArena::new();
    let per_bus = (MAX_DECISIONS / buses.len().max(1)).max(1);
    let mut replays = Vec::new();
    for (pattern, traces) in patterns.iter().zip(buses) {
        let mut pending = Vec::new();
        let mut qos = Vec::new();
        for ((id, profile), trace) in pattern.masters.iter().zip(traces) {
            let Some(first) = trace.items().first() else {
                continue;
            };
            qos.push((*id, profile.qos_config()));
            pending.push(PendingRequest {
                master: *id,
                handle: arena.alloc(first.txn),
                addr: first.txn.addr,
                requested_at: Cycle::ZERO,
                is_write_buffer: false,
                write_buffer_fill: 0,
            });
        }
        let mut position = [0usize; 256];
        for (index, request) in pending.iter().enumerate() {
            position[request.master.index()] = index;
        }
        let decisions = traces
            .iter()
            .map(TrafficTrace::len)
            .sum::<usize>()
            .clamp(1, per_bus);
        replays.push((pending, qos, position, decisions));
    }
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let span = spans.enter("arbiter.replay");
        let start = Instant::now();
        for (pending, qos, position, decisions) in &replays {
            let mut arbiter = TlmArbiter::new(
                config.params.arbiter.clone(),
                config.params.bi_next_transaction_hints,
            );
            for &(id, q) in qos {
                arbiter.program_qos(id, q);
            }
            let mut requests = pending.clone();
            for step in 0..*decisions as u64 {
                let now = Cycle::new(step * 4);
                if let Some(decision) = arbiter.decide(now, &requests, &ddr) {
                    arbiter.record_grant(decision.master);
                    requests[position[decision.master.index()]].requested_at = now;
                }
            }
            black_box(arbiter.grants());
        }
        best = best.min(start.elapsed().as_secs_f64());
        spans.exit(span);
    }
    let decisions: usize = replays.iter().map(|r| r.3).sum();
    outcome.set("arbiter.ns_per_decision", best * 1e9 / decisions as f64);
}

/// `trace.overhead_pct`: paired plain and traced runs of the measured
/// model (order alternating per pair); the best traced/plain throughput
/// ratio is kept, so host drift cancels within a pair. Returns the first
/// traced run's log, whose `take_trace` is timed as `trace.take_ms`.
fn traced_twins(
    spec: &ModelSpec,
    config: &PlatformConfig,
    reference: &Probe,
    outcome: &mut Outcome,
    spans: &mut Spans,
) -> TraceLog {
    let mut best_ratio = 0.0f64;
    let mut log = None;
    for pair in 0..SAMPLES {
        let mut plain = spec.build(config);
        let mut traced = spec.build(config);
        traced.set_tracing(true);
        let mut timed = |model: &mut Box<dyn BusModel>, name: &'static str| {
            let span = spans.enter(name);
            let start = Instant::now();
            model.run_until(Cycle::MAX);
            let elapsed = start.elapsed().as_secs_f64();
            spans.exit(span);
            elapsed
        };
        let (plain_s, traced_s) = if pair % 2 == 0 {
            let plain_s = timed(&mut plain, "twin.plain");
            (plain_s, timed(&mut traced, "twin.traced"))
        } else {
            let traced_s = timed(&mut traced, "twin.traced");
            (timed(&mut plain, "twin.plain"), traced_s)
        };
        best_ratio = best_ratio.max(plain_s / traced_s);
        let mut problems = Vec::new();
        for (which, model) in [("plain", &plain), ("traced", &traced)] {
            let probe = model.probe();
            if probe != *reference {
                problems.push(format!(
                    "{which} twin {pair}: probe differs from rep 0 in {:?}",
                    reference.divergence(&probe)
                ));
            }
        }
        outcome.op(problems);
        if log.is_none() {
            let span = spans.enter("trace.take");
            let start = Instant::now();
            let taken = traced.take_trace();
            outcome.set("trace.take_ms", start.elapsed().as_secs_f64() * 1e3);
            spans.exit(span);
            log = taken;
        }
    }
    outcome.set("trace.overhead_pct", (1.0 - best_ratio) * 100.0);
    log.unwrap_or_else(|| {
        outcome.op(vec!["the model returned no trace".to_owned()]);
        TraceLog::default()
    })
}

/// Times profile building, JSON-lines export and `.ahbt` encoding of one
/// traced run, and reports the profile's simulated-cycle attribution.
fn trace_tooling(log: &TraceLog, outcome: &mut Outcome, spans: &mut Spans) {
    let events = log.events.len().max(1) as f64;
    outcome.set("trace.events", log.events.len() as f64);

    let span = spans.enter("profile.build");
    let start = Instant::now();
    let profile = Profile::from_log(log, ProfileOptions::default());
    outcome.set("profile.build_ms", start.elapsed().as_secs_f64() * 1e3);
    spans.exit(span);

    let span = spans.enter("trace.jsonl");
    let start = Instant::now();
    black_box(log.to_json_lines().len());
    outcome.set("trace.jsonl_ms", start.elapsed().as_secs_f64() * 1e3);
    spans.exit(span);

    let span = spans.enter("tracebin.encode");
    let start = Instant::now();
    let bytes = log.to_binary().len();
    outcome.set("tracebin.encode_ms", start.elapsed().as_secs_f64() * 1e3);
    spans.exit(span);
    outcome.set("tracebin.bytes_per_event", bytes as f64 / events);

    let overall = &profile.overall;
    for (label, cycles) in overall.components.rows() {
        outcome.set(
            &format!("profile.{}_cycles", label.replace('-', "_")),
            cycles as f64,
        );
    }
    outcome.set("txn.latency_p50_cycles", overall.percentiles.p50 as f64);
    outcome.set("txn.latency_p99_cycles", overall.percentiles.p99 as f64);
}
