//! Cross-backend contracts of the trace-analytics layer:
//!
//! 1. The compact `.ahbt` binary container is lossless — for randomly
//!    sampled traced runs of every registered backend, `write_binary` →
//!    `TraceReader` reproduces the exact event sequence, the counters,
//!    and the byte-identical JSON-lines rendering (and re-encoding the
//!    decoded log is byte-identical too).
//! 2. The latency attribution of `analysis::profile` is exact — on
//!    every catalogue scenario and every backend, the per-transaction
//!    components (arbitration wait + attributed service) sum to the
//!    observed request→completion span, with no residual.

use ahbplus::registry::spectrum;
use ahbplus::{scenario_catalogue, ModelSpec, PlatformConfig};
use analysis::profile::{Profile, ProfileOptions};
use analysis::trace::{TraceEvent, TraceEventKind, TraceLog};
use proptest::prelude::*;

/// Runs one backend over the config with tracing enabled and returns
/// the merged log.
fn traced_run(config: &PlatformConfig, spec: &ModelSpec) -> TraceLog {
    let mut model = spec.build(config);
    model.set_tracing(true);
    model.run();
    model
        .take_trace()
        .unwrap_or_else(|| panic!("backend {} supports tracing", spec.id))
}

/// The master-visible lifecycle completions of a log (spans and
/// write-buffer absorptions).
fn completions(log: &TraceLog) -> Vec<TraceEvent> {
    log.events
        .iter()
        .copied()
        .filter(|e| matches!(e.kind, TraceEventKind::Span | TraceEventKind::Absorb))
        .collect()
}

fn kind_from_bits(bits: u64) -> &'static ModelSpec {
    let all: Vec<&'static ModelSpec> = spectrum().collect();
    all[(bits % all.len() as u64) as usize]
}

proptest! {
    /// `.ahbt` round trip is exact for random traced runs across every
    /// registered backend.
    #[test]
    fn binary_round_trip_reproduces_the_event_sequence(bits in 0u64..1u64 << 48) {
        let kind = kind_from_bits(bits);
        let pattern = if (bits >> 4) & 1 == 0 {
            traffic::pattern_a()
        } else {
            traffic::pattern_b()
        };
        let transactions = 3 + ((bits >> 5) % 5) as usize;
        let seed = bits >> 8;
        let config = PlatformConfig::new(pattern, transactions, seed);
        let log = traced_run(&config, kind);
        prop_assert!(!log.events.is_empty(), "{} produced no events", kind.id);

        let binary = log.to_binary();
        let decoded = TraceLog::read_binary(binary.as_slice()).expect("valid .ahbt bytes");
        prop_assert_eq!(&log.events, &decoded.events, "{} events diverged", kind.id);
        prop_assert_eq!(log.counters, decoded.counters, "{} counters diverged", kind.id);
        // Byte-exactness, both ways: the JSON-lines rendering (the
        // determinism contract's surface) and the re-encoded binary.
        prop_assert_eq!(log.to_json_lines(), decoded.to_json_lines());
        prop_assert_eq!(binary, decoded.to_binary());
    }

    /// The JSON-lines parser inverts the exporter event by event.
    #[test]
    fn json_line_parse_inverts_the_exporter(bits in 0u64..1u64 << 48) {
        let kind = kind_from_bits(bits);
        let config = PlatformConfig::new(traffic::pattern_a(), 4, bits >> 8);
        let log = traced_run(&config, kind);
        for event in &log.events {
            let line = event.to_json_line();
            let parsed = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("parse '{line}': {e}"));
            prop_assert_eq!(&parsed, event);
        }
    }
}

/// Attribution is exact on every catalogue scenario for every backend:
/// each transaction's `arb_wait + service` equals its observed
/// request→completion span, so the profile's component totals equal the
/// summed lifecycle latency with no residual.
#[test]
fn attribution_components_sum_to_the_observed_span_on_every_catalogue_scenario() {
    for spec in scenario_catalogue() {
        // Shrink the workload: the invariant is structural, not
        // statistical, so a handful of transactions per master exercises
        // it at a fraction of the catalogue's full runtime.
        let transactions = spec.transactions_per_master.min(6);
        let spec = spec.with_transactions(transactions);
        let config = spec.resolve().expect("catalogue scenario resolves");
        for kind in spectrum() {
            let log = traced_run(&config, kind);
            let mut observed_span_total = 0u64;
            let events = completions(&log);
            for event in &events {
                assert!(
                    event.start <= event.grant && event.grant <= event.cycle,
                    "{}/{}: lifecycle event out of order: {event:?}",
                    spec.name,
                    kind.id
                );
                observed_span_total += event.cycle - event.start;
            }
            let profile = Profile::from_log(&log, ProfileOptions::default());
            assert_eq!(
                profile.overall.components.span_total(),
                observed_span_total,
                "{}/{}: attributed components leave a residual",
                spec.name,
                kind.id
            );
            assert_eq!(
                profile.overall.count,
                events.len() as u64,
                "{}/{}: completion count diverged",
                spec.name,
                kind.id
            );
            // The per-group decompositions tile the overall one.
            let master_sum: u64 = profile
                .masters
                .iter()
                .map(|g| g.components.span_total())
                .sum();
            assert_eq!(
                master_sum, observed_span_total,
                "{}/{}: per-master components do not tile the total",
                spec.name, kind.id
            );
        }
    }
}
