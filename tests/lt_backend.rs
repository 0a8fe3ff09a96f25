//! Integration coverage for the loosely-timed backend: lockstep against
//! the transaction-level model over the whole pattern registry, bounded
//! stepping determinism, and the documented timing-error bound.

use ahb_lt::LT_TIMING_ERROR_BOUND_PCT;
use ahbplus::{run_lockstep, PlatformConfig};
use analysis::{compare_models, BusModel, ModelKind};
use proptest::prelude::*;
use simkern::time::CycleDelta;
use traffic::pattern_registry;

/// Workload length for the registry sweep — small enough for debug-mode
/// test runs, long enough to exercise the write buffer and row sketch.
const SWEEP_TRANSACTIONS: usize = 60;

#[test]
fn lt_and_tlm_produce_identical_results_on_every_registered_pattern() {
    for (key, build) in pattern_registry() {
        let config = PlatformConfig::new(build(), SWEEP_TRANSACTIONS, 7);
        let mut tlm = config.build_tlm();
        let mut lt = config.build_lt();
        let outcome = run_lockstep(&mut tlm, &mut lt, CycleDelta::new(256));
        // Mid-run divergence between abstraction levels is expected (and
        // reported); identical end-of-run *results* are the requirement.
        assert!(
            outcome.results_match,
            "pattern '{key}': functional results must be identical — {}",
            outcome.summary()
        );
        assert_eq!(
            outcome.a.total_transactions(),
            outcome.b.total_transactions(),
            "pattern '{key}'"
        );
        assert_eq!(
            outcome.a.total_bytes(),
            outcome.b.total_bytes(),
            "pattern '{key}'"
        );
        if let Some(divergence) = &outcome.first_divergence {
            assert!(
                divergence.cycle > 0,
                "pattern '{key}': divergence horizon must be reported"
            );
        }
    }
}

#[test]
fn lt_timing_error_stays_within_the_documented_bound() {
    for (key, build) in pattern_registry() {
        for seed in [3u64, 7, 21] {
            let config = PlatformConfig::new(build(), SWEEP_TRANSACTIONS, seed);
            let mut tlm = config.build_tlm();
            let mut lt = config.build_lt();
            let comparison = compare_models(key, &mut tlm, &mut lt);
            let error = comparison.cycle_error_pct();
            let busy = comparison.counter("busy_cycles").unwrap();
            println!(
                "pattern '{key}' seed {seed}: LT cycle error {error:.2}% (tlm {} vs lt {}), \
                 busy error {:.2}% (tlm {} vs lt {})",
                comparison.counter("cycle").unwrap().reference,
                comparison.counter("cycle").unwrap().candidate,
                busy.error_pct(),
                busy.reference,
                busy.candidate
            );
            assert!(
                error <= LT_TIMING_ERROR_BOUND_PCT,
                "pattern '{key}' seed {seed}: LT cycle error {error:.2}% exceeds the \
                 documented {LT_TIMING_ERROR_BOUND_PCT}% bound"
            );
            assert!(comparison.results_match, "pattern '{key}' seed {seed}");
        }
    }
}

#[test]
fn lt_step_one_matches_one_shot_run_through_the_trait() {
    let config = PlatformConfig::new(traffic::pattern_a(), 40, 11);
    let one_shot = config.build_lt().run();
    let mut stepped = config.build_lt();
    let mut guard = 0u64;
    while !BusModel::finished(&stepped) {
        BusModel::step(&mut stepped, CycleDelta::ONE);
        guard += 1;
        assert!(guard < 1_000_000, "stepping must terminate");
    }
    let report = BusModel::report(&mut stepped);
    assert!(
        one_shot.metrics_eq(&report),
        "step(1)-driven LT run must be metrically identical to run()"
    );
}

#[test]
fn lt_registers_as_the_third_model_kind() {
    let config = PlatformConfig::new(traffic::pattern_a(), 10, 5);
    let lt = ahbplus::registry::spectrum()
        .nth(2)
        .expect("third spectrum entry");
    assert_eq!(lt.id, "lt");
    let mut model = lt.build(&config);
    assert_eq!(model.model_name(), "lt");
    let report = model.run();
    assert_eq!(report.model, ModelKind::LooselyTimed);
    assert_eq!(report.total_transactions(), 4 * 10);
}

proptest! {
    /// Across random workload lengths and seeds, the LT backend completes
    /// exactly the same work as the TLM and its elapsed-cycle estimate
    /// stays within the documented bound.
    #[test]
    fn lt_error_bound_holds_across_random_workloads(
        transactions in 20usize..80,
        seed in 0u64..1_000,
    ) {
        let config = PlatformConfig::new(traffic::pattern_a(), transactions, seed);
        let mut tlm = config.build_tlm();
        let mut lt = config.build_lt();
        let comparison = compare_models("prop", &mut tlm, &mut lt);
        prop_assert!(comparison.results_match);
        prop_assert!(
            comparison.cycle_error_pct() <= LT_TIMING_ERROR_BOUND_PCT,
            "cycle error {}% above bound (transactions {}, seed {})",
            comparison.cycle_error_pct(), transactions, seed
        );
    }
}
