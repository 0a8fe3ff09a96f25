//! Integration tests for the unified `BusModel` facade: lockstep
//! co-simulation, bounded-stepping determinism, and the idle-skip
//! bit-identity guarantee — the run-control contracts every backend must
//! uphold.

use ahbplus::{run_lockstep, scenario, BusModel, PlatformConfig, RtlConfig, Simulation};
use ahbplus::{RtlSystem, TlmSystem};
use simkern::time::CycleDelta;
use traffic::{pattern_a, pattern_c};

/// `step(1)` driven to completion must produce a report identical (up to
/// wall-clock time) to a single `run()`, for both backends.
#[test]
fn single_cycle_stepping_is_deterministic_on_both_backends() {
    let config = PlatformConfig::new(pattern_a(), 30, 7);

    let one_shot_tlm = config.run_tlm();
    let mut stepped_tlm = config.build_tlm();
    while !BusModel::finished(&stepped_tlm) {
        stepped_tlm.step(CycleDelta::new(1));
    }
    assert!(
        one_shot_tlm.metrics_eq(&TlmSystem::report(&stepped_tlm)),
        "TLM: step(1) to completion must equal run()"
    );

    let one_shot_rtl = config.run_rtl();
    let mut stepped_rtl = config.build_rtl();
    while !BusModel::finished(&stepped_rtl) {
        stepped_rtl.step(CycleDelta::new(1));
    }
    assert!(
        one_shot_rtl.metrics_eq(&RtlSystem::report(&stepped_rtl)),
        "RTL: step(1) to completion must equal run()"
    );
}

/// Arbitrary stride schedules must agree with each other as well.
#[test]
fn mixed_stride_schedules_agree() {
    let config = PlatformConfig::new(pattern_c(), 40, 9);
    let reference = config.run_tlm();
    let mut sim = Simulation::new(config.build_tlm());
    for stride in [1u64, 7, 100, 3, 5_000].iter().cycle() {
        if sim.finished() {
            break;
        }
        sim.step(CycleDelta::new(*stride));
    }
    let (report, snapshots) = sim.into_report();
    assert!(report.metrics_eq(&reference));
    assert!(!snapshots.is_empty());
}

/// Idle-skip (the `Clocked::is_quiescent`/`wake_at` contract wired into
/// the RTL write buffer and DDR slave) must leave reports bit-identical,
/// verified here through full lockstep co-simulation of the two
/// configurations at single-cycle resolution on a catalogue workload.
#[test]
fn idle_skip_lockstep_never_diverges() {
    let config = PlatformConfig::new(pattern_a(), 40, 5);
    let build = |idle_skip: bool| {
        RtlSystem::from_pattern(
            RtlConfig::default().with_idle_skip(idle_skip),
            &config.pattern,
            config.transactions_per_master,
            config.seed,
        )
    };
    let mut skipping = build(true);
    let mut stepping = build(false);
    let outcome = run_lockstep(&mut skipping, &mut stepping, CycleDelta::new(100));
    assert!(
        outcome.is_identical(),
        "idle-skip diverged: {}",
        outcome.summary()
    );
    assert!(outcome.results_match);
    assert!(
        outcome.a.metrics_eq(&outcome.b),
        "reports must be bit-identical"
    );
}

/// Lockstep across abstraction levels: the paper's "results identical"
/// claim — both models complete exactly the same work on every catalogue
/// workload, whatever their transient timing skew.
#[test]
fn rtl_and_tlm_complete_identical_work_under_lockstep() {
    for name in ["table1-a", "table1-b", "table1-c"] {
        let config = scenario(name)
            .expect("catalogued workload")
            .with_transactions(60)
            .resolve()
            .expect("workload resolves");
        let mut rtl = config.build_rtl();
        let mut tlm = config.build_tlm();
        let outcome = run_lockstep(&mut rtl, &mut tlm, CycleDelta::new(512));
        assert!(outcome.results_match, "{name}: {}", outcome.summary());
        assert_eq!(
            outcome.a.total_transactions(),
            outcome.b.total_transactions(),
            "{name}"
        );
        assert_eq!(outcome.a.total_bytes(), outcome.b.total_bytes(), "{name}");
        assert_eq!(outcome.a.bus.assertion_errors, 0, "{name}");
        assert_eq!(outcome.b.bus.assertion_errors, 0, "{name}");
    }
}

/// Two identically seeded instances of the same backend are
/// indistinguishable at every lockstep horizon; a different seed is
/// caught as a divergence.
#[test]
fn lockstep_distinguishes_identical_from_diverging_stimulus() {
    let config = PlatformConfig::new(pattern_a(), 30, 21);
    let mut a = config.build_tlm();
    let mut b = config.build_tlm();
    let same = run_lockstep(&mut a, &mut b, CycleDelta::new(50));
    assert!(same.is_identical());

    let mut a = config.build_tlm();
    let mut b = PlatformConfig::new(pattern_a(), 30, 22).build_tlm();
    let different = run_lockstep(&mut a, &mut b, CycleDelta::new(50));
    assert!(different.first_divergence.is_some());
}
