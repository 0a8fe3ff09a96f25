//! Accuracy integration tests: the transaction-level model must track the
//! pin-accurate reference on identical stimulus (the Table-1 experiment).

use ahbplus::{compare_pair_on, lookup, scenario, table1_record, AhbPlusParams, ModelSpec};

fn model(id: &str) -> &'static ModelSpec {
    lookup(id).expect("registered")
}

/// Total bus work (busy cycles) must agree closely on every pattern — this
/// is the metric least sensitive to how contention is attributed.
#[test]
fn bus_busy_cycles_agree_within_five_percent() {
    let record = table1_record(model("tlm"), 150, 7);
    for comparison in &record.comparisons {
        let busy = comparison.table1_row("bus busy cycles").expect("busy row");
        assert!(
            busy.error_pct() < 5.0,
            "{}: busy-cycle error {:.2}%",
            comparison.scenario,
            busy.error_pct()
        );
    }
}

/// The longest-running master (the periodic real-time video master) pins the
/// end of the simulation; both models must agree on it almost exactly.
#[test]
fn video_completion_cycle_matches_almost_exactly() {
    for name in ["table1-a", "table1-b"] {
        let spec = scenario(name)
            .expect("catalogued")
            .with_transactions(150)
            .with_seed(3);
        let comparison = compare_pair_on(&spec, model("rtl"), model("tlm"));
        let row = comparison
            .table1
            .iter()
            .find(|r| r.metric.contains("video completion"))
            .expect("video completion row");
        assert!(
            row.error_pct() < 1.0,
            "video completion error {:.2}%",
            row.error_pct()
        );
    }
}

/// With request pipelining disabled the two models are calibrated to within
/// a few percent on every metric — evidence that the residual error of the
/// full configuration comes from concurrency-dependent effects (write-buffer
/// scheduling), not from mis-calibrated transaction timings.
#[test]
fn non_pipelined_configuration_matches_within_five_percent() {
    // The catalogued Table-1 scenario (same pattern and seed) with the
    // pipelining ablation applied as a spec variant.
    let spec = scenario("table1-a")
        .expect("catalogued")
        .with_transactions(200)
        .with_params(AhbPlusParams::ahb_plus().with_request_pipelining(false));
    let comparison = compare_pair_on(&spec, model("rtl"), model("tlm"));
    assert!(
        comparison.table1_error_pct() < 5.0,
        "average error {:.2}%\n{}",
        comparison.table1_error_pct(),
        comparison.format_table1()
    );
}

/// Full AHB+ configuration: average difference across all compared metrics
/// stays bounded (the paper reports <3% for its models; this reproduction's
/// write-buffer dynamics diverge more — see EXPERIMENTS.md).
#[test]
fn full_configuration_average_error_is_bounded() {
    let record = table1_record(model("tlm"), 150, 7);
    let error = record.summaries()[0].mean_table1_error_pct;
    assert!(
        error < 30.0,
        "overall average error {error:.2}%\n{}",
        record
            .comparisons
            .iter()
            .map(ahbplus::ModelComparison::format_table1)
            .collect::<String>()
    );
}

/// Both models must see the exact same stimulus — equal transaction and byte
/// counts per master.
#[test]
fn stimulus_is_identical_across_models() {
    let config = scenario("table1-a")
        .expect("catalogued")
        .with_transactions(100)
        .with_seed(19)
        .resolve()
        .expect("resolvable");
    let (rtl, tlm) = (config.run_rtl(), config.run_tlm());
    for (id, rtl_m) in &rtl.masters {
        let tlm_m = &tlm.masters[id];
        assert_eq!(rtl_m.completed, tlm_m.completed, "{id} transaction count");
        assert_eq!(rtl_m.bytes, tlm_m.bytes, "{id} byte count");
    }
}
