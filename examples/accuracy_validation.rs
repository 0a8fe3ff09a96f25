//! Accuracy validation (Table 1 of the paper) on the co-simulation
//! driver: run the pin-accurate and the transaction-level model in
//! lockstep on identical stimulus for every table1/table2 workload and
//! report, per workload, the first cycle at which their observable state
//! diverges (or confirm it never does), whether the end-of-run results
//! match, and the classic per-metric difference table.
//!
//! This is the paper's §4 claim — "the simulation results were identical"
//! between the two abstraction levels — made operational: divergence is
//! *measured*, not asserted.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p ahbplus-repro --example accuracy_validation
//! ```

use ahbplus::{
    run_lockstep, run_lockstep_traced, scenario, AccuracyBenchRecord, BusModel, ModelComparison,
};
use simkern::time::CycleDelta;

fn main() {
    // 500 transactions per master per Table-1 pattern keeps the example
    // under a minute; the benchmark binary `table1_accuracy` runs the
    // full-length version. The table2 speed workload rides along so the
    // co-simulation also covers the §4 configuration.
    let workloads = ["table1-a", "table1-b", "table1-c", "table2-speed"];
    let mut record = AccuracyBenchRecord::default();
    for name in workloads {
        let spec = scenario(name).expect("catalogued workload");
        let config = spec.resolve().expect("workload resolves");
        let mut rtl = config.build_rtl();
        let mut tlm = config.build_tlm();
        // 512-cycle lockstep horizons: fine enough to localize divergence
        // to a bus-transaction neighbourhood, coarse enough to stay fast.
        // The traced variant carries the last few lifecycle events of each
        // side into the divergence report, so a mismatch names the
        // transactions around it, not just the probe fields.
        let outcome = run_lockstep_traced(&mut rtl, &mut tlm, CycleDelta::new(512), 6);

        println!("== {name} ({}) ==", config.pattern.name);
        match &outcome.first_divergence {
            None => println!(
                "co-simulation: no observable divergence over {} horizons",
                outcome.horizons
            ),
            Some(d) => println!(
                "co-simulation: first divergence at cycle <= {} in [{}]\n\
                 (transient timing skew between abstraction levels; the run \
                 continues to completion)",
                d.cycle,
                d.fields.join(", ")
            ),
        }
        if let Some(diff) = &outcome.trace_diff {
            print!("{}", diff.format());
        }
        println!(
            "end-of-run results identical (txns/bytes/beats/assertions): {}",
            if outcome.results_match { "yes" } else { "NO" }
        );
        let comparison = ModelComparison::from_runs(
            name,
            rtl.model_name(),
            tlm.model_name(),
            (&rtl.probe(), &outcome.a),
            (&tlm.probe(), &outcome.b),
        );
        println!("{}", comparison.format_table1());
        record.comparisons.push(comparison);
        assert!(
            outcome.results_match,
            "{name}: both models must complete the same work"
        );

        // The loosely-timed backend rides the same check: identical
        // functional results, with its (larger, documented) timing error
        // quantified by `model_accuracy` / BENCH_accuracy.json.
        let mut tlm = config.build_tlm();
        let mut lt = config.build_lt();
        let lt_outcome = run_lockstep(&mut tlm, &mut lt, CycleDelta::new(512));
        println!(
            "lt vs tlm: results identical: {}, busy-cycle delta {} -> {}\n",
            if lt_outcome.results_match {
                "yes"
            } else {
                "NO"
            },
            lt_outcome.a.bus.busy_cycles,
            lt_outcome.b.bus.busy_cycles
        );
        assert!(
            lt_outcome.results_match,
            "{name}: the loosely-timed model must complete the same work"
        );
    }
    println!("overall: {}", record.summaries()[0].format_table1_overall());
    println!(
        "paper reference: average difference below 3% (97% accuracy) on the\n\
         authors' proprietary platform; see EXPERIMENTS.md for the discussion\n\
         of where this reproduction diverges."
    );
}
