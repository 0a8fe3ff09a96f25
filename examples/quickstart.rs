//! Quickstart: resolve a named scenario, drive the transaction-level
//! model through the unified `BusModel` facade, read the results from a
//! probe and the final report — then run the *same* scenario on every
//! spectrum point (pin-accurate, transaction-level, loosely-timed, and
//! the sharded multi-bus platforms) to see the speed/accuracy trade-off.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p ahbplus-repro --example quickstart
//! ```

use ahbplus::registry::spectrum;
use ahbplus::{scenario, Simulation};
use simkern::time::CycleDelta;

fn main() {
    // Every standard experiment is a named scenario: pattern, bus
    // parameters (all seven arbitration filters, write buffer depth 4,
    // request pipelining, BI hints), DDR device, workload length and
    // seed, resolvable into a platform that builds either backend.
    let spec = scenario("table1-a").expect("catalogued scenario");
    let config = spec.resolve().expect("scenario resolves");

    // Drive the transaction-level model — the fast one you would use for
    // day-to-day performance analysis — in bounded slices, taking a
    // snapshot of the observable state every 50k cycles.
    let mut sim = Simulation::new(config.build_tlm());
    let report = sim.run_with_snapshots(CycleDelta::new(50_000));

    println!("== transaction-level AHB+ run ({}) ==", spec.name);
    println!("{}", report.format_table());

    println!("progress snapshots ({}):", sim.snapshots().len());
    for probe in sim.snapshots() {
        println!(
            "  cycle {:>8}  {:>5} txns  {:>9} bytes  wbuf fill {}",
            probe.cycle, probe.transactions, probe.bytes, probe.write_buffer_fill
        );
    }

    // The probe is the uniform observability surface: the same fields,
    // from any backend, at any point of the run.
    let end = sim.model().probe();
    println!(
        "DRAM row-hit rate: {:.1}%  (prepared hits from BI hints: {})",
        end.dram_hit_rate() * 100.0,
        end.dram_prepared_hits
    );
    println!(
        "write buffer: {} absorbed, {} drained, peak occupancy {}",
        end.write_buffer_absorbed, end.write_buffer_drained, end.write_buffer_peak
    );
    println!(
        "assertions: {} errors, {} warnings",
        end.assertion_errors, end.assertion_warnings
    );

    // The model spectrum: the same scenario, every abstraction level,
    // one loop — the registry's spectrum orders them from most
    // timing-accurate (`rtl`) to the multi-bus platforms (`sharded-tlm`,
    // `sharded-lt`, ..., which split the same masters over bridged buses).
    // The completed work is identical on every point; wall-clock time and
    // timing-derived counters are where they differ. A further backend
    // would appear here (and in every benchmark artifact) by implementing
    // `BusModel` and adding one entry to `ahbplus::registry::MODELS`.
    println!("\n== the same scenario across the model spectrum ==");
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>14}",
        "model", "txns", "cycles", "busy", "Kcycles/s"
    );
    for spec in spectrum() {
        let report = spec.build(&config).run();
        println!(
            "{:<18} {:>10} {:>12} {:>12} {:>14.0}",
            spec.id,
            report.total_transactions(),
            report.total_cycles,
            report.bus.busy_cycles,
            report.kcycles_per_second()
        );
    }
}
