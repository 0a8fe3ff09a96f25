//! Regenerates Table 1 of the paper: cycle-count accuracy of the
//! transaction-level AHB+ model against the pin-accurate reference under the
//! three traffic patterns, followed by the same table for the
//! loosely-timed model.
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin table1_accuracy
//! ```
//!
//! Each block is the Table-1 view of one `ahbplus::compare_pair_on`
//! comparison. CI reads the `overall:` line (rtl → tlm) and the
//! `overall (lt):` line (rtl → lt) and ratchets both against
//! `EXPERIMENTS.md`.

use ahbplus::{lookup, table1_record};
use ahbplus_bench::{FULL_RUN_TRANSACTIONS, HARNESS_SEED};

/// Prints every pattern's Table-1 block for `candidate`, then its overall
/// line under `label`.
fn print_table1(candidate: &str, label: &str) {
    let spec = lookup(candidate).expect("registered model");
    let record = table1_record(spec, FULL_RUN_TRANSACTIONS, HARNESS_SEED);
    for comparison in &record.comparisons {
        println!("{}", comparison.format_table1());
    }
    let summary = &record.summaries()[0];
    println!("{label}: {}\n", summary.format_table1_overall());
}

fn main() {
    println!(
        "Table 1 — RTL vs TL cycle counts ({} transactions per master, seed {})\n",
        FULL_RUN_TRANSACTIONS, HARNESS_SEED
    );
    print_table1("tlm", "overall");
    println!("Table 1, loosely timed — RTL vs LT cycle counts\n");
    print_table1("lt", "overall (lt)");
    println!("paper reference: average difference below 3% (97% accuracy on average).");
    println!("See EXPERIMENTS.md for the paper-vs-measured discussion.");
}
