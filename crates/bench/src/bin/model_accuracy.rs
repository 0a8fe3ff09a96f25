//! Regenerates the generalized accuracy experiment: every registered
//! backend pair (RTL→TLM, RTL→LT, TLM→LT) lockstepped over the scenario
//! catalogue, with the paper's Table-1 rows, per-counter error
//! percentages and the functional results-match verdict per comparison.
//!
//! ```text
//! cargo run --release -p ahbplus-bench --bin model_accuracy \
//!     [OUTPUT.json] [--transactions N]
//! ```
//!
//! Writes `BENCH_accuracy.json` (schema `ahbplus-bench-accuracy/v1`) and
//! exits non-zero when any comparison's results-match check fails — CI
//! runs this per commit, so a backend that stops producing identical
//! functional results breaks the build, not just a dashboard.

use ahbplus::measure_accuracy_record;
use ahbplus::registry::MODELS;

fn main() {
    let mut output_path = "BENCH_accuracy.json".to_owned();
    let mut max_transactions: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parse = |value: Option<String>| -> usize {
            value
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--transactions needs a positive integer");
                    std::process::exit(2);
                })
        };
        if let Some(value) = arg.strip_prefix("--transactions=") {
            max_transactions = Some(parse(Some(value.to_owned())));
        } else if arg == "--transactions" {
            max_transactions = Some(parse(args.next()));
        } else if arg.starts_with("--") {
            eprintln!(
                "unknown option '{arg}' (usage: model_accuracy [OUTPUT.json] [--transactions N])"
            );
            std::process::exit(2);
        } else {
            output_path = arg;
        }
    }

    println!("Model accuracy — every backend pair over the scenario catalogue\n");
    let record = measure_accuracy_record(max_transactions);
    for comparison in &record.comparisons {
        println!("{}", comparison.format_table());
    }
    // The model columns are as wide as the longest registered model name.
    let width = MODELS.iter().map(|spec| spec.id.len()).max().unwrap_or(0);
    println!(
        "{:<width$} {:<width$} {:>9} {:>13} {:>15} {:>14} {:>14} {:>15}",
        "reference",
        "candidate",
        "scenarios",
        "results match",
        "mean cycle err",
        "mean busy err",
        "max busy err",
        "mean table1 err"
    );
    for summary in record.summaries() {
        println!(
            "{:<width$} {:<width$} {:>9} {:>13} {:>14.2}% {:>13.2}% {:>13.2}% {:>14.2}%",
            summary.reference,
            summary.candidate,
            summary.scenarios,
            summary.results_match_all,
            summary.mean_cycle_error_pct,
            summary.mean_busy_error_pct,
            summary.max_busy_error_pct,
            summary.mean_table1_error_pct
        );
    }
    println!(
        "\npaper reference: \"the average accuracy difference is below 3%\" (§4) for the\n\
         TL model against RTL; the LT row generalizes the same experiment to the\n\
         loosely-timed backend."
    );
    match std::fs::write(&output_path, record.to_json()) {
        Ok(()) => println!("\nwrote {output_path}"),
        Err(error) => {
            eprintln!("failed to write {output_path}: {error}");
            std::process::exit(1);
        }
    }
    if !record.all_results_match() {
        eprintln!(
            "FAIL: a registered backend no longer produces identical functional results \
             (see the comparisons above)"
        );
        std::process::exit(1);
    }
}
