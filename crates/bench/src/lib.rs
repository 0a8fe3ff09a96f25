//! `ahbplus-bench` — the benchmark harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! * `cargo run --release -p ahbplus-bench --bin table1_accuracy` — Table 1:
//!   per-pattern RTL-vs-TLM cycle-count comparison, then the same table for
//!   RTL vs LT. Each block is the Table-1 view of an
//!   `ahbplus::compare_pair_on` comparison, the one accuracy surface.
//! * `cargo run --release -p ahbplus-bench --bin model_accuracy` — the same
//!   comparison for every registered backend pair over the scenario
//!   catalogue (`BENCH_accuracy.json`).
//! * `cargo run --release -p ahbplus-bench --bin table2_speed` — the §4
//!   simulation-speed comparison (Kcycles/s and speed-up).
//! * `cargo bench -p ahbplus-bench` — criterion benchmarks: `accuracy`
//!   (model agreement guard), `speed` (wall-clock per simulated cycle of
//!   both models), `ablation` (QoS / bank-interleaving / write-buffer design
//!   choices) and `kernel` (micro-benchmarks of the simulation substrate).
//!
//! The library part only hosts shared helpers for the binaries and benches.

use ahbplus::PlatformConfig;
use traffic::TrafficPattern;

/// The workload length (transactions per master) used by the full table
/// regenerations. The `table2_speed` binary resolves the equivalent
/// workload from the scenario catalogue (`ahbplus::scenario("table2-speed")`);
/// this constant remains the length used by `table1_accuracy`.
pub const FULL_RUN_TRANSACTIONS: usize = 1_000;

/// The workload length used by the criterion benches (kept small so a bench
/// iteration stays in the milliseconds range).
pub const BENCH_TRANSACTIONS: usize = 60;

/// The seed shared by every harness run, so printed tables are reproducible.
pub const HARNESS_SEED: u64 = 2005;

/// Builds the standard platform configuration used by the harness.
#[must_use]
pub fn harness_platform(pattern: TrafficPattern, transactions: usize) -> PlatformConfig {
    PlatformConfig::new(pattern, transactions, HARNESS_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::pattern_a;

    #[test]
    fn harness_platform_uses_the_shared_seed() {
        let config = harness_platform(pattern_a(), 10);
        assert_eq!(config.seed, HARNESS_SEED);
        assert_eq!(config.transactions_per_master, 10);
    }

    #[test]
    fn speed_scenario_matches_the_harness_constants() {
        // `table2_speed` resolves its workload from the scenario
        // catalogue; the perf trajectory across PRs is only comparable if
        // that scenario pins the same workload as the harness constants.
        let config = ahbplus::scenario("table2-speed")
            .expect("catalogued")
            .resolve()
            .expect("resolvable");
        let legacy = harness_platform(pattern_a(), FULL_RUN_TRANSACTIONS);
        assert_eq!(config.seed, legacy.seed);
        assert_eq!(
            config.transactions_per_master,
            legacy.transactions_per_master
        );
        assert_eq!(config.pattern, legacy.pattern);
        assert_eq!(config.max_cycles, legacy.max_cycles);
    }
}
