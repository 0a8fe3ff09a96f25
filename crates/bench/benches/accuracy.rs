//! Criterion benchmark behind Table 1: runs the lockstepped RTL-vs-TLM
//! comparison for each traffic pattern and reports the wall-clock cost of
//! a comparison pass. The printed accuracy itself comes from the
//! `table1_accuracy` binary; this bench guards the cost of the comparison
//! workflow.

use ahbplus::accuracy::TABLE1_SCENARIOS;
use ahbplus::{compare_pair_on, lookup, scenario};
use ahbplus_bench::{BENCH_TRANSACTIONS, HARNESS_SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_accuracy(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_validation");
    group.sample_size(10);
    let (rtl, tlm) = (lookup("rtl").unwrap(), lookup("tlm").unwrap());
    for name in TABLE1_SCENARIOS {
        let spec = scenario(name)
            .expect("catalogued")
            .with_transactions(BENCH_TRANSACTIONS)
            .with_seed(HARNESS_SEED);
        group.bench_function(name, |b| {
            b.iter(|| black_box(compare_pair_on(black_box(&spec), rtl, tlm).table1_error_pct()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accuracy);
criterion_main!(benches);
