//! Micro-benchmarks of the multi-bus synchronization machinery: what a
//! barrier costs when nothing crosses, and how much of that cost the
//! adaptive lookahead scheduler removes by stretching quiet quanta.
//!
//! The shards run one after another on one thread, so a barrier costs
//! one route-and-inject step: draining each shard's egress through the
//! bridge links, sorting the inboxes and injecting the deliveries. The
//! workload is deliberately bridge-free (every master local to its
//! shard) and the quantum deliberately tiny, so almost every simulated
//! cycle is barrier overhead: the fixed-quantum run takes a barrier
//! every few cycles, while the lookahead run proves the platform quiet
//! and leaps ahead. The pair quantifies the per-barrier cost the
//! `sharded-*-la` speed configurations amortize.

use ahb_multi::{MultiConfig, MultiSystem, ShardBackendKind};
use analysis::model::BusModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use traffic::{pattern_shards, ShardMix};

const SHARDS: usize = 4;
const MASTERS_PER_SHARD: usize = 2;
const TRANSACTIONS: usize = 8;
const SEED: u64 = 2005;

fn quiet_platform(quantum: u64, lookahead: bool) -> MultiSystem {
    let config = MultiConfig::new(ShardBackendKind::Tlm)
        .with_quantum(quantum)
        .with_lookahead(lookahead);
    let patterns = pattern_shards(SHARDS, MASTERS_PER_SHARD, ShardMix::LocalHeavy);
    MultiSystem::from_shard_patterns(&config, &patterns, TRANSACTIONS, SEED)
}

/// Fixed versus lookahead on an identical quiet platform: the difference
/// is pure barrier/exchange overhead, because the lookahead run performs
/// the same simulation through a fraction of the barriers.
fn bench_quiet_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync/quiet_advance_4_shards");
    group.sample_size(20);

    for (label, quantum, lookahead) in [
        ("fixed_q4", 4, false),
        ("lookahead_q4", 4, true),
        ("fixed_q96", 96, false),
        ("lookahead_q96", 96, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut platform = quiet_platform(quantum, lookahead);
                let report = platform.run();
                black_box((report.total_cycles, platform.sync_stats()))
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_quiet_advance);
criterion_main!(benches);
