//! Micro-benchmarks of the transaction-level hot path's building blocks:
//! pooled versus cloned transaction flow through an arbiter-shaped
//! consumer, and the DDR controller's per-access cost. These quantify why
//! the transaction-level model is fast (no per-transaction allocation, a
//! handful of controller calls per transaction).

use amba::ids::Addr;
use criterion::{criterion_group, criterion_main, Criterion};
use ddrc::{DdrConfig, DdrController};
use simkern::time::Cycle;
use std::hint::black_box;

/// Pooled (arena handle) versus cloned transaction flow: the per-round cost
/// of presenting the same pending set to an arbiter-shaped consumer.
fn bench_txn_pool_vs_clone(c: &mut Criterion) {
    use amba::burst::BurstKind;
    use amba::ids::MasterId;
    use amba::signal::HSize;
    use amba::txn::{Transaction, TransferDirection, TxnArena};

    let masters: Vec<Transaction> = (0..8u8)
        .map(|m| {
            Transaction::new(
                MasterId::new(m),
                Addr::new(0x2000_0000 + u32::from(m) * 0x800),
                if m % 3 == 0 {
                    TransferDirection::Write
                } else {
                    TransferDirection::Read
                },
                BurstKind::Incr8,
                HSize::Word,
            )
        })
        .collect();

    let mut group = c.benchmark_group("kernel/txn_flow");
    group.sample_size(20);

    group.bench_function("cloned_per_round", |b| {
        let source = masters.clone();
        b.iter(|| {
            let mut checksum = 0u64;
            for _round in 0..1_000 {
                // The seed hot path: clone every pending transaction into a
                // freshly allocated request vector, twice per transaction.
                let pending: Vec<Transaction> = source.clone();
                for txn in &pending {
                    checksum = checksum.wrapping_add(u64::from(txn.addr.value()));
                }
            }
            black_box(checksum)
        });
    });

    group.bench_function("pooled_handles_per_round", |b| {
        let source = masters.clone();
        b.iter(|| {
            let mut arena = TxnArena::with_capacity(source.len());
            let mut pending = Vec::with_capacity(source.len());
            let mut checksum = 0u64;
            // Intern once; per round only handles and copied addresses move.
            let handles: Vec<_> = source.iter().map(|t| arena.alloc(*t)).collect();
            for _round in 0..1_000 {
                pending.clear();
                for &handle in &handles {
                    pending.push((handle, arena.get(handle).addr));
                }
                for &(_, addr) in &pending {
                    checksum = checksum.wrapping_add(u64::from(addr.value()));
                }
            }
            for handle in handles {
                arena.release(handle);
            }
            black_box(checksum)
        });
    });

    group.finish();
}

fn bench_ddr_controller(c: &mut Criterion) {
    c.bench_function("kernel/ddr_controller_1k_accesses", |b| {
        b.iter(|| {
            let mut controller = DdrController::new(DdrConfig::ahb_plus());
            let mut now = Cycle::ZERO;
            let mut total = 0u64;
            for i in 0..1_000u32 {
                let addr = Addr::new(0x2000_0000 + (i % 64) * 2048 + (i % 8) * 64);
                let timing = controller.access(now, addr, i % 3 == 0, 8);
                now += timing.total();
                total += timing.total().value();
            }
            black_box(total)
        });
    });
}

criterion_group!(benches, bench_txn_pool_vs_clone, bench_ddr_controller);
criterion_main!(benches);
