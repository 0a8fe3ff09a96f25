//! Micro-benchmarks of the transaction-level hot path's building blocks:
//! pooled versus cloned transaction flow through an arbiter-shaped
//! consumer, the DDR controller's per-access cost, and one arbitration
//! decision as the number of waiting requesters grows. These quantify why
//! the transaction-level model is fast (no per-transaction allocation, a
//! handful of controller calls per transaction, a filter chain whose cost
//! does not grow with the number of waiting masters).
//!
//! Two more measure what a traced `campaign serve` request pays after its
//! run, on the log of one such request: rendering the events as JSON
//! lines (`trace/json_lines`) and building their latency profile
//! (`profile/from_log`).

use amba::ids::Addr;
use criterion::{criterion_group, criterion_main, Criterion};
use ddrc::{DdrConfig, DdrController};
use simkern::time::{Cycle, CycleDelta};
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

/// One arbitration decision with 2, 5, 16 and 64 masters of the `many`
/// pattern's mix waiting, and 65: all 64 plus the write buffer, as on
/// `many-64`. Every master keeps a request pending; the winner re-requests
/// at the decision cycle, so waits (and QoS urgency) stay bounded as they
/// are on a busy bus. Bank readiness comes from a DDR controller with one
/// row open per bank.
fn bench_arbitration(c: &mut Criterion) {
    use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, SampledRequests};
    use amba::ids::MasterId;
    use amba::qos::QosConfig;

    let mut ddr = DdrController::new(DdrConfig::ahb_plus());
    for bank in 0..8u32 {
        let addr = Addr::new(0x2000_0000 + bank * 2048);
        ddr.access(Cycle::new(u64::from(bank) * 20), addr, false, 4);
    }
    let buffer = MasterId::new(15);
    let buffer_addr = Addr::new(0x2000_0800);
    let mut group = c.benchmark_group("kernel/arbitration");
    group.sample_size(20);
    for requesters in [2usize, 5, 16, 64, 65] {
        let pattern = traffic::pattern_many(requesters.min(64));
        let mut policy = ArbitrationPolicy::new(ArbiterConfig::ahb_plus());
        for (id, profile) in &pattern.masters {
            policy.program_qos(*id, profile.qos_config());
        }
        policy.program_qos(buffer, QosConfig::non_real_time(u8::MAX));
        let buffer_slot = policy.slot(buffer).expect("programmed");
        let mut addrs = vec![buffer_addr; policy.slots()];
        let mut sampled = SampledRequests::new();
        for (id, profile) in &pattern.masters {
            let slot = policy.slot(*id).expect("programmed");
            addrs[slot] = profile.region_base;
            sampled.push(slot, Cycle::ZERO, profile.region_base);
        }
        let with_buffer = requesters > 64;
        if with_buffer {
            sampled.push_write_buffer(buffer_slot, Cycle::ZERO, buffer_addr, 1);
        }
        group.bench_function(requesters.to_string(), |b| {
            let mut policy = policy.clone();
            let mut sampled = sampled.clone();
            let mut now = Cycle::ZERO;
            b.iter(|| {
                let requests = sampled.at(now, |addr| ddr.is_addr_ready(now, addr));
                let winner = policy.decide(&requests).expect("someone requests").master;
                policy.record_grant(winner);
                let slot = policy.slot(winner).expect("programmed");
                if slot == buffer_slot {
                    sampled.push_write_buffer(slot, now, buffer_addr, 1);
                } else {
                    sampled.push(slot, now, addrs[slot]);
                }
                now += CycleDelta::new(4);
                winner
            });
        });
    }
    group.finish();
}

/// The trace log of a traced `tlm` run of `table2-speed` at 1,000
/// transactions per master: the size `perfbench`'s `serve-traced` requests.
fn serve_sized_trace() -> analysis::trace::TraceLog {
    let spec = ahbplus::scenario("table2-speed").expect("catalogued");
    let config = spec.resolve().expect("catalogue scenario resolves");
    let mut model = ahbplus::lookup("tlm").expect("registered").build(&config);
    model.set_tracing(true);
    model.run();
    model.take_trace().expect("tlm traces")
}

fn bench_trace_rendering(c: &mut Criterion) {
    use analysis::profile::{Profile, ProfileOptions};

    let log = serve_sized_trace();
    c.bench_function("trace/json_lines", |b| b.iter(|| log.to_json_lines().len()));
    c.bench_function("profile/from_log", |b| {
        b.iter(|| {
            Profile::from_log(&log, ProfileOptions::default())
                .overall
                .count
        })
    });
}

criterion_group!(
    benches,
    bench_txn_pool_vs_clone,
    bench_ddr_controller,
    bench_arbitration,
    bench_trace_rendering
);
criterion_main!(benches);
