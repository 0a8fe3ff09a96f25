//! Property-based tests over the protocol vocabulary, the burst arithmetic,
//! the DRAM bank FSM invariants and the workload generator.

use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, SampledRequests};
use amba::burst::{BurstKind, BurstSequence};
use amba::check::validate_transaction;
use amba::ids::{Addr, MasterId};
use amba::qos::QosConfig;
use amba::signal::{HBurst, HResp, HSize, HTrans};
use ddrc::{Bank, DdrTiming};
use proptest::prelude::*;
use simkern::rng::SimRng;
use simkern::time::Cycle;
use traffic::{MasterProfile, Workload};

fn burst_kind_strategy() -> impl Strategy<Value = BurstKind> {
    prop_oneof![
        Just(BurstKind::Single),
        (1u32..20).prop_map(BurstKind::Incr),
        Just(BurstKind::Incr4),
        Just(BurstKind::Incr8),
        Just(BurstKind::Incr16),
        Just(BurstKind::Wrap4),
        Just(BurstKind::Wrap8),
        Just(BurstKind::Wrap16),
    ]
}

fn hsize_strategy() -> impl Strategy<Value = HSize> {
    prop_oneof![
        Just(HSize::Byte),
        Just(HSize::Halfword),
        Just(HSize::Word),
        Just(HSize::Doubleword),
    ]
}

proptest! {
    /// Every signal encoding round-trips through its bit pattern.
    #[test]
    fn signal_encodings_round_trip(bits in 0u8..=0xFF) {
        prop_assert_eq!(HTrans::from_bits(bits).bits(), bits & 0b11);
        prop_assert_eq!(HBurst::from_bits(bits).bits(), bits & 0b111);
        prop_assert_eq!(HResp::from_bits(bits).bits(), bits & 0b11);
    }

    /// A burst sequence always produces exactly `beats()` addresses, all
    /// aligned to the transfer size, and wrapping bursts stay inside their
    /// naturally aligned block.
    #[test]
    fn burst_sequences_are_well_formed(
        start in 0u32..0x1000_0000u32,
        kind in burst_kind_strategy(),
        size in hsize_strategy(),
    ) {
        let start = Addr::new(start).align_down(size.bytes());
        let seq = BurstSequence::new(start, kind, size);
        let addrs: Vec<Addr> = seq.clone().collect();
        prop_assert_eq!(addrs.len() as u32, kind.beats());
        for addr in &addrs {
            prop_assert!(addr.is_aligned(size.bytes()));
        }
        if kind.is_wrapping() {
            let block = kind.beats() * size.bytes();
            let base = start.align_down(block);
            for addr in &addrs {
                prop_assert_eq!(addr.align_down(block), base);
            }
            // A wrapping burst visits distinct addresses covering the block.
            let mut unique: Vec<u32> = addrs.iter().map(|a| a.value()).collect();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len() as u32, kind.beats());
        } else {
            // Incrementing bursts are strictly increasing by the beat size.
            for pair in addrs.windows(2) {
                prop_assert_eq!(pair[1].value(), pair[0].value() + size.bytes());
            }
        }
    }

    /// The deterministic RNG produces identical streams for identical seeds
    /// and respects range bounds.
    #[test]
    fn rng_is_deterministic_and_bounded(seed in any::<u64>(), low in 0u64..1000, span in 1u64..1000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = a.range_u64(low, low + span);
        prop_assert!(v >= low && v < low + span);
    }

    /// Every transaction emitted by every preset workload profile is legal
    /// AHB: aligned and never crossing a 1 KB boundary.
    #[test]
    fn generated_traffic_is_always_protocol_legal(
        seed in any::<u64>(),
        profile_index in 0usize..4,
        count in 1usize..80,
    ) {
        let profile = match profile_index {
            0 => MasterProfile::cpu(),
            1 => MasterProfile::dma_stream(),
            2 => MasterProfile::video_realtime(),
            _ => MasterProfile::block_writer(),
        };
        let trace = Workload::new(MasterId::new(1), profile, seed).generate(count);
        prop_assert_eq!(trace.len(), count);
        for item in trace.items() {
            prop_assert!(validate_transaction(&item.txn).is_ok());
        }
    }

    /// Bank FSM invariant: an access to the row that is already open is
    /// never slower than an access that has to open it, and a prepared bank
    /// never makes an access slower than a cold bank.
    #[test]
    fn bank_latencies_are_monotone(
        row in 0u32..64,
        other_row in 64u32..128,
        gap in 0u64..200,
        beats in 1u32..16,
    ) {
        let timing = DdrTiming::ddr_266().without_refresh();
        // Hit vs conflict.
        let mut hit_bank = Bank::new();
        hit_bank.access(Cycle::new(0), row, false, beats, &timing);
        let hit = hit_bank.access(Cycle::new(100 + gap), row, false, beats, &timing);
        let mut conflict_bank = Bank::new();
        conflict_bank.access(Cycle::new(0), row, false, beats, &timing);
        let conflict = conflict_bank.access(Cycle::new(100 + gap), other_row, false, beats, &timing);
        prop_assert!(hit.latency <= conflict.latency);

        // Prepared vs cold.
        let mut prepared = Bank::new();
        prepared.prepare(Cycle::new(0), row, &timing);
        let warm = prepared.access(Cycle::new(50 + gap), row, false, beats, &timing);
        let mut cold = Bank::new();
        let miss = cold.access(Cycle::new(50 + gap), row, false, beats, &timing);
        prop_assert!(warm.latency <= miss.latency);
    }

    /// Arbitration always grants a requesting master (never deadlocks or
    /// invents one), and a sole urgent real-time master always wins.
    #[test]
    fn arbitration_grants_exactly_one_pending_master(
        priorities in prop::collection::vec(0u8..16, 1..6),
        urgent_index in 0usize..6,
    ) {
        let mut policy = ArbitrationPolicy::new(ArbiterConfig::ahb_plus());
        let masters: Vec<MasterId> = (0..priorities.len() as u8).map(MasterId::new).collect();
        for (master, priority) in masters.iter().zip(&priorities) {
            policy.program_qos(*master, QosConfig::non_real_time(*priority));
        }
        let mut requests = SampledRequests::new();
        for (slot, _) in masters.iter().enumerate() {
            requests.push(slot, Cycle::new(0), Addr::new(0x2000_0000));
        }
        let now = Cycle::new(5);
        let decision = policy.decide(&requests.at(now, |_| false)).expect("someone must win");
        prop_assert!(masters.contains(&decision.master));

        // Make one master urgent real-time; it must win.
        if urgent_index < masters.len() {
            policy.program_qos(masters[urgent_index], QosConfig::real_time(10, 15));
            let decision = policy
                .decide(&requests.at(Cycle::new(100), |_| false))
                .expect("someone must win");
            prop_assert_eq!(decision.master, masters[urgent_index]);
        }
    }
}
