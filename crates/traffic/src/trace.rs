//! Workload expansion: from a statistical profile to a concrete trace.
//!
//! A [`Workload`] couples a [`MasterProfile`] with a master id and a seed
//! and expands it into a [`TrafficTrace`]: a finite list of fully-formed
//! transactions, each annotated with a release rule (a think gap after the
//! previous completion, or an absolute release cycle for periodic masters).
//! Both bus models replay the identical trace, beat for beat.

use amba::check::validate_transaction;
use amba::ids::{Addr, MasterId};
use amba::txn::{Transaction, TransactionId, TransferDirection};
use simkern::rng::SimRng;
use simkern::time::{Cycle, CycleDelta};

use crate::profile::{MasterProfile, ReleasePolicy};

/// When a trace item may be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Issue the request `gap` cycles after the previous request of this
    /// master completed (closed-loop master).
    AfterPrevious(CycleDelta),
    /// Issue the request at the given absolute cycle (periodic master); if
    /// the previous request is still outstanding the new one queues behind
    /// it.
    At(Cycle),
}

impl Release {
    /// The rule as the affine-max pair `(a, b)`: the item releases at
    /// `max(done + a, b)` once the previous item completed at `done`
    /// (`AfterPrevious(gap)` → `(gap, 0)`, `At(at)` → `(0, at)`). Pairs
    /// compose, which is what [`TrafficTrace::crossing_transforms`]
    /// folds along a trace.
    #[must_use]
    pub fn affine(self) -> (u64, u64) {
        match self {
            Release::AfterPrevious(gap) => (gap.value(), 0),
            Release::At(at) => (0, at.value()),
        }
    }

    /// The cycle the item releases at when the previous item of its trace
    /// completed (or, for a posted write, was absorbed) at `done`. The
    /// first item of a trace uses `done = Cycle::ZERO`.
    #[must_use]
    pub fn after(self, done: Cycle) -> Cycle {
        let (a, b) = self.affine();
        Cycle::new((done.value() + a).max(b))
    }
}

/// One entry of a traffic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceItem {
    /// Release rule for this request.
    pub release: Release,
    /// The transaction to issue.
    pub txn: Transaction,
}

/// A finite, deterministic request trace for one master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficTrace {
    master: MasterId,
    items: Vec<TraceItem>,
}

impl TrafficTrace {
    /// An empty trace owned by `master`. Dynamic ports (the AHB-to-AHB
    /// bridge master of a multi-bus platform) start from this and receive
    /// their items at runtime via [`TrafficTrace::insert_pending`].
    #[must_use]
    pub fn empty(master: MasterId) -> Self {
        TrafficTrace {
            master,
            items: Vec::new(),
        }
    }

    /// Inserts a transaction released at the absolute cycle `release_at`
    /// into the not-yet-issued tail `from..` of the trace, keeping that
    /// tail sorted by `(release, id)`, and returns its index. This is how
    /// a *dynamic* port (the bridge replay master) receives its work;
    /// generated workloads never grow after expansion.
    ///
    /// Sorted insertion makes the replay order a pure function of the
    /// *set* of deliveries: whether the platform hands them over one
    /// barrier at a time (fixed quantum) or several barriers merged into
    /// one batch (adaptive lookahead), the trace ends up identical. The
    /// insertion never displaces work the bus has already seen: an item
    /// that was granted, parked or released for arbitration carries a
    /// release no later than the current cycle, while a crossing always
    /// arrives strictly after the barrier it was routed at. An index equal
    /// to `from` means the new item is the head; the port refreshes its
    /// release.
    ///
    /// # Panics
    ///
    /// Panics when the transaction does not belong to this trace's master.
    pub fn insert_pending(&mut self, from: usize, txn: Transaction, release_at: Cycle) -> usize {
        assert_eq!(
            txn.master, self.master,
            "trace item inserted into the wrong master's trace"
        );
        let key = (release_at, txn.id.value());
        let index = from
            + self.items[from..].partition_point(|item| match item.release {
                Release::At(at) => (at, item.txn.id.value()) < key,
                // Dynamic ports only ever carry absolute releases.
                Release::AfterPrevious(_) => true,
            });
        self.items.insert(
            index,
            TraceItem {
                release: Release::At(release_at),
                txn,
            },
        );
        index
    }

    /// The release cycle of the first item, or `Cycle::MAX` for an empty
    /// trace.
    #[must_use]
    pub fn first_release(&self) -> Cycle {
        self.items
            .first()
            .map_or(Cycle::MAX, |item| item.release.after(Cycle::ZERO))
    }

    /// The backward min-plus transform table the multi-bus lookahead scan
    /// evaluates in O(1): entry `p` is `Some((a, b))` when, with the item
    /// at `p` releasing no earlier than `t`, the earliest cycle an item
    /// for which `is_remote` holds can release is `max(t + a, b)`; `None`
    /// means no such item remains from `p` on. Each entry composes the
    /// [`Release::affine`] steps up to the next remote item. Entry `len()`
    /// is the past-the-end sentinel.
    #[must_use]
    pub fn crossing_transforms(&self, is_remote: impl Fn(Addr) -> bool) -> Vec<Option<(u64, u64)>> {
        let items = &self.items;
        let mut ahead: Vec<Option<(u64, u64)>> = vec![None; items.len() + 1];
        for p in (0..items.len()).rev() {
            ahead[p] = if is_remote(items[p].txn.addr) {
                Some((0, 0))
            } else {
                ahead[p + 1].map(|(a2, b2)| {
                    let (a1, b1) = items[p + 1].release.affine();
                    (a1.saturating_add(a2), b1.saturating_add(a2).max(b2))
                })
            };
        }
        ahead
    }

    /// The master this trace belongs to.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// The trace entries in issue order.
    #[must_use]
    pub fn items(&self) -> &[TraceItem] {
        &self.items
    }

    /// Number of requests in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` for an empty trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of bytes the trace will move.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.items.iter().map(|i| u64::from(i.txn.bytes())).sum()
    }

    /// Total number of data beats the trace will transfer.
    #[must_use]
    pub fn total_beats(&self) -> u64 {
        self.items.iter().map(|i| u64::from(i.txn.beats())).sum()
    }
}

/// A master profile bound to a master id and a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    master: MasterId,
    profile: MasterProfile,
    seed: u64,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(master: MasterId, profile: MasterProfile, seed: u64) -> Self {
        Workload {
            master,
            profile,
            seed,
        }
    }

    /// The master id.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// The profile.
    #[must_use]
    pub fn profile(&self) -> &MasterProfile {
        &self.profile
    }

    /// Expands the workload into a trace of `count` transactions.
    ///
    /// The expansion is fully determined by `(master, profile, seed)`: two
    /// calls always return identical traces.
    ///
    /// # Panics
    ///
    /// Panics if the profile would generate an illegal transaction (this is
    /// a bug in the generator, caught eagerly by a protocol check on every
    /// produced item).
    #[must_use]
    pub fn generate(&self, count: usize) -> TrafficTrace {
        let mut rng = SimRng::new(self.seed).fork(self.master.index() as u64 + 1);
        let profile = &self.profile;
        let align = profile.max_burst_bytes().next_power_of_two();
        let region_slots = (profile.region_bytes / align).max(1);

        let mut items = Vec::with_capacity(count);
        let mut cursor = profile.region_base;
        let mut next_periodic = Cycle::ZERO;
        let mut id = TransactionId::new(u64::from(self.master.index() as u32) << 32);

        for _ in 0..count {
            // Direction.
            let direction = if rng.chance_permille(profile.read_permille) {
                TransferDirection::Read
            } else {
                TransferDirection::Write
            };

            // Burst shape.
            let weights: Vec<u32> = profile.burst_weights.iter().map(|(_, w)| *w).collect();
            let pick = rng.pick_weighted(&weights).unwrap_or(0);
            let burst = profile.burst_weights[pick].0;

            // Address: either continue sequentially or jump somewhere random
            // in the region; always aligned to the largest burst so no
            // generated burst can cross a 1 KB boundary.
            let addr = if rng.chance_permille(profile.sequential_permille) {
                cursor
            } else {
                let slot = rng.range_u64(0, u64::from(region_slots)) as u32;
                profile.region_base.wrapping_add(slot * align)
            };
            let addr = Addr::new(
                profile.region_base.value()
                    + (addr.value().wrapping_sub(profile.region_base.value())
                        % profile.region_bytes),
            )
            .align_down(align);
            cursor = addr.wrapping_add(burst.beats() * profile.size.bytes());
            // Keep the cursor inside the region.
            if cursor.value().wrapping_sub(profile.region_base.value()) >= profile.region_bytes {
                cursor = profile.region_base;
            }

            // Release rule.
            let release = match profile.release {
                ReleasePolicy::ClosedLoop { min_gap, max_gap } => {
                    let gap = if max_gap > min_gap {
                        rng.range_u64(u64::from(min_gap), u64::from(max_gap) + 1)
                    } else {
                        u64::from(min_gap)
                    };
                    Release::AfterPrevious(CycleDelta::new(gap))
                }
                ReleasePolicy::Periodic { period, jitter } => {
                    let jitter = if jitter > 0 {
                        rng.range_u64(0, u64::from(jitter) + 1)
                    } else {
                        0
                    };
                    let release = Release::At(next_periodic + CycleDelta::new(jitter));
                    next_periodic += CycleDelta::new(u64::from(period));
                    release
                }
            };

            let txn = Transaction::new(self.master, addr, direction, burst, profile.size)
                .with_id(id)
                .with_posted(profile.posted_writes);
            assert!(
                validate_transaction(&txn).is_ok(),
                "generator produced an illegal transaction: {txn}"
            );
            id = id.next();
            items.push(TraceItem { release, txn });
        }

        TrafficTrace {
            master: self.master,
            items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MasterKind;

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::new(MasterId::new(2), MasterProfile::cpu(), 7);
        let a = w.generate(200);
        let b = w.generate(200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::new(MasterId::new(0), MasterProfile::cpu(), 1).generate(50);
        let b = Workload::new(MasterId::new(0), MasterProfile::cpu(), 2).generate(50);
        assert_ne!(a, b);
    }

    #[test]
    fn all_generated_transactions_are_legal() {
        for profile in [
            MasterProfile::cpu(),
            MasterProfile::dma_stream(),
            MasterProfile::video_realtime(),
            MasterProfile::block_writer(),
        ] {
            let w = Workload::new(MasterId::new(1), profile, 99);
            let trace = w.generate(500);
            for item in trace.items() {
                assert!(validate_transaction(&item.txn).is_ok());
            }
        }
    }

    #[test]
    fn addresses_stay_inside_the_region() {
        let profile = MasterProfile::dma_stream();
        let base = profile.region_base.value();
        let size = profile.region_bytes;
        let trace = Workload::new(MasterId::new(0), profile, 3).generate(500);
        for item in trace.items() {
            let offset = item.txn.addr.value().wrapping_sub(base);
            assert!(offset < size, "address {} outside region", item.txn.addr);
        }
    }

    #[test]
    fn write_only_profile_generates_only_writes() {
        let trace =
            Workload::new(MasterId::new(3), MasterProfile::block_writer(), 11).generate(100);
        assert!(trace.items().iter().all(|i| i.txn.is_write()));
        assert!(trace.items().iter().all(|i| i.txn.posted_ok));
    }

    #[test]
    fn read_only_profile_generates_only_reads() {
        let trace =
            Workload::new(MasterId::new(1), MasterProfile::video_realtime(), 11).generate(100);
        assert!(trace.items().iter().all(|i| !i.txn.is_write()));
    }

    #[test]
    fn periodic_profile_uses_absolute_releases_in_order() {
        let trace =
            Workload::new(MasterId::new(1), MasterProfile::video_realtime(), 5).generate(50);
        let mut last = Cycle::ZERO;
        for item in trace.items() {
            match item.release {
                Release::At(at) => {
                    assert!(at >= last, "periodic releases must be monotone");
                    last = at;
                }
                Release::AfterPrevious(_) => panic!("periodic master must use absolute releases"),
            }
        }
    }

    #[test]
    fn closed_loop_gaps_respect_bounds() {
        let profile = MasterProfile::cpu();
        let (min_gap, max_gap) = match profile.release {
            ReleasePolicy::ClosedLoop { min_gap, max_gap } => (min_gap, max_gap),
            _ => unreachable!(),
        };
        let trace = Workload::new(MasterId::new(0), profile, 21).generate(300);
        for item in trace.items() {
            match item.release {
                Release::AfterPrevious(gap) => {
                    assert!(gap.value() >= u64::from(min_gap));
                    assert!(gap.value() <= u64::from(max_gap));
                }
                Release::At(_) => panic!("closed-loop master must use relative releases"),
            }
        }
    }

    #[test]
    fn transaction_ids_are_unique_and_namespaced_per_master() {
        let a = Workload::new(MasterId::new(1), MasterProfile::cpu(), 1).generate(100);
        let b = Workload::new(MasterId::new(2), MasterProfile::cpu(), 1).generate(100);
        let mut ids: Vec<u64> = a
            .items()
            .iter()
            .chain(b.items())
            .map(|i| i.txn.id.value())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn release_rule_follows_completion_or_the_absolute_slot() {
        assert_eq!(Release::AfterPrevious(CycleDelta::new(7)).affine(), (7, 0));
        assert_eq!(Release::At(Cycle::new(40)).affine(), (0, 40));
        assert_eq!(
            Release::AfterPrevious(CycleDelta::new(7)).after(Cycle::new(10)),
            Cycle::new(17)
        );
        assert_eq!(
            Release::At(Cycle::new(40)).after(Cycle::new(10)),
            Cycle::new(40)
        );
        assert_eq!(
            Release::At(Cycle::new(40)).after(Cycle::new(50)),
            Cycle::new(50)
        );
        assert_eq!(
            TrafficTrace::empty(MasterId::new(0)).first_release(),
            Cycle::MAX
        );
    }

    fn bridge_txn(id: u64) -> Transaction {
        Transaction::new(
            MasterId::new(9),
            Addr::new(0x1000),
            TransferDirection::Write,
            amba::burst::BurstKind::Incr4,
            amba::signal::HSize::Word,
        )
        .with_id(TransactionId::new(id))
    }

    #[test]
    fn pending_insertions_keep_the_tail_sorted_by_release_then_id() {
        let mut trace = TrafficTrace::empty(MasterId::new(9));
        assert_eq!(trace.insert_pending(0, bridge_txn(5), Cycle::new(100)), 0);
        assert_eq!(trace.insert_pending(0, bridge_txn(3), Cycle::new(100)), 0);
        assert_eq!(trace.insert_pending(0, bridge_txn(1), Cycle::new(200)), 2);
        // Items before `from` are committed history and never reordered.
        assert_eq!(trace.insert_pending(1, bridge_txn(0), Cycle::new(50)), 1);
        let order: Vec<u64> = trace.items().iter().map(|i| i.txn.id.value()).collect();
        assert_eq!(order, [3, 0, 5, 1]);
    }

    #[test]
    #[should_panic(expected = "wrong master")]
    fn pending_insertions_reject_foreign_transactions() {
        TrafficTrace::empty(MasterId::new(1)).insert_pending(0, bridge_txn(0), Cycle::ZERO);
    }

    #[test]
    fn trace_totals_are_consistent() {
        let trace = Workload::new(MasterId::new(0), MasterProfile::dma_stream(), 8).generate(50);
        assert_eq!(trace.len(), 50);
        assert!(!trace.is_empty());
        assert_eq!(trace.total_bytes(), trace.total_beats() * 4);
        assert_eq!(trace.master(), MasterId::new(0));
        let kind = MasterKind::StreamingDma;
        assert_eq!(kind.label(), "dma");
    }

    /// A trace sampled from raw words: bit 0 picks the rule
    /// (`AfterPrevious(gap ≤ 50)` or `At(t ≤ 5000)`), bit 1 marks the
    /// item remote, and item `i` sits at address `i << 12` so the remote
    /// mask can be read back from the address.
    fn sampled_trace(words: &[u64]) -> (TrafficTrace, Vec<bool>) {
        let mut items = Vec::with_capacity(words.len());
        let mut remote = Vec::with_capacity(words.len());
        for (i, &word) in words.iter().enumerate() {
            let release = if word & 1 == 0 {
                Release::AfterPrevious(CycleDelta::new((word >> 8) % 51))
            } else {
                Release::At(Cycle::new((word >> 8) % 5001))
            };
            let txn = Transaction::new(
                MasterId::new(0),
                Addr::new((i as u32) << 12),
                TransferDirection::Read,
                amba::burst::BurstKind::Single,
                amba::signal::HSize::Word,
            );
            items.push(TraceItem { release, txn });
            remote.push(word & 2 != 0);
        }
        let trace = TrafficTrace {
            master: MasterId::new(0),
            items,
        };
        (trace, remote)
    }

    proptest::proptest! {
        #[test]
        fn crossing_transforms_match_a_forward_walk(
            words in proptest::collection::vec(proptest::any::<u64>(), 0..33),
            head in 0u64..6000,
        ) {
            let (trace, remote) = sampled_trace(&words);
            let table = trace.crossing_transforms(|addr| remote[(addr.value() >> 12) as usize]);
            proptest::prop_assert_eq!(table.len(), trace.len() + 1);
            proptest::prop_assert_eq!(table[trace.len()], None);
            for (p, entry) in table.iter().enumerate().take(trace.len()) {
                for t in [0, head, head / 7, head + 4999] {
                    // Brute force: release each item at the earliest the
                    // rule allows (its predecessor done at its own
                    // release) until the first remote item.
                    let mut at = Cycle::new(t);
                    let mut q = p;
                    while q < trace.len() && !remote[q] {
                        q += 1;
                        if q < trace.len() {
                            at = trace.items()[q].release.after(at);
                        }
                    }
                    match entry {
                        Some((a, b)) => {
                            proptest::prop_assert!(q < trace.len(), "Some past the last remote item");
                            proptest::prop_assert_eq!(Cycle::new((t + a).max(*b)), at);
                        }
                        None => proptest::prop_assert!(
                            remote[p..].iter().all(|r| !r),
                            "None with a remote item ahead at {}", p
                        ),
                    }
                }
            }
        }
    }
}
