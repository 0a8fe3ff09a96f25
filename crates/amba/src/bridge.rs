//! The AHB-to-AHB bridge vocabulary shared by multi-bus platforms.
//!
//! A multi-bus platform splits the address space into windows, each owned
//! by one bus *shard*. A transaction whose address falls into a remote
//! shard's window leaves the shard through the bridge's slave port and is
//! later replayed on the owning shard by that shard's bridge master port.
//! [`WindowMap`] is the window decode both sides agree on — interleaved
//! round-robin ownership (the classic layout) or an explicit per-window
//! owner table for non-uniform platforms; [`BridgeCrossing`] is
//! the record a shard's bridge emits when a transaction (or a read
//! response) leaves the shard, with [`CrossingLeg`] saying which leg of
//! the protocol it is; [`ReplayStats`] counts the work a shard's bridge
//! master replayed on behalf of remote shards, so platform-level
//! aggregation can count every transaction exactly once.
//!
//! # Posted and non-posted crossings
//!
//! Writes always cross *posted*: the local transfer completes into the
//! bridge request FIFO and the replay runs asynchronously on the owning
//! shard. Reads cross posted by default (split-transaction prefetch
//! semantics), but a bridge port configured with `posted_reads == false`
//! turns them into **non-posted** crossings: the request leg crosses, the
//! issuing master stalls, the read is replayed on the owning shard, and a
//! [`CrossingLeg::ReadResponse`] crosses back to retire the stalled
//! transfer — the bridge carries traffic in both directions.
//!
//! The types live here (not in the multi-bus crate) because both bus
//! backends produce and consume them at their ports, exactly like the rest
//! of the transaction vocabulary.

use std::sync::Arc;

use crate::ids::Addr;
use crate::txn::Transaction;
use simkern::time::Cycle;

/// Smallest explicit-table window shift [`WindowMap::explicit`] accepts:
/// the owner table covers the whole 32-bit address space, so the shift
/// bounds its size (`1 << (32 - shift)` entries; shift 16 → 65536).
pub const MIN_EXPLICIT_WINDOW_SHIFT: u32 = 16;

/// The generalized shard-window decode: every address is owned by exactly
/// one shard, either by round-robin interleave or by an explicit
/// per-window owner table (non-uniform ownership — a hot shard may own
/// three windows for every one of its neighbour's).
///
/// Both the local bridge slave (deciding which transactions leave the
/// shard) and the platform router (deciding which shard a crossing lands
/// on) evaluate the same map, so a crossing can never be mis-routed.
/// Cloning is cheap: the explicit owner table is shared (`Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowMap {
    window_shift: u32,
    shards: u8,
    /// `None` → interleaved (`window % shards`); `Some` → explicit owner
    /// per window, covering the full address space.
    owners: Option<Arc<[u8]>>,
}

impl WindowMap {
    /// The interleaved map: the address space is divided into
    /// `1 << window_shift`-byte windows and window `w` is owned by shard
    /// `w % shards`.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or the shift leaves no windows.
    #[must_use]
    pub fn interleaved(window_shift: u32, shards: u8) -> Self {
        assert!(shards >= 1, "a platform needs at least one shard");
        assert!(window_shift < 32, "window shift must leave windows");
        WindowMap {
            window_shift,
            shards,
            owners: None,
        }
    }

    /// An explicit map: `owners[w]` is the shard owning window `w`. The
    /// table must cover the full 32-bit address space — exactly
    /// `1 << (32 - window_shift)` entries — which is also what makes
    /// "every address has exactly one owner, no overlap" true by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics when the shift is outside
    /// `[`[`MIN_EXPLICIT_WINDOW_SHIFT`]`, 32)`, when the table length
    /// does not match the shift, or when an owner index reaches `shards`.
    #[must_use]
    pub fn explicit(window_shift: u32, shards: u8, owners: Vec<u8>) -> Self {
        assert!(shards >= 1, "a platform needs at least one shard");
        assert!(
            (MIN_EXPLICIT_WINDOW_SHIFT..32).contains(&window_shift),
            "explicit window shift must lie in [{MIN_EXPLICIT_WINDOW_SHIFT}, 32)"
        );
        let windows = 1usize << (32 - window_shift);
        assert_eq!(
            owners.len(),
            windows,
            "owner table must cover the full address space ({windows} windows)"
        );
        assert!(
            owners.iter().all(|&owner| owner < shards),
            "window owner index out of range"
        );
        WindowMap {
            window_shift,
            shards,
            owners: Some(owners.into()),
        }
    }

    /// Log2 of the window size in bytes.
    #[must_use]
    pub fn window_shift(&self) -> u32 {
        self.window_shift
    }

    /// Number of shards the map decodes to.
    #[must_use]
    pub fn shards(&self) -> u8 {
        self.shards
    }

    /// `true` when ownership is the uniform round-robin interleave.
    #[must_use]
    pub fn is_interleaved(&self) -> bool {
        self.owners.is_none()
    }

    /// The shard owning `addr`.
    #[must_use]
    #[inline]
    pub fn owner(&self, addr: Addr) -> u8 {
        let window = addr.value() >> self.window_shift;
        match &self.owners {
            None => (window % u32::from(self.shards)) as u8,
            Some(owners) => owners[window as usize],
        }
    }

    /// Whether `addr` lies outside the window set of shard `own` (and a
    /// transaction to it must cross the bridge).
    #[must_use]
    #[inline]
    pub fn is_remote(&self, addr: Addr, own: u8) -> bool {
        self.owner(addr) != own
    }
}

/// The bridge attachment of one bus shard: how the shard recognizes
/// remote addresses (slave side), which master identifier its bridge
/// replay port uses (master side), and whether remote reads cross posted
/// or stall the issuing master until the response returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgePort {
    /// The platform-wide shard-window decode.
    pub map: WindowMap,
    /// This shard's index in the map.
    pub own: u8,
    /// Wait states of the bridge slave window: cycles between a local
    /// transaction's address phase and its first data beat when it posts
    /// into the bridge FIFO (the bridge buffers, so no DRAM latency is
    /// paid locally).
    pub slave_cycles: u64,
    /// Master identifier of the shard's bridge replay port. Must not
    /// collide with the shard's trace masters or the write-buffer id.
    pub master: crate::ids::MasterId,
    /// `true` → remote reads complete locally against the bridge slave
    /// like writes do (split-transaction prefetch semantics, no response
    /// traffic — the classic posted bridge). `false` → remote reads are
    /// **non-posted**: the request leg crosses, the issuing master stalls,
    /// and a [`CrossingLeg::ReadResponse`] crosses back to retire it.
    pub posted_reads: bool,
}

impl BridgePort {
    /// Turns a crossing's source transaction into the replay the bridge
    /// master issues on this shard: same address, direction, burst shape
    /// and size; the master id rewritten to the bridge port; posting
    /// disabled (the crossing was already posted on its source shard —
    /// posting the replay would count the write buffer twice); and a
    /// fresh identifier from the reserved replay namespace.
    ///
    /// Replay ids set bit 63 (no workload generator does — trace ids are
    /// namespaced `master << 32`, below 2^40), carry the shard index in
    /// bits 48..56 and the *source transaction's* id below. A source
    /// transaction crosses into a given shard at most once (routing is a
    /// pure function of its address), so the replay id is unique — and,
    /// unlike a per-shard injection counter, independent of the order
    /// deliveries reach this shard in. That order independence is what
    /// lets the adaptive-lookahead scheduler merge delivery batches
    /// without perturbing replay identity. Both shard backends mint
    /// through this one method, which is what keeps a `sharded-tlm` and
    /// a `sharded-lt` run of the same platform id-for-id comparable.
    #[must_use]
    pub fn replay_txn(&self, source: Transaction) -> Transaction {
        let seq = source.id.value();
        debug_assert!(seq < 1 << 48, "source id outside the replay namespace");
        let mut txn = source;
        txn.master = self.master;
        txn.posted_ok = false;
        txn.id = crate::txn::TransactionId::new(
            (1 << 63) | (u64::from(self.own) << 48) | (seq & ((1 << 48) - 1)),
        );
        txn
    }
}

/// Which leg of the bridge protocol a [`BridgeCrossing`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingLeg {
    /// A posted request: replayed on the owning shard, no response. The
    /// source shard has already completed (and counted) the transfer.
    Posted,
    /// A non-posted read request from shard `origin`: replayed on the
    /// owning shard, which must return a [`CrossingLeg::ReadResponse`]
    /// once the replay completes. The source master is stalled until the
    /// response retires it; the transfer is counted at retirement.
    NonPostedRead {
        /// Shard the stalled master lives on (where the response goes).
        origin: u8,
    },
    /// The response leg of a non-posted read: carries the *original*
    /// transaction (source master id and transaction id intact) back to
    /// shard `origin`, where it retires the stalled transfer.
    ReadResponse {
        /// Shard the stalled master lives on.
        origin: u8,
    },
}

impl CrossingLeg {
    /// `true` for the two request legs (routed to the window owner).
    #[must_use]
    pub fn is_request(&self) -> bool {
        !matches!(self, CrossingLeg::ReadResponse { .. })
    }
}

/// One transaction handed from a shard's bridge to the bridge fabric: the
/// transaction, the cycle it entered the link (local transfer completed
/// into the request FIFO, or the replay whose response this is
/// completed), and which protocol leg it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeCrossing {
    /// Cycle the crossing entered the bridge FIFO on its source shard.
    pub issued_at: Cycle,
    /// The crossing transaction. Request legs still carry the original
    /// master id (the remote replay rewrites it to the bridge master);
    /// the response leg carries the original transaction unchanged.
    pub txn: Transaction,
    /// Which protocol leg this crossing is.
    pub leg: CrossingLeg,
}

impl BridgeCrossing {
    /// A posted request crossing (the PR-4 bridge's only traffic).
    #[must_use]
    pub fn posted(issued_at: Cycle, txn: Transaction) -> Self {
        BridgeCrossing {
            issued_at,
            txn,
            leg: CrossingLeg::Posted,
        }
    }
}

/// Work a shard's bridge master replayed on behalf of remote shards.
///
/// Every crossing is counted once at its *source* (the local posting
/// transfer, or the response retirement of a non-posted read); the remote
/// replay is additional bus occupancy, not additional completed work, so
/// platform aggregation subtracts these totals from the summed per-shard
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Replayed transactions.
    pub transactions: u64,
    /// Bytes the replays moved.
    pub bytes: u64,
    /// Data beats the replays transferred.
    pub data_beats: u64,
}

impl ReplayStats {
    /// Records one replayed transaction.
    pub fn record(&mut self, txn: &Transaction) {
        self.transactions += 1;
        self.bytes += u64::from(txn.bytes());
        self.data_beats += u64::from(txn.beats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstKind;
    use crate::ids::MasterId;
    use crate::signal::HSize;
    use crate::txn::TransferDirection;

    fn port() -> BridgePort {
        BridgePort {
            map: WindowMap::interleaved(24, 4),
            own: 3,
            slave_cycles: 2,
            master: MasterId::new(252),
            posted_reads: true,
        }
    }

    #[test]
    fn windows_interleave_over_the_shards() {
        let map = WindowMap::interleaved(24, 4);
        assert_eq!(map.owner(Addr::new(0x0000_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0100_0000)), 1);
        assert_eq!(map.owner(Addr::new(0x0200_0000)), 2);
        assert_eq!(map.owner(Addr::new(0x0300_0000)), 3);
        assert_eq!(map.owner(Addr::new(0x0400_0000)), 0);
        assert!(map.is_remote(Addr::new(0x0100_0000), 0));
        assert!(!map.is_remote(Addr::new(0x0400_0000), 0));
    }

    #[test]
    fn single_shard_map_owns_everything() {
        let map = WindowMap::interleaved(24, 1);
        for addr in [0u32, 0x2000_0000, 0xFFFF_FFFF] {
            assert_eq!(map.owner(Addr::new(addr)), 0);
            assert!(!map.is_remote(Addr::new(addr), 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panic() {
        let _ = WindowMap::interleaved(24, 0);
    }

    /// "The shard map" is the classic interleave: shard
    /// `(addr >> shift) % shards` owns `addr`.
    #[test]
    fn window_map_interleaved_matches_the_shard_map() {
        let window_map = WindowMap::interleaved(24, 4);
        assert!(window_map.is_interleaved());
        assert_eq!(window_map.shards(), 4);
        assert_eq!(window_map.window_shift(), 24);
        for raw in [0u32, 0x0100_0000, 0x1234_5678, 0xFFFF_FFFF] {
            let addr = Addr::new(raw);
            let owner = ((raw >> 24) % 4) as u8;
            assert_eq!(window_map.owner(addr), owner);
            assert_eq!(window_map.is_remote(addr, 2), owner != 2);
        }
    }

    #[test]
    #[should_panic(expected = "window shift must leave windows")]
    fn interleaved_window_map_rejects_a_shift_without_windows() {
        let _ = WindowMap::interleaved(32, 2);
    }

    #[test]
    fn explicit_window_map_follows_its_owner_table() {
        // 24-bit windows → 256 entries: shard 1 owns every fourth window,
        // shard 0 the other three — non-uniform 3:1 ownership.
        let owners: Vec<u8> = (0..256).map(|w| u8::from(w % 4 == 3)).collect();
        let map = WindowMap::explicit(24, 2, owners);
        assert!(!map.is_interleaved());
        assert_eq!(map.owner(Addr::new(0x0000_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0200_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0300_0000)), 1);
        assert!(map.is_remote(Addr::new(0x0300_0000), 0));
        assert!(!map.is_remote(Addr::new(0x0700_0000), 1));
    }

    #[test]
    #[should_panic(expected = "full address space")]
    fn explicit_window_map_rejects_partial_coverage() {
        let _ = WindowMap::explicit(24, 2, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "owner index out of range")]
    fn explicit_window_map_rejects_dangling_owners() {
        let _ = WindowMap::explicit(24, 2, vec![7; 256]);
    }

    #[test]
    fn replay_transactions_are_rewritten_and_uniquely_namespaced() {
        let port = port();
        let source = Transaction::new(
            MasterId::new(7),
            Addr::new(0x0100_0000),
            TransferDirection::Write,
            BurstKind::Incr8,
            HSize::Word,
        )
        .with_posted(true)
        .with_id(crate::txn::TransactionId::new(41));
        let replay = port.replay_txn(source);
        assert_eq!(replay.master, MasterId::new(252));
        assert!(!replay.posted_ok, "replays are demand transfers");
        assert_eq!(replay.addr, source.addr);
        assert_eq!(replay.beats(), source.beats());
        // Bit 63 marks the replay namespace; shard index and the source
        // transaction's id follow.
        assert_eq!(replay.id.value(), (1 << 63) | (3 << 48) | 41);
        let other_shard = BridgePort {
            own: 2,
            ..port.clone()
        };
        assert_ne!(other_shard.replay_txn(source).id, replay.id);
    }

    #[test]
    fn crossing_legs_distinguish_requests_from_responses() {
        assert!(CrossingLeg::Posted.is_request());
        assert!(CrossingLeg::NonPostedRead { origin: 1 }.is_request());
        assert!(!CrossingLeg::ReadResponse { origin: 1 }.is_request());
        let txn = Transaction::new(
            MasterId::new(3),
            Addr::new(0x2000_0000),
            TransferDirection::Read,
            BurstKind::Incr4,
            HSize::Word,
        );
        let crossing = BridgeCrossing::posted(Cycle::new(10), txn);
        assert_eq!(crossing.leg, CrossingLeg::Posted);
        assert_eq!(crossing.issued_at, Cycle::new(10));
    }

    #[test]
    fn replay_stats_accumulate_transaction_totals() {
        let txn = Transaction::new(
            MasterId::new(3),
            Addr::new(0x2000_0000),
            TransferDirection::Write,
            BurstKind::Incr8,
            HSize::Word,
        );
        let mut stats = ReplayStats::default();
        stats.record(&txn);
        stats.record(&txn);
        assert_eq!(stats.transactions, 2);
        assert_eq!(stats.data_beats, 16);
        assert_eq!(stats.bytes, u64::from(txn.bytes()) * 2);
    }
}
