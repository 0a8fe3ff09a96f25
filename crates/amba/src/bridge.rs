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
//! # The shard port
//!
//! [`ShardPort`] is the shard end of the protocol, modelled once for both
//! shard backends: the replay bookkeeping of the bridge master, the egress
//! log the platform drains every quantum, parked reads and owed responses,
//! and the crossing-transform table behind the lookahead bound. A backend
//! keeps only its own glue: parking and resuming masters, its DRAM and
//! write-buffer paths, and its trace calls.
//!
//! The types live here (not in the multi-bus crate) because both bus
//! backends produce and consume them at their ports, exactly like the rest
//! of the transaction vocabulary.

use std::sync::Arc;

use crate::ids::Addr;
use crate::txn::{Transaction, TransactionId};
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
    /// Whether `addr` lies outside this shard's windows (a transaction to
    /// it leaves through the bridge slave).
    #[must_use]
    #[inline]
    pub fn is_remote(&self, addr: Addr) -> bool {
        self.map.is_remote(addr, self.own)
    }

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

/// One read transfer stalled on its bridge response: the issuing master
/// is parked (its trace not advanced) until the
/// [`CrossingLeg::ReadResponse`] carrying the same transaction id arrives
/// and retires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedRead {
    /// Position of the stalled master on its shard's bus.
    pub position: usize,
    /// The stalled transaction (retirement needs bytes and beats).
    pub txn: Transaction,
    /// Cycle the request was raised (latency accounting).
    pub requested_at: Cycle,
    /// Cycle the request leg was granted the bus.
    pub granted_at: Cycle,
}

/// The bridge endpoint of one bus shard inside a multi-bus platform; see
/// the [module docs](self#the-shard-port).
#[derive(Debug, Clone)]
pub struct ShardPort {
    port: BridgePort,
    /// Position of the bridge replay master on the shard's bus.
    ingress: usize,
    /// Crossings issued since the last [`ShardPort::drain_into`].
    egress: Vec<BridgeCrossing>,
    /// Work replayed on behalf of remote shards so far.
    replayed: ReplayStats,
    /// Local reads stalled on a non-posted crossing.
    parked: Vec<ParkedRead>,
    /// Replays that owe a response: replay id → (origin shard, original
    /// transaction).
    owed_responses: Vec<(TransactionId, u8, Transaction)>,
    /// Per-master release transforms for the lookahead scan (one
    /// `traffic::TrafficTrace::crossing_transforms` table per trace
    /// master, indexed by position): `Some((a, b))` at a trace position
    /// bounds the next crossing by `max(t + a, b)` for a head released at
    /// `t`. The ingress master's trace is dynamic and has no table; the
    /// egress and owed-response checks cover its traffic.
    remote_ahead: Vec<Vec<Option<(u64, u64)>>>,
}

impl ShardPort {
    /// Attaches `port` to a shard whose bridge replay master sits at
    /// position `ingress`, with the crossing-transform table of every
    /// other master (indexed by position).
    #[must_use]
    pub fn new(
        port: BridgePort,
        ingress: usize,
        remote_ahead: Vec<Vec<Option<(u64, u64)>>>,
    ) -> Self {
        ShardPort {
            port,
            ingress,
            egress: Vec::new(),
            replayed: ReplayStats::default(),
            parked: Vec::new(),
            owed_responses: Vec::new(),
            remote_ahead,
        }
    }

    /// The window decode, slave timing and replay master of this port.
    #[must_use]
    pub fn port(&self) -> &BridgePort {
        &self.port
    }

    /// Position of the bridge replay master on the shard's bus.
    #[must_use]
    pub fn ingress(&self) -> usize {
        self.ingress
    }

    /// Whether `txn`, addressed to a remote window, crosses non-posted:
    /// its issuing master stalls after the request handshake until the
    /// response returns.
    #[must_use]
    pub fn stalls(&self, txn: &Transaction) -> bool {
        !self.port.posted_reads && !txn.is_write()
    }

    /// Mints the replay of a delivered crossing for the ingress master.
    /// When `respond_to` names an origin shard the crossing is a
    /// non-posted read, and the replay owes that shard a response leg.
    pub fn replay(&mut self, source: Transaction, respond_to: Option<u8>) -> Transaction {
        let txn = self.port.replay_txn(source);
        if let Some(origin) = respond_to {
            self.owed_responses.push((txn.id, origin, source));
        }
        txn
    }

    /// Accounts one transfer that completed on the shard's bus at
    /// `completed_at` and returns the crossing it issued, if any. A
    /// `remote` transfer (the backend has already decoded its address)
    /// enters the bridge FIFO as a request leg, non-posted for a stalling
    /// read; a replay is work done on behalf of a remote shard, and if it
    /// owed a response, the response leg carrying the original
    /// transaction leaves here.
    pub fn complete(
        &mut self,
        txn: &Transaction,
        remote: bool,
        completed_at: Cycle,
    ) -> Option<BridgeCrossing> {
        let (txn, leg) = if remote && self.stalls(txn) {
            let origin = self.port.own;
            (*txn, CrossingLeg::NonPostedRead { origin })
        } else if remote {
            (*txn, CrossingLeg::Posted)
        } else if txn.master == self.port.master {
            self.replayed.record(txn);
            let index = self
                .owed_responses
                .iter()
                .position(|(id, ..)| *id == txn.id)?;
            let (_, origin, original) = self.owed_responses.swap_remove(index);
            (original, CrossingLeg::ReadResponse { origin })
        } else {
            return None;
        };
        let crossing = BridgeCrossing {
            issued_at: completed_at,
            txn,
            leg,
        };
        self.egress.push(crossing);
        Some(crossing)
    }

    /// Parks a stalled read until its response leg arrives.
    pub fn park(&mut self, read: ParkedRead) {
        self.parked.push(read);
    }

    /// Takes the read stalled on transaction `id` off the parked list.
    ///
    /// # Panics
    ///
    /// Panics when no read is stalled on `id` (a platform routing bug).
    pub fn unpark(&mut self, id: TransactionId) -> ParkedRead {
        let index = self
            .parked
            .iter()
            .position(|read| read.txn.id == id)
            .expect("response for a transaction nobody is stalled on");
        self.parked.swap_remove(index)
    }

    /// Clears `out` and swaps it with the egress log (crossings in local
    /// completion order), so a scheduler draining every quantum recycles
    /// the same two buffers instead of allocating per crossing batch.
    pub fn drain_into(&mut self, out: &mut Vec<BridgeCrossing>) {
        out.clear();
        std::mem::swap(&mut self.egress, out);
    }

    /// Work the bridge master replayed on behalf of remote shards so far.
    #[must_use]
    pub fn replayed(&self) -> ReplayStats {
        self.replayed
    }

    /// Conservative lower bound on the earliest cycle the shard could
    /// issue another crossing, or `None` when it never can from its
    /// current state. It is `now` while traffic is imminent (undrained
    /// egress, a replay owing a response, a remote address among the
    /// backend's `buffered` posted writes); otherwise the minimum of each
    /// master's transform over its `(position, head release, trace
    /// position)` in `heads`. A crossing issued at `t` reaches no other
    /// shard before `t` plus the link latency, so the scheduler may run
    /// every shard to the minimum bound without exchanging.
    #[must_use]
    pub fn next_possible_crossing(
        &self,
        now: Cycle,
        buffered: impl IntoIterator<Item = Addr>,
        heads: impl IntoIterator<Item = (usize, Cycle, usize)>,
    ) -> Option<Cycle> {
        if !self.egress.is_empty()
            || !self.owed_responses.is_empty()
            || buffered.into_iter().any(|addr| self.port.is_remote(addr))
        {
            return Some(now);
        }
        let mut bound = u64::MAX;
        for (position, release, trace_position) in heads {
            if position == self.ingress {
                continue;
            }
            if let Some((a, b)) = self.remote_ahead[position][trace_position] {
                bound = bound.min(release.value().saturating_add(a).max(b));
            }
        }
        (bound != u64::MAX).then(|| Cycle::new(bound))
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

    fn read_at(master: u8, addr: u32, id: u64) -> Transaction {
        Transaction::new(
            MasterId::new(master),
            Addr::new(addr),
            TransferDirection::Read,
            BurstKind::Incr4,
            HSize::Word,
        )
        .with_id(crate::txn::TransactionId::new(id))
    }

    /// Shard 3 of `port()`, with non-posted reads, one trace master at
    /// position 0 and the replay master at position 1.
    fn shard_port(remote_ahead: Vec<Option<(u64, u64)>>) -> ShardPort {
        let port = BridgePort {
            posted_reads: false,
            ..port()
        };
        ShardPort::new(port, 1, vec![remote_ahead])
    }

    #[test]
    fn a_replay_owing_a_response_emits_exactly_one_response_leg() {
        let mut shard = shard_port(vec![None]);
        // A read from shard 1 to an address shard 3 owns.
        let source = read_at(7, 0x0300_0000, 41);
        let replay = shard.replay(source, Some(1));
        assert_eq!(replay.master, MasterId::new(252));
        let crossing = shard.complete(&replay, false, Cycle::new(90));
        let expected = BridgeCrossing {
            issued_at: Cycle::new(90),
            txn: source,
            leg: CrossingLeg::ReadResponse { origin: 1 },
        };
        assert_eq!(crossing, Some(expected));
        let mut drained = Vec::new();
        shard.drain_into(&mut drained);
        assert_eq!(drained, [expected]);
        assert_eq!(shard.replayed().transactions, 1);
        assert_eq!(shard.replayed().data_beats, 4);
    }

    #[test]
    fn a_posted_replay_emits_no_response_leg() {
        let mut shard = shard_port(vec![None]);
        let replay = shard.replay(read_at(7, 0x0300_0000, 41), None);
        assert_eq!(shard.complete(&replay, false, Cycle::new(90)), None);
        let mut drained = vec![BridgeCrossing::posted(Cycle::ZERO, replay)];
        shard.drain_into(&mut drained);
        assert!(
            drained.is_empty(),
            "drain_into clears the buffer it swaps in"
        );
        assert_eq!(shard.replayed().transactions, 1);
    }

    #[test]
    fn remote_transfers_leave_as_request_legs_and_local_ones_do_not() {
        let mut shard = shard_port(vec![None]);
        let remote_read = read_at(0, 0x0100_0000, 1);
        assert!(shard.stalls(&remote_read));
        let leg = shard
            .complete(&remote_read, true, Cycle::new(5))
            .map(|c| c.leg);
        assert_eq!(leg, Some(CrossingLeg::NonPostedRead { origin: 3 }));
        let mut remote_write = read_at(0, 0x0100_0000, 2);
        remote_write.direction = TransferDirection::Write;
        assert!(!shard.stalls(&remote_write));
        let leg = shard
            .complete(&remote_write, true, Cycle::new(6))
            .map(|c| c.leg);
        assert_eq!(leg, Some(CrossingLeg::Posted));
        let local = read_at(0, 0x0300_0000, 3);
        assert_eq!(shard.complete(&local, false, Cycle::new(7)), None);
        assert_eq!(shard.replayed(), ReplayStats::default());
    }

    #[test]
    fn parked_reads_are_found_by_transaction_id() {
        let mut shard = shard_port(vec![None]);
        for id in [4, 9] {
            shard.park(ParkedRead {
                position: 0,
                txn: read_at(0, 0x0100_0000, id),
                requested_at: Cycle::new(id),
                granted_at: Cycle::new(id + 1),
            });
        }
        let read = shard.unpark(crate::txn::TransactionId::new(9));
        assert_eq!(read.requested_at, Cycle::new(9));
        assert_eq!(read.txn.id.value(), 9);
    }

    #[test]
    #[should_panic(expected = "response for a transaction nobody is stalled on")]
    fn a_response_nobody_waits_for_panics() {
        let mut shard = shard_port(vec![None]);
        let _ = shard.unpark(crate::txn::TransactionId::new(5));
    }

    #[test]
    fn the_lookahead_bound_applies_each_head_transform() {
        // Master 0: a remote item two positions ahead, releasing at
        // `max(t + 30, 100)` given its head releases at `t`.
        let shard = shard_port(vec![Some((30, 100)), Some((0, 0)), None]);
        let none = std::iter::empty::<Addr>;
        let at = |t| Some(Cycle::new(t));
        assert_eq!(
            shard.next_possible_crossing(Cycle::ZERO, none(), [(0, Cycle::new(10), 0)]),
            at(100)
        );
        assert_eq!(
            shard.next_possible_crossing(Cycle::ZERO, none(), [(0, Cycle::new(90), 0)]),
            at(120)
        );
        assert_eq!(
            shard.next_possible_crossing(Cycle::ZERO, none(), [(0, Cycle::new(90), 1)]),
            at(90)
        );
        // Past the last remote item, and the ingress master, bound nothing.
        let heads = [(0, Cycle::new(90), 2), (1, Cycle::new(5), 0)];
        assert_eq!(
            shard.next_possible_crossing(Cycle::ZERO, none(), heads),
            None
        );
        // A saturated release (a parked master) stays out of the minimum.
        assert_eq!(
            shard.next_possible_crossing(Cycle::ZERO, none(), [(0, Cycle::MAX, 0)]),
            None
        );
        // A remote posted write waiting in a buffer is imminent.
        let buffered = [Addr::new(0x0300_0000), Addr::new(0x0100_0000)];
        assert_eq!(
            shard.next_possible_crossing(Cycle::new(7), buffered, [(0, Cycle::new(90), 2)]),
            at(7)
        );
    }

    #[test]
    fn undrained_egress_and_owed_responses_are_imminent() {
        let mut shard = shard_port(vec![None]);
        let now = Cycle::new(40);
        let _ = shard.complete(&read_at(0, 0x0100_0000, 1), true, Cycle::new(30));
        assert_eq!(shard.next_possible_crossing(now, [], []), Some(now));
        shard.drain_into(&mut Vec::new());
        assert_eq!(shard.next_possible_crossing(now, [], []), None);
        let _ = shard.replay(read_at(7, 0x0300_0000, 41), Some(1));
        assert_eq!(shard.next_possible_crossing(now, [], []), Some(now));
    }
}
