//! The transaction vocabulary used at the transaction-level ports.
//!
//! Section 3.2 of the paper maps the signal-level handshake
//! (`HBUSREQ`/`HGRANT`, then `HADDR`/`HRDATA`/`HREADY`) onto port functions
//! such as `CheckGrant()` and `Read(addr, *data, *ctrl)`. [`Transaction`] is
//! the record those functions exchange: who is requesting, where, in which
//! direction, with which burst shape, plus the issue timestamp used
//! by the profiling layer.

use std::fmt;

use simkern::time::Cycle;

use crate::burst::{BurstKind, BurstSequence};
use crate::ids::{Addr, MasterId};
use crate::signal::HSize;

/// Globally unique transaction identifier (per simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransactionId(u64);

impl TransactionId {
    /// Creates an identifier from a raw sequence number.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        TransactionId(value)
    }

    /// Raw sequence number.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The next identifier in sequence.
    #[must_use]
    pub const fn next(self) -> TransactionId {
        TransactionId(self.0 + 1)
    }
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Direction of a transfer as seen from the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDirection {
    /// Master reads from the slave (`HWRITE` low).
    Read,
    /// Master writes to the slave (`HWRITE` high).
    Write,
}

impl TransferDirection {
    /// Returns `true` for writes.
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, TransferDirection::Write)
    }
}

impl fmt::Display for TransferDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferDirection::Read => write!(f, "read"),
            TransferDirection::Write => write!(f, "write"),
        }
    }
}

/// One bus transaction (a complete burst) as exchanged at a TLM port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Identifier assigned by the issuing master or generator.
    pub id: TransactionId,
    /// The issuing master.
    pub master: MasterId,
    /// Starting address of the burst.
    pub addr: Addr,
    /// Read or write.
    pub direction: TransferDirection,
    /// Burst shape.
    pub burst: BurstKind,
    /// Per-beat transfer size.
    pub size: HSize,
    /// Cycle at which the master first requested the bus for this
    /// transaction (`HBUSREQ` assertion / port call time).
    pub issued_at: Cycle,
    /// Whether the issuing master may tolerate posting this write into the
    /// AHB+ write buffer. Reads are never posted.
    pub posted_ok: bool,
}

impl Transaction {
    /// Creates a transaction with identifier 0 issued at cycle 0.
    ///
    /// Generators typically fill in [`Transaction::id`] and
    /// [`Transaction::issued_at`] afterwards via [`Transaction::with_id`]
    /// and [`Transaction::issued`].
    #[must_use]
    pub fn new(
        master: MasterId,
        addr: Addr,
        direction: TransferDirection,
        burst: BurstKind,
        size: HSize,
    ) -> Self {
        Transaction {
            id: TransactionId::new(0),
            master,
            addr,
            direction,
            burst,
            size,
            issued_at: Cycle::ZERO,
            posted_ok: direction.is_write(),
        }
    }

    /// Returns the same transaction with a different identifier.
    #[must_use]
    pub fn with_id(mut self, id: TransactionId) -> Self {
        self.id = id;
        self
    }

    /// Returns the same transaction stamped with its issue time.
    #[must_use]
    pub fn issued(mut self, at: Cycle) -> Self {
        self.issued_at = at;
        self
    }

    /// Returns the same transaction with write-posting allowed or not.
    #[must_use]
    pub fn with_posted(mut self, posted_ok: bool) -> Self {
        self.posted_ok = posted_ok && self.direction.is_write();
        self
    }

    /// Number of beats in the burst.
    #[must_use]
    pub fn beats(&self) -> u32 {
        self.burst.beats()
    }

    /// Total bytes moved.
    #[must_use]
    pub fn bytes(&self) -> u32 {
        self.beats() * self.size.bytes()
    }

    /// Returns `true` for writes.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.direction.is_write()
    }

    /// The per-beat address sequence of this transaction.
    #[must_use]
    pub fn beat_addresses(&self) -> BurstSequence {
        BurstSequence::new(self.addr, self.burst, self.size)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} beats of {} at {}",
            self.id,
            self.master,
            self.direction,
            self.beats(),
            self.size,
            self.addr
        )
    }
}

/// Handle to a [`Transaction`] owned by a [`TxnArena`].
///
/// Handles are plain `Copy` indices: cheap to pass through the arbiter, the
/// write buffer and the DDR-controller path without cloning the transaction
/// record. A handle is only meaningful together with the arena that issued
/// it; see the arena's ownership rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle(u32);

impl TxnHandle {
    /// Raw slot index (stable for the lifetime of the allocation).
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// A pool of in-flight [`Transaction`] records with O(1) allocate/release
/// and slot reuse — the zero-allocation backbone of the TLM hot path.
///
/// # Ownership rules
///
/// * Exactly one owner per live handle: the component that currently holds
///   responsibility for the transaction (a master port while the request is
///   pending, the write buffer after it absorbs a posted write, the bus
///   while the data phase runs).
/// * The owner — and only the owner — must either pass the handle on or
///   [`TxnArena::release`] it after the transaction completes. Releasing
///   returns the slot to the free list; the handle must not be used again.
/// * Reads through [`TxnArena::get`] are fine from anywhere while the
///   handle is live (the arbiter and DDR path do this), but only the owner
///   may release.
///
/// Slots are recycled LIFO, so a steady-state simulation allocates only
/// during its warm-up transient (the high-water mark of concurrently
/// in-flight transactions).
#[derive(Debug, Clone, Default)]
pub struct TxnArena {
    slots: Vec<Transaction>,
    free: Vec<u32>,
    live: usize,
}

impl TxnArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        TxnArena::default()
    }

    /// Creates an arena with room for `capacity` in-flight transactions
    /// before it has to grow.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TxnArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Moves `txn` into the pool and returns its handle.
    pub fn alloc(&mut self, txn: Transaction) -> TxnHandle {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            self.slots[index as usize] = txn;
            TxnHandle(index)
        } else {
            let index = u32::try_from(self.slots.len()).expect("transaction arena overflow");
            self.slots.push(txn);
            TxnHandle(index)
        }
    }

    /// Reads a pooled transaction.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not come from this arena.
    #[must_use]
    pub fn get(&self, handle: TxnHandle) -> &Transaction {
        &self.slots[handle.0 as usize]
    }

    /// Mutable access to a pooled transaction (for stamping issue times).
    pub fn get_mut(&mut self, handle: TxnHandle) -> &mut Transaction {
        &mut self.slots[handle.0 as usize]
    }

    /// Returns a completed (or cancelled) transaction's slot to the pool.
    ///
    /// Only the handle's current owner may call this, and the handle must
    /// not be used afterwards.
    pub fn release(&mut self, handle: TxnHandle) {
        debug_assert!(
            !self.free.contains(&handle.0),
            "double release of transaction slot {}",
            handle.0
        );
        self.free.push(handle.0);
        self.live -= 1;
    }

    /// Number of live (allocated, not yet released) transactions.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created — the high-water mark of concurrency.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::HSize;

    fn sample_txn() -> Transaction {
        Transaction::new(
            MasterId::new(1),
            Addr::new(0x2000_0000),
            TransferDirection::Write,
            BurstKind::Incr8,
            HSize::Word,
        )
    }

    #[test]
    fn transaction_geometry() {
        let txn = sample_txn();
        assert_eq!(txn.beats(), 8);
        assert_eq!(txn.bytes(), 32);
        assert!(txn.is_write());
        assert_eq!(txn.beat_addresses().count(), 8);
    }

    #[test]
    fn builder_style_helpers() {
        let txn = sample_txn()
            .with_id(TransactionId::new(42))
            .issued(Cycle::new(100))
            .with_posted(true);
        assert_eq!(txn.id.value(), 42);
        assert_eq!(txn.issued_at, Cycle::new(100));
        assert!(txn.posted_ok);
    }

    #[test]
    fn reads_are_never_posted() {
        let txn = Transaction::new(
            MasterId::new(0),
            Addr::new(0),
            TransferDirection::Read,
            BurstKind::Single,
            HSize::Word,
        )
        .with_posted(true);
        assert!(!txn.posted_ok);
    }

    #[test]
    fn transaction_id_sequence() {
        let id = TransactionId::new(7);
        assert_eq!(id.next().value(), 8);
        assert_eq!(id.to_string(), "T7");
    }

    #[test]
    fn display_mentions_master_and_direction() {
        let text = sample_txn().to_string();
        assert!(text.contains("M1"));
        assert!(text.contains("write"));
        assert!(text.contains("8 beats"));
    }

    #[test]
    fn arena_allocates_reads_and_releases() {
        let mut arena = TxnArena::new();
        let a = arena.alloc(sample_txn().with_id(TransactionId::new(1)));
        let b = arena.alloc(sample_txn().with_id(TransactionId::new(2)));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).id.value(), 1);
        assert_eq!(arena.get(b).id.value(), 2);
        arena.get_mut(a).issued_at = Cycle::new(77);
        assert_eq!(arena.get(a).issued_at, Cycle::new(77));
        arena.release(a);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn arena_recycles_slots_without_growing() {
        let mut arena = TxnArena::with_capacity(4);
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(arena.alloc(sample_txn().with_id(TransactionId::new(i))));
        }
        let high_water = arena.capacity();
        for _ in 0..100 {
            let h = handles.pop().unwrap();
            arena.release(h);
            handles.push(arena.alloc(sample_txn()));
        }
        assert_eq!(arena.capacity(), high_water, "steady state must not grow");
        assert_eq!(arena.live(), 4);
    }
}
