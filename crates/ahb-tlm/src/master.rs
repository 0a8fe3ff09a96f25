//! Trace-driven transaction-level master ports.
//!
//! In the paper's modeling flow the signal-level handshake of a master is
//! re-expressed as port functions: the master calls `CheckGrant()` until it
//! returns true, then calls `Read(addr, *data, *ctrl)` / `Write(...)` and
//! receives an `OK` status (§3.2). [`TraceMaster`] reproduces that behaviour
//! while being driven from a pre-generated [`TrafficTrace`]: it exposes the
//! transaction it currently wants to issue (`intern_pending`), and is told
//! by the bus when that transaction completed (`complete_current`), after which
//! it computes the release time of its next request (closed-loop think time
//! or periodic release).

use amba::ids::MasterId;
use amba::txn::{Transaction, TxnArena, TxnHandle};
use simkern::time::Cycle;
use traffic::TrafficTrace;

/// One trace-driven master port.
#[derive(Debug, Clone)]
pub struct TraceMaster {
    id: MasterId,
    posted_writes: bool,
    items: TrafficTrace,
    next: usize,
    ready_at: Cycle,
    /// Pooled handle of the head-of-trace transaction, interned lazily the
    /// first time the request becomes visible to the bus. The master owns
    /// the handle until the transaction retires (bus releases it) or the
    /// write buffer absorbs it (ownership transfers with the absorb).
    handle: Option<TxnHandle>,
}

impl TraceMaster {
    /// Creates a master from its trace.
    #[must_use]
    pub fn new(trace: TrafficTrace, posted_writes: bool) -> Self {
        let ready_at = trace.first_release();
        TraceMaster {
            id: trace.master(),
            posted_writes,
            items: trace,
            next: 0,
            ready_at,
            handle: None,
        }
    }

    /// The master identifier.
    #[must_use]
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// Whether this master tolerates posting its writes.
    #[must_use]
    pub fn posted_writes(&self) -> bool {
        self.posted_writes
    }

    /// Returns `true` when every trace item has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.items.len()
    }

    /// The cycle at which the head-of-trace transaction wants the bus, or
    /// `None` when the trace is exhausted. This is the `HBUSREQ` assertion
    /// time at the signal level.
    #[must_use]
    pub fn ready_at(&self) -> Option<Cycle> {
        if self.is_done() {
            None
        } else {
            Some(self.ready_at)
        }
    }

    /// The head-of-trace transaction as generated, or `None` when the
    /// trace is exhausted. The bus reads a request's address here, in
    /// place, without interning it.
    #[must_use]
    pub fn head(&self) -> Option<&Transaction> {
        self.items.items().get(self.next).map(|item| &item.txn)
    }

    /// Whether the head is a write this master posts: one the write buffer
    /// can absorb.
    #[must_use]
    pub fn head_is_postable(&self) -> bool {
        self.posted_writes
            && self
                .head()
                .is_some_and(|txn| txn.posted_ok && txn.is_write())
    }

    /// Index of the head-of-trace item. The multi-bus lookahead scan uses
    /// this to index its precomputed per-position release transforms.
    #[must_use]
    pub fn trace_position(&self) -> usize {
        self.next
    }

    /// Returns `true` when every transaction of this master's trace passes
    /// `amba::check::validate_transaction`. Computed once so the bus can
    /// skip the per-issue consistency re-check on pre-validated traces.
    #[must_use]
    pub fn trace_is_valid(&self) -> bool {
        self.items
            .items()
            .iter()
            .all(|item| amba::check::validate_transaction(&item.txn).is_ok())
    }

    /// The pooled handle of the transaction this master wants to issue at
    /// `now`, if its release time has been reached (the `CheckGrant()` loop
    /// of the paper: the request is pending, the bus decides when to grant
    /// it). The head transaction is copied into the arena the first time
    /// the request becomes visible and the same handle is returned until
    /// the transaction retires, so repeated arbitration rounds never clone
    /// it.
    pub fn intern_pending(&mut self, now: Cycle, arena: &mut TxnArena) -> Option<TxnHandle> {
        if self.is_done() || self.ready_at > now {
            return None;
        }
        if self.handle.is_none() {
            let txn = self.items.items()[self.next].txn.issued(self.ready_at);
            self.handle = Some(arena.alloc(txn));
        }
        self.handle
    }

    /// Inserts a transaction released at the absolute cycle `release_at`
    /// into the pending tail of the trace (see
    /// [`TrafficTrace::insert_pending`]): how the bridge replay master of
    /// a multi-bus shard receives its work at runtime.
    ///
    /// Returns `true` when the new item became the head of the trace
    /// (`ready_at` was refreshed; the caller re-registers the master with
    /// the platform's ready set and, when the trace was exhausted, its
    /// completion bookkeeping). A head it displaces loses its interned
    /// handle back to `arena`, so the next [`TraceMaster::intern_pending`]
    /// interns the new head rather than replaying the displaced one.
    pub fn insert_pending(
        &mut self,
        txn: Transaction,
        release_at: Cycle,
        arena: &mut TxnArena,
    ) -> bool {
        let head = self.items.insert_pending(self.next, txn, release_at) == self.next;
        if head {
            self.ready_at = release_at;
            if let Some(displaced) = self.handle.take() {
                arena.release(displaced);
            }
        }
        head
    }

    /// Parks the head transaction: the request was issued (a non-posted
    /// bridge crossing left the shard) but the transfer is not complete —
    /// the trace does not advance and the cached arena handle is
    /// forgotten (the bus released it; the parked copy lives in the
    /// bridge's stall table). The caller removes this master from the
    /// ready set; [`TraceMaster::complete_current`] resumes it when the
    /// response retires the transfer.
    ///
    /// # Panics
    ///
    /// Panics if the trace is already exhausted.
    pub fn park_current(&mut self) {
        assert!(!self.is_done(), "park_current on an exhausted trace");
        self.handle = None;
    }

    /// Marks the head transaction as issued to the bus (or absorbed by the
    /// write buffer) and completed at `done`, then computes the release time
    /// of the next trace item.
    ///
    /// The cached arena handle is forgotten (not released): by this point
    /// its ownership has either moved to the write buffer or the bus is
    /// about to release it after recording the completion.
    ///
    /// # Panics
    ///
    /// Panics if the trace is already exhausted.
    pub fn complete_current(&mut self, done: Cycle) {
        assert!(!self.is_done(), "complete_current on an exhausted trace");
        self.handle = None;
        self.next += 1;
        if let Some(item) = self.items.items().get(self.next) {
            self.ready_at = item.release.after(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::time::CycleDelta;
    use traffic::{MasterProfile, Workload};

    fn master(profile: MasterProfile, count: usize) -> TraceMaster {
        let trace = Workload::new(MasterId::new(1), profile.clone(), 42).generate(count);
        TraceMaster::new(trace, profile.posted_writes)
    }

    #[test]
    fn fresh_master_exposes_first_item_after_release() {
        let mut m = master(MasterProfile::cpu(), 10);
        let mut arena = TxnArena::new();
        let ready = m.ready_at().expect("not done");
        if ready > Cycle::ZERO {
            assert!(m.intern_pending(Cycle::ZERO, &mut arena).is_none());
        }
        let handle = m.intern_pending(ready, &mut arena).expect("released");
        assert_eq!(m.intern_pending(ready, &mut arena), Some(handle));
        assert_eq!(m.trace_position(), 0);
        assert!(!m.is_done());
    }

    #[test]
    fn completing_items_advances_the_trace_until_done() {
        let mut m = master(MasterProfile::cpu(), 5);
        let mut now = Cycle::ZERO;
        for _ in 0..5 {
            let ready = m.ready_at().unwrap();
            now = now.max(ready) + CycleDelta::new(20);
            m.complete_current(now);
        }
        assert!(m.is_done());
        assert_eq!(m.trace_position(), 5);
        assert!(m.ready_at().is_none());
        assert!(m
            .intern_pending(Cycle::new(1_000_000), &mut TxnArena::new())
            .is_none());
    }

    #[test]
    fn closed_loop_release_follows_completion_time() {
        let mut m = master(MasterProfile::cpu(), 3);
        let done = Cycle::new(500);
        m.complete_current(done);
        let next_ready = m.ready_at().unwrap();
        assert!(next_ready >= done, "think time starts at completion");
    }

    #[test]
    fn periodic_release_does_not_depend_on_completion() {
        let mut m = master(MasterProfile::video_realtime(), 4);
        // Complete the first transaction extremely late; the second release
        // is the max of its period slot and the completion time.
        let done = Cycle::new(10_000);
        m.complete_current(done);
        assert_eq!(m.ready_at().unwrap(), done);

        let mut fast = master(MasterProfile::video_realtime(), 4);
        fast.complete_current(Cycle::new(1));
        assert!(
            fast.ready_at().unwrap() >= Cycle::new(100),
            "periodic master waits for its next period slot"
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn completing_past_the_end_panics() {
        let mut m = master(MasterProfile::cpu(), 1);
        m.complete_current(Cycle::new(10));
        m.complete_current(Cycle::new(20));
    }

    #[test]
    fn a_displaced_head_is_not_replayed() {
        use amba::burst::BurstKind;
        use amba::ids::Addr;
        use amba::signal::HSize;
        use amba::txn::TransferDirection;

        let crossing = |addr: u32| {
            Transaction::new(
                MasterId::new(240),
                Addr::new(addr),
                TransferDirection::Read,
                BurstKind::Incr4,
                HSize::Word,
            )
        };
        let mut m = TraceMaster::new(TrafficTrace::empty(MasterId::new(240)), false);
        let mut arena = TxnArena::new();
        assert!(m.insert_pending(crossing(0x100), Cycle::new(50), &mut arena));
        let first = m
            .intern_pending(Cycle::new(60), &mut arena)
            .expect("released");
        assert_eq!(arena.get(first).addr, Addr::new(0x100));
        // A crossing released earlier lands ahead of the interned head.
        assert!(m.insert_pending(crossing(0x200), Cycle::new(40), &mut arena));
        let head = m
            .intern_pending(Cycle::new(60), &mut arena)
            .expect("released");
        assert_eq!(arena.get(head).addr, Addr::new(0x200));
        assert_eq!(m.head().map(|t| t.addr), Some(Addr::new(0x200)));
        assert_eq!(m.ready_at(), Some(Cycle::new(40)));
    }

    #[test]
    fn metadata_accessors() {
        let m = master(MasterProfile::video_realtime(), 2);
        assert_eq!(m.id(), MasterId::new(1));
        assert!(!m.posted_writes());
        assert!(m.trace_is_valid());
    }
}
