//! The transaction-level AHB+ arbitration front-end.
//!
//! The arbiter wraps the shared [`ArbitrationPolicy`] — the QoS register
//! file (paper §2) and the filter chain — counts grants, and produces the
//! next-transaction hint the Bus Interface forwards to the DDR controller.
//! The bus presents its requests in place, as a [`RequestSet`] over its
//! ready set and master heads ([`TlmArbiter::arbitrate`]);
//! [`TlmArbiter::decide`] runs the same chain over an explicit list of
//! [`PendingRequest`]s, for replaying decisions outside a running bus.

use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, Decision, RequestSet, SampledRequests};
use amba::bi::NextTransactionInfo;
use amba::ids::{Addr, MasterId};
use amba::qos::QosConfig;
use amba::txn::{Transaction, TxnHandle};
use ddrc::DdrController;
use simkern::time::Cycle;

/// One pending request, as [`TlmArbiter::decide`] takes it.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    /// The requesting master (the write buffer uses its own id).
    pub master: MasterId,
    /// Pooled handle of the transaction the master wants to issue.
    pub handle: TxnHandle,
    /// Starting address of the burst (for the bank-affinity filter).
    pub addr: Addr,
    /// When the request was first raised (HBUSREQ assertion time).
    pub requested_at: Cycle,
    /// Whether the request comes from the write buffer.
    pub is_write_buffer: bool,
    /// Current write-buffer occupancy (only meaningful for its own request).
    pub write_buffer_fill: usize,
}

/// The transaction-level arbiter.
#[derive(Debug, Clone)]
pub struct TlmArbiter {
    policy: ArbitrationPolicy,
    bank_affinity_from_bi: bool,
    grants: u64,
    /// The buffer [`TlmArbiter::decide`] samples its request list into
    /// (reused, so repeated replays allocate nothing).
    sampled: SampledRequests,
}

impl TlmArbiter {
    /// Creates an arbiter with the given filter configuration.
    ///
    /// `bank_affinity_from_bi` mirrors the BI feedback path: when false the
    /// arbiter never learns which banks are ready and the bank-affinity
    /// filter degenerates to a no-op (used by the ablation benchmarks).
    #[must_use]
    pub fn new(config: ArbiterConfig, bank_affinity_from_bi: bool) -> Self {
        TlmArbiter {
            policy: ArbitrationPolicy::new(config),
            bank_affinity_from_bi,
            grants: 0,
            sampled: SampledRequests::new(),
        }
    }

    /// Programs the QoS registers for one master (paper §2). Every master
    /// that requests through [`TlmArbiter::arbitrate`] must be programmed;
    /// see [`ArbitrationPolicy::program_qos`].
    pub fn program_qos(&mut self, master: MasterId, qos: QosConfig) {
        self.policy.program_qos(master, qos);
    }

    /// Reads back the QoS registers of a master.
    #[must_use]
    pub fn qos_of(&self, master: MasterId) -> QosConfig {
        self.policy.qos(master)
    }

    /// The arbitration slot of a programmed master.
    #[must_use]
    pub fn slot(&self, master: MasterId) -> Option<usize> {
        self.policy.slot(master)
    }

    /// Whether the arbiter uses the BI bank-readiness feedback; a
    /// [`RequestSet`] passed to [`TlmArbiter::arbitrate`] reports no bank
    /// as ready when it does not.
    #[must_use]
    pub fn bank_affinity_from_bi(&self) -> bool {
        self.bank_affinity_from_bi
    }

    /// Number of grants issued so far.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Runs the filter chain over the requests the bus presents in place.
    /// No decision state changes until [`TlmArbiter::record_grant`].
    #[must_use]
    pub fn arbitrate(&self, requests: &impl RequestSet) -> Option<Decision> {
        self.policy.decide(requests)
    }

    /// Runs the filter chain over an explicit request list at `now`, with
    /// bank readiness read from `ddr`.
    ///
    /// Returns the winning master, or `None` when `pending` is empty. A
    /// master that was never programmed is programmed with the reset QoS
    /// defaults first; otherwise no decision state changes until
    /// [`TlmArbiter::record_grant`].
    #[must_use]
    pub fn decide(
        &mut self,
        now: Cycle,
        pending: &[PendingRequest],
        ddr: &DdrController,
    ) -> Option<Decision> {
        // Programming renumbers slots, so it all happens before sampling.
        for request in pending {
            if self.policy.slot(request.master).is_none() {
                self.policy
                    .program_qos(request.master, QosConfig::default());
            }
        }
        self.sampled.clear();
        for request in pending {
            let slot = self.policy.slot(request.master).expect("programmed above");
            if request.is_write_buffer {
                self.sampled.push_write_buffer(
                    slot,
                    request.requested_at,
                    request.addr,
                    request.write_buffer_fill,
                );
            } else {
                self.sampled.push(slot, request.requested_at, request.addr);
            }
        }
        let bank_feedback = self.bank_affinity_from_bi;
        self.policy.decide(
            &self
                .sampled
                .at(now, |addr| bank_feedback && ddr.is_addr_ready(now, addr)),
        )
    }

    /// Commits a grant decision (advances the round-robin pointer).
    pub fn record_grant(&mut self, master: MasterId) {
        self.policy.record_grant(master);
        self.grants += 1;
    }

    /// The next-transaction information the Bus Interface forwards to the
    /// DDR controller for the given (speculatively arbitrated) transaction.
    #[must_use]
    pub fn next_transaction_info(txn: &Transaction) -> NextTransactionInfo {
        NextTransactionInfo {
            master: txn.master,
            addr: txn.addr,
            direction: txn.direction,
            beats: txn.beats(),
            size: txn.size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::burst::BurstKind;
    use amba::signal::HSize;
    use amba::txn::{TransferDirection, TxnArena};
    use ddrc::DdrConfig;

    fn txn(master: u8, addr: u32) -> Transaction {
        Transaction::new(
            MasterId::new(master),
            Addr::new(addr),
            TransferDirection::Read,
            BurstKind::Incr8,
            HSize::Word,
        )
    }

    fn request(arena: &mut TxnArena, master: u8, addr: u32, requested_at: u64) -> PendingRequest {
        PendingRequest {
            master: MasterId::new(master),
            handle: arena.alloc(txn(master, addr)),
            addr: Addr::new(addr),
            requested_at: Cycle::new(requested_at),
            is_write_buffer: false,
            write_buffer_fill: 0,
        }
    }

    #[test]
    fn empty_pending_set_yields_no_grant() {
        let mut arbiter = TlmArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        assert!(arbiter.decide(Cycle::new(0), &[], &ddr).is_none());
    }

    #[test]
    fn qos_programming_steers_decisions() {
        let mut arbiter = TlmArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(0));
        arbiter.program_qos(MasterId::new(1), QosConfig::real_time(500, 5));
        let mut arena = TxnArena::new();
        let pending = [
            request(&mut arena, 0, 0x2000_0000, 0),
            request(&mut arena, 1, 0x2000_0800, 0),
        ];
        let decision = arbiter.decide(Cycle::new(10), &pending, &ddr).unwrap();
        assert_eq!(decision.master, MasterId::new(1), "real-time class wins");
        assert!(arbiter.qos_of(MasterId::new(1)).class.is_real_time());
    }

    #[test]
    fn unprogrammed_requesters_read_the_reset_defaults() {
        let mut arbiter = TlmArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(5), QosConfig::real_time(10_000, 9));
        let mut arena = TxnArena::new();
        // Master 2 takes a slot below master 5's when it is programmed.
        let pending = [
            request(&mut arena, 5, 0x2000_0000, 0),
            request(&mut arena, 2, 0x2000_0800, 0),
        ];
        let decision = arbiter.decide(Cycle::new(10), &pending, &ddr).unwrap();
        assert_eq!(decision.master, MasterId::new(5), "real-time class wins");
        assert_eq!(arbiter.qos_of(MasterId::new(2)), QosConfig::default());
        assert_eq!(arbiter.slot(MasterId::new(2)), Some(0));
    }

    #[test]
    fn bank_affinity_uses_bi_feedback_only_when_enabled() {
        let mut ddr = DdrController::new(DdrConfig::ahb_plus());
        // Open row 0 in bank 0 and bank 1. Master 0 will then target a
        // *different* row of bank 0 (conflict, not ready) while master 1
        // targets the open row of bank 1 (ready).
        ddr.access(Cycle::new(0), Addr::new(0x2000_0000), false, 4);
        ddr.access(Cycle::new(20), Addr::new(0x2000_0800), false, 4);
        let mut arena = TxnArena::new();
        let pending = [
            request(&mut arena, 0, 0x2000_0000 + 4 * 2048, 0),
            request(&mut arena, 1, 0x2000_0840, 0),
        ];

        let mut with_bi = TlmArbiter::new(ArbiterConfig::ahb_plus(), true);
        let decision = with_bi.decide(Cycle::new(50), &pending, &ddr).unwrap();
        assert_eq!(decision.master, MasterId::new(1), "ready bank preferred");

        let mut without_bi = TlmArbiter::new(ArbiterConfig::ahb_plus(), false);
        let decision = without_bi.decide(Cycle::new(50), &pending, &ddr).unwrap();
        assert_eq!(
            decision.master,
            MasterId::new(0),
            "without BI feedback the fixed priority decides"
        );
    }

    #[test]
    fn record_grant_advances_round_robin_and_counts() {
        let mut arbiter = TlmArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(3));
        arbiter.program_qos(MasterId::new(1), QosConfig::non_real_time(3));
        let mut arena = TxnArena::new();
        let pending = [
            request(&mut arena, 0, 0x2000_0000, 0),
            request(&mut arena, 1, 0x2000_0000, 0),
        ];
        let first = arbiter.decide(Cycle::new(0), &pending, &ddr).unwrap();
        arbiter.record_grant(first.master);
        let second = arbiter.decide(Cycle::new(0), &pending, &ddr).unwrap();
        assert_ne!(first.master, second.master, "round robin rotates");
        assert_eq!(arbiter.grants(), 1);
    }

    #[test]
    fn next_transaction_info_copies_the_geometry() {
        let t = txn(2, 0x2345_0000);
        let info = TlmArbiter::next_transaction_info(&t);
        assert_eq!(info.master, MasterId::new(2));
        assert_eq!(info.beats, 8);
        assert_eq!(info.addr, Addr::new(0x2345_0000));
    }
}
