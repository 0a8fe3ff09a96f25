//! Cycle-level master bus-functional models.
//!
//! An [`RtlMaster`] replays a [`TrafficTrace`] at signal level: when a trace
//! item's release time arrives it asserts `HBUSREQ` (enters the requesting
//! state), holds the request until the arbiter grants it and the bus
//! sequencer starts its burst, then steps through the address phases of the
//! burst one beat per accepted cycle. Posted writes may instead be absorbed
//! by the write buffer while the master is still waiting for a grant, which
//! releases the master immediately (paper §3.3).

use amba::ids::MasterId;
use amba::qos::QosConfig;
use amba::txn::Transaction;
use simkern::time::Cycle;
use traffic::TrafficTrace;

/// Request/transfer state of one master BFM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterState {
    /// Waiting for the release time of the next trace item.
    Waiting,
    /// `HBUSREQ` asserted, waiting for a grant.
    Requesting {
        /// Cycle at which the request was first asserted.
        since: Cycle,
    },
    /// The bus sequencer is transferring this master's burst.
    Transferring,
}

/// One trace-driven, cycle-level master.
#[derive(Debug, Clone)]
pub struct RtlMaster {
    id: MasterId,
    label: String,
    qos: QosConfig,
    posted_writes: bool,
    trace: TrafficTrace,
    next: usize,
    ready_at: Cycle,
    state: MasterState,
    completed: u64,
}

impl RtlMaster {
    /// Creates a master BFM from its trace and QoS programming.
    #[must_use]
    pub fn new(trace: TrafficTrace, label: &str, qos: QosConfig, posted_writes: bool) -> Self {
        let ready_at = trace.first_release();
        RtlMaster {
            id: trace.master(),
            label: label.to_owned(),
            qos,
            posted_writes,
            trace,
            next: 0,
            ready_at,
            state: MasterState::Waiting,
            completed: 0,
        }
    }

    /// The master identifier.
    #[must_use]
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// QoS register programming.
    #[must_use]
    pub fn qos(&self) -> QosConfig {
        self.qos
    }

    /// Whether writes may be posted into the write buffer.
    #[must_use]
    pub fn posted_writes(&self) -> bool {
        self.posted_writes
    }

    /// Current BFM state.
    #[must_use]
    pub fn state(&self) -> MasterState {
        self.state
    }

    /// Returns `true` when the trace has fully drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.trace.len()
    }

    /// Transactions completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Release time of the head trace item, or `None` when done.
    #[must_use]
    pub fn ready_at(&self) -> Option<Cycle> {
        if self.is_done() {
            None
        } else {
            Some(self.ready_at)
        }
    }

    /// The transaction the master wants to issue (head of trace).
    #[must_use]
    pub fn current(&self) -> Option<&Transaction> {
        self.trace.items().get(self.next).map(|i| &i.txn)
    }

    /// Per-cycle request update: asserts the request when the release time
    /// of the head item has arrived. Returns `true` if the master is
    /// requesting after the update.
    pub fn update_request(&mut self, now: Cycle) -> bool {
        if let MasterState::Waiting = self.state {
            if !self.is_done() && self.ready_at <= now {
                self.state = MasterState::Requesting {
                    since: self.ready_at,
                };
            }
        }
        matches!(self.state, MasterState::Requesting { .. })
    }

    /// The cycle at which the current request was raised.
    ///
    /// # Panics
    ///
    /// Panics if the master is not requesting.
    #[must_use]
    pub fn requested_at(&self) -> Cycle {
        match self.state {
            MasterState::Requesting { since } => since,
            _ => panic!("master {} is not requesting", self.id),
        }
    }

    /// Returns `true` while the master has an asserted request.
    #[must_use]
    pub fn is_requesting(&self) -> bool {
        matches!(self.state, MasterState::Requesting { .. })
    }

    /// Moves the master into the transferring state and returns a copy of
    /// the transaction the bus sequencer will now carry out.
    ///
    /// # Panics
    ///
    /// Panics if the master has nothing to transfer.
    pub fn begin_transfer(&mut self) -> Transaction {
        assert!(!self.is_done(), "begin_transfer on a drained master");
        self.state = MasterState::Transferring;
        self.trace.items()[self.next].txn
    }

    /// Completes the in-flight transaction at `done` (last data beat) and
    /// schedules the next trace item.
    pub fn finish_transfer(&mut self, done: Cycle) {
        self.advance(done);
    }

    /// The write buffer absorbed the pending posted write at `now`; the
    /// master continues as if the transaction had completed.
    pub fn absorb_posted(&mut self, now: Cycle) {
        self.advance(now);
    }

    fn advance(&mut self, done: Cycle) {
        assert!(!self.is_done(), "advance on a drained master");
        self.completed += 1;
        self.next += 1;
        self.state = MasterState::Waiting;
        if let Some(item) = self.trace.items().get(self.next) {
            self.ready_at = item.release.after(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::time::CycleDelta;
    use traffic::{MasterProfile, Workload};

    fn master(count: usize) -> RtlMaster {
        let profile = MasterProfile::cpu();
        let trace = Workload::new(MasterId::new(0), profile.clone(), 5).generate(count);
        RtlMaster::new(trace, "cpu", profile.qos_config(), profile.posted_writes)
    }

    #[test]
    fn request_asserted_only_after_release_time() {
        let mut m = master(3);
        let ready = m.ready_at().unwrap();
        if ready > Cycle::ZERO {
            assert!(!m.update_request(Cycle::ZERO));
        }
        assert!(m.update_request(ready));
        assert!(m.is_requesting());
        assert_eq!(m.requested_at(), ready);
    }

    #[test]
    fn transfer_lifecycle_advances_the_trace() {
        let mut m = master(2);
        let ready = m.ready_at().unwrap();
        m.update_request(ready);
        let txn = m.begin_transfer();
        assert_eq!(txn.master, MasterId::new(0));
        assert_eq!(m.state(), MasterState::Transferring);
        m.finish_transfer(ready + CycleDelta::new(25));
        assert_eq!(m.completed(), 1);
        assert_eq!(m.state(), MasterState::Waiting);
        assert!(!m.is_done());
        m.update_request(Cycle::new(1_000_000));
        m.begin_transfer();
        m.finish_transfer(Cycle::new(1_000_025));
        assert!(m.is_done());
        assert!(m.ready_at().is_none());
    }

    #[test]
    fn absorption_behaves_like_completion_for_the_master() {
        let mut m = master(2);
        let ready = m.ready_at().unwrap();
        m.update_request(ready);
        m.absorb_posted(ready);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.state(), MasterState::Waiting);
        let next_ready = m.ready_at().unwrap();
        assert!(next_ready >= ready);
    }

    #[test]
    #[should_panic(expected = "not requesting")]
    fn requested_at_panics_when_idle() {
        let m = master(1);
        let _ = m.requested_at();
    }

    #[test]
    fn metadata_accessors() {
        let m = master(1);
        assert_eq!(m.id(), MasterId::new(0));
        assert_eq!(m.label(), "cpu");
        assert!(!m.qos().class.is_real_time());
        assert!(m.posted_writes());
        assert!(m.current().is_some());
    }
}
