//! The cycle-level AHB+ arbiter.
//!
//! Samples the `HBUSREQ` wires (plus the write buffer's internal request)
//! every clock cycle into a [`SampledRequests`] buffer the system keeps,
//! and runs the exact same [`amba::arbitration::ArbitrationPolicy`] chain
//! as the transaction-level arbiter; the waited counters are the sampled
//! request times. The decision is driven onto the registered `HGRANT`
//! signal by the system; this block is purely combinational.

use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, Decision, SampledRequests};
use amba::ids::MasterId;
use amba::qos::QosConfig;
use ddrc::DdrController;
use simkern::time::Cycle;

/// The cycle-level arbiter block.
#[derive(Debug, Clone)]
pub struct RtlArbiter {
    policy: ArbitrationPolicy,
    bank_affinity_from_bi: bool,
    grants: u64,
}

impl RtlArbiter {
    /// Creates an arbiter with the given filter configuration.
    #[must_use]
    pub fn new(config: ArbiterConfig, bank_affinity_from_bi: bool) -> Self {
        RtlArbiter {
            policy: ArbitrationPolicy::new(config),
            bank_affinity_from_bi,
            grants: 0,
        }
    }

    /// Programs the QoS registers of a master (every sampled requester
    /// must be programmed; see [`ArbitrationPolicy::program_qos`]).
    pub fn program_qos(&mut self, master: MasterId, qos: QosConfig) {
        self.policy.program_qos(master, qos);
    }

    /// The arbitration slot a programmed master's request is sampled into.
    #[must_use]
    pub fn slot(&self, master: MasterId) -> Option<usize> {
        self.policy.slot(master)
    }

    /// Number of grants issued so far.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Runs the filter chain over the requests sampled at `now`, with bank
    /// readiness read from `ddr` when the BI feedback is on.
    #[must_use]
    pub fn decide(
        &self,
        now: Cycle,
        sampled: &SampledRequests,
        ddr: &DdrController,
    ) -> Option<Decision> {
        let bank_feedback = self.bank_affinity_from_bi;
        self.policy
            .decide(&sampled.at(now, |addr| bank_feedback && ddr.is_addr_ready(now, addr)))
    }

    /// Commits a grant (advances the round-robin pointer).
    pub fn record_grant(&mut self, master: MasterId) {
        self.policy.record_grant(master);
        self.grants += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::ids::Addr;
    use ddrc::DdrConfig;

    /// Samples `(master, requested_at, addr)` requests into a buffer.
    fn sampled(arbiter: &RtlArbiter, requests: &[(u8, u64, u32)]) -> SampledRequests {
        let mut sampled = SampledRequests::new();
        for &(master, requested_at, addr) in requests {
            let slot = arbiter.slot(MasterId::new(master)).expect("programmed");
            sampled.push(slot, Cycle::new(requested_at), Addr::new(addr));
        }
        sampled
    }

    #[test]
    fn empty_sample_set_gives_no_grant() {
        let arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        assert!(arbiter
            .decide(Cycle::new(0), &SampledRequests::new(), &ddr)
            .is_none());
    }

    #[test]
    fn real_time_master_wins_over_best_effort() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(0));
        arbiter.program_qos(MasterId::new(1), QosConfig::real_time(300, 7));
        let requests = sampled(&arbiter, &[(0, 0, 0x2000_0000), (1, 0, 0x2000_0800)]);
        let decision = arbiter.decide(Cycle::new(5), &requests, &ddr).unwrap();
        assert_eq!(decision.master, MasterId::new(1));
    }

    #[test]
    fn waited_counters_trigger_qos_urgency() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::real_time(1_000, 0));
        arbiter.program_qos(MasterId::new(1), QosConfig::real_time(100, 7));
        // Master 1 has been waiting 90 of its 100-cycle budget; master 0 has
        // barely waited. Urgency must override the better fixed priority.
        let requests = sampled(&arbiter, &[(0, 99, 0x2000_0000), (1, 10, 0x2000_0800)]);
        let decision = arbiter.decide(Cycle::new(100), &requests, &ddr).unwrap();
        assert_eq!(decision.master, MasterId::new(1));
    }

    #[test]
    fn grant_recording_rotates_round_robin() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(4));
        arbiter.program_qos(MasterId::new(1), QosConfig::non_real_time(4));
        let requests = sampled(&arbiter, &[(0, 0, 0x2000_0000), (1, 0, 0x2000_0000)]);
        let first = arbiter.decide(Cycle::new(0), &requests, &ddr).unwrap();
        arbiter.record_grant(first.master);
        let second = arbiter.decide(Cycle::new(0), &requests, &ddr).unwrap();
        assert_ne!(first.master, second.master);
        assert_eq!(arbiter.grants(), 1);
    }
}
