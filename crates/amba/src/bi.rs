//! The Bus Interface (BI) between the AHB+ arbiter and the DDR controller.
//!
//! The paper (§2, §3.4) introduces a special interface "for transferring
//! special information between arbiter and memory controller such as the
//! next transaction information, idle bank, access permission and so on".
//! The arbiter forwards the *next* transaction it has already arbitrated
//! (request pipelining) so the controller can pre-charge / activate the
//! target bank while the current transaction is still transferring data —
//! the bank-interleaving mechanism that maximizes bus utilization.
//!
//! In this reproduction the BI is a plain message vocabulary: the RTL model
//! drives the same information over dedicated signals, the TLM model passes
//! the messages as function arguments.

use std::fmt;

use crate::ids::{Addr, MasterId};
use crate::signal::HSize;
use crate::txn::TransferDirection;

/// Advance notice of the next arbitrated transaction (arbiter → DDRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextTransactionInfo {
    /// The master that will own the next transaction.
    pub master: MasterId,
    /// Starting address of the next transaction.
    pub addr: Addr,
    /// Direction of the next transaction.
    pub direction: TransferDirection,
    /// Number of beats of the next transaction.
    pub beats: u32,
    /// Per-beat size of the next transaction.
    pub size: HSize,
}

impl fmt::Display for NextTransactionInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "next: {} {} {} x{} @ {}",
            self.master, self.direction, self.size, self.beats, self.addr
        )
    }
}

/// Per-bank readiness feedback (DDRC → arbiter).
///
/// `ready_banks` is a bitmask with bit *b* set when bank *b* is either idle
/// (pre-charged) or already has the row that the hinted address needs open —
/// i.e. a new transaction to that bank can start without paying the full
/// activate/pre-charge penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankHint {
    /// Bitmask of banks that can accept a new transaction cheaply.
    pub ready_banks: u32,
    /// Total number of banks in the device.
    pub bank_count: u8,
}

impl BankHint {
    /// Creates a hint for a device with `bank_count` banks and the given
    /// readiness mask.
    #[must_use]
    pub fn new(bank_count: u8, ready_banks: u32) -> Self {
        BankHint {
            ready_banks,
            bank_count,
        }
    }

    /// Returns `true` if `bank` is marked ready.
    #[must_use]
    pub fn is_ready(&self, bank: u8) -> bool {
        bank < self.bank_count && (self.ready_banks >> bank) & 1 == 1
    }

    /// Number of ready banks.
    #[must_use]
    pub fn ready_count(&self) -> u32 {
        let mask = if self.bank_count >= 32 {
            u32::MAX
        } else {
            (1u32 << self.bank_count) - 1
        };
        (self.ready_banks & mask).count_ones()
    }
}

/// Access permission handshake (DDRC → arbiter).
///
/// The controller can temporarily withhold permission, e.g. while all banks
/// are busy refreshing, so the arbiter does not start an address phase the
/// memory cannot accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPermission {
    /// The controller can accept a new transaction immediately.
    #[default]
    Granted,
    /// The controller asks the arbiter to hold off for the given number of
    /// cycles (e.g. a refresh is in progress).
    Deferred(u32),
}

impl AccessPermission {
    /// Returns `true` if access is granted now.
    #[must_use]
    pub const fn is_granted(self) -> bool {
        matches!(self, AccessPermission::Granted)
    }

    /// Cycles to wait before retrying (zero when granted).
    #[must_use]
    pub const fn defer_cycles(self) -> u32 {
        match self {
            AccessPermission::Granted => 0,
            AccessPermission::Deferred(cycles) => cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_hint_readiness() {
        let hint = BankHint::new(4, 0b1010);
        assert!(!hint.is_ready(0));
        assert!(hint.is_ready(1));
        assert!(!hint.is_ready(2));
        assert!(hint.is_ready(3));
        assert!(!hint.is_ready(4), "out of range bank is never ready");
        assert_eq!(hint.ready_count(), 2);
    }

    #[test]
    fn bank_hint_masks_out_of_range_bits() {
        let hint = BankHint::new(2, 0b1111);
        assert_eq!(hint.ready_count(), 2);
    }

    #[test]
    fn access_permission_defaults_to_granted() {
        let p = AccessPermission::default();
        assert!(p.is_granted());
        assert_eq!(p.defer_cycles(), 0);
        let d = AccessPermission::Deferred(12);
        assert!(!d.is_granted());
        assert_eq!(d.defer_cycles(), 12);
    }
}
